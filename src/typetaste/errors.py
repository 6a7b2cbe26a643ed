"""The package's one exception type.

Every failure typetaste reports is an :class:`Error`, whose message says what
was wrong and where; the CLI prints it as one ``typetaste: error:`` line.  It
is a ``ValueError``, so plain ``ValueError`` handling keeps working.  The
contract covers every value passed in.  Passing some other object where a
package object (a ``Dataset``, ``ProfileSet``, ``KmeansConfig``, ...) is
expected is a programming error, left to raise ``AttributeError``.
"""


class Error(ValueError):
    """A typetaste failure: bad input, an unusable configuration or data that
    cannot be analysed as asked."""
