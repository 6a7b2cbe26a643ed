"""Exception types shared across the package.

Everything derives from :class:`Error`, itself a ``ValueError``, so callers
can catch package-level failures with a single except clause while plain
``ValueError`` handling keeps working.
"""


class Error(ValueError):
    """Base class for all typetaste errors."""


class InvalidMbtiCode(Error):
    """A string is not one of the 16 four-letter personality codes."""


class InvalidRating(Error):
    """A rating value falls outside the integer 0..6 scale."""


class CatalogError(Error):
    """A genre catalog violates the required category structure."""


class SchemaMismatch(Error):
    """A CSV file does not match the expected header or row shape."""


class DuplicateRespondent(Error):
    """Two survey records share the same respondent id."""


class EmptyTable(Error):
    """A frequency table with no respondents cannot be summarized."""


class DegenerateInput(Error):
    """Input data is too small or too flat for the requested factorization."""


class DimensionMismatch(Error):
    """Array dimensions are inconsistent with the fitted model."""


class TooFewPoints(Error):
    """Fewer data points than requested clusters."""


class LengthMismatch(Error):
    """Two label sequences have different lengths."""


class EmptyInput(Error):
    """An operation received zero-length input."""


class TooFewSamples(Error):
    """A metric needs at least two samples."""


class SingleClusterOnly(Error):
    """Silhouette scores need at least two distinct clusters."""


class UnknownGenre(Error):
    """A genre name is not present in the catalog."""
