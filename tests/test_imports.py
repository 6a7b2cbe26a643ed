"""Every module-level import in the package, the tests and the demos is used,
starting the CLI loads no scipy, and ``from typetaste import *`` binds every
name the package exports.

A name an import binds counts as used when it appears as a name anywhere in
the same file, or when the file lists it in ``__all__``.  ``__future__``
imports are exempt.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import typetaste

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    path
    for folder in ("src/typetaste", "tests", "demos")
    for path in (ROOT / folder).glob("*.py")
)


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name a module-level import binds, with its line number."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _used(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


def test_no_unused_imports():
    unused = []
    for path in FILES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        used = _used(tree)
        unused += [
            f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in _imported(tree).items()
            if name not in used
        ]
    assert not unused, "unused imports:\n" + "\n".join(unused)


def test_cli_start_loads_no_scipy():
    """scipy is most of a fresh start's import time; only AMI needs it, and it
    is imported the first time AMI runs."""
    script = (
        "import sys, typetaste.cli\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
        "from typetaste.metrics import adjusted_mutual_information, contingency\n"
        "print(round(adjusted_mutual_information(contingency([0, 0, 1, 1], [1, 1, 0, 0])), 9))\n"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "1.0"]


def test_star_import_binds_every_exported_name():
    """A stale ``__all__`` entry makes ``from typetaste import *`` raise."""
    namespace: dict = {}
    exec("from typetaste import *", namespace)
    assert sorted(namespace.keys() - {"__builtins__"}) == sorted(typetaste.__all__)
