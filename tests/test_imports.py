"""Every module-level import in the package, the tests and the demos is used,
neither starting the CLI nor a whole ``evaluate`` loads scipy, and
``from typetaste import *`` binds every name the package exports.

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
from typetaste.cli import run

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


# A line of child code that prints the scipy modules loaded so far.
_PRINT_SCIPY = "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"


def _child_lines(script: str, *argv: str) -> list[str]:
    """The stdout lines of ``script`` run in a fresh interpreter on ``argv``."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_cli_start_loads_no_scipy():
    """scipy is most of a fresh start's import time, and the package needs
    none of it: not to start the CLI, and not to compute an AMI, whose
    log-factorials ``metrics`` builds itself."""
    script = (
        f"import sys, typetaste.cli\n{_PRINT_SCIPY}\n"
        "from typetaste.metrics import adjusted_mutual_information, contingency\n"
        "print(round(adjusted_mutual_information(contingency([0, 0, 1, 1], [1, 1, 0, 0])), 9))\n"
        f"{_PRINT_SCIPY}\n"
    )
    assert _child_lines(script) == ["[]", "1.0", "[]"]


def test_evaluate_loads_no_scipy(tmp_path):
    """A whole ``typetaste evaluate``, AMI included, ends with no scipy module
    loaded."""
    survey, report = tmp_path / "survey.csv", tmp_path / "report.csv"
    assert run(["synth", "--paper-frequencies", "--seed", "7", "-o", str(survey)]) == 0
    script = (
        f"import atexit, sys\natexit.register(lambda: {_PRINT_SCIPY})\n"
        "from typetaste.cli import main\nmain()\n"
    )
    argv = ["evaluate", "--input", str(survey), "--category", "music", "--restarts", "1"]
    assert _child_lines(script, *argv, "-o", str(report)) == ["[]"]
    assert report.read_text(encoding="utf-8").startswith("method,time,")


def test_star_import_binds_every_exported_name():
    """A stale ``__all__`` entry makes ``from typetaste import *`` raise."""
    namespace: dict = {}
    exec("from typetaste import *", namespace)
    assert sorted(namespace.keys() - {"__builtins__"}) == sorted(typetaste.__all__)
