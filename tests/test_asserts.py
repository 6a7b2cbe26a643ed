"""The package states its checks as raised errors, never as ``assert``
statements, which ``python -O`` strips, and it raises one exception type,
``typetaste.errors.Error``, whose message is the contract."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "typetaste"


def _trees():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_no_assert_statements_in_package():
    found = [
        f"{path.name}:{node.lineno}"
        for path, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert not found, "assert statements in src/typetaste: " + ", ".join(found)


def _argument_parsers(tree: ast.Module) -> set[str]:
    """Names of the functions handed to ``add_argument`` as ``type=``."""
    return {
        kw.value.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "add_argument"
        for kw in node.keywords
        if kw.arg == "type" and isinstance(kw.value, ast.Name)
    }


def test_every_raise_is_the_package_error():
    found = []
    for path, tree in _trees():
        parsers = _argument_parsers(tree) if path.name == "cli.py" else set()
        in_parsers = {
            id(node)
            for func in ast.walk(tree)
            if isinstance(func, ast.FunctionDef) and func.name in parsers
            for node in ast.walk(func)
        }
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue  # not a raise, or a bare re-raise
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = ast.unparse(exc)
            if name == "Error":
                continue
            if name == "argparse.ArgumentTypeError" and id(node) in in_parsers:
                continue
            found.append(f"{path.name}:{node.lineno} raises {name}")
    assert not found, "raises of a class other than Error: " + ", ".join(found)


def test_errors_module_defines_one_class():
    tree = ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8"))
    classes = [node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    assert classes == ["Error"], f"errors.py defines {classes}"
