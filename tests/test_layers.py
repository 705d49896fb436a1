"""The package's modules import one way: errors -> graph -> scenarios ->
certify and pdesim -> gains -> cli.

The check reads every ``import`` and ``from`` statement of each module's
syntax tree, at top level and inside functions, so an import deferred to
a command counts too.
"""
import ast
from pathlib import Path

import pytest

import heatsync

PACKAGE = Path(heatsync.__file__).resolve().parent
MODULES = {path.stem for path in PACKAGE.glob("*.py")}
# what each module must not import, at any depth
_UPPER = {"certify", "gains", "pdesim", "cli"}
FORBIDDEN = {
    "errors": _UPPER,
    "graph": _UPPER,
    "scenarios": _UPPER,
    "certify": {"pdesim", "gains", "cli"},
    "pdesim": {"certify", "gains", "cli"},
    "gains": {"pdesim", "cli"},
}


def imported_modules(tree: ast.Module) -> set[str]:
    """The package modules a syntax tree imports, by their short names."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:  # a relative import is the package's own
                base = f"heatsync.{base}".rstrip(".")
            # "from heatsync import certify" names the module itself
            names = [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        found |= {name.split(".")[1] for name in names if name.startswith("heatsync.")} & MODULES
    return found


def test_reads_nested_and_absolute_imports():
    tree = ast.parse(
        "from .certify import x\n"
        "def f():\n"
        "    from . import gains\n"
        "    import heatsync.cli\n"
        "    from heatsync.pdesim import y\n"
        "import numpy as np\n"
    )
    assert imported_modules(tree) == {"certify", "gains", "cli", "pdesim"}


def test_every_layer_is_listed():
    assert set(FORBIDDEN) <= MODULES


@pytest.mark.parametrize("module", sorted(FORBIDDEN))
def test_imports_point_one_way(module):
    path = PACKAGE / f"{module}.py"
    imported = imported_modules(ast.parse(path.read_text(), filename=str(path)))
    assert imported.isdisjoint(FORBIDDEN[module]), sorted(imported & FORBIDDEN[module])
