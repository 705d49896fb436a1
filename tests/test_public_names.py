"""Every public name of the package has a use inside the package.

A name in ``heatsync.__all__`` that nothing in ``src/heatsync`` refers to
is kept alive only by the tests: it belongs in ``tests/oracles.py`` or
nowhere.  The check reads the modules' syntax trees, so a reference is a
name, an attribute or an import, and one inside the name's own top-level
definition does not count.  Likewise every exception in
``heatsync.errors`` has a ``raise`` site in the package, and every
defaulted parameter of a public function is passed by some call in the
package: a value that only the tests choose is a constant.  A public
method, property or dataclass field of a public class is read somewhere
in the package too, and the command line defines no exception type of
its own.
"""
import ast
import dataclasses
import inspect
from functools import cached_property
from pathlib import Path

import heatsync
from heatsync import cli, errors

PACKAGE = Path(heatsync.__file__).resolve().parent
# the version is metadata
ALLOWED = {"__version__"}
# the benchmark's spans read the certificate size off SymMatrix.dim
ALLOWED_MEMBERS = {"SymMatrix.dim"}


def referenced_names(tree: ast.Module) -> set[str]:
    """Names a module reads or imports, outside the definition of each."""
    found = set()
    for top in tree.body:
        owner = getattr(top, "name", None)  # set on function and class definitions
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            if name != owner:
                found.add(name)
    return found


def package_references() -> set[str]:
    used = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            used |= referenced_names(ast.parse(path.read_text(), filename=str(path)))
    return used


def raised_names(tree: ast.Module) -> set[str]:
    """Names of the exceptions a module raises, as ``raise E`` or ``raise E(...)``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                found.add(exc.id)
    return found


def calls_by_callee(tree: ast.Module) -> dict[str, list[ast.Call]]:
    """A module's calls, keyed by the name called, ``import ... as`` aliases undone."""
    aliases = {
        alias.asname: alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        if alias.asname
    }
    calls = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            calls.setdefault(aliases.get(name, name), []).append(node)
    return calls


def passes(call: ast.Call, index: int, param: inspect.Parameter) -> bool:
    """Whether ``call`` passes ``param``, the index-th parameter, by position or keyword."""
    if param.kind is not param.KEYWORD_ONLY and (
        len(call.args) > index or any(isinstance(a, ast.Starred) for a in call.args)
    ):
        return True
    return any(kw.arg in (param.name, None) for kw in call.keywords)  # None: **kwargs


def test_every_public_name_is_used_in_the_package():
    unused = sorted(set(heatsync.__all__) - package_references() - ALLOWED)
    assert unused == [], f"public names that only the tests use: {unused}"


def public_members(cls) -> set[str]:
    """A class's public methods and properties, and its fields if it is a dataclass."""
    fields = dataclasses.fields(cls) if dataclasses.is_dataclass(cls) else ()
    members = {field.name for field in fields} | {
        member
        for member, value in vars(cls).items()
        if inspect.isfunction(value) or isinstance(value, (property, cached_property))
    }
    return {member for member in members if not member.startswith("_")}


def test_every_public_member_is_read_in_the_package():
    used = package_references()
    unread = sorted(
        f"{name}.{member}"
        for name in heatsync.__all__
        if inspect.isclass(cls := getattr(heatsync, name))
        for member in public_members(cls)
        if member not in used and f"{name}.{member}" not in ALLOWED_MEMBERS
    )
    assert unread == [], f"public members that only the tests read: {unread}"


def test_own_definition_is_not_a_use():
    tree = ast.parse(
        "def lonely(n):\n"
        "    return lonely(n - 1) if n else 0\n"
        "class Solo:\n"
        "    def clone(self) -> Solo:\n"
        "        return Solo()\n"
        "VALUE = 1\n"
        "def caller():\n"
        "    return helper.attr\n"
    )
    used = referenced_names(tree)
    assert {"lonely", "Solo", "VALUE"}.isdisjoint(used)
    assert {"helper", "attr"} <= used


def test_every_exception_is_raised_in_the_package():
    defined = {
        name
        for name, cls in inspect.getmembers(errors, inspect.isclass)
        if issubclass(cls, errors.HeatSyncError) and cls is not errors.HeatSyncError
    }
    raised = set()
    for path in sorted(PACKAGE.glob("*.py")):
        raised |= raised_names(ast.parse(path.read_text(), filename=str(path)))
    assert sorted(defined - raised) == [], "exceptions the package never raises"


def test_cli_defines_no_exception():
    # bad input is a ValueError and a negative answer a HeatSyncError, in
    # the command line as in the package
    own = [
        name
        for name, cls in inspect.getmembers(cli, inspect.isclass)
        if cls.__module__ == cli.__name__ and issubclass(cls, BaseException)
    ]
    assert own == [], f"exception classes defined in heatsync.cli: {own}"


def test_every_default_is_passed_in_the_package():
    calls = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for name, found in calls_by_callee(ast.parse(path.read_text(), filename=str(path))).items():
            calls.setdefault(name, []).extend(found)
    unpassed = [
        f"{name}({param.name})"
        for name in heatsync.__all__
        if inspect.isfunction(func := getattr(heatsync, name))
        for index, param in enumerate(inspect.signature(func).parameters.values())
        if param.default is not param.empty
        and not any(passes(call, index, param) for call in calls.get(name, []))
    ]
    assert unpassed == [], f"defaults that no call in the package overrides: {unpassed}"
