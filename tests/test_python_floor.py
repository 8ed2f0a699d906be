"""Every Python file of the package, its tests and its benchmark parses with
the grammar of the oldest Python that pyproject.toml admits, and uses none
of the standard-library names added after it.  ``ast.parse(feature_version=...)``
refuses newer grammar (``except*``, PEP 695 type parameters, ...) but not
newer library calls; those are refused by name, from the list below."""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# names of the standard library that Python 3.11 added, by module (None: the
# whole module; "builtins": bare names); a new floor needs a new list
NEWER_THAN_3_10 = {
    "tomllib": None,
    "typing": {"Self", "LiteralString", "Never", "assert_never", "reveal_type",
               "Required", "NotRequired"},
    "enum": {"StrEnum"},
    "datetime": {"UTC"},
    "math": {"cbrt", "exp2"},
    "hashlib": {"file_digest"},
    "asyncio": {"TaskGroup", "timeout"},
    "contextlib": {"chdir"},
    "operator": {"call"},
    "builtins": {"ExceptionGroup", "BaseExceptionGroup"},
}


def _floor() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', text).groups()
    return int(major), int(minor)


def _files() -> list[Path]:
    return sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))


def newer_names(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, name) of every use of a ``NEWER_THAN_3_10`` name: an import of
    it, an attribute of a module imported by ``import``, or a bare builtin."""
    modules = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name in NEWER_THAN_3_10 and NEWER_THAN_3_10[alias.name] is None]
        elif isinstance(node, ast.ImportFrom) and node.module in NEWER_THAN_3_10:
            names = NEWER_THAN_3_10[node.module]
            found += [(node.lineno, f"{node.module}.{alias.name}") for alias in node.names
                      if names is None or alias.name in names]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            module = modules.get(node.value.id)
            if node.attr in (NEWER_THAN_3_10.get(module) or ()):
                found.append((node.lineno, f"{module}.{node.attr}"))
        elif isinstance(node, ast.Name) and node.id in NEWER_THAN_3_10["builtins"]:
            found.append((node.lineno, node.id))
    return found


def test_every_file_parses_at_the_python_floor():
    files = _files()
    assert len(files) > 20
    refused = []
    for path in files:
        try:
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                      feature_version=_floor())
        except SyntaxError as exc:
            refused.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert not refused, refused


def test_no_file_uses_a_library_name_newer_than_the_floor():
    assert _floor() == (3, 10), "NEWER_THAN_3_10 lists what 3.11 added"
    refused = [f"{path.relative_to(ROOT)}:{line}: {name}" for path in _files()
               for line, name in newer_names(ast.parse(path.read_text(encoding="utf-8")))]
    assert not refused, refused


def test_the_library_check_finds_each_form_of_use():
    source = "\n".join((
        "import tomllib",
        "import typing as t, math",
        "from enum import StrEnum",
        "def f(x: t.Self):",
        "    import contextlib",
        "    return contextlib.chdir, math.cbrt(x), ExceptionGroup",
        "from datetime import datetime",
        "datetime.UTC",  # the class, not the module: allowed
        "math.sqrt",
    ))
    assert sorted(newer_names(ast.parse(source))) == [
        (1, "tomllib"), (3, "enum.StrEnum"), (4, "typing.Self"),
        (6, "ExceptionGroup"), (6, "contextlib.chdir"), (6, "math.cbrt")]
