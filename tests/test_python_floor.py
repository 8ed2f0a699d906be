"""Every Python file of the package, its tests and its benchmark parses with
the grammar of the oldest Python that pyproject.toml admits.  This is a
syntax check only: ``ast.parse(feature_version=...)`` refuses newer grammar
(``except*``, PEP 695 type parameters, ...) but not newer library calls."""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _floor() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', text).groups()
    return int(major), int(minor)


def test_every_file_parses_at_the_python_floor():
    files = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))
    assert len(files) > 20
    refused = []
    for path in files:
        try:
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                      feature_version=_floor())
        except SyntaxError as exc:
            refused.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert not refused, refused
