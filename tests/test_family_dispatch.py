"""Family dispatch lives in ``families``: every other module reads what it
needs from the (m,t) split law or from ``FamilyInstance`` properties, so no
module outside families.py branches on a family tag.  Every family's
exponents come from one certified spectrum: the quadtree view
``roots.quadtree_exponents`` is for the ``roots`` command's JSON only."""
import re
from pathlib import Path

import logtrees

TAG = re.compile(r"\bFamily\.(MARY|FBBST|QUADTREE)\b")
QUADTREE_VIEW = re.compile(r"(?<!def )\bquadtree_exponents\(")


def _hits(pattern, allowed: str) -> list[str]:
    src = Path(logtrees.__file__).parent
    return [f"{path.name}:{no}" for path in sorted(src.glob("*.py")) if path.name != allowed
            for no, line in enumerate(path.read_text().splitlines(), 1) if pattern.search(line)]


def test_no_family_tag_outside_families():
    hits = _hits(TAG, "families.py")
    assert not hits, hits


def test_only_the_cli_calls_quadtree_exponents():
    hits = _hits(QUADTREE_VIEW, "cli.py")
    assert not hits, hits
