"""Family dispatch lives in ``families``: every other module reads what it
needs from the (m,t) split law or from ``FamilyInstance`` properties, so no
module outside families.py branches on a family tag."""
import re
from pathlib import Path

import logtrees

TAG = re.compile(r"\bFamily\.(MARY|FBBST|QUADTREE)\b")


def test_no_family_tag_outside_families():
    src = Path(logtrees.__file__).parent
    hits = [f"{path.name}:{no}" for path in sorted(src.glob("*.py")) if path.name != "families.py"
            for no, line in enumerate(path.read_text().splitlines(), 1) if TAG.search(line)]
    assert not hits, hits
