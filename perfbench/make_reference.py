"""Regenerate ``reference.json``, the recorded answers the checks compare to.

    python3 perfbench/make_reference.py

It records the sha256 of the data lines of each exact table the
``tables`` workload writes, and the exact rows for n <= 300 of every
float table it writes, rounded to the nearest double.  Regenerate
only when a table is meant to change; exact tables are otherwise required
to stay rationally equal.
"""
from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

from run import STATE, load_program, run_pass
from workloads import EXACT_N, EXACT_TABLES, FLOAT_TABLES, WORKLOADS, digest


def main() -> None:
    cli = load_program()
    from logtrees.families import Family, FamilyInstance
    from logtrees.moments import UnsupportedTableError, mean_tables, second_moment_tables

    STATE.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="reference-", dir=STATE))
    try:
        exact = [c for c in WORKLOADS["tables"].commands(0) if c.phase == "exact_s"]
        first = run_pass(cli, exact, scratch / "exact")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    digests = {f"moments-{f}-{p}-exact": digest(first.outputs[f"moments-{f}-{p}-exact"])
               for f, p in EXACT_TABLES}

    rows = {}
    for family, param, _ in FLOAT_TABLES:
        inst = FamilyInstance(Family(family), param)
        try:
            table = second_moment_tables(inst, EXACT_N, "exact")
            cols = {name: table.column(name) for name in table.row_names}
        except UnsupportedTableError:
            cols = dict(zip(("l_mean", "xi_mean"), mean_tables(inst, EXACT_N, "exact")))
        rows[f"{family}-{param}"] = {name: [float(v) for v in col] for name, col in cols.items()}

    out = Path(__file__).with_name("reference.json")
    out.write_text(json.dumps({"exact_digests": digests, "exact_rows": rows}) + "\n")


if __name__ == "__main__":
    main()
