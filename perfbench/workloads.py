"""Benchmark workloads: the CLI invocations each one makes and the checks
its outputs must pass.

Every workload is a fixed list of ``logtrees`` command lines.  The
benchmark seed reaches the program only through the ``--seed`` values
derived here; the exact and spectral commands take no seed.  Checks run on
the outputs of the first timed pass, outside the timed region.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

REFERENCE = json.loads((Path(__file__).with_name("reference.json")).read_text())

MC_N = 10_000
MC_REPS = 4096
MC_THREADS = 2
POOL = 100_000

# Statistical checks see a new seed on every run, so each one is set to fail
# on correct output with probability about 1e-4 or less.  Var(K)/n^2 at 4096
# replicates has a seed-to-seed spread of about 2.5% of C_K, so the 5% band
# the acceptance suite uses at 10^4 replicates is widened to 10% (4 spreads);
# a KS p-value is uniform under the null, so its cut is 1e-4, not 0.01.
MEAN_SE_BAND = 4.0
VAR_K_BAND = 0.10
UNIK_VAR_BAND = 0.05
KS_P_MIN = 1e-4


@dataclass(frozen=True)
class Command:
    label: str            # output file stem, unique within a workload
    phase: str            # the per-phase metric its time counts toward
    argv: tuple[str, ...]


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class Workload:
    name: str
    imports: tuple[str, ...]          # modules the commands load lazily
    commands: Callable[[int], list[Command]]
    check: Callable[[dict[str, str]], list[Check]]


def derive_seed(seed: int, label: str) -> int:
    """Program seed for one command, a pure function of the benchmark seed."""
    return int(hashlib.sha256(f"{seed}/{label}".encode()).hexdigest()[:8], 16)


def data_lines(text: str) -> list[str]:
    return [line for line in text.splitlines() if line and not line.startswith("#")]


def csv_columns(text: str, parse=float) -> dict[str, list]:
    header, *rows = data_lines(text)
    names = header.split(",")
    cols = {name: [] for name in names}
    for row in rows:
        for name, cell in zip(names, row.split(",")):
            cols[name].append(parse(cell) if name != "n" else int(cell))
    return cols


def digest(text: str) -> str:
    """sha256 of the data lines; the header echoes the version and config."""
    return hashlib.sha256("\n".join(data_lines(text)).encode()).hexdigest()


# ---------------------------------------------------------------------------
# moment tables
# ---------------------------------------------------------------------------

EXACT_N = 300
EXACT_TABLES = (("mary", 3), ("fbbst", 1))
FLOAT_TABLES = (("mary", 3, 20_000), ("fbbst", 1, 8192), ("mary", 27, 8192),
                ("quadtree", 2, 20_000))


def _moments(family, param, nmax, mode) -> Command:
    return Command(f"moments-{family}-{param}-{mode}", f"{mode}_s",
                   ("moments", "--family", family, "--param", str(param),
                    "--nmax", str(nmax), "--mode", mode))


def _table(family, param, nmax, mode, cols):
    from logtrees.families import Family, FamilyInstance
    from logtrees.moments import MomentTable

    columns = {k: v for k, v in cols.items() if k != "n"}
    return MomentTable(FamilyInstance(Family(family), param), nmax, mode, columns)


def check_exact(outputs: dict[str, str]) -> list[Check]:
    from logtrees.moments import MARY_ROWS, permutation_oracle

    checks = []
    for family, param in EXACT_TABLES:
        label = f"moments-{family}-{param}-exact"
        text = outputs[label]
        want = REFERENCE["exact_digests"][label]
        checks.append(Check(f"{label} digest", digest(text) == want,
                            "rationally equal to the recorded table"))
        cols = csv_columns(text, Fraction)
        checks.append(Check(f"{label} cauchy-schwarz",
                            _table(family, param, EXACT_N, "exact", cols).cauchy_schwarz_ok()))
        if family == "mary":
            oracle = [permutation_oracle(n, param) for n in range(10)]
            bad = [(n, row) for n in range(10) for row in MARY_ROWS
                   if cols[row][n] != getattr(oracle[n], row)]
            checks.append(Check(f"{label} permutation oracle n<=9", not bad, str(bad[:3])))
    return checks


def check_float(outputs: dict[str, str]) -> list[Check]:
    from logtrees.moments import FLOAT_DRIFT_TOL

    checks = []
    for family, param, nmax in FLOAT_TABLES:
        label = f"moments-{family}-{param}-float"
        cols = csv_columns(outputs[label])
        ref = REFERENCE["exact_rows"][f"{family}-{param}"]
        errors = []
        for row, exact in ref.items():
            scale = max(abs(e) for e in exact) or 1.0
            errors += [(abs(cols[row][n] - e) / (abs(e) if e else scale), row, n)
                       for n, e in enumerate(exact)]
        worst = max(errors, key=lambda err: math.inf if math.isnan(err[0]) else err[0])
        checks.append(Check(f"{label} vs exact rows n<={EXACT_N}", worst[0] <= FLOAT_DRIFT_TOL,
                            "worst relative error {:.2e} in {} at n={}".format(*worst)))
        finite = len(cols["n"]) == nmax + 1 and all(
            math.isfinite(v) for k, col in cols.items() if k != "n" for v in col)
        checks.append(Check(f"{label} {nmax + 1} finite rows", finite))
        if family != "quadtree":
            checks.append(Check(f"{label} cauchy-schwarz",
                                _table(family, param, nmax, "float", cols).cauchy_schwarz_ok()))
    return checks


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

MC_FAMILIES = {"mary": 3, "fbbst": 1, "quadtree": 2}


def _simulate_commands(seed: int) -> list[Command]:
    out = []
    for family, param in MC_FAMILIES.items():
        label = f"simulate-{family}-{param}"
        out.append(Command(label, f"mc_{family}_s",
                           ("simulate", "--family", family, "--param", str(param),
                            "--n", str(MC_N), "--reps", str(MC_REPS),
                            "--seed", str(derive_seed(seed, label)),
                            "--threads", str(MC_THREADS))))
    return out


def check_simulate(outputs: dict[str, str]) -> list[Check]:
    from logtrees.asymptotics import kpl_variance_constant
    from logtrees.families import Family, FamilyInstance
    from logtrees.moments import mean_tables

    checks = []
    for family, param in MC_FAMILIES.items():
        out = json.loads(outputs[f"simulate-{family}-{param}"])
        table = mean_tables(FamilyInstance(Family(family), param), MC_N, "float")
        checks.append(Check(f"{family} count", out["count"] == MC_REPS))
        for measure, means in zip(out["measures"], table):
            z = (out["mean"][measure] - means[MC_N]) / out["sem"][measure]
            checks.append(Check(f"{family} mean {measure} vs recurrence",
                                abs(z) <= MEAN_SE_BAND, f"{z:+.2f} SE"))
    ratio = json.loads(outputs["simulate-mary-3"])["var"]["K"] / MC_N ** 2 / kpl_variance_constant(3)
    checks.append(Check("mary Var(K)/n^2 vs C_K", abs(ratio - 1) <= VAR_K_BAND,
                        f"ratio {ratio:.4f}"))
    return checks


# ---------------------------------------------------------------------------
# periodic regime
# ---------------------------------------------------------------------------

SPECTRUM_COMMANDS = [Command(label, "spectrum_s", tuple(argv.split())) for label, argv in (
    ("table-alpha", "table-alpha --from 3 --to 26"),
    ("table-c2", "table-c2 --from 3 --to 30"),
    ("roots-mary-270", "roots --family mary --param 270"),
    ("roots-fbbst-59", "roots --family fbbst --param 59"),
    ("constants-mary-27", "constants --family mary --param 27"),
    ("periodic-Frho-27", "periodic --kind Frho --param 27 --points 1024"),
    ("periodic-G1-59", "periodic --kind G1 --param 59 --points 1024"),
)]


def check_spectrum(outputs: dict[str, str]) -> list[Check]:
    from logtrees.acceptance import ALPHA_PRINTED
    from logtrees.asymptotics import REFERENCE_C2C1

    checks = []
    alpha = dict(zip(*(csv_columns(outputs["table-alpha"])[k] for k in ("m", "alpha"))))
    bad = [m for m, printed in ALPHA_PRINTED.items()
           if not (abs(alpha[m] - printed) < 1e-3
                   and (abs(math.trunc(alpha[m] * 1000) / 1000 - printed) <= 1e-12
                        or abs(round(alpha[m], 3) - printed) <= 1e-12))]
    checks.append(Check("alpha table reproduces printed digits", not bad, f"m={bad}"))

    c2 = csv_columns(outputs["table-c2"], str)
    worst = max(abs(float(v) - float(REFERENCE_C2C1[int(m)])) / float(REFERENCE_C2C1[int(m)])
                for m, v in zip(c2["m"], c2["c2_minus_phi_c1"]))
    checks.append(Check("c2 - phi c1 vs reference rationals", worst <= 1e-9,
                        f"worst relative error {worst:.1e}"))

    # criterion 4 thresholds: covariance periodic from m = 14 (t = 29), the
    # distribution from m = 27 (t = 59)
    flips = [(alpha[m] > 1.0) == (m >= 14) and alpha[m] < 1.5 for m in range(3, 27)]
    for label in ("roots-mary-270", "roots-fbbst-59"):
        out = json.loads(outputs[label])
        flips.append(out["covariance_phase"] == "periodic"
                     and out["distribution_phase"] == "periodic"
                     and len(out["roots"]) == out["degree"])
    checks.append(Check("regime flips of the solved instances", all(flips)))

    const = json.loads(outputs["constants-mary-27"])
    rel = abs(const["c2_minus_phi_c1"] / float(REFERENCE_C2C1[27]) - 1)
    checks.append(Check("constants mary(27) c2 - phi c1", rel <= 1e-9, f"{rel:.1e}"))

    frho = csv_columns(outputs["periodic-Frho-27"])["value"]
    checks.append(Check("Frho(27) is a correlation", len(frho) == 1024
                        and all(abs(v) <= 1 for v in frho)))
    g1 = csv_columns(outputs["periodic-G1-59"])["value"]
    checks.append(Check("G1(59) is a positive variance factor", len(g1) == 1024
                        and all(0 < v < math.inf for v in g1)))
    return checks


def _fixpoint_commands(seed: int) -> list[Command]:
    runs = (("TN_periodic", 27, 30), ("uniK", 3, 30), ("TNprime_normal", 3, 25))
    out = []
    for kind, param, gens in runs:
        label = f"fixpoint-{kind}-{param}"
        out.append(Command(label, "fixpoint_s", ("fixpoint", "--map", kind, "--family", "mary",
                                   "--param", str(param), "--pool", str(POOL),
                                   "--gens", str(gens), "--seed", str(derive_seed(seed, label)))))
    return out


def check_fixpoint(outputs: dict[str, str]) -> list[Check]:
    from logtrees.asymptotics import kpl_variance_constant

    diag = {label: json.loads(outputs[label])["diagnostics"]
            for label in ("fixpoint-uniK-3", "fixpoint-TNprime_normal-3", "fixpoint-TN_periodic-27")}
    ck = kpl_variance_constant(3)
    ratio = diag["fixpoint-uniK-3"]["var_x"] / ck
    p = diag["fixpoint-TNprime_normal-3"]["ks_pvalue"]
    periodic = diag["fixpoint-TN_periodic-27"]
    return [
        Check("uniK pool variance vs C_K", abs(ratio - 1) <= UNIK_VAR_BAND, f"ratio {ratio:.4f}"),
        Check("TNprime_normal KS p-value", p > KS_P_MIN, f"p = {p:.4f}"),
        Check("TN_periodic pool complete", periodic["generation"] == 30
              and periodic["pool"] == POOL and math.isfinite(periodic["var_w"])),
    ]


# ---------------------------------------------------------------------------
# the table of workloads
# ---------------------------------------------------------------------------

WORKLOADS = {w.name: w for w in (
    Workload("tables", ("logtrees.moments",),
             lambda seed: [_moments(f, p, EXACT_N, "exact") for f, p in EXACT_TABLES]
             + [_moments(f, p, n, "float") for f, p, n in FLOAT_TABLES],
             lambda outputs: check_exact(outputs) + check_float(outputs)),
    Workload("montecarlo", ("logtrees.treesim",), _simulate_commands, check_simulate),
    Workload("periodic_regime", ("logtrees.fixpoint", "scipy.stats"),
             lambda seed: SPECTRUM_COMMANDS + _fixpoint_commands(seed),
             lambda outputs: check_spectrum(outputs) + check_fixpoint(outputs)),
)}

PHASES = ("exact_s", "float_s", "mc_mary_s", "mc_fbbst_s", "mc_quadtree_s",
          "spectrum_s", "fixpoint_s")
