"""Acceptance suite: one check per shipped criterion, exact tolerances.

Each criterion prints a single PASS/FAIL line.  Two checks deserve notes:

* Criterion 1 (alpha table): the reference table's last digits mix
  truncation and rounding (e.g. alpha_20 = 1.34893 printed as 1.348, while
  alpha_8 = 0.10077 printed as 0.101), so a literal +-5e-4 band around the
  printed values is unsatisfiable for several m.  The check asserts
  agreement to the printed digit under either convention (a band of one
  unit in the last printed digit) and reports the literal-band exceptions.

* Criterion 6 (periodic tracking at m = 27) is implemented exactly as
  stated and FAILS by design of the mathematics: Var(S_n) carries a linear
  background term C n with no closed form whose relative weight decays like
  n^(3 - 2 alpha) = n^(-0.034), so the raw ratio cannot approach F1 within
  15% at n = 2^13 (it is ~80% away; Monte Carlo confirms the table).  The
  F1/F2 implementations themselves are validated in the test suite by
  background-corrected amplitude fits.  See README.md.
"""
from __future__ import annotations

import io
import math
import time
from dataclasses import dataclass

import numpy as np

SEED = 20260810


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] criterion {self.number:>2}: {self.name} ({self.detail}) [{self.seconds:.1f}s]"


ALPHA_PRINTED = {
    3: -3.0, 4: -2.5, 5: -1.5, 6: -0.768, 7: -0.260, 8: 0.101, 9: 0.366,
    10: 0.568, 11: 0.726, 12: 0.852, 13: 0.955, 14: 1.040, 15: 1.112,
    16: 1.173, 17: 1.226, 18: 1.272, 19: 1.313, 20: 1.348, 21: 1.380,
    22: 1.409, 23: 1.435, 24: 1.458, 25: 1.479, 26: 1.499,
}


def criterion_1(quick: bool) -> tuple[bool, str]:
    from .families import mary
    from .roots import solve_spectrum

    loose = []
    for m, printed in ALPHA_PRINTED.items():
        alpha = solve_spectrum(mary(m)).alpha
        trunc = math.trunc(alpha * 1000) / 1000
        rounded = round(alpha, 3)
        if abs(alpha - printed) >= 1e-3:
            return False, f"m={m}: alpha={alpha:.6f} vs printed {printed}"
        if abs(trunc - printed) > 1e-12 and abs(rounded - printed) > 1e-12:
            return False, f"m={m}: printed digits not reproduced ({alpha:.6f})"
        if abs(alpha - printed) > 5e-4:
            loose.append(m)
    note = "printed digits reproduced for all m=3..26"
    if loose:
        note += f"; table truncation puts m={loose} outside a literal 5e-4 band"
    return True, note


def criterion_2(quick: bool) -> tuple[bool, str]:
    from .asymptotics import REFERENCE_C2C1, REFERENCE_C2C1_TOL, c2_minus_phi_c1
    from .families import mary
    from .roots import solve_spectrum

    worst = 0.0
    for m in range(3, 31):
        got = c2_minus_phi_c1(solve_spectrum(mary(m)))
        want = float(REFERENCE_C2C1[m])
        rel = abs(got - want) / want
        worst = max(worst, rel)
        if rel > REFERENCE_C2C1_TOL:
            return False, f"m={m}: relative error {rel:.2e}"
    return True, f"28 rationals matched, worst relative error {worst:.1e}"


def criterion_3(quick: bool) -> tuple[bool, str]:
    from .families import mary
    from .moments import MARY_ROWS, permutation_oracle, second_moment_tables

    n_top = 7 if quick else 9
    for m in (3, 4):
        table = second_moment_tables(mary(m), n_top, "exact")
        for n in range(0, n_top + 1):
            oracle = permutation_oracle(n, m)
            for name in MARY_ROWS:
                if table.column(name)[n] != getattr(oracle, name):
                    return False, f"m={m} n={n} row {name}: table != oracle"
    return True, f"rational equality on all nine rows, m in {{3,4}}, n <= {n_top}"


def criterion_4(quick: bool) -> tuple[bool, str]:
    from .families import fbbst, mary, quadtree
    from .roots import classify_regime, solve_spectrum

    cov, dist = "covariance_phase", "distribution_phase"
    rows = ((mary(13), cov, "linear"), (mary(14), cov, "periodic"),
            (mary(26), dist, "gaussian"), (mary(27), dist, "periodic"),
            (fbbst(28), cov, "linear"), (fbbst(29), cov, "periodic"),
            (fbbst(58), dist, "gaussian"), (fbbst(59), dist, "periodic"),
            (quadtree(5), cov, "linear"), (quadtree(6), cov, "periodic"),
            (quadtree(8), dist, "gaussian"), (quadtree(9), dist, "periodic"))
    checks = [getattr(classify_regime(solve_spectrum(inst)), phase).value == want
              for inst, phase, want in rows]
    ok = all(checks)
    return ok, "flips at m=13/14, m=26/27, t=28/29, t=58/59, d=5/6, d=8/9" if ok \
        else f"flip pattern wrong: {checks}"


def criterion_5(quick: bool) -> tuple[bool, str]:
    from .families import mary
    from .moments import growth_exponent, second_moment_tables
    from .roots import solve_spectrum

    n_max = 2 ** 13  # cheap enough that quick mode keeps the stated horizon
    # 12-point geometric grid: the m=20 row oscillates (periodic regime), so
    # sparse grids make the log-log slope phase-sensitive
    grid = sorted(set(int(round(v)) for v in np.geomspace(256, n_max, 12)))
    t3 = second_moment_tables(mary(3), n_max, "float")
    s_vk = growth_exponent(t3.column("VK"), grid).slope
    if abs(s_vk - 2.0) > 0.05:
        return False, f"VK slope {s_vk:.4f} not within 0.05 of 2"
    s_vsk = growth_exponent(t3.column("VSK"), grid).slope
    if abs(s_vsk - 1.0) > 0.1:
        return False, f"VSK slope {s_vsk:.4f} not within 0.1 of 1 (m=3)"
    q_lo = t3.column("VSN")[n_max // 2] / ((n_max // 2) * math.log(n_max // 2))
    q_hi = t3.column("VSN")[n_max] / (n_max * math.log(n_max))
    drift = abs(q_hi - q_lo) / q_hi
    if not (q_hi > 0 and drift < 0.10):
        return False, f"VSN/(n log n) drift {drift:.3f} over the top octave"
    t20 = second_moment_tables(mary(20), n_max, "float")
    alpha20 = solve_spectrum(mary(20)).alpha
    abs_vsk = {n: abs(v) for n, v in enumerate(t20.column("VSK"))}
    s20 = growth_exponent(abs_vsk, grid).slope
    if abs(s20 - alpha20) > 0.1:
        return False, f"VSK slope {s20:.4f} not within 0.1 of alpha_20 = {alpha20:.4f}"
    return True, (f"12-pt grid to 2^13: VK {s_vk:.3f}, "
                  f"VSK(m=3) {s_vsk:.3f}, VSK(m=20) {s20:.3f} vs {alpha20:.3f}; "
                  f"VSN drift {drift:.1%}")


def criterion_6(quick: bool) -> tuple[bool, str]:
    from .asymptotics import periodic
    from .families import mary
    from .moments import second_moment_tables
    from .roots import solve_spectrum

    n = 2 ** 13
    inst = mary(27)
    spec = solve_spectrum(inst)
    table = second_moment_tables(inst, n, "float")
    z = spec.beta * math.log(n)
    f1 = periodic("F1", inst, spec)(z)
    f2 = periodic("F2", inst, spec)(z)
    r1 = table.column("VS")[n] / n ** (2 * spec.alpha - 2)
    r2 = table.column("VSK")[n] / n ** spec.alpha
    e1 = abs(r1 - f1) / abs(f1)
    e2 = abs(r2 - f2) / abs(f2)
    ok = e1 <= 0.15 and e2 <= 0.15
    detail = (f"VS/n^(2a-2)={r1:.4f} vs F1={f1:.4f} ({e1:.0%}); "
              f"VSK/n^a={r2:.5f} vs F2={f2:.5f} ({e2:.0%})")
    if not ok:
        detail += ("; unattainable as stated: the linear background decays "
                   "like n^(-0.034) at m=27 -- see README.md")
    return ok, detail


def criterion_7(quick: bool) -> tuple[bool, str]:
    from .asymptotics import (
        fbbst_tpl_variance_constant,
        kpl_variance_constant,
        quadtree_ipl_variance_constant,
    )

    want = 7 - 2 * math.pi ** 2 / 3
    vals = (kpl_variance_constant(2), quadtree_ipl_variance_constant(1),
            fbbst_tpl_variance_constant(0))
    worst = max(abs(v - want) for v in vals)
    return worst < 1e-12, f"C_K(2), E_X(1), D_X(0) all equal 7 - 2 pi^2/3 (worst dev {worst:.1e})"


def criterion_8(quick: bool) -> tuple[bool, str]:
    from .asymptotics import kpl_variance_constant
    from .families import mary
    from .treesim import monte_carlo

    n = 10_000
    reps = 2500 if quick else 10_000
    stats = monte_carlo(mary(3), n, reps, seed=SEED)
    ck = kpl_variance_constant(3)
    vk = stats.var("K") / n ** 2
    if abs(vk - ck) > 0.05 * ck:
        return False, f"Var(K)/n^2 = {vk:.5f} not within 5% of C_K = {ck:.5f}"
    rho_kn = stats.corr("K", "N")
    if rho_kn < 0.95:
        return False, f"rho(K,N) = {rho_kn:.4f} < 0.95"
    rho_sk = stats.corr("S", "K")
    if abs(rho_sk) > 0.1:
        return False, f"|rho(S,K)| = {abs(rho_sk):.4f} > 0.1"
    return True, (f"Var(K)/n^2 = {vk:.5f} (C_K {ck:.5f}), rho(K,N) = {rho_kn:.3f}, "
                  f"rho(S,K) = {rho_sk:+.4f}")


def criterion_9(quick: bool) -> tuple[bool, str]:
    from .asymptotics import kpl_variance_constant
    from .cli import _CPUS
    from .families import mary
    from .fixpoint import (
        diagnose,
        fixed_point_spec,
        iterate,
        sample_spacings,
        toll,
    )
    from .roots import solve_spectrum

    pool_size = 20_000 if quick else 100_000
    gens = 20 if quick else 30
    draws = 200_000 if quick else 1_000_000
    notes = []
    for m in (3, 10, 20):
        spec = fixed_point_spec(mary(m), "uniK")
        pool = iterate(spec, pool_size, gens, seed=SEED + m, threads=_CPUS)
        ck = kpl_variance_constant(m)
        var = float(pool.x.var())
        if abs(var - ck) > 0.05 * ck:
            return False, f"uniK m={m}: pool var {var:.5f} vs C_K {ck:.5f}"
        notes.append(f"var(m={m}) {var / ck:.3f}x")
    rng = np.random.Generator(np.random.Philox(key=[SEED, 9]))
    v = sample_spacings(27, rng, draws)
    b = toll(fixed_point_spec(mary(27), "uniK"), v)
    se_b = b.std(ddof=1) / math.sqrt(draws)
    if abs(b.mean()) > 3 * se_b:
        return False, f"E[b_K] = {b.mean():.2e} exceeds 3 SE = {3 * se_b:.2e}"
    lam = solve_spectrum(mary(27)).lambda2
    frac = np.exp((lam - 1.0) * np.log(v[:, 0]))
    se_re = frac.real.std(ddof=1) / math.sqrt(draws)
    se_im = frac.imag.std(ddof=1) / math.sqrt(draws)
    if abs(frac.real.mean() - 1 / 27) > 3 * se_re or abs(frac.imag.mean()) > 3 * se_im:
        return False, "E[V^(lambda_2 - 1)] differs from 1/m beyond 3 SE"
    spec = fixed_point_spec(mary(3), "TNprime_normal")
    pool = iterate(spec, pool_size, 25 if not quick else 15, seed=SEED + 99, threads=_CPUS)
    diag = diagnose(pool)
    if diag["ks_pvalue"] <= 0.01:
        return False, f"TNprime KS p = {diag['ks_pvalue']:.4f} <= 0.01"
    if abs(diag["slot_correlation"]) >= 0.05:
        return False, f"TNprime slot correlation {diag['slot_correlation']:.4f}"
    notes.append(f"KS p {diag['ks_pvalue']:.2f}")
    notes.append(f"|corr| {abs(diag['slot_correlation']):.4f}")
    return True, ", ".join(notes)


def criterion_10(quick: bool) -> tuple[bool, str]:
    from scipy.integrate import dblquad, quad

    from .asymptotics import dirichlet_I, dirichlet_dudv, dirichlet_dv

    def simplex(f, m):
        """Integral of f(coordinates) over the (m-1)-simplex, m = 2 or 3."""
        if m == 2:
            return quad(lambda x: f((x, 1 - x)) if 0 < x < 1 else 0.0, 0, 1, epsabs=1e-12)[0]
        return dblquad(lambda y, x: f((x, y, 1 - x - y)) if 1 - x - y > 0 else 0.0,
                       0, 1, 0, lambda x: 1 - x, epsabs=1e-11)[0]

    # plain loops: a generator per call doubles the quadrature time
    def power_sum(xs, u):
        total = 0.0
        for x in xs:
            total += x ** (u - 1)
        return total

    def entropy(xs):
        total = 0.0
        for x in xs:
            total += x * math.log(x)
        return total

    worst = 0.0
    for m in (2, 3):
        for (u, v) in ((1, 1), (2, 2), (2, 3)):
            dev = abs(dirichlet_I(u, v, m).real
                      - simplex(lambda xs: power_sum(xs, u) * power_sum(xs, v), m))
            worst = max(worst, dev)
            if dev > 1e-6:
                return False, f"I({u},{v}) m={m}: dev {dev:.2e}"
        for u in (1, 2, 3):
            dev = abs(dirichlet_dv(u, m).real
                      - simplex(lambda xs: power_sum(xs, u) * entropy(xs), m))
            worst = max(worst, dev)
            if dev > 1e-6:
                return False, f"dI/dv(u={u}) m={m}: dev {dev:.2e}"
        dev = abs(dirichlet_dudv(m) - simplex(lambda xs: entropy(xs) ** 2, m))
        worst = max(worst, dev)
        if dev > 1e-6:
            return False, f"d2I/dudv m={m}: dev {dev:.2e}"
    return True, f"closed forms match simplex quadrature (worst dev {worst:.1e})"


def criterion_11(quick: bool) -> tuple[bool, str]:
    import contextlib

    from .cli import main as cli_main

    def run(argv) -> str:
        buf = io.StringIO()
        err = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
            code = cli_main(argv)
        if code != 0:
            raise RuntimeError(f"cli {argv} exited {code}: {err.getvalue()}")
        return buf.getvalue()

    n = "500" if quick else "2000"
    reps = "1500" if quick else "4000"
    pairs = [
        (["simulate", "--family", "mary", "--param", "3", "--n", n,
          "--reps", reps, "--seed", "7", "--threads", "1"],
         ["simulate", "--family", "mary", "--param", "3", "--n", n,
          "--reps", reps, "--seed", "7", "--threads", "4"]),
        (["simulate", "--family", "quadtree", "--param", "2", "--n", n,
          "--reps", reps, "--seed", "9", "--threads", "2"],
         ["simulate", "--family", "quadtree", "--param", "2", "--n", n,
          "--reps", reps, "--seed", "9", "--threads", "3"]),
        (["corr-profile", "--family", "fbbst", "--param", "1", "--grid",
          "64,128", "--reps", "600", "--seed", "3", "--threads", "1"],
         ["corr-profile", "--family", "fbbst", "--param", "1", "--grid",
          "64,128", "--reps", "600", "--seed", "3", "--threads", "4"]),
        # a pool of three chunks, the last one ragged
        (["fixpoint", "--map", "TN_periodic", "--family", "mary", "--param", "27",
          "--pool", "40000", "--gens", "3", "--seed", "5", "--threads", "1"],
         ["fixpoint", "--map", "TN_periodic", "--family", "mary", "--param", "27",
          "--pool", "40000", "--gens", "3", "--seed", "5", "--threads", "4"]),
    ]
    for a, b in pairs:
        if run(a) != run(b):
            return False, f"outputs differ for {a[0]} across thread counts"
    return True, f"{len(pairs)} stochastic subcommands byte-identical across --threads"


CRITERIA = (
    (1, "alpha table reproduction", criterion_1),
    (2, "c2 - phi c1 rationals", criterion_2),
    (3, "permutation-oracle equality", criterion_3),
    (4, "phase thresholds", criterion_4),
    (5, "growth exponents", criterion_5),
    (6, "periodic tracking at m=27", criterion_6),
    (7, "quicksort variance reductions", criterion_7),
    (8, "Monte Carlo limit behaviour", criterion_8),
    (9, "fixed-point suite", criterion_9),
    (10, "Dirichlet integral identities", criterion_10),
    (11, "determinism across threads", criterion_11),
)


def run_acceptance(quick: bool, stream) -> list[CriterionResult]:
    results = []
    for number, name, fn in CRITERIA:
        started = time.perf_counter()
        try:
            passed, detail = fn(quick)
        except Exception as exc:  # honest failure, not a crash of the suite
            passed, detail = False, f"exception: {exc!r}"
        res = CriterionResult(number, name, passed, detail,
                              time.perf_counter() - started)
        results.append(res)
        stream.write(res.line() + "\n")
        stream.flush()
    n_pass = sum(r.passed for r in results)
    stream.write(f"{n_pass}/{len(results)} criteria passed\n")
    return results
