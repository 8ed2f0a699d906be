import contextlib
import dataclasses
import io
import math
import tracemalloc
import weakref

import mpmath
import numpy as np
import pytest

from logtrees.asymptotics import RegimeMismatchError, kpl_variance_constant
from logtrees import fixpoint
from logtrees.cli import main
from logtrees.families import fbbst, mary, quadtree
from logtrees.fixpoint import (
    _distance_correlation,
    _periodic_weights,
    _split_rows,
    contraction_factor,
    diagnose,
    fixed_point_spec,
    iterate,
    sample_median,
    sample_spacings,
    sample_volumes,
    toll,
)
from logtrees.roots import solve_spectrum, theta
from logtrees.treesim import CELL_ROWS
from oracles import distance_correlation, serial_iterate


def rng_for(seed):
    return np.random.Generator(np.random.Philox(key=[seed, 0]))


def test_spacings_partition_unit_interval():
    v = sample_spacings(27, rng_for(1), 5000)
    assert v.shape == (5000, 27)
    assert np.abs(v.sum(axis=1) - 1.0).max() < 1e-12
    assert (v > 0).all()


def test_median_beta_moments():
    t = 3
    v = sample_median(t, rng_for(2), 200_000)
    # Beta(4,4): mean 1/2, var 1/36
    assert abs(v.mean() - 0.5) < 4 * math.sqrt(1 / 36 / 200_000)
    assert abs(v.var() - 1 / 36) < 3e-4


def test_volumes_partition_cube():
    q = sample_volumes(3, rng_for(3), 2000)
    assert q.shape == (2000, 8)
    assert np.abs(q.sum(axis=1) - 1.0).max() < 1e-12


def test_spacing_fractional_moment_identity_m27():
    # E[V_1^(lambda_2 - 1)] = 1/m within 3 standard errors
    m = 27
    spec = solve_spectrum(mary(m))
    lam = spec.lambda2
    draws = 1_000_000
    v = sample_spacings(m, rng_for(5), draws)[:, 0]
    vals = np.exp((lam - 1.0) * np.log(v))
    err_re = vals.real.std(ddof=1) / math.sqrt(draws)
    err_im = vals.imag.std(ddof=1) / math.sqrt(draws)
    assert abs(vals.real.mean() - 1 / m) < 3 * err_re
    assert abs(vals.imag.mean()) < 3 * err_im


def test_toll_bk_mean_zero():
    inst = mary(10)
    spec = fixed_point_spec(inst, "uniK")
    draws = 1_000_000
    v = sample_spacings(10, rng_for(7), draws)
    b = toll(spec, v)
    assert abs(b.mean()) < 3 * b.std(ddof=1) / math.sqrt(draws)


def test_toll_bn_is_phi_times_bk():
    inst = mary(27)
    spec_uni = fixed_point_spec(inst, "uniK")
    spec_tn = fixed_point_spec(inst, "TN_periodic")
    v = sample_spacings(27, rng_for(8), 512)
    phi = spec_uni.phi
    assert np.allclose(toll(spec_tn, v), phi * toll(spec_uni, v), rtol=1e-12)


def test_toll_bq_d1_matches_binary_entropy_form():
    inst = quadtree(1)
    spec = fixed_point_spec(inst, "uniK")
    q = sample_volumes(1, rng_for(9), 256)
    x = q[:, 0]
    want = 1 + 2 * (x * np.log(x) + (1 - x) * np.log(1 - x))
    assert np.allclose(toll(spec, q), want, rtol=1e-12)


def test_toll_bm_mean_zero():
    spec = fixed_point_spec(fbbst(2), "uniK")
    draws = 400_000
    v = sample_median(2, rng_for(10), draws)
    b = toll(spec, np.stack([v, 1 - v], axis=1))
    assert abs(b.mean()) < 3 * b.std(ddof=1) / math.sqrt(draws)


def test_contraction_factors_below_one():
    assert contraction_factor(fixed_point_spec(mary(27), "TN_periodic")) < 1
    assert contraction_factor(fixed_point_spec(mary(3), "TNprime_normal")) < 1
    assert contraction_factor(fixed_point_spec(fbbst(59), "Tmed_periodic")) < 1
    assert contraction_factor(fixed_point_spec(fbbst(5), "Tmed_normal")) < 1
    assert contraction_factor(fixed_point_spec(quadtree(9), "Tquad_periodic")) < 1
    assert contraction_factor(fixed_point_spec(quadtree(3), "Tquad_normal")) < 1
    assert contraction_factor(fixed_point_spec(mary(3), "uniK")) == 0.5


def _coefficient_rows(inst, rng, size):
    law = inst.split_law
    if law is None:
        return sample_volumes(inst.parameter, rng, size)
    if law[1] == 0:
        return sample_spacings(law[0], rng, size)
    v = sample_median(law[1], rng, size)
    return np.stack([v, 1 - v], axis=1)


@pytest.mark.parametrize("inst,map_kind", [
    (mary(3), "uniK"), (fbbst(2), "uniK"), (quadtree(2), "uniK"),
    (mary(27), "TN_periodic"), (mary(40), "TN_periodic"), (mary(3), "TNprime_normal"),
    (fbbst(59), "Tmed_periodic"), (fbbst(5), "Tmed_normal"),
    (quadtree(9), "Tquad_periodic"), (quadtree(3), "Tquad_normal")], ids=str)
def test_contraction_factor_matches_sampled_coefficients(inst, map_kind):
    # the factor is E sum_r |V_r^e|^2 over the coefficient rows, with e = 1
    # (x' = sum V_r x_r: uniK and normal maps) and lambda_2 - 1 (periodic maps)
    spec = fixed_point_spec(inst, map_kind)
    e = spec.lambda2 - 1.0 if spec.is_periodic else 1.0
    rng = rng_for(71)
    chunks = 50 if inst.branches < 100 else 10  # quadtree(9) rows hold 512 cells
    vals = np.concatenate([
        (np.abs(np.exp(e * np.log(_coefficient_rows(inst, rng, 2000)))) ** 2).sum(axis=1)
        for _ in range(chunks)])
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    assert abs(contraction_factor(spec) - vals.mean()) < 5 * se + 1e-12


def test_regime_mismatch_rejected():
    with pytest.raises(RegimeMismatchError):
        fixed_point_spec(mary(26), "TN_periodic")
    with pytest.raises(RegimeMismatchError):
        fixed_point_spec(mary(27), "TNprime_normal")
    with pytest.raises(RegimeMismatchError):
        fixed_point_spec(fbbst(58), "Tmed_periodic")
    with pytest.raises(RegimeMismatchError):
        fixed_point_spec(quadtree(8), "Tquad_periodic")
    with pytest.raises(RegimeMismatchError):
        fixed_point_spec(mary(27), "Tmed_periodic")


def test_theta_is_refused_where_the_spectrum_sets_it():
    # no caller supplies theta: the (m,t) periodic maps take it from the
    # spectrum, the quadtree periodic map has theta = 1, and the other maps
    # have none
    for inst, kind in ((mary(27), "TN_periodic"), (fbbst(59), "Tmed_periodic"),
                       (mary(3), "uniK"), (quadtree(2), "Tquad_normal"),
                       (quadtree(9), "Tquad_periodic")):
        with pytest.raises(TypeError, match="theta"):
            fixed_point_spec(inst, kind, theta=5)
    assert fixed_point_spec(mary(27), "TN_periodic").theta == theta(solve_spectrum(mary(27)))
    assert fixed_point_spec(mary(3), "uniK").theta is None
    quad = fixed_point_spec(quadtree(9), "Tquad_periodic").theta
    assert quad == 1 and type(quad) is complex


def test_pool_size_floor():
    with pytest.raises(ValueError):
        iterate(fixed_point_spec(mary(3), "uniK"), 10, 5, seed=0)


@pytest.mark.parametrize("m", [3, 10])
def test_unik_variance_matches_ck(m):
    spec = fixed_point_spec(mary(m), "uniK")
    gens = 30
    pool = iterate(spec, 60_000, gens, seed=101)
    ck = kpl_variance_constant(m)
    assert abs(pool.x.var() - ck) < 0.05 * ck
    # the pool mean performs an O(sigma/sqrt(P)) random walk per generation
    assert abs(pool.x.mean()) < 5 * math.sqrt(gens * ck / 60_000)


def test_npl_toll_limit_is_phi_times_kpl_limit():
    # the first slot of the periodic bivariate map iterates the NPL-scale
    # toll b_N = phi b_K; its limit variance is phi^2 C_K
    m = 27
    spec = fixed_point_spec(mary(m), "TN_periodic")
    pool = iterate(spec, 60_000, 30, seed=41)
    want = spec.phi**2 * kpl_variance_constant(m)
    assert abs(pool.x.var() - want) < 0.05 * want


def test_unik_variance_matches_exact_table_grid_top():
    # pool variance vs the exact-table VK/n^2 at the top of the float grid
    from logtrees.moments import second_moment_tables
    m = 3
    table = second_moment_tables(mary(m), 8192, "float")
    top = table.column("VK")[8192] / 8192**2
    pool = iterate(fixed_point_spec(mary(m), "uniK"), 50_000, 30, seed=13)
    assert abs(pool.x.var() - top) < 0.05 * top


def test_unik_fbbst_and_quadtree_variances():
    spec = fixed_point_spec(fbbst(1), "uniK")
    pool = iterate(spec, 50_000, 30, seed=21)
    dx = fbbst(1).variance_constant
    assert abs(pool.x.var() - dx) < 0.06 * dx

    spec = fixed_point_spec(quadtree(2), "uniK")
    pool = iterate(spec, 50_000, 30, seed=22)
    ex = quadtree(2).variance_constant
    assert abs(pool.x.var() - ex) < 0.06 * ex


def test_unik_pool_skewed():
    # the KPL limit is non-normal: visible skewness
    pool = iterate(fixed_point_spec(mary(3), "uniK"), 50_000, 30, seed=31)
    from scipy import stats as sstats
    assert abs(sstats.skew(pool.x)) > 0.1


def test_tn_periodic_mean_preserved():
    inst = mary(27)
    spec = fixed_point_spec(inst, "TN_periodic")
    pool = iterate(spec, 30_000, 12, seed=41)
    th = spec.theta
    sew = math.sqrt(pool.moments()["var_w"] / len(pool.x))
    drift = abs(complex(pool.w.mean()) - th)
    assert drift < 4 * sew + 1e-9
    # mean drift over the last 5 generations stays within noise
    for row in pool.trace[-5:]:
        assert abs(complex(row["mean_re_w"], row["mean_im_w"]) - th) < 5 * sew + 1e-9


def test_tmed_periodic_mean_preserved():
    inst = fbbst(59)
    spec = fixed_point_spec(inst, "Tmed_periodic")
    pool = iterate(spec, 20_000, 10, seed=43)
    th = spec.theta
    sew = math.sqrt(pool.moments()["var_w"] / len(pool.x)) if pool.moments()["var_w"] else 1e-6
    assert abs(complex(pool.w.mean()) - th) < 5 * sew + 1e-9


def test_tquad_periodic_mean_preserved_with_synthetic_theta():
    spec = dataclasses.replace(fixed_point_spec(quadtree(9), "Tquad_periodic"),
                               theta=0.5 + 0.25j)
    pool = iterate(spec, 20_000, 8, seed=44)
    th = 0.5 + 0.25j
    sew = math.sqrt(pool.moments()["var_w"] / len(pool.x))
    assert abs(complex(pool.w.mean()) - th) < 5 * sew + 1e-9


def test_tnprime_normal_slot_and_independence():
    spec = fixed_point_spec(mary(3), "TNprime_normal")
    pool = iterate(spec, 100_000, 25, seed=51)
    d = diagnose(pool)
    assert d["ks_pvalue"] > 0.01
    assert abs(d["slot_correlation"]) < 0.05
    assert d["distance_correlation"] < 0.08
    # first slot of the normalised map has unit variance
    assert abs(pool.x.var() - 1.0) < 0.05


def test_tnprime_fully_iterated_variant_agrees():
    # the w slot iterated and re-standardised (test reference) instead of injected
    spec = fixed_point_spec(mary(3), "TNprime_normal")
    pool = serial_iterate(spec, 60_000, 25, seed=52, full_bivariate=True)
    d = diagnose(pool)
    assert d["ks_pvalue"] > 0.01
    assert abs(d["slot_correlation"]) < 0.05


def test_tmed_and_tquad_normal_maps():
    for spec, seed in ((fixed_point_spec(fbbst(1), "Tmed_normal"), 61),
                       (fixed_point_spec(quadtree(2), "Tquad_normal"), 62)):
        pool = iterate(spec, 30_000, 25, seed=seed)
        d = diagnose(pool)
        assert d["ks_pvalue"] > 0.01, spec.map_kind
        assert abs(d["slot_correlation"]) < 0.05, spec.map_kind
        # normalised first slot has unit limit variance
        assert abs(pool.x.var() - 1.0) < 0.06, spec.map_kind


def test_deterministic_replay():
    spec = fixed_point_spec(mary(4), "uniK")
    p1 = iterate(spec, 5000, 8, seed=77)
    p2 = iterate(spec, 5000, 8, seed=77)
    assert np.array_equal(p1.x, p2.x)
    p3 = iterate(spec, 5000, 8, seed=78)
    assert not np.array_equal(p1.x, p3.x)


def test_pool_csv_exports(tmp_path):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["fixpoint", "--map", "TN_periodic", "--param", "27", "--pool", "2000",
                     "--gens", "3", "--seed", "3", "--trace-out", str(tmp_path / "trace.csv"),
                     "--pool-out", str(tmp_path / "pool.csv")]) == 0
    lines = (tmp_path / "pool.csv").read_text().splitlines()
    assert lines[0] == "x,re_w,im_w" and len(lines) == 2001
    tlines = [line for line in (tmp_path / "trace.csv").read_text().splitlines()
              if not line.startswith("#")]
    assert tlines[0] == "generation,mean_x,var_x,mean_re_w,mean_im_w,var_w,cov"
    assert len(tlines) == 5  # initial pool + 3 generations


def test_distance_correlation_streams_bit_for_bit():
    # n^2 is no power of two at 37, 1000 and 1999, and the pieces of the
    # pairwise tree cut across rows at 1000 and 1999; 2048 is the
    # subsample of ``diagnose``
    rng = rng_for(90)
    for n in (37, 1000, 1999, 2048):
        for scale in (1e-3, 1.0, 1e6):
            a = scale * rng.standard_normal(n)
            for b in (0.3 * a + scale * rng.standard_normal(n),
                      rng.standard_normal(n) ** 2, rng.exponential(scale, n)):
                assert _distance_correlation(a, b) == distance_correlation(a, b)
        assert _distance_correlation(a, np.full(n, 1.5)) == 0.0


def test_distance_correlation_holds_no_distance_matrix():
    # sub-blocks of WEIGHT_BLOCK elements stream both matrices (the former
    # version held two n x n matrices, 64 MiB at this n; the one-expression
    # oracle four)
    n = 2048
    rng = rng_for(91)
    a, b = rng.standard_normal(n), rng.standard_normal(n)
    tracemalloc.start()
    try:
        _distance_correlation(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20


# ---------------------------------------------------------------------------
# resampling draws and the memory of the chunks in flight
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("high", [1000, 2 * CELL_ROWS + 17, 100_000, 2**31 - 1])
def test_int32_resampling_indices_are_the_int64_draws(high):
    # same values, and the stream left at the same point; 333 x 27 is an
    # odd count of 32-bit draws, which leaves half a 64-bit Philox word
    # buffered for the next draw
    wide, narrow = rng_for(5), rng_for(5)
    for shape in ((333, 27), (CELL_ROWS, 2), (1, 27)):
        got = narrow.integers(0, high, shape, dtype=np.int32)
        assert got.dtype == np.int32
        assert np.array_equal(got, wide.integers(0, high, shape))
    assert narrow.random(7).tobytes() == wide.random(7).tobytes()


def test_iterate_rejects_generations_and_pools_out_of_range():
    spec = fixed_point_spec(mary(3), "uniK")
    for generations in (0, -3):
        with pytest.raises(ValueError, match="generations"):
            iterate(spec, 1000, generations, seed=0)
    with pytest.raises(ValueError, match=r"2\*\*31"):  # checked before any pool is made
        iterate(spec, 2**31, 5, seed=0)


def test_iterate_memory_in_flight_is_12_bytes_a_cell():
    # two workers, a window of four chunks that hold their draws only; chunks
    # that also held their complex weights (28 bytes a cell) peaked at
    # 51-53 MiB here, int64 indices and whole-chunk gathers at 67-71 MiB
    threads, window, pool = 2, 4, 6 * CELL_ROWS
    spec = fixed_point_spec(mary(27), "TN_periodic")
    cells = CELL_ROWS * spec.instance.branches
    bound = (window * cells * (4 + 8)  # 32-bit indices and coefficients
             # at most three generations: x and complex w
             + 3 * pool * (8 + 16)
             # the uniforms and gaps of the chunk being drawn
             + cells * 16
             # a worker's sub-block: logarithms, weights, gathers, scratch
             + threads * fixpoint.WEIGHT_BLOCK * 128)
    tracemalloc.start()
    try:
        iterate(spec, pool, 3, seed=1, threads=threads)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound


@pytest.mark.parametrize("threads", [1, 2])
def test_iterate_frees_the_start_pool(monkeypatch, threads):
    # once generation 2 is finished no chunk reads generation 0, so its pool
    # must be gone: weak references to every pool, read as generation 3 begins
    made, alive = [], []

    def recording_pool(**fields):
        if fields["generation"] == 3:
            alive.extend(ref() is not None for ref in made)
        pool = fixpoint_pool(**fields)
        made.append(weakref.ref(pool))
        return pool

    fixpoint_pool = fixpoint.SamplePool
    monkeypatch.setattr(fixpoint, "SamplePool", recording_pool)
    iterate(fixed_point_spec(mary(27), "TN_periodic"), 2 * CELL_ROWS, 3, seed=1,
            threads=threads)
    assert alive[0] is False and len(alive) == 3


# ---------------------------------------------------------------------------
# the periodic weights V^(lambda_2 - 1) without the complex exp
# ---------------------------------------------------------------------------

EPS = 2.0 ** -52
LOG_TINY = math.log(math.ldexp(1.0, -1074))  # log of the smallest positive double

PERIODIC = {
    "mary(27)": (mary(27), "TN_periodic", 4000),
    "fbbst(59)": (fbbst(59), "Tmed_periodic", 4000),
    "quadtree(9)": (quadtree(9), "Tquad_periodic", 1000),
}


def periodic_case(case):
    inst, kind, pool = PERIODIC[case]
    spec = fixed_point_spec(inst, kind)
    if inst.split_law is None:
        spec = dataclasses.replace(spec, theta=0.5 + 0.25j)
    return spec, spec.lambda2 - 1.0, pool


def coefficient_logs(spec, elements, seed):
    """Logarithms of about ``elements`` coefficients of the map's split law."""
    rows = max(1, elements // spec.instance.branches)
    return np.log(_split_rows(spec, rng_for(seed), rows)).ravel()


def theta_grid(points):
    """log V from log(smallest positive double) to 0: the phases b log V out
    to the largest the kernel can be given."""
    return np.linspace(LOG_TINY, 0.0, points)


def relative_error(got, want):
    return np.abs(got - want) / np.abs(want)


@pytest.mark.parametrize("case", PERIODIC)
def test_periodic_weights_against_mpmath(case):
    # every element is within np.exp's own error at that element + 4 eps of
    # exp(e L) in 40 digits, for the same double e and L: the rounding of
    # the phase b L, which both take, is the bulk of either error
    spec, e, _ = periodic_case(case)
    logs = np.concatenate([coefficient_logs(spec, 300, 5), theta_grid(200)])
    with mpmath.workdps(40):
        ez = mpmath.mpc(e.real, e.imag)
        exact = [mpmath.exp(ez * mpmath.mpf(float(x))) for x in logs]

        def errors(values):
            return np.array([float(abs(mpmath.mpc(v.real, v.imag) - z) / abs(z))
                             for v, z in zip(values, exact)])

        ours, numpys = errors(_periodic_weights(e, logs)), errors(np.exp(e * logs))
    assert (ours <= numpys + 4 * EPS).all(), (ours - numpys).max() / EPS


@pytest.mark.parametrize("case", PERIODIC)
def test_periodic_weights_against_numpy_exp(case):
    spec, e, _ = periodic_case(case)
    for logs in (coefficient_logs(spec, 10 ** 6, 6), theta_grid(10 ** 6)):
        err = relative_error(_periodic_weights(e, logs), np.exp(e * logs))
        assert err.max() <= 8 * EPS, err.max() / EPS
    # a chunk's (rows, branches) shape and sub-blocks that do not divide it
    logs = coefficient_logs(spec, 3 * fixpoint.WEIGHT_BLOCK + 5000, 7)
    logs = logs.reshape(-1, spec.instance.branches)
    assert relative_error(_periodic_weights(e, logs), np.exp(e * logs)).max() <= 8 * EPS


@pytest.mark.parametrize("case", PERIODIC)
def test_periodic_pools_agree_with_the_exp_route(case, monkeypatch):
    # the x slot takes no weight; the w slot stays within 1e-12 SD(w)
    spec, _, pool = periodic_case(case)
    got = iterate(spec, pool, 30, seed=61, threads=2)
    monkeypatch.setattr(fixpoint, "_periodic_weights", lambda e, logs, *plan: np.exp(e * logs))
    want = iterate(spec, pool, 30, seed=61, threads=2)
    assert got.x.tobytes() == want.x.tobytes()
    assert np.abs(got.w - want.w).max() <= 1e-12 * want.w.std()
