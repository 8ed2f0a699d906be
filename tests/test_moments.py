import contextlib
import functools
import hashlib
import io
import math
import os
import random
import subprocess
import sys
from array import array
from fractions import Fraction
from itertools import permutations, product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logtrees import cli, moments
from logtrees.families import fbbst, harmonic, mary, quadtree
from logtrees.moments import (
    FloatDriftError,
    TableModeError,
    UnsupportedTableError,
    growth_exponent,
    mean_tables,
    permutation_oracle,
    second_moment_tables,
)
from oracles import fbbst_split_pmf, median_quicksort, split_weights

MARY_ROWS = ("mu", "kappa", "nu", "VS", "VSK", "VK", "VSN", "VN", "VKN")


# ----------------------------- split weights ------------------------------

def test_split_weights_small_example():
    sw = split_weights(3, 3)
    assert sw.pi == {0: Fraction(2, 3), 1: Fraction(1, 3)}


def test_split_weights_pairwise_m3_n4():
    sw = split_weights(4, 3)
    assert set(sw.pi2) == {(j, k) for j in range(3) for k in range(3 - j)}
    assert all(v == Fraction(1, 6) for v in sw.pi2.values())


@pytest.mark.parametrize("n,m", [(5, 3), (9, 4), (20, 5)])
def test_split_weights_normalised(n, m):
    sw = split_weights(n, m)
    assert sum(sw.pi.values()) == 1
    assert sum(sw.pi2.values()) == 1


@pytest.mark.parametrize("n,m", [(6, 3), (8, 4), (12, 4), (12, 5)])
def test_pairwise_law_vs_composition_enumeration(n, m):
    # enumerate all equally likely compositions of n-m+1 into m parts
    free = n - m + 1
    counts = {}
    total = 0
    for comp in product(range(free + 1), repeat=m - 1):
        rest = free - sum(comp)
        if rest < 0:
            continue
        full = comp + (rest,)
        total += 1
        counts[(full[0], full[1])] = counts.get((full[0], full[1]), 0) + 1
    sw = split_weights(n, m)
    assert total == math.comb(n, m - 1)
    for key, cnt in counts.items():
        assert sw.pi2[key] == Fraction(cnt, total), key


def test_split_weights_validation():
    with pytest.raises(ValueError):
        split_weights(1, 3)
    with pytest.raises(ValueError):
        split_weights(10, 2)


# ----------------------------- cascade operators --------------------------

def _random_row(rnd, length):
    return [Fraction(rnd.randint(-50, 50), rnd.randint(1, 20)) for _ in range(length)]


def _check_cascade(inst, n_max, marginal, pair=None):
    """Run the exact operators of ``inst`` for n = K..n_max on random
    rows against the explicit sums: marginal(n) = {j: pi_{n,j}} and, unless
    ``pair`` is None, pair(n) = {(j, k): pi2_n(j, k)}."""
    rnd = random.Random(inst.parameter)
    law = moments._law(inst, n_max, "exact")
    f, g = _random_row(rnd, n_max + 1), _random_row(rnd, n_max + 1)
    op = law.operator(law.marginal)
    pair_ops = [] if pair is None else [
        (law.operator(law.pair), law.convolve(a, b), a, b) for a, b in ((f, g), (f, f))]
    for n in range(law.size, n_max + 1):
        assert op(f, n) == sum(p * f[j] for j, p in marginal(n).items()), n
        for pair_op, conv, a, b in pair_ops:
            want = sum(p * a[j] * b[k] for (j, k), p in pair(n).items())
            assert pair_op(conv, n) == want, (n, a is b)


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_mary_cascade_operators_match_explicit_sums(m):
    _check_cascade(mary(m), 30, lambda n: split_weights(n, m).pi,
                   lambda n: split_weights(n, m).pi2)


@pytest.mark.parametrize("t", [1, 2])
def test_fbbst_cascade_operators_match_explicit_sums(t):
    # the two subtree sizes of a fbbst node determine each other
    _check_cascade(fbbst(t), 30, lambda n: fbbst_split_pmf(n, t),
                   lambda n: {(j, n - 1 - j): p for j, p in fbbst_split_pmf(n, t).items()})


@functools.lru_cache(maxsize=None)
def _thinned(d, points, j):
    """P(a quadtree(d) cell holds j of ``points`` points): each coordinate
    keeps a uniform share, p_1(N, j) = 1/(N+1) and
    p_d(N, j) = sum_{k=j..N} p_{d-1}(k, j) / (N+1)."""
    if d == 1:
        return Fraction(1, points + 1)
    return sum((_thinned(d - 1, k, j) for k in range(j, points + 1)), Fraction(0)) / (points + 1)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_quadtree_cascade_operator_matches_explicit_sums(d):
    # a size-n node spreads its other n-1 points over the cells
    _check_cascade(quadtree(d), 30, lambda n: {j: _thinned(d, n - 1, j) for j in range(n)})


@pytest.mark.parametrize("d", [1, 2, 3])
def test_quadtree_recurrence_reads_every_initial_value(d):
    # a_n = 2^d sum_j P(J = j) a_j + toll_n from n = 2, with a_0 and a_1 given:
    # a_0 != 0 here, so the chain must have been fed a_0 at n = 1
    n_max, rnd = 25, random.Random(d)
    toll, initial = _random_row(rnd, n_max + 1), _random_row(rnd, 2)
    want = list(initial)
    for n in range(2, n_max + 1):
        want.append(2 ** d * sum(_thinned(d, n - 1, j) * want[j] for j in range(n)) + toll[n])
    assert moments._recurrence(moments._law(quadtree(d), n_max, "exact"), toll, initial,
                               n_max) == want


# ----------------------------- whole-row runs -----------------------------

RUN_LAWS = [(mary(3), 30), (mary(10), 30), (mary(27), 40), (fbbst(1), 30), (fbbst(5), 30),
            (quadtree(2), 30), (quadtree(3), 30)]
ROW_VALUES = {
    "float": st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, -1.0]),
                       st.floats(-1e6, 1e6, allow_nan=False)),
    "exact": st.fractions(-50, 50, max_denominator=20),
}


def _specs(inst, law):
    """The marginal operator, and the pair operator of an (m,t) split."""
    return [law.marginal] if inst.split_law is None else [law.marginal, law.pair]


def _check_run(law, spec, row, n0, n_max):
    """``run`` against a fresh online operator called at n = n0..n_max:
    the same doubles bit for bit, or the same Fractions."""
    op = law.operator(spec)
    want = law.row(op(row, n) for n in range(n0, n_max + 1))
    got = law.run(spec, row, n0)
    assert len(got) == n_max + 1 and not any(got[:n0])
    if law.exact:
        assert got[n0:].tolist() == want
    else:
        assert got[n0:].tobytes() == want.tobytes()


@pytest.mark.parametrize("mode", ["float", "exact"])
@pytest.mark.parametrize("inst,n_max", RUN_LAWS, ids=str)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_run_matches_the_online_operator_bit_for_bit(inst, n_max, mode, data):
    law = moments._law(inst, n_max, mode)
    for spec in _specs(inst, law):
        row = law.row(data.draw(st.lists(ROW_VALUES[mode], min_size=n_max + 1,
                                         max_size=n_max + 1)))
        _check_run(law, spec, row, data.draw(st.integers(law.size, n_max + 1)), n_max)


@pytest.mark.parametrize("inst,n_max", RUN_LAWS, ids=str)
def test_run_keeps_the_cascade_signed_zeros(inst, n_max):
    # the cascade's first push is 0.0 + x, so a -0.0 pushed first comes out +0.0
    law = moments._law(inst, n_max, "float")
    for spec in _specs(inst, law):
        _check_run(law, spec, law.row([-0.0] * (n_max + 1)), law.size, n_max)


# sha256 of the packed (little-endian) doubles of mean_tables(instance, n_max,
# "float"), row after row.  These rows take only +, -, *, / and left-to-right
# sums, so every IEEE-754 machine gives the same bits whatever SIMD numpy uses.
FLOAT_MEAN_DIGESTS = {
    "mary-3-20000": "05ac1f993d5b0532e76d07343c91e6a497fb91f4b5da90412a8216c6c710a4d4",
    "fbbst-1-8192": "a90b1129db72888edc0883877e835837c7ec1ef20f67ccf2f9517b9b4874577f",
    "mary-27-8192": "c1763e975d21ebf43cfacc22c224a5cf6a4dfae2199da454b130cd46e1fa4be6",
    "quadtree-2-20000": "bfc2ab62b48d596d31c8ac8925342237f1ef5909d6746ea18fb7e19106b0a0e1",
}


@pytest.mark.parametrize("key", sorted(FLOAT_MEAN_DIGESTS))
def test_float_mean_rows_match_pinned_digests(key):
    family, param, n_max = key.split("-")
    inst = {"mary": mary, "fbbst": fbbst, "quadtree": quadtree}[family](int(param))
    rows = mean_tables(inst, int(n_max), "float")
    got = hashlib.sha256(b"".join(array("d", row).tobytes() for row in rows)).hexdigest()
    assert got == FLOAT_MEAN_DIGESTS[key]


def test_moments_imports_treesim_only_for_the_oracle():
    code = ("import sys, logtrees.moments as m; print('logtrees.treesim' in sys.modules); "
            "print(m.permutation_oracle(4, 3).mu, 'logtrees.treesim' in sys.modules)")
    src = str(Path(moments.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True).stdout
    assert out.split() == ["False", str(permutation_oracle(4, 3).mu), "True"]


# ----------------------------- oracle equality ----------------------------

@pytest.mark.parametrize("m", [3, 4])
def test_oracle_equality_all_rows(m):
    # exact-mode table equals the permutation oracle, rational equality
    table = second_moment_tables(mary(m), 9, "exact")
    for n in range(0, 10):
        oracle = permutation_oracle(n, m)
        for name in MARY_ROWS:
            assert table.column(name)[n] == getattr(oracle, name), (m, n, name)


# sha256 of the CSV body (the table after the two header lines) of
# ``logtrees moments --nmax 100``, recorded before the moment engines were
# merged into one split-law recurrence; exact tables must stay rationally
# equal, which for normalised Fractions means byte-equal CSVs.
GOLDEN_DIGESTS = {
    "mary-3": "cf34463cd8b76425ab47515e7f64e7813ae1c892fd7d6457fdbf95d7df4c6152",
    "mary-4": "fb3cec975d334ef62381be9b33c5242be15df48a0be04d6143cdeb4baa8d6762",
    "mary-5": "0d0c690671f8e9c91f47db90b59de0ed24446dd1caf95b79f8ce697a2e7e2c29",
    "mary-6": "0cfee5ef911882c23e62a9d6ee694f692ee3acdf0cffdbb347213993b7b1e94a",
    "mary-7": "37df7b96053b1cad667d037e79389652bb06ef48b1ffea64fe4dfd86b56625f6",
    "mary-8": "3b50cee563a3b54d458b074f146163a88c37edeb7b05d06556f7b183bc9e1ade",
    "mary-9": "78145b3b134d6423ca5b7a223f2f2e2a6a4573d9614ff8ee701b737f4f22200e",
    "mary-10": "be9b714678c2fa677f37c0f555f3393ecbdabdf0ce3a5676b932fe50f785414c",
    "mary-11": "b00eb19f8e33c89534428cbe3b6d92bb0b9500388e1ace52ccfb65e653675619",
    "mary-12": "e9a345bf9c84509d0250b34e679ec637da1ee62fe9e7275a5a13855e03e4b334",
    "fbbst-1": "048deb92df492ca4e7437b62e6e54c13cbdc6a3f2d1895a1ac804d29110c107c",
    "fbbst-2": "feb9b3cc95ea7ff876c845fb42c4a897e0237eeb2aca7ca5f77b3e28d20659de",
    "fbbst-3": "c3855e5aec24cf124f47b1a985eb0cf76f0ef5b34a4eebad402df2a9ef995370",
    "fbbst-4": "770465b89ff803d22b4dc9fb90b4a2f7923729bf71b1ea721f54451bd5374e64",
    "fbbst-5": "d99066c762a6e88a461f1940c57ce0abc883249ab833f89138568f2f0439c27f",
    "quadtree-1": "00896faaa772468f0a4666ad90b3a9466d6a39ba455f43bb08e657fee6a31f03",
    "quadtree-2": "822cec6462b7bbde79b6bf5fed67f4c18c822d0da0b641c230bbdbca036bd0d9",
    "quadtree-3": "9b4511c47ac656e368002cea74d382db4adcda6f749c56dff3a7d9a5f8951254",
    "quadtree-4": "6230e2c3e6bd8f16afcad4d65a0963321f0b9e7f8933c915044d804a27096f66",
}


@pytest.mark.parametrize("key", sorted(GOLDEN_DIGESTS))
def test_exact_tables_match_golden_digests(key):
    family, param = key.rsplit("-", 1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["moments", "--family", family, "--param", param, "--nmax", "100"]) == 0
    version, config, body = out.getvalue().split("\n", 2)
    assert version.startswith("# logtrees") and config.startswith("# config:")
    assert hashlib.sha256(body.encode()).hexdigest() == GOLDEN_DIGESTS[key]


def test_oracle_reference_sequence_values():
    # single fixed sequence from the worked example, m = 2, 3, 4
    from logtrees.treesim import build_mary_tree
    seq = [6, 2, 4, 8, 7, 1, 5, 3, 10, 9]
    assert build_mary_tree(seq, 2) == build_mary_tree(seq, 2).__class__(10, 19, 19)
    assert (build_mary_tree(seq, 3).S, build_mary_tree(seq, 3).K,
            build_mary_tree(seq, 3).N) == (6, 11, 7)
    assert (build_mary_tree(seq, 4).S, build_mary_tree(seq, 4).K,
            build_mary_tree(seq, 4).N) == (6, 8, 6)


def test_oracle_budget_refused():
    with pytest.raises(ValueError):
        permutation_oracle(10, 3)


# ----------------------------- table invariants ---------------------------

def test_initial_conditions_m5():
    t = second_moment_tables(mary(5), 12, "exact")
    m = 5
    assert t.column("mu")[0] == 0
    for n in range(1, m - 1):
        assert t.column("mu")[n] == 1
    for n in range(0, m):
        assert t.column("kappa")[n] == 0
        assert t.column("nu")[n] == 0
        for name in ("VS", "VSK", "VK", "VSN", "VN", "VKN"):
            assert t.column(name)[n] == 0


def test_m3_small_values():
    t = second_moment_tables(mary(3), 5, "exact")
    assert t.column("mu")[3] == 2
    assert t.column("kappa")[3] == 1
    assert t.column("nu")[3] == 1


def test_cauchy_schwarz_exact():
    t = second_moment_tables(mary(4), 60, "exact")
    assert t.cauchy_schwarz_ok()
    for name in ("VS", "VK", "VN"):
        assert all(v >= 0 for v in t.column(name))


def test_mu_over_n_limit_m3():
    mu, _, _ = mean_tables(mary(3), 2000, "float")
    assert abs(mu[2000] / 2000 - 0.6) < 1e-2


def test_mean_asymptotics_constant_term():
    # mu_n - phi(n+1) + 1/(m-1) = O(n^(alpha-1)) for m <= 13; the envelope
    # constant is the oscillation amplitude |theta|, which exceeds 10 for
    # some m (about 41 at m=6), so the bound is amplitude-aware
    from logtrees.roots import solve_spectrum, theta
    for m in (3, 6, 13):
        n_max = 3000
        mu, _, _ = mean_tables(mary(m), n_max, "float")
        phi = float(1 / (2 * (harmonic(m) - 1)))
        spec = solve_spectrum(mary(m))
        dev = abs(mu[n_max] - phi * (n_max + 1) + 1 / (m - 1))
        envelope = (2 * abs(theta(spec)) + 10) * n_max ** (spec.alpha - 1)
        assert dev < envelope + 1e-8, (m, dev, envelope)


def test_float_vs_exact_m3_full_horizon():
    te = second_moment_tables(mary(3), 300, "exact")
    tf = second_moment_tables(mary(3), 300, "float")
    for name in MARY_ROWS:
        for n in range(301):
            e = te.column(name)[n]
            if e != 0:
                rel = abs(tf.column(name)[n] - float(e)) / abs(float(e))
                assert rel < 1e-8, (name, n, rel)


@pytest.mark.slow
def test_float_vs_exact_m10_full_horizon():
    te = second_moment_tables(mary(10), 300, "exact")
    tf = second_moment_tables(mary(10), 300, "float")
    for name in MARY_ROWS:
        for n in range(301):
            e = te.column(name)[n]
            if e != 0:
                rel = abs(tf.column(name)[n] - float(e)) / abs(float(e))
                assert rel < 1e-8, (name, n, rel)


def test_mode_caps_enforced():
    with pytest.raises(TableModeError):
        second_moment_tables(mary(3), 301, "exact")
    with pytest.raises(TableModeError):
        second_moment_tables(mary(3), 20_001, "float")
    with pytest.raises(TableModeError):
        second_moment_tables(mary(3), 10, "quadruple")


def test_rho_kn_climbs_toward_one():
    # rho(K_n, N_n) -> 1.  Convergence is fast and monotone at m=3; at
    # m=10 it is monotone but slower, and at m=20 the periodic-regime
    # subleading term makes rho oscillate on feasible grids (Monte Carlo
    # confirms the table values), so only the Slutsky quantity
    # Var(N - phi K)/Var(N) -> 0 is asserted there.
    grid = [2 ** k for k in range(8, 14)]

    def rho_of(t, n):
        return t.column("VKN")[n] / math.sqrt(t.column("VK")[n] * t.column("VN")[n])

    t3 = second_moment_tables(mary(3), 8192, "float")
    rho = [rho_of(t3, n) for n in grid]
    assert all(b >= a - 1e-9 for a, b in zip(rho, rho[1:]))
    assert rho[-1] >= 0.95

    t10 = second_moment_tables(mary(10), 8192, "float")
    rho = [rho_of(t10, n) for n in grid]
    assert all(b >= a - 1e-9 for a, b in zip(rho, rho[1:]))
    assert rho[-1] >= 0.85
    phi = float(1 / (2 * (harmonic(10) - 1)))
    slutsky = [
        (phi * phi * t10.column("VK")[n] - 2 * phi * t10.column("VKN")[n]
         + t10.column("VN")[n]) / t10.column("VN")[n]
        for n in (256, 8192)
    ]
    assert slutsky[1] < 0.5 * slutsky[0]

    # m=20 sits in the periodic covariance regime: at feasible n the
    # correlation oscillates well below 1 (subleading amplitudes dwarf the
    # tiny limit constant phi^2 C_K); validate the table against Monte
    # Carlo instead of asserting the asymptote.
    from logtrees.treesim import monte_carlo
    t20 = second_moment_tables(mary(20), 2048, "float")
    st = monte_carlo(mary(20), 2048, 4000, seed=11)
    for row, name in (("VK", "K"), ("VN", "N")):
        rel = abs(st.var(name) - t20.column(row)[2048]) / t20.column(row)[2048]
        assert rel < 0.10, (row, rel)
    assert abs(st.corr("K", "N") - rho_of(t20, 2048)) < 0.06


# ----------------------------- fbbst and quadtree -------------------------

def test_fbbst_exact_small():
    t = second_moment_tables(fbbst(1), 24, "exact")
    assert t.column("s_mean")[3] == 1
    assert t.column("x_mean")[3] == 2
    # deterministic below the threshold
    for n in range(0, 3):
        assert t.column("s_mean")[n] == 0 and t.column("x_mean")[n] == 0
    assert t.cauchy_schwarz_ok()


@pytest.mark.parametrize("t", [1, 2])
def test_fbbst_rows_match_quicksort_enumeration(t):
    # an oracle that shares no code with the split-law engine: every input
    # order of n <= 8 keys, partitioned by the median-of-(2t+1) rule
    table = second_moment_tables(fbbst(t), 8, "exact")
    for n in range(9):
        runs = [median_quicksort(list(p), t) for p in permutations(range(n))]
        cnt = len(runs)
        es = Fraction(sum(s for s, _ in runs), cnt)
        ex = Fraction(sum(x for _, x in runs), cnt)
        want = {
            "s_mean": es,
            "x_mean": ex,
            "VS": Fraction(sum(s * s for s, _ in runs), cnt) - es * es,
            "VSX": Fraction(sum(s * x for s, x in runs), cnt) - es * ex,
            "VX": Fraction(sum(x * x for _, x in runs), cnt) - ex * ex,
        }
        for name, value in want.items():
            assert table.column(name)[n] == value, (t, n, name)


@pytest.mark.parametrize("t", [1, 2, 3, 4, 5])
def test_fbbst_float_vs_exact(t):
    te = second_moment_tables(fbbst(t), 200, "exact")
    tf = second_moment_tables(fbbst(t), 200, "float")
    for name in te.row_names:
        for n in range(201):
            e, f = te.column(name)[n], tf.column(name)[n]
            if e == 0:
                assert f == 0.0, (name, n, f)
            else:
                assert abs(f - float(e)) <= 1e-10 * abs(float(e)), (name, n, f, e)


def test_quadtree_d1_matches_bst_closed_forms():
    # d=1 is a plain BST: mean IPL is 2(n+1)H_n - 4n and mean leaves (n+1)/3
    l_mean, xi_mean = mean_tables(quadtree(1), 100, "exact")
    H = harmonic(100)
    assert xi_mean[100] == 2 * 101 * H - 400
    assert l_mean[100] == Fraction(101, 3)


def test_quadtree_second_moments_unsupported():
    with pytest.raises(UnsupportedTableError):
        second_moment_tables(quadtree(2), 50, "exact")


def test_quadtree_mean_growth_d2():
    l_mean, xi_mean = mean_tables(quadtree(2), 4000, "float")
    assert abs(xi_mean[4000] / (4000 * math.log(4000)) - 1.0) < 0.1


# ----------------------------- generic recurrence -------------------------

def test_generic_recurrence_reproduces_means():
    m, n_max = 4, 120
    inst = mary(m)
    law = moments._law(inst, n_max, "exact")
    zeros = [Fraction(0)] * (m - 1)
    mu, kappa, nu = mean_tables(inst, n_max, "exact")
    one_toll = [Fraction(0)] * (m - 1) + [Fraction(1)] * (n_max - m + 2)
    got = moments._recurrence(law, one_toll, mu[: m - 1], n_max)
    assert got == mu

    kappa_toll = [Fraction(max(0, n - m + 1)) for n in range(n_max + 1)]
    got = moments._recurrence(law, kappa_toll, zeros, n_max)
    assert got == kappa

    nu_toll = [mu[n] - 1 if n >= m - 1 else Fraction(0) for n in range(n_max + 1)]
    got = moments._recurrence(law, nu_toll, zeros, n_max)
    assert got == nu


def test_generic_recurrence_linear_toll_form():
    # the KPL toll written as c(n+1) + t_n (c=1, t_n = -m beyond the
    # initial segment, t_n = -(n+1) inside it) reproduces kappa
    m, n_max = 3, 150
    inst = mary(m)
    _, kappa, _ = mean_tables(inst, n_max, "float")
    t_seq = [-(n + 1.0) if n < m - 1 else -float(m) for n in range(n_max + 1)]
    toll = [1.0 * (n + 1) + t_seq[n] for n in range(n_max + 1)]
    got = moments._recurrence(moments._law(inst, n_max, "float"), toll, [0.0] * (m - 1), n_max)
    assert max(abs(a - b) for a, b in zip(got, kappa)) < 1e-9


def test_generic_recurrence_fbbst_and_quadtree():
    # constant toll 1 above the threshold reproduces the stage/leaf means
    eS, _ = mean_tables(fbbst(1), 60, "exact")
    toll = [Fraction(0)] * 3 + [Fraction(1)] * 58
    got = moments._recurrence(moments._law(fbbst(1), 60, "exact"), toll, [Fraction(0)] * 3, 60)
    assert got == eS
    l_mean, _ = mean_tables(quadtree(2), 40, "exact")
    toll = [Fraction(0)] * 41
    got = moments._recurrence(moments._law(quadtree(2), 40, "exact"), toll,
                              [Fraction(0), Fraction(1)], 40)
    assert got == l_mean


# ----------------------------- growth exponent ----------------------------

def test_growth_exponent_exact_power():
    vals = [0.0] + [3.5 * n ** 2 for n in range(1, 1025)]
    fit = growth_exponent(vals, [2 ** k for k in range(5, 11)])
    assert abs(fit.slope - 2.0) < 1e-12
    assert fit.residual < 1e-12


def test_growth_exponent_rejects_nonpositive():
    vals = [1.0] * 100
    vals[32] = 0.0
    with pytest.raises(ValueError, match="n = 32"):
        growth_exponent(vals, [16, 32, 64])


def test_growth_exponents_match_theory_m3():
    t = second_moment_tables(mary(3), 8192, "float")
    grid = [2 ** k for k in range(8, 14)]
    assert abs(growth_exponent(t.column("VK"), grid).slope - 2.0) < 0.05
    assert abs(growth_exponent(t.column("VSK"), grid).slope - 1.0) < 0.1
    # VSN / (n log n) stabilises: relative drift < 10% over the top octave
    q = [t.column("VSN")[n] / (n * math.log(n)) for n in (4096, 8192)]
    assert q[1] > 0 and abs(q[1] - q[0]) / q[1] < 0.10


# ----------------------------- float drift flag ---------------------------

def test_float_mode_flags_normalisation():
    # healthy horizon stays silent
    second_moment_tables(mary(6), 500, "float")


def test_float_mode_normaliser_overflow_is_named():
    # C(2738, 199) is the largest normaliser a double holds
    assert math.comb(2738, 199) <= sys.float_info.max < math.comb(2739, 199)
    with pytest.raises(FloatDriftError, match=r"n = 2739; use exact mode"):
        second_moment_tables(mary(200), 5000, "float")
    with pytest.raises(FloatDriftError, match=r"n = 2739"):
        mean_tables(mary(200), 5000, "float")


def test_float_quadtree_beyond_the_double_range_is_refused():
    # quadtree(1024) has 2^1024 branches, one past the largest double
    with pytest.raises(FloatDriftError, match=r"quadtree\(1024\).*double range; use exact mode"):
        mean_tables(quadtree(1024), 5, "float")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(err):
        code = cli.main(["moments", "--family", "quadtree", "--param", "1024", "--nmax", "5",
                         "--mode", "float"])
    assert (code, out.getvalue()) == (2, "") and "double range" in err.getvalue()
    # one dimension less in float mode, and more in exact mode, still run
    l_mean, xi_mean = mean_tables(quadtree(1023), 50, "float")
    assert all(math.isfinite(v) for v in (*l_mean, *xi_mean))
    exact = mean_tables(quadtree(1100), 5, "exact")
    assert [len(row) for row in exact] == [6, 6]
    assert all(isinstance(v, Fraction) for row in exact for v in row)


@settings(max_examples=25, deadline=None)
@given(st.integers(3, 6), st.integers(0, 9))
def test_oracle_moments_psd(m, n):
    o = permutation_oracle(n, m)
    assert o.VS >= 0 and o.VK >= 0 and o.VN >= 0
    assert o.VSK * o.VSK <= o.VS * o.VK
