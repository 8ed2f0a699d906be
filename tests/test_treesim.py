import functools
import math
from collections import Counter
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logtrees.families import FamilyInstance, fbbst, mary, quadtree
from logtrees.treesim import (
    CUTOFF_SPAN,
    GUIDE_BITS,
    SMALL_ROW,
    SimStats,
    TreeMeasures,
    _cell_splits,
    _law_splits,
    _simulate_block,
    _splits,
    build_mary_tree,
    monte_carlo,
    sample_volumes,
    small_laws,
    sorted_gaps,
    sorted_small_rows,
)
from oracles import (
    fbbst_split_pmf,
    median_quicksort,
    multinomial_rows,
    sample_volumes_hstack,
    small_law_sums,
    split_weights,
)

FIG_SEQUENCE = [6, 2, 4, 8, 7, 1, 5, 3, 10, 9]


def sample_split(instance: FamilyInstance, n: int, rng) -> tuple[int, ...]:
    """One draw of subtree sizes below a size-n splitting node."""
    if n < instance.split_threshold:
        raise ValueError(
            f"n = {n} below the splitting threshold {instance.split_threshold} of {instance}")
    return tuple(int(v) for v in _splits(instance, rng, np.array([n], dtype=np.int64))[0])


def test_reference_trees():
    assert build_mary_tree(FIG_SEQUENCE, 2) == TreeMeasures(10, 19, 19)
    assert build_mary_tree(FIG_SEQUENCE, 3) == TreeMeasures(6, 11, 7)
    assert build_mary_tree(FIG_SEQUENCE, 4) == TreeMeasures(6, 8, 6)


def test_duplicate_keys_rejected():
    with pytest.raises(ValueError):
        build_mary_tree([1, 2, 2], 3)


@settings(max_examples=60, deadline=None)
@given(st.permutations(list(range(1, 13))), st.integers(2, 6))
def test_tree_measure_invariants(perm, m):
    meas = build_mary_tree(perm, m)
    n = len(perm)
    assert meas.N <= meas.K
    assert 1 <= meas.S <= n
    if n < m:
        assert meas.S == 1 and meas.K == 0 and meas.N == 0


def test_split_threshold_enforced():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        sample_split(mary(3), 2, rng)
    with pytest.raises(ValueError):
        sample_split(fbbst(2), 4, rng)


def test_mary_split_law_frequencies():
    # n=3, m=3: composition of 1 into 3 parts, each with probability 1/3
    rng = np.random.default_rng(np.random.Philox(key=[7, 0]))
    counts = Counter(sample_split(mary(3), 3, rng) for _ in range(3000))
    assert set(counts) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
    for v in counts.values():
        assert abs(v - 1000) < 5 * math.sqrt(3000 * (1 / 3) * (2 / 3))


def test_mary_split_law_vs_pi():
    # exact frequency test against the marginal law pi_{n,j}, 1e6 draws
    from logtrees.treesim import _law_splits
    n, m, draws = 12, 4, 1_000_000
    rng = np.random.default_rng(np.random.Philox(key=[11, 0]))
    sizes = _law_splits(rng, m, 0, np.full(draws, n, dtype=np.int64))[:, 0]
    pi = split_weights(n, m).pi
    for j, p in pi.items():
        emp = (sizes == j).mean()
        p = float(p)
        se = math.sqrt(p * (1 - p) / draws)
        assert abs(emp - p) < 5 * se + 1e-12, j


def test_fbbst_split_degenerate_case():
    rng = np.random.default_rng(1)
    for _ in range(10):
        assert sample_split(fbbst(1), 3, rng) == (1, 1)


def test_fbbst_split_pmf_normalisation_and_printed_defect():
    for (n, t) in ((3, 1), (9, 1), (11, 2), (25, 3)):
        assert sum(fbbst_split_pmf(n, t).values()) == 1, (n, t)
    # the quoted index-shifted law loses mass; at (3,1) it sums to zero
    assert sum(fbbst_split_pmf(3, 1, as_printed=True).values()) == 0
    assert sum(fbbst_split_pmf(9, 1, as_printed=True).values()) != 1
    # the in-use law matches the empirical sampler (cross-checked elsewhere)
    pmf = fbbst_split_pmf(5, 1)
    assert pmf == {1: Fraction(3, 10), 2: Fraction(4, 10), 3: Fraction(3, 10)}


def test_fbbst_split_law_frequencies():
    from logtrees.treesim import _law_splits
    t, n, draws = 1, 9, 1_000_000
    rng = np.random.default_rng(np.random.Philox(key=[13, 0]))
    lefts = _law_splits(rng, 2, t, np.full(draws, n, dtype=np.int64))[:, 0]
    for j, p in fbbst_split_pmf(n, t).items():
        p = float(p)
        emp = (lefts == j).mean()
        se = math.sqrt(p * (1 - p) / draws)
        assert abs(emp - p) < 5 * se, j


@pytest.mark.parametrize("m,t", [(3, 0), (4, 0), (27, 0), (2, 1), (2, 2), (2, 5)])
def test_law_splits_reproduce_family_samplers(m, t):
    # same Philox stream, same draws as the per-family rules: m-ary gaps
    # between all m-1 sorted ranks, fbbst sides of the median of 2t+1
    from logtrees.treesim import _floyd_distinct, _law_splits
    sizes = np.random.default_rng(0).integers(m * (t + 1) - 1, 400, 5000)
    got = _law_splits(np.random.Generator(np.random.Philox(key=[5, m + t])), m, t, sizes)
    ranks = np.sort(_floyd_distinct(np.random.Generator(np.random.Philox(key=[5, m + t])),
                                    sizes, m * (t + 1) - 1), axis=1)
    if t == 0:
        bounds = np.hstack([np.zeros((len(sizes), 1), dtype=np.int64), ranks,
                            (sizes + 1)[:, None]])
        want = np.diff(bounds, axis=1) - 1
    else:
        med = ranks[:, t]
        want = np.stack([med - 1, sizes - med], axis=1)
    assert np.array_equal(got, want)


def test_quadtree_d1_split_is_uniform():
    # d=1 reduces to the BST split law: left size uniform on {0..n-1}
    n, draws = 8, 1_000_000
    rng = np.random.default_rng(np.random.Philox(key=[17, 0]))
    lefts = _cell_splits(rng, 1, np.full(draws, n, dtype=np.int64))[:, 0]
    for j in range(n):
        emp = (lefts == j).mean()
        se = math.sqrt((1 / n) * (1 - 1 / n) / draws)
        assert abs(emp - 1 / n) < 5 * se, j


@pytest.mark.parametrize("d", [1, 2, 3, 9])
def test_sample_volumes_bitwise_equal_to_hstack_loop(d):
    got = sample_volumes(d, np.random.Generator(np.random.Philox(key=[23, d])), 3000)
    want = sample_volumes_hstack(d, np.random.Generator(np.random.Philox(key=[23, d])), 3000)
    assert got.shape == (3000, 2 ** d) and got.flags.c_contiguous
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first, *rest)


def _cell_count_law(d: int, n: int) -> dict[tuple[int, ...], Fraction]:
    """Law of the cell counts of the n - 1 other points around a quadtree
    node of size n: a multinomial over the cell volumes of the node's
    uniform point, integrated coordinate by coordinate, is
    (n-1)!/prod c! times prod_l a_l! b_l!/n!, with a_l and b_l the points
    below and above that point in coordinate l (cell bit l clear or set)."""
    law = {}
    for cells in _compositions(n - 1, 2 ** d):
        p = Fraction(math.factorial(n - 1), math.prod(map(math.factorial, cells)))
        for l in range(d):
            a = sum(c for j, c in enumerate(cells) if not j >> l & 1)
            p *= Fraction(math.factorial(a) * math.factorial(n - 1 - a), math.factorial(n))
        law[cells] = p
    return law


@pytest.mark.parametrize("n", range(2, 8))
@pytest.mark.parametrize("d", [1, 2, 3])
def test_quadtree_cell_counts_match_closed_form_law(d, n):
    # chi-square of 200,000 drawn cell-count tuples against the closed form;
    # bins expected below 5 are pooled
    from scipy.stats import chisquare
    law = _cell_count_law(d, n)
    assert sum(law.values()) == 1
    draws = 200_000
    rng = np.random.Generator(np.random.Philox(key=[29, 8 * d + n]))
    cells = _cell_splits(rng, d, np.full(draws, n, dtype=np.int64))
    assert cells.shape == (draws, 2 ** d) and cells.dtype == np.int64
    place = n ** np.arange(2 ** d)
    codes, hits = np.unique(cells @ place, return_counts=True)
    drawn = dict(zip(codes.tolist(), hits.tolist()))
    keys = [int(np.dot(c, place)) for c in law]
    assert set(drawn) <= set(keys)
    observed = np.array([drawn.get(key, 0) for key in keys], dtype=float)
    expected = np.array([float(p) * draws for p in law.values()])
    rare = expected < 5
    if rare.any():
        observed = np.append(observed[~rare], observed[rare].sum())
        expected = np.append(expected[~rare], expected[rare].sum())
    assert chisquare(observed, expected).pvalue > 1e-4


def test_quadtree_split_sums():
    rng = np.random.default_rng(3)
    parts = sample_split(quadtree(3), 50, rng)
    assert len(parts) == 8 and sum(parts) == 49


def test_recursion_small_cases():
    rng = np.random.default_rng(5)

    def one(instance, n):
        return tuple(int(col[0]) for col in _simulate_block(instance, n, 1, rng))
    assert one(mary(3), 3) == TreeMeasures(2, 1, 1)
    assert one(fbbst(1), 3) == (1, 2)
    assert one(quadtree(4), 1) == (1, 0)
    assert one(quadtree(2), 0) == (0, 0)


@pytest.mark.parametrize("m", [3, 4])
def test_recursion_matches_builder_and_exact_table(m):
    # tree builder (via the permutation oracle) and split recursion agree
    # with the exact table: 1e5 replicates, 4 standard errors
    from logtrees.moments import permutation_oracle
    n, reps = 8, 100_000
    oracle = permutation_oracle(n, m)  # exhaustive tree construction
    stats = monte_carlo(mary(m), n, reps, seed=99)
    for name, attr in (("S", "mu"), ("K", "kappa"), ("N", "nu")):
        se = max(stats.sem(name), 1e-12)
        assert abs(stats.mean(name) - float(getattr(oracle, attr))) < 4 * se + 1e-9, name
    for name, attr in (("S", "VS"), ("K", "VK"), ("N", "VN")):
        want = float(getattr(oracle, attr))
        se = max(want * math.sqrt(8.0 / reps), 1e-12)
        assert abs(stats.var(name) - want) < 4 * se + 1e-9, name


@pytest.mark.parametrize("t", [1, 2])
def test_recursion_matches_quicksort_enumeration(t):
    # fbbst split recursion against median-of-(2t+1) quicksort run on every
    # input order of n = 8 keys: 1e5 replicates, 4 standard errors
    n, reps = 8, 100_000
    runs = np.array([median_quicksort(list(p), t) for p in permutations(range(n))])
    stats = monte_carlo(fbbst(t), n, reps, seed=98)
    for col, name in enumerate(("S", "X")):
        mean, var = runs[:, col].mean(), runs[:, col].var()
        se = max(stats.sem(name), 1e-12)
        assert abs(stats.mean(name) - mean) < 4 * se + 1e-9, name
        se = max(var * math.sqrt(8.0 / reps), 1e-12)
        assert abs(stats.var(name) - var) < 4 * se + 1e-9, name


def _point_quadtree(points):
    """(L, Xi) of the point quadtree built by inserting ``points`` in
    order: L counts the leaves (subtrees of size one), Xi sums the depths."""
    root = (points[0], {})
    xi = 0
    for x in points[1:]:
        node, depth = root, 0
        while True:
            depth += 1
            orthant = tuple(a < b for a, b in zip(x, node[0]))
            child = node[1].get(orthant)
            if child is None:
                node[1][orthant] = (x, {})
                xi += depth
                break
            node = child
    leaves, stack = 0, [root]
    while stack:
        node = stack.pop()
        leaves += not node[1]
        stack.extend(node[1].values())
    return leaves, xi


@pytest.mark.parametrize("d", [1, 2, 3])
def test_recursion_matches_point_quadtree_builder(d):
    # quadtree split recursion against explicit insertion of uniform points:
    # mean leaves and internal path length agree within 4 standard errors
    n, trees = 12, 20_000
    rng = np.random.default_rng(np.random.Philox(key=[19, d]))
    built = np.array([_point_quadtree([tuple(p) for p in rng.random((n, d))])
                      for _ in range(trees)])
    stats = monte_carlo(quadtree(d), n, 50_000, seed=97)
    for col, name in enumerate(("L", "Xi")):
        se = math.hypot(stats.sem(name), built[:, col].std(ddof=1) / math.sqrt(trees))
        assert abs(stats.mean(name) - built[:, col].mean()) < 4 * se, name


@pytest.mark.parametrize("instance", [mary(3), fbbst(1), quadtree(2), quadtree(3)], ids=str)
def test_monte_carlo_deterministic_across_threads(instance):
    a = monte_carlo(instance, 500, 3000, seed=42, threads=1)
    b = monte_carlo(instance, 500, 3000, seed=42, threads=4)
    assert a.count == b.count and a._sum == b._sum and a._prod == b._prod


def test_monte_carlo_rejects_tiny_reps():
    with pytest.raises(ValueError):
        monte_carlo(mary(3), 10, 1, seed=0)


def test_monte_carlo_rejects_negative_n():
    with pytest.raises(ValueError):
        monte_carlo(mary(3), -5, 10, seed=0)


def test_simstats_merge_exact_and_associative():
    s1, s2, s3 = (SimStats(("a", "b")) for _ in range(3))
    s1.update_arrays([np.array([1, 2]), np.array([3, 4])])
    s2.update_arrays([np.array([5]), np.array([6])])
    s3.update_arrays([np.array([7, 8, 9]), np.array([1, 1, 2])])
    left = s1.merge(s2).merge(s3)
    right = s1.merge(s2.merge(s3))
    assert left._sum == right._sum and left._prod == right._prod
    assert left.mean_exact("a") == Fraction(1 + 2 + 5 + 7 + 8 + 9, 6)
    assert -1.0 <= left.corr("a", "b") <= 1.0


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 10**9), st.integers(0, 10**9)),
                min_size=2, max_size=25),
       st.integers(1, 24))
def test_simstats_properties(pairs, cut):
    # merge associativity and exactness for arbitrary large-count batches
    xs = np.array([p[0] for p in pairs], dtype=np.int64)
    ys = np.array([p[1] for p in pairs], dtype=np.int64)
    cut = min(cut, len(pairs) - 1)
    a, b, whole = SimStats(("x", "y")), SimStats(("x", "y")), SimStats(("x", "y"))
    a.update_arrays([xs[:cut], ys[:cut]])
    b.update_arrays([xs[cut:], ys[cut:]])
    whole.update_arrays([xs, ys])
    merged = a.merge(b)
    assert merged._sum == whole._sum and merged._prod == whole._prod
    assert -1.0 <= merged.corr("x", "y") <= 1.0
    assert merged.var("x") >= 0.0


def test_deterministic_case_zero_variance():
    stats = monte_carlo(mary(3), 3, 100, seed=1)
    assert stats.var("S") == 0.0 and stats.var("K") == 0.0 and stats.var("N") == 0.0
    assert stats.mean("S") == 2.0


def test_quadtree_mean_internal_path_length():
    # E[Xi_n] / (n ln n) -> 2/d
    d, n = 2, 10_000
    stats = monte_carlo(quadtree(d), n, 400, seed=7)
    ratio = stats.mean("Xi") / (n * math.log(n))
    assert abs(ratio - 2 / d) < 0.1 * (2 / d)


# ---------------------------------------------------------------------------
# exact small-subtree laws
# ---------------------------------------------------------------------------

def _law_moments(counts):
    """Exact means and second moments of a law given as tuple -> count."""
    total = sum(counts.values())
    width = len(next(iter(counts)))
    mean = [Fraction(sum(c * v[i] for v, c in counts.items()), total) for i in range(width)]
    cov = {(i, j): Fraction(sum(c * v[i] * v[j] for v, c in counts.items()), total)
           - mean[i] * mean[j] for i in range(width) for j in range(width)}
    return mean, cov


@pytest.mark.parametrize("instance", [mary(3), mary(4), mary(27), fbbst(1), fbbst(2), fbbst(59)],
                         ids=str)
def test_small_law_moments_match_exact_rows(instance):
    from logtrees.moments import second_moment_tables
    laws = small_laws(instance)
    assert laws.cutoff > instance.split_threshold
    table = second_moment_tables(instance, laws.cutoff - 1, "exact")
    names = [meas.name for meas in instance.measures]
    for k, counts in enumerate(laws.counts):
        mean, cov = _law_moments(counts)
        for i, meas in enumerate(instance.measures):
            assert mean[i] == table.column(meas.row)[k], (k, meas.name)
        for row, a, b in instance.covariance_rows:
            assert cov[names.index(a), names.index(b)] == table.column(row)[k], (k, row)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_small_law_means_match_quadtree_rows(d):
    from logtrees.moments import mean_tables
    laws = small_laws(quadtree(d))
    assert laws.cutoff > 2
    rows = mean_tables(quadtree(d), laws.cutoff - 1, "exact")
    for k, counts in enumerate(laws.counts):
        assert sum(counts.values()) == math.factorial(k) ** d, k
        assert _law_moments(counts)[0] == [row[k] for row in rows], k


def test_mary_small_law_matches_tree_enumeration():
    # every insertion order of n <= 8 keys: the table counts over n! are the
    # numbers of permutations that build each (S, K, N)
    laws = small_laws(mary(3))
    for n in range(min(9, laws.cutoff)):
        built = Counter(tuple(build_mary_tree(p, 3)) for p in permutations(range(n)))
        assert laws.counts[n] == dict(built), n


@pytest.mark.parametrize("t", [1, 2])
def test_fbbst_small_law_matches_quicksort_enumeration(t):
    laws = small_laws(fbbst(t))
    for n in range(min(9, laws.cutoff)):
        runs = Counter(median_quicksort(list(p), t) for p in permutations(range(n)))
        assert laws.counts[n] == dict(runs), (t, n)


def _threshold_laws(instance):
    # the recursion as it ran before the tables: every size from the split
    # threshold on is split
    return small_laws(instance, 0)


def _assert_same_law(instance, a_cols, b_cols, reps):
    # two samples of the measures of one instance: every measure's mean and
    # variance within 4 combined standard errors, and a KS test on the path
    # length
    from scipy.stats import ks_2samp
    for i, meas in enumerate(instance.measures):
        a, b = (np.asarray(cols[i], dtype=float) for cols in (a_cols, b_cols))
        se = math.hypot(a.std() / math.sqrt(reps), b.std() / math.sqrt(reps))
        assert abs(a.mean() - b.mean()) <= 4 * se + 1e-12, meas.name
        sq_a, sq_b = (a - a.mean()) ** 2, (b - b.mean()) ** 2
        se = math.hypot(sq_a.std() / math.sqrt(reps), sq_b.std() / math.sqrt(reps))
        assert abs(sq_a.mean() - sq_b.mean()) <= 4 * se + 1e-12, meas.name
    path = len(instance.measures) - 1 if instance.split_law is None else 1
    assert ks_2samp(a_cols[path], b_cols[path]).pvalue > 1e-3


@pytest.mark.parametrize("instance", [mary(3), fbbst(1), quadtree(2)], ids=str)
def test_cutoff_matches_threshold_sampler(instance, monkeypatch):
    # two-sample test of the table-driven recursion against the plain split
    # recursion
    from logtrees import treesim
    n, reps = 2000, 4096
    table = treesim._simulate_block(
        instance, n, reps, np.random.Generator(np.random.Philox(key=[23, 0])))
    monkeypatch.setattr(treesim, "small_laws", _threshold_laws)
    split = treesim._simulate_block(
        instance, n, reps, np.random.Generator(np.random.Philox(key=[23, 1])))
    _assert_same_law(instance, table, split, reps)


def _volume_splits(rng, d, sizes):
    # the cell counts as a multinomial over the cell volumes of the node's
    # uniform point
    return multinomial_rows(rng, sizes - 1, sample_volumes(d, rng, sizes.shape[0]))


@pytest.mark.parametrize("d,n,reps", [(2, 2000, 4096), (3, 2000, 4096), (9, 300, 1024)])
def test_rank_splits_match_volume_multinomial(d, n, reps, monkeypatch):
    # two-sample test of the recursion drawing cell counts from coordinate
    # ranks against the same recursion drawing them from cell volumes
    from logtrees import treesim
    ranks = treesim._simulate_block(
        quadtree(d), n, reps, np.random.Generator(np.random.Philox(key=[37, d])))
    monkeypatch.setattr(treesim, "_cell_splits", _volume_splits)
    volumes = treesim._simulate_block(
        quadtree(d), n, reps, np.random.Generator(np.random.Philox(key=[41, d])))
    _assert_same_law(quadtree(d), ranks, volumes, reps)


def test_quadtree_levels_drawn_in_chunks(monkeypatch):
    # d = 9 with 64 trees of 5000 points: the level below the roots holds
    # more than CELL_ROWS splitting nodes, yet no cell array gets more rows
    from logtrees import treesim
    rows = []
    real = treesim._cell_splits

    def spy(*args):
        out = real(*args)
        rows.append(out.shape[0])
        return out
    monkeypatch.setattr(treesim, "_cell_splits", spy)
    stats = monte_carlo(quadtree(9), 5000, 64, seed=3)
    assert stats.count == 64
    assert max(rows) == treesim.CELL_ROWS


def _block(instance, n):
    return _simulate_block(instance, n, 1024, np.random.Generator(np.random.Philox(key=[7, 0])))


@pytest.mark.parametrize("instance,bound_mb", [(quadtree(2), 14), (mary(3), 10)], ids=str)
def test_block_peak_memory(instance, bound_mb):
    # one block at n = 10^4 holds its levels in 32-bit arrays and sums its
    # leaves in slices (10.0 and 8.3 MB on x86-64, numpy 2.4.6); int64 levels
    # summed whole peaked at 26.7 MB (quadtree(2)) and 14.0 MB (mary(3))
    import tracemalloc
    small_laws(instance)
    tracemalloc.start()
    try:
        _block(instance, 10**4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound_mb * 1e6


@pytest.mark.parametrize("width,n", [(7, 1000), (2**20, 10**4)])
@pytest.mark.parametrize("instance", [mary(3), fbbst(1), quadtree(2)], ids=str)
def test_leaf_slices_move_no_draw(instance, width, n, monkeypatch):
    # the leaves of a level draw one stream whatever the slice: at n = 10^4
    # the widest levels span several default slices
    from logtrees import treesim
    want = _block(instance, n)
    monkeypatch.setattr(treesim, "LEAF_SLICE", width)
    got = _block(instance, n)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def _split_with(split, sizes):
    rng = np.random.Generator(np.random.Philox(key=[11, 0]))
    return split(rng, sizes), rng.random()


@pytest.mark.parametrize("law", [(3, 0), (2, 1), (27, 0)], ids=str)
def test_law_split_dtype_moves_no_draw(law):
    # int32 and int64 sizes give the same gaps and leave the generator at
    # the same point; sizes past 2^31 keep int64
    m, t = law
    rng = np.random.default_rng(m + t)
    sizes = np.concatenate([rng.integers(m * (t + 1) - 1, 60, 500),
                            rng.integers(2**31 - 2**20, 2**31 - 1, 500)])
    def split(r, s):
        return _law_splits(r, m, t, s)
    (g32, u32), (g64, u64) = (_split_with(split, sizes.astype(dtype))
                              for dtype in (np.int32, np.int64))
    assert (g32.dtype, g64.dtype) == (np.int32, np.int64)
    assert np.array_equal(g32, g64) and u32 == u64
    big = np.full(500, 3 * 10**9, dtype=np.int64)
    gaps, _ = _split_with(split, big)
    assert gaps.dtype == np.int64 and gaps.min() >= 0
    assert np.array_equal(gaps.sum(axis=1), big - m + 1)


@pytest.mark.parametrize("d", [1, 2, 5])
def test_cell_split_dtype_moves_no_draw(d):
    # numpy's hypergeometric takes counts below 10^9, the largest sizes here
    rng = np.random.default_rng(d)
    sizes = np.concatenate([rng.integers(1, 60, 500), rng.integers(10**9 - 2**20, 10**9, 500)])
    (c32, u32), (c64, u64) = (_split_with(lambda r, s: _cell_splits(r, d, s), sizes.astype(dtype))
                              for dtype in (np.int32, np.int64))
    assert (c32.dtype, c64.dtype) == (np.int32, np.int64)
    assert np.array_equal(c32, c64) and u32 == u64


@pytest.mark.parametrize("n,dtype", [(2**31 - 2, np.int32), (2**31 - 1, np.int64)])
def test_level_dtype_follows_n(n, dtype, monkeypatch):
    # sizes are int32 while n + 1 < 2^31, replicate indices always
    from logtrees import treesim
    seen = []

    class Stop(Exception):
        pass

    def spy(instance, rng, sizes, rep):
        seen.append((sizes.dtype, rep.dtype))
        raise Stop
    monkeypatch.setattr(treesim, "_children", spy)
    with pytest.raises(Stop):
        _simulate_block(mary(3), n, 4, np.random.Generator(np.random.Philox(key=[7, 0])))
    assert seen == [(dtype, np.int32)]


def test_treesim_import_builds_no_tables():
    # importing the sampler stays cheap: no table is built and neither scipy
    # nor mpmath is loaded
    import subprocess
    import sys
    code = ("import sys; import logtrees.treesim as t; "
            "print(t.small_laws.cache_info().currsize, "
            "any(m.split('.')[0] in ('scipy', 'mpmath') for m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.split() == ["0", "False"]


def test_monte_carlo_deterministic_from_cold_cache():
    # the tables hold no randomness: building them under 4 threads or in a
    # warm cache leaves every draw as it is
    small_laws.cache_clear()
    a = monte_carlo(fbbst(1), 700, 2100, seed=8, threads=4)
    b = monte_carlo(fbbst(1), 700, 2100, seed=8, threads=1)
    assert a.count == b.count and a._sum == b._sum and a._prod == b._prod


@pytest.mark.parametrize("instance", [mary(3), fbbst(59)], ids=str)
def test_small_law_draw_near_one_stays_in_its_size(instance):
    # k + u rounds to k + 1 when u is within an ulp of k of 1; the draw must
    # still come from the law of size k, also for the largest size
    class Top:
        def random(self, count):
            return np.full(count, np.nextafter(1.0, 0.0))

    laws = small_laws(instance)
    sizes = np.arange(instance.split_threshold, laws.cutoff)
    sums = laws.sums(Top(), sizes, np.arange(sizes.size), sizes.size)
    for k, got in zip(sizes, sums.T):
        assert tuple(got) in laws.counts[k], k


@pytest.mark.parametrize("instance", [mary(3), mary(27), fbbst(1), fbbst(59), quadtree(2)],
                         ids=str)
def test_small_law_point_masses_skip_the_search(instance):
    # each size below the split threshold holds one entry, the k-th, so its
    # draw needs no search; the draws equal one search of the whole CDF
    laws = small_laws(instance)
    k = np.arange(laws.threshold)
    assert np.array_equal(laws.cdf[k], k + 1.0)
    assert [len(laws.counts[j]) for j in k] == [1] * laws.threshold
    sizes = np.random.default_rng(5).integers(0, laws.cutoff, 20_000)
    rep = np.arange(sizes.size) % 97
    got = laws.sums(np.random.default_rng(6), sizes, rep, 97)
    want = small_law_sums(laws, np.random.default_rng(6), sizes, rep, 97)
    assert np.array_equal(got, want)


# README "Limits and accuracy": the probability of the entries the stored
# CDF gives zero width, summed over every tabulated size of an instance
NEVER_DRAWN_BOUND = 1e-13


@pytest.mark.parametrize("instance", [mary(3), mary(27), fbbst(1), quadtree(2)], ids=str)
def test_small_law_cdf_widths_match_exact_counts(instance):
    # the width of each entry in the CDF (from k, the end of size k - 1) is
    # its exact probability count / total up to the rounding of
    # k + acc / total; an entry narrower than that rounding is never drawn
    laws = small_laws(instance)
    lo, never = 0, Fraction(0)
    for k, counts in enumerate(laws.counts):
        total = sum(counts.values())
        widths = np.diff(laws.cdf[lo:lo + len(counts)], prepend=float(k))
        exact = np.array([count / total for count in counts.values()])
        assert np.all(np.abs(widths - exact) <= 2 * np.spacing(k + 1.0)), k
        never += sum(Fraction(count, total)
                     for count, width in zip(counts.values(), widths) if width == 0)
        lo += len(counts)
    assert lo == laws.cdf.size
    assert never < NEVER_DRAWN_BOUND


@functools.lru_cache(maxsize=None)
def _edge_draws(instance, span):
    # every CDF entry, every bucket edge and the largest draw of each
    # searched size, with their neighbours one ulp away, inside the searched
    # range [threshold, cutoff)
    laws = small_laws(instance, span)
    k = np.arange(laws.threshold, laws.cutoff, dtype=np.float64)
    edges = np.arange(laws.threshold << GUIDE_BITS, laws.cutoff << GUIDE_BITS) / 2.0**GUIDE_BITS
    x = np.concatenate([
        *(np.nextafter(at, side) for at in (laws.cdf, edges) for side in (-np.inf, np.inf)),
        laws.cdf, edges, k, k + np.nextafter(1.0, 0.0), np.nextafter(k + 1.0, 0.0)])
    return x[(x >= laws.threshold) & (x < laws.cutoff)]


@pytest.mark.parametrize("span", [CUTOFF_SPAN, 0])
@pytest.mark.parametrize("instance", [mary(3), mary(27), fbbst(1), fbbst(59), quadtree(2),
                                      quadtree(9)], ids=str)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_guide_table_equals_searchsorted(instance, span, data):
    # the guide table returns the entry a binary search of the whole CDF
    # returns, at every edge and for any draw k + u a size can make
    laws = small_laws(instance, span)
    assert laws.guide.size == (laws.cutoff - laws.threshold) << GUIDE_BITS
    x = _edge_draws(instance, span)
    if laws.cutoff > laws.threshold:
        sizes = st.integers(laws.threshold, laws.cutoff - 1)
        k = np.array(data.draw(st.lists(sizes, min_size=1, max_size=200)), dtype=np.float64)
        u = data.draw(st.lists(st.floats(0.0, 1.0, exclude_max=True),
                               min_size=k.size, max_size=k.size))
        anywhere = data.draw(st.lists(st.floats(laws.threshold, laws.cutoff, exclude_max=True),
                                      max_size=200))
        x = np.concatenate([x, np.minimum(k + u, np.nextafter(k + 1.0, 0.0)), anywhere])
    assert np.array_equal(laws.search(x), np.searchsorted(laws.cdf, x, side="right"))


@pytest.mark.parametrize("k", range(1, SMALL_ROW + 1))
def test_sorted_small_rows_equal_np_sort(k):
    # ties included: few distinct values a row, and floats of both signs
    rng = np.random.default_rng(k)
    for a in (rng.integers(0, 3, (4000, k)), rng.integers(-2**40, 2**40, (4000, k)),
              rng.integers(-2, 3, (4000, k)) / 4.0, rng.random((4000, k))):
        got = sorted_small_rows(a).T
        assert got.dtype == a.dtype and np.array_equal(got, np.sort(a, axis=1))
        assert np.array_equal(np.signbit(got), np.signbit(np.sort(a, axis=1)))


@pytest.mark.parametrize("k,step", [(1, 1), (2, 1), (3, 2), (5, 3), (SMALL_ROW, 1),
                                    (SMALL_ROW + 1, 1), (11, 6), (26, 1)])
def test_sorted_gaps_equal_sort_and_diff(k, step):
    # both branches against np.sort, the selected keys and np.diff
    rng = np.random.default_rng(k + step)
    for a, low, high in ((rng.integers(1, 50, (3000, k)), 0, rng.integers(50, 99, 3000)),
                         (rng.random((3000, k)), 0.0, 1.0)):
        keys = np.sort(a, axis=1)[:, step - 1 :: step]
        bounds = np.hstack([np.full((3000, 1), low), keys, np.broadcast_to(high, 3000)[:, None]])
        want = np.diff(bounds.astype(a.dtype), axis=1)
        assert np.array_equal(sorted_gaps(a.copy(), low, high, step), want)
