"""Fixed-point generations on worker threads: draws stay on the calling
thread, so pools and traces match the serial loop in ``oracles`` bit for
bit at any thread count, and a failing worker stops the iteration."""
import dataclasses
import sys
import threading

import numpy as np
import pytest

from logtrees import fixpoint
from logtrees.families import fbbst, mary, quadtree
from logtrees.fixpoint import PoolDegeneracyError, fixed_point_spec, iterate
from logtrees.treesim import CELL_ROWS
from oracles import serial_iterate

POOL = 2 * CELL_ROWS + 17  # three chunks a generation, the last one ragged

CASES = {
    "uniK-mary(3)": (mary(3), "uniK", {}, 6),
    "TN_periodic-mary(27)": (mary(27), "TN_periodic", {}, 6),
    "TNprime_normal-mary(3)": (mary(3), "TNprime_normal", {}, 6),
    "Tmed_periodic-fbbst(59)": (fbbst(59), "Tmed_periodic", {}, 6),
    "Tmed_normal-fbbst(1)": (fbbst(1), "Tmed_normal", {}, 6),
    "Tquad_normal-quadtree(2)": (quadtree(2), "Tquad_normal", {}, 6),
    # 512 cells a row: two chunks in flight (WINDOW_BYTES at 12 bytes a
    # cell), each shared by every worker; one generation
    "Tquad_periodic-quadtree(9)": (quadtree(9), "Tquad_periodic", {"theta": 0.5 + 0.25j}, 1),
}


def assert_same_pool(got, want):
    assert got.generation == want.generation
    assert got.x.tobytes() == want.x.tobytes()
    assert (got.w is None) == (want.w is None)
    if want.w is not None:
        assert got.w.dtype == want.w.dtype
        assert got.w.tobytes() == want.w.tobytes()
    assert got.trace == want.trace


@pytest.mark.parametrize("case", CASES)
def test_threads_reproduce_serial_loop(case):
    inst, kind, extra, gens = CASES[case]
    spec = dataclasses.replace(fixed_point_spec(inst, kind), **extra)
    want = serial_iterate(spec, POOL, gens, seed=17)
    for threads in (1, 2, 8):
        got = iterate(spec, POOL, gens, seed=17, threads=threads)
        assert_same_pool(got, want)


def test_threads_reproduce_serial_loop_under_fast_switching():
    spec = fixed_point_spec(mary(27), "TN_periodic")
    want = serial_iterate(spec, POOL, 4, seed=23)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = iterate(spec, POOL, 4, seed=23, threads=8)
    finally:
        sys.setswitchinterval(old)
    assert_same_pool(got, want)


UNEVEN = {  # sub-blocks of a whole chunk, none a multiple of three
    "Tquad_normal-quadtree(3)": (quadtree(3), "Tquad_normal", {}, 4),  # 8 of 2,048 rows
    "TN_periodic-mary(27)": CASES["TN_periodic-mary(27)"],  # 28 of at most 606 rows
    "Tquad_periodic-quadtree(9)": CASES["Tquad_periodic-quadtree(9)"],  # 512 of 32 rows
}


@pytest.mark.parametrize("case", UNEVEN)
def test_uneven_shares_reproduce_serial_loop(case):
    # three workers take interleaved shares of each chunk's sub-blocks
    inst, kind, extra, gens = UNEVEN[case]
    assert len(list(fixpoint._row_blocks(0, CELL_ROWS, inst.branches))) % 3 != 0
    spec = dataclasses.replace(fixed_point_spec(inst, kind), **extra)
    want = serial_iterate(spec, POOL, gens, seed=19)
    assert_same_pool(iterate(spec, POOL, gens, seed=19, threads=3), want)


def test_small_pools_span_generations_in_flight():
    # one chunk a generation: the window holds chunks of several generations
    spec = fixed_point_spec(mary(4), "uniK")
    want = serial_iterate(spec, 3000, 12, seed=29)
    assert_same_pool(iterate(spec, 3000, 12, seed=29, threads=3), want)


@pytest.mark.parametrize("threads,budget_chunks,window", [(2, None, 4), (3, None, 6), (3, 2, 2)])
def test_at_most_two_chunks_per_thread_in_flight(monkeypatch, threads, budget_chunks, window):
    # a chunk is retired only once every share of its arithmetic has
    # returned, so before each draw the chunks drawn but not returned are
    # fewer than the window; WINDOW_BYTES of exactly two chunks' draws
    # (12 bytes a cell: a 32-bit index and a coefficient) caps it at two
    lock = threading.Lock()
    drawn, returned, gaps = [0], [0], []
    shares_back = {}
    split_rows, combine = fixpoint._split_rows, fixpoint._combine

    def counting_split_rows(*args):
        with lock:
            gaps.append(drawn[0] - returned[0])
        drawn[0] += 1
        return split_rows(*args)

    def counting_combine(*args):
        combine(*args)
        target, lo, shares = args[3], args[4], args[-1]
        with lock:
            key = target.gen, lo
            shares_back[key] = shares_back.get(key, 0) + 1
            if shares_back[key] == shares:  # the chunk's last share
                returned[0] += 1

    monkeypatch.setattr(fixpoint, "_split_rows", counting_split_rows)
    monkeypatch.setattr(fixpoint, "_combine", counting_combine)
    if budget_chunks:
        monkeypatch.setattr(fixpoint, "WINDOW_BYTES", budget_chunks * 12 * CELL_ROWS * 27)
    spec = fixed_point_spec(mary(27), "TN_periodic")
    iterate(spec, POOL, 4, seed=31, threads=threads)
    assert drawn[0] == 4 * 3
    assert returned[0] == 4 * 3
    assert max(gaps) <= window - 1
    assert max(shares_back.values()) == threads


def _fixpoint_threads():
    return [t for t in threading.enumerate() if t.name.startswith("fixpoint")]


def raised_within(seconds, call):
    """The exception ``call`` raises, run on a thread that must end within
    ``seconds``; no fixed-point worker thread may be left alive."""
    outcome = []

    def run():
        try:
            call()
            outcome.append(None)
        except Exception as exc:  # handed to the test thread below
            outcome.append(exc)

    runner = threading.Thread(target=run, daemon=True)
    runner.start()
    runner.join(timeout=seconds)
    assert not runner.is_alive(), "iterate still waiting after it failed"
    assert _fixpoint_threads() == []
    return outcome[0]


@pytest.mark.parametrize("threads", [2, 8])
def test_worker_error_reaches_caller(monkeypatch, threads):
    # each chunk makes one toll a sub-block: 4 + 4 + 1 = 9 for generation 1
    # (5,461 rows a sub-block), so the 14th toll raises, in a chunk of
    # generation 2, while chunks of generation 3 wait for it to be finished
    calls = [0]
    lock = threading.Lock()
    real_toll = fixpoint.toll

    def failing_toll(spec, coef, *logs):
        with lock:
            calls[0] += 1
            if calls[0] == 14:
                raise RuntimeError("toll failed")
        return real_toll(spec, coef, *logs)

    monkeypatch.setattr(fixpoint, "toll", failing_toll)
    spec = fixed_point_spec(mary(3), "uniK")
    exc = raised_within(60, lambda: iterate(spec, POOL, 10, seed=37, threads=threads))
    assert isinstance(exc, RuntimeError) and str(exc) == "toll failed"


@pytest.mark.parametrize("threads", [1, 2, 8])
def test_pool_degeneracy_fires_at_the_serial_generation(monkeypatch, threads):
    # with no toll the normalised map contracts its first slot by
    # branches * E[V^2] = 1/2 a generation until the variance check trips
    monkeypatch.setattr(fixpoint, "toll", lambda spec, coef, *logs: np.zeros(len(coef)))
    spec = fixed_point_spec(mary(3), "TNprime_normal")
    with pytest.raises(PoolDegeneracyError) as want:
        serial_iterate(spec, POOL, 80, seed=41)
    exc = raised_within(60, lambda: iterate(spec, POOL, 80, seed=41, threads=threads))
    assert isinstance(exc, PoolDegeneracyError) and str(exc) == str(want.value)
    assert int(str(exc).rsplit(" ", 1)[1]) > 5
