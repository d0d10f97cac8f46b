"""The compiled reach kernel counts exactly what the numpy path counts.

Pooled spread queries run through the compiled reach kernel
(:func:`repro.native.native_reach_counts`) when the host can build it
and through the numpy frontier traversal over aliveness matrices
(:func:`repro.engine.kernels.reach_counts_from_alive`) otherwise.
Reachability does not depend on traversal order, so both paths — on
fresh, grown, mmap-attached and delta-patched pools alike — must return
the same per-sample counts and therefore bit-identical spreads.
"""

from __future__ import annotations

import os
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bench import prepare_graph
from repro.datasets import load_dataset
from repro.engine import (
    PooledEvaluator,
    SamplePool,
    VectorizedEvaluator,
    reach_counts_from_alive,
)
from repro.engine import evaluator as evaluator_mod
from repro.graph import CSRGraph, DiGraph, GraphDelta
from repro.native import native_build_available, native_reach_counts

needs_kernel = pytest.mark.skipif(
    not native_build_available(), reason="no compiler on this host"
)

# never, a fair coin, always
EDGE_PROBS = (0.0, 0.5, 1.0)


def numpy_only():
    """Route pooled queries through the numpy traversal."""
    return mock.patch.object(
        evaluator_mod, "native_reach_counts", lambda *args: None
    )


def graph_from(n: int, edges) -> CSRGraph:
    graph = DiGraph(n)
    for u, v, p in edges:
        graph.add_edge(u, v, p)
    return CSRGraph(graph)


@st.composite
def reach_cases(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    pairs = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            max_size=35,
            unique=True,
        )
    )
    edges = [
        (u, v, draw(st.sampled_from(EDGE_PROBS)))
        for u, v in pairs
        if u != v
    ]
    # duplicates allowed; empty allowed
    seeds = draw(
        st.lists(st.integers(min_value=0, max_value=n - 1), max_size=5)
    )
    others = sorted(set(range(n)) - set(seeds))
    # each blocked set is any subset of the non-seeds, up to all of them
    blocked_sets = draw(
        st.lists(
            st.lists(st.sampled_from(others), unique=True)
            if others
            else st.just([]),
            min_size=1,
            max_size=4,
        )
    )
    return graph_from(n, edges), seeds, blocked_sets


@needs_kernel
@settings(max_examples=80, deadline=None)
@given(
    case=reach_cases(),
    grown=st.integers(min_value=0, max_value=40),
    shift=st.sampled_from([-1, 0, 1]),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_kernel_matches_numpy_path(case, grown, shift, seed):
    csr, seeds, blocked_sets = case
    pool = SamplePool(csr, rng=seed)
    pool.get(max(grown, 1))
    # rounds below, at and above the pool's current size
    rounds = max(pool.theta + shift * max(grown // 2, 1), 1)
    native = PooledEvaluator(csr, pool=pool).expected_spread_many(
        seeds, rounds, blocked_sets
    )
    with numpy_only():
        fallback = PooledEvaluator(csr, pool=pool).expected_spread_many(
            seeds, rounds, blocked_sets
        )
    assert native == fallback

    # and per sample, against the numpy traversal directly
    batch = pool.get(rounds)
    alive = batch.alive_matrix(0, rounds)
    for blocked in blocked_sets:
        mask = np.zeros(csr.n, dtype=bool)
        mask[blocked] = True
        counts = native_reach_counts(
            csr.indptr, csr.indices, batch.positions, batch.offsets,
            rounds, np.asarray(seeds, dtype=np.int64), mask,
        )
        expected = reach_counts_from_alive(csr, seeds, alive, blocked)
        assert counts.tolist() == expected.tolist()


def dense_graph(seed: int = 0) -> CSRGraph:
    gen = np.random.default_rng(seed)
    edges = [
        (u, v, float(gen.choice(EDGE_PROBS)))
        for u in range(14)
        for v in range(14)
        if u != v and gen.random() < 0.3
    ]
    return graph_from(14, edges)


BLOCKED_SETS = [[], [3], [3, 7, 9], list(range(2, 14))]


def both_paths(csr, pool, seeds, rounds, blocked_sets=BLOCKED_SETS):
    native = PooledEvaluator(csr, pool=pool).expected_spread_many(
        seeds, rounds, blocked_sets
    )
    with numpy_only():
        fallback = PooledEvaluator(csr, pool=pool).expected_spread_many(
            seeds, rounds, blocked_sets
        )
    return native, fallback


@pytest.mark.parametrize("native", [True, False])
def test_blocked_seed_rejected(native):
    if native and not native_build_available():
        pytest.skip("no compiler on this host")
    csr = dense_graph()
    with nullcontext() if native else numpy_only():
        evaluator = PooledEvaluator(csr, rng=1)
        with pytest.raises(ValueError, match="seed 1 cannot be blocked"):
            evaluator.expected_spread_many([0, 1], 20, [[], [5, 1]])


@needs_kernel
def test_mmap_attached_pool_read_in_place(tmp_path):
    csr = dense_graph(1)
    SamplePool(csr, rng=4, cache_dir=tmp_path).get(60)
    attached = SamplePool(csr, rng=4, cache_dir=tmp_path)
    assert isinstance(attached._positions, np.memmap)
    native, fallback = both_paths(csr, attached, [0, 1], 60)
    assert native == fallback
    # the kernel read the mapping: nothing was copied or regrown
    assert isinstance(attached._positions, np.memmap)
    assert native == both_paths(csr, SamplePool(csr, rng=4), [0, 1], 60)[0]


@needs_kernel
def test_pool_after_delta():
    csr = dense_graph(2)
    evaluator = PooledEvaluator(csr, rng=6)
    evaluator.pool.get(80)
    present = set(zip(csr.src.tolist(), csr.indices.tolist()))
    missing = next(
        (u, v)
        for u in range(csr.n)
        for v in range(csr.n)
        if u != v and (u, v) not in present
    )
    evaluator.apply_delta(
        GraphDelta(
            inserts=[(*missing, 1.0)],
            deletes=[(int(csr.src[0]), int(csr.indices[0]))],
            reweights=[(int(csr.src[3]), int(csr.indices[3]), 0.5)],
        )
    )
    native, fallback = both_paths(evaluator.csr, evaluator.pool, [0], 80)
    assert native == fallback
    cold = PooledEvaluator(evaluator.csr, rng=6)
    assert native == cold.expected_spread_many([0], 80, BLOCKED_SETS)


@pytest.mark.parametrize("native", [True, False])
def test_many_sets_equal_serial_calls(native):
    if native and not native_build_available():
        pytest.skip("no compiler on this host")
    csr = dense_graph(3)
    with nullcontext() if native else numpy_only():
        evaluator = PooledEvaluator(csr, rng=5, batch_size=16)
        many = evaluator.expected_spread_many([0, 0, 1], 70, BLOCKED_SETS)
        serial = [
            evaluator.expected_spread([0, 0, 1], 70, blocked)
            for blocked in BLOCKED_SETS
        ]
    assert many == serial


def test_empty_seed_list_spreads_nothing():
    csr = dense_graph(4)
    native, fallback = both_paths(csr, SamplePool(csr, rng=2), [], 30)
    assert native == fallback == [0.0] * len(BLOCKED_SETS)


@pytest.mark.parametrize(
    "make",
    [
        lambda csr: PooledEvaluator(csr, rng=1),
        lambda csr: VectorizedEvaluator(csr, rng=1),
    ],
    ids=["pooled", "vectorized"],
)
@pytest.mark.parametrize(
    "seeds, blocked, message",
    [
        ([0], [-1], r"blocked vertex -1 out of range \[0, 14\)"),
        ([0], [14], r"blocked vertex 14 out of range \[0, 14\)"),
        ([-1], [], r"seed -1 out of range \[0, 14\)"),
        ([0, 14], [], r"seed 14 out of range \[0, 14\)"),
    ],
)
def test_out_of_range_ids_rejected(make, seeds, blocked, message):
    # -1 used to block vertex n-1 silently; n and bad seeds used to
    # raise a bare IndexError (or, on the kernel, read out of bounds)
    evaluator = make(dense_graph())
    with pytest.raises(ValueError, match=message):
        evaluator.expected_spread(seeds, 10, blocked)


def wc_graph() -> CSRGraph:
    return CSRGraph(
        prepare_graph(load_dataset("email-core", scale=0.1), "wc", rng=0)
    )


def wc_spreads() -> list[float]:
    csr = wc_graph()
    return PooledEvaluator(csr, rng=21).expected_spread_many(
        [0, 1, 2], 300, [[], [5, 6, 7], list(range(10, 40))]
    )


_SPREADS_CHILD = """
from repro.native import native_build_available
from tests.test_reach_kernel import wc_spreads
assert not native_build_available()
print(repr(wc_spreads()))
"""


@needs_kernel
def test_disabled_process_returns_identical_spreads():
    # a fresh interpreter with REPRO_NATIVE=0 traverses through numpy only
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, REPRO_NATIVE="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(root), env.get("PYTHONPATH", "")]
    )
    result = subprocess.run(
        [sys.executable, "-c", _SPREADS_CHILD],
        env=env,
        cwd=root,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == repr(wc_spreads())
