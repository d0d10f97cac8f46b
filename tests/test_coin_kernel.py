"""The fused coin kernel draws exactly the numpy fallback's pools.

Sample-pool generation runs through the compiled coin kernel
(:func:`repro.native.native_coin_rows`) when the host can build it and
through the numpy twin (``_coin_rows_numpy``) otherwise.  Coins are a
pure function of ``(root, edge, p, sample)``, so both paths — and
every growth history, attach, delta and buffer-resume in between —
must materialise byte-identical ``offsets``/``positions``.
"""

from __future__ import annotations

import hashlib
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
from repro.engine import SamplePool
from repro.engine import pool as pool_mod
from repro.graph import CSRGraph, DiGraph, GraphDelta
from repro.native import native_build_available, native_coin_rows

needs_kernel = pytest.mark.skipif(
    not native_build_available(), reason="no compiler on this host"
)

# the probability grid the kernel must agree on: never, practically
# never, a fair coin, and the unconditional ``sure`` branch
EDGE_PROBS = (0.0, 1e-9, 0.5, 1.0)


def numpy_only():
    """Route pool generation through the numpy fallback."""
    return mock.patch.object(
        pool_mod, "native_coin_rows", lambda *args: None
    )


def arrays(pool: SamplePool, theta: int) -> tuple[np.ndarray, np.ndarray]:
    batch = pool.get(theta)
    return np.asarray(batch.offsets), np.asarray(batch.positions)


def assert_same(left, right) -> None:
    assert np.array_equal(left[0], right[0])
    assert np.array_equal(left[1], right[1])


def graph_from(n: int, edges) -> CSRGraph:
    graph = DiGraph(n)
    for u, v, p in edges:
        graph.add_edge(u, v, p)
    return CSRGraph(graph)


@st.composite
def coin_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    pairs = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            max_size=30,
            unique=True,
        )
    )
    edges = [
        (u, v, draw(st.sampled_from(EDGE_PROBS)))
        for u, v in pairs
        if u != v
    ]
    return graph_from(n, edges)


@needs_kernel
@settings(max_examples=60, deadline=None)
@given(
    csr=coin_graphs(),
    theta=st.integers(min_value=1, max_value=90),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_kernel_matches_numpy_fallback(csr, theta, seed):
    native = arrays(SamplePool(csr, rng=seed), theta)
    with numpy_only():
        fallback = arrays(SamplePool(csr, rng=seed), theta)
    assert_same(native, fallback)


@pytest.mark.parametrize("path", ["kernel", "numpy"])
def test_edgeless_graph(path):
    csr = CSRGraph(DiGraph(5))
    if path == "kernel" and not native_build_available():
        pytest.skip("no compiler on this host")
    with numpy_only() if path == "numpy" else nullcontext():
        offsets, positions = arrays(SamplePool(csr, rng=3), 7)
    assert offsets.tolist() == [0] * 8
    assert positions.shape == (0,)


@needs_kernel
def test_rows_with_zero_survivors():
    # one fair coin among never-surviving edges: about half the rows
    # are empty, and the empty rows must line up in both paths
    csr = graph_from(
        4, [(0, 1, 0.0), (1, 2, 0.5), (2, 3, 0.0), (3, 0, 1e-9)]
    )
    native = arrays(SamplePool(csr, rng=11), 64)
    with numpy_only():
        fallback = arrays(SamplePool(csr, rng=11), 64)
    assert_same(native, fallback)
    assert (np.diff(native[0]) == 0).any()
    assert set(native[1].tolist()) == {1}


def dense_graph(seed: int = 0) -> CSRGraph:
    gen = np.random.default_rng(seed)
    edges = [
        (u, v, float(gen.choice([0.0, 1e-9, 0.05, 0.5, 1.0])))
        for u in range(12)
        for v in range(12)
        if u != v and gen.random() < 0.5
    ]
    return graph_from(12, edges)


@pytest.mark.parametrize("native", [True, False])
def test_uneven_growth_matches_one_shot(native):
    if native and not native_build_available():
        pytest.skip("no compiler on this host")
    csr = dense_graph()
    with nullcontext() if native else numpy_only():
        grown = SamplePool(csr, rng=9)
        total = 0
        for step in (1, 7, 331, 2, 59):
            total += step
            grown.get(total)
        one_shot = SamplePool(csr, rng=9)
        assert_same(arrays(grown, total), arrays(one_shot, total))
    assert grown.stats.generated == total


def test_growth_of_attached_pool_matches_cold(tmp_path):
    csr = dense_graph(1)
    SamplePool(csr, rng=4, cache_dir=tmp_path).get(40)
    attached = SamplePool(csr, rng=4, cache_dir=tmp_path)
    assert attached.stats.disk_loads == 1
    assert isinstance(attached._positions, np.memmap)
    grown = arrays(attached, 173)
    assert_same(grown, arrays(SamplePool(csr, rng=4), 173))
    # the attached prefix was copied into the fresh buffer, which
    # holds exactly the materialised entries
    assert not isinstance(attached._positions, np.memmap)
    assert attached._positions.flags.owndata
    assert attached.nbytes == 8 * (174 + int(grown[0][-1]))


def test_growth_after_delta_matches_cold():
    csr = dense_graph(2)
    pool = SamplePool(csr, rng=6)
    pool.get(50)
    present = set(zip(csr.src.tolist(), csr.indices.tolist()))
    missing = next(
        (u, v)
        for u in range(csr.n)
        for v in range(csr.n)
        if u != v and (u, v) not in present
    )
    pool.apply_delta(
        GraphDelta(
            inserts=[(*missing, 0.5)],
            deletes=[(int(csr.src[0]), int(csr.indices[0]))],
            reweights=[(int(csr.src[3]), int(csr.indices[3]), 0.25)],
        )
    )
    mutated = pool.csr
    assert_same(arrays(pool, 211), arrays(SamplePool(mutated, rng=6), 211))


@pytest.mark.parametrize("native", [True, False])
def test_resume_after_short_buffer(monkeypatch, native):
    if native and not native_build_available():
        pytest.skip("no compiler on this host")
    csr = dense_graph(3)
    reference = arrays(SamplePool(csr, rng=8), 120)
    # no slack: the first buffer holds a single row, so generation
    # resumes after every doubling
    monkeypatch.setattr(pool_mod, "_SLACK_SIGMAS", -1e9)
    calls = []
    real = pool_mod.native_coin_rows if native else (lambda *args: None)

    def counting(*args):
        calls.append(args[3])
        return real(*args)

    monkeypatch.setattr(pool_mod, "native_coin_rows", counting)
    pool = SamplePool(csr, rng=8)
    pool.get(30)
    assert_same(arrays(pool, 120), reference)
    assert len(calls) > 2  # resumed mid-draw
    assert pool._positions.flags.owndata
    assert pool._positions.shape[0] == int(pool._offsets[-1])


@needs_kernel
def test_kernel_stops_at_row_boundary():
    keys = np.arange(1, 9, dtype=np.uint64)
    thr = np.zeros(8, dtype=np.uint64)
    sure = np.ones(8, dtype=bool)  # every edge survives
    out = np.full(20, -1, dtype=np.int64)
    ends = np.zeros(5, dtype=np.int64)
    rows = native_coin_rows(keys, thr, sure, 0, 5, out, 3, ends)
    # rows start only while 8 slots remain below the capacity of 20
    assert rows == 2
    assert ends[:2].tolist() == [11, 19]
    assert out[3:19].tolist() == list(range(8)) * 2
    assert out[19] == -1


@pytest.mark.parametrize("bad", [-0.25, float("nan"), 1.5])
@pytest.mark.parametrize("native", [True, False])
def test_invalid_probability_rejected(bad, native):
    csr = CSRGraph.from_arrays(
        np.array([0, 2, 3], dtype=np.int64),
        np.array([1, 0, 0], dtype=np.int64),
        np.array([0.5, bad, 0.5]),
    )
    with nullcontext() if native else numpy_only():
        pool = SamplePool(csr, rng=1)
        with pytest.raises(ValueError, match="edge position 1 "):
            pool.get(8)
    assert pool.theta == 0


def wc_graph() -> CSRGraph:
    return CSRGraph(
        prepare_graph(load_dataset("email-core", scale=0.1), "wc", rng=0)
    )


def pool_digest(batch) -> str:
    sha = hashlib.sha256(np.ascontiguousarray(batch.offsets).tobytes())
    sha.update(np.ascontiguousarray(batch.positions).tobytes())
    return sha.hexdigest()


_DIGEST_CHILD = """
from repro.bench import prepare_graph
from repro.datasets import load_dataset
from repro.engine import SamplePool
from repro.native import native_build_available
from tests.test_coin_kernel import pool_digest, wc_graph
assert not native_build_available()
print(pool_digest(SamplePool(wc_graph(), rng=21).get(150)))
"""


@needs_kernel
def test_disabled_process_draws_identical_pool():
    # a fresh interpreter with REPRO_NATIVE=0 draws through numpy only
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, REPRO_NATIVE="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(root), env.get("PYTHONPATH", "")]
    )
    result = subprocess.run(
        [sys.executable, "-c", _DIGEST_CHILD],
        env=env,
        cwd=root,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    native = pool_digest(SamplePool(wc_graph(), rng=21).get(150))
    assert result.stdout.strip() == native
