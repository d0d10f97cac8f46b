"""The native kernels' thread fan-out never changes an answer.

The coin, tree-build and reach wrappers in :mod:`repro.native` split
their sample range into contiguous parts and run them on short-lived
helper threads.  Every sample's coins, tree and reach count are a
pure function of that sample, so pools, tree payloads and reach counts
must be byte-identical at every width — including uneven splits, a
batch smaller than the width, a coin region that runs short and
resumes serially, and growth from an mmap-attached or delta-patched
pool.  No helper thread may outlive a call, and a helper's exception
must reach the caller.

The width is forced by monkeypatching :func:`repro.native.fanout_width`
and the per-part work floors are lowered so these small inputs split.
Without the compiled kernels (``REPRO_NATIVE=0``, no compiler) every
path is the serial fallback: the same identities hold and no thread is
ever started.
"""

from __future__ import annotations

import hashlib
import os
import threading

import numpy as np
import pytest

from repro import native
from repro.engine import pool as pool_mod
from repro.engine import SamplePool
from repro.engine.kernels import reach_counts_from_alive
from repro.engine import parallel
from repro.engine.parallel import _init_worker
from repro.engine.treebuild import TreeBuilder
from repro.graph import barabasi_albert, CSRGraph, GraphDelta
from repro.models import assign_weighted_cascade
from repro.obs import global_registry

WIDTHS = (1, 2, 3)
SEEDS = np.array([0, 7, 42], dtype=np.int64)
BLOCKED = [3, 11, 60]

needs_kernel = pytest.mark.skipif(
    not native.native_build_available(), reason="no compiler on this host"
)


@pytest.fixture(scope="module")
def csr():
    return CSRGraph(assign_weighted_cascade(barabasi_albert(300, 4, rng=3)))


@pytest.fixture
def width(monkeypatch):
    """Set the fan-out width; every part floor is one unit of work."""
    monkeypatch.setattr(native, "_PART_TREES", 1)
    monkeypatch.setattr(native, "_PART_ROUNDS", 1)
    monkeypatch.setattr(native, "_PART_COIN_CELLS", 1)

    def force(value: int) -> None:
        monkeypatch.setattr(native, "fanout_width", lambda: value)

    return force


def digest(*arrays) -> str:
    sha = hashlib.sha256()
    for array in arrays:
        sha.update(np.ascontiguousarray(array, dtype=np.int64).tobytes())
    return sha.hexdigest()


def pool_digest(pool: SamplePool, theta: int) -> str:
    batch = pool.get(theta)
    return digest(batch.offsets, batch.positions)


def counter(name: str) -> float:
    return global_registry().counter(name, "").value


def tree_digest(csr, batch, idx, blocked) -> str:
    lengths, orders, sizes = TreeBuilder(csr).build_packed(
        batch, idx, SEEDS, blocked
    )
    return digest(lengths, orders, sizes)


def reach_counts(csr, batch, rounds: int, blocked) -> np.ndarray:
    mask = np.zeros(csr.n, dtype=bool)
    mask[blocked] = True
    counts = native.native_reach_counts(
        csr.indptr, csr.indices, batch.positions, batch.offsets, rounds,
        SEEDS, mask,
    )
    if counts is None:
        counts = reach_counts_from_alive(
            csr, SEEDS.tolist(), batch.alive_matrix(0, rounds), blocked
        )
    return counts


def at_every_width(width, compute, splits: bool = True) -> None:
    """``compute()`` is byte-identical at widths 1, 2 and 3 and starts
    no lasting thread; it fans out at widths above 1 iff its work
    ``splits`` (more than one unit) and the kernel is loaded."""
    answers = []
    for value in WIDTHS:
        width(value)
        threads = threading.active_count()
        parts = counter("repro_native_fanout_parts_total")
        answers.append(compute())
        assert threading.active_count() == threads
        moved = counter("repro_native_fanout_parts_total") - parts
        fans_out = splits and value > 1
        assert (moved > 0) == (fans_out and native.native_build_available())
    assert answers[1:] == answers[:1] * (len(WIDTHS) - 1)


# ----------------------------------------------------------------------
# coins
# ----------------------------------------------------------------------
@pytest.mark.parametrize("theta", [1, 2, 97])
def test_pool_identical_at_every_width(csr, width, theta):
    # 97 rows split unevenly over 2 and 3 parts; 1 and 2 rows are
    # fewer than the widest fan-out
    at_every_width(
        width, lambda: pool_digest(SamplePool(csr, rng=5), theta),
        splits=theta > 1,
    )


def test_short_region_resumes_serially(csr, width, monkeypatch):
    width(1)
    reference = pool_digest(SamplePool(csr, rng=8), 90)
    # no slack: every region holds a single row, so part 0 comes up
    # short and the rest of the draw resumes on the serial path
    monkeypatch.setattr(pool_mod, "_SLACK_SIGMAS", -1e9)
    for value in WIDTHS:
        width(value)
        calls = counter("repro_native_coin_calls_total")
        pool = SamplePool(csr, rng=8)
        assert pool_digest(pool, 90) == reference
        assert pool._positions.flags.owndata
        assert pool._positions.shape[0] == int(pool._offsets[-1])
        if native.native_build_available():
            assert counter("repro_native_coin_calls_total") - calls > 1


def test_growth_of_attached_pool(csr, width, tmp_path):
    width(1)
    reference = pool_digest(SamplePool(csr, rng=4), 150)
    for value in WIDTHS:
        cache = tmp_path / str(value)
        width(1)
        SamplePool(csr, rng=4, cache_dir=cache).get(40)
        width(value)
        attached = SamplePool(csr, rng=4, cache_dir=cache)
        assert attached.stats.disk_loads == 1
        assert isinstance(attached._positions, np.memmap)
        assert pool_digest(attached, 150) == reference


def test_growth_after_delta(csr, width):
    src, dst = csr.src.tolist(), csr.indices.tolist()
    delta = GraphDelta(
        deletes=[(src[0], dst[0])],
        reweights=[(src[5], dst[5], 0.9)],
    )
    width(1)
    mutated = SamplePool(csr, rng=6)
    mutated.apply_delta(delta)
    reference = pool_digest(SamplePool(mutated.csr, rng=6), 120)

    def grow():
        pool = SamplePool(csr, rng=6)
        pool.get(30)
        pool.apply_delta(delta)
        return pool_digest(pool, 120)

    at_every_width(width, grow)
    assert grow() == reference


@needs_kernel
def test_coin_regions_keep_the_completed_prefix(csr):
    keys = pool_mod._edge_keys(7, csr.src, csr.indices)
    thr, sure = pool_mod._thresholds(csr.probs)
    m = csr.m
    serial = np.empty(10 * m, dtype=np.int64)
    serial_ends = np.empty(6, dtype=np.int64)
    assert native.native_coin_rows(
        keys, thr, sure, 0, 6, serial, 0, serial_ends
    ) == 6
    # part 0 has room for its 2 rows, part 1 only for its first row
    # (m slots), so the draw keeps rows 0..2 and drops part 2
    out = np.full(10 * m, -1, dtype=np.int64)
    ends = np.zeros(6, dtype=np.int64)
    regions = [(2, 3 * m), (2, m), (2, 3 * m)]
    rows = native.native_coin_rows(
        keys, thr, sure, 0, 6, out, 5, ends, regions
    )
    assert rows == 3
    assert np.array_equal(ends[:3], serial_ends[:3] + 5)
    assert np.array_equal(out[5: ends[2]], serial[: serial_ends[2]])


@needs_kernel
def test_coin_regions_must_fit(csr):
    keys = pool_mod._edge_keys(7, csr.src, csr.indices)
    thr, sure = pool_mod._thresholds(csr.probs)
    out = np.empty(4 * csr.m, dtype=np.int64)
    ends = np.empty(4, dtype=np.int64)
    for regions in (
        [(2, csr.m), (1, csr.m)],  # rows do not add up
        [(2, 3 * csr.m), (2, 2 * csr.m)],  # regions overrun out
        [(5, csr.m), (-1, csr.m)],  # negative rows
    ):
        with pytest.raises(ValueError, match="regions"):
            native.native_coin_rows(
                keys, thr, sure, 0, 4, out, 0, ends, regions
            )


# ----------------------------------------------------------------------
# trees and reach counts
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "idx",
    [
        list(range(64)),  # uneven over 3 parts
        [5, 5, 63, 2, 17, 40, 11],  # repeats, unsorted
        [9, 31],  # fewer samples than the widest fan-out
    ],
)
@pytest.mark.parametrize("blocked", [[], BLOCKED])
def test_tree_payloads_identical_at_every_width(csr, width, idx, blocked):
    batch = SamplePool(csr, rng=2).get(64)
    at_every_width(width, lambda: tree_digest(csr, batch, idx, blocked))


@pytest.mark.parametrize("rounds", [1, 2, 64])
@pytest.mark.parametrize("blocked", [[], BLOCKED])
def test_reach_counts_identical_at_every_width(csr, width, rounds, blocked):
    batch = SamplePool(csr, rng=2).get(64)
    at_every_width(
        width, lambda: digest(reach_counts(csr, batch, rounds, blocked)),
        splits=rounds > 1,
    )


def test_one_calls_count_per_wrapper_call(csr, width):
    if not native.native_build_available():
        pytest.skip("no compiler on this host")
    batch = SamplePool(csr, rng=2).get(64)
    width(3)
    trees = counter("repro_native_calls_total")
    reach = counter("repro_native_reach_calls_total")
    tree_digest(csr, batch, range(64), [])
    reach_counts(csr, batch, 64, [])
    assert counter("repro_native_calls_total") == trees + 1
    assert counter("repro_native_reach_calls_total") == reach + 1
    assert global_registry().gauge("repro_native_fanout_width", "").value == 3


# ----------------------------------------------------------------------
# the fan-out helper itself
# ----------------------------------------------------------------------
def test_helper_exception_reaches_the_caller():
    threads = threading.active_count()

    def boom():
        raise RuntimeError("helper part failed")

    with pytest.raises(RuntimeError, match="helper part failed"):
        native._fan_out([lambda: 1, boom, lambda: 3])
    assert threading.active_count() == threads
    assert native._fan_out([lambda: 1, lambda: 2]) == [1, 2]


@needs_kernel
def test_kernel_failure_on_a_helper_reaches_the_caller(
    csr, width, monkeypatch
):
    lib = native._load()

    class FailOffCaller:
        def __getattr__(self, name):
            fn = getattr(lib, name)

            def call(*args):
                if threading.current_thread() is not threading.main_thread():
                    raise MemoryError("kernel part failed")
                return fn(*args)

            return call

    batch = SamplePool(csr, rng=2).get(64)
    width(2)
    monkeypatch.setattr(native, "_lib", FailOffCaller())
    threads = threading.active_count()
    with pytest.raises(MemoryError, match="kernel part failed"):
        reach_counts(csr, batch, 64, [])
    with pytest.raises(MemoryError, match="kernel part failed"):
        tree_digest(csr, batch, range(64), [])
    assert threading.active_count() == threads


def test_width_follows_cpu_affinity():
    assert native.fanout_width() == len(os.sched_getaffinity(0))


def test_process_workers_pin_width_one(csr, monkeypatch):
    for name in ("_WORKER_CSR", "_WORKER_SAMPLE_PATHS", "_WORKER_SAMPLES"):
        monkeypatch.setattr(parallel, name, None)
    monkeypatch.setattr(native, "_pinned_width", None)
    _init_worker(csr.indptr, csr.indices, csr.probs)
    assert native.fanout_width() == 1
    assert native.coin_parts(10**6, csr.m) == [10**6]
