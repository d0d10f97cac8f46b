"""Native-kernel loader (repro.native): gating, caching, fallback."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import native
from repro.native import native_build_available, native_cache_dir


def test_cache_dir_override(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "kern"))
    assert native_cache_dir() == tmp_path / "kern"


def test_cache_dir_default_is_per_user():
    assert "repro-native" in native_cache_dir().name


def test_disabled_env_gate(monkeypatch):
    monkeypatch.setenv("REPRO_NATIVE", "0")
    assert native._disabled()
    monkeypatch.setenv("REPRO_NATIVE", "1")
    assert not native._disabled()


def test_disabled_process_falls_back():
    # a fresh interpreter with REPRO_NATIVE=0 must report the kernel
    # unavailable and still build trees through the Python path
    code = (
        "from repro.native import native_build_available, "
        "native_build_trees\n"
        "import numpy as np\n"
        "assert not native_build_available()\n"
        "assert native_build_trees(0, *([np.zeros(0, dtype=np.int64)] "
        "* 6), np.zeros(0, dtype=np.uint8)) is None\n"
        "print('fallback-ok')\n"
    )
    env = dict(os.environ, REPRO_NATIVE="0")
    src = Path(__file__).resolve().parent.parent / "src"
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert "fallback-ok" in result.stdout


def test_compiled_object_is_cached():
    if not native_build_available():
        pytest.skip("no compiler on this host")
    cached = list(native_cache_dir().glob("repro_native-*.so"))
    assert cached, "expected a cached shared object after loading"


def test_kernel_empty_batch():
    if not native_build_available():
        pytest.skip("no compiler on this host")
    empty = np.zeros(0, dtype=np.int64)
    lengths, orders, sizes = native.native_build_trees(
        3,
        np.zeros(4, dtype=np.int64),
        empty,
        empty,
        np.zeros(1, dtype=np.int64),
        empty,
        empty,
        np.zeros(3, dtype=np.uint8),
    )
    assert lengths.shape[0] == 0
    assert orders.shape[0] == 0 and sizes.shape[0] == 0


def _coin_args(m: int = 4, rows: int = 3):
    keys = np.arange(1, m + 1, dtype=np.uint64)
    thr = np.full(m, 2**63, dtype=np.uint64)
    sure = np.zeros(m, dtype=bool)
    out = np.empty(rows * m, dtype=np.int64)
    return keys, thr, sure, 0, rows, out, 0, np.empty(rows, dtype=np.int64)


def _counter(name: str) -> float:
    from repro.obs import global_registry

    return global_registry().counter(name, "").value


def test_coin_kernel_counters(monkeypatch):
    if not native_build_available():
        pytest.skip("no compiler on this host")
    calls = _counter("repro_native_coin_calls_total")
    tree_calls = _counter("repro_native_calls_total")
    assert native.native_coin_rows(*_coin_args()) == 3
    assert _counter("repro_native_coin_calls_total") == calls + 1
    # the tree-build counter stays tree-build-only
    assert _counter("repro_native_calls_total") == tree_calls

    fallbacks = _counter("repro_native_coin_fallbacks_total")
    monkeypatch.setattr(native, "_lib", False)
    assert native.native_coin_rows(*_coin_args()) is None
    assert _counter("repro_native_coin_fallbacks_total") == fallbacks + 1


@pytest.mark.parametrize(
    "field, value",
    [
        (1, np.zeros(3, dtype=np.uint64)),  # thr shorter than keys
        (2, np.zeros(4, dtype=np.uint8)),  # sure not bool
        (4, 5),  # hi beyond row_ends
        (6, 13),  # write offset past the buffer
    ],
)
def test_coin_kernel_rejects_bad_buffers(field, value):
    args = list(_coin_args())
    args[field] = value
    with pytest.raises(ValueError):
        native.native_coin_rows(*args)


def _reach_args():
    # 0 -> 1 -> 2 plus 2 -> 0; sample 0 keeps 0->1, sample 1 keeps both
    indptr = np.array([0, 1, 2, 3], dtype=np.int64)
    edge_dst = np.array([1, 2, 0], dtype=np.int64)
    offsets = np.array([0, 1, 3], dtype=np.int64)
    positions = np.array([0, 0, 1], dtype=np.int64)
    seeds = np.array([0], dtype=np.int64)
    return indptr, edge_dst, positions, offsets, 2, seeds, np.zeros(
        3, dtype=bool
    )


def test_reach_kernel_counts_and_counters(monkeypatch):
    if not native_build_available():
        pytest.skip("no compiler on this host")
    calls = _counter("repro_native_reach_calls_total")
    tree_calls = _counter("repro_native_calls_total")
    counts = native.native_reach_counts(*_reach_args())
    assert counts.tolist() == [2, 3]
    assert _counter("repro_native_reach_calls_total") == calls + 1
    # the tree-build counter stays tree-build-only
    assert _counter("repro_native_calls_total") == tree_calls

    args = list(_reach_args())
    args[6] = np.array([False, False, True])
    assert native.native_reach_counts(*args).tolist() == [2, 2]

    fallbacks = _counter("repro_native_reach_fallbacks_total")
    monkeypatch.setattr(native, "_lib", False)
    assert native.native_reach_counts(*_reach_args()) is None
    assert _counter("repro_native_reach_fallbacks_total") == fallbacks + 1


@pytest.mark.parametrize(
    "field, value",
    [
        (1, np.zeros(2, dtype=np.int64)),  # edge_dst shorter than m
        (2, np.zeros(2, dtype=np.int64)),  # positions shorter than offsets
        (4, 3),  # rounds beyond the pooled samples
        (5, np.array([3], dtype=np.int64)),  # seed out of range
        (5, np.array([-1], dtype=np.int64)),  # negative seed
        (6, np.zeros(3, dtype=np.uint8)),  # mask not bool
        (6, np.array([True, False, False])),  # the seed is blocked
    ],
)
def test_reach_kernel_rejects_bad_inputs(field, value):
    args = list(_reach_args())
    args[field] = value
    with pytest.raises(ValueError):
        native.native_reach_counts(*args)
