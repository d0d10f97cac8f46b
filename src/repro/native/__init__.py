"""repro.native — optional compiled kernels, loaded via ``ctypes``.

Three hot loops resist numpy vectorisation.  The sketch estimator's
irreducible per-sample cost is the Lengauer–Tarjan walk (every step is
data-dependent), the pooled evaluator's is a BFS per sample (one
frontier level at a time in numpy), and sample-pool generation hashes
``theta * m`` coins whose survivors must be compacted into the pool's
flat positions array.  This package ships all three as plain C — the
batched tree-build and reach-count kernels (``lt_kernel.c``) and the
fused hash → threshold → compaction coin kernel (``coin_kernel.c``) —
compiled together **on demand** into
one shared object with whatever ``cc``/``gcc`` the host already has
and loaded through the standard library's ``ctypes``: no build-time
dependency, no compiled artifact in the repository, and a clean
fallback.  When no compiler is available (or ``REPRO_NATIVE=0`` is
set) every caller uses its numpy/Python path and produces
bit-identical results, just slower.

Compiled objects are cached under a per-user temp directory keyed by a
hash of every C source, so a source change triggers exactly one
recompile and concurrent processes race benignly (atomic rename).

Consumers: :meth:`repro.engine.treebuild.TreeBuilder.build_packed`
(tree builds), :meth:`repro.engine.PooledEvaluator.expected_spread_many`
(reach counts) and :class:`repro.engine.pool.SamplePool` generation
(coins).  Anything else wanting a native kernel should follow the same
pattern: ship C next to this file, list it in ``_SOURCES``, bind it in
``_load``, and keep the Python path as the semantic reference.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import stat
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from ..obs import global_registry

__all__ = [
    "native_build_available",
    "native_build_trees",
    "native_cache_dir",
    "native_coin_rows",
    "native_reach_counts",
]


def _count(name: str, help_text: str) -> None:
    """Bump a loader counter in the shared metrics registry — how the
    ops surface answers "did this process compile the kernel, reuse a
    cached object, or fall back to Python?" without log spelunking."""
    global_registry().counter(name, help_text).inc()

_SOURCES = tuple(
    Path(__file__).with_name(name)
    for name in ("lt_kernel.c", "coin_kernel.c")
)

# resolved lazily, exactly once per process: None = not yet attempted,
# False = unavailable (no compiler / disabled / compile failed)
_lib: "ctypes.CDLL | bool | None" = None


def _disabled() -> bool:
    return os.environ.get("REPRO_NATIVE", "1") in ("0", "false", "no")


def native_cache_dir() -> Path:
    """Directory holding compiled kernel objects (override with
    ``REPRO_NATIVE_CACHE``)."""
    override = os.environ.get("REPRO_NATIVE_CACHE")
    if override:
        return Path(override)
    if hasattr(os, "getuid"):
        tag = f"repro-native-{os.getuid()}"
    else:  # pragma: no cover - non-POSIX hosts
        tag = "repro-native"
    return Path(tempfile.gettempdir()) / tag


def _compiler() -> str | None:
    for name in ("cc", "gcc", "clang"):
        found = shutil.which(name)
        if found:
            return found
    return None


def _cache_dir_trusted(cache: Path) -> bool:
    """Refuse to trust (or load from) a cache dir another user could
    have planted: the default lives under the world-writable temp
    root, so a predictable path + digest would otherwise let a local
    attacker pre-seed a malicious ``.so`` for us to ``dlopen``."""
    try:
        st = os.lstat(cache)
    except OSError:
        return False
    if not stat.S_ISDIR(st.st_mode):
        return False
    if hasattr(os, "getuid"):
        if st.st_uid != os.getuid():
            return False
        if st.st_mode & 0o022:  # group/other writable
            return False
    return True


def _compile() -> Path | None:
    """Compile (or reuse) the kernel shared object; None on failure."""
    if not all(path.is_file() for path in _SOURCES):
        return None
    sha = hashlib.sha256()
    for path in _SOURCES:
        sha.update(path.name.encode() + b"\0" + path.read_bytes())
    digest = sha.hexdigest()[:16]
    cache = native_cache_dir()
    try:
        cache.mkdir(parents=True, exist_ok=True, mode=0o700)
    except OSError:
        return None
    if not _cache_dir_trusted(cache):
        return None
    so_path = cache / f"repro_native-{digest}-py{sys.version_info[0]}.so"
    if so_path.is_file():
        _count(
            "repro_native_compile_cache_hits_total",
            "Kernel loads served by an already-compiled shared object",
        )
        return so_path
    compiler = _compiler()
    if compiler is None:
        return None
    try:
        tmp = so_path.with_name(f".{so_path.name}.{os.getpid()}.tmp")
        subprocess.run(
            [compiler, "-O3", "-shared", "-fPIC",
             *map(str, _SOURCES), "-o", str(tmp)],
            check=True,
            capture_output=True,
            timeout=120,
        )
        tmp.replace(so_path)  # atomic: concurrent compiles race benignly
        _count(
            "repro_native_compiles_total",
            "On-demand compiles of the native kernels",
        )
        return so_path
    except (OSError, subprocess.SubprocessError):
        _count(
            "repro_native_compile_failures_total",
            "Kernel compile attempts that failed (callers fall back)",
        )
        return None


_I64P = np.ctypeslib.ndpointer(dtype=np.int64, flags="C_CONTIGUOUS")
_U8P = np.ctypeslib.ndpointer(dtype=np.uint8, flags="C_CONTIGUOUS")
_U64P = np.ctypeslib.ndpointer(dtype=np.uint64, flags="C_CONTIGUOUS")


def _load() -> "ctypes.CDLL | bool":
    global _lib
    if _lib is None:
        _lib = False
        if not _disabled():
            so_path = _compile()
            if so_path is not None:
                try:
                    lib = ctypes.CDLL(str(so_path))
                    lib.repro_build_trees.restype = ctypes.c_int64
                    lib.repro_build_trees.argtypes = [
                        ctypes.c_int64,  # n
                        _I64P,  # indptr
                        _I64P,  # edge_dst
                        _I64P,  # positions
                        _I64P,  # offsets
                        _I64P,  # sample_idx
                        ctypes.c_int64,  # batch
                        _I64P,  # seeds
                        ctypes.c_int64,  # num_seeds
                        _U8P,  # blocked
                        _I64P,  # out_order
                        _I64P,  # out_sizes
                        _I64P,  # out_lengths
                    ]
                    lib.repro_reach_counts.restype = ctypes.c_int64
                    lib.repro_reach_counts.argtypes = [
                        ctypes.c_int64,  # n
                        _I64P,  # indptr
                        _I64P,  # edge_dst
                        _I64P,  # positions
                        _I64P,  # offsets
                        ctypes.c_int64,  # rounds
                        _I64P,  # seeds
                        ctypes.c_int64,  # num_seeds
                        _U8P,  # blocked
                        _I64P,  # out_counts
                    ]
                    lib.repro_coin_rows.restype = ctypes.c_int64
                    lib.repro_coin_rows.argtypes = [
                        ctypes.c_int64,  # m
                        _U64P,  # keys
                        _U64P,  # thr
                        _U8P,  # sure
                        ctypes.c_int64,  # lo
                        ctypes.c_int64,  # hi
                        _I64P,  # out
                        ctypes.c_int64,  # at
                        ctypes.c_int64,  # cap
                        _I64P,  # row_ends
                    ]
                    _lib = lib
                except OSError:
                    _lib = False
    return _lib


def native_build_available() -> bool:
    """True when the compiled kernels (tree build, reach counts and
    coins) are loadable here."""
    return _load() is not False


def native_build_trees(
    n: int,
    indptr: np.ndarray,
    edge_dst: np.ndarray,
    positions: np.ndarray,
    offsets: np.ndarray,
    sample_idx: np.ndarray,
    seeds: np.ndarray,
    blocked_mask: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Batched ``(lengths, orders, sizes)`` dominator payloads, or
    ``None`` when the kernel is unavailable (callers fall back to the
    Python path — results are bit-identical either way).

    ``offsets``/``positions`` are the pool's flat sample arrays (no
    packing or copying: the kernel indexes the requested
    ``sample_idx`` windows directly); ``indptr`` is the base graph's
    CSR row-pointer array and ``blocked_mask`` a ``uint8[n]`` mask.
    Output arrays are trimmed to the written payload.
    """
    lib = _load()
    if lib is False:
        _count(
            "repro_native_fallbacks_total",
            "Batched tree builds answered by the pure-Python path "
            "(tree-build kernel only)",
        )
        return None
    _count(
        "repro_native_calls_total",
        "Batched tree builds answered by the compiled kernel "
        "(tree-build kernel only; coins count separately)",
    )
    offsets = np.ascontiguousarray(offsets, dtype=np.int64)
    sample_idx = np.ascontiguousarray(sample_idx, dtype=np.int64)
    batch = sample_idx.shape[0]
    lengths = np.empty(max(batch, 1), dtype=np.int64)
    # every non-root reachable vertex is a seed or has a surviving
    # in-edge, so the payload is bounded by edges + roots + seeds
    window = int((offsets[sample_idx + 1] - offsets[sample_idx]).sum())
    cap = window + batch * (1 + int(seeds.shape[0])) + 1
    out_order = np.empty(cap, dtype=np.int64)
    out_sizes = np.empty(cap, dtype=np.int64)
    total = lib.repro_build_trees(
        n,
        np.ascontiguousarray(indptr, dtype=np.int64),
        np.ascontiguousarray(edge_dst, dtype=np.int64),
        np.ascontiguousarray(positions, dtype=np.int64),
        offsets,
        sample_idx,
        batch,
        np.ascontiguousarray(seeds, dtype=np.int64),
        int(seeds.shape[0]),
        np.ascontiguousarray(blocked_mask, dtype=np.uint8),
        out_order,
        out_sizes,
        lengths,
    )
    if total < 0:  # pragma: no cover - scratch malloc failure
        raise MemoryError("native tree-build kernel out of memory")
    # copy, don't slice: a slice would pin the whole cap-sized output
    # buffer (sized by surviving *edges*, typically ~10x the payload)
    # for as long as a consumer — e.g. an arena view — holds it, and
    # byte gauges built on .nbytes would wildly under-count residency
    return (
        lengths[:batch].copy(),
        out_order[:total].copy(),
        out_sizes[:total].copy(),
    )


def native_coin_rows(
    keys: np.ndarray,
    thr: np.ndarray,
    sure: np.ndarray,
    lo: int,
    hi: int,
    out: np.ndarray,
    at: int,
    row_ends: np.ndarray,
) -> int | None:
    """Draw pool samples ``lo .. hi-1`` into ``out[at:]``; the number
    of rows completed, or ``None`` when the kernel is unavailable
    (callers fall back to the numpy path — coins are bit-identical
    either way).

    ``keys``/``thr`` are the per-edge ``uint64`` stream keys and
    survival thresholds and ``sure`` the ``bool`` always-survives mask
    (see :mod:`repro.engine.pool`).  ``row_ends[r]`` receives the end
    index in ``out`` of row ``lo + r``.  A row starts only while ``m``
    slots remain in ``out``, so the kernel stops early at a row
    boundary when the caller's buffer runs short; the caller grows
    ``out`` and resumes at ``lo + rows``.
    """
    m = int(keys.shape[0])
    if thr.shape != (m,) or sure.shape != (m,) or sure.dtype != np.bool_:
        raise ValueError("keys, thr and sure must be m-long; sure bool")
    if not (0 <= lo <= hi and row_ends.shape[0] >= hi - lo):
        raise ValueError(f"bad sample window [{lo}, {hi})")
    if not 0 <= at <= out.shape[0]:
        raise ValueError(f"write offset {at} outside the output buffer")
    lib = _load()
    if lib is False:
        _count(
            "repro_native_coin_fallbacks_total",
            "Sample-pool coin draws answered by the numpy path",
        )
        return None
    _count(
        "repro_native_coin_calls_total",
        "Sample-pool coin draws answered by the compiled coin kernel",
    )
    return int(
        lib.repro_coin_rows(
            m,
            keys,
            thr,
            sure.view(np.uint8),
            lo,
            hi,
            out,
            at,
            int(out.shape[0]),
            row_ends,
        )
    )


def native_reach_counts(
    indptr: np.ndarray,
    edge_dst: np.ndarray,
    positions: np.ndarray,
    offsets: np.ndarray,
    rounds: int,
    seeds: np.ndarray,
    blocked_mask: np.ndarray,
) -> np.ndarray | None:
    """``int64[rounds]`` reach counts of ``seeds`` in pool samples
    ``0 .. rounds-1``, or ``None`` when the kernel is unavailable
    (callers fall back to the numpy traversal — counts are identical
    either way).

    ``indptr``/``edge_dst`` are the base graph's CSR arrays and
    ``offsets``/``positions`` the pool's flat sample arrays, read in
    place (an mmap-attached pool is never copied).  ``blocked_mask``
    is a ``bool[n]`` mask; every seed must be a vertex id in
    ``[0, n)`` that is not blocked.
    """
    n = int(indptr.shape[0]) - 1
    if n < 0 or edge_dst.shape != (int(indptr[-1]),):
        raise ValueError("indptr and edge_dst must form an n-vertex CSR")
    if blocked_mask.shape != (n,) or blocked_mask.dtype != np.bool_:
        raise ValueError(f"blocked_mask must be bool[{n}]")
    if not 0 <= rounds < offsets.shape[0]:
        raise ValueError(f"rounds {rounds} exceeds the pooled samples")
    if positions.shape[0] < int(offsets[rounds]):
        raise ValueError("positions shorter than the sample offsets")
    seeds = np.ascontiguousarray(seeds, dtype=np.int64)
    if seeds.size and not (
        0 <= int(seeds.min()) and int(seeds.max()) < n
    ):
        raise ValueError(f"seed ids must lie in [0, {n})")
    if blocked_mask[seeds].any():
        raise ValueError("a seed cannot be blocked")
    lib = _load()
    if lib is False:
        _count(
            "repro_native_reach_fallbacks_total",
            "Pooled reach traversals answered by the numpy path",
        )
        return None
    _count(
        "repro_native_reach_calls_total",
        "Pooled reach traversals answered by the compiled reach kernel",
    )
    counts = np.empty(max(rounds, 1), dtype=np.int64)
    status = lib.repro_reach_counts(
        n,
        np.ascontiguousarray(indptr, dtype=np.int64),
        np.ascontiguousarray(edge_dst, dtype=np.int64),
        np.ascontiguousarray(positions, dtype=np.int64),
        np.ascontiguousarray(offsets, dtype=np.int64),
        rounds,
        seeds,
        int(seeds.shape[0]),
        np.ascontiguousarray(blocked_mask).view(np.uint8),
        counts,
    )
    if status < 0:  # pragma: no cover - scratch malloc failure
        raise MemoryError("native reach kernel out of memory")
    return counts[:rounds]
