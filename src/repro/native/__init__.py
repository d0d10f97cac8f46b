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

Every kernel is a loop over independent samples, and each sample's
coins, tree and reach count are a pure function of that sample, so a
wrapper may split its sample range into contiguous parts and run them
on short-lived threads (``ctypes`` releases the GIL for the C call):
the caller thread runs part 0, the helpers are joined before the
wrapper returns, and the results are byte-identical at every width.
The width is the number of CPUs this process may run on, and a part is
only split off when it carries about a millisecond of kernel work.
Every output buffer is allocated on the caller thread (helpers only
run the C call), no thread outlives a call, and process-pool workers
pin the width to 1 (:func:`pin_fanout_width`).

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
import threading
from functools import partial
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from ..obs import global_registry

__all__ = [
    "coin_parts",
    "fanout_width",
    "native_build_available",
    "native_build_trees",
    "native_cache_dir",
    "native_coin_rows",
    "native_reach_counts",
    "pin_fanout_width",
]


def _count(name: str, help_text: str) -> None:
    """Bump a loader counter in the shared metrics registry — how the
    ops surface answers "did this process compile the kernel, reuse a
    cached object, or fall back to Python?" without log spelunking."""
    global_registry().counter(name, help_text).inc()


# the least work worth a thread: each constant is about 1 ms of kernel
# time per part (thread start and join cost ~0.1 ms), so small calls —
# rebases touching a few samples, theta=1000 spread queries — stay on
# the caller thread
_PART_TREES = 256
_PART_ROUNDS = 512
_PART_COIN_CELLS = 1 << 22

# process-pool workers pin the width to 1 (pin_fanout_width), so
# workers=N keeps N cores busy, not N x cores
_pinned_width: int | None = None


def pin_fanout_width(width: int) -> None:
    """Cap the kernel fan-out of this process at ``width`` threads.
    Called by process-pool worker initialisers, whose siblings already
    occupy the other cores."""
    global _pinned_width
    if width < 1:
        raise ValueError("fan-out width must be >= 1")
    _pinned_width = width


def fanout_width() -> int:
    """Threads a kernel call may use: the CPUs this process may run
    on, or 1 in a process-pool worker."""
    if _pinned_width is not None:
        return _pinned_width
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        return max(1, os.cpu_count() or 1)


def _part_bounds(count: int, per_part: int) -> list[int]:
    """Bounds of the contiguous near-even parts ``range(count)`` splits
    into: at most :func:`fanout_width` parts, each at least
    ``per_part`` long (one part when ``count`` is smaller)."""
    parts = max(1, min(fanout_width(), count // max(per_part, 1)))
    base, extra = divmod(count, parts)
    bounds = [0]
    for k in range(parts):
        bounds.append(bounds[-1] + base + (1 if k < extra else 0))
    return bounds


def coin_parts(rows: int, m: int) -> list[int]:
    """Row counts of the parts a draw of ``rows`` samples over ``m``
    edges fans out into — what a caller of :func:`native_coin_rows`
    sizes its per-part output regions by."""
    bounds = _part_bounds(rows, -(-_PART_COIN_CELLS // max(m, 1)))
    return [hi - lo for lo, hi in zip(bounds, bounds[1:])]


def _fan_out(calls: Sequence[Callable[[], object]]) -> list:
    """Run every call, ``calls[0]`` on the caller thread and the rest
    on short-lived helper threads joined before returning; the results
    in call order.  The first helper exception is re-raised here."""
    results: list = [None] * len(calls)
    errors: list[BaseException] = []

    def run(k: int) -> None:
        try:
            results[k] = calls[k]()
        except BaseException as exc:  # handed to the caller thread
            errors.append(exc)

    helpers = []
    try:
        for k in range(1, len(calls)):
            helper = threading.Thread(
                target=run, args=(k,), name=f"repro-native-{k}"
            )
            helper.start()
            helpers.append(helper)
        results[0] = calls[0]()
    finally:
        for helper in helpers:
            helper.join()
    registry = global_registry()
    registry.gauge(
        "repro_native_fanout_width",
        "Threads the last native kernel call could fan out to "
        "(CPU affinity; 1 in process-pool workers)",
    ).set(fanout_width())
    if helpers:
        registry.counter(
            "repro_native_fanout_parts_total",
            "Native kernel parts run off the caller thread",
        ).inc(len(helpers))
    if errors:
        raise errors[0]
    return results


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
    indptr = np.ascontiguousarray(indptr, dtype=np.int64)
    edge_dst = np.ascontiguousarray(edge_dst, dtype=np.int64)
    positions = np.ascontiguousarray(positions, dtype=np.int64)
    seeds = np.ascontiguousarray(seeds, dtype=np.int64)
    blocked_mask = np.ascontiguousarray(blocked_mask, dtype=np.uint8)
    batch = sample_idx.shape[0]
    lengths = np.empty(max(batch, 1), dtype=np.int64)
    # every non-root reachable vertex is a seed or has a surviving
    # in-edge, so a part's payload is bounded by its edges + roots +
    # seeds.  Each part gets its own output buffer pair, written from
    # its start, so the pages touched are the payload's as in a serial
    # build (a region at an offset into one shared buffer would touch
    # pages a serial build never does)
    window = np.zeros(batch + 1, dtype=np.int64)
    np.cumsum(offsets[sample_idx + 1] - offsets[sample_idx], out=window[1:])
    bounds = _part_bounds(batch, _PART_TREES)
    parts = list(zip(bounds, bounds[1:]))
    orders, sizes = [], []
    for lo, hi in parts:
        cap = int(window[hi] - window[lo]) + (hi - lo) * (1 + seeds.size) + 1
        orders.append(np.empty(cap, dtype=np.int64))
        sizes.append(np.empty(cap, dtype=np.int64))
    totals = _fan_out(
        [
            partial(
                lib.repro_build_trees, n, indptr, edge_dst, positions,
                offsets, sample_idx[lo:], hi - lo, seeds, int(seeds.size),
                blocked_mask, order, size, lengths[lo:],
            )
            for (lo, hi), order, size in zip(parts, orders, sizes)
        ]
    )
    if min(totals) < 0:  # pragma: no cover - scratch malloc failure
        raise MemoryError("native tree-build kernel out of memory")
    # copy, don't slice: a slice would pin the whole cap-sized output
    # buffer (sized by surviving *edges*, typically ~10x the payload)
    # for as long as a consumer — e.g. an arena view — holds it, and
    # byte gauges built on .nbytes would wildly under-count residency
    return (
        lengths[:batch].copy(),
        np.concatenate([a[:t] for a, t in zip(orders, totals)]),
        np.concatenate([a[:t] for a, t in zip(sizes, totals)]),
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
    regions: Sequence[tuple[int, int]] | None = None,
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

    ``regions`` fans the draw out over threads: ``(rows, size)`` per
    part (see :func:`coin_parts`), part ``k`` drawing the next
    ``rows`` samples into its own next ``size`` slots of ``out``.
    The parts are then moved together, so ``out`` and ``row_ends``
    read exactly as a serial draw; when a part's region runs short,
    the rows completed before it are kept and counted, and the later
    parts' rows are dropped for the caller's serial resume.
    """
    m = int(keys.shape[0])
    if thr.shape != (m,) or sure.shape != (m,) or sure.dtype != np.bool_:
        raise ValueError("keys, thr and sure must be m-long; sure bool")
    if not (0 <= lo <= hi and row_ends.shape[0] >= hi - lo):
        raise ValueError(f"bad sample window [{lo}, {hi})")
    if not 0 <= at <= out.shape[0]:
        raise ValueError(f"write offset {at} outside the output buffer")
    if regions is None:
        regions = [(hi - lo, out.shape[0] - at)]
    if (
        sum(rows for rows, _ in regions) != hi - lo
        or any(rows < 0 or size < 0 for rows, size in regions)
        or at + sum(size for _, size in regions) > out.shape[0]
    ):
        raise ValueError("regions must split the rows and fit in out")
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
    sure_u8 = sure.view(np.uint8)
    parts = []  # (first row, rows, region start)
    row, start = lo, at
    for rows, size in regions:
        parts.append((row, rows, start))
        row, start = row + rows, start + size
    done = _fan_out(
        [
            partial(
                lib.repro_coin_rows, m, keys, thr, sure_u8, first,
                first + rows, out, begin, begin + size,
                row_ends[first - lo:],
            )
            for (first, rows, begin), (_, size) in zip(parts, regions)
        ]
    )
    # move each part down onto the end of the one before it; memmove
    # handles the overlap in place, where a numpy slice assignment
    # would copy through a temporary
    completed, end = 0, at
    for (first, rows, begin), got in zip(parts, done):
        if got:
            ends = row_ends[first - lo: first - lo + got]
            shift = begin - end
            if shift:
                ctypes.memmove(
                    out.ctypes.data + end * out.itemsize,
                    out.ctypes.data + begin * out.itemsize,
                    (int(ends[-1]) - begin) * out.itemsize,
                )
                ends -= shift
            end = int(ends[-1])
        completed += got
        if got < rows:
            break
    return completed


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
    indptr = np.ascontiguousarray(indptr, dtype=np.int64)
    edge_dst = np.ascontiguousarray(edge_dst, dtype=np.int64)
    positions = np.ascontiguousarray(positions, dtype=np.int64)
    offsets = np.ascontiguousarray(offsets, dtype=np.int64)
    mask = np.ascontiguousarray(blocked_mask).view(np.uint8)
    bounds = _part_bounds(rounds, _PART_ROUNDS)
    status = _fan_out(
        [
            partial(
                lib.repro_reach_counts, n, indptr, edge_dst, positions,
                offsets[lo:], hi - lo, seeds, int(seeds.shape[0]), mask,
                counts[lo:],
            )
            for lo, hi in zip(bounds, bounds[1:])
        ]
    )
    if min(status) < 0:  # pragma: no cover - scratch malloc failure
        raise MemoryError("native reach kernel out of memory")
    return counts[:rounds]
