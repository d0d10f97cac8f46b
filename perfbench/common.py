"""Shared machinery of the benchmark: statistics, host probes, the
open-loop traffic generator, the server process, the trace ledger and
the answer checks.

Nothing here reaches into the program's internals: the layers are
timed from outside through their public calls, and the program's own
spans and counters are read through ``repro.obs`` in process or the
``stats``/``metrics`` ops of a running server.
"""

from __future__ import annotations

import math
import os
import re
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
"""Everything a run writes (compiled kernel, server logs, artifact
cache directories) lands under this gitignored directory."""


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def tail(values_ms) -> tuple[float, float, int] | None:
    """``(percentile, value, samples)`` for the highest percentile
    that still has at least ten samples beyond it (None below 11)."""
    ordered = sorted(values_ms)
    count = len(ordered)
    if count < 11:
        return None
    index = count - 11
    return round(100.0 * (index + 1) / count, 1), ordered[index], count


# ----------------------------------------------------------------------
# host probes
# ----------------------------------------------------------------------
_CALIB_DATA = np.random.default_rng(0).random(1 << 19)


def calib_ms() -> float:
    """Best of five runs of a fixed numpy kernel (sort + reduction):
    a drift probe for the host, taken at the start and end of a run."""
    best = math.inf
    for _ in range(5):
        start = time.perf_counter()
        ordered = np.sort(_CALIB_DATA)
        float((ordered * 1.0001).sum())
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def self_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of another process (Linux /proc)."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1]
    parts = fields.split()
    return (int(parts[11]) + int(parts[12])) / os.sysconf("SC_CLK_TCK")


def peak_rss_mb(pid: int | str = "self") -> float:
    """VmHWM (peak resident set) of a process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not reported by /proc")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


# ----------------------------------------------------------------------
# answer checks
# ----------------------------------------------------------------------
class Checks:
    """Answer checks of one run; every failure is kept and reported."""

    def __init__(self) -> None:
        self.failures: list[str] = []

    def expect(self, condition: bool, message: str) -> bool:
        if not condition:
            self.failures.append(message)
        return condition

    def blockers(
        self, what: str, blockers, sources, budget: int, n: int
    ) -> bool:
        blockers = list(blockers)
        sources = set(sources)
        return all((
            self.expect(
                len(set(blockers)) == len(blockers),
                f"{what}: duplicate blockers {blockers}",
            ),
            self.expect(
                not sources & set(blockers),
                f"{what}: blockers include sources",
            ),
            self.expect(
                len(blockers) <= budget,
                f"{what}: {len(blockers)} blockers over budget {budget}",
            ),
            self.expect(
                all(0 <= v < n for v in blockers),
                f"{what}: blocker out of [0, {n})",
            ),
        ))

    def block_answer(self, what, answer: dict, sources, budget, n) -> bool:
        ok = self.blockers(what, answer["blockers"], sources, budget, n)
        return self.expect(
            answer["spread_blocked"] <= answer["spread_unblocked"],
            f"{what}: blocked spread {answer['spread_blocked']} above "
            f"unblocked {answer['spread_unblocked']}",
        ) and ok


def cold_solve(
    graph, sources, model: str, budget: int, theta: int, seed: int,
    trace=None,
) -> dict:
    """One cold GreedyReplace solve judged like the service judges it:
    sketch selection on stream 0, ``solve_imin``, then the pooled judge
    on stream 1 at the same theta.  ``trace`` (a ``repro.obs.Trace``)
    records the program's spans plus the benchmark's own around each
    public call."""
    from repro.core import solve_imin
    from repro.engine import build_evaluator, EngineSpec
    from repro.obs import global_registry, span, use_trace

    celf = global_registry().counter(
        "repro_celf_evaluations_total",
        "Gain-oracle calls made by CELF lazy selection",
    )
    evaluations = celf.value
    spec = EngineSpec(engine="sketch", model=model, theta=theta, seed=seed)
    start = time.perf_counter()
    with use_trace(trace):
        with span("bench.build_evaluator"):
            selector = build_evaluator(graph, spec, stream=0)
        with selector:
            with span("bench.solve_imin"):
                result = solve_imin(
                    graph, list(sources), budget, algorithm="greedy-replace",
                    theta=theta, rng=seed, evaluator=selector,
                )
            sketch = selector.stats.as_dict()
            pool_samples = selector.pool.stats.generated
            pool_bytes = selector.pool.nbytes
        judged = time.perf_counter()
        with span("bench.judge"):
            with build_evaluator(
                graph, spec.with_engine("pooled"), stream=1
            ) as judge:
                unblocked, blocked = judge.expected_spread_many(
                    sources, theta, [[], result.blockers]
                )
                pool_samples += judge.pool.stats.generated
                pool_bytes += judge.pool.nbytes
    end = time.perf_counter()
    return {
        "blockers": sorted(result.blockers),
        "spread_unblocked": unblocked,
        "spread_blocked": blocked,
        "solve_s": end - start,
        "judge_s": end - judged,
        "sketch": sketch,
        "pool_samples": pool_samples,
        "pool_bytes": pool_bytes,
        "celf_evaluations": celf.value - evaluations,
    }


# ----------------------------------------------------------------------
# trace ledger
# ----------------------------------------------------------------------
def ledger(span_trees) -> dict[str, dict[str, float]]:
    """Per-span-name ``{count, total_ms, self_ms}`` over serialized
    span trees; self time is a span minus its child spans."""
    out: dict[str, dict[str, float]] = {}
    stack = [node for tree in span_trees for node in tree]
    while stack:
        node = stack.pop()
        children = node.get("children", [])
        entry = out.setdefault(
            node["name"], {"count": 0, "total_ms": 0.0, "self_ms": 0.0}
        )
        entry["count"] += 1
        entry["total_ms"] += node["duration_ms"]
        entry["self_ms"] += node["duration_ms"] - sum(
            c["duration_ms"] for c in children
        )
        stack.extend(children)
    return out


def self_s(book: dict, name: str) -> float:
    return book.get(name, {}).get("self_ms", 0.0) / 1e3


def total_s(book: dict, name: str) -> float:
    return book.get(name, {}).get("total_ms", 0.0) / 1e3


_SAMPLE = re.compile(r'^([a-zA-Z_:][\w:]*)(\{[^}]*\})?\s+(\S+)$')


def parse_metrics(text: str) -> dict[str, float]:
    """Prometheus exposition text -> ``{'name{labels}': value}``."""
    out: dict[str, float] = {}
    for line in text.splitlines():
        match = _SAMPLE.match(line)
        if match:
            out[match.group(1) + (match.group(2) or "")] = float(
                match.group(3)
            )
    return out


def span_sum_s(metrics: dict[str, float], name: str) -> float:
    return metrics.get(
        f'repro_span_duration_seconds_sum{{span="{name}"}}', 0.0
    )


def counter_sum(metrics: dict[str, float], name: str) -> float:
    """Sum of one family's samples over every label set."""
    return sum(
        value for key, value in metrics.items()
        if key == name or key.startswith(name + "{")
    )


# ----------------------------------------------------------------------
# the server process
# ----------------------------------------------------------------------
class Server:
    """``repro-imin serve`` in a child process on an ephemeral port.

    Output goes to a log file (never a pipe that could fill up); the
    listening line is polled from it.  ``stop`` asks for a shutdown and
    kills the child if it does not exit.
    """

    def __init__(self, log_path: Path, extra_args=()) -> None:
        from repro.service import ServiceClient

        self._client_cls = ServiceClient
        self.port = 0
        self.started = time.perf_counter()
        self.log_path = log_path
        self._log = open(log_path, "wb")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--host", "127.0.0.1", "--port", "0",
                "--cache-entries", "2", *extra_args,
            ],
            stdout=self._log,
            stderr=subprocess.STDOUT,
            env=child_env(),
            cwd=ROOT,
        )
        self.port = self._await_port()

    def _await_port(self, deadline_s: float = 120.0) -> int:
        end = time.monotonic() + deadline_s
        pattern = re.compile(rb"listening on [\d.]+:(\d+)")
        while time.monotonic() < end:
            match = pattern.search(self.log_path.read_bytes())
            if match:
                return int(match.group(1))
            if self.proc.poll() is not None:
                break
            time.sleep(0.002)
        self.stop()
        raise RuntimeError(
            "server did not start: "
            + self.log_path.read_text(errors="replace")[-2000:]
        )

    def client(self, timeout: float = 150.0):
        return self._client_cls("127.0.0.1", self.port, timeout=timeout)

    def stop(self) -> None:
        if self.proc.poll() is None and self.port:
            try:
                with self.client(timeout=5) as client:
                    client.shutdown()
            except OSError:
                pass
        if self.proc.poll() is None:
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self._log.close()


# ----------------------------------------------------------------------
# open-loop traffic
# ----------------------------------------------------------------------
@dataclass
class Op:
    due_s: float
    kind: str
    params: dict
    after: "Op | None" = None
    """An op that must have completed before this one is sent (the
    single writer's sequence order)."""
    set_index: int = 0
    """Which of the workload's source sets the op queries."""
    done: threading.Event = field(default_factory=threading.Event)
    # filled by the generator
    latency_ms: float = 0.0
    rtt_ms: float = 0.0
    late_ms: float = 0.0
    status: str = "pending"
    """``ok``, ``failed`` (error reply or lost connection) or
    ``refused`` (``overloaded``/``draining``)."""
    response: dict | None = None


REFUSALS = ("overloaded", "draining")


def run_open_loop(server: Server, ops: list[Op], connections: int) -> float:
    """Send ``ops`` at their due times over ``connections`` clients.

    Each connection takes the next op in schedule order, sleeps until
    it is due and sends it; latency is timed from the due time, so a
    send delayed by a busy connection still counts against the op, and
    the delay itself is recorded as generator lateness.  Returns the
    wall time of the phase.
    """
    lock = threading.Lock()
    cursor = iter(ops)
    start = time.perf_counter() + 0.05
    errors: list[BaseException] = []

    def worker() -> None:
        client = server.client()
        try:
            while True:
                with lock:
                    op = next(cursor, None)
                if op is None:
                    return
                if op.after is not None:
                    op.after.done.wait(timeout=300)
                due = start + op.due_s
                pause = due - time.perf_counter()
                if pause > 0:
                    time.sleep(pause)
                sent = time.perf_counter()
                try:
                    response = client.request(op.kind, **op.params)
                except OSError as error:
                    response = {"ok": False, "error": {
                        "code": "connection", "message": str(error)}}
                    client.close()
                done = time.perf_counter()
                op.response = response
                op.late_ms = (sent - due) * 1e3
                op.rtt_ms = (done - sent) * 1e3
                op.latency_ms = (done - due) * 1e3
                if response.get("ok"):
                    op.status = "ok"
                else:
                    code = (response.get("error") or {}).get("code")
                    op.status = "refused" if code in REFUSALS else "failed"
                op.done.set()
        except BaseException as error:  # noqa: BLE001 - reraised below
            errors.append(error)
        finally:
            client.close()

    threads = [
        threading.Thread(target=worker, daemon=True)
        for _ in range(connections)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return time.perf_counter() - start


def server_span_ms(trace: dict) -> float:
    """Server-side time covered by a request's root spans."""
    return sum(node["duration_ms"] for node in trace.get("spans", []))

