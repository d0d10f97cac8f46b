"""``serve-warm`` and ``serve-churn``: a ``repro-imin serve`` process
driven by an open-loop schedule over two connections.

serve-warm
    Email-core, WC, theta = 1000, artifact and judge pool warmed in
    set-up.  About 80% ``spread`` (random blocked sets) and 20%
    ``block``; block sources are drawn with skew from six sets, more
    than the four views the sketch index retains, so view hits (rebase
    only) and misses (cold view build) both occur.  No sample is drawn
    in the measured phase: sketch/CELF, the pooled evaluator, executor
    queueing and the wire do the work.
serve-churn
    Email-core, TR, theta = 1000, restarted onto a populated
    ``--cache-dir`` so set-up pays an mmap rehydrate, not a build.  One
    op in four is an ``update`` (a small mixed insert/delete/reweight
    delta with a monotone ``seq``, sent by a single writer in order);
    the rest are ``spread``/``block`` reads over two source sets.
"""

from __future__ import annotations

import shutil
import time

import numpy as np

from common import (
    calib_ms, Checks, cold_solve, counter_sum, ledger, median, Op,
    parse_metrics, peak_rss_mb, proc_cpu_s, run_open_loop, self_s, Server,
    server_span_ms, span_sum_s, tail, WORK,
)

CONNECTIONS = 2
PHASES = 3
"""Each run starts the server three times and measures a third of the
run on each: three set-ups to take the median of, and latencies pooled
over three server processes, which vary more than ops within one."""
SET_SIZE = 10
BUDGET = 20
LIMIT_MS = {"spread": 4000.0, "block": 8000.0, "update": 4000.0}
"""Per-op latency limits of ``slo_ok_ratio``, set several times above
the normal tail so the ratio catches stalls, backlog and errors rather
than tail jitter."""

# The traffic shape is part of each workload: a fixed op pattern and a
# fixed cycle of source sets, so every run has the same mix (the median
# of a mix whose proportions change from run to run is not steady: the
# sets' block costs differ by up to 1.5x).  The seed draws the payloads.
WORKLOADS = {
    "serve-warm": {
        "model": "wc",
        "group": ("block", "spread", "spread", "spread", "spread"),
        # skewed 8:5:3:2:1:1 over 6 sets, more than the index's 4 LRU
        # views; with a fresh server per phase, 8 of the 18 blocks of a
        # 20 s run build their view cold and the rest rebase a resident one
        "sets": (0, 1, 0, 2, 0, 1, 0, 3, 1, 0, 2, 0, 1, 4, 0, 2, 1, 0, 3, 5),
        "rate": 4.0,
    },
    "serve-churn": {
        "model": "tr",
        "group": ("update", "spread", "spread", "block"),
        "sets": (0, 0, 1),
        "rate": 4.0,
    },
}
FULL = {"scale": 1.0, "theta": 1000}
SMOKE = {"scale": 0.1, "theta": 100}
ARTIFACT_SEED = 7
"""The served artifact is a fixed instance: its seed keys the TR edge
weights and the random worlds, so every run serves the same graph."""
INSTANCE_SEED = 1000
"""Seeds the fixed source sets (set ``i`` from ``INSTANCE_SEED + i``);
the workload seed draws the payloads: blocked sets and deltas."""


def random_delta(graph, gen, model: str):
    """A small mixed batch valid against ``graph``: 3 deletes, 3
    reweights, 2 inserts, no edge touched twice."""
    from repro.graph import GraphDelta

    probs = (0.1, 0.01, 0.001) if model == "tr" else (0.05, 0.1, 0.2)
    chosen: set[tuple[int, int]] = set()

    def existing() -> tuple[int, int]:
        while True:
            u = int(gen.integers(graph.n))
            out = graph.out_neighbors(u)
            if out:
                v = int(out[int(gen.integers(len(out)))])
                if (u, v) not in chosen:
                    chosen.add((u, v))
                    return u, v

    deletes = [existing() for _ in range(3)]
    reweights = [
        (*existing(), float(probs[int(gen.integers(3))])) for _ in range(3)
    ]
    inserts = []
    while len(inserts) < 2:
        u, v = int(gen.integers(graph.n)), int(gen.integers(graph.n))
        if u != v and (u, v) not in chosen and not graph.has_edge(u, v):
            chosen.add((u, v))
            inserts.append((u, v, float(probs[int(gen.integers(3))])))
    return GraphDelta(inserts=inserts, deletes=deletes, reweights=reweights)


def _answer(result: dict) -> tuple:
    return (
        list(result["blockers"]),
        result["spread_unblocked"],
        result["spread_blocked"],
    )


def _snapshot(client, key: dict) -> dict:
    stats = client.stats()
    artifact = client.request("stats", **key)["result"]
    return {
        "metrics": parse_metrics(client.metrics()),
        "cache": stats["cache"]["stats"],
        "pool": artifact["pool"],
        "sketch": artifact["sketch"],
        "nbytes": artifact["nbytes"],
        "applied_seq": artifact["applied_seq"],
    }


def _schedule(cfg, key, sets, graph, count, sent, gen, traced):
    """``count`` ops of the workload's open-loop pattern, continuing the
    per-kind source-set cycles in ``sent``; for churn, the deltas are
    drawn against (and applied to) a copy of ``graph``."""
    from repro.graph import GraphDelta

    mirror = graph.copy()
    deltas: list[GraphDelta] = []
    ops: list[Op] = []
    writer: Op | None = None
    for i in range(count):
        kind = cfg["group"][i % len(cfg["group"])]
        cycle = cfg["sets"]
        set_index = cycle[sent[kind] % len(cycle)]
        # every other op of each kind asks for its span tree
        trace = traced and sent[kind] % 2 == 0
        sent[kind] += 1
        params = dict(key)
        if kind == "update":
            delta = random_delta(mirror, gen, key["model"])
            delta.apply_to(mirror)
            deltas.append(delta)
            params.update(delta.as_dict(), seq=len(deltas))
        else:
            params["seeds"] = sets[set_index]
            if kind == "block":
                params["budget"] = BUDGET
            else:
                taken = set(sets[set_index])
                size = int(gen.integers(1, 21))
                picks = gen.choice(graph.n, size=size + SET_SIZE,
                                   replace=False)
                params["blocked"] = sorted(
                    int(v) for v in picks if int(v) not in taken
                )[:size]
        if trace:
            params["trace"] = True
        op = Op(due_s=i / cfg["rate"], kind=kind, params=params,
                set_index=set_index)
        if kind == "update":
            op.after, writer = writer, op
        ops.append(op)
    return ops, mirror


def _phase(server, key, sets, ops, churn: bool) -> dict:
    """One measured phase on a started server: traffic and counters."""
    with server.client() as client:
        unblocked = [] if churn else [
            client.spread(**key, seeds=s)["spread"] for s in sets
        ]
        before = _snapshot(client, key)
    cpu0 = proc_cpu_s(server.proc.pid)
    wall = run_open_loop(server, ops, CONNECTIONS)
    cpu = proc_cpu_s(server.proc.pid) - cpu0
    with server.client() as client:
        after = _snapshot(client, key)
    return {
        "ops": ops, "wall": wall, "cpu": cpu, "unblocked": unblocked,
        "before": before, "after": after,
        "rss": peak_rss_mb(server.proc.pid),
    }


def run(name: str, seed: int, seconds: float, traced: bool,
        smoke: bool) -> dict:
    from repro.bench import pick_seeds, prepare_graph
    from repro.datasets import load_dataset

    cfg = WORKLOADS[name]
    size = SMOKE if smoke else FULL
    churn = name == "serve-churn"
    checks = Checks()
    calib_start = calib_ms()
    key = {"graph": "email-core", "model": cfg["model"],
           "theta": size["theta"], "seed": ARTIFACT_SEED, "layout": "arena"}
    graph = prepare_graph(
        load_dataset("email-core", scale=size["scale"]), cfg["model"],
        rng=ARTIFACT_SEED,
    )
    sets = [
        pick_seeds(graph, SET_SIZE, rng=INSTANCE_SEED + i)
        for i in range(max(cfg["sets"]) + 1)
    ]
    gen = np.random.default_rng([seed, 1])
    sent = {"spread": 0, "block": 0, "update": 0}
    per_phase = max(len(cfg["group"]),
                    int(round(cfg["rate"] * seconds / PHASES)))
    work = WORK / f"run-{name}-{time.time_ns()}"
    work.mkdir(parents=True)
    args = ["--scale", str(size["scale"])]
    phases, setups, firsts, answers, mirrors = [], [], [], {}, []
    server = None
    try:
        if churn:  # populate an artifact cache each phase restarts onto
            server = Server(work / "populate.log",
                            args + ["--cache-dir", str(work / "cache")])
            with server.client() as client:
                for sources in sets:
                    client.warm(**key, seeds=sources)
                    client.block(**key, seeds=sources, budget=BUDGET)
            server.stop()
        for phase in range(PHASES):
            phase_args = list(args)
            if churn:
                cache = work / f"cache-{phase}"
                shutil.copytree(work / "cache", cache)
                phase_args += ["--cache-dir", str(cache)]
            server = Server(work / f"server-{phase}.log", phase_args)
            with server.client() as client:
                if churn:
                    described = [client.warm(**key, seeds=s) for s in sets]
                else:
                    client.warm(**key)
                    firsts.append(_answer(client.block(
                        **key, seeds=sets[0], budget=BUDGET)))
                setups.append(time.perf_counter() - server.started)
            if churn:
                checks.expect(
                    all(d["pool"]["disk_loads"] >= 1
                        and d["sketch"]["rehydrations"] >= 1
                        for d in described),
                    f"phase {phase}: restart rebuilt instead of "
                    "rehydrating",
                )
            ops, mirror = _schedule(
                cfg, key, sets, graph, per_phase, sent, gen, traced)
            mirrors.append(mirror)
            record = _phase(server, key, sets, ops, churn)
            phases.append(record)
            # closing blocks: churn closes every set after its deltas;
            # warm answers, at the end, any set the traffic never blocked
            answered = {
                op.set_index for r in phases for op in r["ops"]
                if op.kind == "block" and op.status == "ok"
            }
            with server.client() as client:
                record["closing"] = {
                    i: client.block(**key, seeds=sets[i], budget=BUDGET)
                    for i in range(len(sets))
                    if churn or (phase == PHASES - 1 and i not in answered)
                }
            server.stop()
            server = None
    finally:
        if server is not None:
            server.stop()
        shutil.rmtree(work, ignore_errors=True)
    if firsts:
        reference = cold_solve(
            graph, sets[0], key["model"], BUDGET, key["theta"], key["seed"])
        checks.expect(all(first == firsts[0] for first in firsts),
                      "first block differs across restarts")
        checks.expect(firsts[0] == _answer(reference),
                      f"first block {firsts[0]} != in-process "
                      f"{_answer(reference)}")
    calib_end = calib_ms()

    # ---- answer checks -------------------------------------------------
    closing_spreads = []
    for phase, (record, mirror) in enumerate(zip(phases, mirrors)):
        for i, op in enumerate(record["ops"]):
            if op.status != "ok":
                continue
            result = op.response["result"]
            sources = sets[op.set_index]
            what = f"phase {phase} {op.kind} #{i}"
            if op.kind == "spread":
                ceiling = (graph.n if churn
                           else record["unblocked"][op.set_index])
                checks.expect(
                    len(sources) <= result["spread"] <= ceiling + 1e-9,
                    f"{what}: spread {result['spread']} outside "
                    f"[{len(sources)}, {ceiling}]",
                )
            elif op.kind == "block":
                checks.block_answer(what, result, sources, BUDGET, graph.n)
                if not churn:  # the artifact never changes: answers repeat
                    answer = answers.setdefault(
                        op.set_index, _answer(result))
                    checks.expect(answer == _answer(result),
                                  f"{what}: answer differs for the set")
            else:
                checks.expect(
                    result.get("applied")
                    and result.get("seq") == op.params["seq"],
                    f"{what}: delta not applied: {result}",
                )
        for index, result in record["closing"].items():
            what = f"phase {phase} closing block {index}"
            checks.block_answer(what, result, sets[index], BUDGET, mirror.n)
            if churn:
                closing_spreads.append(result["spread_blocked"])
                if phase < PHASES - 1:
                    continue  # one cold re-solve per set and run suffices
                reference = cold_solve(
                    mirror, sets[index], key["model"], BUDGET, key["theta"],
                    key["seed"])
                checks.expect(
                    _answer(result) == _answer(reference),
                    f"{what} after the phase's deltas != in-process cold "
                    f"solve {_answer(reference)}",
                )
            else:
                answers[index] = _answer(result)
    if not churn:
        checks.expect(len(answers) == len(sets), "a source set has no "
                      "block answer")
        closing_spreads = [answer[2] for answer in answers.values()]

    # ---- end-to-end ----------------------------------------------------
    ops = [op for record in phases for op in record["ops"]]
    wall = sum(record["wall"] for record in phases)
    latency = {
        kind: [op.latency_ms for op in ops
               if op.kind == kind and op.status == "ok"]
        for kind in ("spread", "block", "update")
    }
    within = [
        op for op in ops
        if op.status == "ok" and op.latency_ms <= LIMIT_MS[op.kind]
    ]
    e2e = {
        "setup_s": median(setups),
        "block_ms": median(latency["block"]),
        "slo_ok_ratio": len(within) / len(ops),
        "spread_blocked": float(np.mean(closing_spreads)),
        "peak_rss_mb": median([record["rss"] for record in phases]),
    }

    # ---- per layer -----------------------------------------------------
    def grew(metric: str) -> float:
        return sum(
            counter_sum(r["after"]["metrics"], metric)
            - counter_sum(r["before"]["metrics"], metric)
            for r in phases
        )

    def stat_grew(group: str, field: str) -> float:
        return sum(
            r["after"][group][field] - r["before"][group][field]
            for r in phases
        )

    final = phases[-1]["after"]
    late = [op.late_ms for op in ops if op.status != "pending"]
    cpu_share = sum(record["cpu"] for record in phases) / wall
    layers = {
        "native.available": 1.0,
        "host.calib_start_ms": calib_start,
        "host.calib_end_ms": calib_end,
        "host.cpu_share": cpu_share,
        "gen.late_p50_ms": median(late),
        "gen.late_max_ms": max(late),
        "spread_p50_ms": median(latency["spread"]),
        "update_p50_ms": median(latency["update"]),
        "pool.samples_generated": grew("repro_pool_samples_generated_total"),
        "pool.bytes": final["nbytes"] - final["sketch"]["tree_bytes"],
        "pool.delta_touched": stat_grew("pool", "delta_touched"),
        "pool.disk_saves": grew("repro_pool_disk_saves_total"),
        "sketch.trees_built": grew("repro_sketch_trees_built_total"),
        "sketch.samples_skipped": grew("repro_sketch_samples_skipped_total"),
        "sketch.arena_bytes": final["sketch"]["arena_bytes"],
        "sketch.postings_bytes": final["sketch"]["postings_bytes"],
        "sketch.delta_trees_rebuilt": stat_grew(
            "sketch", "delta_trees_rebuilt"),
        "sketch.delta_samples_skipped": stat_grew(
            "sketch", "delta_samples_skipped"),
        "sketch.persists": grew("repro_sketch_view_persists_total"),
        "celf.evaluations": grew("repro_celf_evaluations_total"),
        "service.busy_share": sum(
            span_sum_s(r["after"]["metrics"], "service.evaluate")
            - span_sum_s(r["before"]["metrics"], "service.evaluate")
            for r in phases
        ) / wall,
        "service.submitted": grew("repro_executor_submitted_total"),
        "service.completed": grew("repro_executor_completed_total"),
        "service.shed": grew("repro_shed_requests_total"),
        "cache.builds": grew("repro_cache_builds_total"),
        "cache.hits": grew("repro_cache_hits_total"),
        "cache.rehydrations": sum(
            r["after"]["cache"]["rehydrations"] for r in phases),
        "journal.applied": sum(
            r["after"]["applied_seq"] - r["before"]["applied_seq"]
            for r in phases
        ),
    }
    batches = grew("repro_coalesced_batches_total")
    if batches:
        layers["service.coalesced_per_batch"] = (
            grew("repro_coalesced_queries_total") / batches)
    for kind in ("spread", "block", "update"):
        mine = [op for op in ops if op.kind == kind]
        for status in ("ok", "failed", "refused"):
            layers[f"gen.{status}.{kind}"] = sum(
                op.status == status for op in mine)
        layers[f"gen.sent.{kind}"] = sum(
            op.status != "pending" for op in mine)
    if traced:
        layers.update(_traced_layers(ops))
    diagnostics = {
        "setup_s": setups,
        "phase_medians_ms": [
            {kind: median([op.latency_ms for op in r["ops"]
                           if op.kind == kind and op.status == "ok"])
             for kind in ("spread", "block")}
            for r in phases
        ],
        "rss_mb": [record["rss"] for record in phases],
        "ops": [
            (op.kind, op.set_index, round(op.latency_ms, 1),
             round(op.rtt_ms, 1))
            for op in ops
        ],
        "tails": {kind: tail(values) for kind, values in latency.items()},
        "calib_ms": [calib_start, calib_end],
        "server_cpu_share": cpu_share,
    }
    return {
        "e2e": e2e,
        "layers": layers,
        "attempted": len(ops),
        "failed": sum(op.status != "ok" for op in ops),
        "checks": checks,
        "diagnostics": diagnostics,
    }


def _traced_layers(ops: list[Op]) -> dict:
    """Self times and per-request phase figures from the traced half
    of the requests (every other op asked for its span tree)."""
    traced = [
        op for op in ops
        if op.status == "ok" and op.params.get("trace")
    ]
    plain = [
        op for op in ops
        if op.status == "ok" and not op.params.get("trace")
    ]
    trees = [op.response["trace"]["spans"] for op in traced]
    book = ledger(trees)

    def evaluate_ms(kind: str) -> float:
        spans = [
            ledger([op.response["trace"]["spans"]])
            .get("service.evaluate", {}).get("total_ms", 0.0)
            for op in traced if op.kind == kind
        ]
        return median(spans)

    blocks = [op for op in traced if op.kind == "block"]
    misses = [
        op for op in blocks
        if "sketch.build" in ledger([op.response["trace"]["spans"]])
    ]
    server_ms = sum(server_span_ms(op.response["trace"]) for op in traced)
    resolve = book.get("service.resolve", {}).get("self_ms", 0.0)
    evaluate_self = book.get("service.evaluate", {}).get("self_ms", 0.0)
    spread_ratio = [
        median([op.latency_ms for op in group if op.kind == "spread"])
        for group in (traced, plain)
    ]
    return {
        "pool.generate_s": self_s(book, "pool.generate"),
        "pool.delta_s": self_s(book, "pool.delta"),
        "sketch.build_s": self_s(book, "sketch.build"),
        "sketch.treebuild_s": self_s(book, "sketch.treebuild"),
        "sketch.rebase_s": self_s(book, "sketch.rebase"),
        "sketch.gains_s": self_s(book, "sketch.gains"),
        "sketch.delta_s": self_s(book, "sketch.delta"),
        "sketch.view_hit_ratio": (
            1.0 - len(misses) / len(blocks) if blocks else 0.0),
        "celf.select_s": self_s(book, "celf.select"),
        "service.queue_wait_ms": median([
            ledger([op.response["trace"]["spans"]])
            .get("service.queue_wait", {}).get("total_ms", 0.0)
            for op in traced
        ]),
        "service.evaluate_spread_ms": evaluate_ms("spread"),
        "service.evaluate_block_ms": evaluate_ms("block"),
        "service.evaluate_update_ms": evaluate_ms("update"),
        "wire_ms": median([
            op.rtt_ms - server_span_ms(op.response["trace"])
            for op in traced
        ]),
        "trace.overhead_ratio": (
            spread_ratio[0] / spread_ratio[1] if spread_ratio[1] else 0.0),
        "trace.untracked_share": (
            (resolve + evaluate_self) / server_ms if server_ms else 0.0),
    }
