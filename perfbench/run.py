"""The repository benchmark: blocker selection cold at paper theta,
served warm, and served under graph-update churn.

Run from the repository root::

    python3 perfbench/run.py --workload paper-solve --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics, ``--trace 1`` a separate
run that produces the per-layer ledger; ``--smoke`` shrinks every
workload to seconds (small graph and theta) while still printing every
metric and running every answer check.  The last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; metric names and units come from ``BENCHMARK.json``.  The
exit code is nonzero when any answer check or request failed.  See
``perfbench/README.md`` for what each workload is for.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper-solve", "serve-warm", "serve-churn")


def _parse(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny sizes: every metric and answer check, in seconds",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    # a terminated run still unwinds, so the server it started is stopped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    work = ROOT / ".perfbench"
    work.mkdir(exist_ok=True)
    # keep the compiled kernel and any temporary file inside the checkout
    os.environ["REPRO_NATIVE_CACHE"] = str(work / "native")
    os.environ["TMPDIR"] = str(work)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    traced = bool(args.trace)
    if args.workload == "paper-solve":
        import paper

        out = paper.run(args.seed, args.seconds, traced, args.smoke)
    else:
        import serve

        out = serve.run(
            args.workload, args.seed, args.seconds, traced, args.smoke
        )

    produced = out["layers"] if traced else out["e2e"]
    unknown = sorted(set(produced) - {m["name"] for m in wanted})
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {unknown}")
    metrics = {
        # a layer the workload does not exercise reads 0
        m["name"]: {"value": float(produced.get(m["name"], 0.0)),
                    "unit": m["unit"]}
        for m in wanted
    }
    if not traced:
        missing = [m["name"] for m in wanted if m["name"] not in produced]
        if missing:
            raise KeyError(f"end-to-end metrics not measured: {missing}")
    failures = out["checks"].failures
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({"diagnostics": out["diagnostics"]}, default=str),
          file=sys.stderr)
    failed = out["failed"] + len(failures)
    result = {
        "correct": not failures,
        "attempted": out["attempted"],
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result, separators=(",", ":")), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
