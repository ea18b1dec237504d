"""The repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program under test is imported from
``src/``.  Workloads (see ``BENCHMARK.json`` for why each exists):

* ``verify-batch`` — ``repro batch`` (``Pipeline()``, no cache) over
  generated, corpus and negative-corpus programs;
* ``edit-rebatch`` — ``repro batch --cache`` over a warm certificate cache
  while a seeded edit plan changes a few functions per round;
* ``serve-mix`` — a ``python -m repro serve`` child on a unix socket,
  driven closed loop by two client connections with check/verify/run
  requests;
* ``run-engine`` — warm IR execution of driver functions and threaded
  generated cases on ``Machine(engine="ir")``.

``--trace 0`` measures the end-to-end metrics with nothing traced;
``--trace 1`` replays the ops under spans and reports the per-layer rows.
Every op's answer is checked against a known answer; any mismatch makes
``correct`` false and the exit code 1.  The last stdout line is the JSON
result; the line before it is the full report (host facts, spreads, tail
percentile, span reconciliation), also written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

RUNNERS = {
    "verify-batch": ("wl_batch", "verify_batch"),
    "edit-rebatch": ("wl_batch", "edit_rebatch"),
    "serve-mix": ("wl_serve", "serve_mix"),
    "run-engine": ("wl_engine", "run_engine"),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "peak_rss_mb": "MB",
    "compile_ms": "ms",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: program sources not found under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    # The tree interpreter recurses per FCL call; the CLI, the tests and
    # the pipeline workers all raise the limit the same way.
    sys.setrecursionlimit(100_000)
    os.chdir(ROOT)
    load_before = list(os.getloadavg())

    import harness
    import inputs
    import layers

    harness.OUT.mkdir(parents=True, exist_ok=True)
    module, func = RUNNERS[args.workload]
    runner = getattr(importlib.import_module(module), func)
    result = runner(inputs.build(args.workload, args.seed), args.seconds, bool(args.trace))

    units = (
        {name: unit for name, unit, _ in layers.PER_LAYER}
        if args.trace
        else END_TO_END_UNITS
    )
    failed = len(result.failures)
    attempted = max(result.attempted, 1)
    host = harness.host_facts()
    host["loadavg_before"] = load_before
    host["loadavg_after"] = host.pop("loadavg")
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host,
        "repeats": {
            "ops": result.attempted,
            "setup": result.report.get("spread", {}).get("setup_s", {}).get("n"),
            "compile": result.report.get("spread", {}).get("compile_ms", {}).get("n"),
        },
        "fail_ratio": failed / attempted,
        "failures": result.failures[:20],
        **result.report,
    }
    for name in units:
        print(f"{name:36s} {result.metrics[name]:>16.6g} {units[name]}")
    for reason in result.failures[:5]:
        print(f"FAILED {reason}", file=sys.stderr)
    text = json.dumps(report, sort_keys=True)
    (harness.OUT / f"report-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(text)
    print(text)
    print(json.dumps({
        "correct": not result.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": result.metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0 if not result.failures else 1


if __name__ == "__main__":
    sys.exit(main())
