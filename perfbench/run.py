"""The repository benchmark: one command, three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload office-day --seed 20 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that reports the per-layer
metrics.  Human-readable lines go first; the last line of standard
output is the result object ``{"correct", "attempted", "failed",
"metrics"}``.  A provenance record (workload fingerprint, revision,
host reference-kernel times) is printed above it and written to
``.bench_out/``.  Exit status: 0 when every output check passed, 1
when one failed, 2 when the benchmark could not run at all.

The workloads, metrics and layer predictions are described in
``perfbench/README.md`` and declared in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from benchlib import (  # noqa: E402
    ROOT,
    Outcome,
    fingerprint,
    git_revision,
    host_info,
    median,
    tree_digest,
)

SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("office-day", "night-shift-sharded", "serve-ndjson")


def _declared() -> dict:
    with open(ROOT / "BENCHMARK.json") as spec:
        return json.load(spec)


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the scenario's own "
                             "seed; 0 for serve-ndjson)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measured seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _program_present() -> str | None:
    """Why the program cannot be benchmarked here, or None."""
    if not (SRC / "repro" / "__init__.py").is_file():
        return f"no program source at {SRC / 'repro'}"
    if not (ROOT / "BENCHMARK.json").is_file():
        return f"no BENCHMARK.json at {ROOT}"
    return None


def _record(args, outcome: Outcome, params: dict) -> dict:
    ref = outcome.reference_s
    return {
        "kind": "perfbench-record",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "fingerprint": fingerprint(args.workload, params, args.seed),
        "params": params,
        "bench_source_digest": tree_digest(BENCH_DIR),
        "git_revision": git_revision(),
        "program_tree_digest": tree_digest(SRC),
        "host": host_info(),
        "reference_kernel_ms": {
            "n": len(ref),
            "median": round(median(ref) * 1e3, 4) if ref else None,
            "samples": [round(r * 1e3, 4) for r in ref]},
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failed_frac": outcome.failed / outcome.attempted,
        "checks": outcome.checks,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()},
        "details": outcome.details,
    }


def _print_human(record: dict, samples: dict) -> None:
    print(f"perfbench {record['workload']} seed={record['seed']} "
          f"trace={record['trace']} fingerprint={record['fingerprint']} "
          f"rev={record['git_revision'][:12]}")
    for name, metric in record["metrics"].items():
        count = samples.get(name)
        support = f"  (n={count})" if count is not None else ""
        print(f"  {name:<30} {metric['value']:>14.6g} {metric['unit']}"
              f"{support}")
    print(f"  {'failed_frac':<30} {record['failed_frac']:>14.6g} ratio  "
          f"({record['failed']}/{record['attempted']})")
    for key, label in (("adapt_latency_ms", "adapt latency, whole phase (a)"),
                       ("loadgen_late_ms", "load generator lateness")):
        row = record["details"].get(key)
        if row:
            print(f"  {label}: p50 {row['p50']:.4g} ms, p95 {row['p95']:.4g} "
                  f"ms ({row['beyond_p95']} beyond), p99 {row['p99']:.4g} ms "
                  f"({row['beyond_p99']} beyond), n={row['n']}")
    window = record["details"].get("adapt_latency_window_median_ms")
    if window:
        print(f"  adapt latency, median of {window['windows']} windows of "
              f"{window['per_window']}: p50 {window['p50']:.4g} ms, "
              f"p95 {window['p95']:.4g} ms")
    ref = record["reference_kernel_ms"]
    print(f"  reference kernel median {ref['median']} ms (n={ref['n']})")
    for problem in record["checks"]:
        print(f"  CHECK FAILED: {problem}")


def main(argv: list[str]) -> int:
    args = _parse(argv)
    missing = _program_present()
    if missing is not None:
        print(f"perfbench: {missing}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import layers
    import scenario_workload
    import serve_workload

    declared = _declared()
    if args.workload == "serve-ndjson":
        module = serve_workload
    else:
        module = scenario_workload
    if args.seed is None:
        args.seed = module.default_seed(args.workload)
    params = module.params(args.workload)
    params["seconds"] = args.seconds
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        outcome = module.run_traced(args.workload, args.seed, args.seconds,
                                    OUT_DIR / f"spans-{tag}.jsonl.gz")
        wanted = [m["name"] for m in declared["per_layer"]]
        # A layer this workload does not exercise reads 0.
        for name in wanted:
            if name not in outcome.metrics:
                outcome.metrics[name] = (0.0, layers.PER_LAYER_UNITS[name])
    else:
        outcome = module.run(args.workload, args.seed, args.seconds)
        wanted = [m["name"] for m in declared["end_to_end"]]
    missing_metrics = [name for name in wanted if name not in outcome.metrics]
    if missing_metrics:
        outcome.checks.append(f"metrics not measured: {missing_metrics}")
    outcome.metrics = {name: outcome.metrics[name] for name in wanted
                       if name in outcome.metrics}

    record = _record(args, outcome, params)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"record-{tag}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    _print_human(record, outcome.details.get("samples", {}))
    print("record: " + json.dumps(record, sort_keys=True))
    result = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()},
    }
    print(json.dumps(result))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
