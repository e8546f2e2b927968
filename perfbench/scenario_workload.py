"""The scenario workloads: a shipped building day through ScenarioRunner.

``office-day`` runs the shipped ``office-day`` scenario on the single
DES kernel (``regions=1``); ``night-shift-sharded`` runs the shipped
``night-shift-chaos`` scenario on two sharded regions.  The seed
replaces the scenario's own (``dataclasses.replace``); by default each
scenario keeps the seed it ships with.

The timed run cycles through ``SEEDS_PER_RUN`` seeds (``seed``,
``seed + SEED_STRIDE``, ...), each at least once: one seed's occupants
and chaos draw can make a night-shift day take 1.4x as long to
simulate as another's, so with a single seed the result would mostly
say which seed was drawn.
"""

from __future__ import annotations

import dataclasses
import gc
import subprocess
import sys
from typing import Any

import layers
from benchlib import (
    BENCH_DIR,
    ROOT,
    HostSpeedSampler,
    Outcome,
    SpanRecorder,
    fold,
    median,
    now,
    peak_rss_mb,
    reference_kernel,
)

#: workload name -> (shipped scenario, regions)
SCENARIOS = {
    "office-day": ("office-day", 1),
    "night-shift-sharded": ("night-shift-chaos", 2),
}

#: fresh-interpreter set-ups per run (median reported; one more warms
#: the bytecode cache and is discarded)
SETUP_REPEATS = 5
#: timed scenario runs at least, whatever ``--seconds`` says
MIN_RUNS = 3
#: scenario seeds one timed run cycles through, and their spacing
SEEDS_PER_RUN = 12
SEED_STRIDE = 1000


def default_seed(workload: str) -> int:
    from repro.scenarios import shipped_scenarios

    return shipped_scenarios()[SCENARIOS[workload][0]].seed


def params(workload: str) -> dict[str, Any]:
    name, regions = SCENARIOS[workload]
    return {"scenario": name, "regions": regions,
            "setup_repeats": SETUP_REPEATS, "min_runs": MIN_RUNS,
            "seeds_per_run": SEEDS_PER_RUN, "seed_stride": SEED_STRIDE}


def _scenario(workload: str, seed: int):
    from repro.scenarios import shipped_scenarios

    name, regions = SCENARIOS[workload]
    return dataclasses.replace(shipped_scenarios()[name], seed=seed), regions


def run_seeds(seed: int) -> list[int]:
    """The scenario seeds one timed run cycles through."""
    return [seed + SEED_STRIDE * j for j in range(SEEDS_PER_RUN)]


def setup_times(workload: str, seed: int, repeats: int) -> list[float]:
    """Fresh-interpreter ``import repro`` + ``compile_scenario`` times."""
    name, regions = SCENARIOS[workload]
    times = []
    for _ in range(repeats + 1):
        out = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), name,
             str(regions), str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
            check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times[1:]


class _Checker:
    """Output checks shared by every run of one set.

    The journal digest of a scenario seed must be the same in every
    run of it (its first run sets it), and no run may show a flicker
    violation.
    """

    def __init__(self) -> None:
        self.digests: dict[int, str] = {}
        self.runs = 0
        self.failed = 0
        self.slo_passed: list[bool] = []
        self.problems: list[str] = []

    def check(self, run, seed: int) -> None:
        report = run.report
        self.runs += 1
        self.slo_passed.append(report.passed)
        bad = []
        digest = self.digests.setdefault(seed, report.journal_digest)
        if report.journal_digest != digest:
            bad.append(f"seed {seed}: digest {report.journal_digest[:12]} "
                       f"!= {digest[:12]}")
        flicker = report.metrics()["flicker_violations"]
        if flicker:
            bad.append(f"{flicker:g} flicker violations")
        if bad:
            self.failed += 1
            self.problems.append(f"run {self.runs}: " + "; ".join(bad))


def _timed_runs(scenarios: list, regions: int, seconds: float,
                checker: _Checker, reference: list[float],
                speeds: list[float] | None = None,
                min_runs: int = MIN_RUNS) -> list[float]:
    """Run the scenarios in turn until ``seconds`` pass and at least
    ``min_runs`` ran; host seconds per run, run ``i`` being of
    ``scenarios[i % len(scenarios)]``.

    With ``speeds`` given, each run is timed under a
    :class:`HostSpeedSampler`: the times returned are corrected to the
    nominal host speed, and each run's mean host speed is appended to
    ``speeds``.  Without it they are raw wall times.
    """
    from repro.scenarios import ScenarioRunner

    walls = []
    deadline = now() + seconds
    while len(walls) < min_runs or now() < deadline:
        scenario = scenarios[len(walls) % len(scenarios)]
        reference.append(reference_kernel())
        gc.collect()  # start every run from the same heap state
        if speeds is None:
            start = now()
            run = ScenarioRunner(scenario, regions=regions).run()
            walls.append(now() - start)
        else:
            with HostSpeedSampler() as sampler:
                start = now()
                run = ScenarioRunner(scenario, regions=regions).run()
                wall = now() - start
            walls.append(sampler.corrected(wall))
            speeds.append(sampler.speed())
        checker.check(run, scenario.seed)
    return walls


def run(workload: str, seed: int, seconds: float) -> Outcome:
    """The untraced run: end-to-end metrics."""
    from repro.scenarios import ScenarioRunner

    seeds = run_seeds(seed)
    scenarios = [_scenario(workload, s)[0] for s in seeds]
    regions = SCENARIOS[workload][1]
    setups = setup_times(workload, seed, SETUP_REPEATS)
    checker = _Checker()
    reference: list[float] = []
    # One untimed run pays process-level warm-up (NumPy dispatch,
    # lazy imports) that a long-lived caller pays once; the first timed
    # run re-checks its digest.
    checker.check(ScenarioRunner(scenarios[0], regions=regions).run(),
                  seeds[0])
    speeds: list[float] = []
    walls = _timed_runs(scenarios, regions, seconds, checker, reference,
                        speeds, min_runs=len(scenarios))
    # Each seed's median run time, then their mean: every seed weighs
    # the same however many times it ran before the deadline, and a
    # mean does not jump between the fast and the slow seeds as a
    # median of twelve would.
    per_seed = [median(walls[k::len(scenarios)])
                for k in range(len(scenarios))]
    mean_run_s = sum(per_seed) / len(per_seed)
    room_hours = (scenarios[0].duration_s * len(scenarios[0].rooms)
                  / 3600.0)
    metrics = {
        "setup_s": (median(setups), "s"),
        "throughput_per_s": (room_hours / mean_run_s, "1/s"),
        "latency_p50_ms": (mean_run_s * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return Outcome(
        metrics=metrics, attempted=checker.runs, failed=checker.failed,
        checks=checker.problems, reference_s=reference,
        details={"room_hours_per_run": room_hours,
                 "scenario_seeds": seeds,
                 "runs_timed": len(walls),
                 "run_s_at_nominal_speed": [round(w, 6) for w in walls],
                 "seed_median_s": [round(w, 6) for w in per_seed],
                 "host_speed": [round(v, 4) for v in speeds],
                 "run_s_at_host_speed": [round(w / v, 6)
                                         for w, v in zip(walls, speeds)],
                 "setup_s": [round(s, 6) for s in setups],
                 "journal_digests": {str(k): v for k, v
                                     in checker.digests.items()},
                 "slo_passed": all(checker.slo_passed),
                 "samples": {"setup_s": len(setups),
                             "throughput_per_s": len(walls),
                             "latency_p50_ms": len(walls)}})


def run_traced(workload: str, seed: int, seconds: float,
               spans_out) -> Outcome:
    """The traced run: untraced runs first, then the same runs traced.

    Only ``seed`` itself runs: the per-layer split is a ratio within
    one input, so cycling seeds would only blur it.
    """
    from repro.scenarios import ScenarioRunner

    scenario, regions = _scenario(workload, seed)
    checker = _Checker()
    reference: list[float] = []
    checker.check(ScenarioRunner(scenario, regions=regions).run(), seed)
    plain = _timed_runs([scenario], regions, seconds / 2, checker,
                        reference)

    recorder = SpanRecorder()
    events = [0]

    def count_events(dispatched: int) -> None:
        events[0] += dispatched

    patches = layers.install(recorder, layers.SCENARIO_LAYERS,
                             {"des.run": count_events})
    try:
        traced = _timed_runs([scenario], regions, seconds / 2, checker,
                             reference)
    finally:
        patches.restore()
    spans = recorder.spans
    folded = fold(spans)
    runs = folded.count("scenario.run")
    wall = folded.root_s
    layer_self = folded.self_total_s - folded.self_of("scenario.run")
    metrics = layers.scenario_metrics(spans, events[0], runs, regions)
    metrics["trace.overhead_frac"] = median(traced) / median(plain) - 1.0
    metrics["trace.self_sum_frac"] = layer_self / wall
    problems = list(checker.problems)
    if layer_self > wall * (1 + 1e-9):
        problems.append(f"layer self times {layer_self:.6f} s exceed the "
                        f"traced wall time {wall:.6f} s")
    recorder.write(spans_out)
    return Outcome(
        metrics={k: (v, layers.PER_LAYER_UNITS[k])
                 for k, v in metrics.items()},
        attempted=checker.runs, failed=checker.failed, checks=problems,
        reference_s=reference,
        details={"runs_untraced": len(plain), "runs_traced": runs,
                 "traced_wall_s": wall, "spans": len(spans),
                 "journal_digest": checker.digests[seed],
                 "slo_passed": all(checker.slo_passed),
                 "spans_file": str(spans_out.relative_to(ROOT))})
