"""The benchmark's measuring pieces: spans, self time, percentiles,
windows, fingerprints, host-speed correction."""

import signal
import statistics
import time

import pytest

from benchlib import (
    HostSpeedSampler,
    Span,
    SpanRecorder,
    children_named,
    chunk_percentiles,
    fingerprint,
    fold,
    percentile,
    summarize,
    window_rates,
)


class FakeClock:
    """A clock that advances one unit per reading."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


class TestSelfTime:
    def test_nested_tree_by_hand(self):
        # root [0, 10] > a [1, 4] > b [2, 3];  root > c [5, 9]
        spans = [Span(1, "root", 0.0, 10.0, -1), Span(2, "a", 1.0, 4.0, 1),
                 Span(3, "b", 2.0, 3.0, 2), Span(4, "c", 5.0, 9.0, 1)]
        folded = fold(spans)
        assert folded.self_of("root") == pytest.approx(3.0)
        assert folded.self_of("a") == pytest.approx(2.0)
        assert folded.self_of("b") == pytest.approx(1.0)
        assert folded.self_of("c") == pytest.approx(4.0)
        assert folded.incl("a") == pytest.approx(3.0)
        assert folded.root_s == pytest.approx(10.0)
        assert folded.self_total_s == pytest.approx(folded.root_s)

    def test_same_name_spans_accumulate(self):
        spans = [Span(1, "run", 0.0, 6.0, -1), Span(2, "leaf", 1.0, 2.0, 1),
                 Span(3, "leaf", 3.0, 5.0, 1), Span(4, "run", 10.0, 11.0, -1)]
        folded = fold(spans)
        assert folded.count("leaf") == 2
        assert folded.count("run") == 2
        assert folded.self_of("run") == pytest.approx(3.0 + 1.0)
        assert folded.root_s == pytest.approx(7.0)

    def test_recorder_nests_synchronous_calls(self):
        recorder = SpanRecorder(clock=FakeClock())

        def inner(x):
            return x + 1

        traced_inner = recorder.wrap("inner", inner)

        def outer(x):
            return traced_inner(x) * traced_inner(x)

        traced_outer = recorder.wrap("outer", outer)
        assert traced_outer(1) == 4
        by_name = {}
        for s in recorder.spans:
            by_name.setdefault(s.name, []).append(s)
        (root,) = by_name["outer"]
        assert root.parent == -1
        assert [s.parent for s in by_name["inner"]] == [root.id, root.id]
        folded = fold(recorder.spans)
        # Six clock readings: outer [1, 6], inner [2, 3] and [4, 5].
        assert folded.root_s == pytest.approx(5.0)
        assert folded.self_of("outer") == pytest.approx(3.0)
        assert folded.self_of("inner") == pytest.approx(2.0)
        assert children_named(recorder.spans, "outer", "inner") == {root.id: 2}

    def test_exception_still_closes_the_span(self):
        recorder = SpanRecorder(clock=FakeClock())

        def boom():
            raise KeyError("x")

        with pytest.raises(KeyError):
            recorder.wrap("boom", boom)()
        ok = recorder.wrap("ok", lambda: 7)
        assert ok() == 7
        assert [s.parent for s in recorder.spans] == [-1, -1]

    def test_result_hook_sees_each_return_value(self):
        seen = []
        traced = SpanRecorder().wrap("f", lambda n: n * 2, seen.append)
        traced(3)
        traced(5)
        assert seen == [6, 10]

    def test_detached_spans_stay_out_of_the_self_fold(self):
        spans = [Span(1, "root", 0.0, 4.0, -1),
                 Span(2, "wait", 0.0, 100.0, -1, detached=True),
                 Span(3, "child", 1.0, 2.0, 1)]
        folded = fold(spans)
        assert folded.incl("wait") == pytest.approx(100.0)
        assert "wait" not in folded.self_s
        assert folded.root_s == pytest.approx(4.0)
        assert folded.self_total_s == pytest.approx(4.0)


class TestPercentiles:
    def test_matches_inclusive_quantiles(self):
        values = [float(v) for v in range(1, 101)]
        for q, got in zip((25, 50, 75),
                          statistics.quantiles(values, n=4,
                                               method="inclusive")):
            assert percentile(values, q) == pytest.approx(got)

    def test_summary_reports_sample_counts(self):
        values = [float(v) for v in range(1, 101)]
        summary = summarize(values)
        assert summary.n == 100
        assert summary.p50 == pytest.approx(50.5)
        assert summary.p95 == pytest.approx(95.05)
        assert summary.p99 == pytest.approx(99.01)
        assert summary.beyond_p95 == 5
        assert summary.beyond_p99 == 1
        row = summary.as_dict(scale=1e3)
        assert row["n"] == 100 and row["p50"] == pytest.approx(50500.0)

    def test_order_does_not_matter(self):
        assert percentile([3.0, 1.0, 2.0], 50) == 2.0
        assert percentile([5.0], 99) == 5.0

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 101)


class TestFingerprint:
    PARAMS = {"scenario": "office-day", "regions": 1}

    def test_stable_for_the_same_inputs(self):
        first = fingerprint("office-day", dict(self.PARAMS), 20, "src-a")
        again = fingerprint("office-day",
                            dict(reversed(list(self.PARAMS.items()))), 20,
                            "src-a")
        assert first == again
        assert len(first) == 16

    def test_moves_with_seed_params_and_bench_source(self):
        base = fingerprint("office-day", self.PARAMS, 20, "src-a")
        assert fingerprint("office-day", self.PARAMS, 21, "src-a") != base
        assert fingerprint("office-day", {**self.PARAMS, "regions": 2}, 20,
                           "src-a") != base
        assert fingerprint("office-day", self.PARAMS, 20, "src-b") != base
        assert fingerprint("serve-ndjson", self.PARAMS, 20, "src-a") != base

    def test_default_source_digest_is_stable_within_a_checkout(self):
        assert (fingerprint("office-day", self.PARAMS, 20)
                == fingerprint("office-day", self.PARAMS, 20))


class TestWindows:
    def test_chunk_percentiles_drop_the_partial_tail(self):
        values = [float(v) for v in range(25)]
        assert chunk_percentiles(values, 10, 50.0) == [4.5, 14.5]

    def test_short_sample_is_one_chunk(self):
        assert chunk_percentiles([3.0, 1.0, 2.0], 10, 50.0) == [2.0]

    def test_window_rates_count_whole_windows(self):
        times = [0.1, 0.2, 0.6, 1.1, 1.2, 1.3, 1.4, 2.05]
        assert window_rates(times, 0.0, 2.1, 0.5) == [4.0, 2.0, 8.0, 0.0]

    def test_short_span_is_one_window(self):
        assert window_rates([0.1, 0.2, 0.9], 0.0, 0.3, 1.0) == \
            pytest.approx([2 / 0.3])


class TestHostSpeed:
    def test_speed_is_the_mean_of_nominal_over_samples(self):
        sampler = HostSpeedSampler(nominal=2.0)
        # work per wall second: full speed half the time, half speed
        # the other half
        sampler.samples = [2.0, 4.0]
        assert sampler.speed() == pytest.approx(0.75)

    def test_corrected_takes_probe_time_out_then_scales(self):
        sampler = HostSpeedSampler(nominal=1.0)
        sampler.samples = [2.0, 2.0]
        sampler.spent = 1.0
        assert sampler.corrected(11.0) == pytest.approx(5.0)

    def test_alarms_sample_during_the_run_and_are_undone(self):
        before = signal.getsignal(signal.SIGALRM)
        probes = []
        with HostSpeedSampler(interval=0.002,
                              probe=lambda: probes.append(1)) as sampler:
            start = time.perf_counter()
            while time.perf_counter() - start < 0.1:
                pass
        # the entry and exit probes plus at least one timer-driven one
        assert len(sampler.samples) == len(probes) >= 3
        assert sampler.spent > 0.0
        assert signal.getsignal(signal.SIGALRM) is before
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
