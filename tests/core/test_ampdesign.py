"""The AMPPM designer: Steps 1-3 end to end."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AmppmDesigner,
    SlotErrorModel,
    SystemConfig,
    UnreachableDimmingError,
)


class TestDesign:
    def test_dimming_error_bounded_everywhere(self, designer, config):
        for level in np.arange(0.05, 0.951, 0.005):
            design = designer.design(float(level))
            assert design.dimming_error <= config.tau_perceived + 1e-12

    def test_flicker_bound_always_respected(self, designer, config):
        for level in np.arange(0.05, 0.951, 0.01):
            design = designer.design(float(level))
            assert design.super_symbol.n_slots <= config.n_max_super

    def test_at_most_two_patterns(self, designer):
        # The paper: "at most two different symbol patterns are required".
        for level in (0.1, 0.15, 0.33, 0.5, 0.77, 0.9):
            s = designer.design(level).super_symbol
            kinds = {p for p in s.symbols()}
            assert len(kinds) <= 2

    def test_exact_vertex_uses_single_pattern(self, designer):
        vertex = designer.envelope.points[len(designer.envelope.points) // 2]
        design = designer.design(vertex.dimming)
        assert design.super_symbol.m2 == 0

    def test_rate_tracks_envelope(self, designer):
        # Between vertices the design's rate is close to the chord.
        for level in (0.3, 0.45, 0.62, 0.8):
            design = designer.design(level)
            envelope_rate = designer.envelope.rate_at(level)
            achieved = design.normalized_rate(designer.errors)
            assert achieved >= 0.93 * envelope_rate

    def test_rate_peaks_at_half(self, designer):
        mid = designer.design(0.5).normalized_rate()
        lo = designer.design(0.1).normalized_rate()
        hi = designer.design(0.9).normalized_rate()
        assert mid > lo
        assert mid > hi

    def test_roughly_symmetric(self, designer):
        for level in (0.1, 0.2, 0.3, 0.4):
            low = designer.design(level).normalized_rate()
            high = designer.design(1.0 - level).normalized_rate()
            assert low == pytest.approx(high, rel=0.15)

    def test_out_of_range_raises(self, designer):
        lo, hi = designer.supported_range
        with pytest.raises(UnreachableDimmingError):
            designer.design(lo / 2)
        with pytest.raises(UnreachableDimmingError):
            designer.design((1 + hi) / 2)

    def test_clamped_design(self, designer):
        lo, hi = designer.supported_range
        assert designer.design_clamped(0.001).achieved_dimming == pytest.approx(
            lo, abs=designer.config.tau_perceived)

    def test_cache_returns_same_object(self, designer):
        assert designer.design(0.42) is designer.design(0.42)

    def test_candidates_are_copies(self, designer):
        candidates = designer.candidates
        candidates.clear()
        assert designer.candidates


class TestMemoKey:
    def test_matches_the_memo_bucket(self, designer, config):
        # Two requests share a design exactly when their keys agree.
        a, b = 0.5, 0.5 + config.tau_perceived / 4
        assert designer.memo_key(a) == designer.memo_key(b)
        assert designer.design(a) is designer.design(b)

    def test_distinct_buckets_get_distinct_designs(self, designer, config):
        a = 0.5
        b = 0.5 + 2 * config.tau_perceived
        assert designer.memo_key(a) != designer.memo_key(b)

    def test_clamps_like_design_clamped(self, designer):
        lo, hi = designer.supported_range
        assert designer.memo_key(-1.0) == designer.memo_key(lo)
        assert designer.memo_key(2.0) == designer.memo_key(hi)


class TestTablePurity:
    """design(x) is a pure function of x's bucket, whatever came before."""

    @given(history=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12),
           x=st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_answer_ignores_request_history(self, designer, history, x):
        fresh = AmppmDesigner(designer.config)
        for level in history:
            fresh.design_clamped(level)
        answer = fresh.design_clamped(x)
        centre = fresh.bucket_centre(fresh.memo_key(x))
        assert answer is fresh.design(centre)
        assert answer.target_dimming == centre
        # The session designer has served an unrelated history.
        assert answer == designer.design_clamped(x)

    def test_bucket_centre_maps_back_to_its_bucket(self, designer):
        lo, hi = designer.supported_range
        for key in range(designer.memo_key(lo), designer.memo_key(hi) + 1):
            assert designer.memo_key(designer.bucket_centre(key)) == key

    def test_worst_case_request_error_within_one_and_a_half_tau(
            self, designer, config):
        """Within tau of the bucket centre, which is within tau / 2 of
        the request: 4.43e-3 at the paper defaults (tau = 3e-3)."""
        lo, hi = designer.supported_range
        worst = max(abs(designer.design(x).achieved_dimming - x)
                    for x in np.linspace(lo, hi, 200_000).tolist())
        assert worst <= 1.5 * config.tau_perceived


class TestDesignMany:
    def test_matches_individual_designs(self, designer):
        levels = [0.2, 0.5, 0.2, 0.81, 0.5]
        batch = designer.design_many(levels)
        assert [d.target_dimming for d in batch] == \
            [designer.design(lv).target_dimming for lv in levels]

    def test_same_bucket_shares_the_same_object(self, config):
        fresh = AmppmDesigner(config)
        tau = config.tau_perceived
        center = fresh.memo_key(0.5) * tau    # an exact bucket center
        batch = fresh.design_many([center, center + tau / 4, 0.7,
                                   center - tau / 4])
        assert batch[0] is batch[1] is batch[3]
        assert batch[2] is not batch[0]

    def test_one_core_call_per_unique_bucket(self, config):
        fresh = AmppmDesigner(config)
        composed = _count_core_calls(fresh)
        levels = [0.3, 0.3, 0.6, 0.6, 0.6, 0.9]
        fresh.design_many(levels)
        assert sorted(composed) == sorted(
            {fresh.bucket_centre(fresh.memo_key(lv)) for lv in levels})

    def test_rejects_out_of_range_before_designing(self, config):
        fresh = AmppmDesigner(config)
        composed = _count_core_calls(fresh)
        with pytest.raises(UnreachableDimmingError):
            fresh.design_many([0.5, 0.001])
        assert composed == []

    def test_empty_batch_is_rejected(self, designer):
        """An empty batch is a caller bug, not a no-op."""
        with pytest.raises(ValueError, match="at least one dimming"):
            designer.design_many([])

    def test_duplicate_requests_share_one_object(self, config):
        """Byte-for-byte duplicates collapse to a single design object."""
        fresh = AmppmDesigner(config)
        composed = _count_core_calls(fresh)
        batch = fresh.design_many([0.47, 0.47, 0.47])
        assert batch[0] is batch[1] is batch[2]
        assert len(composed) == 1


def _count_core_calls(designer: AmppmDesigner) -> list[float]:
    """Record every level the designer's uncached core runs at."""
    composed: list[float] = []
    core = designer.compose_at

    def counting(dimming):
        composed.append(dimming)
        return core(dimming)

    designer.compose_at = counting
    return composed


class TestConfigurationEffects:
    def test_too_noisy_channel_rejected(self):
        noisy = SlotErrorModel(0.4, 0.4)
        with pytest.raises(ValueError):
            AmppmDesigner(SystemConfig(), noisy)

    def test_smaller_cap_narrows_range(self):
        wide = AmppmDesigner(SystemConfig(n_cap=50))
        narrow = AmppmDesigner(SystemConfig(n_cap=10))
        assert narrow.supported_range[0] > wide.supported_range[0]
        assert narrow.supported_range[1] < wide.supported_range[1]

    def test_ideal_channel_designer(self):
        designer = AmppmDesigner(SystemConfig(), SlotErrorModel.ideal())
        design = designer.design(0.5)
        assert design.normalized_rate() > 0.9

    def test_designs_reproducible_across_instances(self, config):
        a = AmppmDesigner(config)
        b = AmppmDesigner(config)
        for level in (0.13, 0.5, 0.87):
            assert a.design(level).super_symbol == b.design(level).super_symbol
