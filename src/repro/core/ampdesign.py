"""The AMPPM designer: from a required dimming level to the best
super-symbol (Section 4.2, Steps 1-3).

Pipeline, exactly as the paper stages it:

1. *Step 1* — bound the super-symbol length by the Type-I flicker
   constraint, N_max = f_tx / f_th (Eq. (4)).
2. *Step 2* — enumerate symbol patterns S(N, K) and abandon every one
   whose symbol error rate exceeds the configured bound (Fig. 8).
3. *Step 3* — build the throughput envelope with the slope walk
   (Fig. 9) and, for a required dimming level, multiplex the two
   envelope vertices that bracket it into a super-symbol whose dimming
   level lands within the perceived resolution of the target.

Designs come from a per-level table: a request is quantized to its
bucket ``memo_key(x)`` and answered with the design composed for the
bucket centre ``clamp(key * tau_perceived)``.  Entries fill lazily but
depend on their key alone, so :meth:`AmppmDesigner.design` is pure in
the request and one designer serves every consumer (the cells of a
fleet, the serving plane, the fuzz oracles).  The achieved level lies
within ``1.5 * tau_perceived`` of the request.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .envelope import Envelope, slope_walk_envelope
from .errormodel import SlotErrorModel
from .params import SystemConfig
from .supersymbol import SuperSymbol, compose
from .symbols import SymbolPattern, candidate_patterns


@dataclass(frozen=True)
class AmppmDesign:
    """The outcome of one designer invocation."""

    target_dimming: float
    super_symbol: SuperSymbol

    @property
    def achieved_dimming(self) -> float:
        """Dimming level the chosen super-symbol actually produces."""
        return self.super_symbol.dimming

    @property
    def dimming_error(self) -> float:
        """|achieved - target|; bounded by the designer's tolerance."""
        return abs(self.achieved_dimming - self.target_dimming)

    def normalized_rate(self, errors: SlotErrorModel | None = None) -> float:
        """Expected data bits per slot of the designed super-symbol."""
        return self.super_symbol.normalized_rate(errors)

    def data_rate(self, config: SystemConfig,
                  errors: SlotErrorModel | None = None) -> float:
        """Expected PHY data rate in bit/s."""
        return self.super_symbol.data_rate(config, errors)


class UnreachableDimmingError(ValueError):
    """Raised when a dimming level lies outside every candidate pattern."""

    def __init__(self, target: float, lo: float, hi: float):
        super().__init__(
            f"dimming level {target:.4f} outside the supported range "
            f"[{lo:.4f}, {hi:.4f}]"
        )
        self.target = target
        self.supported = (lo, hi)


class AmppmDesigner:
    """Designer binding a configuration to a channel condition.

    The candidate set and envelope are built once; :meth:`design` then
    looks the request's bucket up in the design table, composing the
    bucket-centre design on first use.
    """

    def __init__(self, config: SystemConfig | None = None,
                 errors: SlotErrorModel | None = None):
        self.config = config if config is not None else SystemConfig()
        self.errors = (errors if errors is not None
                       else SlotErrorModel.from_config(self.config))
        self._candidates = candidate_patterns(self.config, self.errors)
        if not self._candidates:
            raise ValueError(
                "no symbol pattern survives the SER bound; the channel is "
                "too noisy for MPPM at this configuration"
            )
        self._envelope = slope_walk_envelope(self._candidates, self.errors)
        #: bucket key -> the design composed for the bucket's centre
        self._table: dict[int, AmppmDesign] = {}

    @property
    def candidates(self) -> list[SymbolPattern]:
        """Patterns surviving Steps 1-2 (copy; the designer's set is fixed)."""
        return list(self._candidates)

    @property
    def envelope(self) -> Envelope:
        """The slope-walk throughput envelope over the candidates."""
        return self._envelope

    @property
    def supported_range(self) -> tuple[float, float]:
        """Dimming levels the designer can serve without compensation."""
        return self._envelope.dimming_range

    def memo_key(self, dimming: float) -> int:
        """The table bucket a dimming request quantizes to.

        Two requests share a design exactly when their clamped dimming
        levels round to the same multiple of the perceived resolution
        ``tau_perceived``.  Exposed so batching layers (the serve
        coalescer) can dedupe requests without re-deriving the rule.
        """
        lo, hi = self.supported_range
        return round(min(max(dimming, lo), hi) / self.config.tau_perceived)

    def bucket_centre(self, key: int) -> float:
        """The dimming level bucket ``key``'s design is composed for."""
        return self.clamp(key * self.config.tau_perceived)

    def design(self, dimming: float) -> AmppmDesign:
        """Best super-symbol for a required dimming level.

        The table design of the request's bucket: the same object for
        every request in the bucket, whatever was asked before.  Raises
        :class:`UnreachableDimmingError` outside the supported range —
        the caller decides whether to clamp (the smart-lighting
        controller does, because an LED pinned at 2% cannot modulate).
        """
        lo, hi = self.supported_range
        if not lo - 1e-9 <= dimming <= hi + 1e-9:
            raise UnreachableDimmingError(dimming, lo, hi)
        key = self.memo_key(dimming)
        design = self._table.get(key)
        if design is None:
            design = self._table[key] = self.compose_at(
                self.bucket_centre(key))
        return design

    def compose_at(self, dimming: float) -> AmppmDesign:
        """The uncached core: the design for exactly ``dimming`` (what
        :meth:`design` runs once per bucket, at the bucket centre)."""
        left, right = self._envelope.bracket(dimming)
        if left is right or _close(dimming, left.dimming):
            super_symbol = SuperSymbol.single(left.pattern)
        elif _close(dimming, right.dimming):
            super_symbol = SuperSymbol.single(right.pattern)
        else:
            try:
                super_symbol = compose(left.pattern, right.pattern, dimming,
                                       self.config)
            except ValueError:
                # The envelope vertices are too far apart to mix at the
                # required resolution under the repeat-count/flicker
                # caps (this happens near the dimming extremes, where
                # hull segments are long).  Trade rate for resolution:
                # search bracketing candidate pairs off the envelope.
                super_symbol = self._compose_fallback(dimming)
        return AmppmDesign(dimming, super_symbol)

    def design_many(self, dimmings: Sequence[float]) -> list[AmppmDesign]:
        """Designs for a batch of dimming levels, one core call per bucket.

        The batched entry point of the serving path: requests are
        answered from the design table, so the designer core runs at
        most once per *unique* bucket (table hits are free), and the
        designs come back aligned with ``dimmings``.  Every request in a
        bucket receives the *same* :class:`AmppmDesign` object, so the
        fan-out is byte-identical by construction.  Raises
        :class:`UnreachableDimmingError` on the first out-of-range
        request, before any design is computed, and :class:`ValueError`
        on an empty batch — a caller holding zero requests has a bug
        upstream (the serving coalescer never flushes an empty window),
        and silently returning ``[]`` would mask it.
        """
        if len(dimmings) == 0:
            raise ValueError("design_many needs at least one dimming "
                             "level; an empty batch is a caller bug")
        lo, hi = self.supported_range
        for dimming in dimmings:
            if not lo - 1e-9 <= dimming <= hi + 1e-9:
                raise UnreachableDimmingError(dimming, lo, hi)
        return [self.design(dimming) for dimming in dimmings]

    def _compose_fallback(self, dimming: float) -> SuperSymbol:
        """Best-rate composition from non-envelope candidate pairs.

        Considers the nearest candidates on each side of the target,
        ordered by the rate their mix would achieve, and returns the
        first pair that reaches the target within the perceived
        resolution.  Smaller-N patterns allow larger repeat counts and
        therefore finer mixing granularity.
        """
        below = sorted((p for p in self._candidates if p.dimming <= dimming),
                       key=lambda p: dimming - p.dimming)[:24]
        above = sorted((p for p in self._candidates if p.dimming >= dimming),
                       key=lambda p: p.dimming - dimming)[:24]
        if not below or not above:
            lo, hi = self.supported_range
            raise UnreachableDimmingError(dimming, lo, hi)

        def mixed_rate(pair: tuple[SymbolPattern, SymbolPattern]) -> float:
            first, second = pair
            span = second.dimming - first.dimming
            if span <= 0:
                return min(first.normalized_rate(self.errors),
                           second.normalized_rate(self.errors))
            w = (dimming - first.dimming) / span
            return ((1.0 - w) * first.normalized_rate(self.errors)
                    + w * second.normalized_rate(self.errors))

        pairs = sorted(
            ((lo_p, hi_p) for lo_p in below for hi_p in above),
            key=mixed_rate, reverse=True)
        for first, second in pairs:
            try:
                return compose(first, second, dimming, self.config)
            except ValueError:
                continue
        raise UnreachableDimmingError(dimming, *self.supported_range)

    def clamp(self, dimming: float) -> float:
        """Nearest supported dimming level to the request."""
        lo, hi = self.supported_range
        return min(max(dimming, lo), hi)

    def design_clamped(self, dimming: float) -> AmppmDesign:
        """Like :meth:`design` but clamps out-of-range requests."""
        return self.design(self.clamp(dimming))


def _close(a: float, b: float, eps: float = 1e-9) -> bool:
    return abs(a - b) <= eps
