"""All modulation schemes behind the common interface, AMPPM included.

This module is the bridge between the core AMPPM designer and the
baseline comparison machinery: :class:`AmppmScheme` wraps
:class:`repro.core.AmppmDesigner` in the :class:`ModulationScheme`
interface so the frame codec, the MAC and every experiment harness can
treat all schemes uniformly.
"""

from __future__ import annotations

from typing import Sequence

from .baselines.base import ModulationScheme, SchemeDesign
from .baselines.mppm import Mppm, MppmDesign
from .baselines.ookct import OokCt, OokCtDesign
from .baselines.oppm import Oppm, OppmDesign
from .baselines.vppm import Vppm, VppmDesign
from .core.ampdesign import AmppmDesign, AmppmDesigner
from .core.coding import SuperSymbolCodec
from .core.errormodel import SlotErrorModel
from .core.params import SystemConfig


class AmppmSchemeDesign(SchemeDesign):
    """An AMPPM super-symbol exposed through the scheme interface.

    Link constants of the design are kept once derived: the symbol plan
    per ``n_bits`` here, and the frame slot count per payload length in
    :attr:`frame_slots` (filled by :mod:`repro.sim.linkmodel`).
    """

    def __init__(self, design: AmppmDesign, config: SystemConfig):
        self.target_dimming = design.target_dimming
        self.design = design
        self.config = config
        self._codec = SuperSymbolCodec(design.super_symbol)
        #: payload bytes -> slots per frame
        self.frame_slots: dict[int, int] = {}
        #: n_bits -> (distinct patterns, the plan as indices into them)
        self._plans: dict[int, tuple[list, list[int]]] = {}

    @property
    def super_symbol(self):
        """The underlying super-symbol ⟨S1, m1, S2, m2⟩."""
        return self.design.super_symbol

    @property
    def achieved_dimming(self) -> float:
        return self.design.achieved_dimming

    def normalized_rate(self, errors: SlotErrorModel | None = None) -> float:
        return self.design.normalized_rate(errors)

    def payload_slots(self, n_bits: int) -> int:
        return self._codec.slots_for_bits(n_bits)

    def success_probability(self, n_bits: int, errors: SlotErrorModel) -> float:
        plan = self._plans.get(n_bits)
        if plan is None:
            patterns = [c.pattern for c in self._codec.symbol_plan(n_bits)]
            distinct = list(dict.fromkeys(patterns))
            plan = self._plans[n_bits] = (
                distinct, [distinct.index(p) for p in patterns])
        distinct, order = plan
        # One SER per distinct pattern, multiplied in plan order: the
        # same float as evaluating every symbol of the plan.
        clean = [1.0 - pattern.symbol_error_rate(errors)
                 for pattern in distinct]
        p_ok = 1.0
        for i in order:
            p_ok *= clean[i]
        return p_ok

    def encode_payload(self, bits: Sequence[int]) -> list[bool]:
        slots, _padding = self._codec.encode_stream(bits)
        return slots

    def decode_payload(self, slots: Sequence[bool], n_bits: int) -> list[int]:
        return self._codec.decode_stream(slots, n_bits)


class AmppmScheme(ModulationScheme):
    """AMPPM as a :class:`ModulationScheme` (the paper's contribution)."""

    name = "AMPPM"

    def __init__(self, config: SystemConfig | None = None,
                 errors: SlotErrorModel | None = None):
        super().__init__(config)
        self.designer = AmppmDesigner(self.config, errors)

    @property
    def supported_range(self) -> tuple[float, float]:
        return self.designer.supported_range

    def design(self, dimming: float) -> AmppmSchemeDesign:
        return AmppmSchemeDesign(self.designer.design(dimming), self.config)


def standard_schemes(config: SystemConfig | None = None,
                     errors: SlotErrorModel | None = None) -> list[ModulationScheme]:
    """The paper's comparison set: AMPPM, OOK-CT and MPPM(N=20)."""
    config = config if config is not None else SystemConfig()
    return [AmppmScheme(config, errors), OokCt(config), Mppm(config)]


__all__ = [
    "AmppmScheme",
    "AmppmSchemeDesign",
    "ModulationScheme",
    "Mppm",
    "MppmDesign",
    "OokCt",
    "OokCtDesign",
    "Oppm",
    "OppmDesign",
    "SchemeDesign",
    "Vppm",
    "VppmDesign",
    "standard_schemes",
]
