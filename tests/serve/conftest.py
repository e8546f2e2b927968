"""Serve fixtures: one shared engine (designer tables are expensive)."""

from __future__ import annotations

import pytest

from repro.serve import AdaptEngine


@pytest.fixture(scope="session")
def engine(config, designer) -> AdaptEngine:
    """An engine over the session designer (its table is pure)."""
    return AdaptEngine(config, designer)
