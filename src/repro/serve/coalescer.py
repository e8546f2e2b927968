"""Deadline-driven micro-batching of concurrent adapt requests.

The designer's table is keyed by quantized dimming bucket
(:meth:`~repro.core.AmppmDesigner.memo_key`), so N concurrent requests
that quantize to the same bucket need exactly one designer invocation —
the rest is fan-out.  The coalescer exploits that: the first request of
a window arms a deadline; every request arriving before it joins the
batch; at the deadline the batch executes one design call per *unique*
bucket and every waiter in a bucket receives the *same* result object.

The algebra the property tests pin:

* one designer call per unique bucket per flush, no matter how many
  requests fold into it;
* every waiter of a bucket gets an identical (``is``-identical, hence
  byte-identical once serialized) result;
* results never cross buckets.

``design_fn``/``bucket_fn`` are injected, so the engine is swappable
for a counting fake in tests; :class:`AdaptCoalescer` itself never
inspects the results it routes.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Hashable

from ..obs.metrics import MetricsRegistry, NullRegistry

#: Latency-ish histogram bounds for batch sizes (requests per flush).
_BATCH_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0)


class AdaptCoalescer:
    """Folds concurrent requests into one designer call per bucket.

    ``window_s`` is the coalescing deadline: how long the first request
    of a batch may wait for company (0 disables batching — every
    request becomes its own designer call, the one-call-per-request
    baseline the serve bench races against).  ``max_batch`` bounds how
    many requests a window may hold before it flushes early.
    """

    def __init__(self, design_fn: Callable[[float], Any],
                 bucket_fn: Callable[[float], Hashable], *,
                 window_s: float = 0.002, max_batch: int = 512,
                 registry: MetricsRegistry | NullRegistry | None = None):
        if window_s < 0:
            raise ValueError("window_s cannot be negative")
        if max_batch < 1:
            raise ValueError("max_batch must be positive")
        self._design_fn = design_fn
        self._bucket_fn = bucket_fn
        self.window_s = window_s
        self.max_batch = max_batch
        self._registry = registry if registry is not None else NullRegistry()
        self._waiters: dict[Hashable, list[asyncio.Future]] = {}
        self._representative: dict[Hashable, float] = {}
        self._pending = 0
        self._deadline: asyncio.TimerHandle | None = None
        # Lifetime stats (also mirrored into the registry).
        self.requests = 0
        self.designer_calls = 0
        self.flushes = 0

    @property
    def pending(self) -> int:
        """Requests currently parked waiting for the deadline."""
        return self._pending

    @property
    def coalesce_ratio(self) -> float:
        """Requests served per designer call (1.0 = no coalescing yet)."""
        if self.designer_calls == 0:
            return 1.0
        return self.requests / self.designer_calls

    def _design(self, dimming: float) -> Any:
        self.designer_calls += 1
        self._registry.counter(
            "repro_serve_designer_calls_total",
            help="designer invocations after coalescing").inc()
        return self._design_fn(dimming)

    async def submit(self, dimming: float) -> Any:
        """Submit one request; resolves with its bucket's design.

        Exceptions from the designer propagate to every waiter of the
        failing bucket (and only that bucket).
        """
        self.requests += 1
        self._registry.counter("repro_serve_adapt_requests_total",
                               help="adapt requests submitted").inc()
        if self.window_s == 0.0:
            return self._design(dimming)
        loop = asyncio.get_running_loop()
        key = self._bucket_fn(dimming)
        future: asyncio.Future = loop.create_future()
        self._waiters.setdefault(key, []).append(future)
        self._representative.setdefault(key, dimming)
        self._pending += 1
        self._registry.gauge("repro_serve_queue_depth",
                             help="requests parked in the coalescing "
                                  "window").set(self._pending)
        if self._pending >= self.max_batch:
            self.flush()
        elif self._deadline is None:
            self._deadline = loop.call_later(self.window_s, self.flush)
        return await future

    def flush(self) -> None:
        """Execute the parked batch now (deadline or size trigger)."""
        if self._deadline is not None:
            self._deadline.cancel()
            self._deadline = None
        if not self._waiters:
            return
        waiters, self._waiters = self._waiters, {}
        reps, self._representative = self._representative, {}
        batch_size = self._pending
        self._pending = 0
        self.flushes += 1
        self._registry.gauge("repro_serve_queue_depth",
                             help="requests parked in the coalescing "
                                  "window").set(0)
        self._registry.histogram(
            "repro_serve_coalesce_batch",
            help="requests folded per coalescer flush",
            buckets=_BATCH_BUCKETS).observe(batch_size)
        for key, futures in waiters.items():
            try:
                result = self._design(reps[key])
            except Exception as exc:  # noqa: BLE001 — routed to waiters
                for future in futures:
                    if not future.done():
                        future.set_exception(exc)
                continue
            for future in futures:
                if not future.done():
                    future.set_result(result)

    async def drain(self) -> None:
        """Flush everything parked and give waiters a chance to run."""
        self.flush()
        await asyncio.sleep(0)
