"""The serve-ndjson workload: ``repro serve`` driven over NDJSON.

The server runs in its own process (``python -m repro serve --port 0``
for the timed run; :mod:`serve_launcher` with layer spans for the
traced run).  This process drives it from one asyncio thread over one
pipelined NDJSON connection:

* set-up: spawn until listening, then one adapt per designer bucket
  (at most :data:`WINDOW` outstanding), so every later design is a
  memo hit;
* phase (a): open loop at :data:`OPEN_RATE` adapt/s, each latency timed
  from the request's due time; p50 is taken in each
  :data:`LATENCY_WINDOW_S` window of due times and the median window
  is reported (whole-phase p50/p95/p99 are printed beside it);
* phase (b): closed loop with :data:`WINDOW` requests outstanding; the
  capacity is the median reply rate over its :data:`RATE_WINDOW_S`
  windows.

Requests are drawn from the seed: dimming U(0.05, 0.95), ambient
U(0, 1), distance U(1, 3.5) m.  Ambient stays at most 1 because the
server answers ``internal`` above 1 (the photodiode model raises),
although the protocol admits up to 1e6.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import random
import signal
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

import layers
from benchlib import (
    BENCH_DIR,
    ROOT,
    Outcome,
    median,
    now,
    process_peak_rss_mb,
    read_spans,
    reference_kernel,
    chunk_percentiles,
    summarize,
    window_rates,
)

#: open-loop arrival rate of phase (a), adapt requests per second
OPEN_RATE = 1000.0
#: requests outstanding in phase (b) and during the bucket sweep: half
#: the server's default per-connection queue limit, so none is shed
WINDOW = 32
#: width of the phase (b) windows whose median reply rate is reported
RATE_WINDOW_S = 0.5
#: width of the phase (a) windows whose median p50 is reported
LATENCY_WINDOW_S = 1.0
#: server set-ups per run (median reported)
SETUP_REPEATS = 5
#: the request ranges
DIMMING = (0.05, 0.95)
AMBIENT = (0.0, 1.0)
DISTANCE_M = (1.0, 3.5)

_SPAWN_TIMEOUT_S = 60.0
_REPLY_TIMEOUT_S = 30.0


def default_seed(workload: str) -> int:
    return 0


def params(workload: str) -> dict[str, Any]:
    return {"open_rate": OPEN_RATE, "window": WINDOW,
            "setup_repeats": SETUP_REPEATS, "dimming": DIMMING,
            "ambient": AMBIENT, "distance_m": DISTANCE_M}


# -- requests --------------------------------------------------------------


def request_stream(seed: int, phase: str) -> Iterator[tuple[str, dict]]:
    """Endless seeded adapt requests for one phase, as ``(id, body)``."""
    rng = random.Random(f"{seed}:{phase}")

    def draw(bounds: tuple[float, float]) -> float:
        lo, hi = bounds
        return lo + (hi - lo) * rng.random()

    i = 0
    while True:
        request_id = f"{phase}{i}"
        yield request_id, {"v": 1, "op": "adapt", "id": request_id,
                           "dimming": draw(DIMMING),
                           "ambient": draw(AMBIENT),
                           "distance_m": draw(DISTANCE_M)}
        i += 1


def sweep_requests(tau: float) -> list[tuple[str, dict]]:
    """One adapt per designer bucket the request range can reach."""
    lo = round(DIMMING[0] / tau)
    hi = round(DIMMING[1] / tau)
    return [(f"s{k}", {"v": 1, "op": "adapt", "id": f"s{k}",
                       "dimming": k * tau})
            for k in range(lo, hi + 1)]


def encode_line(body: dict) -> bytes:
    return (json.dumps(body, separators=(",", ":")) + "\n").encode()


# -- one pipelined connection ---------------------------------------------


class Exchange:
    """Book-keeping of every request sent on one connection.

    A reply is checked against its request: answered exactly once,
    ``ok``, the dimming echoed, and ``|dimming_error|`` within
    ``tolerance`` (the designer's perceived-step resolution).
    """

    def __init__(self, tolerance: float, clock: Callable[[], float] = now):
        self.tolerance = tolerance
        self.clock = clock
        #: request id -> (due time, send time), in send order
        self.sent: dict[str, tuple[float, float]] = {}
        self.dimming: dict[str, float] = {}
        self.received: dict[str, float] = {}
        self.bad: list[str] = []
        self.duplicates = 0
        #: called with each adapt reply's id (the closed loop's top-up)
        self.on_reply: Callable[[str], None] | None = None
        self._settled: asyncio.Future | None = None
        self._other: asyncio.Future | None = None

    @property
    def outstanding(self) -> int:
        return len(self.sent) - len(self.received)

    def note_sent(self, request_id: str, body: dict, due: float,
                  at: float) -> None:
        self.sent[request_id] = (due, at)
        self.dimming[request_id] = body["dimming"]

    def on_line(self, line: bytes) -> None:
        at = self.clock()
        reply = json.loads(line)
        request_id = reply.get("id")
        if request_id not in self.sent:
            if self._other is not None and not self._other.done():
                self._other.set_result(reply)
            return
        if request_id in self.received:
            self.duplicates += 1
            self.bad.append(f"{request_id}: answered twice")
            return
        self.received[request_id] = at
        problem = self._problem(request_id, reply)
        if problem:
            self.bad.append(f"{request_id}: {problem}")
        if self.on_reply is not None:
            self.on_reply(request_id)
        if (self._settled is not None and not self._settled.done()
                and self.outstanding == 0):
            self._settled.set_result(None)

    def _problem(self, request_id: str, reply: dict) -> str | None:
        if not reply.get("ok"):
            error = reply.get("error", {})
            return f"{error.get('code')}: {error.get('message')}"
        result = reply.get("result", {})
        if result.get("dimming") != self.dimming[request_id]:
            return (f"dimming echo {result.get('dimming')!r} != "
                    f"{self.dimming[request_id]!r}")
        error = result.get("dimming_error")
        if not isinstance(error, (int, float)) or abs(error) > self.tolerance:
            return f"dimming_error {error!r} beyond {self.tolerance:g}"
        return None

    async def settled(self, timeout: float) -> None:
        """Wait until every request sent so far has its reply."""
        if self.outstanding == 0:
            return
        self._settled = asyncio.get_running_loop().create_future()
        try:
            await asyncio.wait_for(self._settled, timeout)
        except asyncio.TimeoutError:
            pass  # the unanswered requests fail the checks
        finally:
            self._settled = None

    def expect_other(self) -> asyncio.Future:
        """A future for the next reply that answers no adapt request."""
        self._other = asyncio.get_running_loop().create_future()
        return self._other

    def latencies(self, prefix: str) -> list[float]:
        """Reply time minus due time for answered ids of one phase, in
        send (hence due-time) order."""
        return [self.received[i] - due
                for i, (due, _at) in self.sent.items()
                if i.startswith(prefix) and i in self.received]

    def lateness(self, prefix: str) -> list[float]:
        """Send time minus due time (how late the generator ran)."""
        return [at - due for i, (due, at) in self.sent.items()
                if i.startswith(prefix)]

    def unanswered(self) -> list[str]:
        return [i for i in self.sent if i not in self.received]


class Connection:
    """One NDJSON socket with a reader task feeding an :class:`Exchange`."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter, exchange: Exchange):
        self.reader = reader
        self.writer = writer
        self.exchange = exchange
        self.task = asyncio.get_running_loop().create_task(self._read())

    @classmethod
    async def open(cls, port: int, exchange: Exchange) -> "Connection":
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", port, limit=1 << 22)
        return cls(reader, writer, exchange)

    async def _read(self) -> None:
        while True:
            line = await self.reader.readline()
            if not line:
                return
            self.exchange.on_line(line)

    def send(self, request_id: str, body: dict, due: float) -> None:
        self.exchange.note_sent(request_id, body, due, self.exchange.clock())
        self.writer.write(encode_line(body))

    async def request(self, body: dict) -> dict:
        """A non-adapt request (``metrics``); its reply, or {} on timeout."""
        reply = self.exchange.expect_other()
        self.writer.write(encode_line(body))
        try:
            return await asyncio.wait_for(reply, _REPLY_TIMEOUT_S)
        except asyncio.TimeoutError:
            return {}

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except ConnectionError:
            pass
        self.task.cancel()
        try:
            await self.task
        except (asyncio.CancelledError, ConnectionError):
            pass


# -- load phases -----------------------------------------------------------


async def windowed(conn: Connection, requests: Iterator[tuple[str, dict]],
                   window: int, seconds: float | None = None) -> None:
    """Closed loop: keep ``window`` requests outstanding.

    Each reply sends the next request until ``requests`` runs out or
    ``seconds`` pass; then the stragglers are awaited.
    """
    exchange = conn.exchange
    finished = asyncio.get_running_loop().create_future()
    start = exchange.clock()
    stop_at = start + seconds if seconds is not None else math.inf
    exhausted = False

    def top_up(_request_id: str | None = None) -> None:
        nonlocal exhausted
        while (not exhausted and exchange.outstanding < window
               and exchange.clock() < stop_at):
            try:
                request_id, body = next(requests)
            except StopIteration:
                exhausted = True
                break
            conn.send(request_id, body, exchange.clock())
        if exchange.outstanding == 0 and not finished.done():
            finished.set_result(None)

    exchange.on_reply = top_up
    try:
        top_up()
        try:
            await asyncio.wait_for(finished,
                                   (seconds or 0.0) + _REPLY_TIMEOUT_S)
        except asyncio.TimeoutError:
            pass  # the unanswered requests fail the checks
    finally:
        exchange.on_reply = None


async def open_loop(conn: Connection, requests: Iterator[tuple[str, dict]],
                    rate: float, seconds: float) -> int:
    """Open loop: request ``i`` is due at ``start + i / rate``.

    Every request that has come due is sent as soon as the generator
    runs; a stall (in the server or here) shows as latency measured
    from the due time and as lateness of the send.  Returns the number
    of requests sent.
    """
    exchange = conn.exchange
    total = max(1, int(rate * seconds))
    start = exchange.clock() + 0.005
    i = 0
    while i < total:
        current = exchange.clock()
        while i < total and start + i / rate <= current:
            request_id, body = next(requests)
            conn.send(request_id, body, start + i / rate)
            i += 1
        if i < total:
            await asyncio.sleep(max(0.0, start + i / rate - exchange.clock()))
    await exchange.settled(_REPLY_TIMEOUT_S)
    return total


# -- the server process ----------------------------------------------------


def _env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    return env


class Server:
    """A spawned control-plane process and its listening port."""

    def __init__(self, proc: asyncio.subprocess.Process, port: int):
        self.proc = proc
        self.port = port

    @classmethod
    async def spawn(cls, argv: list[str]) -> "Server":
        proc = await asyncio.create_subprocess_exec(
            *argv, cwd=str(ROOT), env=_env(),
            stdout=asyncio.subprocess.PIPE, stderr=asyncio.subprocess.PIPE)
        try:
            line = await asyncio.wait_for(proc.stdout.readline(),
                                          _SPAWN_TIMEOUT_S)
            text = line.decode()
            if "listening on" not in text:
                raise RuntimeError(f"server did not start: {text!r}")
            port = int(text.split("listening on", 1)[1].split()[0]
                       .rsplit(":", 1)[1])
        except BaseException:
            await cls(proc, 0).stop()
            raise
        return cls(proc, port)

    def peak_rss_mb(self) -> float:
        return process_peak_rss_mb(self.proc.pid)

    async def stop(self) -> tuple[int | None, str]:
        """SIGTERM (graceful drain), then wait; kill if it hangs."""
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            _out, err = await asyncio.wait_for(self.proc.communicate(), 30.0)
        except asyncio.TimeoutError:
            self.proc.kill()
            _out, err = await self.proc.communicate()
        return self.proc.returncode, err.decode(errors="replace")


def serve_argv() -> list[str]:
    return [sys.executable, "-m", "repro", "serve", "--port", "0"]


def launcher_argv(spans_out: Path, summary_out: Path) -> list[str]:
    return [sys.executable, str(BENCH_DIR / "serve_launcher.py"),
            "--spans-out", str(spans_out), "--summary-out", str(summary_out)]


def shed_total(metrics_reply: dict) -> int:
    """``repro_serve_shed_total`` summed over reasons (0 if absent)."""
    text = metrics_reply.get("result", {}).get("prometheus", "")
    total = 0.0
    for line in text.splitlines():
        if line.startswith("repro_serve_shed_total"):
            total += float(line.rsplit(" ", 1)[1])
    return int(total)


def failed_count(exchange: Exchange) -> int:
    """Requests answered wrongly, twice, or not at all."""
    bad_ids = {entry.split(":", 1)[0] for entry in exchange.bad}
    return len(bad_ids | set(exchange.unanswered()))


@dataclass
class Session:
    """One server's life: set-up, optional load phases, shutdown."""

    setup_s: float
    attempted: int
    failed: int
    problems: list[str]
    latencies: list[float] = field(default_factory=list)
    lateness: list[float] = field(default_factory=list)
    closed_replies: int = 0
    #: replies per second in each whole window of phase (b)
    closed_rates: list[float] = field(default_factory=list)
    shed: int = 0
    peak_rss_mb: float = float("nan")

    @property
    def capacity(self) -> float:
        """Median reply rate over phase (b)'s windows."""
        return median(self.closed_rates) if self.closed_rates else 0.0


async def session(argv: list[str], seed: int, seconds: float | None,
                  tolerance: float) -> Session:
    """Set a server up and, when ``seconds`` is given, load it.

    Phase (a) and phase (b) get half of ``seconds`` each; afterwards
    the server's shed counter is read through the ``metrics`` op.
    The server always gets SIGTERM and must drain to exit code 0.
    """
    start = now()
    server = await Server.spawn(argv)
    exchange = Exchange(tolerance)
    result = Session(setup_s=0.0, attempted=0, failed=0, problems=[])
    try:
        conn = await Connection.open(server.port, exchange)
        try:
            await windowed(conn, iter(sweep_requests(tolerance)), WINDOW)
            result.setup_s = now() - start
            if seconds is not None:
                await open_loop(conn, request_stream(seed, "a"), OPEN_RATE,
                                seconds / 2)
                start_b = now()
                await windowed(conn, request_stream(seed, "b"), WINDOW,
                               seconds / 2)
                replies = [t for i, t in exchange.received.items()
                           if i.startswith("b")]
                result.closed_replies = len(replies)
                result.closed_rates = window_rates(replies, start_b,
                                                   seconds / 2, RATE_WINDOW_S)
                reply = await conn.request({"v": 1, "op": "metrics",
                                            "id": "metrics"})
                if not reply.get("ok"):
                    result.problems.append(f"metrics op failed: {reply!r}")
                result.shed = shed_total(reply)
                result.peak_rss_mb = server.peak_rss_mb()
        finally:
            await conn.close()
    finally:
        code, err = await server.stop()
    result.attempted = len(exchange.sent)
    result.failed = failed_count(exchange)
    result.problems += exchange.bad[:10]
    missing = exchange.unanswered()
    if missing:
        result.problems.append(f"{len(missing)} requests unanswered "
                               f"(first: {missing[0]})")
    if code != 0:
        result.problems.append(f"server exited {code}: {err.strip()[-300:]}")
    result.latencies = exchange.latencies("a")
    result.lateness = exchange.lateness("a")
    return result


def _tolerance() -> float:
    from repro.core.params import SystemConfig

    return SystemConfig().tau_perceived


async def _run(seed: int, seconds: float) -> Outcome:
    tolerance = _tolerance()
    reference = [reference_kernel()]
    sessions = [await session(serve_argv(), seed, None, tolerance)
                for _ in range(SETUP_REPEATS - 1)]
    reference.append(reference_kernel())
    loaded = await session(serve_argv(), seed, seconds, tolerance)
    reference.append(reference_kernel())
    sessions.append(loaded)
    setups = [s.setup_s for s in sessions]
    latency = summarize(loaded.latencies)
    late = summarize(loaded.lateness)
    per_window = int(OPEN_RATE * LATENCY_WINDOW_S)
    p50s = chunk_percentiles(loaded.latencies, per_window, 50.0)
    p95s = chunk_percentiles(loaded.latencies, per_window, 95.0)
    metrics = {
        "setup_s": (median(setups), "s"),
        "throughput_per_s": (loaded.capacity, "1/s"),
        "latency_p50_ms": (median(p50s) * 1e3, "ms"),
        "peak_rss_mb": (loaded.peak_rss_mb, "MB"),
    }
    return Outcome(
        metrics=metrics,
        attempted=sum(s.attempted for s in sessions),
        failed=sum(s.failed for s in sessions),
        checks=[p for s in sessions for p in s.problems],
        reference_s=reference,
        details={"setup_s": [round(s, 6) for s in setups],
                 "adapt_latency_ms": latency.as_dict(1e3),
                 "adapt_latency_window_median_ms": {
                     "p50": median(p50s) * 1e3, "p95": median(p95s) * 1e3,
                     "windows": len(p50s), "per_window": per_window},
                 "loadgen_late_ms": late.as_dict(1e3),
                 "closed_loop": {"replies": loaded.closed_replies,
                                 "window_rates": [round(r, 1) for r in
                                                  loaded.closed_rates]},
                 "shed": loaded.shed,
                 "samples": {"setup_s": len(setups),
                             "throughput_per_s": len(loaded.closed_rates),
                             "latency_p50_ms": f"{len(p50s)}x{per_window}"}})


def run(workload: str, seed: int, seconds: float) -> Outcome:
    """The untraced run: end-to-end metrics."""
    return asyncio.run(_run(seed, seconds))


async def _run_traced(seed: int, seconds: float, spans_out: Path) -> Outcome:
    tolerance = _tolerance()
    account_out = spans_out.with_name(
        spans_out.name.split(".")[0] + "-coalescer.json")
    spans_out.parent.mkdir(parents=True, exist_ok=True)
    reference = [reference_kernel()]
    plain = await session(serve_argv(), seed, seconds / 2, tolerance)
    reference.append(reference_kernel())
    traced = await session(launcher_argv(spans_out, account_out), seed,
                           seconds / 2, tolerance)
    reference.append(reference_kernel())
    spans = read_spans(spans_out)
    metrics = layers.serve_metrics(spans,
                                   json.loads(account_out.read_text()))
    metrics["serve.shed"] = float(plain.shed + traced.shed)
    metrics["loadgen.late_p99_ms"] = summarize(plain.lateness).p99 * 1e3
    # Time per request is the inverse of capacity.
    metrics["trace.overhead_frac"] = plain.capacity / traced.capacity - 1.0
    problems = plain.problems + traced.problems
    if metrics["trace.self_sum_frac"] > 1 + 1e-9:
        problems.append("serve span self times exceed the server's "
                        "traced wall time")
    return Outcome(
        metrics={k: (v, layers.PER_LAYER_UNITS[k])
                 for k, v in metrics.items()},
        attempted=plain.attempted + traced.attempted,
        failed=plain.failed + traced.failed, checks=problems,
        reference_s=reference,
        details={"spans": len(spans),
                 "capacity_untraced": plain.capacity,
                 "capacity_traced": traced.capacity,
                 "spans_file": str(spans_out.relative_to(ROOT))})


def run_traced(workload: str, seed: int, seconds: float,
               spans_out: Path) -> Outcome:
    """The traced run: untraced server, then the span-wrapped server."""
    return asyncio.run(_run_traced(seed, seconds, spans_out))
