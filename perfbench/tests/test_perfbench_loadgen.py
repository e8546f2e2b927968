"""The serve load generator against fake NDJSON servers.

The fake server answers every adapt line with an ``ok`` reply that
echoes the dimming.  It runs on the generator's own event loop, so a
blocking stall in it also holds the generator back: the stall must
show both as latency (timed from each request's due time) and as the
generator's lateness.
"""

from __future__ import annotations

import asyncio
import json
import time

import pytest

from benchlib import summarize
from serve_workload import (
    Connection,
    Exchange,
    failed_count,
    open_loop,
    request_stream,
    windowed,
)

RATE = 1000.0
SECONDS = 0.3
STALL_S = 0.15


async def _fake_server(stall_at: int | None, reply=None):
    """Start a fake server; ``stall_at`` blocks the loop on that request."""
    count = 0

    async def handle(reader, writer):
        nonlocal count
        while True:
            line = await reader.readline()
            if not line:
                break
            request = json.loads(line)
            count += 1
            if count == stall_at:
                time.sleep(STALL_S)  # a deliberate stall of the whole loop
            body = (reply(request) if reply is not None else
                    {"v": 1, "op": "adapt", "ok": True, "id": request["id"],
                     "result": {"dimming": request["dimming"],
                                "dimming_error": 0.0}})
            for item in (body if isinstance(body, list) else [body]):
                writer.write((json.dumps(item) + "\n").encode())
        writer.close()

    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[1]


async def _open_loop_run(stall_at):
    server, port = await _fake_server(stall_at)
    exchange = Exchange(tolerance=0.003)
    conn = await Connection.open(port, exchange)
    try:
        sent = await open_loop(conn, request_stream(7, "a"), RATE, SECONDS)
    finally:
        await conn.close()
        server.close()
        await server.wait_closed()
    return sent, exchange


def test_stall_shows_as_latency_and_lateness():
    sent, stalled = asyncio.run(_open_loop_run(stall_at=100))
    _, steady = asyncio.run(_open_loop_run(stall_at=None))
    assert sent == int(RATE * SECONDS)
    for exchange in (stalled, steady):
        assert failed_count(exchange) == 0
        assert len(exchange.received) == sent

    stalled_latency = summarize(stalled.latencies("a"))
    steady_latency = summarize(steady.latencies("a"))
    stalled_late = summarize(stalled.lateness("a"))
    steady_late = summarize(steady.lateness("a"))
    # The request held up by the stall waited the whole stall...
    assert max(stalled.latencies("a")) >= STALL_S * 0.9
    # ...and every request that came due meanwhile left late, by up
    # to the stall: about STALL_S * RATE of them, so p99 sees it.
    assert stalled_late.p99 >= STALL_S * 0.5
    assert stalled_late.beyond_p99 >= 1
    assert stalled_latency.p99 >= STALL_S * 0.5
    assert stalled_late.p99 > 2 * steady_late.p99
    assert stalled_latency.p95 > steady_latency.p95


def test_due_times_follow_the_schedule_not_the_sends():
    _, exchange = asyncio.run(_open_loop_run(stall_at=None))
    dues = [due for due, _at in exchange.sent.values()]
    gaps = {round(b - a, 9) for a, b in zip(dues, dues[1:])}
    assert gaps == {round(1.0 / RATE, 9)}
    assert all(at >= due for due, at in exchange.sent.values())


def test_bad_replies_count_as_failed():
    def reply(request):
        i = int(request["id"][1:])
        ok = {"v": 1, "op": "adapt", "ok": True, "id": request["id"],
              "result": {"dimming": request["dimming"],
                         "dimming_error": 0.0}}
        if i == 0:
            return {"v": 1, "ok": False, "id": request["id"],
                    "error": {"code": "internal", "message": "boom"}}
        if i == 1:
            return [ok, ok]  # answered twice
        if i == 2:
            return {**ok, "result": {"dimming": request["dimming"],
                                     "dimming_error": 0.01}}
        if i == 3:
            return {**ok, "result": {"dimming": 0.5, "dimming_error": 0.0}}
        return ok

    async def run():
        server, port = await _fake_server(None, reply)
        exchange = Exchange(tolerance=0.003)
        conn = await Connection.open(port, exchange)
        stream = request_stream(3, "b")
        requests = iter([next(stream) for _ in range(10)])
        try:
            await windowed(conn, requests, window=4)
            await asyncio.sleep(0.05)  # let the duplicate arrive
        finally:
            await conn.close()
            server.close()
            await server.wait_closed()
        return exchange

    exchange = asyncio.run(run())
    assert failed_count(exchange) == 4
    assert exchange.duplicates == 1
    joined = " | ".join(exchange.bad)
    assert "internal: boom" in joined
    assert "answered twice" in joined
    assert "dimming_error" in joined
    assert "dimming echo" in joined


@pytest.mark.parametrize("phase", ["a", "b"])
def test_request_stream_is_seeded(phase):
    def draw(seed):
        return [body for _, (_id, body) in zip(range(50),
                                                 request_stream(seed, phase))]

    first = draw(5)
    assert first == draw(5)
    assert first != draw(6)
    for body in first:
        assert 0.05 <= body["dimming"] <= 0.95
        assert 0.0 <= body["ambient"] <= 1.0
        assert 1.0 <= body["distance_m"] <= 3.5
