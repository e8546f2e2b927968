"""Fuzzer-shaped input against both transports.

The hardening contract: oversized, truncated, and invalid-UTF-8 NDJSON
frames and garbage HTTP bodies yield a *structured* protocol error on a
surviving connection — or a clean close — and never an unhandled task
exception.  Every test installs a loop exception handler and asserts it
stayed silent; the seeded garbage sprays are the fuzz half, the named
cases pin the specific failure shapes the fuzzer first surfaced.
"""

import asyncio
import contextlib
import json

import numpy as np
import pytest

from repro.serve import ControlPlane, ServeConfig
from repro.serve.protocol import E_BAD_REQUEST


@contextlib.asynccontextmanager
async def running(engine, registry=None, **knobs):
    """A started plane over the shared engine; always stopped."""
    plane = ControlPlane(ServeConfig(**knobs), config=engine.config,
                         registry=registry, engine=engine)
    await plane.start()
    try:
        yield plane
    finally:
        if not plane.draining:
            await plane.stop()


async def http_exchange(reader, writer, method, path, body=b""):
    """One keep-alive HTTP round trip; returns (status, headers, body)."""
    head = f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
    if body:
        head += f"Content-Length: {len(body)}\r\n"
    head += "\r\n"
    writer.write(head.encode() + body)
    await writer.drain()
    status_line = await reader.readline()
    status = int(status_line.split()[1])
    headers = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode().partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0"))
    data = await reader.readexactly(length) if length else b""
    return status, headers, data


@contextlib.asynccontextmanager
async def watched(engine, **knobs):
    """A running plane plus a recorder of unhandled loop exceptions."""
    unhandled: list[str] = []
    loop = asyncio.get_running_loop()

    def record(loop, context):
        if isinstance(context.get("exception"), asyncio.CancelledError):
            return  # teardown cancellation noise, not a task crash
        unhandled.append(context.get("message", str(context)))

    previous = loop.get_exception_handler()
    loop.set_exception_handler(record)
    try:
        async with running(engine, **knobs) as plane:
            yield plane, unhandled
            # Let any stray task finish crashing before we look.
            await asyncio.sleep(0)
    finally:
        loop.set_exception_handler(previous)


async def connect(plane):
    return await asyncio.open_connection(plane.host, plane.port)


async def ndjson_roundtrip(reader, writer, obj) -> dict:
    writer.write(json.dumps(obj).encode() + b"\n")
    await writer.drain()
    return json.loads(await reader.readline())


VALID = {"v": 1, "op": "adapt", "dimming": 0.5, "id": "probe"}


class TestNdjsonMalformed:
    def test_invalid_utf8_gets_structured_error_and_survives(self, engine):
        async def run():
            async with watched(engine) as (plane, unhandled):
                reader, writer = await connect(plane)
                writer.write(b'{"v": 1, "op": "\xff\xfe adapt"}\n')
                await writer.drain()
                error = json.loads(await reader.readline())
                # The connection survived: a valid request still works.
                reply = await ndjson_roundtrip(reader, writer, VALID)
                writer.close()
                return error, reply, unhandled

        error, reply, unhandled = asyncio.run(run())
        assert error["ok"] is False
        assert error["error"]["code"] == E_BAD_REQUEST
        assert "UTF-8" in error["error"]["message"]
        assert reply["ok"] is True and reply["id"] == "probe"
        assert unhandled == []

    def test_oversized_line_gets_error_or_clean_close(self, engine):
        async def run():
            async with watched(engine) as (plane, unhandled):
                reader, writer = await connect(plane)
                # Establish NDJSON transport with a valid frame first,
                # then overrun the stream limit on the next line.  The
                # server replies with a structured error and closes
                # while we are still flushing, so the client may see a
                # reset instead of the error frame — both are fine; an
                # unhandled server-side exception is not.
                reply = await ndjson_roundtrip(reader, writer, VALID)
                error = None
                try:
                    writer.write(b'{"pad": "' + b"x" * (1 << 20))
                    await writer.drain()
                    writer.write_eof()
                    line = await reader.readline()
                    if line:
                        error = json.loads(line)
                except ConnectionError:
                    pass
                writer.close()
                # The plane survived and still serves new connections.
                reader2, writer2 = await connect(plane)
                probe = await ndjson_roundtrip(reader2, writer2, VALID)
                writer2.close()
                return reply, error, probe, unhandled

        reply, error, probe, unhandled = asyncio.run(run())
        assert reply["ok"] is True
        if error is not None:
            assert error["ok"] is False
            assert error["error"]["code"] == E_BAD_REQUEST
            assert "too long" in error["error"]["message"]
        assert probe["ok"] is True
        assert unhandled == []

    def test_oversized_first_line_closes_cleanly(self, engine):
        async def run():
            async with watched(engine) as (plane, unhandled):
                reader, writer = await connect(plane)
                leftover = b""
                try:
                    writer.write(b"{" * (1 << 20))
                    await writer.drain()
                    writer.write_eof()
                    leftover = await reader.read()
                except ConnectionError:
                    pass  # server closed mid-flush: also a clean close
                writer.close()
                reader2, writer2 = await connect(plane)
                probe = await ndjson_roundtrip(reader2, writer2, VALID)
                writer2.close()
                return leftover, probe, unhandled

        leftover, probe, unhandled = asyncio.run(run())
        assert leftover == b""  # clean close, no reply owed
        assert probe["ok"] is True
        assert unhandled == []

    def test_truncated_frame_closes_cleanly(self, engine):
        async def run():
            async with watched(engine) as (plane, unhandled):
                reader, writer = await connect(plane)
                writer.write(b'{"v": 1, "op": "ada')  # no newline, bail
                await writer.drain()
                writer.close()
                await asyncio.sleep(0.01)
                return unhandled

        assert asyncio.run(run()) == []

    def test_seeded_garbage_spray_never_crashes_a_task(self, engine):
        """Random byte frames: every line earns an error or a close."""
        rng = np.random.default_rng(1234)
        frames = [bytes(rng.integers(0, 256, size=int(rng.integers(1, 200)),
                                     dtype=np.uint8).tolist())
                  for _ in range(30)]

        async def run():
            async with watched(engine) as (plane, unhandled):
                for frame in frames:
                    reader, writer = await connect(plane)
                    writer.write(b"{" + frame + b"\n")
                    await writer.drain()
                    line = await reader.readline()
                    if line:  # structured error, never a raw traceback
                        reply = json.loads(line)
                        assert reply["ok"] is False
                    writer.close()
                # The plane still serves after the spray.
                reader, writer = await connect(plane)
                reply = await ndjson_roundtrip(reader, writer, VALID)
                writer.close()
                return reply, unhandled

        reply, unhandled = asyncio.run(run())
        assert reply["ok"] is True
        assert unhandled == []


class TestAmbientOutOfRange:
    """Ambient above 1 is outside the photodiode model: the protocol
    rejects it as a bad request naming the field, instead of the
    engine failing with ``internal``, and the server keeps serving."""

    BRIGHT = {"v": 1, "op": "adapt", "dimming": 0.5, "ambient": 3.0,
              "id": "bright"}

    def test_ndjson(self, engine):
        async def run():
            async with watched(engine) as (plane, unhandled):
                reader, writer = await connect(plane)
                error = await ndjson_roundtrip(reader, writer, self.BRIGHT)
                reply = await ndjson_roundtrip(reader, writer, VALID)
                writer.close()
                return error, reply, unhandled

        error, reply, unhandled = asyncio.run(run())
        assert error["ok"] is False and error["id"] == "bright"
        assert error["error"]["code"] == E_BAD_REQUEST
        assert "ambient" in error["error"]["message"]
        assert reply["ok"] is True and reply["id"] == "probe"
        assert unhandled == []

    def test_http(self, engine):
        async def run():
            async with watched(engine) as (plane, unhandled):
                reader, writer = await connect(plane)
                status, _, body = await http_exchange(
                    reader, writer, "POST", "/v1/adapt",
                    json.dumps(self.BRIGHT).encode())
                ok_status, _, ok_body = await http_exchange(
                    reader, writer, "POST", "/v1/adapt",
                    json.dumps(VALID).encode())
                writer.close()
                return (status, json.loads(body), ok_status,
                        json.loads(ok_body), unhandled)

        status, error, ok_status, reply, unhandled = asyncio.run(run())
        assert status == 400
        assert error["error"]["code"] == E_BAD_REQUEST
        assert "ambient" in error["error"]["message"]
        assert ok_status == 200 and reply["ok"] is True
        assert unhandled == []


class TestHttpMalformed:
    @pytest.mark.parametrize("content_length, expected_detail", [
        ("banana", "invalid content-length"),
        ("-5", "invalid content-length"),
        (str((1 << 20) + 1), "request body too large"),
    ])
    def test_bad_content_length_is_a_400(self, engine, content_length,
                                         expected_detail):
        async def run():
            async with watched(engine) as (plane, unhandled):
                reader, writer = await connect(plane)
                writer.write(f"POST /v1/adapt HTTP/1.1\r\nHost: t\r\n"
                             f"Content-Length: {content_length}\r\n\r\n"
                             .encode())
                await writer.drain()
                status_line = await reader.readline()
                writer.close()
                return status_line, unhandled

        status_line, unhandled = asyncio.run(run())
        assert b"400" in status_line
        assert unhandled == []

    def test_invalid_utf8_body_is_a_structured_400(self, engine):
        async def run():
            async with watched(engine) as (plane, unhandled):
                reader, writer = await connect(plane)
                status, _, body = await http_exchange(
                    reader, writer, "POST", "/v1/adapt",
                    b'{"dimming": \xff\xfe}')
                writer.close()
                return status, json.loads(body), unhandled

        status, reply, unhandled = asyncio.run(run())
        assert status == 400
        assert reply["ok"] is False
        assert reply["error"]["code"] == E_BAD_REQUEST
        assert "UTF-8" in reply["error"]["message"]
        assert unhandled == []

    def test_oversized_header_line_is_a_400(self, engine):
        async def run():
            async with watched(engine) as (plane, unhandled):
                reader, writer = await connect(plane)
                status_line = b""
                try:
                    writer.write(b"GET /healthz HTTP/1.1\r\nX-Pad: "
                                 + b"x" * (1 << 20))
                    await writer.drain()
                    writer.write_eof()
                    status_line = await reader.readline()
                except ConnectionError:
                    pass  # 400 sent and closed while we were flushing
                writer.close()
                return status_line, unhandled

        status_line, unhandled = asyncio.run(run())
        assert status_line == b"" or b"400" in status_line
        assert unhandled == []

    def test_garbage_body_then_healthy_request(self, engine):
        """A 400 on a keep-alive connection doesn't poison it."""
        async def run():
            async with watched(engine) as (plane, unhandled):
                reader, writer = await connect(plane)
                status, _, body = await http_exchange(
                    reader, writer, "POST", "/v1/adapt", b"\x00\x01garbage")
                ok_status, _, ok_body = await http_exchange(
                    reader, writer, "GET", "/healthz")
                writer.close()
                return status, ok_status, json.loads(ok_body), unhandled

        status, ok_status, reply, unhandled = asyncio.run(run())
        assert status == 400
        assert ok_status == 200
        assert reply["ok"] is True
        assert unhandled == []
