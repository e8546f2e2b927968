"""Run the control plane with layer spans (the traced serve run).

Usage: ``python3 perfbench/serve_launcher.py --spans-out F.jsonl.gz
--summary-out F.json``

Wraps the serve layers (see :data:`layers.SERVE_LAYERS`) and the
coalescer's ``submit``, then calls ``run_daemon`` with the default
serve configuration, exactly what ``python -m repro serve --port 0``
serves.  On SIGTERM the daemon drains; the spans and the coalescer
accounting are then written out.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import layers  # noqa: E402
from benchlib import SpanRecorder  # noqa: E402


class CoalescerAccount:
    """Batch sizes and coalescing waits, read around the coalescer.

    A request's wait is its ``submit`` time minus the design time of
    the flush that resolved it (the latest flush to finish before the
    waiter resumed).
    """

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self.requests = 0
        self.flushes = 0
        self.batched = 0
        self.wait_s = 0.0
        self._last_design_s = 0.0

    def wrap_flush(self, flush):
        account = self

        def counted(coalescer):
            size = coalescer.pending
            mark = len(account.recorder.spans)
            flush(coalescer)
            account._last_design_s = sum(
                s.duration for s in account.recorder.spans[mark:]
                if s.name == "serve.design")
            if size:
                account.flushes += 1
                account.batched += size

        return counted

    def on_submit(self, _coalescer, start: float, end: float) -> None:
        self.requests += 1
        self.wait_s += max(0.0, end - start - self._last_design_s)

    def as_dict(self) -> dict:
        return {"requests": self.requests, "flushes": self.flushes,
                "batched": self.batched, "wait_s": self.wait_s}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/serve_launcher.py")
    parser.add_argument("--spans-out", required=True, type=Path)
    parser.add_argument("--summary-out", required=True, type=Path)
    args = parser.parse_args(argv)

    from repro.serve.server import ServeConfig, run_daemon

    recorder = SpanRecorder()
    account = CoalescerAccount(recorder)
    patches = layers.install(recorder, layers.SERVE_LAYERS)
    patches.replace("repro.serve.coalescer", "AdaptCoalescer.flush",
                    account.wrap_flush)
    patches.replace("repro.serve.coalescer", "AdaptCoalescer.submit",
                    lambda fn: recorder.wrap_async("serve.submit", fn,
                                                   account.on_submit))
    asyncio.run(run_daemon(ServeConfig(port=0)))
    recorder.write(args.spans_out)
    args.summary_out.write_text(json.dumps(account.as_dict()) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
