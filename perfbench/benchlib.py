"""Measuring primitives of the repository benchmark.

Self-contained on purpose: the timer, the percentile with its sample
count, the span recorder, the self-time fold, the workload fingerprint
and the host reference kernel live here, so a change to the program's
own observability code (``repro.obs``) cannot change how that change
is measured.  Nothing in this module imports ``repro``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, NamedTuple, Sequence

#: The one clock every benchmark timing uses.
now = time.perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    metrics: dict[str, tuple[float, str]]
    attempted: int
    failed: int
    checks: list[str] = field(default_factory=list)
    details: dict[str, Any] = field(default_factory=dict)
    reference_s: list[float] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.checks


# -- order statistics ------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation.

    Same rule as ``numpy.percentile``'s default and Python's
    ``statistics.quantiles(method="inclusive")``: rank ``q/100 * (n-1)``
    between the sorted samples.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must lie in [0, 100], got {q}")
    ordered = sorted(values)
    rank = q / 100.0 * (len(ordered) - 1)
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


@dataclass(frozen=True)
class Summary:
    """A timing sample reduced to the statistics the benchmark reports."""

    n: int
    p50: float
    p95: float
    p99: float
    #: samples strictly above the p95 / p99 value (the support of each)
    beyond_p95: int
    beyond_p99: int

    def as_dict(self, scale: float = 1.0, digits: int = 6) -> dict[str, Any]:
        return {"n": self.n,
                "p50": round(self.p50 * scale, digits),
                "p95": round(self.p95 * scale, digits),
                "p99": round(self.p99 * scale, digits),
                "beyond_p95": self.beyond_p95,
                "beyond_p99": self.beyond_p99}


def summarize(values: Sequence[float]) -> Summary:
    """Median, p95 and p99 with the number of samples beyond each."""
    p95 = percentile(values, 95.0)
    p99 = percentile(values, 99.0)
    return Summary(n=len(values), p50=percentile(values, 50.0), p95=p95,
                   p99=p99, beyond_p95=sum(1 for v in values if v > p95),
                   beyond_p99=sum(1 for v in values if v > p99))


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def chunk_percentiles(values: Sequence[float], size: int,
                      q: float) -> list[float]:
    """The ``q``-th percentile of each whole ``size``-sample chunk of
    ``values`` (in order); a trailing partial chunk is dropped.  Fewer
    than ``size`` values make one chunk of them all."""
    size = max(1, min(size, len(values)))
    return [percentile(values[i:i + size], q)
            for i in range(0, len(values) - size + 1, size)]


def window_rates(times: Iterable[float], start: float, span: float,
                 width: float) -> list[float]:
    """Events per second in each whole ``width`` window of
    ``[start, start + span)``; a trailing partial window is dropped.  A
    span shorter than ``width`` is one window."""
    width = min(width, span)
    n = int(span // width)
    counts = [0] * n
    for t in times:
        k = math.floor((t - start) / width)
        if 0 <= k < n:
            counts[k] += 1
    return [c / width for c in counts]


# -- spans -----------------------------------------------------------------


class Span(NamedTuple):
    """One closed span: ``parent`` is the enclosing span's id or -1.

    ``detached`` spans (asynchronous waits that interleave with other
    work on one event loop) never become parents and are left out of
    the self-time fold; only their durations are read.
    """

    id: int
    name: str
    start: float
    end: float
    parent: int
    detached: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """In-memory span store with a parent stack for synchronous calls.

    ``wrap`` returns a function that records one span per call around
    ``fn`` (and hands each result to ``on_result``); ``wrap_async``
    does the same for a coroutine function but records a detached span
    (it cannot nest on a shared stack across ``await`` points).  Spans
    stay in memory until :meth:`write`.
    """

    def __init__(self, clock: Callable[[], float] = now):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._next_id = 0

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def record(self, name: str, start: float, end: float,
               parent: int = -1, detached: bool = False) -> int:
        """Store a finished span; returns its id."""
        span_id = self._new_id()
        self.spans.append(Span(span_id, name, start, end, parent, detached))
        return span_id

    def wrap(self, name: str, fn: Callable,
             on_result: Callable[[Any], None] | None = None) -> Callable:
        recorder = self
        clock = self.clock
        stack = self._stack

        def traced(*args, **kwargs):
            span_id = recorder._new_id()
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                recorder.spans.append(Span(span_id, name, start, end, parent))
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def wrap_async(self, name: str, fn: Callable,
                   on_done: Callable[[Any, float, float], None] | None = None
                   ) -> Callable:
        recorder = self
        clock = self.clock

        async def traced(*args, **kwargs):
            start = clock()
            try:
                return await fn(*args, **kwargs)
            finally:
                end = clock()
                recorder.record(name, start, end, detached=True)
                if on_done is not None:
                    on_done(args[0] if args else None, start, end)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def write(self, path: Path) -> Path:
        """Write every span as one JSON line (gzip when ``.gz``)."""
        import gzip

        path.parent.mkdir(parents=True, exist_ok=True)
        opener = gzip.open if path.suffix == ".gz" else open
        with opener(path, "wt") as out:
            for s in self.spans:
                out.write(json.dumps([s.id, s.name, s.start, s.end,
                                      s.parent, int(s.detached)]) + "\n")
        return path


def read_spans(path: Path) -> list[Span]:
    """Spans written by :meth:`SpanRecorder.write`."""
    import gzip

    opener = gzip.open if path.suffix == ".gz" else open
    with opener(path, "rt") as lines:
        return [Span(row[0], row[1], row[2], row[3], row[4], bool(row[5]))
                for row in map(json.loads, lines)]


@dataclass(frozen=True)
class Fold:
    """Per-name totals of a span set."""

    calls: dict[str, int]
    inclusive_s: dict[str, float]
    self_s: dict[str, float]
    #: wall time of the root (parentless, attached) spans
    root_s: float

    def count(self, name: str) -> int:
        return self.calls.get(name, 0)

    def incl(self, name: str) -> float:
        return self.inclusive_s.get(name, 0.0)

    def self_of(self, name: str) -> float:
        return self.self_s.get(name, 0.0)

    @property
    def self_total_s(self) -> float:
        return sum(self.self_s.values())


def fold(spans: Iterable[Span]) -> Fold:
    """Fold spans into per-name calls, inclusive time and self time.

    A span's self time is its duration minus the durations of its
    direct children.  Detached spans count calls and inclusive time
    only.  Because children nest inside their parent, the self times
    of one tree sum to its root's duration.
    """
    spans = list(spans)
    child_s: dict[int, float] = {}
    for s in spans:
        if s.parent >= 0 and not s.detached:
            child_s[s.parent] = child_s.get(s.parent, 0.0) + s.duration
    calls: dict[str, int] = {}
    inclusive: dict[str, float] = {}
    self_s: dict[str, float] = {}
    root = 0.0
    for s in spans:
        calls[s.name] = calls.get(s.name, 0) + 1
        inclusive[s.name] = inclusive.get(s.name, 0.0) + s.duration
        if s.detached:
            continue
        self_s[s.name] = (self_s.get(s.name, 0.0) + s.duration
                          - child_s.get(s.id, 0.0))
        if s.parent < 0:
            root += s.duration
    return Fold(calls=calls, inclusive_s=inclusive, self_s=self_s,
                root_s=root)


def children_named(spans: Sequence[Span], parent_name: str,
                   child_name: str) -> dict[int, int]:
    """For each span called ``parent_name``: how many direct children
    called ``child_name`` it has (zero included)."""
    parents = {s.id: 0 for s in spans if s.name == parent_name}
    for s in spans:
        if s.name == child_name and s.parent in parents:
            parents[s.parent] += 1
    return parents


# -- provenance ------------------------------------------------------------


def tree_digest(directory: Path) -> str:
    """SHA-256 (16 hex digits) over every ``.py`` file under
    ``directory``, in sorted path order."""
    hasher = hashlib.sha256()
    for path in sorted(directory.rglob("*.py")):
        rel = path.relative_to(directory).as_posix()
        hasher.update(rel.encode() + b"\0" + path.read_bytes() + b"\0")
    return hasher.hexdigest()[:16]


def fingerprint(workload: str, params: dict[str, Any], seed: int,
                bench_source: str | None = None) -> str:
    """Hash of the workload definition, the seed and the bench source.

    Two records with the same fingerprint ran the same inputs through
    the same measuring code; any difference between them is the
    program's or the host's.
    """
    payload = json.dumps({"workload": workload, "params": params,
                          "seed": seed,
                          "bench_source": (bench_source if bench_source
                                           is not None
                                           else tree_digest(BENCH_DIR))},
                         sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def git_revision(root: Path = ROOT) -> str:
    """The checked-out commit, read from ``.git`` without running git.

    Returns ``"unknown"`` when the tree is not a git checkout (the
    program source digest in the record identifies the code then).
    """
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def reference_kernel() -> float:
    """Seconds for a fixed pure-Python + NumPy kernel (host speed probe).

    The work never changes, so its time across records shows how fast
    the host ran when each record was taken.  The NumPy half is
    element-wise only: a BLAS call would wake helper threads that keep
    spinning on the other core after the probe ends.
    """
    import numpy as np

    start = now()
    table: dict[int, float] = {}
    acc = 0.0
    for i in range(40000):
        acc += (i * 0.5) % 7.0
        table[i & 1023] = acc
    values = np.linspace(0.0, 1.0, 200_000)
    for _ in range(10):
        values = np.sqrt(np.abs(np.sin(values * 3.0 + acc * 1e-9)))
    elapsed = now() - start
    if not math.isfinite(float(values.sum()) + sum(table.values())):
        raise RuntimeError("reference kernel diverged")  # consume results
    return elapsed


#: Seconds :func:`speed_probe` takes at the nominal host speed, set near
#: its time on a 2-vCPU x86_64 Xeon VM in that host's faster state;
#: corrected times are expressed at this speed.  The constant cancels
#: in any comparison on one host.
PROBE_NOMINAL_S = 0.2e-3
#: Seconds between two host-speed probes while a timed run is going.
PROBE_INTERVAL_S = 0.02


def speed_probe() -> None:
    """A fixed ~0.2 ms slice of NumPy dispatch on small arrays plus
    Python tuples and a dict: the mix the scenario workloads spend
    their time in, but none of the program's code, so a change to the
    program cannot change the probe."""
    import numpy as np

    values = np.linspace(0.0, 1.0, 64)
    rows = []
    for i in range(30):
        values = np.sqrt(np.abs(values * 1.0001 + 0.1))
        rows.append((i, float(values[i]), values.sum()))
    if len({row[0]: row for row in rows}) != 30:
        raise RuntimeError("speed probe lost rows")  # consume results


#: Seconds :func:`python_speed_probe` takes at the nominal host speed
#: (chosen the same way).
PYTHON_PROBE_NOMINAL_S = 0.18e-3


def python_speed_probe() -> None:
    """A fixed ~0.2 ms slice of pure-Python arithmetic, dict and str
    work, for code that runs before NumPy is imported (interpreter
    start-up and imports)."""
    acc = 0
    table = {}
    for i in range(600):
        acc += (i * 7) % 13
        table[i & 63] = (acc, str(i))
    if len(table) != 64:
        raise RuntimeError("speed probe lost keys")  # consume results


class HostSpeedSampler:
    """Samples the host's speed while a timed run is going.

    A shared host switches between speeds within seconds (the same run
    can take 1.6x longer), so a raw wall time says as much about the
    neighbours as about the program.  While the sampler is entered, a
    ``SIGALRM`` every ``interval`` seconds runs :func:`speed_probe` in
    the measured thread, between two bytecodes of the program, and
    records how long it took; one probe also runs on entry and one on
    exit.  :meth:`corrected` turns the run's wall time into the time it
    would have taken at the nominal speed.  Main thread only.
    """

    def __init__(self, interval: float = PROBE_INTERVAL_S,
                 nominal: float = PROBE_NOMINAL_S,
                 probe: Callable[[], None] = speed_probe,
                 clock: Callable[[], float] = now):
        self.interval = interval
        self.nominal = nominal
        self.probe = probe
        self.clock = clock
        self.samples: list[float] = []
        #: seconds spent in timer-driven probes (taken out of the run's
        #: time; the entry and exit probes run outside it)
        self.spent = 0.0
        self._previous = None

    def _sample(self) -> None:
        start = self.clock()
        self.probe()
        self.samples.append(self.clock() - start)

    def _on_alarm(self, *_ignored) -> None:
        start = self.clock()
        self._sample()
        self.spent += self.clock() - start

    def __enter__(self) -> "HostSpeedSampler":
        import signal

        self.samples = []
        self.spent = 0.0
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        import signal

        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def speed(self) -> float:
        """Mean host speed over the samples (1.0 = nominal).

        Samples are evenly spaced in wall time and work done per
        second is proportional to speed, so the mean of
        ``nominal / sample`` is the run's work per wall second."""
        return sum(self.nominal / s for s in self.samples) / len(self.samples)

    def corrected(self, wall: float) -> float:
        """Seconds ``wall`` would have taken at the nominal speed, after
        taking out the time spent in probes."""
        return (wall - self.spent) * self.speed()


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak RSS (``VmHWM``) of a live process, in MB; NaN if unreadable."""
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return float("nan")


def host_info() -> dict[str, Any]:
    import platform

    import numpy as np

    return {"python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "cpus": os.cpu_count()}
