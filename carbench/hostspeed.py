"""Host-speed calibration for timed runs.

The benchmark runs on a small share of a shared host whose speed swings
by up to 2x within seconds: a fixed pure-Python loop runs at one speed
for a few seconds and at another for the next few, as neighbours come
and go.  Wall-clock timings of the same work therefore move with the
share of a run the host spent slow, which is different for every run.

:class:`Sampler` measures that speed while the program runs.  A
``SIGALRM`` interval timer interrupts the single benchmark thread every
:data:`INTERVAL` seconds; the handler times one run of :func:`kernel`, a
fixed piece of interpreter work of the same kind the program does
(regex tokenizing, dict counting, object creation, sorting, JSON decode
and encode, query-string handling) that touches nothing of the program.
The handler's own time is subtracted from every interval it lands in.

A timing is then reported at the reference speed: each stretch of
program time is divided by the host factor in force while it ran, the
kernel's time there (median of :data:`SMOOTH` neighbouring ticks) over
:data:`REFERENCE_S`.  On the 2-vCPU Xeon VM the benchmark was built on,
a fixed 50-request slice of ``browse`` moved by 20% (coefficient of
variation over 1-second windows) in wall time and by 5% after this
correction.  The kernel is the benchmark's own code, so a change to the
program moves the corrected numbers as it moves the program's own time.
Work the kernel resembles less (numpy model fits in ``curate``) is
corrected less closely.
"""

from __future__ import annotations

import bisect
import gc
import json
import re
import signal
import statistics
import time
from urllib.parse import parse_qsl, urlencode

#: Seconds between speed samples (ticks).
INTERVAL = 0.02
#: Ticks whose kernel times are pooled (median) into one local factor.
SMOOTH = 9
#: Kernel seconds at the reference speed; a timing of ``t`` seconds taken
#: while the kernel took ``k`` seconds is reported as ``t * REFERENCE_S / k``.
#: This is about the kernel's median inside a run on the build host, so
#: corrected times read close to that host's typical wall-clock times.
REFERENCE_S = 4.5e-4

#: Seconds all handlers have taken so far; intervals subtract their share.
spent = 0.0


class _Row:
    __slots__ = ("id", "title", "score", "tags")

    def __init__(self, id: int, title: str, score: float,
                 tags: tuple[str, ...]) -> None:
        self.id = id
        self.title = title
        self.score = score
        self.tags = tags


_WORD = re.compile(r"[a-z]+")
_TEXT = " ".join(
    f"parallel merge sort {i} on a shared memory tree queue"
    for i in range(12))
_DOC = json.dumps([
    {"id": i, "title": f"Material {i}", "keys": [f"a/b/{j}" for j in range(4)]}
    for i in range(20)
])


def kernel() -> int:
    """A fixed slice of interpreter work (about 0.2 ms alone on the build
    host, 0.45 ms between program requests, whose data has displaced
    its own from the caches); its objects are freed before it returns."""
    words = _WORD.findall(_TEXT)
    counts: dict[str, int] = {}
    for word in words:
        counts[word] = counts.get(word, 0) + 1
    rows = [_Row(i, f"t{i}", counts[w] / (1 + i % 7), (w,))
            for i, w in enumerate(words)]
    rows.sort(key=lambda r: (-r.score, r.id))
    payload = json.loads(_DOC)
    for item in payload:
        item["rank"] = sum(1 for r in rows[:10] if r.id <= item["id"])
    query = parse_qsl(urlencode({"q": " ".join(words[:5]), "limit": 20}))
    return len(json.dumps({"items": payload, "q": query}))


class Sampler:
    """Samples the host's speed on a timer inside its ``with`` block."""

    def __init__(self) -> None:
        #: Tick start times and kernel durations, in the order taken.
        self.ticks: list[float] = []
        self.kernel_s: list[float] = []
        #: Tick start times and handler durations.
        self.handler_s: list[float] = []
        self._factors: list[float] | None = None
        self._saved = None

    def _tick(self, signum, frame) -> None:
        global spent
        start = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        try:
            kernel()
            end = time.perf_counter()
        finally:
            if collecting:
                gc.enable()
        self.ticks.append(start)
        self.kernel_s.append(end - start)
        self.handler_s.append(time.perf_counter() - start)
        spent += self.handler_s[-1]

    def __enter__(self) -> "Sampler":
        self._saved = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._saved)

    # -- correction ---------------------------------------------------------

    def factors(self) -> list[float]:
        """Host factor at each tick: local kernel time over the reference
        (above 1 when the host runs slower than the reference)."""
        if self._factors is None:
            half = SMOOTH // 2
            k = self.kernel_s
            self._factors = [
                statistics.median(k[max(0, i - half):i + half + 1]) / REFERENCE_S
                for i in range(len(k))
            ]
        return self._factors

    def factor_at(self, t: float) -> float:
        """Host factor at time ``t`` (the nearest tick's)."""
        factors = self.factors()
        if not factors:
            raise RuntimeError("no speed samples were taken")
        i = bisect.bisect_left(self.ticks, t)
        if i == len(self.ticks) or (
                i > 0 and t - self.ticks[i - 1] < self.ticks[i] - t):
            i -= 1
        return factors[i]

    def reference_seconds(self, start: float, end: float) -> float:
        """Program time in ``[start, end]`` at the reference speed: each
        stretch between ticks, less the handlers in it, over its factor."""
        factors = self.factors()
        ticks = self.ticks
        lo = bisect.bisect_left(ticks, start)
        hi = bisect.bisect_left(ticks, end)
        total = 0.0
        at = start
        for i in range(lo, hi):
            total += (ticks[i] - at) / factors[i]
            at = ticks[i] + self.handler_s[i]
        total += (end - at) / (factors[hi - 1] if hi else self.factor_at(end))
        return total

    def summary(self) -> dict[str, float]:
        factors = self.factors()
        if len(factors) < 2:
            return {"ticks": len(factors)}
        quartiles = statistics.quantiles(factors, n=4)
        return {
            "ticks": len(factors),
            "host_factor_p25": round(quartiles[0], 4),
            "host_factor_p50": round(quartiles[1], 4),
            "host_factor_p75": round(quartiles[2], 4),
            "handler_s": round(sum(self.handler_s), 4),
        }
