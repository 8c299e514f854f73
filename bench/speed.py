"""Machine-speed reference: a fixed pure-Python loop that shares no code with arcalg.

The shared VM the benchmark runs on changes speed by half or more within
seconds, in CPU time as much as in wall time.  While a pass runs, the
worker therefore times reference chunks between operations and, from a
timer signal, every ``SAMPLE_INTERVAL_S`` inside them.  Each operation's
time is then reported at a fixed machine speed: the time it would take on
a machine that runs one full chunk in ``NOMINAL_CHUNK_S``.  The chunks'
own time is left out of every operation's time, and arcalg's code never
runs inside a chunk, so a change to arcalg moves these times as much as
it moves the raw ones.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

CHUNK_ITERS = 1500
NOMINAL_CHUNK_S = 0.005
SAMPLE_ITERS = 100
SAMPLE_INTERVAL_S = 0.01


def reference_chunk(iters: int = CHUNK_ITERS) -> float:
    """Seconds taken by a fixed loop of Fraction and dict arithmetic.

    The collector is off during the loop, so the chunk never pays for
    collecting the objects of the code it interrupts.
    """
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    x = Fraction(0)
    table: dict[tuple[int, int], int] = {}
    for i in range(1, iters):
        x += Fraction(i % 7 + 1, i % 11 + 1)
        key = (i % 13, i % 5)
        table[key] = table.get(key, 0) + i
    elapsed = time.perf_counter() - start
    if enabled:
        gc.enable()
    return elapsed


def at_nominal(seconds: float, chunk_s: float) -> float:
    """``seconds`` measured while one full chunk took ``chunk_s``, at the nominal speed."""
    return seconds * NOMINAL_CHUNK_S / chunk_s


class SpeedSampler:
    """Speed samples ``(start, end, full-chunk seconds)`` in time order.

    ``mark()`` times a full chunk; between ``start()`` and ``stop()`` a
    SIGALRM handler also times a short chunk every ``SAMPLE_INTERVAL_S``.
    """

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []
        self._busy = False

    def _sample(self, iters: int) -> None:
        self._busy = True
        start = time.perf_counter()
        chunk = reference_chunk(iters)
        self.samples.append((start, time.perf_counter(), chunk * CHUNK_ITERS / iters))
        self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        if not self._busy:
            self._sample(SAMPLE_ITERS)

    def mark(self) -> None:
        self._sample(CHUNK_ITERS)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def chunk_s(self) -> list[float]:
        return [c for _, _, c in self.samples]

    def op_times(self, start: float, end: float) -> tuple[float, float]:
        """(raw, nominal) seconds of the operation that ran from ``start`` to ``end``.

        Both leave out the chunks timed inside it.  Each stretch between two
        samples runs at the mean speed of those samples; ``mark()`` must
        have been called before and after the operation.
        """
        starts = [s for s, _, _ in self.samples]
        lo = bisect.bisect_left(starts, start)
        hi = bisect.bisect_left(starts, end)
        points = self.samples[lo - 1 : hi + 1]
        raw = nominal = 0.0
        for (_, p_end, p_chunk), (q_start, _, q_chunk) in zip(points, points[1:]):
            stretch = min(q_start, end) - max(p_end, start)
            raw += stretch
            nominal += at_nominal(stretch, (p_chunk + q_chunk) / 2)
        return raw, nominal


def setup_times(record: dict) -> tuple[float, float]:
    """(setup_s, algebra_for_s) of one worker at the nominal speed."""
    chunk = statistics.median(record["setup_chunk_s"])
    return at_nominal(record["setup_s"], chunk), at_nominal(record["algebra_for_s"], chunk)


def pass_chunk_s(record: dict) -> float:
    """The typical full-chunk time of one pass."""
    return statistics.median(record["chunk_s"])
