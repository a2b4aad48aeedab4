"""Timings rescaled to a reference machine speed.

The benchmark runs on shared hosts whose speed drifts by 20-30% within
minutes, far more than the bounds a regression check needs.  So while a
timed call runs, a probe interrupts it every ``INTERVAL_S`` (SIGALRM) and
times a small fixed loop; it also times the loop just before and just after
the call.  The reported time is

    (raw seconds - time spent in the probe) * REFERENCE_S / mean(loop times)

(stalled loops left out of the mean, see ``at_reference``), that is, the
seconds the call would take on a machine where the loop takes
``REFERENCE_S``.  The loop is benchmark code that no change to the package
can touch, so a change to the package moves the rescaled time exactly as it
moves the raw one.  The raw seconds are reported beside the rescaled ones.
"""

from __future__ import annotations

import json
import signal
from pathlib import Path
from statistics import fmean, median
from time import perf_counter

REFERENCE_S = 0.002
INTERVAL_S = 0.1

_TABLE = list(range(4096))
_BUF = bytearray(4096)
_DICT = {i: (i * 31) & 4095 for i in range(4096)}


def _step(table: list[int], buf: bytearray, i: int) -> int:
    j = table[i & 4095]
    buf[j] = (buf[j] + i) & 255
    return j


def loop_s() -> float:
    """Time one run of the fixed loop.  It allocates no container objects,
    so it cannot trigger the cyclic garbage collector inside the call it
    interrupts.

    It has two halves because the package's calls slow down unevenly: list
    and byte-array indexing with integer arithmetic tracked
    ``verify_partition`` and ``decompose`` best, and function calls with dict
    lookups and a dict walk tracked the repair sweep best.  Timed together
    they tracked both (per-call spread 4.7% and 5.8%, against 13% and 22%
    raw).
    """
    table, buf, d = _TABLE, _BUF, _DICT
    t0 = perf_counter()
    for i in range(3000):
        j = table[i & 4095]
        buf[j] = (buf[j] + i) & 255
        table[i & 4095] = (j * 7 + 1) & 4095
    acc = 0
    for i in range(2500):
        acc += d[_step(table, buf, i)] & 3
    for k, v in d.items():
        if v == 7:
            acc += k
    return perf_counter() - t0


class SpeedProbe:
    """Context manager that samples machine speed around and during a call.

    ``wall`` is the call's raw wall time; ``inside`` is the part of it spent
    in the probe's own loop; ``loops`` are all loop times taken.
    """

    def __init__(self) -> None:
        self.loops: list[float] = []
        self.inside = 0.0
        self.wall = 0.0
        self._t0 = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        self.loops.append(loop_s())
        self.inside += perf_counter() - t0

    def __enter__(self) -> "SpeedProbe":
        self.loops.append(loop_s())
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._t0 = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self.wall = perf_counter() - self._t0
        signal.signal(signal.SIGALRM, self._previous)
        self.loops.append(loop_s())

    def seconds(self) -> float:
        """The call's time at the reference speed."""
        return at_reference(self.wall - self.inside, self.loops)

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({"wall": self.wall, "inside": self.inside, "loops": self.loops}))


def at_reference(raw_s: float, loops: list[float]) -> float:
    """Rescale ``raw_s`` by the loop times measured around and during it.

    A loop time above twice the median is a stall (the CPU was taken away
    mid-loop), not a speed; one such 1 ms loop would otherwise weigh as much
    as a second of the call, so stalls are left out of the mean.
    """
    cutoff = 2.0 * median(loops)
    return raw_s * REFERENCE_S / fmean(x for x in loops if x <= cutoff)
