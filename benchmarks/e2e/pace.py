"""Host-speed normalization: program time in reference-host seconds.

The benchmark's host is a 2-CPU slice of a shared machine.  Its speed
swings by up to 1.8x within seconds, in regimes that last from under a
second to over a minute, and each CPU swings on its own.  The CPU time
of a process swings with it (the host does not report the slowdown as
steal time), so neither wall nor CPU time repeats run to run.

A :class:`Pacer` measures how fast the process's own CPU runs while the
program works.  Every ``TICK_S`` of wall time a ``SIGALRM`` handler, in
the process doing the work, runs :func:`calibrate`: a fixed pure-Python
loop owned by the benchmark, which no change to the program can speed
up.  A stretch of program time between two calibrations counts at the
mean speed measured at its two ends::

    reference seconds = wall seconds x REFERENCE_S / calibration seconds

so a time reads roughly what it would on the reference host when
uncontended.  The calibrations themselves are not program time.
Measured on the reference host over 100-150 s of simulation, this cut
the spread of 8-second medians from 8-20% of the median to 2-3%.
Calibrating in
another process does not work: the other CPU's speed tracks this one's
poorly.
"""

import signal
import time

#: :func:`calibrate` on the reference host (2-CPU x86-64, Python
#: 3.11.7) when uncontended
REFERENCE_S = 0.0046
#: wall seconds between calibrations
TICK_S = 0.2


def calibrate():
    """Seconds of one fixed pure-Python loop of dict stores and integer
    arithmetic, the interpreter work the program mostly does."""
    start = time.monotonic()
    table = {}
    total = 0
    for i in range(40000):
        table[i & 1023] = total
        total += i * 3 % 7
    return time.monotonic() - start


class Pacer:
    """Program time, wall and in reference seconds, while active.

    Use as a context manager in the main thread; :meth:`read` gives the
    totals so far, so the difference of two reads times what ran
    between them.  ``ticks`` keeps the ``(start, end)`` of every
    calibration on the ``time.monotonic`` clock, for traced runs.
    """

    def __init__(self, tick_s=TICK_S):
        self.tick_s = tick_s
        self.ticks = []
        self.wall_s = 0.0
        self.reference_s = 0.0
        self.scale = self.first_scale = None
        self.started = self.mark = None
        self._previous = None

    def __enter__(self):
        self.started = time.monotonic()
        self.scale = self.first_scale = REFERENCE_S / calibrate()
        self.mark = time.monotonic()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.tick_s, self.tick_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame):
        began = time.monotonic()
        scale = REFERENCE_S / calibrate()
        ended = time.monotonic()
        stretch = began - self.mark
        self.wall_s += stretch
        self.reference_s += stretch * (self.scale + scale) / 2
        self.scale = scale
        self.mark = ended
        self.ticks.append((began, ended))

    def _now(self):
        blocked = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            now = time.monotonic()
            stretch = now - self.mark
            return now, self.wall_s + stretch, self.reference_s + stretch * self.scale
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, blocked)

    def read(self):
        """``(wall_s, reference_s)`` of program time so far."""
        return self._now()[1:]

    def report(self):
        """This process's program time so far, as plain data a parent
        passes to :func:`child_reference_s`."""
        now, _, reference_s = self._now()
        return {"started": self.started, "first_scale": self.first_scale,
                "at": now, "reference_s": reference_s, "scale": self.scale}


def child_reference_s(spawned, report, exited=None):
    """Reference seconds of a paced child process, from ``spawned`` (the
    parent's ``time.monotonic()`` before it started the child) to the
    child's :meth:`Pacer.report`, or on to ``exited``.  Wall time the
    child's pacer did not see, its start and its exit, counts at the
    speed the child measured nearest to it."""
    reference_s = (report["started"] - spawned) * report["first_scale"]
    reference_s += report["reference_s"]
    if exited is not None:
        reference_s += (exited - report["at"]) * report["scale"]
    return reference_s
