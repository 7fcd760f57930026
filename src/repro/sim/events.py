"""Deterministic discrete-event queue.

Events are ``(time, seq, callback, args)`` heap entries; ``seq`` is a
monotonically increasing tiebreaker so same-time events fire in
scheduling order, keeping every simulation run fully deterministic.
An event carries its arguments rather than a closure over them, so
scheduling one allocates only the heap tuple.
"""

import heapq
import itertools


class EventQueue:
    """The queue also keeps two free observability counters — events
    ``processed`` and ``peak_pending`` heap depth — cheap integers the
    engine copies into a metrics registry after the run."""

    def __init__(self):
        self._heap = []
        self._seq = itertools.count()
        #: time of the event running now (of the last one, once drained)
        self.now = 0.0
        self.processed = 0
        self.peak_pending = 0

    def schedule(self, time, callback, *args):
        """Schedule ``callback(*args)`` at absolute ``time``."""
        if time < self.now:
            raise ValueError(
                "cannot schedule event at {} before now {}".format(
                    time, self.now
                )
            )
        heap = self._heap
        heapq.heappush(heap, (float(time), next(self._seq), callback, args))
        if len(heap) > self.peak_pending:
            self.peak_pending = len(heap)

    def schedule_after(self, delay, callback, *args):
        self.schedule(self.now + delay, callback, *args)

    def run(self, max_events=50_000_000):
        """Run until the queue drains; guards against runaway loops."""
        heap = self._heap
        pop = heapq.heappop
        count = 0
        try:
            while heap:
                self.now, _seq, callback, args = pop(heap)
                count += 1
                callback(*args)
                if count > max_events:
                    raise RuntimeError(
                        "event cap exceeded; simulation livelock?"
                    )
        finally:
            self.processed += count
        return self.now
