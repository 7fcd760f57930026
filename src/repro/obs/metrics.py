"""Metrics registry: counters, gauges, and running-stat histograms.

A :class:`MetricsRegistry` is a flat, name-keyed bag of instruments.
Simulation components increment counters and observe histograms as they
work; :meth:`MetricsRegistry.snapshot` freezes everything into a plain
dictionary for the JSON sidecar written next to a trace.

Like the tracer, there is a zero-cost no-op twin
(:class:`NullMetrics`): its instrument accessors return one shared
object whose mutators do nothing, so instrumented code reads
identically whether metrics are collected or not.  Histograms keep
running statistics (count/total/min/max) plus a bounded reservoir of
samples, so observation cost is O(1) and memory stays bounded
regardless of run size while tail percentiles (p50/p95/p99) remain
quotable in ``blame`` output and the metrics sidecar.
"""

import json
import random


def percentile(sorted_values, q):
    """Linear-interpolation percentile of an already-sorted sequence.

    The single quantile definition shared by histogram summaries and
    :meth:`repro.sim.stats.RunStats.stall_quartiles`.
    """
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = pos - lo
    return sorted_values[lo] * (1 - frac) + sorted_values[hi] * frac


class Counter:
    """Monotonically increasing value."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def inc(self, amount=1.0):
        self.value += amount


class Gauge:
    """Last-write-wins sample."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def set(self, value):
        self.value = float(value)


class Histogram:
    """Running statistics plus a bounded sample reservoir.

    Exact count/total/min/max/mean are maintained incrementally; a
    reservoir of up to ``reservoir_size`` samples (algorithm R, seeded
    deterministically so identical observation sequences always yield
    identical percentiles) supports approximate p50/p95/p99.  Below
    ``reservoir_size`` observations the percentiles are exact.
    """

    __slots__ = ("count", "total", "min", "max", "_capacity", "_samples", "_rng")

    #: default reservoir capacity — memory stays bounded for any run size
    RESERVOIR_SIZE = 4096

    def __init__(self, reservoir_size=None):
        self.count = 0
        self.total = 0.0
        self.min = None
        self.max = None
        self._capacity = self.RESERVOIR_SIZE if reservoir_size is None else reservoir_size
        self._samples = []
        # fixed seed: same observations -> same reservoir -> same percentiles
        self._rng = random.Random(0x5EED)

    def observe(self, value):
        value = float(value)
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if len(self._samples) < self._capacity:
            self._samples.append(value)
        else:
            slot = self._rng.randrange(self.count)
            if slot < self._capacity:
                self._samples[slot] = value

    @property
    def mean(self):
        return self.total / self.count if self.count else 0.0

    @property
    def num_samples(self):
        """Samples currently held in the reservoir (<= count)."""
        return len(self._samples)

    def percentile(self, q):
        """Reservoir percentile at quantile ``q`` (``None`` when empty)."""
        if not self._samples:
            return None
        return percentile(sorted(self._samples), q)

    def summary(self):
        ordered = sorted(self._samples)
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": percentile(ordered, 0.50) if ordered else None,
            "p95": percentile(ordered, 0.95) if ordered else None,
            "p99": percentile(ordered, 0.99) if ordered else None,
        }


class MetricsRegistry:
    """Get-or-create instrument store keyed by dotted names."""

    enabled = True

    def __init__(self):
        self._instruments = {}

    def _get(self, name, kind):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = kind()
            self._instruments[name] = instrument
        elif not isinstance(instrument, kind):
            raise TypeError(
                "metric {!r} is a {}, not a {}".format(
                    name, type(instrument).__name__, kind.__name__
                )
            )
        return instrument

    def counter(self, name) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name) -> Histogram:
        return self._get(name, Histogram)

    # convenience mutators ---------------------------------------------
    def inc(self, name, amount=1.0):
        self.counter(name).inc(amount)

    def set_gauge(self, name, value):
        self.gauge(name).set(value)

    def observe(self, name, value):
        self.histogram(name).observe(value)

    # cross-process folding --------------------------------------------
    # export -----------------------------------------------------------
    def snapshot(self):
        """Freeze to ``{"counters": ..., "gauges": ..., "histograms": ...}``."""
        counters, gauges, histograms = {}, {}, {}
        for name in sorted(self._instruments):
            instrument = self._instruments[name]
            if isinstance(instrument, Counter):
                counters[name] = instrument.value
            elif isinstance(instrument, Gauge):
                gauges[name] = instrument.value
            else:
                histograms[name] = instrument.summary()
        return {"counters": counters, "gauges": gauges, "histograms": histograms}

    def to_json(self, indent=2):
        return json.dumps(self.snapshot(), indent=indent)

    def write(self, path):
        from repro.obs.report import atomic_write_text

        atomic_write_text(self.to_json(), path)
        return path


class _NullInstrument:
    """Stands in for Counter, Gauge, and Histogram at once."""

    __slots__ = ()
    value = 0.0
    count = 0
    total = 0.0
    min = None
    max = None
    mean = 0.0
    num_samples = 0

    def inc(self, amount=1.0):
        pass

    def percentile(self, q):
        return None

    def set(self, value):
        pass

    def observe(self, value):
        pass

    def summary(self):
        return {}


_NULL_INSTRUMENT = _NullInstrument()


class NullMetrics:
    """No-op registry with the full :class:`MetricsRegistry` API."""

    enabled = False

    def counter(self, name):
        return _NULL_INSTRUMENT

    def gauge(self, name):
        return _NULL_INSTRUMENT

    def histogram(self, name):
        return _NULL_INSTRUMENT

    def inc(self, name, amount=1.0):
        pass

    def set_gauge(self, name, value):
        pass

    def observe(self, name, value):
        pass

    def snapshot(self):
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def to_json(self, indent=2):
        return json.dumps(self.snapshot(), indent=indent)

    def write(self, path):
        from repro.obs.report import atomic_write_text

        atomic_write_text(self.to_json(), path)
        return path


#: shared no-op instance — the default everywhere metrics are optional
NULL_METRICS = NullMetrics()
