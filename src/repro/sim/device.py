"""SM occupancy tracking and thread-block placement.

The device holds ``num_sms`` streaming multiprocessors; each SM can host
thread blocks subject to two limits: a hard cap of ``max_tbs_per_sm``
resident blocks and a thread budget of ``max_threads_per_sm``.  Blocks
from different kernels may co-reside on one SM — this is exactly what
lets pre-launched kernels' blocks fill slots freed by the producer
kernel (and is provided by Hyper-Q / Warped-Slicer in the paper's
baseline hardware).

Placement policy: least-loaded SM first (by resident thread count, then
block count, then index), which spreads blocks evenly and is
deterministic.  The device keeps the SMs that can take another block
ordered by that key, so placing or releasing a block costs O(log SMs)
plus a short list shift.
"""

from bisect import bisect_left, insort
from dataclasses import dataclass

from repro.obs import PID_DEVICE, resolve_metrics, resolve_tracer
from repro.sim.config import GPUConfig


@dataclass
class SMState:
    index: int
    resident_tbs: int = 0
    resident_threads: int = 0

    @property
    def load(self):
        """Placement order key: least-loaded first, ties by index."""
        return (self.resident_threads, self.resident_tbs, self.index)


def empty_device_slots(config: GPUConfig, threads_per_tb: int) -> int:
    """Blocks of the given size an *idle* device holds.

    Equals ``Device.free_slots`` on a freshly constructed device (every
    SM contributes the same ``min`` of its block cap and thread budget).
    This is the wave width of the fast engine tiers
    (:mod:`repro.models.fastengine`): under a device-serial plan each
    kernel starts on an empty device, so its TBs run in waves of exactly
    this many slots.
    """
    per_sm = min(
        config.max_tbs_per_sm,
        config.max_threads_per_sm // max(1, threads_per_tb),
    )
    return config.num_sms * max(0, per_sm)


class Device:
    """Occupancy bookkeeping plus the running-TB concurrency integral.

    With a tracer attached, every placement/release also emits a
    ``running_tbs`` counter sample on the simulated clock, so Perfetto
    renders the SM-occupancy profile alongside the kernel spans.
    Tracing is observation only and never changes placement decisions.
    """

    def __init__(self, config: GPUConfig, tracer=None, metrics=None):
        self.config = config
        self.tracer = resolve_tracer(tracer)
        self.metrics = resolve_metrics(metrics)
        self.sms = [SMState(i) for i in range(config.num_sms)]
        #: ``load`` keys of the SMs below their block cap, ascending.  A
        #: block fits such an SM iff its thread budget allows, so the
        #: first entry is the least-loaded SM that fits, if any does.
        self._open = (
            [sm.load for sm in self.sms] if config.max_tbs_per_sm > 0 else []
        )
        self.running = 0
        self._last_event_ns = 0.0
        self.concurrency_integral = 0.0
        self.busy_ns = 0.0
        self.peak_concurrency = 0
        self.placements = 0

    def _sample_occupancy(self, now_ns, sm=None):
        self.tracer.counter(
            "running_tbs",
            {"running": self.running},
            ts_us=now_ns / 1e3,
            cat="device",
            pid=PID_DEVICE,
        )
        if sm is not None and getattr(self.tracer, "per_sm_counters", False):
            self.tracer.counter(
                "running_tbs[sm={:02d}]".format(sm.index),
                {"running": sm.resident_tbs},
                ts_us=now_ns / 1e3,
                cat="device.sm",
                pid=PID_DEVICE,
            )

    # ------------------------------------------------------------------
    def _advance(self, now_ns):
        dt = now_ns - self._last_event_ns
        if dt > 0:
            self.concurrency_integral += dt * self.running
            if self.running > 0:
                self.busy_ns += dt
            self._last_event_ns = now_ns

    def free_slots(self, threads_per_tb):
        """Total blocks of the given size that could be placed right now."""
        total = 0
        for sm in self.sms:
            by_tbs = self.config.max_tbs_per_sm - sm.resident_tbs
            by_threads = (
                self.config.max_threads_per_sm - sm.resident_threads
            ) // max(1, threads_per_tb)
            total += max(0, min(by_tbs, by_threads))
        return total

    def try_place(self, threads_per_tb, now_ns):
        """Place one block on the least-loaded SM it fits; returns the SM
        index or ``None`` when nothing fits."""
        if not self._open:
            return None
        load = self._open[0]
        if load[0] + threads_per_tb > self.config.max_threads_per_sm:
            return None  # the least-threaded open SM has the most room
        del self._open[0]
        sm = self.sms[load[2]]
        self._occupy(sm, threads_per_tb, now_ns)
        if sm.resident_tbs < self.config.max_tbs_per_sm:
            insort(self._open, sm.load)
        return sm.index

    def release(self, sm_index, threads_per_tb, now_ns):
        sm = self.sms[sm_index]
        load = sm.load
        self._vacate(sm, threads_per_tb, now_ns)
        if load[1] < self.config.max_tbs_per_sm:
            del self._open[bisect_left(self._open, load)]
        insort(self._open, sm.load)

    def _occupy(self, sm, threads_per_tb, now_ns):
        self._advance(now_ns)
        sm.resident_tbs += 1
        sm.resident_threads += threads_per_tb
        self.running += 1
        self.placements += 1
        self.peak_concurrency = max(self.peak_concurrency, self.running)
        if self.tracer.enabled:
            self._sample_occupancy(now_ns, sm=sm)

    def _vacate(self, sm, threads_per_tb, now_ns):
        if sm.resident_tbs <= 0 or sm.resident_threads < threads_per_tb:
            raise RuntimeError("release without matching placement")
        self._advance(now_ns)
        sm.resident_tbs -= 1
        sm.resident_threads -= threads_per_tb
        self.running -= 1
        if self.tracer.enabled:
            self._sample_occupancy(now_ns, sm=sm)

    def finalize(self, now_ns):
        """Close the concurrency integral at end of simulation."""
        self._advance(now_ns)
        m = self.metrics
        if m.enabled:
            m.set_gauge("device.peak_tb_concurrency", self.peak_concurrency)
            m.set_gauge("device.busy_ns", self.busy_ns)
            m.set_gauge("device.concurrency_integral", self.concurrency_integral)
            m.inc("device.tb_placements", self.placements)


class UnboundedDevice(Device):
    """A device with no occupancy limits — every placement succeeds.

    Used by the what-if analyzer's ``infinite_sms`` replay: placement is
    O(1) (everything lands on SM 0), so the replay needs no artificially
    huge SM array and no placement order.  Accounting
    (concurrency integral, busy time, counters) matches :class:`Device`.
    """

    def __init__(self, config: GPUConfig, tracer=None, metrics=None):
        super().__init__(config, tracer=tracer, metrics=metrics)
        self.sms = [SMState(0)]

    def free_slots(self, threads_per_tb):
        return 1 << 30

    def try_place(self, threads_per_tb, now_ns):
        self._occupy(self.sms[0], threads_per_tb, now_ns)
        return 0

    def release(self, sm_index, threads_per_tb, now_ns):
        self._vacate(self.sms[sm_index], threads_per_tb, now_ns)
