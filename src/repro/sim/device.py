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
plus a short list shift.  Each key is one int that packs
``(threads, tbs, index)`` — index in the low bits, block count above
it, thread count on top — so integer order is exactly the tuple order.
"""

from bisect import bisect_left, insort

from repro.obs import PID_DEVICE, resolve_metrics, resolve_tracer
from repro.sim.config import GPUConfig


def empty_device_slots(config: GPUConfig, threads_per_tb: int) -> int:
    """Blocks of the given size an *idle* device holds.

    Equals ``Device.free_slots`` on a freshly constructed device (every
    SM contributes the same ``min`` of its block cap and thread budget).
    This is the wave width of the fast engine tier
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
        num_sms = config.num_sms
        self._max_tbs = config.max_tbs_per_sm
        self._max_threads = config.max_threads_per_sm
        #: per-SM resident block and thread counts
        self.resident_tbs = [0] * num_sms
        self.resident_threads = [0] * num_sms
        # placement key layout (see the module docstring): a block count
        # never exceeds the cap, so its field never carries into threads
        self._tbs_shift = max(num_sms - 1, 0).bit_length()
        self._threads_shift = (
            self._tbs_shift + max(self._max_tbs, 0).bit_length()
        )
        self._index_mask = (1 << self._tbs_shift) - 1
        self._one_tb = 1 << self._tbs_shift
        #: keys of the SMs below their block cap, ascending.  A block
        #: fits such an SM iff its thread budget allows, so the first
        #: entry is the least-loaded SM that fits, if any does.  An idle
        #: SM's key is its index.
        self._open = list(range(num_sms)) if self._max_tbs > 0 else []
        self.running = 0
        self._last_event_ns = 0.0
        self.concurrency_integral = 0.0
        self.busy_ns = 0.0
        self.peak_concurrency = 0
        self.placements = 0

    def _sample_occupancy(self, now_ns, sm):
        self.tracer.counter(
            "running_tbs",
            {"running": self.running},
            ts_us=now_ns / 1e3,
            cat="device",
            pid=PID_DEVICE,
        )
        if getattr(self.tracer, "per_sm_counters", False):
            self.tracer.counter(
                "running_tbs[sm={:02d}]".format(sm),
                {"running": self.resident_tbs[sm]},
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
        per_tb = max(1, threads_per_tb)
        total = 0
        for tbs, threads in zip(self.resident_tbs, self.resident_threads):
            by_tbs = self._max_tbs - tbs
            by_threads = (self._max_threads - threads) // per_tb
            total += max(0, min(by_tbs, by_threads))
        return total

    def try_place(self, threads_per_tb, now_ns):
        """Place one block on the least-loaded SM it fits; returns the SM
        index or ``None`` when nothing fits."""
        open_sms = self._open
        if not open_sms:
            return None
        key = open_sms[0]
        if (key >> self._threads_shift) + threads_per_tb > self._max_threads:
            return None  # the least-threaded open SM has the most room
        del open_sms[0]
        sm = key & self._index_mask
        if self.resident_tbs[sm] + 1 < self._max_tbs:
            insort(
                open_sms,
                key + (threads_per_tb << self._threads_shift) + self._one_tb,
            )
        self._occupy(sm, threads_per_tb, now_ns)
        return sm

    def release(self, sm_index, threads_per_tb, now_ns):
        tbs = self.resident_tbs[sm_index]
        key = (
            (self.resident_threads[sm_index] << self._threads_shift)
            + (tbs << self._tbs_shift) + sm_index
        )
        self._vacate(sm_index, threads_per_tb, now_ns)
        open_sms = self._open
        if tbs < self._max_tbs:
            del open_sms[bisect_left(open_sms, key)]
        insort(
            open_sms,
            key - (threads_per_tb << self._threads_shift) - self._one_tb,
        )

    def _occupy(self, sm, threads_per_tb, now_ns):
        self._advance(now_ns)
        self.resident_tbs[sm] += 1
        self.resident_threads[sm] += threads_per_tb
        self.running += 1
        self.placements += 1
        if self.running > self.peak_concurrency:
            self.peak_concurrency = self.running
        if self.tracer.enabled:
            self._sample_occupancy(now_ns, sm)

    def _vacate(self, sm, threads_per_tb, now_ns):
        if (
            self.resident_tbs[sm] <= 0
            or self.resident_threads[sm] < threads_per_tb
        ):
            raise RuntimeError("release without matching placement")
        self._advance(now_ns)
        self.resident_tbs[sm] -= 1
        self.resident_threads[sm] -= threads_per_tb
        self.running -= 1
        if self.tracer.enabled:
            self._sample_occupancy(now_ns, sm)

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
        self.resident_tbs = [0]
        self.resident_threads = [0]

    def free_slots(self, threads_per_tb):
        return 1 << 30

    def try_place(self, threads_per_tb, now_ns):
        self._occupy(0, threads_per_tb, now_ns)
        return 0

    def release(self, sm_index, threads_per_tb, now_ns):
        self._vacate(sm_index, threads_per_tb, now_ns)
