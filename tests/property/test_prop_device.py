"""Property tests: SM placement and occupancy accounting.

:class:`~repro.sim.device.Device` keeps the SMs that can take another
block as packed integer keys in sorted order.  The oracle here is the
plain definition of its policy: among the SMs below the block cap whose
thread budget fits the block, pick the minimum ``(threads, tbs,
index)``, and integrate the running-block count once per distinct event
time.  Random devices run random placements and releases at
non-decreasing times; every observable must agree exactly, including
the float integrals.  :class:`~repro.sim.device.UnboundedDevice` is
checked against the same oracle with one limitless SM.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.config import GPUConfig
from repro.sim.device import Device, UnboundedDevice


class OracleDevice:
    """The least-loaded scan and ``_advance`` accumulation, spelled out."""

    def __init__(self, config, unbounded=False):
        self.config = config
        self.unbounded = unbounded
        num_sms = 1 if unbounded else config.num_sms
        self.tbs = [0] * num_sms
        self.threads = [0] * num_sms
        self.running = 0
        self.last = 0.0
        self.integral = 0.0
        self.busy = 0.0
        self.peak = 0
        self.placements = 0

    def advance(self, now):
        dt = now - self.last
        if dt > 0:
            self.integral += dt * self.running
            if self.running > 0:
                self.busy += dt
            self.last = now

    def try_place(self, threads, now):
        if self.unbounded:
            sm = 0
        else:
            fits = [
                (self.threads[i], self.tbs[i], i)
                for i in range(self.config.num_sms)
                if self.tbs[i] < self.config.max_tbs_per_sm
                and self.threads[i] + threads
                <= self.config.max_threads_per_sm
            ]
            if not fits:
                return None
            sm = min(fits)[2]
        self.advance(now)
        self.tbs[sm] += 1
        self.threads[sm] += threads
        self.running += 1
        self.placements += 1
        self.peak = max(self.peak, self.running)
        return sm

    def release(self, sm, threads, now):
        self.advance(now)
        self.tbs[sm] -= 1
        self.threads[sm] -= threads
        self.running -= 1

    def free_slots(self, threads):
        if self.unbounded:
            return 1 << 30
        cfg = self.config
        return sum(
            max(0, min(
                cfg.max_tbs_per_sm - tbs,
                (cfg.max_threads_per_sm - used) // max(1, threads),
            ))
            for tbs, used in zip(self.tbs, self.threads)
        )


config_st = st.builds(
    GPUConfig,
    num_sms=st.integers(1, 5),
    max_tbs_per_sm=st.integers(0, 4),
    max_threads_per_sm=st.integers(64, 1024),
)
#: (place?, block size, which live block to release, time step); zero
#: steps make same-time events, whose integral advance must be skipped
op_st = st.tuples(
    st.booleans(),
    st.integers(32, 512),
    st.integers(0, 1 << 16),
    st.one_of(st.just(0.0), st.floats(0.0, 1e4, allow_nan=False)),
)


def _assert_same(device, oracle, threads):
    assert device.running == oracle.running
    assert device.peak_concurrency == oracle.peak
    assert device.placements == oracle.placements
    assert device.concurrency_integral == oracle.integral
    assert device.busy_ns == oracle.busy
    for size in (threads, 32, 512):
        assert device.free_slots(size) == oracle.free_slots(size)


@given(config_st, st.lists(op_st, max_size=80), st.booleans())
@settings(max_examples=300, deadline=None)
def test_device_matches_least_loaded_scan(config, ops, unbounded):
    device = UnboundedDevice(config) if unbounded else Device(config)
    oracle = OracleDevice(config, unbounded=unbounded)
    live = []  # (sm, threads) of the placed, unreleased blocks
    now = 0.0
    for place, threads, pick, dt in ops:
        now += dt
        if place or not live:
            sm = device.try_place(threads, now)
            assert sm == oracle.try_place(threads, now)
            if sm is not None:
                live.append((sm, threads))
        else:
            sm, threads = live.pop(pick % len(live))
            device.release(sm, threads, now)
            oracle.release(sm, threads, now)
        _assert_same(device, oracle, threads)
    now += 1.0
    device.finalize(now)
    oracle.advance(now)
    _assert_same(device, oracle, 32)

