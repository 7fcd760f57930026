"""Host/device timing constants.

The paper's methodology (Section IV-A) fixes the host-side kernel launch
overhead at 5 microseconds, citing the EDGE measurements [27], with a
2 microsecond API-call component; the CUDA Dynamic Parallelism model of
Figure 14 uses 3 microseconds (the 5 us host launch minus the 2 us API
call).  All times here are nanoseconds.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class HostTimingModel:
    """Costs of host-side API interactions."""

    #: The API-call component of a kernel launch; it only feeds
    #: :attr:`kernel_launch_total_ns`.  The engines charge every API
    #: call ``EngineOptions.api_call_ns`` (1 us) of host issue time.
    api_call_ns: float = 2_000.0
    #: Device-side portion of a kernel launch (after the API call);
    #: api_call_ns + kernel_launch_device_ns = the paper's 5 us.
    kernel_launch_device_ns: float = 3_000.0
    #: Device-side launch cost for CUDA Dynamic Parallelism (Fig. 14).
    cdp_launch_ns: float = 3_000.0
    #: Host-blocking duration of cudaMalloc.
    malloc_ns: float = 3_000.0
    #: Fixed latency of any memcpy (driver + DMA setup).
    memcpy_latency_ns: float = 8_000.0
    #: Effective bandwidth for memcpy payloads.  Deliberately high: the
    #: paper's GPGPU-Sim methodology does not simulate PCIe transfers —
    #: kernels are replayed with data resident — so transfers here keep
    #: their *semantics* (blocking behaviour, dependencies, reordering
    #: opportunities) but are latency- rather than bandwidth-dominated,
    #: keeping the evaluation window comparable to the paper's.
    memcpy_gbps: float = 1_000.0

    @property
    def kernel_launch_total_ns(self):
        """End-to-end launch overhead on the critical path (5 us)."""
        return self.api_call_ns + self.kernel_launch_device_ns

    def memcpy_ns(self, num_bytes):
        return self.memcpy_latency_ns + num_bytes / self.memcpy_gbps
