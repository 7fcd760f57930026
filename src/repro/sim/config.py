"""Device configuration (Titan X Pascal-like, paper Section IV-A)."""

from dataclasses import dataclass, field

from repro.host.timing import HostTimingModel


@dataclass(frozen=True)
class GPUConfig:
    """Static device parameters for the simulator.

    Defaults follow the paper's methodology: 28 SMs, each able to hold
    up to 32 thread blocks, with a 5 microsecond kernel launch overhead.
    Cost-model constants approximate a ~1.4 GHz part; the experiments
    only rely on *relative* kernel durations, not absolute cycle
    fidelity (see DESIGN.md).
    """

    num_sms: int = 28
    max_tbs_per_sm: int = 32
    max_threads_per_sm: int = 2048
    clock_ghz: float = 1.417
    warp_size: int = 32

    #: cost model: average issue cycles per warp-instruction by class
    alu_cycles: float = 4.0
    mem_cycles: float = 40.0
    shared_cycles: float = 8.0
    control_cycles: float = 4.0
    barrier_cycles: float = 20.0
    #: fixed per-thread-block overhead (launch/drain) in cycles
    tb_fixed_cycles: float = 1500.0
    #: how many warp schedulers share the work of one thread block
    warp_schedulers: int = 4
    #: deterministic per-thread-block duration spread (fraction).  Real
    #: GPUs stagger block completion times through cache behaviour and
    #: warp scheduling; a TB-granularity model needs an explicit spread,
    #: or same-size blocks finish in lockstep and fine-grain dependency
    #: release degenerates to a kernel barrier.  0 disables.
    duration_jitter: float = 0.15
    #: scale memory cost and request counts by each kernel's measured
    #: coalescing factor (transactions per warp per access, derived from
    #: inter-thread strides).  Off by default: the headline experiments
    #: are calibrated against the paper without it; the
    #: ``coalescing`` ablation quantifies its effect.
    model_coalescing: bool = False
    #: memory transaction (cache line) size for the coalescing model
    line_bytes: int = 128

    timing: HostTimingModel = field(default_factory=HostTimingModel)

    @property
    def cycle_ns(self):
        return 1.0 / self.clock_ghz
