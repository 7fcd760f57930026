"""Thread-block-granularity GPU timing simulator.

The paper evaluates on GPGPU-Sim with a Titan X (Pascal) configuration:
28 SMs, up to 32 resident thread blocks per SM.  BlockMaestro's
mechanisms (kernel pre-launching, TB-level dependency release, producer/
consumer scheduling priority) all act at thread-block scheduling
granularity, so this reproduction models the device at that granularity:
a discrete-event simulator dispatches thread blocks to SM slots and a
PTX-derived cost model sets each block's execution latency.  See
DESIGN.md ("Substitutions") for the fidelity discussion.
"""

from repro.sim.config import GPUConfig
from repro.sim.cost import CostModel
from repro.sim.device import Device
from repro.sim.stats import RunStats, TBRecord, TBTable

__all__ = [
    "GPUConfig",
    "CostModel",
    "Device",
    "RunStats",
    "TBRecord",
    "TBTable",
]
