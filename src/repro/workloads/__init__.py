"""Multi-kernel GPU benchmark applications (paper Table II).

Every workload generator emits a full :class:`Application`: real
mini-PTX kernels (so the launch-time analysis runs on actual
instruction streams), device buffers, and the host API trace the
program would issue.  The suite mirrors the paper's evaluation set:

========  =========================================  ========  ========
name      description                                #kernels  patterns
========  =========================================  ========  ========
3mm       3 chained matrix multiplications           3         (2,7)
alexnet   AlexNet-like CNN inference                 22        (1,3,4)
bicg      BiCG sub-kernels of BiCGStab               2         (7)
fdtd-2d   2-D finite difference time domain          24        (5,7)
fft       radix-2 Stockham FFT stages                60        (3,5,7)
gaussian  Gaussian elimination (Fan1/Fan2)           510       (4,5)
gramschm  Gram-Schmidt decomposition                 192       (1,4,5)
hs        Hotspot thermal stencil                    10        (6)
lud       LU decomposition                           46        (3,4,5)
mvt       matrix-vector product and transpose        2         (7)
nw        Needleman-Wunsch wavefront                 255       (4,5)
path      PathFinder dynamic programming             5         (6)
========  =========================================  ========  ========

plus the VectorAdd interconnectivity microbenchmark (Fig. 12) and six
wavefront applications for the Wireframe/CDP comparison (Fig. 14).
"""

from repro.workloads.base import Application, AppBuilder
from repro.workloads.registry import (
    UnknownWorkloadError,
    WorkloadSpec,
    all_workloads,
    get_workload,
    workload_names,
)

__all__ = [
    "Application",
    "AppBuilder",
    "UnknownWorkloadError",
    "WorkloadSpec",
    "all_workloads",
    "get_workload",
    "workload_names",
]
