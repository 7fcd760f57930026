"""Workload registry: the paper's Table II benchmark suite by name."""

import fnmatch
from dataclasses import dataclass, field
from typing import Callable, Dict, Tuple


class UnknownWorkloadError(KeyError):
    """A workload name (or ``--filter`` glob) matched nothing.

    Subclasses :class:`KeyError` for backward compatibility; the CLI
    maps it to exit code 2 with a one-line message.
    """

from repro.workloads.polybench import (
    build_3mm,
    build_bicg,
    build_fdtd2d,
    build_gramschm,
    build_mvt,
)
from repro.workloads.rodinia import (
    build_gaussian,
    build_hotspot,
    build_lud,
    build_nw,
    build_pathfinder,
)
from repro.workloads.shoc import build_fft
from repro.workloads.tango import build_alexnet


@dataclass(frozen=True)
class WorkloadSpec:
    """Registry entry: paper metadata plus the builder callable.

    ``small_overrides`` are builder parameters for a scaled-down variant
    used by value-level validation and quick tests (the functional
    simulator executes every thread in Python).
    """

    name: str
    description: str
    suite: str
    paper_kernels: int
    paper_patterns: Tuple[int, ...]
    builder: Callable
    small_overrides: Dict[str, int] = field(default_factory=dict)

    def build(self, **overrides):
        return self.builder(**overrides)

    def build_small(self, **extra):
        params = dict(self.small_overrides)
        params.update(extra)
        return self.builder(**params)

    def as_dict(self):
        """JSON-safe registry row (``repro list --json``, bench reports)."""
        return {
            "name": self.name,
            "description": self.description,
            "suite": self.suite,
            "paper_kernels": self.paper_kernels,
            "paper_patterns": list(self.paper_patterns),
        }


_SPECS = (
    WorkloadSpec(
        "3mm", "3 Matrix Multiplications", "PolyBench", 3, (2, 7), build_3mm,
        small_overrides={"elems": 2048},
    ),
    WorkloadSpec(
        "alexnet", "AlexNet network", "Tango", 22, (1, 3, 4), build_alexnet,
        small_overrides={"scale": 16384},
    ),
    WorkloadSpec(
        "bicg",
        "BiCG Sub Kernel of BiCGStab Linear Solver",
        "PolyBench",
        2,
        (7,),
        build_bicg,
        small_overrides={"blocks": 2, "k": 16},
    ),
    WorkloadSpec(
        "fdtd-2d",
        "2D Finite Difference Time Domain",
        "PolyBench",
        24,
        (5, 7),
        build_fdtd2d,
        small_overrides={"iterations": 2, "row_elems": 64, "rows_of_blocks": 4},
    ),
    WorkloadSpec(
        "fft", "Fast Fourier Transform", "SHOC", 60, (3, 5, 7), build_fft,
        small_overrides={"batches": 1, "stages": 4, "half_elems": 512},
    ),
    WorkloadSpec(
        "gaussian", "Gaussian Elimination", "Rodinia", 510, (4, 5), build_gaussian,
        small_overrides={"n": 8, "stride": 264},
    ),
    WorkloadSpec(
        "gramschm",
        "Gram-Schmidt Decomposition",
        "PolyBench",
        192,
        (1, 4, 5),
        build_gramschm,
        small_overrides={"columns": 4, "col_blocks": 2},
    ),
    WorkloadSpec(
        "hs", "Hotspot", "Rodinia", 10, (6,), build_hotspot,
        small_overrides={"iterations": 3, "row_elems": 64, "rows_of_blocks": 4},
    ),
    WorkloadSpec(
        "lud", "LU Decomposition", "Rodinia", 46, (3, 4, 5), build_lud,
        small_overrides={"tiles": 4, "tile_elems": 16},
    ),
    WorkloadSpec(
        "mvt", "Matrix Vector Product and Transpose", "PolyBench", 2, (7,),
        build_mvt,
        small_overrides={"blocks": 2, "k": 16},
    ),
    WorkloadSpec(
        "nw", "Needleman-Wunsch", "Rodinia", 255, (4, 5), build_nw,
        small_overrides={"block_diagonals": 6, "block_threads": 16},
    ),
    WorkloadSpec(
        "path", "Path Finder", "Rodinia", 5, (6,), build_pathfinder,
        small_overrides={"iterations": 3, "cols_of_blocks": 4},
    ),
)

_BY_NAME = {spec.name: spec for spec in _SPECS}

# Hidden extras (e.g. the fast-engine workload chains) resolve
# through get_workload() but stay out of all_workloads()/--filter so the
# paper's Table-II suites remain exactly the paper's.
_EXTRAS = None


def _extra_specs():
    global _EXTRAS
    if _EXTRAS is None:
        # Imported lazily: microbench imports ptxgen/base, which are
        # cheap, but keeping it out of module import also avoids any
        # future cycle through the registry.
        from repro.workloads.microbench import engine_specs
        from repro.workloads.rodinia import build_backprop

        _EXTRAS = {spec.name: spec for spec in engine_specs()}
        # Rodinia's backprop is the paper's running example (Fig. 1)
        # but not a Table II row, so it resolves by name without
        # joining the default suite.
        backprop = WorkloadSpec(
            "backprop",
            "Back Propagation: per-unit layer-forward reductions + "
            "weight adjustment (paper Fig. 1 running example)",
            "Rodinia", 2, (4, 5), build_backprop,
            small_overrides={"in_blocks": 16, "hidden": 4},
        )
        _EXTRAS[backprop.name] = backprop
    return _EXTRAS


def workload_names():
    """Benchmark names in the paper's Table II order."""
    return [spec.name for spec in _SPECS]


def all_workloads():
    return list(_SPECS)


def get_workload(name) -> WorkloadSpec:
    """Look up a benchmark by name (case-insensitive: ``MVT`` == ``mvt``).

    ``fuzz-<seed>`` names resolve to seeded generator applications
    (:func:`repro.workloads.ptxgen.fuzz_workload_spec`); like the other
    hidden extras they never join ``all_workloads()``/``--filter``.
    """
    key = str(name).lower()
    try:
        return _BY_NAME[key]
    except KeyError:
        pass
    try:
        return _extra_specs()[key]
    except KeyError:
        pass
    if key.startswith("fuzz-") and key[len("fuzz-"):].isdigit():
        from repro.workloads.ptxgen import fuzz_workload_spec

        return fuzz_workload_spec(int(key[len("fuzz-"):]))
    raise UnknownWorkloadError(
        "unknown workload {!r}; available: {}".format(
            name, ", ".join(workload_names())
        )
    ) from None


def matching_workloads(patterns):
    """Specs whose names match any shell-style glob, in Table II order.

    Patterns are case-insensitive (``MVT``, ``f*``, ``?s`` all work).
    Raises :class:`UnknownWorkloadError` when nothing matches, so CLI
    callers fail fast with exit code 2 instead of running an empty
    suite.
    """
    lowered = [str(pattern).lower() for pattern in patterns]
    chosen = [
        spec
        for spec in _SPECS
        if any(fnmatch.fnmatchcase(spec.name, pattern) for pattern in lowered)
    ]
    if not chosen:
        raise UnknownWorkloadError(
            "no workload matches {!r}; available: {}".format(
                " ".join(str(p) for p in patterns), ", ".join(workload_names())
            )
        )
    return chosen
