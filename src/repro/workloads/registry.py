"""Workload registry: the paper's Table II benchmark suite by name."""

import importlib
from dataclasses import dataclass, field
from typing import Callable, Dict, Tuple, Union


class UnknownWorkloadError(KeyError):
    """A workload name matched nothing.

    Subclasses :class:`KeyError` for backward compatibility; the CLI
    maps it to exit code 2 with a one-line message.
    """


@dataclass(frozen=True)
class WorkloadSpec:
    """Registry entry: paper metadata plus the builder.

    ``builder`` is a callable or its ``"module:function"`` path; a path
    is imported on the first build, so a run loads only its own suite.
    ``small_overrides`` are builder parameters for a scaled-down variant
    used by value-level validation and quick tests (the functional
    simulator executes every thread in Python).
    """

    name: str
    description: str
    suite: str
    paper_kernels: int
    paper_patterns: Tuple[int, ...]
    builder: Union[Callable, str]
    small_overrides: Dict[str, int] = field(default_factory=dict)

    def build(self, **overrides):
        return self._builder()(**overrides)

    def build_small(self, **extra):
        params = dict(self.small_overrides)
        params.update(extra)
        return self._builder()(**params)

    def _builder(self):
        if callable(self.builder):
            return self.builder
        module, _, name = self.builder.partition(":")
        return getattr(importlib.import_module(module), name)

    def as_dict(self):
        """JSON-safe registry row (``repro list --json``, ``/workloads``)."""
        return {
            "name": self.name,
            "description": self.description,
            "suite": self.suite,
            "paper_kernels": self.paper_kernels,
            "paper_patterns": list(self.paper_patterns),
        }


_SPECS = (
    WorkloadSpec(
        "3mm", "3 Matrix Multiplications", "PolyBench", 3, (2, 7),
        "repro.workloads.polybench:build_3mm",
        small_overrides={"elems": 2048},
    ),
    WorkloadSpec(
        "alexnet", "AlexNet network", "Tango", 22, (1, 3, 4),
        "repro.workloads.tango:build_alexnet",
        small_overrides={"scale": 16384},
    ),
    WorkloadSpec(
        "bicg",
        "BiCG Sub Kernel of BiCGStab Linear Solver",
        "PolyBench",
        2,
        (7,),
        "repro.workloads.polybench:build_bicg",
        small_overrides={"blocks": 2, "k": 16},
    ),
    WorkloadSpec(
        "fdtd-2d",
        "2D Finite Difference Time Domain",
        "PolyBench",
        24,
        (5, 7),
        "repro.workloads.polybench:build_fdtd2d",
        small_overrides={"iterations": 2, "row_elems": 64, "rows_of_blocks": 4},
    ),
    WorkloadSpec(
        "fft", "Fast Fourier Transform", "SHOC", 60, (3, 5, 7),
        "repro.workloads.shoc:build_fft",
        small_overrides={"batches": 1, "stages": 4, "half_elems": 512},
    ),
    WorkloadSpec(
        "gaussian", "Gaussian Elimination", "Rodinia", 510, (4, 5),
        "repro.workloads.rodinia:build_gaussian",
        small_overrides={"n": 8, "stride": 264},
    ),
    WorkloadSpec(
        "gramschm",
        "Gram-Schmidt Decomposition",
        "PolyBench",
        192,
        (1, 4, 5),
        "repro.workloads.polybench:build_gramschm",
        small_overrides={"columns": 4, "col_blocks": 2},
    ),
    WorkloadSpec(
        "hs", "Hotspot", "Rodinia", 10, (6,),
        "repro.workloads.rodinia:build_hotspot",
        small_overrides={"iterations": 3, "row_elems": 64, "rows_of_blocks": 4},
    ),
    WorkloadSpec(
        "lud", "LU Decomposition", "Rodinia", 46, (3, 4, 5),
        "repro.workloads.rodinia:build_lud",
        small_overrides={"tiles": 4, "tile_elems": 16},
    ),
    WorkloadSpec(
        "mvt", "Matrix Vector Product and Transpose", "PolyBench", 2, (7,),
        "repro.workloads.polybench:build_mvt",
        small_overrides={"blocks": 2, "k": 16},
    ),
    WorkloadSpec(
        "nw", "Needleman-Wunsch", "Rodinia", 255, (4, 5),
        "repro.workloads.rodinia:build_nw",
        small_overrides={"block_diagonals": 6, "block_threads": 16},
    ),
    WorkloadSpec(
        "path", "Path Finder", "Rodinia", 5, (6,),
        "repro.workloads.rodinia:build_pathfinder",
        small_overrides={"iterations": 3, "cols_of_blocks": 4},
    ),
)

_BY_NAME = {spec.name: spec for spec in _SPECS}

# Hidden extras (e.g. the fast-engine workload chains) resolve
# through get_workload() but stay out of all_workloads() so the
# paper's Table-II suites remain exactly the paper's.
_EXTRAS = None


def _extra_specs():
    global _EXTRAS
    if _EXTRAS is None:
        # Imported lazily: microbench imports ptxgen/base, which are
        # cheap, but keeping it out of module import also avoids any
        # future cycle through the registry.
        from repro.workloads.microbench import engine_specs

        _EXTRAS = {spec.name: spec for spec in engine_specs()}
        # Rodinia's backprop is the paper's running example (Fig. 1)
        # but not a Table II row, so it resolves by name without
        # joining the default suite.
        backprop = WorkloadSpec(
            "backprop",
            "Back Propagation: per-unit layer-forward reductions + "
            "weight adjustment (paper Fig. 1 running example)",
            "Rodinia", 2, (4, 5), "repro.workloads.rodinia:build_backprop",
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
    (:func:`repro.workloads.fuzzgen.fuzz_workload_spec`); like the other
    hidden extras they never join ``all_workloads()``.
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
        from repro.workloads.fuzzgen import fuzz_workload_spec

        return fuzz_workload_spec(int(key[len("fuzz-"):]))
    raise UnknownWorkloadError(
        "unknown workload {!r}; available: {}".format(
            name, ", ".join(workload_names())
        )
    ) from None

