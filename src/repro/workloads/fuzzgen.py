"""Seeded fuzz applications for the differential fuzzing harness.

:class:`FuzzSpec` composes the kernel generators of
:mod:`repro.workloads.ptxgen` into random multi-kernel applications for
:mod:`repro.fuzz`: ``FuzzSpec.from_seed(s)`` is a pure function of
``s`` (``random.Random`` only — no hash-seed or dict order dependence),
and :func:`build_fuzz_app` materializes it as a real-PTX application.
:func:`fuzz_workload_spec` wraps that as a hidden registry entry so
``get_workload("fuzz-<seed>")`` resolves it without the name joining
``list``.
"""

import functools
import hashlib
import random
from dataclasses import dataclass
from typing import Tuple

from repro.workloads.ptxgen import (
    elementwise,
    group_read,
    indirect_gather,
    matvec,
    reduce_columns,
    stencil1d,
)

#: generator families the fuzzer draws from, with draw weights.  The mix
#: is biased toward the affine shapes (one TB range per window in the
#: closed form) with regular visits to the 2-D group shape (one range per
#: row) and the indirect shape (Algorithm-1 fallback), so every path of
#: the pair-graph construction is exercised.
FUZZ_GENERATORS = (
    ("elementwise", 4),
    ("stencil", 2),
    ("group", 2),
    ("matvec", 1),
    ("reduce", 1),
    ("indirect", 1),
)

_FUZZ_MIN_KERNELS = 2
_FUZZ_MAX_KERNELS = 6
_FUZZ_BLOCKS = (32, 64)
_FUZZ_GRIDS = (2, 3, 4, 6, 8, 12, 16)
_FUZZ_GROUP_WIDTHS = (2, 4)
_FUZZ_GROUP_COUNTS = (2, 3, 4)


@dataclass(frozen=True)
class FuzzKernel:
    """One drawn kernel launch: generator family, shape, buffer wiring.

    ``inputs``/``output`` are indices into the spec's shared buffer
    pool — aliasing between kernels (consuming an earlier output,
    overwriting a live buffer) is where the interesting dependency
    graphs come from.  ``params`` are the generator knobs as sorted
    ``(name, value)`` pairs so the dataclass stays hashable and
    order-independent.
    """

    gen: str
    grid: Tuple[int, int, int]
    block: int
    inputs: Tuple[int, ...]
    output: int
    params: Tuple[Tuple[str, int], ...] = ()

    @property
    def num_tbs(self):
        return self.grid[0] * self.grid[1] * self.grid[2]

    def param(self, name, default=0):
        return dict(self.params).get(name, default)

    def as_dict(self):
        return {
            "gen": self.gen,
            "grid": list(self.grid),
            "block": self.block,
            "inputs": list(self.inputs),
            "output": self.output,
            "params": dict(self.params),
        }

    @classmethod
    def from_dict(cls, data):
        return cls(
            gen=str(data["gen"]),
            grid=tuple(int(v) for v in data["grid"]),
            block=int(data["block"]),
            inputs=tuple(int(v) for v in data["inputs"]),
            output=int(data["output"]),
            params=tuple(sorted(
                (str(k), int(v)) for k, v in dict(data["params"]).items()
            )),
        )


@dataclass(frozen=True)
class FuzzSpec:
    """A deterministic multi-kernel fuzz application.

    ``from_seed`` draws everything from one ``random.Random(seed)``
    stream, so the same seed regenerates byte-identical PTX on any
    ``PYTHONHASHSEED`` and in any worker process (property-tested).
    ``elems`` is the shared per-buffer element count, sized to cover
    every kernel's footprint.  Shrunk variants (``repro.fuzz.shrink``)
    are no longer regenerable from the seed — they round-trip through
    ``to_dict``/``from_dict`` in ``repro-fuzz-case`` files instead.
    """

    seed: int
    kernels: Tuple[FuzzKernel, ...]
    num_buffers: int
    elems: int

    @classmethod
    def from_seed(cls, seed):
        seed = int(seed)
        rng = random.Random(seed)
        num_kernels = rng.randint(_FUZZ_MIN_KERNELS, _FUZZ_MAX_KERNELS)
        kernels = []
        num_buffers = 1  # buffer 0 is the h2d-initialized input
        last_output = 0
        for _ in range(num_kernels):
            gen = _weighted_choice(rng, FUZZ_GENERATORS)
            block = rng.choice(_FUZZ_BLOCKS)
            if gen == "group":
                grid = (rng.choice(_FUZZ_GROUP_WIDTHS),
                        rng.choice(_FUZZ_GROUP_COUNTS), 1)
            else:
                grid = (rng.choice(_FUZZ_GRIDS), 1, 1)
            num_inputs = {
                "elementwise": 2 if rng.random() < 0.35 else 1,
                "stencil": 1, "matvec": 2, "reduce": 1,
                "group": 1, "indirect": 2,
            }[gen]
            inputs = []
            for j in range(num_inputs):
                if j == 0 and rng.random() < 0.65:
                    inputs.append(last_output)  # chain onto the producer
                else:
                    inputs.append(rng.randrange(num_buffers))
            if rng.random() < 0.75:
                output = num_buffers
                num_buffers += 1
            else:
                output = rng.randrange(num_buffers)  # alias a live buffer
            params = _draw_params(rng, gen, grid, block, inputs)
            kernels.append(FuzzKernel(
                gen=gen, grid=grid, block=block, inputs=tuple(inputs),
                output=output, params=tuple(sorted(params.items())),
            ))
            last_output = output
        kernels = tuple(kernels)
        return cls(
            seed=seed,
            kernels=kernels,
            num_buffers=num_buffers,
            elems=_required_elems(kernels),
        )

    def to_dict(self):
        return {
            "seed": self.seed,
            "num_buffers": self.num_buffers,
            "elems": self.elems,
            "kernels": [k.as_dict() for k in self.kernels],
        }

    @classmethod
    def from_dict(cls, data):
        return cls(
            seed=int(data["seed"]),
            kernels=tuple(
                FuzzKernel.from_dict(k) for k in data["kernels"]
            ),
            num_buffers=int(data["num_buffers"]),
            elems=int(data["elems"]),
        )


def _weighted_choice(rng, table):
    total = sum(weight for _, weight in table)
    point = rng.random() * total
    for name, weight in table:
        point -= weight
        if point < 0:
            return name
    return table[-1][0]


def _draw_params(rng, gen, grid, block, inputs):
    if gen == "elementwise":
        params = {"alu": rng.randint(1, 3)}
        for j in range(len(inputs)):
            params["shift{}".format(j)] = rng.choice((-2, -1, 0, 0, 1, 2))
        return params
    if gen == "stencil":
        return {"radius": rng.choice((1, 2)), "alu": rng.randint(1, 3)}
    if gen == "matvec":
        return {"k": rng.choice((4, 8))}
    if gen == "reduce":
        return {
            "stride": block * rng.choice((1, 2)),
            "count": rng.randint(2, 4),
            "off": rng.choice((0, block)),
        }
    if gen == "group":
        return {"alu": rng.randint(1, 2)}
    if gen == "indirect":
        return {}
    raise ValueError("unknown fuzz generator %r" % gen)


def _required_elems(kernels):
    """Shared buffer size covering every kernel's access footprint."""
    needed = 256
    for k in kernels:
        flat = k.num_tbs * k.block
        if k.gen == "elementwise":
            span = flat + 4
        elif k.gen == "stencil":
            span = flat + 2 * k.param("radius", 1)
        elif k.gen == "matvec":
            span = flat * k.param("k", 4)
        elif k.gen == "reduce":
            span = (k.param("off") + flat
                    + (k.param("count", 2) - 1) * k.param("stride", k.block) + 1)
        else:  # group / indirect read at most the flat index space
            span = flat
        needed = max(needed, span)
    return needed + 16


def fuzz_kernel_source(index, kernel):
    """The PTX text for one drawn kernel (name is index-unique because
    ``AppBuilder.register_kernel`` dedupes by kernel name)."""
    name = "fz{}_{}".format(index, kernel.gen)
    if kernel.gen == "elementwise":
        shifts = [kernel.param("shift{}".format(j))
                  for j in range(len(kernel.inputs))]
        return elementwise(name, num_inputs=len(kernel.inputs),
                           shifts=shifts, alu=kernel.param("alu", 1))
    if kernel.gen == "stencil":
        return stencil1d(name, radius=kernel.param("radius", 1),
                         alu=kernel.param("alu", 1))
    if kernel.gen == "matvec":
        return matvec(name)
    if kernel.gen == "reduce":
        return reduce_columns(name)
    if kernel.gen == "group":
        return group_read(name, group_span_elems=kernel.grid[0] * kernel.block,
                          alu=kernel.param("alu", 1))
    if kernel.gen == "indirect":
        return indirect_gather(name)
    raise ValueError("unknown fuzz generator %r" % kernel.gen)


def _fuzz_args(kernel, buffers):
    bufs = [buffers[i] for i in kernel.inputs]
    out = buffers[kernel.output]
    if kernel.gen == "elementwise":
        args = {"IN{}".format(j): buf for j, buf in enumerate(bufs)}
        args["OUT"] = out
        return args
    if kernel.gen == "stencil":
        return {"IN": bufs[0], "OUT": out}
    if kernel.gen == "matvec":
        return {"A": bufs[0], "X": bufs[1], "Y": out,
                "K": kernel.param("k", 4)}
    if kernel.gen == "reduce":
        return {"IN": bufs[0], "OUT": out,
                "STRIDE": kernel.param("stride", kernel.block),
                "COUNT": kernel.param("count", 2),
                "OFF": kernel.param("off"), "OUTOFF": 0}
    if kernel.gen == "group":
        return {"IN": bufs[0], "OUT": out}
    if kernel.gen == "indirect":
        return {"DATA": bufs[0], "IDX": bufs[1], "OUT": out}
    raise ValueError("unknown fuzz generator %r" % kernel.gen)


def fuzz_module_source(spec):
    """All kernels of a spec as one parse_module-compatible PTX text."""
    return "\n".join(
        fuzz_kernel_source(i, k) for i, k in enumerate(spec.kernels)
    )


def fuzz_module_digest(seed):
    """sha256 over the regenerated PTX of ``FuzzSpec.from_seed(seed)``.

    Module-level and picklable on purpose: the determinism property
    tests fan this out over worker processes and subprocesses with
    different ``PYTHONHASHSEED`` values and compare digests.
    """
    source = fuzz_module_source(FuzzSpec.from_seed(seed))
    return "sha256:" + hashlib.sha256(source.encode("utf-8")).hexdigest()


def build_fuzz_app(spec):
    """Materialize a :class:`FuzzSpec` as a real application."""
    # Imported here: base pulls in the host/ptx layers, which the plain
    # kernel generators above must stay independent of.
    from repro.workloads.base import AppBuilder

    builder = AppBuilder("fuzz-{}".format(spec.seed))
    buffers = [
        builder.alloc("B{}".format(i), spec.elems * 4)
        for i in range(spec.num_buffers)
    ]
    builder.h2d(buffers[0])
    for i, kernel in enumerate(spec.kernels):
        builder.launch(
            fuzz_kernel_source(i, kernel),
            grid=kernel.grid,
            block=kernel.block,
            args=_fuzz_args(kernel, buffers),
            intensity=2.0,
            tag="fz{}".format(i),
        )
    builder.d2h(buffers[spec.kernels[-1].output])
    return builder.build(
        fuzz_seed=spec.seed, fuzz_kernels=len(spec.kernels)
    )


@functools.lru_cache(maxsize=256)
def fuzz_workload_spec(seed):
    """The hidden registry row behind ``get_workload("fuzz-<seed>")``.

    Resolvable by name (so the CLI and the daemon take it like any
    workload) while staying out of ``all_workloads()`` and therefore
    out of ``list``.
    """
    from repro.workloads.registry import WorkloadSpec

    spec = FuzzSpec.from_seed(seed)

    def build(**_overrides):
        return build_fuzz_app(spec)

    return WorkloadSpec(
        name="fuzz-{}".format(spec.seed),
        description="seeded fuzz application ({} kernels, {} buffers)".format(
            len(spec.kernels), spec.num_buffers
        ),
        suite="fuzz",
        paper_kernels=len(spec.kernels),
        paper_patterns=(),
        builder=build,
    )
