"""Control-flow and def-use analyses over mini-PTX kernels.

Two facilities live here:

* :func:`backward_slice` — a faithful implementation of the paper's
  Algorithm 1: starting from a global load/store, walk backwards through
  the instruction stream tracking the origin of the address operand.
  Encountering a global load in the slice means the address is data
  dependent on memory (e.g. ``A[B[i]]``), which the paper handles by
  conservatively making the whole kernel dependent on its predecessor;
  we surface that as :class:`NonStaticAccess`.

* :func:`find_loops` — structured-loop discovery used by the forward
  value-range interpreter to reason about loop trip counts.
"""

from dataclasses import dataclass
from typing import Tuple

from repro.ptx.isa import Label, Opcode, Register


class NonStaticAccess(Exception):
    """An address derives from a global load (Algorithm 1, lines 7-9)."""

    def __init__(self, access_index, load_index):
        self.access_index = access_index
        self.load_index = load_index
        super().__init__(
            "address of instruction {} depends on global load at {}".format(
                access_index, load_index
            )
        )


@dataclass
class SliceResult:
    """Outcome of a backward slice from one memory instruction."""

    access_index: int
    instructions: Tuple[int, ...]
    unresolved: Tuple[Register, ...] = ()

    @property
    def fully_resolved(self):
        return not self.unresolved


def backward_slice(kernel, access_index):
    """Algorithm 1 (lines 2-18): trace the origins of a memory address.

    Returns a :class:`SliceResult` whose ``instructions`` are the indices
    (ascending) of instructions contributing to the address computation.
    Raises :class:`NonStaticAccess` if the address transitively derives
    from a value loaded from global memory.

    ``unresolved`` registers are those still live at the top of the
    kernel — they would be kernel-state bugs in real code; callers treat
    them as analysis failures.
    """
    inst = kernel.instructions[access_index]
    addr = inst.address_operand()
    if addr is None:
        raise ValueError("instruction %d is not a memory access" % access_index)
    pending = set()
    if isinstance(addr.base, Register):
        pending.add(addr.base)
    slice_indices = []
    j = access_index - 1
    while pending and j >= 0:
        candidate = kernel.instructions[j]
        written = set(candidate.written_registers())
        hit = written & pending
        if hit:
            if candidate.is_global_load:
                raise NonStaticAccess(access_index, j)
            pending -= hit
            slice_indices.append(j)
            if candidate.opcode is not Opcode.LD_PARAM:
                for reg in candidate.read_registers():
                    pending.add(reg)
        j -= 1
    return SliceResult(
        access_index=access_index,
        instructions=tuple(reversed(slice_indices)),
        unresolved=tuple(sorted(pending, key=lambda r: r.name)),
    )


def _branch_target_index(kernel, inst):
    for op in inst.srcs:
        if isinstance(op, Label):
            return kernel.labels[op.name]
    raise ValueError("branch without label: %s" % inst)


@dataclass
class Loop:
    """A structured loop: contiguous body ``[header, latch]``.

    ``header`` is the instruction index branched back to; ``latch`` is
    the index of the backedge branch itself.  The forward interpreter
    only supports this structured shape; anything else triggers the
    conservative whole-kernel fallback.
    """

    header: int
    latch: int

    def __contains__(self, inst_index):
        return self.header <= inst_index <= self.latch


class IrreducibleControlFlow(Exception):
    """Loop structure the restricted interpreter cannot handle."""


def find_loops(kernel):
    """Discover structured loops as backward branches.

    Returns loops sorted by header, with nesting validated: loop bodies
    must be properly nested contiguous ranges (the shape produced by
    structured ``for``/``while`` compilation and by our kernel
    generators).  Raises :class:`IrreducibleControlFlow` otherwise.
    """
    loops = []
    for i, inst in enumerate(kernel.instructions):
        if not inst.is_branch:
            continue
        target = _branch_target_index(kernel, inst)
        if target <= i:
            loops.append(Loop(header=target, latch=i))
    loops.sort(key=lambda lp: (lp.header, -lp.latch))
    for a_idx, a in enumerate(loops):
        for b in loops[a_idx + 1 :]:
            disjoint = b.header > a.latch or b.latch < a.header
            nested = a.header <= b.header and b.latch <= a.latch
            if not disjoint and not nested:
                raise IrreducibleControlFlow(
                    "loops [{}-{}] and [{}-{}] overlap".format(
                        a.header, a.latch, b.header, b.latch
                    )
                )
            if a.header == b.header and a is not b:
                raise IrreducibleControlFlow(
                    "multiple backedges to header %d" % a.header
                )
    return loops
