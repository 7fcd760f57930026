"""Kernel and module containers for the mini-PTX IR."""

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.ptx.errors import PTXValidationError
from repro.ptx.isa import (
    Instruction,
    Label,
    MemOperand,
    Opcode,
    ParamRef,
    source_arity_problem,
    type_width,
)


@dataclass(frozen=True)
class KernelParam:
    """A kernel parameter declaration (``.param .u64 A``).

    Pointer parameters (``.u64`` by convention, or any parameter marked
    ``is_pointer``) are the handles through which kernels reach global
    memory; they are what the dependency analysis keys its read/write
    sets on.
    """

    name: str
    dtype: str
    is_pointer: bool = False

    @property
    def width(self):
        return type_width(self.dtype)

    def __str__(self):
        return ".param .{} {}".format(self.dtype, self.name)


@dataclass(eq=False)
class Kernel:
    """A parsed mini-PTX kernel: parameters plus an instruction list.

    Kernels compare and hash by identity: a kernel object is registered
    once per application and reused across launches, which also lets
    per-kernel static analyses be cached by identity.

    ``labels`` maps label names to the index of the instruction they
    precede; an index equal to ``len(instructions)`` denotes a label at
    the very end of the body.
    """

    name: str
    params: List[KernelParam] = field(default_factory=list)
    instructions: List[Instruction] = field(default_factory=list)
    labels: Dict[str, int] = field(default_factory=dict)

    def param(self, name):
        """Look up a parameter by name, raising ``KeyError`` if absent."""
        for p in self.params:
            if p.name == name:
                return p
        raise KeyError("kernel {} has no parameter {!r}".format(self.name, name))

    @property
    def param_names(self):
        return [p.name for p in self.params]

    @property
    def pointer_params(self):
        return [p for p in self.params if p.is_pointer]

    def global_accesses(self):
        """Yield ``(index, instruction)`` for each global load/store."""
        for i, inst in enumerate(self.instructions):
            if inst.is_global_access:
                yield i, inst

    def instruction_mix(self):
        """Count instructions by coarse class, for the timing cost model.

        Returns a dict with keys ``alu``, ``mem_global``, ``mem_shared``,
        ``mem_param``, ``control``, ``barrier`` and ``total``.  The counts
        are static (per appearance in the body, not per dynamic
        execution); :mod:`repro.sim.cost` scales them by estimated trip
        counts where loops are present.
        """
        mix = {
            "alu": 0,
            "mem_global": 0,
            "mem_shared": 0,
            "mem_param": 0,
            "control": 0,
            "barrier": 0,
        }
        for inst in self.instructions:
            mix[inst.mix_class] += 1
        mix["total"] = sum(mix.values())
        return mix

    def validate(self):
        """Check structural ISA rules; raise ``PTXValidationError``.

        Rules enforced:
        * every branch targets a declared label;
        * every ``ld.param`` names a declared parameter;
        * stores carry exactly one source value and a memory destination;
        * memory instructions have an address operand;
        * a value-producing instruction has every source operand its
          opcode reads (:data:`~repro.ptx.isa.SOURCE_ARITY`).
        """
        for inst in self.instructions:
            problem = source_arity_problem(inst)
            if problem is not None:
                raise PTXValidationError("{}: {}".format(self.name, problem))
            if inst.is_branch:
                targets = [op for op in inst.srcs if isinstance(op, Label)]
                if len(targets) != 1:
                    raise PTXValidationError(
                        "{}: bra needs exactly one label target: {}".format(
                            self.name, inst
                        )
                    )
                if targets[0].name not in self.labels:
                    raise PTXValidationError(
                        "{}: branch to undefined label {!r}".format(
                            self.name, targets[0].name
                        )
                    )
            if inst.opcode is Opcode.LD_PARAM:
                addr = inst.address_operand()
                if addr is None or not isinstance(addr.base, ParamRef):
                    raise PTXValidationError(
                        "{}: ld.param must address a parameter: {}".format(
                            self.name, inst
                        )
                    )
                self.param(addr.base.name)  # KeyError -> below
            if inst.opcode in (Opcode.ST_GLOBAL, Opcode.ST_SHARED):
                if len(inst.srcs) != 1:
                    raise PTXValidationError(
                        "{}: store needs one source operand: {}".format(
                            self.name, inst
                        )
                    )
                if not any(isinstance(d, MemOperand) for d in inst.dsts):
                    raise PTXValidationError(
                        "{}: store needs a memory destination: {}".format(
                            self.name, inst
                        )
                    )
            if inst.is_global_access and inst.address_operand() is None:
                raise PTXValidationError(
                    "{}: memory access without address operand: {}".format(
                        self.name, inst
                    )
                )
        return self

    def to_text(self):
        """Render the kernel back to parseable mini-PTX source text."""
        params = ", ".join(str(p) for p in self.params)
        lines = [".visible .entry {} ({})".format(self.name, params), "{"]
        label_at = {}
        for label, idx in self.labels.items():
            label_at.setdefault(idx, []).append(label)
        for i, inst in enumerate(self.instructions):
            for label in label_at.get(i, ()):
                lines.append("{}:".format(label))
            lines.append("    " + str(inst))
        for label in label_at.get(len(self.instructions), ()):
            lines.append("{}:".format(label))
        lines.append("}")
        return "\n".join(lines)

    def __len__(self):
        return len(self.instructions)


@dataclass
class Module:
    """A compilation unit: an ordered collection of kernels."""

    kernels: List[Kernel] = field(default_factory=list)

    def kernel(self, name):
        for k in self.kernels:
            if k.name == name:
                return k
        raise KeyError("module has no kernel {!r}".format(name))

    @property
    def kernel_names(self):
        return [k.name for k in self.kernels]

    def to_text(self):
        return "\n\n".join(k.to_text() for k in self.kernels)

    def __len__(self):
        return len(self.kernels)

    def __iter__(self):
        return iter(self.kernels)
