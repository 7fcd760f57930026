"""Instruction set definition for the mini-PTX IR.

The subset covers everything needed to express affine global-memory
indexing (the input to BlockMaestro's value-range analysis, paper
Section III-B) plus enough arithmetic/control flow to write realistic
kernels: special-register reads, integer/float ALU ops, parameter loads,
global/shared memory accesses, predicated branches and barriers.
"""

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Tuple, Union


class Opcode(str, Enum):
    """Base opcodes of the mini-PTX ISA (type suffixes stripped)."""

    MOV = "mov"
    LD_PARAM = "ld.param"
    LD_GLOBAL = "ld.global"
    ST_GLOBAL = "st.global"
    LD_SHARED = "ld.shared"
    ST_SHARED = "st.shared"
    ADD = "add"
    SUB = "sub"
    MUL_LO = "mul.lo"
    MUL_WIDE = "mul.wide"
    MUL = "mul"
    MAD_LO = "mad.lo"
    MAD_WIDE = "mad.wide"
    MAD = "mad"
    FMA = "fma"
    DIV = "div"
    REM = "rem"
    NEG = "neg"
    ABS = "abs"
    MIN = "min"
    MAX = "max"
    SHL = "shl"
    SHR = "shr"
    AND = "and"
    OR = "or"
    XOR = "xor"
    NOT = "not"
    CVT = "cvt"
    CVTA = "cvta"
    SETP = "setp"
    SELP = "selp"
    BRA = "bra"
    BAR_SYNC = "bar.sync"
    SQRT = "sqrt"
    RSQRT = "rsqrt"
    EX2 = "ex2"
    LG2 = "lg2"
    RCP = "rcp"
    ATOM_ADD = "atom.global.add"
    RET = "ret"
    EXIT = "exit"

    def __str__(self):
        return self.value


#: Opcodes whose destination is a register written by the instruction.
REGISTER_WRITING_OPCODES = frozenset(
    op
    for op in Opcode
    if op
    not in (
        Opcode.ST_GLOBAL,
        Opcode.ST_SHARED,
        Opcode.BRA,
        Opcode.BAR_SYNC,
        Opcode.RET,
        Opcode.EXIT,
    )
)

#: Opcodes that access global memory through an address operand.
GLOBAL_MEMORY_OPCODES = frozenset(
    (Opcode.LD_GLOBAL, Opcode.ST_GLOBAL, Opcode.ATOM_ADD)
)

#: Opcodes that terminate or redirect control flow.
CONTROL_FLOW_OPCODES = frozenset((Opcode.BRA, Opcode.RET, Opcode.EXIT))

#: Source operands each value-producing opcode reads, in order (``selp``
#: reads two values and the selecting predicate).  An instruction with
#: fewer is malformed (:meth:`repro.ptx.module.Kernel.validate`); the
#: analyzer's transfer functions take exactly this many values.
SOURCE_ARITY = {
    Opcode.MOV: 1,
    Opcode.ADD: 2,
    Opcode.SUB: 2,
    Opcode.MUL_LO: 2,
    Opcode.MUL_WIDE: 2,
    Opcode.MUL: 2,
    Opcode.MAD_LO: 3,
    Opcode.MAD_WIDE: 3,
    Opcode.MAD: 3,
    Opcode.FMA: 3,
    Opcode.DIV: 2,
    Opcode.REM: 2,
    Opcode.NEG: 1,
    Opcode.ABS: 1,
    Opcode.MIN: 2,
    Opcode.MAX: 2,
    Opcode.SHL: 2,
    Opcode.SHR: 2,
    Opcode.AND: 2,
    Opcode.OR: 2,
    Opcode.XOR: 2,
    Opcode.NOT: 1,
    Opcode.CVT: 1,
    Opcode.CVTA: 1,
    Opcode.SETP: 2,
    Opcode.SELP: 3,
    Opcode.SQRT: 1,
    Opcode.RSQRT: 1,
    Opcode.EX2: 1,
    Opcode.LG2: 1,
    Opcode.RCP: 1,
}


def source_arity_problem(inst):
    """Why ``inst`` has fewer source operands than its opcode reads
    (:data:`SOURCE_ARITY`), or ``None`` when it has them all."""
    arity = SOURCE_ARITY.get(inst.opcode, 0)
    if len(inst.srcs) >= arity:
        return None
    return "{} reads {} source operand{}, got {}: {}".format(
        inst.opcode, arity, "" if arity == 1 else "s", len(inst.srcs), inst
    )

#: Recognised scalar types, mapping to their width in bytes.
TYPE_WIDTHS = {
    "pred": 1,
    "b8": 1,
    "s8": 1,
    "u8": 1,
    "b16": 2,
    "s16": 2,
    "u16": 2,
    "f16": 2,
    "b32": 4,
    "s32": 4,
    "u32": 4,
    "f32": 4,
    "b64": 8,
    "s64": 8,
    "u64": 8,
    "f64": 8,
}

#: Valid comparison predicates for ``setp``.
COMPARISONS = frozenset(
    ("eq", "ne", "lt", "le", "gt", "ge", "lo", "ls", "hi", "hs")
)

#: Special register families and the dimensions they expose.
SPECIAL_REGISTER_FAMILIES = {
    "tid": ("x", "y", "z"),
    "ntid": ("x", "y", "z"),
    "ctaid": ("x", "y", "z"),
    "nctaid": ("x", "y", "z"),
    "laneid": (None,),
    "warpid": (None,),
}


def type_width(dtype):
    """Return the byte width of a PTX scalar type name.

    Raises :class:`KeyError` for unknown type names so that typos in
    kernel sources fail loudly during parsing.
    """
    return TYPE_WIDTHS[dtype]


@dataclass(frozen=True)
class Register:
    """A virtual register such as ``%r4`` or ``%rd12``."""

    name: str

    def __str__(self):
        return "%" + self.name


@dataclass(frozen=True)
class SpecialRegister:
    """A read-only special register such as ``%tid.x`` or ``%ctaid.y``."""

    family: str
    dim: Optional[str] = None

    def __post_init__(self):
        if self.family not in SPECIAL_REGISTER_FAMILIES:
            raise ValueError("unknown special register family: %s" % self.family)
        dims = SPECIAL_REGISTER_FAMILIES[self.family]
        if self.dim not in dims:
            raise ValueError(
                "special register %%%s has no dimension %r" % (self.family, self.dim)
            )

    def __str__(self):
        if self.dim is None:
            return "%" + self.family
        return "%{}.{}".format(self.family, self.dim)


@dataclass(frozen=True)
class Immediate:
    """An integer or floating-point literal operand."""

    value: Union[int, float]

    def __str__(self):
        if isinstance(self.value, float):
            return repr(self.value)
        return str(self.value)


@dataclass(frozen=True)
class ParamRef:
    """A reference to a kernel parameter by name (used in ``ld.param``)."""

    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Label:
    """A branch target label."""

    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class MemOperand:
    """A memory address operand ``[base+offset]``.

    ``base`` is a :class:`Register` (for global/shared accesses) or a
    :class:`ParamRef` (for ``ld.param``).  ``offset`` is a constant byte
    displacement.
    """

    base: Union[Register, ParamRef]
    offset: int = 0

    def __str__(self):
        if self.offset:
            return "[{}{:+d}]".format(self.base, self.offset)
        return "[{}]".format(self.base)


Operand = Union[Register, SpecialRegister, Immediate, ParamRef, Label, MemOperand]


@dataclass(frozen=True)
class Instruction:
    """One mini-PTX instruction.

    Attributes:
        opcode: base opcode (type suffix removed).
        dtype: result/operand scalar type name, e.g. ``"u32"``.  ``None``
            for opcodes that carry no type (``bra``, ``bar.sync``...).
        dsts: destination operands (registers, or a :class:`MemOperand`
            for stores).
        srcs: source operands.
        guard: optional predicate register guarding execution
            (``@%p bra ...``); ``guard_negated`` flips the sense.
        compare: comparison predicate for ``setp`` (``"lt"``...).
        src_dtype: second type for ``cvt`` (source type).
        line: 1-based line number in the original source, for messages.
    """

    opcode: Opcode
    dtype: Optional[str] = None
    dsts: Tuple[Operand, ...] = field(default=())
    srcs: Tuple[Operand, ...] = field(default=())
    guard: Optional[Register] = None
    guard_negated: bool = False
    compare: Optional[str] = None
    src_dtype: Optional[str] = None
    line: Optional[int] = None

    @property
    def is_global_load(self):
        return self.opcode is Opcode.LD_GLOBAL

    @property
    def is_global_store(self):
        return self.opcode in (Opcode.ST_GLOBAL, Opcode.ATOM_ADD)

    @property
    def is_global_access(self):
        return self.opcode in GLOBAL_MEMORY_OPCODES

    @property
    def is_branch(self):
        return self.opcode is Opcode.BRA

    @property
    def is_terminator(self):
        return self.opcode in (Opcode.RET, Opcode.EXIT)

    @property
    def is_barrier(self):
        return self.opcode is Opcode.BAR_SYNC

    @property
    def mix_class(self):
        """The coarse class the cost model counts this instruction under:
        ``mem_global``, ``mem_shared``, ``mem_param``, ``control``,
        ``barrier`` or ``alu``."""
        if self.is_global_access:
            return "mem_global"
        if self.opcode in (Opcode.LD_SHARED, Opcode.ST_SHARED):
            return "mem_shared"
        if self.opcode is Opcode.LD_PARAM:
            return "mem_param"
        if self.opcode in CONTROL_FLOW_OPCODES:
            return "control"
        if self.is_barrier:
            return "barrier"
        return "alu"

    @property
    def writes_register(self):
        return self.opcode in REGISTER_WRITING_OPCODES and bool(self.dsts)

    def written_registers(self):
        """Registers written by this instruction (empty for stores)."""
        if not self.writes_register:
            return ()
        return tuple(d for d in self.dsts if isinstance(d, Register))

    def read_registers(self):
        """All registers read: sources, address bases and the guard."""
        regs = []
        if self.guard is not None:
            regs.append(self.guard)
        operands = list(self.srcs)
        # Stores read their address base from the *destination* slot.
        for dst in self.dsts:
            if isinstance(dst, MemOperand):
                operands.append(dst)
        for op in operands:
            if isinstance(op, Register):
                regs.append(op)
            elif isinstance(op, MemOperand) and isinstance(op.base, Register):
                regs.append(op.base)
        return tuple(regs)

    def address_operand(self):
        """Return the :class:`MemOperand` of a memory instruction.

        For loads the address lives in ``srcs``; for stores in ``dsts``.
        Returns ``None`` for non-memory instructions.
        """
        pool = self.srcs if self.opcode in (
            Opcode.LD_GLOBAL,
            Opcode.LD_SHARED,
            Opcode.LD_PARAM,
        ) else self.dsts
        for op in pool:
            if isinstance(op, MemOperand):
                return op
        return None

    @property
    def access_width(self):
        """Byte width of a memory access, derived from ``dtype``."""
        if self.dtype is None:
            return 0
        return type_width(self.dtype)

    def __str__(self):
        parts = []
        if self.guard is not None:
            parts.append("@{}{} ".format("!" if self.guard_negated else "", self.guard))
        mnemonic = str(self.opcode)
        if self.compare is not None:
            mnemonic += "." + self.compare
        if self.dtype is not None:
            mnemonic += "." + self.dtype
        if self.src_dtype is not None:
            mnemonic += "." + self.src_dtype
        parts.append(mnemonic)
        operands = list(self.dsts) + list(self.srcs)
        if operands:
            parts.append(" " + ", ".join(str(op) for op in operands))
        return "".join(parts) + ";"
