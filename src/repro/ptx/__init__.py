"""Mini-PTX intermediate representation.

This package implements a self-contained subset of NVIDIA's PTX virtual
ISA — enough to express the global-memory access behaviour of the
multi-kernel GPU benchmarks evaluated in the BlockMaestro paper.  All
workload kernels in :mod:`repro.workloads` are written in this IR, so the
kernel-launch-time static analysis (:mod:`repro.analysis`) operates on
real instruction streams rather than hand-fed access summaries.

Public surface:

* :class:`~repro.ptx.isa.Instruction`, operand classes and opcode tables.
* :class:`~repro.ptx.module.Kernel` / :class:`~repro.ptx.module.Module`.
* :func:`~repro.ptx.parser.parse_module` — text to :class:`Module`.

:class:`~repro.ptx.builder.KernelBuilder` (programmatic construction,
for tests) is imported from its module; nothing in the program uses it.
"""

from repro.ptx.errors import PTXError, PTXParseError, PTXValidationError
from repro.ptx.isa import (
    Immediate,
    Instruction,
    Label,
    MemOperand,
    Opcode,
    ParamRef,
    Register,
    SpecialRegister,
)
from repro.ptx.module import Kernel, KernelParam, Module
from repro.ptx.parser import parse_kernel, parse_module

__all__ = [
    "PTXError",
    "PTXParseError",
    "PTXValidationError",
    "Immediate",
    "Instruction",
    "Label",
    "MemOperand",
    "Opcode",
    "ParamRef",
    "Register",
    "SpecialRegister",
    "Kernel",
    "KernelParam",
    "Module",
    "parse_kernel",
    "parse_module",
]
