"""Unit tests for loop discovery and Algorithm 1."""

import pytest

from repro.analysis.dataflow import (
    IrreducibleControlFlow,
    NonStaticAccess,
    backward_slice,
    find_loops,
)
from repro.ptx.parser import parse_kernel

from tests.conftest import (
    INDIRECT_SRC,
    OVERLAPPING_LOOPS_SRC,
    ROWSUM_SRC,
    VECADD_SRC,
)


class TestBackwardSlice:
    def test_vecadd_load_resolves(self, vecadd_kernel):
        loads = [i for i, inst in vecadd_kernel.global_accesses()]
        result = backward_slice(vecadd_kernel, loads[0])
        assert result.fully_resolved
        assert result.instructions  # contains address computation

    def test_slice_contains_param_load(self, vecadd_kernel):
        loads = [i for i, inst in vecadd_kernel.global_accesses()]
        result = backward_slice(vecadd_kernel, loads[0])
        from repro.ptx.isa import Opcode

        sliced = [vecadd_kernel.instructions[j] for j in result.instructions]
        assert any(inst.opcode is Opcode.LD_PARAM for inst in sliced)

    def test_slice_ascending_order(self, vecadd_kernel):
        loads = [i for i, _ in vecadd_kernel.global_accesses()]
        result = backward_slice(vecadd_kernel, loads[-1])
        assert list(result.instructions) == sorted(result.instructions)

    def test_indirect_access_detected(self, indirect_kernel):
        accesses = [i for i, _ in indirect_kernel.global_accesses()]
        # the second load's address derives from the first load
        with pytest.raises(NonStaticAccess) as excinfo:
            backward_slice(indirect_kernel, accesses[1])
        assert excinfo.value.access_index == accesses[1]
        assert excinfo.value.load_index == accesses[0]

    def test_first_access_of_indirect_kernel_is_static(self, indirect_kernel):
        accesses = [i for i, _ in indirect_kernel.global_accesses()]
        result = backward_slice(indirect_kernel, accesses[0])
        assert result.fully_resolved

    def test_non_memory_instruction_rejected(self, vecadd_kernel):
        from repro.ptx.isa import Opcode

        mov_index = next(
            i
            for i, inst in enumerate(vecadd_kernel.instructions)
            if inst.opcode is Opcode.MOV
        )
        with pytest.raises(ValueError):
            backward_slice(vecadd_kernel, mov_index)

    def test_undefined_register_unresolved(self):
        kernel = parse_kernel(
            """
            .visible .entry k (.param .u64 A)
            {
                ld.global.f32 %f1, [%rd9];
                ret;
            }
            """
        )
        result = backward_slice(kernel, 0)
        assert not result.fully_resolved


class TestLoops:
    def test_rowsum_has_one_loop(self, rowsum_kernel):
        loops = find_loops(rowsum_kernel)
        assert len(loops) == 1
        loop = loops[0]
        assert loop.header == rowsum_kernel.labels["LOOP"]
        assert rowsum_kernel.instructions[loop.latch].is_branch

    def test_vecadd_no_loops(self, vecadd_kernel):
        assert find_loops(vecadd_kernel) == []

    def test_nested_loops_depth(self):
        kernel = parse_kernel(
            """
            .visible .entry k (.param .u64 A)
            {
                mov.u32 %i, 0;
            OUTER:
                mov.u32 %j, 0;
            INNER:
                add.u32 %j, %j, 1;
                setp.lt.u32 %p1, %j, 4;
                @%p1 bra INNER;
                add.u32 %i, %i, 1;
                setp.lt.u32 %p2, %i, 4;
                @%p2 bra OUTER;
                ret;
            }
            """
        )
        loops = find_loops(kernel)
        assert len(loops) == 2
        outer = min(loops, key=lambda l: l.header)
        inner = max(loops, key=lambda l: l.header)
        assert inner.header in outer and inner.latch in outer
        assert outer.header not in inner and outer.latch not in inner

    def test_overlapping_loops_rejected(self):
        kernel = parse_kernel(OVERLAPPING_LOOPS_SRC)
        with pytest.raises(IrreducibleControlFlow):
            find_loops(kernel)

    def test_loop_contains(self, rowsum_kernel):
        loop = find_loops(rowsum_kernel)[0]
        assert loop.header in loop
        assert loop.latch in loop
        assert (loop.header - 1) not in loop
