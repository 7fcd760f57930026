"""Unit tests for the functional (value-level) simulator."""

import numpy as np
import pytest

from repro.host.buffers import Allocator
from repro.host.api import KernelLaunchCall
from repro.ptx.parser import parse_kernel
from repro.sim.funcsim import DeviceMemory, FunctionalError, FunctionalSimulator

from tests.conftest import PRODUCE_SRC, ROWSUM_SRC


@pytest.fixture
def setup():
    allocator = Allocator()
    a = allocator.allocate(1024, "A")
    b = allocator.allocate(1024, "B")
    sim = FunctionalSimulator(allocator)
    return allocator, a, b, sim


class TestDeviceMemory:
    def test_f32_roundtrip(self, setup):
        _, a, _, sim = setup
        sim.memory.store_f32(a.base + 8, 3.25)
        assert sim.memory.load_f32(a.base + 8) == 3.25

    def test_u32_roundtrip(self, setup):
        _, a, _, sim = setup
        sim.memory.store_u32(a.base, 0xDEADBEEF)
        assert sim.memory.load_u32(a.base) == 0xDEADBEEF

    def test_unmapped_read_returns_zero(self, setup):
        allocator, a, _, sim = setup
        assert sim.memory.load_f32(a.end + 8) == 0.0

    def test_unmapped_write_rejected(self, setup):
        _, a, _, sim = setup
        with pytest.raises(FunctionalError):
            sim.memory.store_f32(a.end + 8, 1.0)

    def test_straddling_write_rejected(self, setup):
        _, a, _, sim = setup
        with pytest.raises(FunctionalError):
            sim.memory.store_f32(a.end - 2, 1.0)

    def test_buffer_init_and_read(self, setup):
        _, a, _, sim = setup
        sim.memory.write_buffer_f32(a, [1.0, 2.0, 3.0])
        out = sim.memory.read_buffer_f32(a, count=3)
        assert list(out) == [1.0, 2.0, 3.0]

    def test_snapshot_is_copy(self, setup):
        _, a, _, sim = setup
        snap1 = sim.memory.snapshot()
        sim.memory.store_f32(a.base, 9.0)
        snap2 = sim.memory.snapshot()
        assert snap1 != snap2


class TestThreadExecution:
    def test_square_kernel_values(self, setup):
        _, a, b, sim = setup
        kernel = parse_kernel(PRODUCE_SRC)
        sim.memory.write_buffer_f32(a, np.arange(8, dtype=np.float32))
        call = KernelLaunchCall(
            kernel=kernel,
            grid=(2, 1, 1),
            block=(4, 1, 1),
            args={"IN0": a, "OUT": b},
        )
        sim.run_thread_block(call, 0)
        sim.run_thread_block(call, 1)
        out = sim.memory.read_buffer_f32(b, count=8)
        assert list(out) == [float(i * i) for i in range(8)]

    def test_loop_kernel_values(self, setup):
        _, a, b, sim = setup
        kernel = parse_kernel(ROWSUM_SRC)
        sim.memory.write_buffer_f32(a, np.ones(32, dtype=np.float32))
        call = KernelLaunchCall(
            kernel=kernel,
            grid=(1, 1, 1),
            block=(4, 1, 1),
            args={"A": a, "Y": b, "K": 8},
        )
        sim.run_thread_block(call, 0)
        out = sim.memory.read_buffer_f32(b, count=4)
        assert list(out) == [8.0, 8.0, 8.0, 8.0]

    def test_guard_skips_out_of_range_threads(self, setup):
        _, a, b, sim = setup
        from tests.conftest import VECADD_SRC

        kernel = parse_kernel(VECADD_SRC)
        allocator = Allocator()
        a2 = allocator.allocate(64, "A")
        b2 = allocator.allocate(64, "B")
        c2 = allocator.allocate(64, "C")
        sim2 = FunctionalSimulator(allocator)
        sim2.memory.write_buffer_f32(a2, np.ones(16, dtype=np.float32))
        sim2.memory.write_buffer_f32(b2, np.ones(16, dtype=np.float32))
        call = KernelLaunchCall(
            kernel=kernel,
            grid=(1, 1, 1),
            block=(16, 1, 1),
            args={"A": a2, "B": b2, "C": c2, "N": 4},
        )
        sim2.run_thread_block(call, 0)
        out = sim2.memory.read_buffer_f32(c2, count=16)
        assert list(out[:4]) == [2.0] * 4
        assert list(out[4:]) == [0.0] * 12  # guarded threads wrote nothing

    def test_float32_rounding_applied(self, setup):
        _, a, b, sim = setup
        kernel = parse_kernel(PRODUCE_SRC)
        value = 1.1  # not representable in float32
        sim.memory.write_buffer_f32(a, [value])
        call = KernelLaunchCall(
            kernel=kernel, grid=(1, 1, 1), block=(1, 1, 1),
            args={"IN0": a, "OUT": b},
        )
        sim.run_thread_block(call, 0)
        expected = float(np.float32(np.float32(value) * np.float32(value)))
        assert sim.memory.load_f32(b.base) == expected

    def test_undefined_register_detected(self, setup):
        _, a, _, sim = setup
        kernel = parse_kernel(
            ".visible .entry k (.param .u64 A)\n{\n"
            " ld.param.u64 %rd1, [A];\n"
            " st.global.f32 [%rd1], %fNOPE;\n ret;\n}"
        )
        call = KernelLaunchCall(
            kernel=kernel, grid=(1, 1, 1), block=(1, 1, 1), args={"A": a}
        )
        with pytest.raises(FunctionalError):
            sim.run_thread_block(call, 0)

    def test_atom_add(self, setup):
        _, a, _, sim = setup
        kernel = parse_kernel(
            ".visible .entry k (.param .u64 A)\n{\n"
            " ld.param.u64 %rd1, [A];\n"
            " atom.global.add.u32 [%rd1], 1;\n ret;\n}"
        )
        call = KernelLaunchCall(
            kernel=kernel, grid=(1, 1, 1), block=(8, 1, 1), args={"A": a}
        )
        sim.run_thread_block(call, 0)
        assert sim.memory.load_u32(a.base) == 8


def _integer_op_app(instruction):
    """A 4-thread application whose one kernel runs ``instruction`` on
    ``%r1 = tid.x`` and ``%r2 = 0`` and stores ``%r3``."""
    from repro.workloads.base import AppBuilder

    builder = AppBuilder("int-op")
    out = builder.alloc("OUT", 16)
    builder.launch(
        ".visible .entry k (.param .u64 OUT)\n{\n"
        " ld.param.u64 %rd1, [OUT];\n"
        " mov.u32 %r1, %tid.x;\n"
        " mov.u32 %r2, 0;\n"
        " " + instruction + "\n"
        " mul.wide.u32 %rd2, %r1, 4;\n"
        " add.u64 %rd3, %rd1, %rd2;\n"
        " st.global.u32 [%rd3], %r3;\n ret;\n}",
        grid=1,
        block=4,
        args={"OUT": out},
    )
    builder.d2h(out)
    app = builder.build()
    return app, FunctionalSimulator(app.allocator)


class TestIntegerErrors:
    """Integer operations with no defined result end in
    :class:`FunctionalError`, like ``div`` by zero."""

    def test_rem_by_zero(self):
        app, sim = _integer_op_app("rem.u32 %r3, %r1, %r2;")
        with pytest.raises(FunctionalError, match="remainder by zero"):
            sim.run_application(app)

    @pytest.mark.parametrize("count", [-1, 64, 2_147_483_647])
    @pytest.mark.parametrize("op", ["shl.b32", "shr.b32"])
    def test_shift_count_outside_0_64(self, op, count):
        app, sim = _integer_op_app(
            "add.u32 %r2, %r2, {};\n {} %r3, %r1, %r2;".format(count, op)
        )
        with pytest.raises(FunctionalError, match="shift count"):
            sim.run_application(app)
