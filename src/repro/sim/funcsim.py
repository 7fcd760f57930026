"""Functional (value-level) execution of mini-PTX applications.

The timing simulator (:mod:`repro.sim.device`) never touches data; this
module complements it with a *functional* simulator that executes
kernels on real device-memory contents.  Its purpose is end-to-end
validation of BlockMaestro's correctness story: replaying thread blocks
in the order a scheduler produced — any linearization consistent with
the extracted dependency graphs — must leave device memory identical to
fully serialized execution.

It is deliberately scalar and simple (one thread at a time); use small
grids.  Supported kernels are the analyzable subset: integer/float
arithmetic, structured loops, guarded forward branches, global
loads/stores.  ``bar.sync`` is a no-op because thread blocks execute
atomically here (block-level linearization is exactly what the replay
check needs).
"""

import math

import numpy as np

from repro.host.api import (
    DeviceSynchronize,
    KernelLaunchCall,
    MallocCall,
    MemcpyD2H,
    MemcpyH2D,
)
from repro.ptx.isa import (
    Immediate,
    Label,
    MemOperand,
    Opcode,
    Register,
    SpecialRegister,
)


class FunctionalError(Exception):
    """The functional simulator cannot execute the given program."""


class DeviceMemory:
    """Byte-addressed global memory backed by per-buffer numpy arrays."""

    def __init__(self, allocator):
        self.allocator = allocator
        self._arrays = {
            buf.buffer_id: np.zeros(buf.size, dtype=np.uint8)
            for buf in allocator.buffers
        }

    def _locate(self, address, width, for_write):
        buf = self.allocator.buffer_at(address)
        if buf is None or address + width > buf.end:
            if for_write:
                raise FunctionalError(
                    "write of {} bytes at 0x{:x} outside any buffer".format(
                        width, address
                    )
                )
            # Halo reads past a buffer edge land in the allocator's guard
            # gap by design (stencil kernels read a few elements before/
            # after their logical range); unmapped reads return zero,
            # matching the timing model's treatment of them as harmless.
            return None, 0
        return buf, address - buf.base

    def load_f32(self, address):
        buf, offset = self._locate(address, 4, for_write=False)
        if buf is None:
            return 0.0
        return float(
            self._arrays[buf.buffer_id][offset : offset + 4].view(np.float32)[0]
        )

    def store_f32(self, address, value):
        buf, offset = self._locate(address, 4, for_write=True)
        self._arrays[buf.buffer_id][offset : offset + 4] = np.frombuffer(
            np.float32(value).tobytes(), dtype=np.uint8
        )

    def load_u32(self, address):
        buf, offset = self._locate(address, 4, for_write=False)
        if buf is None:
            return 0
        return int(
            self._arrays[buf.buffer_id][offset : offset + 4].view(np.uint32)[0]
        )

    def store_u32(self, address, value):
        buf, offset = self._locate(address, 4, for_write=True)
        self._arrays[buf.buffer_id][offset : offset + 4] = np.frombuffer(
            np.uint32(value & 0xFFFFFFFF).tobytes(), dtype=np.uint8
        )

    def write_buffer_f32(self, buffer, values):
        data = np.asarray(values, dtype=np.float32).tobytes()
        if len(data) > buffer.size:
            raise FunctionalError("initializer larger than buffer")
        self._arrays[buffer.buffer_id][: len(data)] = np.frombuffer(
            data, dtype=np.uint8
        )

    def read_buffer_f32(self, buffer, count=None):
        count = buffer.size // 4 if count is None else count
        return (
            self._arrays[buffer.buffer_id][: count * 4]
            .view(np.float32)
            .copy()
        )

    def snapshot(self):
        """Immutable copy of all buffer contents (bytes)."""
        return {bid: arr.tobytes() for bid, arr in self._arrays.items()}


_STEP_CAP = 1 << 20


class FunctionalSimulator:
    """Executes applications (or individual thread blocks) on values."""

    def __init__(self, allocator):
        self.memory = DeviceMemory(allocator)

    # ------------------------------------------------------------------
    def run_application(self, app, tb_order=None, initializer=None):
        """Execute an application's trace.

        ``tb_order``: optional list of ``(kernel_index, tb_id)`` pairs
        giving the global thread-block execution order (e.g. the start
        order from a timing simulation).  Defaults to fully serialized
        order.  ``initializer(buffer) -> iterable of f32`` seeds buffers
        on H2D copies; the default writes a deterministic ramp.

        Returns the final :class:`DeviceMemory` snapshot.
        """
        kernel_calls = [c for c in app.trace.calls if c.is_kernel]
        if tb_order is None:
            tb_order = [
                (ki, tb)
                for ki, call in enumerate(kernel_calls)
                for tb in range(call.num_tbs)
            ]
        self._validate_order(tb_order, kernel_calls)
        # host-to-device copies seed memory first (their order relative
        # to kernels is handled by the dependency-respecting schedules
        # this simulator is used to check; inputs are never overwritten
        # by copies mid-run in the supported applications)
        for call in app.trace.calls:
            if isinstance(call, MemcpyH2D):
                self._seed(call.buffer, initializer)
        for ki, tb in tb_order:
            self.run_thread_block(kernel_calls[ki], tb)
        return self.memory.snapshot()

    def _validate_order(self, tb_order, kernel_calls):
        expected = {
            (ki, tb)
            for ki, call in enumerate(kernel_calls)
            for tb in range(call.num_tbs)
        }
        seen = set()
        for item in tb_order:
            if item in seen:
                raise FunctionalError("thread block %r executed twice" % (item,))
            seen.add(item)
        if seen != expected:
            raise FunctionalError(
                "schedule covers {} blocks, application has {}".format(
                    len(seen), len(expected)
                )
            )

    def _seed(self, buffer, initializer):
        if initializer is not None:
            self.memory.write_buffer_f32(buffer, initializer(buffer))
            return
        count = buffer.size // 4
        ramp = (
            np.arange(count, dtype=np.float32) % 97 + buffer.buffer_id
        ) / 97.0
        self.memory.write_buffer_f32(buffer, ramp)

    # ------------------------------------------------------------------
    def run_thread_block(self, call: KernelLaunchCall, tb_id):
        gx, gy, gz = call.grid
        bx = tb_id % gx
        by = (tb_id // gx) % gy
        bz = tb_id // (gx * gy)
        tx_max, ty_max, tz_max = call.block
        args = call.arg_values()
        for tz in range(tz_max):
            for ty in range(ty_max):
                for tx in range(tx_max):
                    self._run_thread(
                        call.kernel, args, call.grid, call.block,
                        (bx, by, bz), (tx, ty, tz),
                    )

    def _run_thread(self, kernel, args, grid, block, ctaid, tid):
        regs = {}
        specials = {
            ("tid", "x"): tid[0],
            ("tid", "y"): tid[1],
            ("tid", "z"): tid[2],
            ("ctaid", "x"): ctaid[0],
            ("ctaid", "y"): ctaid[1],
            ("ctaid", "z"): ctaid[2],
            ("ntid", "x"): block[0],
            ("ntid", "y"): block[1],
            ("ntid", "z"): block[2],
            ("nctaid", "x"): grid[0],
            ("nctaid", "y"): grid[1],
            ("nctaid", "z"): grid[2],
            ("laneid", None): tid[0] % 32,
            ("warpid", None): tid[0] // 32,
        }

        def value(op):
            if isinstance(op, Register):
                try:
                    return regs[op]
                except KeyError:
                    raise FunctionalError("read of undefined %s" % op)
            if isinstance(op, Immediate):
                return op.value
            if isinstance(op, SpecialRegister):
                return specials[(op.family, op.dim)]
            raise FunctionalError("unsupported operand %r" % (op,))

        def address(inst):
            mem = inst.address_operand()
            return value(mem.base) + mem.offset

        instructions = kernel.instructions
        i = 0
        steps = 0
        while i < len(instructions):
            steps += 1
            if steps > _STEP_CAP:
                raise FunctionalError("thread exceeded step cap")
            inst = instructions[i]
            if inst.guard is not None:
                taken = bool(regs.get(inst.guard)) != inst.guard_negated
                if not taken:
                    i += 1
                    continue
            op = inst.opcode
            if op in (Opcode.RET, Opcode.EXIT):
                return
            if op is Opcode.BRA:
                target = next(s for s in inst.srcs if isinstance(s, Label))
                i = kernel.labels[target.name]
                continue
            if op is Opcode.BAR_SYNC:
                i += 1
                continue
            if op is Opcode.LD_PARAM:
                mem = inst.address_operand()
                regs[inst.dsts[0]] = args[mem.base.name] + mem.offset
                i += 1
                continue
            if op is Opcode.LD_GLOBAL:
                addr = address(inst)
                if inst.dtype and inst.dtype.startswith("f"):
                    regs[inst.dsts[0]] = self.memory.load_f32(addr)
                else:
                    regs[inst.dsts[0]] = self.memory.load_u32(addr)
                i += 1
                continue
            if op is Opcode.ST_GLOBAL:
                addr = address(inst)
                val = value(inst.srcs[0])
                if inst.dtype and inst.dtype.startswith("f"):
                    self.memory.store_f32(addr, float(val))
                else:
                    self.memory.store_u32(addr, int(val))
                i += 1
                continue
            if op is Opcode.ATOM_ADD:
                addr = address(inst)
                old = self.memory.load_u32(addr)
                self.memory.store_u32(addr, old + int(value(inst.srcs[0])))
                written = [d for d in inst.dsts if isinstance(d, Register)]
                if written:
                    regs[written[0]] = old
                i += 1
                continue
            if op in (Opcode.LD_SHARED, Opcode.ST_SHARED):
                raise FunctionalError(
                    "shared memory is not modelled by the functional simulator"
                )
            self._alu(inst, regs, value)
            i += 1

    def _alu(self, inst, regs, value):
        op = inst.opcode
        srcs = [value(s) for s in inst.srcs]
        is_float = inst.dtype is not None and inst.dtype.startswith("f")
        if op is Opcode.MOV:
            result = srcs[0]
        elif op is Opcode.ADD:
            result = srcs[0] + srcs[1]
        elif op is Opcode.SUB:
            result = srcs[0] - srcs[1]
        elif op in (Opcode.MUL, Opcode.MUL_LO, Opcode.MUL_WIDE):
            result = srcs[0] * srcs[1]
        elif op in (Opcode.MAD, Opcode.MAD_LO, Opcode.MAD_WIDE, Opcode.FMA):
            result = srcs[0] * srcs[1] + srcs[2]
        elif op is Opcode.DIV:
            if is_float:
                result = srcs[0] / srcs[1] if srcs[1] else math.inf
            else:
                if srcs[1] == 0:
                    raise FunctionalError("integer division by zero")
                result = srcs[0] // srcs[1]
        elif op is Opcode.REM:
            if srcs[1] == 0:
                raise FunctionalError("integer remainder by zero")
            result = srcs[0] % srcs[1]
        elif op is Opcode.NEG:
            result = -srcs[0]
        elif op is Opcode.ABS:
            result = abs(srcs[0])
        elif op is Opcode.MIN:
            result = min(srcs)
        elif op is Opcode.MAX:
            result = max(srcs)
        elif op in (Opcode.SHL, Opcode.SHR):
            count = int(srcs[1])
            if not 0 <= count < 64:
                raise FunctionalError("shift count %d outside [0, 64)" % count)
            if op is Opcode.SHL:
                result = int(srcs[0]) << count
            else:
                result = int(srcs[0]) >> count
        elif op is Opcode.AND:
            result = int(srcs[0]) & int(srcs[1])
        elif op is Opcode.OR:
            result = int(srcs[0]) | int(srcs[1])
        elif op is Opcode.XOR:
            result = int(srcs[0]) ^ int(srcs[1])
        elif op is Opcode.NOT:
            result = ~int(srcs[0])
        elif op in (Opcode.CVT, Opcode.CVTA):
            if is_float:
                result = float(srcs[0])
            else:
                result = int(srcs[0])
        elif op is Opcode.SETP:
            a, b = srcs
            result = {
                "eq": a == b,
                "ne": a != b,
                "lt": a < b,
                "le": a <= b,
                "gt": a > b,
                "ge": a >= b,
                "lo": a < b,
                "ls": a <= b,
                "hi": a > b,
                "hs": a >= b,
            }[inst.compare]
        elif op is Opcode.SELP:
            result = srcs[0] if srcs[2] else srcs[1]
        elif op is Opcode.SQRT:
            result = math.sqrt(srcs[0]) if srcs[0] >= 0 else math.nan
        elif op is Opcode.RSQRT:
            result = 1.0 / math.sqrt(srcs[0]) if srcs[0] > 0 else math.inf
        elif op is Opcode.RCP:
            result = 1.0 / srcs[0] if srcs[0] else math.inf
        elif op is Opcode.EX2:
            result = 2.0 ** srcs[0]
        elif op is Opcode.LG2:
            result = math.log2(srcs[0]) if srcs[0] > 0 else math.nan
        else:
            raise FunctionalError("unsupported opcode %s" % op)
        if is_float and op is not Opcode.SETP:
            # float32 rounding; overflow to inf is well-defined here
            with np.errstate(over="ignore"):
                result = float(np.float32(result))
        regs[inst.dsts[0]] = result


def schedule_from_stats(stats):
    """Extract the global thread-block start order from a timing run.

    Thread blocks are sorted by start time; ties break by (kernel, tb)
    so the replay is deterministic.  Because the scheduler only starts a
    block after its dependencies *finished*, this linearization respects
    every enforced dependency edge.
    """
    records = sorted(
        stats.tb_records, key=lambda r: (r.start_ns, r.kernel_index, r.tb_id)
    )
    return [(r.kernel_index, r.tb_id) for r in records]
