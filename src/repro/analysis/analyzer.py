"""Kernel-launch-time value-range analysis (paper Section III-B.2).

Entry point: :func:`analyze_kernel`.  Given a kernel and its concrete
launch configuration (grid/block dimensions and argument values — all
known at launch time, which is why the paper performs this during the
PTX→SASS JIT), the analyzer:

1. runs Algorithm 1's backward def-use walk from every global memory
   instruction to detect *non-static* addressing (indices loaded from
   memory, e.g. ``A[B[i]]``), which triggers the paper's conservative
   whole-kernel fallback;
2. abstractly interprets the kernel forward over the affine/interval
   value domain, producing an :class:`~repro.analysis.access.AccessRecord`
   per global load/store.  Loops are handled by discovering induction
   registers, computing trip counts at every corner of the live symbol
   ranges (in closed form for canonical counted loops, by concrete
   simulation otherwise), and binding inductions to fresh loop symbols
   with known ranges.  What depends on the body alone is decoded once
   per kernel object (:func:`_decode`), so a launch runs only its
   special registers, parameter loads, value algebra and records;
3. packages the result as a :class:`KernelSummary` exposing per-thread-
   block read/write interval sets.

All approximations are *over*-approximations of the true access sets, so
dependency edges derived from them can only be extra, never missing —
pre-launched kernels therefore never start a thread block early.
"""

import weakref
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, Optional, Tuple

from repro.analysis.access import (
    AccessRecord,
    DEFAULT_MAX_INTERVALS,
    TBAccessSets,
)
from repro.analysis.affine import AffineExpr, CTAID, LOOP, Sym, TID
from repro.analysis.dataflow import (
    IrreducibleControlFlow,
    NonStaticAccess,
    backward_slice,
    find_loops,
)
from repro.analysis.values import (
    SInterval,
    UNKNOWN_ARITH,
    UNKNOWN_MEMORY,
    Unknown,
    ValueAlgebra,
    is_unknown,
    taint_of,
)
from repro.obs.metrics import NULL_METRICS
from repro.ptx.isa import (
    Immediate,
    Label,
    MemOperand,
    Opcode,
    ParamRef,
    Register,
    SOURCE_ARITY,
    SpecialRegister,
    source_arity_problem,
)
from repro.ptx.errors import PTXValidationError

#: Hard cap on simulated loop iterations during trip-count discovery.
TRIP_COUNT_CAP = 1 << 22
#: Hard cap on simulated instructions during trip-count discovery.
STEP_CAP = 1 << 24


class AnalysisError(Exception):
    """Unrecoverable misuse of the analyzer (not an analysis fallback)."""


class _Fallback(Exception):
    """Internal: abort analysis with a conservative fallback ``reason``."""

    def __init__(self, reason, detail=""):
        self.reason = reason
        self.detail = detail
        super().__init__("{}: {}".format(reason, detail) if detail else reason)


@dataclass(frozen=True)
class LaunchConfig:
    """Concrete kernel launch parameters.

    ``args`` maps parameter names to integers: scalar argument values,
    or base byte addresses for pointer arguments.
    """

    grid: Tuple[int, int, int]
    block: Tuple[int, int, int]
    args: Tuple[Tuple[str, int], ...] = ()

    def __post_init__(self):
        for dims, label in ((self.grid, "grid"), (self.block, "block")):
            if len(dims) != 3 or any(d < 1 for d in dims):
                raise AnalysisError("bad %s dimensions %r" % (label, dims))

    @classmethod
    def create(cls, grid, block, args=None):
        """Build from possibly 1D/2D dims and a dict of argument values."""
        grid = tuple(grid) if not isinstance(grid, int) else (grid,)
        block = tuple(block) if not isinstance(block, int) else (block,)
        grid = grid + (1,) * (3 - len(grid))
        block = block + (1,) * (3 - len(block))
        items = tuple(sorted((args or {}).items()))
        return cls(grid=grid, block=block, args=items)

    @property
    def args_dict(self):
        return dict(self.args)

    @property
    def num_tbs(self):
        gx, gy, gz = self.grid
        return gx * gy * gz

    @property
    def threads_per_tb(self):
        tx, ty, tz = self.block
        return tx * ty * tz


@dataclass
class KernelSummary:
    """Result of launch-time analysis for one kernel launch.

    When ``fallback`` is not ``None`` the per-TB sets are unavailable and
    the runtime must treat the kernel as fully dependent on its
    predecessor (the paper's conservative path).
    """

    kernel_name: str
    launch: LaunchConfig
    records: Tuple[AccessRecord, ...] = ()
    fallback: Optional[str] = None
    fallback_detail: str = ""
    dynamic_mix: Dict[str, float] = field(default_factory=dict)
    access_sets: Optional[TBAccessSets] = None

    @property
    def num_tbs(self):
        return self.launch.num_tbs

    @property
    def exact(self):
        return self.fallback is None

    def tb_reads(self, tb_id):
        if self.access_sets is None:
            raise AnalysisError(
                "kernel %s fell back (%s); per-TB sets unavailable"
                % (self.kernel_name, self.fallback)
            )
        return self.access_sets.reads(tb_id)

    def tb_writes(self, tb_id):
        if self.access_sets is None:
            raise AnalysisError(
                "kernel %s fell back (%s); per-TB sets unavailable"
                % (self.kernel_name, self.fallback)
            )
        return self.access_sets.writes(tb_id)

    def kernel_reads(self):
        if self.access_sets is None:
            raise AnalysisError("per-kernel sets unavailable under fallback")
        return self.access_sets.kernel_reads()

    def kernel_writes(self):
        if self.access_sets is None:
            raise AnalysisError("per-kernel sets unavailable under fallback")
        return self.access_sets.kernel_writes()

    def coalescing_factor(self, warp_size=32, line_bytes=128):
        """Average memory transactions per warp per global access.

        1.0 = perfectly coalesced (a warp's accesses fit the minimum
        number of cache lines); up to ``warp_size`` when each thread
        touches its own line.  Derived from each record's inter-thread
        stride; records with unknown layout count as coalesced (the
        conservative choice for a *relative* timing model is neutrality,
        not pessimism).  Under fallback there are no records: 1.0.
        """
        factors = []
        for record in self.records:
            stride = record.thread_stride
            if stride is None:
                stride = record.width
            stride = abs(stride)
            if stride == 0:
                factors.append(1.0)  # broadcast: one line
                continue
            footprint = (warp_size - 1) * stride + record.width
            min_lines = max(
                1, -(-(warp_size * record.width) // line_bytes)
            )  # ceil
            lines = max(1, -(-footprint // line_bytes))
            factors.append(min(float(warp_size), lines / min_lines))
        if not factors:
            return 1.0
        return sum(factors) / len(factors)


def analyze_kernel(
    kernel,
    launch,
    max_intervals=DEFAULT_MAX_INTERVALS,
    run_algorithm1=True,
    metrics=NULL_METRICS,
):
    """Analyze one kernel launch; never raises for analysis limitations —
    those surface as ``summary.fallback``.

    ``metrics`` counts how each loop's trip count was found:
    ``analysis.tripcount.closed_form`` or ``analysis.tripcount.simulated``.
    """
    verdict = _algorithm1(kernel) if run_algorithm1 else ()
    if verdict:
        return KernelSummary(
            kernel_name=kernel.name,
            launch=launch,
            fallback=verdict[0],
            fallback_detail=verdict[1],
            dynamic_mix=_static_mix(kernel),
        )
    try:
        records, dynamic_mix = _Interpreter(
            kernel, launch, max_intervals, metrics
        ).run()
    except _Fallback as exc:
        return KernelSummary(
            kernel_name=kernel.name,
            launch=launch,
            fallback=exc.reason,
            fallback_detail=exc.detail,
            dynamic_mix=_static_mix(kernel),
        )
    sets = TBAccessSets(
        grid=launch.grid, records=tuple(records), max_intervals=max_intervals
    )
    return KernelSummary(
        kernel_name=kernel.name,
        launch=launch,
        records=tuple(records),
        dynamic_mix=dynamic_mix,
        access_sets=sets,
    )


#: Algorithm 1's verdict per kernel object; see _algorithm1
_ALGORITHM1 = weakref.WeakKeyDictionary()


def _algorithm1(kernel):
    """Algorithm 1's verdict on a kernel body: ``()`` when every global
    access's address slice is static and resolved, else the
    ``(fallback, detail)`` of the first access whose slice is not.

    It reads the body alone, so it runs once per kernel object (kernels
    hash by identity); the memo holds no kernel alive.
    """
    verdict = _ALGORITHM1.get(kernel)
    if verdict is not None:
        return verdict
    verdict = ()
    for index, _inst in kernel.global_accesses():
        try:
            result = backward_slice(kernel, index)
        except NonStaticAccess as exc:
            verdict = ("non_static", str(exc))
            break
        if not result.fully_resolved:
            verdict = (
                "unresolved",
                "registers %s undefined at kernel entry" % (result.unresolved,),
            )
            break
    _ALGORITHM1[kernel] = verdict
    return verdict


def _static_mix(kernel):
    return {k: float(v) for k, v in kernel.instruction_mix().items()}


# ----------------------------------------------------------------------
# kernel bodies, decoded once
# ----------------------------------------------------------------------
#: a straight-line step's effect: apply a transfer function to one, two
#: or three source values, yield a constant, record a global access,
#: load a parameter, or raise
_ALG1, _ALG2, _ALG3, _CONST, _ACCESS, _PARAM, _RAISE = range(7)
#: a terminator's effect: an unguarded one ends the range, a guarded
#: one is skipped
_RET, _SKIP = range(7, 9)

_TID_X, _TID_Y, _TID_Z = TID("x"), TID("y"), TID("z")
_MINUS_ONE = AffineExpr(-1)


def _first(alg, a):
    return a


def _abs(alg, a):
    return alg.max_(a, alg.neg(a))


def _not(alg, a):
    return alg.sub(_MINUS_ONE, a)


def _float_cvt(alg, a):
    return taint_of(a) if is_unknown(a) else UNKNOWN_ARITH


def _selp(alg, a, b, _predicate):
    return alg.join(a, b)


#: ``opcode -> transfer``: the transfer function of each value-producing
#: opcode, called with the launch's ValueAlgebra and the opcode's
#: ``SOURCE_ARITY`` source values; ``None`` leaves the result untracked
_TRANSFERS = {
    Opcode.MOV: _first,
    Opcode.ADD: ValueAlgebra.add,
    Opcode.SUB: ValueAlgebra.sub,
    Opcode.MUL_LO: ValueAlgebra.mul,
    Opcode.MUL_WIDE: ValueAlgebra.mul,
    Opcode.MUL: ValueAlgebra.mul,
    Opcode.MAD_LO: ValueAlgebra.mad,
    Opcode.MAD_WIDE: ValueAlgebra.mad,
    Opcode.MAD: ValueAlgebra.mad,
    Opcode.FMA: ValueAlgebra.mad,
    Opcode.DIV: ValueAlgebra.div,
    Opcode.REM: ValueAlgebra.rem,
    Opcode.NEG: ValueAlgebra.neg,
    Opcode.ABS: _abs,
    Opcode.MIN: ValueAlgebra.min_,
    Opcode.MAX: ValueAlgebra.max_,
    Opcode.SHL: ValueAlgebra.shl,
    Opcode.SHR: ValueAlgebra.shr,
    Opcode.AND: ValueAlgebra.and_,
    Opcode.OR: ValueAlgebra.or_,
    Opcode.XOR: ValueAlgebra.xor,
    Opcode.NOT: _not,
    Opcode.CVT: _first,
    Opcode.CVTA: _first,
    Opcode.SETP: None,
    Opcode.SELP: _selp,
    Opcode.SQRT: None,
    Opcode.RSQRT: None,
    Opcode.EX2: None,
    Opcode.LG2: None,
    Opcode.RCP: None,
}

#: each kernel body decoded once; see _decode
_DECODED = weakref.WeakKeyDictionary()


def _decode(kernel):
    """The kernel body as a :class:`_Body`.

    It depends on the body alone, so it is decoded once per kernel
    object (kernels hash by identity); the memo holds no kernel alive.
    """
    body = _DECODED.get(kernel)
    if body is None:
        body = _DECODED[kernel] = _Body(kernel)
    return body


class _Body:
    """What the forward interpreter needs of a (validated) kernel body,
    decided once per body.

    A launch's state is one list: a slot per register named in the body
    (``slots``, the first ``nregs``), then one per distinct integer
    immediate and special register.  ``template`` holds the registers'
    entry value and the immediates' values; each launch copies it and
    evaluates its ``specials`` (``(slot, special register)``) once.

    ``steps[i]`` is instruction ``i`` as ``(loop, key, dst, guarded,
    effect, arg, a, b, c)``:

    * ``loop``: the loop headed at ``i``, or ``None``;
    * ``key``: the dynamic-mix key, ``None`` for a terminator, whose
      ``effect`` is then ``_RET`` or ``_SKIP``;
    * ``dst``: the written register's slot or ``None``; a ``guarded``
      write joins with the register's old value;
    * ``effect`` and ``arg``: ``_ALG1``/``_ALG2``/``_ALG3`` apply the
      transfer function ``arg`` to the values in slots ``a``, ``b``,
      ``c``; ``_CONST`` yields ``arg``; ``_ACCESS`` records the global
      access ``arg``; ``_PARAM`` loads parameter ``a`` plus ``b`` bytes;
      ``_RAISE`` raises ``arg()``, the error the instruction always
      raises (an operand with no value, an unsupported opcode).

    ``counted`` maps each loop header to its :class:`_CountedLoop` or
    ``None``.  A body with irreducible loops keeps only the
    ``irreducible`` detail.
    """

    def __init__(self, kernel):
        self.irreducible = None
        try:
            self.loops = find_loops(kernel)
        except IrreducibleControlFlow as exc:
            self.irreducible = str(exc)
            return
        self.counted = {
            loop.header: _CountedLoop.match(kernel, loop) for loop in self.loops
        }
        loop_by_header = {loop.header: loop for loop in self.loops}
        slots = self.slots = {}
        for inst in kernel.instructions:
            for reg in inst.written_registers() + inst.read_registers():
                slots.setdefault(reg, len(slots))
        self.nregs = len(slots)
        self.template = [UNKNOWN_ARITH] * self.nregs
        self.specials = []
        self._operand_slots = {}
        self.steps = tuple(
            self._step(inst, loop_by_header.get(index))
            for index, inst in enumerate(kernel.instructions)
        )

    def _step(self, inst, loop):
        if inst.is_terminator:
            return (loop, None, None, False, _RET if inst.guard is None else _SKIP,
                    None, 0, 0, 0)
        key = inst.mix_class
        if inst.is_branch:
            # Forward branches are ignored: both paths execute
            # abstractly, over-approximating the access sets.
            return (loop, key, None, False, _CONST, None, 0, 0, 0)
        regs = inst.written_registers()
        dst = self.slots[regs[0]] if regs else None
        effect, arg, operands = self._effect(inst)
        a, b, c = (tuple(operands) + (0, 0, 0))[:3]
        return (loop, key, dst, inst.guard is not None, effect, arg, a, b, c)

    def _effect(self, inst):
        """``(effect, arg, operands)``, deciding in the order the
        interpreter acts: memory and untracked opcodes first, then each
        source operand, then the opcode's transfer function."""
        op = inst.opcode
        if op is Opcode.LD_PARAM:
            addr = inst.address_operand()
            return _PARAM, None, (addr.base.name, addr.offset)
        if op is Opcode.LD_GLOBAL:
            return _ACCESS, self._access(inst, ("read",)), ()
        if op is Opcode.ST_GLOBAL:
            return _ACCESS, self._access(inst, ("write",)), ()
        if op is Opcode.ATOM_ADD:
            return _ACCESS, self._access(inst, ("read", "write")), ()
        if op is Opcode.LD_SHARED:
            return _CONST, UNKNOWN_MEMORY, ()
        if op in (Opcode.ST_SHARED, Opcode.BAR_SYNC):
            return _CONST, None, ()
        if _is_float_type(inst.dtype) and op not in (Opcode.MOV, Opcode.SELP):
            return _CONST, UNKNOWN_ARITH, ()
        operands = []
        for src in inst.srcs:
            slot = self._operand_slot(src)
            if isinstance(slot, str):
                return _RAISE, partial(AnalysisError, slot), ()
            operands.append(slot)
        if op not in _TRANSFERS:
            return _RAISE, partial(_Fallback, "unsupported", "opcode %s" % op), ()
        problem = source_arity_problem(inst)
        if problem is not None:
            # Kernel.validate rejects this; a body built unvalidated
            # fails the same way when the instruction runs
            return _RAISE, partial(PTXValidationError, problem), ()
        arity, transfer = SOURCE_ARITY[op], _TRANSFERS[op]
        if transfer is None:
            return _CONST, UNKNOWN_ARITH, ()
        if op in (Opcode.CVT, Opcode.CVTA) and (
            _is_float_type(inst.dtype) or _is_float_type(inst.src_dtype)
        ):
            transfer = _float_cvt
        return (_ALG1, _ALG2, _ALG3)[arity - 1], transfer, operands[:arity]

    def _operand_slot(self, op):
        """The state slot holding a source operand's value, or the
        message of the AnalysisError that reading it raises."""
        if isinstance(op, Register):
            return self.slots[op]
        if isinstance(op, SpecialRegister):
            key, value = op, None  # evaluated once per launch
        elif isinstance(op, Immediate):
            if isinstance(op.value, int):
                key, value = ("int", op.value), AffineExpr(op.value)
            else:
                key, value = "float", UNKNOWN_ARITH
        elif isinstance(op, (Label, ParamRef)):
            return "operand %r has no runtime value" % (op,)
        elif isinstance(op, MemOperand):
            return "memory operand in value position"
        else:
            return "unknown operand %r" % (op,)
        slot = self._operand_slots.get(key)
        if slot is None:
            slot = self._operand_slots[key] = len(self.template)
            self.template.append(value)
            if value is None:
                self.specials.append((slot, op))
        return slot

    def _access(self, inst, kinds):
        """The access ``arg``: ``(kinds, base slot, offset, width, line,
        inst)``; the base slot is ``None`` when the base is no register."""
        addr = inst.address_operand()
        base = self.slots[addr.base] if isinstance(addr.base, Register) else None
        line = inst.line if inst.line is not None else -1
        return kinds, base, addr.offset, inst.access_width or 4, line, inst


# ----------------------------------------------------------------------
# forward abstract interpreter
# ----------------------------------------------------------------------
class _Interpreter:
    """Runs a decoded body for one launch: the special registers, the
    parameter loads, the value algebra and the access records."""

    def __init__(self, kernel, launch, max_intervals, metrics=NULL_METRICS):
        self.kernel = kernel
        self.launch = launch
        self.max_intervals = max_intervals
        self.metrics = metrics
        tx, ty, tz = launch.block
        ranges = {
            _TID_X: (0, tx - 1),
            _TID_Y: (0, ty - 1),
            _TID_Z: (0, tz - 1),
        }
        self.algebra = ValueAlgebra(ranges)
        self.args = launch.args_dict
        body = _decode(kernel)
        if body.irreducible is not None:
            raise _Fallback("irreducible", body.irreducible)
        self.body = body
        self.loops = body.loops
        self.state = list(body.template)
        for slot, sreg in body.specials:
            self.state[slot] = self._special_value(sreg)
        self.records = []
        self.recording = False
        self.multiplier = 1.0
        self.dyn_mix = {
            "alu": 0.0,
            "mem_global": 0.0,
            "mem_shared": 0.0,
            "mem_param": 0.0,
            "control": 0.0,
            "barrier": 0.0,
        }
        self._loop_ids = iter(range(1 << 30))

    # ------------------------------------------------------------------
    def run(self):
        self.recording = True
        self._exec_range(0, len(self.body.steps))
        self.dyn_mix["total"] = sum(self.dyn_mix.values())
        return self.records, dict(self.dyn_mix)

    # ------------------------------------------------------------------
    def _exec_range(self, start, end):
        # a nested loop restores the recording flag and the multiplier,
        # and updates the state, the records and the mix in place
        steps = self.body.steps
        state = self.state
        alg = self.algebra
        mix = self.dyn_mix
        recording = self.recording
        multiplier = self.multiplier
        i = start
        while i < end:
            loop, key, dst, guarded, effect, arg, a, b, c = steps[i]
            if loop is not None and loop.latch < end:
                self._exec_loop(loop)
                i = loop.latch + 1
                continue
            i += 1
            if key is None:
                if effect == _RET:
                    return
                continue
            if recording:
                mix[key] += multiplier
            if effect == _ALG2:
                value = arg(alg, state[a], state[b])
            elif effect == _ALG1:
                value = arg(alg, state[a])
            elif effect == _CONST:
                value = arg
            elif effect == _ALG3:
                value = arg(alg, state[a], state[b], state[c])
            elif effect == _ACCESS:
                value = self._access(arg) if recording else UNKNOWN_MEMORY
            elif effect == _PARAM:
                value = self._param_value(a, b)
            else:
                raise arg()
            if dst is not None:
                if guarded:
                    value = alg.join(state[dst], value)
                state[dst] = value

    # ------------------------------------------------------------------
    # loop handling
    # ------------------------------------------------------------------
    def _exec_loop(self, loop):
        state = self.state
        state0 = state[:]
        # discovery pass: find induction registers (no recording)
        saved_recording, self.recording = self.recording, False
        self._exec_range(loop.header, loop.latch)
        state1 = state[:]
        self.recording = saved_recording
        state[:] = state0

        inductions = {}
        widened = {}
        for slot in range(self.body.nregs):
            v0, v1 = state0[slot], state1[slot]
            if v0 is v1 or _values_equal(v0, v1):
                continue
            if isinstance(v0, AffineExpr) and isinstance(v1, AffineExpr):
                delta = v1 - v0
                if delta.is_constant and delta.const != 0:
                    inductions[slot] = delta.const
                    continue
            widened[slot] = _widen_value(v1)

        trip = self._trip_count(loop, self._registers(state0))
        if trip is None:
            raise _Fallback(
                "loop_bounds",
                "cannot bound loop at instructions %d-%d" % (loop.header, loop.latch),
            )
        if trip == 0:
            # body never executes: state unchanged, nothing recorded
            return

        attempts = len(inductions) + 1
        for _attempt in range(attempts):
            loop_sym = LOOP(next(self._loop_ids))
            self.algebra.symbol_ranges[loop_sym] = (0, trip - 1)
            state[:] = state0
            for slot, step in inductions.items():
                state[slot] = state0[slot] + AffineExpr.symbol(loop_sym, step)
            for slot, value in widened.items():
                state[slot] = value
            checkpoint = len(self.records)
            mix_checkpoint = dict(self.dyn_mix)
            saved_multiplier = self.multiplier
            self.multiplier *= trip
            self._exec_range(loop.header, loop.latch)
            self.multiplier = saved_multiplier
            bad = self._verify_inductions(loop_sym, state0, inductions)
            if bad is None:
                break
            # not a clean induction after all: widen and retry — rolling
            # back both the recorded accesses and the dynamic counts
            del self.records[checkpoint:]
            self.dyn_mix.update(mix_checkpoint)
            inductions.pop(bad)
            widened[bad] = _widen_value(state1[bad])
        else:
            raise _Fallback("loop_bounds", "induction discovery did not converge")

        # exit state: inductions take their post-loop value
        for slot, step in inductions.items():
            state[slot] = state0[slot] + AffineExpr(step * trip)
        for slot, value in widened.items():
            state[slot] = value

    def _verify_inductions(self, loop_sym, state0, inductions):
        """After the symbolic body pass, each induction register must have
        advanced by exactly its step.  Return an offending slot, or
        ``None`` when all verify."""
        for slot, step in inductions.items():
            expected = (
                state0[slot]
                + AffineExpr.symbol(loop_sym, step)
                + AffineExpr(step)
            )
            actual = self.state[slot]
            if not (isinstance(actual, AffineExpr) and actual == expected):
                return slot
        return None

    def _registers(self, state):
        """``state`` keyed by register, as the trip-count solvers read it."""
        return {reg: state[slot] for reg, slot in self.body.slots.items()}

    # ------------------------------------------------------------------
    def _trip_count(self, loop, state0):
        """Maximum trip count over corner bindings of the live symbols.

        A canonical counted loop (:class:`_CountedLoop`) is solved in
        closed form at each corner; any other loop is simulated
        concretely (including nested control flow).  Both give the same
        answer, ``None`` when the loop cannot be bounded (unknown values
        in the exit condition or iteration cap exceeded).
        """
        symbols = set()
        for value in state0.values():
            if isinstance(value, AffineExpr):
                symbols.update(value.symbols())
        symbols = sorted(symbols)[:4]
        corners = [{}]
        for sym in symbols:
            lo, hi = self.algebra.symbol_ranges.get(sym, (0, 0))
            new = []
            for corner in corners:
                for bound in {lo, hi}:
                    extended = dict(corner)
                    extended[sym] = bound
                    new.append(extended)
            corners = new
        counted = self.body.counted[loop.header]
        if counted is not None:
            self.metrics.inc("analysis.tripcount.closed_form")
            solve = partial(counted.trips, self.launch, state0)
        else:
            self.metrics.inc("analysis.tripcount.simulated")
            solve = partial(self._simulate_loop, loop, state0)
        best = 0
        for corner in corners:
            trips = solve(corner)
            if trips is None:
                return None
            best = max(best, trips)
        return best

    def _simulate_loop(self, loop, state0, binding):
        concrete = {}
        for reg, value in state0.items():
            concrete[reg] = _concretize(value, binding)
        sim = _ConcreteSimulator(self.kernel, self.launch, binding, concrete)
        return sim.run_loop(loop)

    # ------------------------------------------------------------------
    # launch-dependent values
    # ------------------------------------------------------------------
    def _special_value(self, sreg):
        gx, gy, gz = self.launch.grid
        tx, ty, tz = self.launch.block
        if sreg.family == "tid":
            return AffineExpr.symbol(TID(sreg.dim))
        if sreg.family == "ctaid":
            return AffineExpr.symbol(CTAID(sreg.dim))
        if sreg.family == "ntid":
            return AffineExpr({"x": tx, "y": ty, "z": tz}[sreg.dim])
        if sreg.family == "nctaid":
            return AffineExpr({"x": gx, "y": gy, "z": gz}[sreg.dim])
        if sreg.family == "laneid":
            return SInterval(0, 31)
        if sreg.family == "warpid":
            warps = max(1, (self.launch.threads_per_tb + 31) // 32)
            return SInterval(0, warps - 1)
        raise AnalysisError("unhandled special register %s" % sreg)

    def _param_value(self, name, offset):
        if name not in self.args:
            raise _Fallback("missing_arg", "no value bound for parameter %r" % name)
        return AffineExpr(int(self.args[name]) + offset)

    # ------------------------------------------------------------------
    def _access(self, access):
        """Record a global access; the value it loads is unknown."""
        kinds, base, offset, width, line, inst = access
        value = UNKNOWN_ARITH if base is None else self.state[base]
        for kind in kinds:
            self.records.append(
                self._record(kind, value, offset, width, line, inst)
            )
        return UNKNOWN_MEMORY

    def _record(self, kind, value, offset, width, line, inst):
        """The record of an access at address ``value + offset``."""
        if isinstance(value, AffineExpr):
            return self._record_from_affine(
                kind, value.const + offset, value.terms, width, line, inst
            )
        address = self.algebra.add(value, AffineExpr(offset))
        if isinstance(address, SInterval):
            count = (address.hi - address.lo) // address.stride + 1
            return AccessRecord.normalized(
                kind,
                line,
                width,
                address.lo,
                (0, 0, 0),
                [(address.stride, count)],
                thread_stride=None,  # inter-thread layout unknown
            )
        reason = address.reason if isinstance(address, Unknown) else "arith"
        raise _Fallback(
            "non_static" if reason == "memory" else "unknown_address",
            "address of %s is %s" % (inst, address),
        )

    def _record_from_affine(self, kind, base, terms, width, line, inst):
        """The record of an access at ``base + sum(coeff * sym)``."""
        ctaid = [0, 0, 0]
        dims = []
        ranges = self.algebra.symbol_ranges
        for sym, coeff in terms.items():
            if sym.kind == "ctaid":
                ctaid["xyz".index(sym.name)] += coeff
                continue
            lo, hi = ranges.get(sym, (None, None))
            if lo is None:
                raise _Fallback(
                    "unknown_address", "symbol %s has no range in %s" % (sym, inst)
                )
            base += coeff * lo
            dims.append((coeff, hi - lo + 1))
        return AccessRecord.normalized(
            kind,
            line,
            width,
            base,
            tuple(ctaid),
            dims,
            thread_stride=terms.get(_TID_X, 0),
        )


def _is_float_type(dtype):
    return dtype is not None and dtype.startswith("f")


def _values_equal(a, b):
    if isinstance(a, AffineExpr) and isinstance(b, AffineExpr):
        return a == b
    if isinstance(a, SInterval) and isinstance(b, SInterval):
        return a == b
    if isinstance(a, Unknown) and isinstance(b, Unknown):
        return a.reason == b.reason
    return False


def _widen_value(v1):
    """Value for a loop-variant non-induction register: unknown, keeping
    the memory taint so Algorithm 1's bail-out survives widening."""
    if isinstance(v1, Unknown):
        return taint_of(v1)
    return Unknown("widen")


def _concretize(value, binding):
    if isinstance(value, AffineExpr):
        try:
            return value.evaluate(binding)
        except KeyError:
            return None
    if isinstance(value, SInterval):
        return value.lo if value.is_singleton else None
    return None


# ----------------------------------------------------------------------
# concrete scalar simulator (trip-count discovery)
# ----------------------------------------------------------------------
class _ConcreteSimulator:
    """Executes a loop concretely with integer register values.

    Unknown values are ``None`` and propagate; if control flow ever
    depends on ``None`` the simulation aborts (returns ``None``),
    triggering the analysis fallback.
    """

    def __init__(self, kernel, launch, binding, concrete_state):
        self.kernel = kernel
        self.launch = launch
        self.binding = binding
        self.state = dict(concrete_state)

    def run_loop(self, loop):
        instructions = self.kernel.instructions
        i = loop.header
        trips = 1
        steps = 0
        while True:
            steps += 1
            if steps > STEP_CAP or trips > TRIP_COUNT_CAP:
                return None
            inst = instructions[i]
            if i == loop.latch:
                taken = self._branch_taken(inst)
                if taken is None:
                    return None
                if not taken:
                    return trips
                trips += 1
                i = loop.header
                continue
            if inst.is_branch:
                taken = self._branch_taken(inst)
                if taken is None:
                    return None
                if taken:
                    target = None
                    for src in inst.srcs:
                        if isinstance(src, Label):
                            target = self.kernel.labels[src.name]
                    i = target
                else:
                    i += 1
                continue
            if inst.is_terminator:
                if inst.guard is None:
                    return trips
                guard = self.state.get(inst.guard)
                if guard is None:
                    return None
                if bool(guard) != inst.guard_negated:
                    return trips
                i += 1
                continue
            self._step(inst)
            i += 1

    def _branch_taken(self, inst):
        if inst.guard is None:
            return True
        guard = self.state.get(inst.guard)
        if guard is None:
            return None
        taken = bool(guard)
        return not taken if inst.guard_negated else taken

    def _value(self, op):
        if isinstance(op, Register):
            return self.state.get(op)
        if isinstance(op, Immediate):
            return op.value if isinstance(op.value, int) else None
        if isinstance(op, SpecialRegister):
            return self._special(op)
        return None

    def _special(self, sreg):
        gx, gy, gz = self.launch.grid
        tx, ty, tz = self.launch.block
        if sreg.family == "ntid":
            return {"x": tx, "y": ty, "z": tz}[sreg.dim]
        if sreg.family == "nctaid":
            return {"x": gx, "y": gy, "z": gz}[sreg.dim]
        sym = Sym(sreg.family, sreg.dim or "")
        return self.binding.get(sym)

    def _step(self, inst):
        if inst.guard is not None:
            guard = self.state.get(inst.guard)
            if guard is None:
                self._clobber(inst)
                return
            if bool(guard) == inst.guard_negated:
                return
        op = inst.opcode
        if op in (Opcode.ST_GLOBAL, Opcode.ST_SHARED, Opcode.BAR_SYNC):
            return
        if op in (Opcode.LD_GLOBAL, Opcode.LD_SHARED, Opcode.ATOM_ADD):
            self._clobber(inst)
            return
        if op is Opcode.LD_PARAM:
            addr = inst.address_operand()
            value = self.launch.args_dict.get(addr.base.name)
            self._write(inst, None if value is None else value + addr.offset)
            return
        if _is_float_type(inst.dtype) and op is not Opcode.MOV:
            self._clobber(inst)
            return
        srcs = [self._value(s) for s in inst.srcs]
        if op is Opcode.SETP:
            self._write(inst, _compare(inst.compare, srcs[0], srcs[1]))
            return
        if any(s is None for s in srcs):
            self._clobber(inst)
            return
        self._write(inst, _concrete_op(op, srcs, inst))

    def _write(self, inst, value):
        regs = inst.written_registers()
        if regs:
            self.state[regs[0]] = value

    def _clobber(self, inst):
        self._write(inst, None)


def _compare(cmp, a, b):
    if a is None or b is None:
        return None
    return {
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
    }[cmp]


def _concrete_op(op, srcs, inst):
    if op is Opcode.MOV:
        return srcs[0] if isinstance(srcs[0], int) else None
    if op is Opcode.ADD:
        return srcs[0] + srcs[1]
    if op is Opcode.SUB:
        return srcs[0] - srcs[1]
    if op in (Opcode.MUL_LO, Opcode.MUL_WIDE, Opcode.MUL):
        return srcs[0] * srcs[1]
    if op in (Opcode.MAD_LO, Opcode.MAD_WIDE, Opcode.MAD):
        return srcs[0] * srcs[1] + srcs[2]
    if op is Opcode.DIV:
        return srcs[0] // srcs[1] if srcs[1] else None
    if op is Opcode.REM:
        return srcs[0] % srcs[1] if srcs[1] else None
    if op is Opcode.NEG:
        return -srcs[0]
    if op is Opcode.ABS:
        return abs(srcs[0])
    if op is Opcode.MIN:
        return min(srcs)
    if op is Opcode.MAX:
        return max(srcs)
    if op is Opcode.SHL:
        return srcs[0] << srcs[1] if 0 <= srcs[1] < 64 else None
    if op is Opcode.SHR:
        return srcs[0] >> srcs[1] if 0 <= srcs[1] < 64 else None
    if op is Opcode.AND:
        return srcs[0] & srcs[1]
    if op is Opcode.OR:
        return srcs[0] | srcs[1]
    if op is Opcode.XOR:
        return srcs[0] ^ srcs[1]
    if op is Opcode.NOT:
        return ~srcs[0]
    if op in (Opcode.CVT, Opcode.CVTA):
        return srcs[0]
    if op is Opcode.SELP:
        return None
    return None


# ----------------------------------------------------------------------
# closed-form trip counts (canonical counted loops)
# ----------------------------------------------------------------------
#: ``setp.<cmp> p, a, b`` holds iff ``a - b`` lies in the set
#: ``(kind, m)``: ``le`` is ``<= m``, ``ge`` is ``>= m``, and ``eq`` /
#: ``ne`` are ``== 0`` / ``!= 0`` — the same relations as :func:`_compare`
_SETP_HOLDS = {
    "lt": ("le", -1),
    "lo": ("le", -1),
    "le": ("le", 0),
    "ls": ("le", 0),
    "gt": ("ge", 1),
    "hi": ("ge", 1),
    "ge": ("ge", 0),
    "hs": ("ge", 0),
    "eq": ("eq", 0),
    "ne": ("ne", 0),
}
#: integer complement of each set: kind -> (kind, shift of ``m``)
_COMPLEMENT = {"le": ("ge", 1), "ge": ("le", -1), "eq": ("ne", 0), "ne": ("eq", 0)}


class _CountedLoop:
    """A canonical innermost counted loop, solved in closed form.

    The body ``[header, latch)`` has no branch and no terminator, and
    the latch is a guarded ``bra`` back to the header.  The guard ``p``
    has one writer in the body, an unguarded integer
    ``setp.<cmp> p, a, b``.  One of ``a``/``b`` is a register ``k``
    whose one writer in the body is an unguarded integer
    ``add k, k, s``.  ``s`` and the other ``setp`` operand are each an
    integer immediate, ``%ntid``/``%nctaid``, or a register the body
    never writes.  :meth:`match` declines every other loop.

    Nothing else in such a body can reach ``k``, ``s``, the bound or
    ``p``, so the latch of iteration ``t`` tests ``k0 + t*s`` (``setp``
    after the ``add``) or ``k0 + (t-1)*s`` (before it) against a
    constant.  :meth:`trips` returns exactly what
    :meth:`_ConcreteSimulator.run_loop` would.
    """

    def __init__(self, loop, setp, negated, counter_first, counter, step,
                 bound, pre_increment):
        self.body_len = loop.latch - loop.header + 1
        self.compare = setp.compare
        self.negated = negated
        self.counter_first = counter_first
        self.counter = counter
        self.step = step
        self.bound = bound
        self.pre_increment = pre_increment
        # the latch falls through once ``a - b`` enters this set
        kind, m = _SETP_HOLDS[setp.compare]
        if not negated:
            kind, shift = _COMPLEMENT[kind]
            m += shift
        self.exit_set = (kind, m)

    @classmethod
    def match(cls, kernel, loop):
        """The loop in canonical form, or ``None`` to decline."""
        insts = kernel.instructions
        latch = insts[loop.latch]
        if latch.guard is None:
            return None
        writers = {}
        for index in range(loop.header, loop.latch):
            inst = insts[index]
            if inst.is_branch or inst.is_terminator:
                return None
            for reg in inst.written_registers():
                writers.setdefault(reg, []).append(index)

        def sole_writer(reg, opcode):
            indices = writers.get(reg, ())
            if len(indices) != 1:
                return None
            inst = insts[indices[0]]
            if (
                inst.opcode is not opcode
                or inst.guard is not None
                or _is_float_type(inst.dtype)
                or inst.written_registers() != (reg,)
                or len(inst.srcs) != 2
            ):
                return None
            return indices[0]

        def invariant(op):
            if isinstance(op, Immediate):
                return isinstance(op.value, int)
            if isinstance(op, SpecialRegister):
                return op.family in ("ntid", "nctaid")
            return isinstance(op, Register) and op not in writers

        setp_index = sole_writer(latch.guard, Opcode.SETP)
        if setp_index is None or insts[setp_index].compare not in _SETP_HOLDS:
            return None
        setp = insts[setp_index]
        for side in (0, 1):
            counter, bound = setp.srcs[side], setp.srcs[1 - side]
            add_index = sole_writer(counter, Opcode.ADD)
            if add_index is None:
                continue
            add = insts[add_index]
            if add.srcs[0] == counter and invariant(add.srcs[1]) and invariant(bound):
                return cls(
                    loop,
                    setp,
                    negated=latch.guard_negated,
                    counter_first=side == 0,
                    counter=counter,
                    step=add.srcs[1],
                    bound=bound,
                    pre_increment=setp_index < add_index,
                )
        return None

    def trips(self, launch, state0, binding):
        """Trip count at one corner ``binding`` of the entry state."""
        operands = (self.counter, self.step, self.bound)
        # the simulator's own concretization of the three operands
        sim = _ConcreteSimulator(
            None,
            launch,
            binding,
            {
                op: _concretize(state0.get(op), binding)
                for op in operands
                if isinstance(op, Register)
            },
        )
        k0, step, bound = (sim._value(op) for op in operands)
        if self.pre_increment:
            first = k0
        else:
            first = None if k0 is None or step is None else k0 + step
        taken = self._taken(first, bound)
        if taken is None:
            return None
        if not taken:
            trips = 1
        elif step is None:
            return None  # the second iteration tests an unknown counter
        else:
            # iteration t tests (first - step) + t*step, i.e. a - b is
            # e + t*slope
            base = first - step
            if self.counter_first:
                e, slope = base - bound, step
            else:
                e, slope = bound - base, -step
            trips = _first_in(self.exit_set, e, slope)
        # the simulator gives up once it has run TRIP_COUNT_CAP
        # iterations or STEP_CAP instructions
        if trips is None or trips > min(TRIP_COUNT_CAP, STEP_CAP // self.body_len):
            return None
        return trips

    def _taken(self, value, bound):
        a, b = (value, bound) if self.counter_first else (bound, value)
        holds = _compare(self.compare, a, b)
        return None if holds is None else holds != self.negated


def _first_in(exit_set, e, slope):
    """Smallest ``t`` with ``e + t*slope`` in ``exit_set`` (a ``(kind, m)``
    pair as in :data:`_SETP_HOLDS`), or ``None``, given that ``t = 1``
    is not in it: the first latch was taken."""
    kind, m = exit_set
    if kind == "ge":  # x >= m  <=>  -x <= -m
        kind, m, e, slope = "le", -m, -e, -slope
    if kind == "le":  # monotone in t: reached only while decreasing
        return -((m - e) // -slope) if slope < 0 else None  # ceil((e-m)/-slope)
    if kind == "eq":  # at most one t, none when slope == 0
        if slope == 0 or e % slope or -e // slope < 1:
            return None
        return -e // slope
    # "ne": e + slope == 0, so the next iteration leaves zero unless slope == 0
    return 2 if slope != 0 else None
