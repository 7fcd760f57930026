"""Property test: closed-form loop trip counts equal concrete simulation.

A generator emits one loop per example: a ``setp`` on an induction
register ``k`` (every comparison, either operand order, latch guard
negated or not), an ``add k, k, s`` placed before or after it, and some
unrelated body instructions.  The step and the bound come from an
immediate, ``%ntid.x``/``%nctaid.x`` or a loop-invariant register whose
entry value may be a constant, symbolic in ``%tid.x``, an interval, or
unknown.  Near-canonical variants break one rule of the canonical shape
each (float ``setp``/``add``, guarded increment, a second writer, a
written bound or step, a forward branch, a guarded ``ret``, a ``%tid``
operand, an unguarded latch, an enclosing outer loop).

For every generated corner, a canonical loop's closed-form answer must
equal :meth:`_ConcreteSimulator.run_loop` (through
``_Interpreter._simulate_loop``, the analyzer's own corner path), and
every other loop must decline.  ``TRIP_COUNT_CAP`` and ``STEP_CAP`` are
patched down so the cap boundaries are reached within a few hundred
simulated instructions; both solvers read the module constants.
"""

import itertools
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import analyzer
from repro.analysis.affine import TID, AffineExpr
from repro.analysis.analyzer import LaunchConfig, _CountedLoop, _Interpreter
from repro.analysis.values import UNKNOWN_ARITH, SInterval
from repro.obs import MetricsRegistry
from repro.ptx.isa import COMPARISONS, Register
from repro.ptx.parser import parse_kernel

#: variants that each break one rule of the canonical shape
DECLINING = (
    "float_setp",
    "float_add",
    "guarded_add",
    "second_writer",
    "bound_written",
    "step_written",
    "forward_branch",
    "guarded_ret",
    "tid_operand",
    "unguarded_latch",
)

#: body instructions that write none of k, s, the bound or the guard;
#: between them they take every path of the simulator's instruction step
FILLERS = (
    "mul.lo.u32 %x, %k, 4;",
    "mad.lo.u32 %y, %k, 3, %x;",
    "sub.s32 %y, %x, %k;",
    "div.s32 %z, %k, 3;",
    "rem.s32 %z, %x, %y;",
    "neg.s32 %z, %k;",
    "abs.s32 %z, %y;",
    "min.s32 %z, %x, %y;",
    "max.s32 %z, %x, %k;",
    "shl.b32 %z, %k, 2;",
    "shr.s32 %z, %x, 1;",
    "and.b32 %z, %k, 7;",
    "or.b32 %z, %x, %y;",
    "xor.b32 %z, %x, %k;",
    "not.b32 %z, %k;",
    "cvt.s32.u32 %z, %k;",
    "selp.s32 %z, %x, %y, %q;",
    "ld.param.u32 %z, [A];",
    "@%q mov.u32 %z, %k;",
    "@!%q mov.u32 %z, %x;",
    "mov.u32 %y, %x;",
    "ld.global.f32 %f1, [%rdA];",
    "ld.shared.f32 %f1, [%rdA];",
    "st.global.f32 [%rdA], %facc;",
    "bar.sync 0;",
    "add.f32 %facc, %facc, %f1;",
)

#: how a register's entry value is given; all but "const" may
#: concretize to None
ENTRY_KINDS = ("const",) * 8 + ("symbolic", "singleton", "unbound", "unknown", "absent")


def entry_value(kind, value, tid):
    """Abstract entry value that concretizes to ``value`` (or to None)."""
    if kind == "const":
        return AffineExpr(value)
    if kind == "symbolic":  # value at the corner %tid.x == tid
        return AffineExpr.symbol(TID("x"), 2) + AffineExpr(value - 2 * tid)
    if kind == "singleton":
        return SInterval(value, value)
    if kind == "unbound":  # a symbol the corner does not bind
        return AffineExpr.symbol(TID("y"))
    return UNKNOWN_ARITH


@st.composite
def loop_cases(draw, variant=None):
    """``(ptx, launch, state0, binding)`` for one loop, its entry state
    and one corner."""
    compare = draw(st.sampled_from(sorted(COMPARISONS)))
    negated = draw(st.booleans())
    counter_first = draw(st.booleans())
    setp_first = draw(st.booleans())
    step_from = draw(st.sampled_from(("imm", "ntid", "reg")))
    bound_from = draw(st.sampled_from(("imm", "ntid", "nctaid", "reg")))
    if variant == "bound_written":
        bound_from = "reg"
    if variant == "step_written":
        step_from = "reg"
    block, grid = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    tid = draw(st.integers(0, block - 1))
    k0, step = draw(st.integers(-40, 40)), draw(st.integers(-4, 4))
    # the bound on either side of k0, often close enough to meet it
    bound = k0 + draw(st.one_of(st.integers(-4, 4), st.integers(-80, 80)))
    if draw(st.booleans()):  # step toward the bound: more finite loops
        target = {"ntid": block, "nctaid": grid}.get(bound_from, bound)
        step = abs(step) if target >= k0 else -abs(step)

    state0 = {
        Register("rdA"): AffineExpr(0),
        Register("facc"): UNKNOWN_ARITH,
        Register("x"): AffineExpr(draw(st.integers(-3, 3))),
        Register("y"): AffineExpr(draw(st.integers(-3, 3))),
        Register("q"): AffineExpr(draw(st.integers(0, 1))),
    }
    for name, value, used in (
        ("k", k0, True),
        ("s", step, step_from == "reg"),
        ("b", bound, bound_from == "reg"),
    ):
        kind = draw(st.sampled_from(ENTRY_KINDS))
        if used and kind != "absent":
            state0[Register(name)] = entry_value(kind, value, tid)

    step_op = {"imm": str(step), "ntid": "%ntid.x", "reg": "%s"}[step_from]
    bound_op = {
        "imm": str(bound),
        "ntid": "%ntid.x",
        "nctaid": "%nctaid.x",
        "reg": "%b",
    }[bound_from]
    if variant == "tid_operand":
        if draw(st.booleans()):
            step_op = "%tid.x"
        else:
            bound_op = "%tid.x"

    setp_type = "f32" if variant == "float_setp" else "s32"
    add_type = "f32" if variant == "float_add" else "s32"
    a, b = ("%k", bound_op) if counter_first else (bound_op, "%k")
    setp = "setp.{}.{} %p, {}, {};".format(compare, setp_type, a, b)
    add = "add.{} %k, %k, {};".format(add_type, step_op)
    if variant == "guarded_add":
        add = "@%q " + add
    core = [setp, add] if setp_first else [add, setp]

    body = list(core)
    for filler in draw(st.lists(st.sampled_from(FILLERS), max_size=4)):
        body.insert(draw(st.integers(0, len(body))), filler)
    extra = {
        "guarded_add": ["setp.ne.s32 %q, %x, 7;"],
        "second_writer": ["add.s32 %k, %k, 0;"],
        "bound_written": ["add.s32 %b, %b, 0;"],
        "step_written": ["mov.s32 %s, %s;"],
        "forward_branch": [
            "setp.ne.s32 %q, %k, 1000;",
            "@%q bra SKIP;",
            "mul.lo.u32 %x, %k, 3;",
            "SKIP:",
        ],
        "guarded_ret": ["setp.eq.s32 %q, %k, 1000;", "@%q ret;"],
    }.get(variant, [])
    if extra:
        at = draw(st.integers(0, len(body)))
        body[at:at] = extra
    # a label needs an instruction after it inside the body
    body.append("mov.u32 %y, 0;")

    latch = "bra LOOP;" if variant == "unguarded_latch" else "@{}%p bra LOOP;".format(
        "!" if negated else ""
    )
    lines = ["LOOP:"] + body + [latch]
    if variant == "nested":
        lines = (
            ["mov.u32 %i, 0;", "OUTER:", "mov.u32 %x, 0;"]
            + lines
            + ["add.u32 %i, %i, 1;", "setp.lt.u32 %r, %i, 3;", "@%r bra OUTER;"]
        )
    ptx = (
        ".visible .entry loop (.param .u64 A)\n{\n"
        + "\n".join("    " + line for line in lines)
        + "\n    ret;\n}\n"
    )
    launch = LaunchConfig.create(grid=grid, block=block)
    return ptx, launch, state0, {TID("x"): tid}


@contextmanager
def caps(trip_cap, step_cap):
    with mock.patch.object(analyzer, "TRIP_COUNT_CAP", trip_cap), mock.patch.object(
        analyzer, "STEP_CAP", step_cap
    ):
        yield


def solve_both(ptx, launch, state0, binding):
    """Per loop: (is innermost, closed form or None, simulator answer)."""
    kernel = parse_kernel(ptx)
    interp = _Interpreter(kernel, launch, 64)
    results = []
    for loop in interp.loops:
        innermost = not any(
            other is not loop and loop.header <= other.header <= loop.latch
            for other in interp.loops
        )
        counted = _CountedLoop.match(kernel, loop)
        answer = None if counted is None else counted.trips(launch, state0, binding)
        results.append(
            (innermost, counted, answer, interp._simulate_loop(loop, state0, binding))
        )
    return results


CAPS = (st.integers(1, 100), st.integers(1, 1000))


@settings(max_examples=800, deadline=None)
@given(loop_cases(), *CAPS)
def test_canonical_loop_matches_simulator(case, trip_cap, step_cap):
    with caps(trip_cap, step_cap):
        ((_, counted, answer, expected),) = solve_both(*case)
    assert counted is not None
    assert answer == expected


@settings(max_examples=60, deadline=None)
@given(loop_cases(variant="nested"), *CAPS)
def test_nested_outer_declines_inner_solves(case, trip_cap, step_cap):
    with caps(trip_cap, step_cap):
        outer, inner = solve_both(*case)
    assert not outer[0] and outer[1] is None
    assert inner[0] and inner[1] is not None
    assert inner[2] == inner[3]


@pytest.mark.parametrize("variant", DECLINING)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_near_canonical_loop_declines(variant, data):
    case = data.draw(loop_cases(variant=variant))
    with caps(64, 512):
        ((_, counted, _, _),) = solve_both(*case)
    assert counted is None


def simple_loop(setp="setp.lt.s32 %p, %k, 10;", add="add.s32 %k, %k, 1;",
                setp_first=False, latch="@%p bra LOOP;"):
    """A four-instruction loop (a load, the ``add``, the ``setp``, the
    latch) entered with ``k = 0``."""
    body = [setp, add] if setp_first else [add, setp]
    ptx = (
        ".visible .entry loop (.param .u64 A)\n{\nLOOP:\n"
        + "\n".join(["ld.global.f32 %f1, [%rdA];"] + body + [latch])
        + "\nret;\n}\n"
    )
    state0 = {Register("k"): AffineExpr(0), Register("rdA"): AffineExpr(0)}
    return ptx, LaunchConfig.create(grid=1, block=1), state0, {}


@pytest.mark.parametrize("compare", sorted(COMPARISONS))
def test_small_values_exhaustively(compare):
    """Every latch shape for ``compare`` over all small ``k0``, step and
    bound, with caps low enough that some loops hit them."""
    registers = [Register(name) for name in ("k", "s", "b")]
    checked = 0
    shapes = itertools.product((False, True), repeat=3)
    for negated, counter_first, setp_first in shapes:
        a, b = ("%k", "%b") if counter_first else ("%b", "%k")
        ptx, launch, _, _ = simple_loop(
            setp="setp.{}.s32 %p, {}, {};".format(compare, a, b),
            add="add.s32 %k, %k, %s;",
            setp_first=setp_first,
            latch="@{}%p bra LOOP;".format("!" if negated else ""),
        )
        kernel = parse_kernel(ptx)
        interp = _Interpreter(kernel, launch, 64)
        (loop,) = interp.loops
        counted = _CountedLoop.match(kernel, loop)
        assert counted is not None
        with caps(9, 30):
            grid = itertools.product(range(-4, 5), range(-2, 3), range(-4, 5))
            for values in grid:
                state0 = {r: AffineExpr(v) for r, v in zip(registers, values)}
                expected = interp._simulate_loop(loop, state0, {})
                assert counted.trips(launch, state0, {}) == expected, (ptx, values)
                checked += 1
    assert checked == 8 * 9 * 5 * 9


def test_float_setp_latch_is_unbounded():
    """The simulator clobbers a float ``setp``: the loop is unbounded, and
    declining keeps that answer."""
    case = simple_loop(setp="setp.lt.f32 %p, %k, 10;")
    ((_, counted, _, expected),) = solve_both(*case)
    assert counted is None
    assert expected is None


@pytest.mark.parametrize("trip_cap", (9, 10, 11))
@pytest.mark.parametrize("step_slack", (-1, 0, 1))
def test_cap_boundaries(trip_cap, step_slack):
    """10 trips of a 4-instruction body: None exactly when
    ``T > TRIP_COUNT_CAP`` or ``4*T > STEP_CAP``."""
    with caps(trip_cap, 40 + step_slack):
        ((_, counted, answer, expected),) = solve_both(*simple_loop())
    assert counted is not None
    assert answer == expected
    assert (answer is None) == (trip_cap < 10 or step_slack < 0)


def test_unknown_step_with_setp_first():
    """``setp`` before the ``add``: the first latch reads only ``k0``, so a
    loop that falls through at once is bounded even with an unknown step."""
    case = simple_loop(
        setp="setp.gt.s32 %p, %k, 5;", add="add.s32 %k, %k, %s;", setp_first=True
    )
    ((_, counted, answer, expected),) = solve_both(*case)
    assert counted is not None
    assert answer == expected == 1


def test_trip_count_counts_its_tier():
    """``_trip_count`` reports which tier served it."""
    ptx, launch, state0, _ = simple_loop()
    kernel = parse_kernel(ptx)
    metrics = MetricsRegistry()
    interp = _Interpreter(kernel, launch, 64, metrics)
    assert interp._trip_count(interp.loops[0], state0) == 10
    counters = metrics.snapshot()["counters"]
    assert counters == {"analysis.tripcount.closed_form": 1.0}
