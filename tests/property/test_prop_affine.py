"""Property tests: affine expressions commute with evaluation."""

from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.affine import AffineExpr, CTAID, LOOP, TID

SYMBOLS = (TID("x"), TID("y"), CTAID("x"), CTAID("y"), LOOP(0))

coeffs_st = st.fixed_dictionaries(
    {}, optional={sym: st.integers(-64, 64) for sym in SYMBOLS}
)
expr_st = st.tuples(st.integers(-1000, 1000), coeffs_st).map(
    lambda t: AffineExpr(t[0], t[1])
)
binding_st = st.fixed_dictionaries(
    {sym: st.integers(-16, 16) for sym in SYMBOLS}
)


@given(expr_st, expr_st, binding_st)
def test_add_homomorphism(a, b, env):
    assert (a + b).evaluate(env) == a.evaluate(env) + b.evaluate(env)


@given(expr_st, expr_st, binding_st)
def test_sub_homomorphism(a, b, env):
    assert (a - b).evaluate(env) == a.evaluate(env) - b.evaluate(env)


@given(expr_st, st.integers(-32, 32), binding_st)
def test_scale_homomorphism(a, factor, env):
    assert a.scale(factor).evaluate(env) == factor * a.evaluate(env)


@given(expr_st, binding_st)
def test_neg_homomorphism(a, env):
    assert (-a).evaluate(env) == -a.evaluate(env)


@given(expr_st, expr_st)
def test_add_commutative(a, b):
    assert a + b == b + a


@given(expr_st, expr_st, expr_st)
def test_add_associative(a, b, c):
    assert (a + b) + c == a + (b + c)


@given(expr_st)
def test_sub_self_is_zero(a):
    assert (a - a) == AffineExpr(0)


@given(expr_st, binding_st)
def test_value_range_contains_all_evaluations(a, env):
    ranges = {sym: (-16, 16) for sym in SYMBOLS}
    lo, hi = a.value_range(ranges)
    assert lo <= a.evaluate(env) <= hi


@given(expr_st)
def test_value_range_tight_at_corners(a):
    """The bounds are achieved at some corner of the box."""
    ranges = {sym: (-4, 4) for sym in SYMBOLS}
    lo, hi = a.value_range(ranges)
    corners = [dict()]
    for sym in SYMBOLS:
        corners = [
            {**c, sym: v} for c in corners for v in (-4, 4)
        ]
    values = [a.evaluate(c) for c in corners]
    assert min(values) == lo
    assert max(values) == hi
