"""Unit tests for the affine expression domain."""

import pytest

from repro.analysis.affine import (
    AffineExpr,
    CTAID,
    LOOP,
    NonAffineOperation,
    TID,
)


class TestConstruction:
    def test_constant(self):
        e = AffineExpr(5)
        assert e.is_constant
        assert e.constant_value() == 5

    def test_symbol(self):
        e = AffineExpr.symbol(TID("x"))
        assert not e.is_constant
        assert e.coefficient(TID("x")) == 1

    def test_zero_coefficients_dropped(self):
        e = AffineExpr(1, {TID("x"): 0})
        assert e.is_constant

    def test_constant_value_raises_when_symbolic(self):
        with pytest.raises(ValueError):
            AffineExpr.symbol(TID("x")).constant_value()


class TestArithmetic:
    def test_add(self):
        e = AffineExpr.symbol(TID("x")) + AffineExpr.symbol(TID("x")) + 3
        assert e.coefficient(TID("x")) == 2
        assert e.const == 3

    def test_add_int(self):
        e = 5 + AffineExpr.symbol(CTAID("x"))
        assert e.const == 5

    def test_sub_cancels(self):
        x = AffineExpr.symbol(TID("x"))
        assert (x - x).is_constant

    def test_rsub(self):
        e = 10 - AffineExpr.symbol(TID("x"))
        assert e.coefficient(TID("x")) == -1
        assert e.const == 10

    def test_neg(self):
        e = -(AffineExpr.symbol(TID("x"), 3) + 2)
        assert e.coefficient(TID("x")) == -3
        assert e.const == -2

    def test_scale(self):
        e = (AffineExpr.symbol(TID("x")) + 1).scale(4)
        assert e.coefficient(TID("x")) == 4
        assert e.const == 4

    def test_mul_by_constant_expr(self):
        e = AffineExpr.symbol(TID("x")) * AffineExpr(4)
        assert e.coefficient(TID("x")) == 4

    def test_mul_symbolic_raises(self):
        x = AffineExpr.symbol(TID("x"))
        with pytest.raises(NonAffineOperation):
            x * x

    def test_mul_int(self):
        e = AffineExpr.symbol(TID("x")) * 3
        assert e.coefficient(TID("x")) == 3


class TestEvaluation:
    def test_evaluate(self):
        e = AffineExpr(10, {TID("x"): 2, CTAID("x"): 256})
        assert e.evaluate({TID("x"): 3, CTAID("x"): 1}) == 10 + 6 + 256

    def test_evaluate_missing_binding_raises(self):
        e = AffineExpr.symbol(TID("x"))
        with pytest.raises(KeyError):
            e.evaluate({})

    def test_value_range_positive_coeff(self):
        e = AffineExpr(100, {TID("x"): 4})
        assert e.value_range({TID("x"): (0, 63)}) == (100, 100 + 4 * 63)

    def test_value_range_negative_coeff(self):
        e = AffineExpr(0, {TID("x"): -4})
        assert e.value_range({TID("x"): (0, 63)}) == (-252, 0)

    def test_value_range_mixed(self):
        e = AffineExpr(0, {TID("x"): 1, TID("y"): -1})
        lo, hi = e.value_range({TID("x"): (0, 3), TID("y"): (0, 3)})
        assert (lo, hi) == (-3, 3)

    def test_value_range_missing_symbol_raises(self):
        with pytest.raises(KeyError):
            AffineExpr.symbol(TID("x")).value_range({})


class TestEqualityRepr:
    def test_equality(self):
        a = AffineExpr(1, {TID("x"): 2})
        b = AffineExpr(0, {TID("x"): 2}) + 1
        assert a == b
        assert hash(a) == hash(b)

    def test_equality_with_int(self):
        assert AffineExpr(7) == 7

    def test_repr_constant(self):
        assert repr(AffineExpr(42)) == "42"

    def test_repr_symbolic(self):
        text = repr(AffineExpr(1, {TID("x"): 2}))
        assert "%tid.x" in text and "2" in text

    def test_symbols(self):
        e = AffineExpr(0, {TID("x"): 1, LOOP(3): 2})
        assert e.symbols() == frozenset({TID("x"), LOOP(3)})
