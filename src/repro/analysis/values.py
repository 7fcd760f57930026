"""Abstract value domain for the launch-time interpreter.

A register holds one of:

* :class:`~repro.analysis.affine.AffineExpr` — exact integer-affine
  function of ``tid``/``ctaid``/loop symbols (the common case for
  address computations in SIMT kernels);
* :class:`SInterval` — a sound strided range, used when an operation
  leaves the affine domain but bounds are still known (shifts, masks,
  divisions);
* :class:`Unknown` — no information.  The ``reason`` distinguishes
  values loaded from global memory (``memory`` — using one in an address
  reproduces Algorithm 1's "possible non-static dependency" bail-out),
  ordinary untracked arithmetic such as floating point (``arith``), and
  loop widening (``widen``).

:class:`ValueAlgebra` implements the transfer functions.  It carries the
per-symbol iteration ranges so affine values can be demoted to sound
intervals whenever a non-affine operation needs bounds.
"""

import math
from dataclasses import dataclass

from repro.analysis.affine import AffineExpr, NonAffineOperation


@dataclass(frozen=True)
class SInterval:
    """Inclusive strided integer range ``{lo, lo+stride, ..., <= hi}``."""

    lo: int
    hi: int
    stride: int = 1

    def __post_init__(self):
        if self.hi < self.lo:
            raise ValueError("empty SInterval [{}, {}]".format(self.lo, self.hi))
        if self.stride < 1:
            raise ValueError("stride must be >= 1")

    @property
    def is_singleton(self):
        return self.lo == self.hi

    def __str__(self):
        return "[{}..{}/{}]".format(self.lo, self.hi, self.stride)


@dataclass(frozen=True)
class Unknown:
    """Bottomless top element; ``reason`` in {memory, arith, widen}."""

    reason: str = "arith"

    def __str__(self):
        return "?{}".format(self.reason)


UNKNOWN_ARITH = Unknown("arith")
UNKNOWN_MEMORY = Unknown("memory")

_SHIFT_CAP = 64


def is_unknown(value):
    return isinstance(value, Unknown)


def taint_of(*values):
    """Combine Unknown reasons with 'memory' dominating (it triggers the
    conservative whole-kernel dependency of Algorithm 1)."""
    reason = None
    for value in values:
        if isinstance(value, Unknown):
            if value.reason == "memory":
                return UNKNOWN_MEMORY
            reason = value.reason
    return Unknown(reason) if reason else UNKNOWN_ARITH


class ValueAlgebra:
    """Transfer functions over the abstract value domain.

    ``symbol_ranges`` maps :class:`~repro.analysis.affine.Sym` to
    inclusive ``(lo, hi)`` pairs and is consulted whenever an affine
    value must be demoted to an interval.
    """

    def __init__(self, symbol_ranges=None):
        self.symbol_ranges = dict(symbol_ranges or {})

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------
    def to_interval(self, value):
        """Demote any abstract value to an :class:`SInterval` or Unknown."""
        if isinstance(value, SInterval):
            return value
        if isinstance(value, AffineExpr):
            if value.is_constant:
                return SInterval(value.const, value.const)
            try:
                lo, hi = value.value_range(self.symbol_ranges)
            except KeyError:
                return UNKNOWN_ARITH
            stride = 0
            for coeff in value.terms.values():
                stride = math.gcd(stride, abs(coeff))
            return SInterval(lo, hi, max(1, stride))
        return taint_of(value)

    def constant_of(self, value):
        """Integer value if the abstract value is a known constant."""
        if isinstance(value, AffineExpr) and value.is_constant:
            return value.const
        if isinstance(value, SInterval) and value.is_singleton:
            return value.lo
        return None

    # ------------------------------------------------------------------
    # arithmetic transfer functions
    # ------------------------------------------------------------------
    def add(self, a, b):
        if is_unknown(a) or is_unknown(b):
            return taint_of(a, b)
        if isinstance(a, AffineExpr) and isinstance(b, AffineExpr):
            return a + b
        ia, ib = self.to_interval(a), self.to_interval(b)
        if is_unknown(ia) or is_unknown(ib):
            return taint_of(ia, ib)
        return SInterval(
            ia.lo + ib.lo, ia.hi + ib.hi, math.gcd(ia.stride, ib.stride)
        )

    def sub(self, a, b):
        if is_unknown(a) or is_unknown(b):
            return taint_of(a, b)
        if isinstance(a, AffineExpr) and isinstance(b, AffineExpr):
            return a - b
        ia, ib = self.to_interval(a), self.to_interval(b)
        if is_unknown(ia) or is_unknown(ib):
            return taint_of(ia, ib)
        return SInterval(
            ia.lo - ib.hi, ia.hi - ib.lo, math.gcd(ia.stride, ib.stride)
        )

    def neg(self, a):
        return self.sub(AffineExpr(0), a)

    def mul(self, a, b):
        if is_unknown(a) or is_unknown(b):
            return taint_of(a, b)
        if isinstance(a, AffineExpr) and isinstance(b, AffineExpr):
            try:
                return a * b
            except NonAffineOperation:
                pass
        ia, ib = self.to_interval(a), self.to_interval(b)
        if is_unknown(ia) or is_unknown(ib):
            return taint_of(ia, ib)
        corners = [
            ia.lo * ib.lo, ia.lo * ib.hi, ia.hi * ib.lo, ia.hi * ib.hi
        ]
        stride = 1
        if ia.is_singleton:
            stride = max(1, abs(ia.lo) * ib.stride)
        elif ib.is_singleton:
            stride = max(1, abs(ib.lo) * ia.stride)
        return SInterval(min(corners), max(corners), stride)

    def mad(self, a, b, c):
        return self.add(self.mul(a, b), c)

    def shl(self, a, b):
        amount = self.constant_of(b)
        if amount is not None and 0 <= amount <= _SHIFT_CAP:
            return self.mul(a, AffineExpr(1 << amount))
        return taint_of(a, b)

    def shr(self, a, b):
        amount = self.constant_of(b)
        if amount is None or not (0 <= amount <= _SHIFT_CAP):
            return taint_of(a, b)
        ia = self.to_interval(a)
        if is_unknown(ia):
            return taint_of(ia)
        if ia.lo < 0:
            return UNKNOWN_ARITH
        stride = ia.stride >> amount if ia.stride % (1 << amount) == 0 else 1
        return SInterval(ia.lo >> amount, ia.hi >> amount, max(1, stride))

    def div(self, a, b):
        divisor = self.constant_of(b)
        if divisor is None or divisor == 0:
            return taint_of(a, b)
        ia = self.to_interval(a)
        if is_unknown(ia):
            return taint_of(ia)
        if ia.lo < 0 or divisor < 0:
            return UNKNOWN_ARITH
        return SInterval(ia.lo // divisor, ia.hi // divisor, 1)

    def rem(self, a, b):
        divisor = self.constant_of(b)
        if divisor is None or divisor <= 0:
            return taint_of(a, b)
        ia = self.to_interval(a)
        if is_unknown(ia):
            return taint_of(ia)
        if ia.lo >= 0 and ia.hi < divisor:
            # the range already fits under the modulus: identity
            if isinstance(a, AffineExpr):
                return a
            return ia
        return SInterval(0, divisor - 1, 1)

    def and_(self, a, b):
        mask = self.constant_of(b)
        if mask is None:
            mask = self.constant_of(a)
            a = b
        if mask is None or mask < 0:
            return taint_of(a, b)
        ia = self.to_interval(a)
        if is_unknown(ia):
            return taint_of(ia)
        if ia.lo >= 0 and (mask & (mask + 1)) == 0:
            # power-of-two-minus-one mask: a true modulus
            if ia.hi <= mask:
                return a if isinstance(a, AffineExpr) else ia
            return SInterval(0, mask, 1)
        if ia.lo >= 0:
            return SInterval(0, min(ia.hi, mask), 1)
        return UNKNOWN_ARITH

    def or_(self, a, b):
        zero = self.constant_of(b)
        if zero == 0:
            return a
        zero = self.constant_of(a)
        if zero == 0:
            return b
        ia, ib = self.to_interval(a), self.to_interval(b)
        if is_unknown(ia) or is_unknown(ib):
            return taint_of(ia, ib)
        if ia.lo >= 0 and ib.lo >= 0:
            hi_bits = max(ia.hi, ib.hi).bit_length()
            return SInterval(max(ia.lo, ib.lo), (1 << hi_bits) - 1, 1)
        return UNKNOWN_ARITH

    def xor(self, a, b):
        ia, ib = self.to_interval(a), self.to_interval(b)
        if is_unknown(ia) or is_unknown(ib):
            return taint_of(ia, ib)
        if ia.lo >= 0 and ib.lo >= 0:
            hi_bits = max(ia.hi, ib.hi).bit_length()
            return SInterval(0, (1 << hi_bits) - 1, 1)
        return UNKNOWN_ARITH

    def min_(self, a, b):
        ca, cb = self.constant_of(a), self.constant_of(b)
        if ca is not None and cb is not None:
            return AffineExpr(min(ca, cb))
        ia, ib = self.to_interval(a), self.to_interval(b)
        if is_unknown(ia) or is_unknown(ib):
            return taint_of(ia, ib)
        return SInterval(min(ia.lo, ib.lo), min(ia.hi, ib.hi), 1)

    def max_(self, a, b):
        ca, cb = self.constant_of(a), self.constant_of(b)
        if ca is not None and cb is not None:
            return AffineExpr(max(ca, cb))
        ia, ib = self.to_interval(a), self.to_interval(b)
        if is_unknown(ia) or is_unknown(ib):
            return taint_of(ia, ib)
        return SInterval(max(ia.lo, ib.lo), max(ia.hi, ib.hi), 1)

    def join(self, a, b):
        """Lattice join at control-flow merges."""
        if isinstance(a, AffineExpr) and isinstance(b, AffineExpr) and a == b:
            return a
        if is_unknown(a) or is_unknown(b):
            return taint_of(a, b)
        ia, ib = self.to_interval(a), self.to_interval(b)
        if is_unknown(ia) or is_unknown(ib):
            return taint_of(ia, ib)
        return SInterval(
            min(ia.lo, ib.lo),
            max(ia.hi, ib.hi),
            max(1, math.gcd(ia.stride, ib.stride)),
        )
