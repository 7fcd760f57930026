"""Affine expressions over launch-time symbols.

At kernel-launch time the grid dimensions, block dimensions and all
kernel arguments are concrete (this is exactly why the paper performs
the analysis during JIT compilation rather than offline — Section
III-B).  The only quantities that remain symbolic are the thread index
within a block (``%tid``), the block index within the grid (``%ctaid``)
and loop iteration counters.  An :class:`AffineExpr` is an integer
linear combination of those symbols plus a constant::

    expr = const + sum(coeff[s] * s for s in terms)

Every symbol has a known iteration range (``tid.x`` in ``[0, ntid.x)``,
loop counter ``k`` in ``[0, trip_k)``), so an affine address expression
can be lowered exactly to a strided footprint per thread block.
"""

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True, order=True)
class Sym:
    """A symbolic dimension: ``kind`` is ``tid``/``ctaid``/``loop``.

    For ``tid``/``ctaid`` the ``name`` is the dimension letter; for
    loops it is a unique loop identifier assigned by the analyzer.
    """

    kind: str
    name: str

    def __str__(self):
        if self.kind == "loop":
            return "k{}".format(self.name)
        return "%{}.{}".format(self.kind, self.name)


def TID(dim):
    return Sym("tid", dim)


def CTAID(dim):
    return Sym("ctaid", dim)


def LOOP(loop_id):
    return Sym("loop", str(loop_id))


class AffineExpr:
    """An immutable integer-affine expression over :class:`Sym` terms."""

    __slots__ = ("const", "terms")

    def __init__(self, const=0, terms=None):
        self.const = int(const)
        clean = {}
        if terms:
            for sym, coeff in terms.items():
                coeff = int(coeff)
                if coeff != 0:
                    clean[sym] = coeff
        self.terms = clean

    # ------------------------------------------------------------------
    @classmethod
    def constant(cls, value):
        return cls(value)

    @classmethod
    def symbol(cls, sym, coeff=1):
        return cls(0, {sym: coeff})

    @property
    def is_constant(self):
        return not self.terms

    def constant_value(self):
        """Return the integer value of a constant expression.

        Raises :class:`ValueError` when symbolic terms remain.
        """
        if self.terms:
            raise ValueError("expression is not constant: %s" % self)
        return self.const

    def coefficient(self, sym):
        return self.terms.get(sym, 0)

    def symbols(self):
        return frozenset(self.terms)

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for sym, coeff in other.terms.items():
            terms[sym] = terms.get(sym, 0) + coeff
        return AffineExpr(self.const + other.const, terms)

    __radd__ = __add__

    def __neg__(self):
        return AffineExpr(-self.const, {s: -c for s, c in self.terms.items()})

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def scale(self, factor):
        factor = int(factor)
        return AffineExpr(
            self.const * factor, {s: c * factor for s, c in self.terms.items()}
        )

    def __mul__(self, other):
        """Multiplication is only affine when one side is constant."""
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if other.is_constant:
            return self.scale(other.const)
        if self.is_constant:
            return other.scale(self.const)
        raise NonAffineOperation("product of two symbolic expressions")

    __rmul__ = __mul__

    def evaluate(self, bindings):
        """Fully evaluate with integer bindings for every symbol."""
        value = self.const
        for sym, coeff in self.terms.items():
            value += coeff * int(bindings[sym])
        return value

    def value_range(self, ranges):
        """Inclusive ``(lo, hi)`` bounds given per-symbol inclusive ranges.

        ``ranges`` maps each symbol to ``(lo, hi)`` inclusive.  Raises
        :class:`KeyError` if a symbol has no range.
        """
        lo = hi = self.const
        for sym, coeff in self.terms.items():
            slo, shi = ranges[sym]
            if coeff >= 0:
                lo += coeff * slo
                hi += coeff * shi
            else:
                lo += coeff * shi
                hi += coeff * slo
        return lo, hi

    # ------------------------------------------------------------------
    def __eq__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self.const == other.const and self.terms == other.terms

    def __hash__(self):
        return hash((self.const, frozenset(self.terms.items())))

    def __repr__(self):
        if self.is_constant:
            return str(self.const)
        parts = []
        for sym in sorted(self.terms):
            coeff = self.terms[sym]
            if coeff == 1:
                parts.append(str(sym))
            else:
                parts.append("{}*{}".format(coeff, sym))
        if self.const:
            parts.append(str(self.const))
        return " + ".join(parts)


class NonAffineOperation(Exception):
    """Raised when an operation leaves the affine domain (e.g. the
    product of two symbolic expressions); callers fall back to the
    interval domain."""


def _coerce(value) -> Optional[AffineExpr]:
    if isinstance(value, AffineExpr):
        return value
    if isinstance(value, int):
        return AffineExpr(value)
    return None
