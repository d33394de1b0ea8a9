"""Exact sums of scaled square roots.

Products and sums of coupling coefficients are finite sums
sum_f q_f * sqrt(f) over squarefree f.  This tiny ring is enough to add
such products exactly and to certify when a sum collapses to a rational
or to a single square root.  It is the one reader of `split_square`: an
ExactReal keeps only its sign and rational square, and `from_exact`
splits that square into coeff * sqrt(core).  No other module uses it:
`verify` checks row orthogonality on rational multiples of one product
instead.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, sqrt

from .exact import ExactReal, split_square


class RadicalSum:
    """A finite sum of terms q * sqrt(f), keyed by squarefree core f."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[int, Fraction] | None = None) -> None:
        self._terms = {f: q for f, q in (terms or {}).items() if q != 0}

    @classmethod
    def zero(cls) -> "RadicalSum":
        return cls()

    @classmethod
    def of(cls, q) -> "RadicalSum":
        return cls({1: Fraction(q)})

    @classmethod
    def sqrt(cls, q) -> "RadicalSum":
        return cls.from_exact(ExactReal.sqrt(q))

    @classmethod
    def coeff_sqrt(cls, coeff, radicand) -> "RadicalSum":
        return cls.sqrt(radicand) * Fraction(coeff)

    @classmethod
    def from_exact(cls, x: ExactReal) -> "RadicalSum":
        """x as sign * coeff * sqrt(core), core squarefree and coeff > 0.

        Raises ValueError where split_square gives up on a side of x's
        square: it factors the whole square, rational factors included.
        """
        if not x:
            return cls.zero()
        square = x.square()
        an, fn = split_square(square.numerator)
        ad, fd = split_square(square.denominator)
        # sqrt(p/q) = (an / (ad*fd)) * sqrt(fn*fd); p and q are coprime, so
        # fn and fd are too and the core stays squarefree
        return cls({fn * fd: x.sign * Fraction(an, ad * fd)})

    def is_zero(self) -> bool:
        return not self._terms

    def is_rational(self) -> bool:
        return all(f == 1 for f in self._terms)

    def as_fraction(self) -> Fraction:
        if not self._terms:
            return Fraction(0)
        if not self.is_rational():
            raise ValueError(f"not a rational value: {self!r}")
        return self._terms[1]

    def as_exact(self) -> ExactReal:
        """Collapse to a single exact square root; error if mixed cores."""
        if not self._terms:
            return ExactReal.zero()
        if len(self._terms) > 1:
            raise ValueError(f"sum does not collapse to one radical: {self!r}")
        ((f, q),) = self._terms.items()
        return ExactReal.from_square(1 if q > 0 else -1, q.numerator**2 * f, q.denominator**2)

    def value(self) -> float:
        return sum(float(q) * sqrt(f) for f, q in self._terms.items())

    def __float__(self) -> float:
        return self.value()

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __add__(self, other) -> "RadicalSum":
        if isinstance(other, (int, Fraction)):
            other = RadicalSum.of(other)
        if not isinstance(other, RadicalSum):
            return NotImplemented
        terms = dict(self._terms)
        for f, q in other._terms.items():
            terms[f] = terms.get(f, Fraction(0)) + q
        return RadicalSum(terms)

    __radd__ = __add__

    def __neg__(self) -> "RadicalSum":
        return RadicalSum({f: -q for f, q in self._terms.items()})

    def __sub__(self, other) -> "RadicalSum":
        return self + (-other if isinstance(other, RadicalSum) else RadicalSum.of(-Fraction(other)))

    def __mul__(self, other) -> "RadicalSum":
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return RadicalSum({f: c * q for f, c in self._terms.items()})
        if isinstance(other, ExactReal):
            other = RadicalSum.from_exact(other)
        if not isinstance(other, RadicalSum):
            return NotImplemented
        terms: dict[int, Fraction] = {}
        for f1, q1 in self._terms.items():
            for f2, q2 in other._terms.items():
                g = gcd(f1, f2)
                core = (f1 // g) * (f2 // g)
                q = q1 * q2 * g
                terms[core] = terms.get(core, Fraction(0)) + q
        return RadicalSum(terms)

    __rmul__ = __mul__

    def times_sqrt(self, q) -> "RadicalSum":
        """Multiply by sqrt(q) for a nonnegative rational q."""
        return self * ExactReal.sqrt(q)

    def sign(self) -> int:
        """Sign of a sum that is a single term (or zero)."""
        if not self._terms:
            return 0
        if len(self._terms) > 1:
            raise ValueError(f"sign of a mixed-core sum is not determined termwise: {self!r}")
        ((_, q),) = self._terms.items()
        return 1 if q > 0 else -1

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = RadicalSum.of(other)
        if isinstance(other, ExactReal):
            other = RadicalSum.from_exact(other)
        if not isinstance(other, RadicalSum):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        if not self._terms:
            return "RadicalSum(0)"
        bits = [f"{q}*sqrt({f})" if f != 1 else f"{q}" for f, q in sorted(self._terms.items())]
        return "RadicalSum(" + " + ".join(bits) + ")"


def dot(u: list[RadicalSum], v: list[RadicalSum]) -> RadicalSum:
    """Exact inner product of two real vectors of radical sums."""
    if len(u) != len(v):
        raise ValueError("length mismatch")
    acc = RadicalSum.zero()
    for a, b in zip(u, v):
        if a and b:
            acc = acc + a * b
    return acc
