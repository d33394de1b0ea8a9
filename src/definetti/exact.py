"""Exact real scalars of the form sign * sqrt(p/q).

Coupling coefficients are square roots of rationals.  Keeping them as
(sign, radicand) pairs instead of floats lets overlap sums come out as
exact fractions, which the verification suites compare literally.

An ExactReal stores its sign and its radicand num/den in lowest terms.
That triple is already a canonical form, so a constructor validates and
reduces by at most one gcd (`_reduced(sign, num, den)`, or the lowest
terms of a Fraction it was given), and equality, hashing, products,
squares and repr work on the triple without factoring anything.  The
closed-form and ladder coupling coefficients, whose integer parts are
valid by construction, reduce them by their one gcd themselves and store
the triple with `_raw`; `from_square` does the same for parts that still
need validating.  `split_square` serves `radicals.RadicalSum`, which keys
its terms by squarefree core.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

from .report import _number, _sqrt_float

# split_square gives up once its trial divisor passes this bound while the
# unfactored part is still at least its square: that part then has no
# prime factor below 2**20 and is neither a prime below 2**40 nor a
# square.  Factorial-smooth integers, all the package produces, have every
# prime factor far below it (at most 2j + 1 for the coupling coefficients).
TRIAL_DIVISOR_BOUND = 1 << 20


def split_square(n: int) -> tuple[int, int]:
    """Factor n = a*a*f with f squarefree; returns (a, f).

    Trial division, which stops as soon as the unfactored part is 1, a
    prime or a square.  So it is fast for the smooth integers produced by
    factorial ratios, and for any n whose unfactored part ends up a
    square.  It raises ValueError once the trial divisor passes
    TRIAL_DIVISOR_BOUND (2**20) with the unfactored part still at least
    its square, rather than run for minutes on an integer with two large
    prime factors.
    """
    if n <= 0:
        raise ValueError(f"split_square needs a positive integer, got {n}")
    r = isqrt(n)
    if r * r == n:
        return r, 1
    a, f = 1, 1
    m = n
    p = 2
    while p * p <= m:
        if p > TRIAL_DIVISOR_BOUND:
            raise ValueError(
                f"split_square: a {m.bit_length()}-bit part of a {n.bit_length()}-bit "
                f"integer has no prime factor up to {TRIAL_DIVISOR_BOUND} and is not a square"
            )
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            a *= p ** (e // 2)
            if e % 2:
                f *= p
            r = isqrt(m)
            if r * r == m:
                # remaining part is a perfect square, done
                a *= r
                m = 1
                break
        p += 1 if p == 2 else 2
    # leftover m is 1 or prime
    return a, f * m


_new = object.__new__


class ExactReal:
    """An exact real sign * sqrt(radicand), radicand a nonnegative rational.

    Stored as (sign, num, den) with num/den the radicand in lowest terms
    (0, 0, 1 for zero); nothing about it is ever factored.  repr shows
    sign * sqrt(num/den), /den left out when den is 1, and names a side of
    more than 40 digits by its digit count.
    """

    __slots__ = ("_sign", "_num", "_den")

    def __init__(self, sign: int, radicand) -> None:
        radicand = Fraction(radicand)
        self._sign, self._num, self._den = _reduced(
            sign, radicand.numerator, radicand.denominator
        )

    @staticmethod
    def _raw(sign: int, num: int, den: int) -> "ExactReal":
        """The stored triple as given: the caller has reduced num/den to
        lowest terms and matched the sign to it (0, 0, 1 for zero).  A
        static method, because a classmethod binds a method object on each
        call, and the coupling coefficients make one per entry."""
        self = _new(ExactReal)
        self._sign = sign
        self._num = num
        self._den = den
        return self

    @classmethod
    def from_square(cls, sign: int, num: int, den: int) -> "ExactReal":
        """sign * sqrt(num/den) for integers num >= 0 and den > 0.

        The value with this sign whose square() is num/den; num and den
        need not be coprime, one gcd reduces them.  The radicand is never
        built as a Fraction and nothing is factored.
        """
        return cls._raw(*_reduced(sign, num, den))

    @classmethod
    def zero(cls) -> "ExactReal":
        return cls._raw(0, 0, 1)

    @classmethod
    def of(cls, q) -> "ExactReal":
        """The rational q as an exact real."""
        q = Fraction(q)
        if q == 0:
            return cls.zero()
        return cls._raw(1 if q > 0 else -1, q.numerator**2, q.denominator**2)

    @classmethod
    def sqrt(cls, q) -> "ExactReal":
        """The principal square root of a nonnegative rational."""
        q = Fraction(q)
        if q < 0:
            raise ValueError("square root of a negative rational")
        return cls.from_square(1 if q else 0, q.numerator, q.denominator)

    @property
    def sign(self) -> int:
        return self._sign

    def square(self) -> Fraction:
        """The rational whose square root this is, in lowest terms."""
        return Fraction(self._num, self._den)

    def value(self) -> float:
        return self._sign * _sqrt_float(self._num, self._den)

    def __float__(self) -> float:
        return self.value()

    def __bool__(self) -> bool:
        return self._sign != 0

    def __neg__(self) -> "ExactReal":
        return ExactReal._raw(-self._sign, self._num, self._den)

    def __mul__(self, other) -> "ExactReal":
        if isinstance(other, (int, Fraction)):
            other = ExactReal.of(other)
        if not isinstance(other, ExactReal):
            return NotImplemented
        if self._sign == 0 or other._sign == 0:
            return ExactReal.zero()
        # both radicands are in lowest terms, so cross-cancelling keeps
        # the product in lowest terms too
        g1 = gcd(self._num, other._den)
        g2 = gcd(other._num, self._den)
        return ExactReal._raw(
            self._sign * other._sign,
            (self._num // g1) * (other._num // g2),
            (self._den // g2) * (other._den // g1),
        )

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if other.__class__ is not ExactReal:
            if isinstance(other, (int, Fraction)):
                other = ExactReal.of(other)
            elif not isinstance(other, ExactReal):
                return NotImplemented
        return (
            self._sign == other._sign
            and self._num == other._num
            and self._den == other._den
        )

    def __ne__(self, other) -> bool:
        # direct: the inherited __ne__ calls __eq__ and negates it, which
        # costs the per-entry table comparisons two thirds more than ==
        if other.__class__ is ExactReal:
            return self._sign != other._sign or self._num != other._num or self._den != other._den
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __hash__(self) -> int:
        return hash((self._sign, self._num, self._den))

    def __repr__(self) -> str:
        if self._sign == 0:
            return "ExactReal(0)"
        s = "-" if self._sign < 0 else ""
        return f"ExactReal({s}sqrt({_number(self.square())}))"


def _reduced(sign: int, num: int, den: int) -> tuple[int, int, int]:
    """The stored (sign, num, den) of sign * sqrt(num/den): validated, and
    num/den reduced by its gcd (the constructor and `from_square`)."""
    if num < 0 or den <= 0:
        raise ValueError(f"radicand must be nonnegative, got {_number(num)}/{_number(den)}")
    if sign not in (-1, 0, 1):
        raise ValueError(f"sign must be -1, 0 or +1, got {_number(sign, repr)}")
    if (sign == 0) != (num == 0):
        raise ValueError("sign is 0 exactly when the radicand is 0")
    if sign == 0:
        return 0, 0, 1
    g = gcd(num, den)
    if g != 1:
        num, den = num // g, den // g
    return sign, num, den
