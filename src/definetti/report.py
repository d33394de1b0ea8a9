"""Shared report type for overlap computations.

Every overlap functional delta in this package feeds the same pair of
error bounds in the trace norm ||A-B||_1 = tr|A-B|: 2*sqrt(1-delta) in
general and 2*(1-delta) when the target representation appears with
multiplicity one.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import isqrt

_FLOAT_SLACK = 1e-12
_MIN_NORMAL = sys.float_info.min  # 2^-1022


# the most digits a message shows of an integer before it gives their count
_SHOWN_DIGITS = 40
_SHOWN_LIMIT = 10**_SHOWN_DIGITS


def _number(x, show=str) -> str:
    """show(x) for a message, unless x is an integer, or a Fraction with a
    side, of more than _SHOWN_DIGITS digits: such a number is named by its
    digit count, as str() of one past sys.get_int_max_str_digits() raises.
    """
    if isinstance(x, Fraction):
        if abs(x.numerator) < _SHOWN_LIMIT and x.denominator < _SHOWN_LIMIT:
            return show(x)
        return f"{_number(x.numerator)}/{_number(x.denominator)}"
    if not isinstance(x, int) or -_SHOWN_LIMIT < x < _SHOWN_LIMIT:
        return show(x)
    n = abs(x)
    # n has bit_length() * log10(2) digits, or one more
    digits = int(n.bit_length() * 0.30102999566398120)
    if n >= 10**digits:
        digits += 1
    return f"a {'negative ' if x < 0 else ''}{digits}-digit integer"


# a diagnostic echoes at most 40 characters of a token, so that it stays
# one short line: a longer str is cut to its first 32
def _shown(token) -> str:
    """repr(token), cut when it is a long str."""
    if not isinstance(token, str) or len(token) <= 40:
        return repr(token)
    return f"{token[:32]!r}... ({len(token)} characters)"


def _sqrt_float(num: int, den: int) -> float:
    """sqrt(num/den), correctly rounded, for integers num >= 0 and den > 0,
    with no gcd and one integer path at every scale.

    q = isqrt(num 4^s / den) keeps at least two bits below the float's
    last place, subnormal roots included, and its lowest bit is set when
    the root is not exactly q (a sticky bit), so the one rounding of q/2^s,
    a correctly rounded int division, is the rounding of the root.  A root
    past the float range raises OverflowError.
    """
    s = 55 - max((num.bit_length() - den.bit_length()) // 2, -1022)
    q2, rem = divmod(num << 2 * s, den) if s >= 0 else divmod(num, den << -2 * s)
    q = isqrt(q2)
    q |= bool(rem or q * q != q2)  # sticky bit: the root is not exactly q
    return q / (1 << s) if s >= 0 else float(q << -s)


class _Frozen:
    """Base of the package's small immutable value types.

    A subclass names its fields in __slots__ and builds by position or by
    name.  One that validates its fields does so in its own __init__ (the
    interned TwoJ in __new__) and then sets them with self._fill(...),
    through the slots' own setters, which the frozen __setattr__ does not
    block.  Its instances repr, equal, hash, pickle and copy by their
    fields in order, as a frozen dataclass does, and never equal an
    instance of another class.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls.__match_args__ = cls.__slots__
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def __init__(self, *values, **named) -> None:
        if named:
            values += tuple(named.pop(name) for name in self.__match_args__[len(values):] if name in named)
        if named or len(values) != len(self.__match_args__):
            raise TypeError(f"{self.__class__.__qualname__}() takes each field of {self.__match_args__} once")
        self._fill(*values)

    def _fill(self, *values) -> None:
        for set_field, value in zip(self._setters, values):
            set_field(self, value)

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._key()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


class DeltaReport(_Frozen):
    """An overlap value in [0, 1] plus the error bounds it implies.

    Construction validates delta and clamps a float delta within roundoff
    of [0, 1] into it; the bounds are derived from the stored delta each
    time they are read, so a report whose bounds nobody reads costs no
    square root.  delta and bound_linear stay exact rationals whenever the
    computation was exact; bound_sqrt is necessarily a float.
    """

    __slots__ = ("delta", "formula_id", "psi_label")

    def __init__(self, delta: Fraction | float, formula_id: str, psi_label: str) -> None:
        if isinstance(delta, float):
            # float path: forgive roundoff at the endpoints
            if not (-_FLOAT_SLACK <= delta <= 1 + _FLOAT_SLACK):
                raise ValueError(f"delta out of range: {delta!r}")
            delta = min(max(delta, 0.0), 1.0)
        else:
            if delta.__class__ is not Fraction:
                delta = Fraction(delta)
            # a Fraction's denominator is positive: 0 <= n/d <= 1 compares ints
            if not (0 <= delta.numerator <= delta.denominator):
                raise ValueError(f"delta out of range: {delta!r}")
        self._fill(delta, formula_id, psi_label)

    @property
    def bound_linear(self) -> Fraction | float:
        """2 (1 - delta), the bound when the target has multiplicity one."""
        return 2 * (1 - self.delta)

    @property
    def bound_sqrt(self) -> float:
        """2 sqrt(1 - delta), the general bound: the root of the exact value
        the stored delta holds, a float delta included, rounded once."""
        num, den = self.delta.as_integer_ratio()
        return 2.0 * _sqrt_float(den - num, den)

    @classmethod
    def from_delta(cls, delta, formula_id: str, psi_label: str) -> "DeltaReport":
        return cls(delta, formula_id, psi_label)
