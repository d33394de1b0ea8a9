"""Shared report type for overlap computations.

Every overlap functional delta in this package feeds the same pair of
trace-distance error bounds: 2*sqrt(1-delta) in general and 2*(1-delta)
when the target representation appears with multiplicity one.  Trace
distance here is normalized as (1/2)*tr|A-B|.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

_FLOAT_SLACK = 1e-12
_MIN_NORMAL = sys.float_info.min  # 2^-1022


def _sqrt_float(q: Fraction) -> float:
    """sqrt(q) as a float for a rational q >= 0, rounded only at the end.

    float(q) loses precision below 2^-1022 and is 0 below 2^-1074,
    although sqrt(q) may still be a normal float, so there the root is
    taken of q 4^m, which lies near 1, and 2^-m is put back.
    """
    f = float(q)
    if f >= _MIN_NORMAL or not q:
        return math.sqrt(f)
    m = (q.denominator.bit_length() - q.numerator.bit_length()) // 2
    return math.ldexp(math.sqrt(float(q * 4**m)), -m)


class _Frozen:
    """Base of the package's small immutable value types.

    A subclass names its fields in __slots__ and sets them in __init__,
    after validating them, with object.__setattr__.  Its instances then
    repr, equal, hash and pickle by their fields in order, as a frozen
    dataclass does, and never equal an instance of another class.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls.__match_args__ = cls.__slots__

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
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "formula_id", formula_id)
        object.__setattr__(self, "psi_label", psi_label)

    @property
    def bound_linear(self) -> Fraction | float:
        """2 (1 - delta), the bound when the target has multiplicity one."""
        return 2 * (1 - self.delta)

    @property
    def bound_sqrt(self) -> float:
        """2 sqrt(1 - delta), the general bound."""
        d = self.delta
        return 2.0 * (math.sqrt(1 - d) if isinstance(d, float) else _sqrt_float(1 - d))

    @classmethod
    def from_delta(cls, delta, formula_id: str, psi_label: str) -> "DeltaReport":
        return cls(delta, formula_id, psi_label)
