"""Shared report type for overlap computations.

Every overlap functional delta in this package feeds the same pair of
trace-distance error bounds: 2*sqrt(1-delta) in general and 2*(1-delta)
when the target representation appears with multiplicity one.  Trace
distance here is normalized as (1/2)*tr|A-B|.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
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


@dataclass(frozen=True)
class DeltaReport:
    """An overlap value in [0, 1] plus the error bounds it implies.

    Construction validates delta and clamps a float delta within roundoff
    of [0, 1] into it; the bounds are derived from the stored delta each
    time they are read, so a report whose bounds nobody reads costs no
    square root.  delta and bound_linear stay exact rationals whenever the
    computation was exact; bound_sqrt is necessarily a float.
    """

    delta: Fraction | float
    formula_id: str
    psi_label: str

    def __post_init__(self) -> None:
        d = self.delta
        if isinstance(d, float):
            # float path: forgive roundoff at the endpoints
            if not (-_FLOAT_SLACK <= d <= 1 + _FLOAT_SLACK):
                raise ValueError(f"delta out of range: {d!r}")
            d = min(max(d, 0.0), 1.0)
        else:
            d = Fraction(d)
            if not (0 <= d <= 1):
                raise ValueError(f"delta out of range: {d!r}")
        object.__setattr__(self, "delta", d)

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
