"""Shared report type for overlap computations.

Every overlap functional delta in this package feeds the same pair of
trace-distance error bounds: 2*sqrt(1-delta) in general and 2*(1-delta)
when the target representation appears with multiplicity one.  Trace
distance here is normalized as (1/2)*tr|A-B|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

_FLOAT_SLACK = 1e-12


@dataclass(frozen=True)
class DeltaReport:
    """An overlap value in [0, 1] plus the error bounds it implies.

    The bounds are derived from delta on construction.  delta and
    bound_linear stay exact rationals whenever the computation was exact;
    bound_sqrt is necessarily a float.  A float delta within roundoff of
    [0, 1] is clamped into it.
    """

    delta: Fraction | float
    formula_id: str
    psi_label: str
    bound_sqrt: float = field(init=False)
    bound_linear: Fraction | float = field(init=False)

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
        object.__setattr__(self, "bound_linear", 2 * (1 - d))
        object.__setattr__(self, "bound_sqrt", 2.0 * math.sqrt(float(1 - d)))

    @classmethod
    def from_delta(cls, delta, formula_id: str, psi_label: str) -> "DeltaReport":
        return cls(delta, formula_id, psi_label)
