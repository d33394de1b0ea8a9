"""Exact SU(2) coupling coefficients and the weight-window overlap.

Angular momenta are carried as doubled integers so half-integers stay
exact.  Coefficients use the standard single-sum closed form in the
Condon-Shortley phase convention: the rational sum S and the rational
prefactor R combine into the exact value S * sqrt(R).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .exact import ExactReal
from .report import DeltaReport

__all__ = ["TwoJ", "as_twoj", "cg", "delta_su2"]

_fact = lru_cache(maxsize=None)(factorial)


@dataclass(frozen=True, order=True)
class TwoJ:
    """An angular momentum stored as twice its value."""

    doubled: int

    def __post_init__(self) -> None:
        if not isinstance(self.doubled, int) or isinstance(self.doubled, bool):
            raise TypeError(f"doubled value must be an integer, got {self.doubled!r}")

    @property
    def value(self) -> Fraction:
        return Fraction(self.doubled, 2)

    def __add__(self, other: "TwoJ") -> "TwoJ":
        return TwoJ(self.doubled + other.doubled)

    def __sub__(self, other: "TwoJ") -> "TwoJ":
        return TwoJ(self.doubled - other.doubled)

    def __neg__(self) -> "TwoJ":
        return TwoJ(-self.doubled)

    def __str__(self) -> str:
        if self.doubled % 2 == 0:
            return str(self.doubled // 2)
        return f"{self.doubled}/2"


def as_twoj(x) -> TwoJ:
    """Coerce an int, half-integral Fraction/float, or string to TwoJ."""
    if isinstance(x, TwoJ):
        return x
    if isinstance(x, bool):
        raise TypeError("booleans are not angular momenta")
    if isinstance(x, int):
        return TwoJ(2 * x)
    if isinstance(x, str):
        x = Fraction(x)
    if isinstance(x, (Fraction, float)):
        doubled = Fraction(x) * 2
        if doubled.denominator != 1:
            raise ValueError(f"{x!r} is not a half-integer")
        return TwoJ(int(doubled))
    raise TypeError(f"cannot interpret {x!r} as an angular momentum")


def _check_jm(tj: int, tm: int, label: str) -> None:
    if tj < 0:
        raise ValueError(f"{label}: negative angular momentum {tj}/2")
    if (tj - tm) % 2:
        raise ValueError(f"{label}: j={tj}/2 and m={tm}/2 differ by a non-integer")
    if abs(tm) > tj:
        raise ValueError(f"{label}: |m|={abs(tm)}/2 exceeds j={tj}/2")


def _check_triple(tj1: int, tj2: int, tj: int) -> None:
    for t, label in ((tj1, "j1"), (tj2, "j2"), (tj, "j")):
        if t < 0:
            raise ValueError(f"{label}: negative angular momentum {t}/2")
    if (tj1 + tj2 + tj) % 2:
        raise ValueError(f"j1+j2+j = {tj1 + tj2 + tj}/2 is not an integer")
    if not abs(tj1 - tj2) <= tj <= tj1 + tj2:
        raise ValueError(
            f"triangle violation: j={tj}/2 outside [{abs(tj1 - tj2)}/2, {(tj1 + tj2)}/2]"
        )


def _racah_parts(tj1: int, tm1: int, tj2: int, tm2: int, tj: int, tm: int):
    """Rational sum S and rational prefactor R with coefficient = S*sqrt(R)."""
    pre = Fraction(
        (tj + 1)
        * _fact((tj1 + tj2 - tj) // 2)
        * _fact((tj1 - tj2 + tj) // 2)
        * _fact((-tj1 + tj2 + tj) // 2),
        _fact((tj1 + tj2 + tj) // 2 + 1),
    )
    pre *= (
        _fact((tj1 + tm1) // 2)
        * _fact((tj1 - tm1) // 2)
        * _fact((tj2 + tm2) // 2)
        * _fact((tj2 - tm2) // 2)
        * _fact((tj + tm) // 2)
        * _fact((tj - tm) // 2)
    )
    t_lo = max(0, (tj2 - tj - tm1) // 2, (tj1 + tm2 - tj) // 2)
    t_hi = min((tj1 + tj2 - tj) // 2, (tj1 - tm1) // 2, (tj2 + tm2) // 2)
    s = Fraction(0)
    for t in range(t_lo, t_hi + 1):
        den = (
            _fact(t)
            * _fact((tj1 + tj2 - tj) // 2 - t)
            * _fact((tj1 - tm1) // 2 - t)
            * _fact((tj2 + tm2) // 2 - t)
            * _fact((tj - tj2 + tm1) // 2 + t)
            * _fact((tj - tj1 - tm2) // 2 + t)
        )
        s += Fraction(-1 if t % 2 else 1, den)
    return s, pre


def cg(j1, m1, j2, m2, j, m) -> ExactReal:
    """Exact coupling coefficient <j m | j1 m1 j2 m2>.

    Raises on malformed inputs (negative j, parity mismatch, out-of-range
    m1/m2, triangle violation).  Returns exact zero when the selection
    rules m = m1 + m2 and |m| <= j fail.
    """
    tj1, tm1 = as_twoj(j1).doubled, as_twoj(m1).doubled
    tj2, tm2 = as_twoj(j2).doubled, as_twoj(m2).doubled
    tj, tm = as_twoj(j).doubled, as_twoj(m).doubled
    _check_jm(tj1, tm1, "(j1, m1)")
    _check_jm(tj2, tm2, "(j2, m2)")
    _check_triple(tj1, tj2, tj)
    if (tj - tm) % 2:
        raise ValueError(f"(j, m): j={tj}/2 and m={tm}/2 differ by a non-integer")
    if tm != tm1 + tm2 or abs(tm) > tj:
        return ExactReal.zero()
    s, pre = _racah_parts(tj1, tm1, tj2, tm2, tj, tm)
    return ExactReal.of(s) * ExactReal.sqrt(pre)


def delta_su2(j1, j2, j, m2, r: int, direction: str = "down") -> DeltaReport:
    """Overlap of the coupled block R_j against a height-r weight window.

    For the state |j2 m2> paired against R_j1, sums (2j2+1)/(2j+1) times
    |<j (m1+m2) | j1 m1 j2 m2>|^2 over the r+1 extremal m1 values:
    m1 = j1, j1-1, ..., j1-r for direction="down", and m1 = -j1, ...,
    -j1+r for direction="up".  Out-of-range terms contribute zero.
    """
    tj1 = as_twoj(j1).doubled
    tj2, tm2 = as_twoj(j2).doubled, as_twoj(m2).doubled
    tj = as_twoj(j).doubled
    _check_jm(tj2, tm2, "(j2, m2)")
    _check_triple(tj1, tj2, tj)
    if not isinstance(r, int) or r < 0:
        raise ValueError(f"need an integer radius r >= 0, got {r!r}")
    if direction not in ("down", "up"):
        raise ValueError(f"direction must be 'down' or 'up', got {direction!r}")
    total = Fraction(0)
    for i in range(r + 1):
        tm1 = tj1 - 2 * i if direction == "down" else -tj1 + 2 * i
        if abs(tm1) > tj1:
            continue
        tm = tm1 + tm2
        if abs(tm) > tj:
            continue
        # |coefficient|^2 = S^2 * R stays rational; bypassing the radical
        # split keeps large-j window sums cheap
        s, pre = _racah_parts(tj1, tm1, tj2, tm2, tj, tm)
        total += s * s * pre
    delta = Fraction(tj2 + 1, tj + 1) * total
    return DeltaReport.from_delta(
        delta,
        formula_id=f"su2-cg-window/{direction}",
        psi_label=f"|j2 m2> = |{TwoJ(tj2)} {TwoJ(tm2)}>",
    )
