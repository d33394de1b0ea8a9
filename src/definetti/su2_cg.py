"""Exact SU(2) coupling coefficients and the weight-window overlap.

Angular momenta are carried as doubled integers so half-integers stay
exact.  Coefficients use the standard single-sum closed form in the
Condon-Shortley phase convention: the rational sum S and the rational
prefactor R combine into the exact value S * sqrt(R).

`_racah_parts` is the one evaluation of S and R, in the binomial form of
the sum: regrouped by a! b1! b2! (a = j1+j2-j, b1 = j1-j2+j,
b2 = -j1+j2+j) the alternating sum is an integer sum of products of
three binomials, and R's six m-dependent factorials are the inverse of
a product of three more, so no factorial is ever built and the operands
stay near the size of the result.  `_triangle` gives the rest of R, its
triangle part, which depends on (j1, j2, j) alone.  `_cg_doubled`, `cg`
after its argument checks, reduces the integer parts of S^2 R by one gcd
into an `ExactReal` with the sign of S, and factors nothing.  A window
sum adds the m-dependent part over one (j1, j2, j) column and multiplies
the triangle part in once.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, isfinite

from .exact import ExactReal
from .report import DeltaReport, _Frozen, _number, _shown

__all__ = ["TwoJ", "as_twoj", "cg", "delta_su2"]

# unused by the package; kept because perfbench/tracer.py reads its cache_info()
_fact = lru_cache(maxsize=None)(factorial)

# bound once for _cg_doubled: the attribute lookup cost a few percent of a
# small coefficient
_raw = ExactReal._raw


# TwoJ(d) for a plain int |d| <= TWOJ_INTERN_BOUND is one shared instance,
# made on first use, so importing builds none.  The bound is past every 2j
# and 2m the coupling tables and the command-line guards admit (at most
# 4000); values beyond it are built fresh and not kept.
TWOJ_INTERN_BOUND = 4096
_interned: dict[int, "TwoJ"] = {}


class TwoJ(_Frozen):
    """An angular momentum stored as twice its value.

    A validated tag with no arithmetic: it equals and hashes as the tuple
    (doubled,) of its field and never equals a plain number: TwoJ(3) != 3.
    Instances of plain ints within TWOJ_INTERN_BOUND are interned, so
    TwoJ(3) is TwoJ(3); int subclasses and larger values are not.
    """

    __slots__ = ("doubled",)
    __init__ = object.__init__  # __new__ fills the field: an interned TwoJ runs no Python __init__

    def __new__(cls, doubled: int) -> "TwoJ":
        # only a plain int can find or enter the table: True == 1 and
        # 2.0 == 2 would find TwoJ(1) and TwoJ(2)
        plain = doubled.__class__ is int and cls is TwoJ
        if plain:
            try:
                return _interned[doubled]
            except KeyError:
                pass
        elif not isinstance(doubled, int) or isinstance(doubled, bool):
            raise TypeError(f"doubled value must be an integer, got {doubled!r}")
        self = object.__new__(cls)
        self._fill(doubled)
        if plain and -TWOJ_INTERN_BOUND <= doubled <= TWOJ_INTERN_BOUND:
            _interned[doubled] = self
        return self

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
    if isinstance(x, (str, Fraction, float)):
        if isinstance(x, float) and not isfinite(x):
            # Fraction() would raise OverflowError for inf and name no value for nan
            raise ValueError(f"{x} is not a half-integer")
        doubled = Fraction(x) * 2
        if doubled.denominator != 1:
            # the value as it was given, not its Fraction repr
            raise ValueError(f"{_number(x)} is not a half-integer")
        return TwoJ(int(doubled))
    raise TypeError(f"cannot interpret {x!r} as an angular momentum")


def _check_jm(tj: int, tm: int, label: str) -> None:
    if tj < 0:
        raise ValueError(f"{label}: negative angular momentum {_number(tj)}/2")
    if (tj - tm) % 2:
        raise ValueError(f"{label}: j={_number(tj)}/2 and m={_number(tm)}/2 differ by a non-integer")
    if abs(tm) > tj:
        raise ValueError(f"{label}: |m|={_number(abs(tm))}/2 exceeds j={_number(tj)}/2")


def _check_triple(tj1: int, tj2: int, tj: int) -> None:
    for t, label in ((tj1, "j1"), (tj2, "j2"), (tj, "j")):
        if t < 0:
            raise ValueError(f"{label}: negative angular momentum {_number(t)}/2")
    if (tj1 + tj2 + tj) % 2:
        raise ValueError(f"j1+j2+j = {_number(tj1 + tj2 + tj)}/2 is not an integer")
    if not abs(tj1 - tj2) <= tj <= tj1 + tj2:
        raise ValueError(
            f"triangle violation: j={_number(tj)}/2 outside "
            f"[{_number(abs(tj1 - tj2))}/2, {_number(tj1 + tj2)}/2]"
        )


# a coupling table's entries cycle through all its j values, at most
# CG_TABLE_GUARD + 1 = 25 in oracle, for every m
@lru_cache(maxsize=32)
def _triangle(tj1: int, tj2: int, tj: int):
    """Integers (t_num, t_den) of the triangle part of the prefactor R,
    C(2j1, a) C(2j2, a) / C(j1+j2+j+1, a) with a = j1+j2-j.  It is the
    usual (2j+1) a! b1! b2! / (j1+j2+j+1)! (b1 = j1-j2+j, b2 = -j1+j2+j)
    times (2j1)! (2j2)! (2j)! / (a! b1! b2!)^2, the factors that
    `_racah_parts` takes out of the m-dependent part and of S."""
    a = (tj1 + tj2 - tj) // 2
    return comb(tj1, a) * comb(tj2, a), comb((tj1 + tj2 + tj) // 2 + 1, a)


def _racah_parts(tj1: int, tm1: int, tj2: int, tm2: int, tj: int, tm: int):
    """Integers (s, m_den) of one coupling coefficient: its square is
    s^2 t_num / (m_den t_den), with `_triangle`'s parts, and its sign that of s.

    S = sum_t (-1)^t / (t! (a-t)! (u-t)! (v-t)! (d+t)! (e+t)!) over
    t = max(0, -d, -e) .. min(a, u, v), with a = j1+j2-j, u = j1-m1,
    v = j2+m2, d = j-j2+m1 and e = j-j1-m2.  As u + d = b1 and v + e = b2
    (b1, b2 as in `_triangle`), s = a! b1! b2! S is the binomial form

        s = sum_t (-1)^t C(a, t) C(b1, u-t) C(b2, v-t),

    and the six m-dependent factorials of R are (2j1)! (2j2)! (2j)! / m_den,
    m_den = C(2j1, j1-m1) C(2j2, j2-m2) C(2j, j-m).  The first term is three
    binomials, and each next one the last times -(a-t)(u-t)(v-t) /
    ((t+1)(d+t+1)(e+t+1)), an exact division.  No factorial is built:
    the factorial form carries products of six factorials on both sides
    of the fraction, which cancel only in the final gcd, while these
    binomials stay near the size of the reduced result.
    """
    a = (tj1 + tj2 - tj) // 2
    u, v = (tj1 - tm1) // 2, (tj2 + tm2) // 2
    d, e = tj1 - a - u, tj2 - a - v
    # t runs over max(0, -d, -e) .. min(a, u, v), bounds taken by compares:
    # the max() and min() calls cost a quarter of a small coefficient
    t = -d if d < e else -e
    if t < 0:
        t = 0
    hi = a if a < u else u
    if v < hi:
        hi = v
    term = comb(a, t) * comb(d + u, u - t) * comb(e + v, v - t)
    s = term = -term if t % 2 else term
    for t in range(t, hi):
        term = -term * ((a - t) * (u - t) * (v - t)) // ((t + 1) * (d + t + 1) * (e + t + 1))
        s += term
    return s, comb(tj1, u) * comb(tj2, (tj2 - tm2) // 2) * comb(tj, (tj - tm) // 2)


def cg(j1, m1, j2, m2, j, m) -> ExactReal:
    """Exact coupling coefficient <j m | j1 m1 j2 m2>.

    Raises on malformed inputs (negative j, parity mismatch, out-of-range
    m1/m2, triangle violation).  Returns exact zero when the selection
    rules m = m1 + m2 and |m| <= j fail.
    """
    tj1 = j1.doubled if j1.__class__ is TwoJ else as_twoj(j1).doubled
    tm1 = m1.doubled if m1.__class__ is TwoJ else as_twoj(m1).doubled
    tj2 = j2.doubled if j2.__class__ is TwoJ else as_twoj(j2).doubled
    tm2 = m2.doubled if m2.__class__ is TwoJ else as_twoj(m2).doubled
    tj = j.doubled if j.__class__ is TwoJ else as_twoj(j).doubled
    tm = m.doubled if m.__class__ is TwoJ else as_twoj(m).doubled
    # every argument rule in one test: each j - m, and j1 + j2 + j, even
    # (low bits of the xors), |m1| <= j1, |m2| <= j2 and the triangle
    if (tj1 ^ tm1 | tj2 ^ tm2 | tj1 ^ tj2 ^ tj | tj ^ tm) & 1 or not (
        -tj1 <= tm1 <= tj1 and -tj2 <= tm2 <= tj2 and abs(tj1 - tj2) <= tj <= tj1 + tj2
    ):
        # name the first rule broken, in the order of the checks; when
        # they all pass, the parity of j - m is the one left
        _check_jm(tj1, tm1, "(j1, m1)")
        _check_jm(tj2, tm2, "(j2, m2)")
        _check_triple(tj1, tj2, tj)
        raise ValueError(f"(j, m): j={_number(tj)}/2 and m={_number(tm)}/2 differ by a non-integer")
    return _cg_doubled(tj1, tm1, tj2, tm2, tj, tm)


def _cg_doubled(tj1: int, tm1: int, tj2: int, tm2: int, tj: int, tm: int) -> ExactReal:
    """`cg` on doubled ints that pass its checks, unchecked."""
    if tm != tm1 + tm2 or not -tj <= tm <= tj:
        return ExactReal.zero()
    s, m_den = _racah_parts(tj1, tm1, tj2, tm2, tj, tm)
    if not s:
        return ExactReal.zero()
    t_num, t_den = _triangle(tj1, tj2, tj)
    # the coefficient is sign(s) sqrt(s^2 t_num / (m_den t_den)); the parts
    # are valid by construction, so they are reduced here, not by from_square
    num, den = s * s * t_num, m_den * t_den
    g = gcd(num, den)
    return _raw(1 if s > 0 else -1, num // g, den // g)


@lru_cache(maxsize=2)
def _window_column(tj1: int, tj2: int, tj: int, tm2: int, direction: str) -> list:
    """[count, total, scale]: total sums s^2 / m_den of `_racah_parts`
    over the first `count` window terms of one column, which delta_su2
    updates in place, and scale * total is the overlap they give.  The
    triangle part of R is the same for the whole column, so it is taken
    once, in scale = (2j2+1)/(2j+1) times it."""
    t_num, t_den = _triangle(tj1, tj2, tj)
    return [0, Fraction(0), Fraction((tj2 + 1) * t_num, (tj + 1) * t_den)]


def delta_su2(j1, j2, j, m2, r: int, direction: str = "down") -> DeltaReport:
    """Overlap of the coupled block R_j against a height-r weight window.

    For the state |j2 m2> paired against R_j1, sums (2j2+1)/(2j+1) times
    |<j (m1+m2) | j1 m1 j2 m2>|^2 over the r+1 extremal m1 values:
    m1 = j1, j1-1, ..., j1-r for direction="down", and m1 = -j1, ...,
    -j1+r for direction="up".  Out-of-range terms contribute zero.

    For the last two columns (j1, j2, j, m2, direction) the window sum
    at the radius of the column's last call is kept: a call at a larger
    radius adds only the missing terms, so a sweep over r = 0..R costs
    R + 1 terms, and one at a smaller radius sums afresh.  The memo is
    module state and not thread-safe, like the rest of the package.
    """
    tj1 = as_twoj(j1).doubled
    tj2, tm2 = as_twoj(j2).doubled, as_twoj(m2).doubled
    tj = as_twoj(j).doubled
    _check_jm(tj2, tm2, "(j2, m2)")
    _check_triple(tj1, tj2, tj)
    if not isinstance(r, int) or r < 0:
        raise ValueError(f"need an integer radius r >= 0, got {_number(r, repr)}")
    if direction not in ("down", "up"):
        raise ValueError(f"direction must be 'down' or 'up', got {_shown(direction)}")
    count = min(r, tj1) + 1  # beyond i = 2j1 the window has no more terms
    memo = _window_column(tj1, tj2, tj, tm2, direction)
    start, total, scale = memo if memo[0] <= count else (0, Fraction(0), memo[2])
    for i in range(start, count):
        tm1 = tj1 - 2 * i if direction == "down" else -tj1 + 2 * i
        tm = tm1 + tm2
        if abs(tm) <= tj:
            s, m_den = _racah_parts(tj1, tm1, tj2, tm2, tj, tm)
            total += Fraction(s * s, m_den)
    memo[:] = count, total, scale
    return DeltaReport.from_delta(
        scale * total,
        formula_id=f"su2-cg-window/{direction}",
        psi_label=f"|j2 m2> = |{TwoJ(tj2)} {TwoJ(tm2)}>",
    )
