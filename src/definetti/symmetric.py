"""Closed-form error quantities for symmetric subspaces of (C^d)^(x n).

Everything here is exact rational arithmetic except the two floating
exponential bounds.  The central object is the approximation error

    epsilon = 2 * (dim S(n-k) / dim S(n)) * sum_{i=r+1}^{k} C(k,i)/C(n,i) * C(i+d-2, i)

for reconstructing a k-site reduced state from the symmetric subspace,
keeping weights within radius r of the top.  The k-term sum is a
hypergeometric tail of d - 1 terms: with e = r + d - 1,

    epsilon = 2 * sum_{l=0}^{d-2} C(n-k+d-1, l) C(k, e-l) / C(n+d-1, e),

twice the chance that more than r of e balls drawn without replacement
from an urn of k marked and n - k + d - 1 unmarked ones are marked (the
urn of Diaconis & Freedman, "Finite exchangeable sequences", Ann.
Probab. 8, 745, 1980).  `delta_psi_weights` keeps the weight-by-weight
sum, in integers by C(k,i)/C(n,i) = perm(n-i, n-k) / perm(n, n-k).

Each closed form is a private integer kernel and a public wrapper:
`_epsilon_parts`, `_closed_form_parts` and `_error_d2_parts` return the
unreduced (numerator, denominator) pair, and `epsilon`, `closed_form_sum`
and `exact_error_d2` validate and build the one Fraction from it.
`_bounds` is the float kernel of `bound_exponential`.  The `verify`
checks call the kernels and compare the pairs by cross-multiplication,
with no gcd and no SymTriple per cell.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, exp, factorial, inf, perm
from typing import NamedTuple, Sequence

from .report import _MIN_NORMAL, _Frozen, _number
from .weights import Weight

__all__ = [
    "SymTriple",
    "BoundPair",
    "dim_sym",
    "epsilon",
    "delta_psi_weights",
    "weight_profile",
    "term_overlap",
    "closed_form_sum",
    "bound_exponential",
    "exact_error_d2",
]


class SymTriple(_Frozen):
    """Parameters (n, k, d, r): n sites in dimension d, k kept, radius r."""

    __slots__ = ("n", "k", "d", "r")

    def __init__(self, n: int, k: int, d: int, r: int) -> None:
        _check_d(d)
        _check_k(n, k)
        if not 0 <= r <= k:
            raise ValueError(f"need 0 <= r <= k, got r={_number(r)}, k={_number(k)}")
        self._fill(n, k, d, r)


def dim_sym(n: int, d: int) -> int:
    """Dimension of the n-fold symmetric power of C^d: C(n+d-1, n)."""
    if n < 0 or d < 1:
        raise ValueError(f"need n >= 0 and d >= 1, got n={_number(n)}, d={_number(d)}")
    return comb(n + d - 1, n)


def epsilon(t: SymTriple) -> Fraction:
    """Exact error bound for the radius-r symmetric reconstruction.

    With e = r + d - 1 and m = n - k + d - 1 the value is the single
    Fraction 2 sum_{l=0}^{d-2} C(m, l) C(k, e-l) / C(n+d-1, e), the urn
    tail of the module docstring.  The sum starts from its top term
    C(m, d-2) C(k, r+1), and each next term is the last times
    l (k-e+l) / ((m-l+1)(e-l+1)), an exact division, so a cell costs three
    binomials and d - 2 small-integer steps.  At r = k the top term
    C(k, k+1) is 0, and so is every other, without a branch.
    """
    return Fraction(*_epsilon_parts(t.n, t.k, t.d, t.r))


def _epsilon_parts(n: int, k: int, d: int, r: int) -> tuple[int, int]:
    """epsilon's unreduced (numerator, denominator), for valid (n, k, d, r)."""
    e, m = r + d - 1, n - k + d - 1
    term = total = comb(m, d - 2) * comb(k, r + 1)
    for l in range(d - 2, 0, -1):
        term = term * (l * (k - e + l)) // ((m - l + 1) * (e - l + 1))
        total += term
    return 2 * total, comb(n + d - 1, e)


def term_overlap(w: Weight, n: int, k: int) -> Fraction:
    """Overlap of one type-w product vector against the aligned reference.

    Equals (k!/n!) * (w_1 + n - k)! / w_1! for a weight w of the k-site
    symmetric power, paired with n-k reference sites.
    """
    if w.total != k:
        raise ValueError(f"weight sums to {_number(w.total)}, expected k={_number(k)}")
    if any(x < 0 for x in w):
        raise ValueError(f"need nonnegative entries, got {w}")
    _check_k(n, k)
    return Fraction(factorial(k), factorial(n)) * perm(w[0] + n - k, n - k)


# a profile is a list of k + 1 counts, so k is refused above this bound
# (an 8 MB list) before the list is built
PROFILE_K_GUARD = 10**6


def weight_profile(ws: Sequence[Weight], k: int) -> list[int]:
    """Counts f_i of weights with leading coordinate i, for i = 0..k,
    for 0 <= k <= PROFILE_K_GUARD."""
    if not 0 <= k <= PROFILE_K_GUARD:
        raise ValueError(f"need 0 <= k <= {PROFILE_K_GUARD}, got k={_number(k)}")
    profile = [0] * (k + 1)
    for w in ws:
        if not 0 <= w[0] <= k:
            raise ValueError(f"leading coordinate {_number(w[0])} outside 0..{_number(k)}")
        profile[w[0]] += 1
    return profile


def delta_psi_weights(n: int, k: int, d: int, f: Sequence[int]) -> Fraction:
    """Overlap functional for an arbitrary weight set, via its profile.

    f[i] counts the selected weights of the k-site symmetric power whose
    leading coordinate is i; each count is capped by the number of such
    weights, C(k-i+d-2, k-i).  The value is
    (dim S(n-k) / dim S(n)) * (k!/n!) * sum_i perm(n-k+i, n-k) f[i], with
    the sum taken in integers and one Fraction built at the end.
    """
    _check_d(d)
    _check_k(n, k)
    if len(f) != k + 1:
        raise ValueError(f"profile must have length k+1 = {_number(k + 1)}, got {len(f)}")
    total = 0
    for i, count in enumerate(f):
        if count < 0:
            raise ValueError(f"profile counts must be nonnegative, got f[{i}]={_number(count)}")
        avail = comb(k - i + d - 2, k - i)
        if count > avail:
            raise ValueError(
                f"profile exceeds available weights at leading coordinate {i}: "
                f"{_number(count)} > {_number(avail)}"
            )
        if count:
            total += perm(n - k + i, n - k) * count
    return Fraction(dim_sym(n - k, d) * factorial(k) * total, dim_sym(n, d) * factorial(n))


def closed_form_sum(n: int, k: int, r: int) -> Fraction:
    """Closed form of sum_{i=r+1}^{k} C(k,i)/C(n,i).

    Equals k! (n-r)! / ((n-k+1) n! (k-r-1)!) = perm(k, r+1) / ((n-k+1)
    perm(n, r)) for 0 <= r <= k <= n; at r = k, perm(k, k+1) = 0 gives
    the empty sum.
    """
    _check_nkr(n, k, r)
    return Fraction(*_closed_form_parts(n, k, r))


def _closed_form_parts(n: int, k: int, r: int) -> tuple[int, int]:
    """closed_form_sum's unreduced (numerator, denominator), for valid (n, k, r)."""
    return perm(k, r + 1), (n - k + 1) * perm(n, r)


def _check_d(d: int) -> None:
    if d < 2:
        raise ValueError(f"need local dimension d >= 2, got {_number(d)}")


def _check_k(n: int, k: int) -> None:
    if not 0 < k <= n:
        raise ValueError(f"need 0 < k <= n, got k={_number(k)}, n={_number(n)}")


def _check_nkr(n: int, k: int, r: int) -> None:
    _check_k(n, k)
    if not 0 <= r <= k:
        raise ValueError(f"need 0 <= r <= k, got r={_number(r)}")


class BoundPair(NamedTuple):
    """Exponential bounds: intermediate caps epsilon/2, headline caps epsilon."""

    intermediate: float
    headline: float


def bound_exponential(t: SymTriple) -> BoundPair:
    """Floating exponential bounds, valid for d <= min(k, n-k).

    The chain is epsilon/2 <= intermediate <= headline/2 with

        intermediate = (k/(n-r))^(d-1+r) (n-k)^(d-2)
                       exp((d-1)r/k + (d-1)^2/k + (d-1)^2/(n-k)) / (d-2)!
        headline     = 2 e^(3d) / (d-2)! * (k/(n-r))^(r+1) * (k(n-k)/(n-r))^(d-2)

    A bound outside the normal float range [2^-1022, max float], or a
    factor of one that overflows, is a ValueError naming the parameters.
    """
    n, k, d, r = t.n, t.k, t.d, t.r
    if d > min(k, n - k):
        raise ValueError(
            f"bounds need d <= min(k, n-k), got d={_number(d)}, k={_number(k)}, n-k={_number(n - k)}"
        )
    return BoundPair(*_bounds(n, k, d, r))


def _bounds(n: int, k: int, d: int, r: int) -> tuple[float, float]:
    """bound_exponential's (intermediate, headline), for d <= min(k, n-k)."""
    base = k / (n - r)
    try:
        inter = (
            base ** (d - 1 + r)
            * (n - k) ** (d - 2)
            * exp((d - 1) * r / k + (d - 1) ** 2 / k + (d - 1) ** 2 / (n - k))
            / factorial(d - 2)
        )
        head = 2.0 * exp(3 * d) / factorial(d - 2) * base ** (r + 1) * (k * (n - k) / (n - r)) ** (d - 2)
    except OverflowError:
        inter = head = inf
    if not (_MIN_NORMAL <= inter < inf and _MIN_NORMAL <= head < inf):
        raise ValueError(
            f"the bounds leave the float range at n={_number(n)}, k={_number(k)}, "
            f"d={_number(d)}, r={_number(r)}"
        )
    return inter, head


def exact_error_d2(n: int, k: int, r: int) -> Fraction:
    """Exact error for d = 2: 2 k! (n-r)! / ((k-r-1)! (n+1)!).

    That is 2 perm(k, r+1) / perm(n+1, r+1), exactly 0 at r = k, where
    perm(k, k+1) = 0.
    """
    _check_nkr(n, k, r)
    return Fraction(*_error_d2_parts(n, k, r))


def _error_d2_parts(n: int, k: int, r: int) -> tuple[int, int]:
    """exact_error_d2's unreduced (numerator, denominator), for valid (n, k, r)."""
    return 2 * perm(k, r + 1), perm(n + 1, r + 1)
