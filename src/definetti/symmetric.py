"""Closed-form error quantities for symmetric subspaces of (C^d)^(x n).

Everything here is exact rational arithmetic except the two floating
exponential bounds.  The central object is the approximation error

    epsilon = 2 * (dim S(n-k) / dim S(n)) * sum_{i=r+1}^{k} C(k,i)/C(n,i) * C(i+d-2, i)

for reconstructing a k-site reduced state from the symmetric subspace,
keeping weights within radius r of the top.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, exp, factorial, perm
from typing import NamedTuple, Sequence

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


@dataclass(frozen=True)
class SymTriple:
    """Parameters (n, k, d, r): n sites in dimension d, k kept, radius r."""

    n: int
    k: int
    d: int
    r: int

    def __post_init__(self) -> None:
        if self.d < 2:
            raise ValueError(f"need local dimension d >= 2, got {self.d}")
        if not 0 < self.k <= self.n:
            raise ValueError(f"need 0 < k <= n, got k={self.k}, n={self.n}")
        if not 0 <= self.r <= self.k:
            raise ValueError(f"need 0 <= r <= k, got r={self.r}, k={self.k}")


def dim_sym(n: int, d: int) -> int:
    """Dimension of the n-fold symmetric power of C^d: C(n+d-1, n)."""
    if n < 0 or d < 1:
        raise ValueError(f"need n >= 0 and d >= 1, got n={n}, d={d}")
    return comb(n + d - 1, n)


@lru_cache(maxsize=2)
def _tail_sums(n: int, k: int, d: int) -> tuple[Fraction, ...]:
    """Entry r is sum_{i=r+1}^{k} C(k,i)/C(n,i) * C(i+d-2, i), for
    r = 0..k, built in one downward pass."""
    tails = [Fraction(0)] * (k + 1)
    for i in range(k, 0, -1):
        tails[i - 1] = tails[i] + Fraction(comb(k, i), comb(n, i)) * comb(i + d - 2, i)
    return tuple(tails)


def epsilon(t: SymTriple) -> Fraction:
    """Exact error bound for the radius-r symmetric reconstruction.

    The tail sums of the last two (n, k, d) are kept, all k + 1 of them,
    so the first call of a column costs what the r = 0 sum costs and
    every other radius is a lookup.  The memo is module state and not
    thread-safe, like the rest of the package.
    """
    ratio = Fraction(dim_sym(t.n - t.k, t.d), dim_sym(t.n, t.d))
    return 2 * ratio * _tail_sums(t.n, t.k, t.d)[t.r]


def term_overlap(w: Weight, n: int, k: int) -> Fraction:
    """Overlap of one type-w product vector against the aligned reference.

    Equals (k!/n!) * (w_1 + n - k)! / w_1! for a weight w of the k-site
    symmetric power, paired with n-k reference sites.
    """
    if w.total != k:
        raise ValueError(f"weight sums to {w.total}, expected k={k}")
    if any(x < 0 for x in w):
        raise ValueError(f"need nonnegative entries, got {w}")
    if not 0 < k <= n:
        raise ValueError(f"need 0 < k <= n, got k={k}, n={n}")
    return Fraction(factorial(k), factorial(n)) * perm(w[0] + n - k, n - k)


def weight_profile(ws: Sequence[Weight], k: int) -> list[int]:
    """Counts f_i of weights with leading coordinate i, for i = 0..k."""
    profile = [0] * (k + 1)
    for w in ws:
        if not 0 <= w[0] <= k:
            raise ValueError(f"leading coordinate {w[0]} outside 0..{k}")
        profile[w[0]] += 1
    return profile


def delta_psi_weights(n: int, k: int, d: int, f: Sequence[int]) -> Fraction:
    """Overlap functional for an arbitrary weight set, via its profile.

    f[i] counts the selected weights of the k-site symmetric power whose
    leading coordinate is i; each count is capped by the number of such
    weights, C(k-i+d-2, k-i).
    """
    if d < 2:
        raise ValueError(f"need local dimension d >= 2, got {d}")
    if not 0 < k <= n:
        raise ValueError(f"need 0 < k <= n, got k={k}, n={n}")
    if len(f) != k + 1:
        raise ValueError(f"profile must have length k+1 = {k + 1}, got {len(f)}")
    total = Fraction(0)
    for i, count in enumerate(f):
        if count < 0:
            raise ValueError(f"profile counts must be nonnegative, got f[{i}]={count}")
        avail = comb(k - i + d - 2, k - i)
        if count > avail:
            raise ValueError(
                f"profile exceeds available weights at leading coordinate {i}: "
                f"{count} > {avail}"
            )
        if count:
            total += Fraction(perm(n - k + i, n - k)) * count
    ratio = Fraction(dim_sym(n - k, d), dim_sym(n, d))
    return ratio * Fraction(factorial(k), factorial(n)) * total


def closed_form_sum(n: int, k: int, r: int) -> Fraction:
    """Closed form of sum_{i=r+1}^{k} C(k,i)/C(n,i).

    Equals k! (n-r)! / ((n-k+1) n! (k-r-1)!) for 0 <= r < k <= n, and 0
    at r = k (empty sum).
    """
    if not 0 < k <= n:
        raise ValueError(f"need 0 < k <= n, got k={k}, n={n}")
    if not 0 <= r <= k:
        raise ValueError(f"need 0 <= r <= k, got r={r}")
    if r == k:
        return Fraction(0)
    return Fraction(
        factorial(k) * factorial(n - r),
        (n - k + 1) * factorial(n) * factorial(k - r - 1),
    )


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
    """
    n, k, d, r = t.n, t.k, t.d, t.r
    if d > min(k, n - k):
        raise ValueError(f"bounds need d <= min(k, n-k), got d={d}, k={k}, n-k={n - k}")
    base = k / (n - r)
    inter = (
        base ** (d - 1 + r)
        * (n - k) ** (d - 2)
        * exp((d - 1) * r / k + (d - 1) ** 2 / k + (d - 1) ** 2 / (n - k))
        / factorial(d - 2)
    )
    head = 2.0 * exp(3 * d) / factorial(d - 2) * base ** (r + 1) * (k * (n - k) / (n - r)) ** (d - 2)
    return BoundPair(intermediate=inter, headline=head)


def exact_error_d2(n: int, k: int, r: int) -> Fraction:
    """Exact error for d = 2: 2 k! (n-r)! / ((k-r-1)! (n+1)!).

    Empty at r = k, where the error is exactly 0.
    """
    if not 0 < k <= n:
        raise ValueError(f"need 0 < k <= n, got k={k}, n={n}")
    if not 0 <= r <= k:
        raise ValueError(f"need 0 <= r <= k, got r={r}")
    if r == k:
        return Fraction(0)
    return Fraction(2 * perm(k, r + 1), perm(n + 1, r + 1))
