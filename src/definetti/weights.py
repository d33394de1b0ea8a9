"""Weight-lattice combinatorics for symmetric irreducibles of SU(d).

Weights are integer d-tuples.  The dominance order compares prefix sums;
heights measure how many simple-root steps separate a weight from the
top (height down from lambda) or the bottom (height up from the reversal
of mu).  A height's simple-root coefficients are the prefix sums of the
difference, taken straight from the two entry tuples, with no Weight
built for the difference.  For the symmetric representation with weights
summing to n the two heights reduce to n - w_1 and n - w_d.
"""

from __future__ import annotations

import warnings
from functools import lru_cache
from itertools import accumulate
from math import factorial
from operator import sub

from .report import _Frozen, _number, _shown

__all__ = [
    "Weight",
    "HeightDecomposition",
    "simple_root",
    "weight_leq",
    "height_down",
    "height_up",
    "sym_weights",
    "w_r_set",
    "type_class_size",
    "exact_radius",
]


class Weight(_Frozen):
    """An integer weight vector of dimension >= 2.

    Integral entries of another type (True, 2.0) become ints; any other
    entry (1.5, "3") raises ValueError.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[int, ...]) -> None:
        # a tuple of two or more plain ints is stored as it stands
        if not (
            entries.__class__ is tuple
            and len(entries) > 1
            and all(x.__class__ is int for x in entries)
        ):
            entries = _int_entries(entries)
        self._fill(entries)

    @property
    def dim(self) -> int:
        return len(self.entries)

    @property
    def total(self) -> int:
        return sum(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i: int) -> int:
        return self.entries[i]

    def __add__(self, other: "Weight") -> "Weight":
        _same_dim(self, other)
        return Weight(tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "Weight") -> "Weight":
        _same_dim(self, other)
        return Weight(tuple(a - b for a, b in zip(self.entries, other.entries)))

    def shifted(self, t: int) -> "Weight":
        """Add t to every coordinate."""
        return Weight(tuple(a + t for a in self.entries))

    def reversed(self) -> "Weight":
        return Weight(self.entries[::-1])

    def __str__(self) -> str:
        return "(" + ",".join(_number(x) for x in self.entries) + ")"


def _int_entries(given) -> tuple[int, ...]:
    """The entries of any iterable as a tuple of ints, refused unless each
    is integral and there are at least two."""
    given = tuple(given)
    try:
        entries = tuple(int(x) for x in given)
    except OverflowError:  # int(inf)
        raise ValueError(f"weight entries must be finite, got {given!r}") from None
    if entries != given:
        raise ValueError(f"weight entries must be integers, got {given!r}")
    if len(entries) < 2:
        raise ValueError("a weight needs at least two coordinates")
    return entries


class HeightDecomposition(_Frozen):
    """Simple-root coefficients of a weight difference and their height.

    Integer weights with matching coordinate sums always decompose with
    integer coefficients; the height is the largest absolute coefficient.
    """

    __slots__ = ("coefficients", "height")

    def __init__(self, coefficients: tuple[int, ...], height: int) -> None:
        if not coefficients:
            raise ValueError("decomposition needs at least one coefficient")
        expected = max(abs(c) for c in coefficients)
        if height != expected:
            raise ValueError(f"height {_number(height)} != max |coefficient| {_number(expected)}")
        self._fill(coefficients, height)


def _same_dim(a: Weight, b: Weight) -> None:
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")


def _check_d(d: int) -> None:
    if d < 2:
        raise ValueError(f"need dimension d >= 2, got {_number(d)}")


def simple_root(i: int, d: int) -> Weight:
    """The i-th simple root of SU(d), i in 1..d-1: e_i - e_(i+1)."""
    _check_d(d)
    if not 1 <= i <= d - 1:
        raise ValueError(f"root index must lie in 1..{_number(d - 1)}, got {_number(i)}")
    v = [0] * d
    v[i - 1] = 1
    v[i] = -1
    return Weight(tuple(v))


def weight_leq(w: Weight, w2: Weight) -> bool:
    """Dominance order: every prefix sum of w is <= that of w2.

    Weights with different coordinate sums are incomparable; that case
    returns False and raises a warning.
    """
    _same_dim(w, w2)
    if w.total != w2.total:
        warnings.warn(
            "weights with different coordinate sums are incomparable",
            stacklevel=2,
        )
        return False
    acc = 0
    for a, b in zip(w, w2):
        acc += a - b
        if acc > 0:
            return False
    return True


def _height(ref: Weight, w: Weight, plus: tuple, minus: tuple) -> HeightDecomposition:
    """Root decomposition of the difference plus - minus of the entries
    of ref and w, for ref and w of one dimension and coordinate sum;
    height is the largest |coefficient|."""
    _same_dim(ref, w)
    # writing diff = sum_i c_i * alpha_i forces c_i = sum_{j<=i} diff_j;
    # the last prefix sum is the difference of the coordinate sums
    *coeffs, excess = accumulate(map(sub, plus, minus))
    if excess:
        raise ValueError(
            "no root decomposition: coordinate sums differ "
            f"({_number(ref.total)} vs {_number(w.total)})"
        )
    return HeightDecomposition(tuple(coeffs), max(map(abs, coeffs)))


def height_down(lam: Weight, w: Weight) -> HeightDecomposition:
    """Decompose w = lam - sum_i n_i alpha_i; height is max |n_i|.

    Requires matching coordinate sums, otherwise no decomposition exists.
    """
    return _height(lam, w, lam.entries, w.entries)


def height_up(mu: Weight, w: Weight) -> HeightDecomposition:
    """Decompose w = reverse(mu) + sum_i m_i alpha_i; height is max |m_i|.

    The reversal of mu is the lowest weight of the irreducible with
    highest weight mu.  Requires matching coordinate sums.
    """
    return _height(mu, w, w.entries, mu.entries[::-1])


def sym_weights(n: int, d: int) -> list[Weight]:
    """All weights of the n-fold symmetric power of C^d.

    These are the nonnegative integer d-tuples summing to n, listed in
    descending lexicographic order so the highest weight (n,0,...,0)
    comes first.  The enumerations of the last two (n, d) are kept, so a
    repeated call only copies the list; the caller owns the copy.  The
    memo is module state and not thread-safe, like the rest of the
    package.
    """
    return list(_sym_weights(n, d))


@lru_cache(maxsize=2)
def _sym_weights(n: int, d: int) -> tuple[Weight, ...]:
    if n < 0:
        raise ValueError(f"need n >= 0, got {_number(n)}")
    _check_d(d)
    # a weight's successor moves one unit off w[i], the last nonzero entry
    # before w[-1], and puts it with all of w[-1] into w[i+1] (the entries
    # between are 0); the last weight (0, ..., 0, n) has no such i
    w = [n] + [0] * (d - 1)
    out = [Weight(tuple(w))]
    i = 0
    while True:
        while i >= 0 and not w[i]:
            i -= 1
        if i < 0:
            return tuple(out)
        w[i] -= 1
        w[-1], w[i + 1] = 0, w[-1] + 1  # w[-1] first: i + 1 may be the last index
        i = min(i + 1, d - 2)
        out.append(Weight(tuple(w)))


def w_r_set(n: int, d: int, r: int, direction: str = "down") -> list[Weight]:
    """Weights of the symmetric power within height r of the top or bottom.

    direction="down" keeps w with n - w_1 <= r (near the highest weight);
    direction="up" keeps w with n - w_d <= r (near the lowest weight).
    The window filters the enumeration that sym_weights keeps for the
    last two (n, d), so a sweep over r enumerates the weights once; like
    that memo, this is not thread-safe.
    """
    if r < 0:
        raise ValueError(f"need radius r >= 0, got {_number(r)}")
    ws = _sym_weights(n, d)
    if direction == "down":
        return [w for w in ws if w[0] >= n - r]
    if direction == "up":
        return [w for w in ws if w[-1] >= n - r]
    raise ValueError(f"direction must be 'down' or 'up', got {_shown(direction)}")


def type_class_size(w: Weight) -> int:
    """Number of product basis vectors of type w: multinomial(sum; w)."""
    if any(x < 0 for x in w):
        raise ValueError(f"type classes need nonnegative entries, got {w}")
    size = factorial(w.total)
    for x in w:
        size //= factorial(x)
    return size


def exact_radius(lam: Weight, mu: Weight, nu: Weight) -> int:
    """Smallest r with lambda - nu inside the height-r band above mu's bottom.

    The difference lambda - nu is shifted by a multiple of (1,...,1) to
    match mu's coordinate sum; a fractional shift means the triple is not
    a valid branching configuration.
    """
    _same_dim(lam, mu)
    _same_dim(lam, nu)
    v = lam - nu
    t, rem = divmod(mu.total - v.total, lam.dim)
    if rem:
        raise ValueError(
            f"invalid triple: sum(mu) - sum(lambda - nu) = {_number(mu.total - v.total)} "
            f"is not a multiple of d = {lam.dim}"
        )
    return height_up(mu, v.shifted(t)).height
