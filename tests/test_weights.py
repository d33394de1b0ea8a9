"""Weight-lattice combinatorics: dominance order, heights, windows, radius."""

import random
from itertools import accumulate
from math import comb

import pytest

from definetti import verify, weights
from definetti.weights import (
    HeightDecomposition,
    Weight,
    exact_radius,
    height_down,
    height_up,
    simple_root,
    sym_weights,
    type_class_size,
    w_r_set,
    weight_leq,
)


def test_weight_basics():
    w = Weight((4, 0))
    assert w.dim == 2 and w.total == 4
    assert str(w) == "(4,0)"
    assert list(w) == [4, 0]
    assert w[1] == 0
    assert len(w) == 2
    assert w + Weight((1, 1)) == Weight((5, 1))
    assert w - Weight((1, 1)) == Weight((3, -1))
    assert w.shifted(2) == Weight((6, 2))
    assert w.reversed() == Weight((0, 4))


def test_weight_validation():
    with pytest.raises(ValueError):
        Weight((3,))
    with pytest.raises(ValueError):
        Weight((1, 0)) + Weight((1, 0, 0))
    # integral entries coerce to int, others are refused
    assert Weight((True, 2.0)).entries == (1, 2)
    with pytest.raises(ValueError):
        Weight((1.5, 2))
    with pytest.raises(ValueError):
        Weight(("3", 0))
    with pytest.raises(ValueError):
        Weight((float("inf"), 0))


def test_simple_root():
    assert simple_root(1, 2) == Weight((1, -1))
    assert simple_root(2, 4) == Weight((0, 1, -1, 0))
    with pytest.raises(ValueError):
        simple_root(0, 3)
    with pytest.raises(ValueError):
        simple_root(3, 3)
    with pytest.raises(ValueError):
        simple_root(1, 1)


def test_weight_leq_prefix_order():
    assert weight_leq(Weight((1, 1)), Weight((2, 0)))
    assert not weight_leq(Weight((2, 0)), Weight((1, 1)))
    assert weight_leq(Weight((2, 0)), Weight((2, 0)))
    assert weight_leq(Weight((1, 2, 1)), Weight((2, 2, 0)))
    assert not weight_leq(Weight((2, 2, 0)), Weight((1, 2, 1)))
    with pytest.warns(UserWarning):
        assert not weight_leq(Weight((1, 0)), Weight((2, 0)))


def test_weight_leq_is_partial_order_on_sym_weights():
    ws = sym_weights(5, 3)
    for a in ws:
        assert weight_leq(a, a)
        for b in ws:
            if weight_leq(a, b) and weight_leq(b, a):
                assert a == b


def test_heights_two_level():
    lam = Weight((4, 0))
    # height down counts simple-root steps from the top
    assert height_down(lam, Weight((4, 0))).height == 0
    assert height_down(lam, Weight((3, 1))) == HeightDecomposition((1,), 1)
    assert height_down(lam, Weight((0, 4))).height == 4
    # height up counts steps from the reversal
    assert height_up(lam, Weight((0, 4))).height == 0
    assert height_up(lam, Weight((4, 0))).height == 4
    assert lam.reversed() == Weight((0, 4))


def test_heights_three_level():
    lam = Weight((3, 1, 0))
    hd = height_down(lam, Weight((1, 2, 1)))
    # (3,1,0) - (1,2,1) = (2,-1,-1) = 2*a1 + 1*a2
    assert hd.coefficients == (2, 1)
    assert hd.height == 2
    hu = height_up(lam, Weight((1, 2, 1)))
    # (1,2,1) - (0,1,3) = (1,1,-2) = 1*a1 + 2*a2
    assert hu.coefficients == (1, 2)
    assert hu.height == 2


def test_height_requires_matching_sums():
    with pytest.raises(ValueError):
        height_down(Weight((3, 0)), Weight((2, 0)))
    with pytest.raises(ValueError):
        height_up(Weight((3, 0)), Weight((2, 0)))


def _reference_height(ref, w, diff):
    """A height as computed before heights were read from the entry
    tuples: the Weight diff(ref, w) and the prefix sums of its entries."""
    if ref.dim != w.dim:
        raise ValueError(f"dimension mismatch: {ref.dim} vs {w.dim}")
    if ref.total != w.total:
        raise ValueError(f"no root decomposition: coordinate sums differ ({ref.total} vs {w.total})")
    coeffs = tuple(accumulate(diff(ref, w).entries[:-1]))
    return HeightDecomposition(coeffs, max(abs(c) for c in coeffs))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


def test_heights_equal_the_weight_difference_reference():
    down, up = (lambda lam, w: lam - w), (lambda mu, w: w - mu.reversed())
    checked = refused = 0
    for d in (2, 3, 4):
        ws = [w for n in range(7) for w in sym_weights(n, d)]
        for a in ws:
            for b in ws:
                got = (_outcome(height_down, a, b), _outcome(height_up, a, b))
                want = (_outcome(_reference_height, a, b, down), _outcome(_reference_height, a, b, up))
                assert got == want, (a, b)
                if isinstance(got[0], str):
                    refused += 1
                else:
                    assert type(got[0].coefficients) is type(got[1].coefficients) is tuple
                    checked += 1
    # every pair of one coordinate sum decomposes, every other pair is refused
    assert checked == sum(comb(n + d - 1, n) ** 2 for n in range(7) for d in (2, 3, 4)) == 13670
    assert checked + refused == sum(comb(6 + d, d) ** 2 for d in (2, 3, 4))
    for fn in (height_down, height_up):
        with pytest.raises(ValueError, match=r"^dimension mismatch: 2 vs 3$"):
            fn(Weight((1, 0)), Weight((1, 0, 0)))
        with pytest.raises(ValueError, match=r"^no root decomposition: coordinate sums differ \(3 vs 2\)$"):
            fn(Weight((3, 0)), Weight((2, 0)))


def test_height_decomposition_validation():
    with pytest.raises(ValueError):
        HeightDecomposition((), 0)
    with pytest.raises(ValueError):
        HeightDecomposition((1, -3), 1)
    assert HeightDecomposition((1, -3), 3).height == 3


def test_sym_weights_enumeration():
    ws = sym_weights(3, 2)
    assert ws == [Weight((3, 0)), Weight((2, 1)), Weight((1, 2)), Weight((0, 3))]
    for n in range(0, 7):
        for d in (2, 3, 4):
            ws = sym_weights(n, d)
            assert len(ws) == comb(n + d - 1, n)
            assert ws[0] == Weight((n,) + (0,) * (d - 1))
            assert ws[-1] == Weight((0,) * (d - 1) + (n,))
            assert all(w.total == n for w in ws)
            # descending lexicographic, no repeats
            assert ws == sorted(ws, key=lambda w: w.entries, reverse=True)
            assert len(set(ws)) == len(ws)
    with pytest.raises(ValueError):
        sym_weights(-1, 2)
    with pytest.raises(ValueError):
        sym_weights(3, 1)


def test_w_r_set_windows():
    assert w_r_set(3, 2, 0) == [Weight((3, 0))]
    assert w_r_set(3, 2, 1) == [Weight((3, 0)), Weight((2, 1))]
    assert w_r_set(3, 2, 0, "up") == [Weight((0, 3))]
    # a window of radius >= n is everything
    assert w_r_set(3, 3, 3) == sym_weights(3, 3)
    assert w_r_set(3, 3, 9, "up") == sym_weights(3, 3)
    with pytest.raises(ValueError):
        w_r_set(3, 2, -1)
    with pytest.raises(ValueError):
        w_r_set(3, 2, 1, "sideways")


def test_weight_memo_is_safe_and_bounded():
    ws = sym_weights(4, 3)
    want = list(ws)
    ws.append(Weight((9, 9, 9)))
    ws[0] = Weight((0, 0, 4))
    assert sym_weights(4, 3) == want
    with pytest.raises(ValueError):
        w_r_set(-1, 2, 0)
    with pytest.raises(ValueError):
        w_r_set(3, 1, 0)
    # three (n, d) columns, one more than the memo holds
    cells = [
        ((n, d), r, direction)
        for n, d in [(6, 2), (6, 3), (5, 4)]
        for r in range(n + 1)
        for direction in ("down", "up")
    ]
    random.Random(17).shuffle(cells)
    got = {cell: w_r_set(cell[0][0], cell[0][1], cell[1], cell[2]) for cell in cells}
    for ((n, d), r, direction), window in got.items():
        weights._sym_weights.cache_clear()
        assert window == w_r_set(n, d, r, direction), ((n, d), r, direction)
    # the profile checks enumerate each (k, d) once, for every r and n
    weights._sym_weights.cache_clear()
    verify.profile_consistency(16, 3)
    assert weights._sym_weights.cache_info().misses <= 16 * 2
    weights._sym_weights.cache_clear()
    verify.full_profile_unity(20, 3)
    assert weights._sym_weights.cache_info().misses <= 20 * 2


def test_w_r_set_matches_height():
    lam = Weight((5, 0, 0))
    for r in range(0, 6):
        down = set(w_r_set(5, 3, r, "down"))
        up = set(w_r_set(5, 3, r, "up"))
        for w in sym_weights(5, 3):
            assert (w in down) == (height_down(lam, w).height <= r)
            assert (w in up) == (height_up(lam, w).height <= r)


def test_type_class_size():
    assert type_class_size(Weight((2, 0))) == 1
    assert type_class_size(Weight((1, 1))) == 2
    assert type_class_size(Weight((2, 1, 1))) == 12
    with pytest.raises(ValueError):
        type_class_size(Weight((2, -1)))


def test_exact_radius_two_level_anchor():
    # coupled block (10,2) over mu=(5,0), nu=(7,0): radius k - l = 3
    assert exact_radius(Weight((10, 2)), Weight((5, 0)), Weight((7, 0))) == 3
    assert exact_radius(Weight((12, 0)), Weight((5, 0)), Weight((7, 0))) == 5
    assert exact_radius(Weight((6, 6)), Weight((6, 0)), Weight((6, 0))) == 0


def test_exact_radius_shift_normalization():
    lam = Weight((10, 2))
    mu = Weight((5, 0))
    nu = Weight((7, 0))
    r = exact_radius(lam, mu, nu)
    # shifting lambda and nu by multiples of (1,...,1) cannot change the radius
    assert exact_radius(lam.shifted(3), mu, nu) == r
    assert exact_radius(lam, mu, nu.shifted(-2)) == r
    assert exact_radius(lam.shifted(1), mu.shifted(2), nu) == r


def test_exact_radius_invalid_triple():
    with pytest.raises(ValueError, match="invalid triple"):
        exact_radius(Weight((2, 1, 0)), Weight((1, 0, 0)), Weight((1, 0, 0)))
