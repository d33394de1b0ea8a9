"""Symmetric-subspace error formulas: epsilon, profiles, and bounds."""

import random
import re
from fractions import Fraction
from math import comb, factorial, perm

import pytest

from definetti import symmetric, verify, weights
from definetti.symmetric import (
    SymTriple,
    _bounds,
    _closed_form_parts,
    _epsilon_parts,
    _error_d2_parts,
    bound_exponential,
    closed_form_sum,
    delta_psi_weights,
    dim_sym,
    epsilon,
    exact_error_d2,
    term_overlap,
    weight_profile,
)
from definetti.weights import Weight


def test_sym_triple_validation():
    SymTriple(4, 2, 2, 0)
    with pytest.raises(ValueError):
        SymTriple(4, 2, 1, 0)
    with pytest.raises(ValueError):
        SymTriple(4, 0, 2, 0)
    with pytest.raises(ValueError):
        SymTriple(4, 5, 2, 0)
    with pytest.raises(ValueError):
        SymTriple(4, 2, 2, 3)
    with pytest.raises(ValueError):
        SymTriple(4, 2, 2, -1)


def test_dim_sym():
    assert dim_sym(0, 3) == 1
    assert dim_sym(4, 2) == 5
    assert dim_sym(3, 3) == 10
    assert dim_sym(10, 4) == comb(13, 3)
    with pytest.raises(ValueError):
        dim_sym(-1, 2)
    with pytest.raises(ValueError):
        dim_sym(3, 0)


def test_epsilon_values():
    assert epsilon(SymTriple(4, 2, 2, 0)) == Fraction(4, 5)
    assert epsilon(SymTriple(4, 2, 2, 1)) == Fraction(1, 5)
    # empty sum at full radius
    for n, k, d in [(5, 3, 2), (8, 4, 3), (9, 2, 5)]:
        assert epsilon(SymTriple(n, k, d, k)) == 0


def test_epsilon_strictly_decreasing_in_radius():
    for n, k, d in [(10, 4, 2), (12, 6, 3), (15, 5, 4)]:
        values = [epsilon(SymTriple(n, k, d, r)) for r in range(k + 1)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] == 0


def _epsilon_column_termwise(n, k, d):
    # epsilon at r = 0..k as a sum of one Fraction per term, downwards
    ratio = Fraction(dim_sym(n - k, d), dim_sym(n, d))
    tails = [Fraction(0)] * (k + 1)
    for i in range(k, 0, -1):
        tails[i - 1] = tails[i] + Fraction(comb(k, i), comb(n, i)) * comb(i + d - 2, i)
    return [2 * ratio * tail for tail in tails]


def _delta_psi_termwise(n, k, d, f):
    total = Fraction(0)
    for i, count in enumerate(f):
        total += Fraction(perm(n - k + i, n - k)) * count
    return Fraction(dim_sym(n - k, d), dim_sym(n, d)) * Fraction(factorial(k), factorial(n)) * total


def test_integer_kernels_match_termwise_sum():
    for n in range(1, 41):
        for k in range(1, n + 1):
            for d in range(2, 6):
                want = _epsilon_column_termwise(n, k, d)
                for r in range(k + 1):
                    got = epsilon(SymTriple(n, k, d, r))
                    assert got == want[r] and type(got) is Fraction, (n, k, d, r)
    for n in range(1, 13):
        for k in range(1, n + 1):
            for d in (2, 3):
                for r in range(k + 1):
                    for direction in ("down", "up"):
                        f = weight_profile(weights.w_r_set(k, d, r, direction), k)
                        got = delta_psi_weights(n, k, d, f)
                        want = _delta_psi_termwise(n, k, d, f)
                        assert got == want and type(got) is Fraction, (n, k, d, r, direction)


def test_epsilon_matches_termwise_sum_on_seeded_sweep():
    rng = random.Random(16)
    for _ in range(200):
        n = rng.randint(1, 400)
        k = rng.randint(1, n)
        d = rng.randint(2, 8)
        r = rng.randint(0, k)
        got = epsilon(SymTriple(n, k, d, r))
        assert got == _epsilon_column_termwise(n, k, d)[r] and type(got) is Fraction, (n, k, d, r)


def test_closed_form_sum_matches_direct():
    # C(2,1)/C(4,1) + C(2,2)/C(4,2); verify.tail_sum_closed_form sweeps the rest
    assert closed_form_sum(4, 2, 0) == Fraction(1, 2) + Fraction(1, 6)
    assert closed_form_sum(4, 2, 2) == 0  # empty sum at r = k


def test_closed_form_sum_validation():
    with pytest.raises(ValueError):
        closed_form_sum(4, 0, 0)
    with pytest.raises(ValueError):
        closed_form_sum(4, 5, 0)
    with pytest.raises(ValueError):
        closed_form_sum(4, 2, 3)
    with pytest.raises(ValueError):
        closed_form_sum(4, 2, -1)


def test_term_overlap():
    assert term_overlap(Weight((0, 2)), 4, 2) == Fraction(1, 6)
    assert term_overlap(Weight((2, 0)), 4, 2) == 1
    # leading coordinate fixes the value; the tail layout does not
    assert term_overlap(Weight((1, 1, 0)), 5, 2) == term_overlap(Weight((1, 0, 1)), 5, 2)
    with pytest.raises(ValueError):
        term_overlap(Weight((1, 0)), 4, 2)  # sums to 1, not k
    with pytest.raises(ValueError):
        term_overlap(Weight((3, -1)), 4, 2)
    with pytest.raises(ValueError):
        term_overlap(Weight((0, 2)), 1, 2)


def test_weight_profile():
    ws = [Weight((2, 0)), Weight((1, 1)), Weight((0, 2)), Weight((1, 1))]
    assert weight_profile(ws, 2) == [1, 2, 1]
    with pytest.raises(ValueError):
        weight_profile([Weight((3, -1))], 2)
    # k is refused before a list of k + 1 counts is built
    for k, shown in ((10**30, str(10**30)), (10**60, "a 61-digit integer"), (-1, "-1")):
        with pytest.raises(ValueError, match=rf"^need 0 <= k <= 1000000, got k={shown}$"):
            weight_profile(ws, k)


def test_delta_psi_weights_anchors():
    # the single aligned weight recovers dim ratio times the full product run
    assert delta_psi_weights(4, 2, 2, [0, 0, 1]) == Fraction(3, 5)


def test_delta_psi_weights_validation():
    with pytest.raises(ValueError):
        delta_psi_weights(4, 2, 1, [0, 0, 1])
    with pytest.raises(ValueError):
        delta_psi_weights(4, 2, 2, [0, 1])  # wrong length
    with pytest.raises(ValueError):
        delta_psi_weights(4, 2, 2, [0, 0, -1])
    with pytest.raises(ValueError):
        delta_psi_weights(4, 2, 2, [0, 0, 2])  # only one weight leads with k


def test_bound_exponential_chain():
    inter, head = bound_exponential(SymTriple(60, 20, 3, 4))
    assert inter == pytest.approx(0.167154449115, rel=1e-11)
    assert head == pytest.approx(1345.21634659, rel=1e-11)


def test_bound_chain_holds_exactly_at_the_cli_scale():
    # seeded cells with n log-uniform up to 10^5, compared through the
    # exact values of the floats with no slack; a cell whose bounds
    # underflow would break the chain (0 < epsilon/2), and is refused
    rng = random.Random(32)
    accepted = refused = 0
    while accepted < 300:
        n = round(10 ** rng.uniform(0.6, 5))
        k = rng.randint(2, n - 2)
        t = SymTriple(n, k, rng.randint(2, min(k, n - k, 40)), rng.randint(0, k))
        try:
            inter, head = bound_exponential(t)
        except ValueError:
            refused += 1
            continue
        assert epsilon(t) / 2 <= Fraction(inter) <= Fraction(head) / 2, t
        accepted += 1
    assert refused > 0


def test_bound_chain_compares_exactly(monkeypatch):
    # an intermediate bound 1e-13 (relative) below epsilon/2 breaks the
    # chain; a slack of 1e-12 once let it through
    bounds = symmetric._bounds

    def low(n, k, d, r):
        num, den = _epsilon_parts(n, k, d, r)
        return num / den / 2 * (1 - 1e-13), bounds(n, k, d, r)[1]

    monkeypatch.setattr(symmetric, "_bounds", low)
    with pytest.raises(AssertionError, match=r"^eps/2 > intermediate at \(4, 2, 2, 0\)$"):
        verify.bound_chain(40, 4)


def test_bound_exponential_needs_small_d():
    with pytest.raises(ValueError):
        bound_exponential(SymTriple(10, 2, 3, 0))
    with pytest.raises(ValueError):
        bound_exponential(SymTriple(10, 8, 3, 0))


def test_exact_error_d2_closed_form():
    assert exact_error_d2(4, 2, 0) == Fraction(4, 5)
    assert exact_error_d2(4, 2, 2) == 0
    with pytest.raises(ValueError):
        exact_error_d2(4, 0, 0)
    with pytest.raises(ValueError):
        exact_error_d2(4, 2, 3)


def _counted(fn, counts, name):
    def wrapper(*args):
        counts[name] += 1
        return fn(*args)

    return wrapper


def test_symmetric_checks_reach_the_kernel_without_epsilon(monkeypatch):
    counts = {"epsilon": 0, "_epsilon_parts": 0}
    for name in counts:
        monkeypatch.setattr(symmetric, name, _counted(getattr(symmetric, name), counts, name))
    assert verify.bound_chain(40, 4) == "28994 chain comparisons hold"
    assert counts == {"epsilon": 0, "_epsilon_parts": 28994}
    verify.d2_exact_error(12)
    verify.profile_consistency(8, 3)
    assert counts["epsilon"] == 0

    # the kernel's sum started one term early, at i = r
    parts = _epsilon_parts
    monkeypatch.setattr(symmetric, "_epsilon_parts", lambda n, k, d, r: parts(n, k, d, max(r - 1, 0)))
    for check, args in (
        (verify.d2_exact_error, (40,)),
        (verify.bound_chain, (40, 4)),
        (verify.profile_consistency, (16, 3)),
    ):
        with pytest.raises(AssertionError):
            check(*args)
    assert epsilon(SymTriple(4, 2, 2, 1)) != Fraction(1, 5)


def test_tail_sum_checks_reach_the_closed_form_kernel(monkeypatch):
    parts = _closed_form_parts
    monkeypatch.setattr(symmetric, "_closed_form_parts", lambda n, k, r: parts(n, k, max(r - 1, 0)))
    for check in (verify.tail_sum_closed_form, verify.tail_sum_recursion):
        with pytest.raises(AssertionError):
            check(30)
    assert closed_form_sum(4, 2, 1) != Fraction(1, 6)


def test_kernels_equal_the_public_values_on_a_seeded_grid():
    rng = random.Random(23)
    cells = [(20000, 10000, 4, 100), (20000, 1, 2, 0), (20000, 20000, 8, 19999)]
    for _ in range(300):
        n = rng.choice((rng.randint(1, 60), rng.randint(1, 20000)))
        k = rng.randint(1, n)
        cells.append((n, k, rng.randint(2, 8), rng.randint(0, min(k, 400))))
    bounded = refused = 0
    for n, k, d, r in cells:
        t = SymTriple(n, k, d, r)
        num, den = _epsilon_parts(n, k, d, r)
        assert Fraction(num, den) == epsilon(t), t
        assert num / den == float(epsilon(t)), t  # bit for bit
        if d == 2:
            assert Fraction(*_error_d2_parts(n, k, r)) == exact_error_d2(n, k, r) == epsilon(t), t
        assert Fraction(*_closed_form_parts(n, k, r)) == closed_form_sum(n, k, r), t
        if d <= min(k, n - k):
            try:
                pair = _bounds(n, k, d, r)
            except ValueError as exc:  # a bound past the float range: both refuse alike
                with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                    bound_exponential(t)
                refused += 1
            else:
                assert pair == bound_exponential(t), t
                bounded += 1
    assert bounded > 100 and refused > 0
