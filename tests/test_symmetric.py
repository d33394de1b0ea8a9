"""Symmetric-subspace error formulas: epsilon, profiles, and bounds."""

import random
from fractions import Fraction
from math import comb

import pytest

from definetti import symmetric
from definetti.symmetric import (
    SymTriple,
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


def test_epsilon_memo_independent_of_call_order():
    # three (n, k, d) columns, one more than the memo holds
    columns = [(12, 6, 2), (12, 6, 3), (9, 7, 4)]
    cells = [(col, r) for col in columns for r in range(col[1] + 1)]
    random.Random(13).shuffle(cells)
    got = {}
    for (n, k, d), r in cells:
        got[(n, k, d), r] = epsilon(SymTriple(n, k, d, r))
    for ((n, k, d), r), value in got.items():
        symmetric._tail_sums.cache_clear()
        assert value == epsilon(SymTriple(n, k, d, r)), ((n, k, d), r)


def test_closed_form_sum_matches_direct():
    # C(2,1)/C(4,1) + C(2,2)/C(4,2); verify.tail_sum_closed_form sweeps the rest
    assert closed_form_sum(4, 2, 0) == Fraction(1, 2) + Fraction(1, 6)


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


def test_bound_exponential_needs_small_d():
    with pytest.raises(ValueError):
        bound_exponential(SymTriple(10, 2, 3, 0))
    with pytest.raises(ValueError):
        bound_exponential(SymTriple(10, 8, 3, 0))


def test_exact_error_d2_closed_form():
    assert exact_error_d2(4, 2, 0) == Fraction(4, 5)
    with pytest.raises(ValueError):
        exact_error_d2(4, 0, 0)
    with pytest.raises(ValueError):
        exact_error_d2(4, 2, 3)
