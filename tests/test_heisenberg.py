"""Oscillator-pair overlaps: number-space windows and coherent splitting."""

import random
from fractions import Fraction

import pytest

from definetti import heisenberg, verify
from definetti.heisenberg import (
    HeisenbergTriple,
    alpha_coeff,
    alpha_weight,
    alpha_weight_tail_bound,
    coherent_bound,
    delta_number_space,
    epsilon_heisenberg,
)
from definetti.report import DeltaReport


def test_triple_validation():
    t = HeisenbergTriple(mu=Fraction(1, 2), nu=2, Delta=3, r=1)
    assert t.is_exact
    assert not HeisenbergTriple(mu=0.5, nu=2, Delta=0, r=0).is_exact
    with pytest.raises(ValueError):
        HeisenbergTriple(mu=0, nu=1, Delta=0, r=0)
    with pytest.raises(ValueError):
        HeisenbergTriple(mu=1, nu=-2, Delta=0, r=0)
    with pytest.raises(TypeError):
        HeisenbergTriple(mu="1", nu=1, Delta=0, r=0)
    with pytest.raises(ValueError):
        HeisenbergTriple(mu=1, nu=1, Delta=-1, r=0)
    with pytest.raises(ValueError):
        HeisenbergTriple(mu=1, nu=1, Delta=0.5, r=0)
    with pytest.raises(ValueError):
        HeisenbergTriple(mu=1, nu=1, Delta=0, r=-1)


def test_alpha_coeff():
    assert alpha_coeff(2, 1, 1, 1) == Fraction(1, 2)
    assert alpha_coeff(0, 0, 3, 4) == 1
    verify.mass_identities([(Fraction(2), Fraction(5))], 7)
    with pytest.raises(ValueError):
        alpha_coeff(2, 3, 1, 1)
    with pytest.raises(ValueError):
        alpha_coeff(2, -1, 1, 1)


def test_alpha_weight():
    assert alpha_weight(0, 0, 1, 1) == 1
    assert alpha_weight(1, 2, 1, 1) == Fraction(3, 8)
    assert isinstance(alpha_weight(2, 3, 1, 2), Fraction)
    assert isinstance(alpha_weight(2, 3, 1.0, 2.0), float)
    # full mass over n is (mu+nu)/nu, independent of the offset
    for D in (0, 1, 4):
        mu, nu = Fraction(3), Fraction(2)
        head = sum(alpha_weight(D, n, mu, nu) for n in range(400))
        assert abs(float(head - (mu + nu) / nu)) < 1e-20
    with pytest.raises(ValueError):
        alpha_weight(-1, 0, 1, 1)
    with pytest.raises(ValueError):
        alpha_weight(0, -1, 1, 1)


def test_alpha_weight_tail_bound():
    for D, start, mu, nu in [(0, 0, 1, 9), (2, 5, 1, 3), (4, 12, 2, 3)]:
        cap = alpha_weight_tail_bound(D, start, mu, nu)
        tail = sum(float(alpha_weight(D, n, mu, nu)) for n in range(start, start + 400))
        assert tail <= cap * (1 + 1e-12)
    with pytest.raises(ValueError):
        alpha_weight_tail_bound(5, 0, 1, 1)  # ratio 3 >= 1


def test_delta_number_space_values():
    rep = delta_number_space(HeisenbergTriple(mu=1, nu=1, Delta=0, r=0))
    assert rep.delta == Fraction(1, 2)
    assert rep.formula_id == "oscillator-number-window"
    # offset zero telescopes to 1 - (mu/(mu+nu))^(r+1)
    verify.geometric_closed_form([(1, 1), (Fraction(1, 2), 3), (7, 2)], 8)
    # window below the offset never meets the support
    for D in (1, 3, 6):
        for r in range(D):
            rep = delta_number_space(HeisenbergTriple(mu=2, nu=3, Delta=D, r=r))
            assert rep.delta == 0


def test_delta_number_space_memo_independent_of_call_order():
    # three exact columns, one more than the memo holds, radii below and
    # above each offset
    columns = [(Fraction(2), Fraction(3), 0), (Fraction(2), Fraction(3), 4), (Fraction(1, 2), Fraction(5), 2)]
    cells = [(col, r) for col in columns for r in range(12)]
    random.Random(12).shuffle(cells)
    got = {}
    for (mu, nu, D), r in cells:
        got[(mu, nu, D), r] = delta_number_space(HeisenbergTriple(mu, nu, D, r))
    for ((mu, nu, D), r), rep in got.items():
        heisenberg._number_column.cache_clear()
        assert rep == delta_number_space(HeisenbergTriple(mu, nu, D, r)), ((mu, nu, D), r)


def test_delta_number_space_float_path_tracks_exact():
    for D in (0, 1, 4):
        for r in (0, 3, 11):
            exact = delta_number_space(HeisenbergTriple(mu=Fraction(2), nu=Fraction(3), Delta=D, r=r))
            approx = delta_number_space(HeisenbergTriple(mu=2.0, nu=3.0, Delta=D, r=r))
            assert isinstance(exact.delta, Fraction)
            assert isinstance(approx.delta, float)
            assert abs(approx.delta - float(exact.delta)) < 1e-14


def test_delta_number_space_float_path_stays_in_range():
    # C(1200, 400) overflows a float and y^401 underflows one at mu=50,
    # nu=1/2; the term-ratio sum needs neither
    exact = delta_number_space(HeisenbergTriple(mu=Fraction(2), nu=Fraction(1), Delta=400, r=1200))
    approx = delta_number_space(HeisenbergTriple(mu=2.0, nu=1.0, Delta=400, r=1200))
    assert float(exact.delta) == 0.49457340739976025
    assert abs(approx.delta - float(exact.delta)) < 1e-12
    tiny = delta_number_space(HeisenbergTriple(mu=50.0, nu=0.5, Delta=400, r=3000)).delta
    assert 0 <= tiny <= 1
    exact = delta_number_space(
        HeisenbergTriple(mu=Fraction(50), nu=Fraction(1, 2), Delta=400, r=3000)
    )
    assert tiny == pytest.approx(float(exact.delta), rel=1e-10)


def test_epsilon_heisenberg_piecewise():
    # aligned multiplicity-one case: linear bound, exact
    assert epsilon_heisenberg(HeisenbergTriple(mu=1, nu=1, Delta=0, r=0)) == 1
    assert epsilon_heisenberg(HeisenbergTriple(mu=50, nu=50, Delta=0, r=3)) == Fraction(1, 2)
    # odd radius keeps the square root rational
    val = epsilon_heisenberg(HeisenbergTriple(mu=1, nu=3, Delta=0, r=5))
    assert val == 2 * Fraction(1, 4) ** 3
    # even radius and positive offsets fall back to floats
    even = epsilon_heisenberg(HeisenbergTriple(mu=1, nu=1, Delta=0, r=2))
    assert even == pytest.approx(2 * 0.125**0.5)
    off = epsilon_heisenberg(HeisenbergTriple(mu=1, nu=1, Delta=2, r=4))
    rep = delta_number_space(HeisenbergTriple(mu=1, nu=1, Delta=2, r=4))
    assert off == pytest.approx(2 * (1 - float(rep.delta)) ** 0.5)


def test_coherent_bound():
    assert coherent_bound(100, 10, 0) == Fraction(1, 5)
    assert coherent_bound(100, 10, 3) == Fraction(1, 50)
    assert coherent_bound(2, 1, 0) == 1
    t = HeisenbergTriple(mu=Fraction(12), nu=Fraction(132), Delta=0, r=9)
    assert coherent_bound(144, 12, 9) == epsilon_heisenberg(t)
    with pytest.raises(ValueError):
        coherent_bound(10, 0, 0)
    with pytest.raises(ValueError):
        coherent_bound(10, 10, 0)
    with pytest.raises(ValueError):
        coherent_bound(10, 11, 0)


def test_delta_report_range():
    with pytest.raises(ValueError, match="delta out of range"):
        DeltaReport.from_delta(Fraction(3, 2), "f", "psi")
    with pytest.raises(ValueError, match="delta out of range"):
        DeltaReport.from_delta(1.1, "f", "psi")
    rep = DeltaReport.from_delta(-1e-13, "f", "psi")  # roundoff below 0 is clamped
    assert rep.delta == 0.0 and isinstance(rep.delta, float)
    assert (rep.bound_linear, rep.bound_sqrt) == (2.0, 2.0)
