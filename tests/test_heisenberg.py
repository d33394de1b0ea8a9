"""Oscillator-pair overlaps: number-space windows and coherent splitting."""

import random
from decimal import Context, Decimal
from fractions import Fraction
from math import comb, sqrt

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


def test_mode_weights_must_be_positive():
    # alpha_weight(1, 2, -1, 3) used to return 9/8
    for call in (
        lambda: alpha_weight(1, 2, -1, 3),
        lambda: alpha_weight(0, 0, 1, 0),
        lambda: alpha_weight(2, 1, -1.0, 2.0),
        lambda: alpha_coeff(2, 1, 0, 1),
        lambda: alpha_coeff(2, 1, Fraction(1, 2), Fraction(-1, 3)),
        lambda: alpha_weight_tail_bound(0, 0, -1, 3),
        lambda: alpha_weight_tail_bound(1, 4, 2.0, float("nan")),
    ):
        with pytest.raises(ValueError, match="mode weights must be positive"):
            call()


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


def test_integer_kernels_match_termwise_sum():
    # every exact closed form against its per-term Fraction sum, for value
    # and type, with the calls shuffled so the window memo is extended,
    # restarted and evicted in every order
    weights = (1, 2, Fraction(1, 2), Fraction(2, 3), Fraction(5, 7), 50)
    r_max = 60
    window = {}  # (mu, nu, D) -> [sum_{n<=m} C(n+D, D) x^n for m = 0..r_max]
    for mu in weights:
        for nu in weights:
            x = Fraction(mu) / (mu + nu)
            for D in range(6):
                total, sums = Fraction(0), []
                for n in range(r_max + 1):
                    total += comb(n + D, D) * x**n
                    sums.append(total)
                window[mu, nu, D] = sums
    cells = [(col, r) for col in window for r in range(r_max + 1)]
    random.Random(8).shuffle(cells)
    for (mu, nu, D), r in cells:
        x, y = Fraction(mu) / (mu + nu), Fraction(nu) / (mu + nu)
        delta = y ** (D + 1) * window[mu, nu, D][r - D] if r >= D else Fraction(0)
        t = HeisenbergTriple(mu, nu, D, r)
        rep = delta_number_space(t)
        assert rep.delta == delta and type(rep.delta) is Fraction, (mu, nu, D, r)
        eps = epsilon_heisenberg(t)
        if D == 0 and r == 0:
            assert eps == 2 * (1 - delta) and type(eps) is Fraction, (mu, nu, D, r)
        elif D == 0 and r % 2:
            assert eps == 2 * x ** ((r + 1) // 2) and type(eps) is Fraction, (mu, nu, D, r)
            assert (eps / 2) ** 2 == 1 - delta
        else:
            assert eps == 2.0 * sqrt(float(1 - delta)) and type(eps) is float, (mu, nu, D, r)
        weight = alpha_weight(D, r, mu, nu)
        assert weight == y**D * comb(r + D, D) * x**r and type(weight) is Fraction, (mu, nu, D, r)
        if r <= D:
            coeff = alpha_coeff(D, r, mu, nu)
            want = comb(D, r) * Fraction(mu) ** r * Fraction(nu) ** (D - r) / Fraction(mu + nu) ** D
            assert coeff == want and type(coeff) is Fraction, (mu, nu, D, r)


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


def test_epsilon_heisenberg_telescoped_branch_skips_window_sum(monkeypatch):
    # exact inputs with Delta = 0 return the telescoped 2 x at r = 0 and
    # 2 x^((r+1)/2) otherwise without summing the window; the other
    # branches still need the sum
    expected = {
        r: epsilon_heisenberg(HeisenbergTriple(mu=1, nu=3, Delta=0, r=r)) for r in (0, 1, 2, 5, 40)
    }

    def fail(t):
        raise AssertionError(f"window summed for {t}")

    monkeypatch.setattr(heisenberg, "delta_number_space", fail)
    for r, value in expected.items():
        got = epsilon_heisenberg(HeisenbergTriple(mu=1, nu=3, Delta=0, r=r))
        assert got == value and type(got) is type(value)
    assert epsilon_heisenberg(HeisenbergTriple(mu=1, nu=3, Delta=0, r=5)) == Fraction(1, 32)
    got = epsilon_heisenberg(HeisenbergTriple(mu=1, nu=3, Delta=0, r=0))
    assert got == Fraction(1, 2) and type(got) is Fraction
    # float inputs sum 1 - delta as a binomial tail, never the window
    got = epsilon_heisenberg(HeisenbergTriple(mu=1.0, nu=3.0, Delta=0, r=5))
    assert got == pytest.approx(1 / 32, rel=1e-14)
    for t in (
        HeisenbergTriple(mu=1, nu=3, Delta=1, r=5),
        HeisenbergTriple(mu=1.0, nu=3.0, Delta=0, r=0),
    ):
        with pytest.raises(AssertionError, match="window summed"):
            epsilon_heisenberg(t)


def test_epsilon_heisenberg_below_float_range():
    # at x = 1/2 and even r the bound is 2 sqrt(x^(r+1)); x^(r+1) itself
    # leaves the float range (2^-1074) from r = 1074 on, the bound does not
    ctx = Context(prec=40)
    for r in (2, 1072, 1074, 1100, 2000):
        got = epsilon_heisenberg(HeisenbergTriple(mu=1, nu=1, Delta=0, r=r))
        want = 2 * ctx.sqrt(ctx.power(Decimal(2), -(r + 1)))
        assert type(got) is float and got > 0, r
        assert abs(Decimal(got) / want - 1) <= Decimal("1e-12"), r
    # with Delta > 0 the bound is 2 sqrt(1 - delta) of the exact window sum
    for r in (1100, 2000):
        t = HeisenbergTriple(mu=1, nu=1, Delta=1, r=r)
        gap = 1 - delta_number_space(t).delta
        want = 2 * ctx.sqrt(ctx.divide(Decimal(gap.numerator), Decimal(gap.denominator)))
        got = epsilon_heisenberg(t)
        assert got > 0 and abs(Decimal(got) / want - 1) <= Decimal("1e-12"), r


def test_epsilon_heisenberg_float_path_past_float_delta():
    # once 1 - delta is below the float spacing near 1 the float delta
    # rounds to 1; the float bound never forms delta, it sums 1 - delta
    for D in (0, 1, 3):
        for r in (40, 55, 60, 100, 200):
            got = epsilon_heisenberg(HeisenbergTriple(mu=0.5, nu=0.5, Delta=D, r=r))
            want = float(epsilon_heisenberg(HeisenbergTriple(Fraction(1, 2), Fraction(1, 2), D, r)))
            assert type(got) is float and got == pytest.approx(want, rel=1e-12, abs=0), (D, r)
    # away from x = 1/2, and with an empty window (r < Delta, so delta = 0)
    for mu, nu, D, r in ((3, 7, 2, 5), (99, 1, 4, 30), (1, 99, 3, 30), (1, 1, 5, 2)):
        got = epsilon_heisenberg(HeisenbergTriple(float(mu), float(nu), D, r))
        want = float(epsilon_heisenberg(HeisenbergTriple(Fraction(mu), Fraction(nu), D, r)))
        assert type(got) is float and got == pytest.approx(want, rel=1e-13, abs=0), (mu, nu, D, r)
    # x = 1e-200: every term underflows and the bound, about 2e-4100, is 0.0
    assert epsilon_heisenberg(HeisenbergTriple(1e-200, 1.0, 0, 40)) == 0.0
    assert epsilon_heisenberg(HeisenbergTriple(1e-200, 1.0, 3, 40)) == 0.0


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
