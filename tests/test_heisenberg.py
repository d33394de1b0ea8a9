"""Oscillator-pair overlaps: number-space windows and coherent splitting."""

import copy
import pickle
import random
import struct
import sys
import time
from decimal import Context, Decimal
from fractions import Fraction
from math import comb, inf, nextafter, sqrt, ulp

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
from definetti.report import DeltaReport, _sqrt_float


def _window_delta(mu, nu, D, r):
    """Reference delta by the window sum: with mu/nu = p/q in lowest terms
    and s = p + q, A_{c+1} = A_c s + C(c+D, D) p^c over the c = r - D + 1
    window terms, and delta = q^(D+1) A_c / s^(D+c)."""
    ratio = Fraction(mu) / Fraction(nu)
    p, q = ratio.numerator, ratio.denominator
    s, count = p + q, max(r - D + 1, 0)
    total, p_pow = 0, 1
    for c in range(count):
        total = total * s + comb(c + D, D) * p_pow
        p_pow *= p
    return Fraction(q ** (D + 1) * total, s ** (D + count))


def test_triple_validation():
    t = HeisenbergTriple(mu=Fraction(1, 2), nu=2, Delta=3, r=1)
    assert t.is_exact
    assert not HeisenbergTriple(mu=0.5, nu=2, Delta=0, r=0).is_exact
    for kwargs, error, message in (
        ({"mu": 0, "nu": 1, "Delta": 0, "r": 0}, ValueError, "mode weights must be positive, got mu=0, nu=1"),
        ({"mu": 1, "nu": -2, "Delta": 0, "r": 0}, ValueError, "mode weights must be positive, got mu=1, nu=-2"),
        ({"mu": True, "nu": 1, "Delta": 0, "r": 0}, TypeError, "mode weights must be numbers"),
        ({"mu": 1, "nu": 1, "Delta": -1, "r": 0}, ValueError, "need an integer offset Delta >= 0, got -1"),
        ({"mu": 1, "nu": 1, "Delta": 0.5, "r": 0}, ValueError, "need an integer offset Delta >= 0, got 0.5"),
        ({"mu": 1, "nu": 1, "Delta": 0, "r": -1}, ValueError, "need an integer radius r >= 0, got -1"),
    ):
        with pytest.raises(error) as info:
            HeisenbergTriple(**kwargs)
        assert str(info.value) == message, kwargs
    with pytest.raises(TypeError):
        HeisenbergTriple(mu="1", nu=1, Delta=0, r=0)


def test_triple_value_semantics():
    t = HeisenbergTriple(mu=Fraction(1, 2), nu=2, Delta=3, r=1)
    assert repr(t) == "HeisenbergTriple(mu=Fraction(1, 2), nu=2, Delta=3, r=1)"
    assert t == HeisenbergTriple(Fraction(1, 2), 2, 3, 1)
    assert t != HeisenbergTriple(Fraction(1, 2), 2, 3, 2)
    assert t != (Fraction(1, 2), 2, 3, 1)
    assert hash(t) == hash((Fraction(1, 2), 2, 3, 1))
    with pytest.raises(AttributeError):
        t.r = 2
    with pytest.raises(AttributeError):
        del t.mu
    for u in (t, HeisenbergTriple(mu=0.5, nu=2.0, Delta=0, r=7)):
        assert pickle.loads(pickle.dumps(u)) == u
        assert copy.deepcopy(u) == u and copy.deepcopy(u).is_exact == u.is_exact


def test_alpha_coeff():
    assert alpha_coeff(2, 1, 1, 1) == Fraction(1, 2)
    assert alpha_coeff(0, 0, 3, 4) == 1
    verify.mass_identities([(Fraction(2), Fraction(5))], 7)
    with pytest.raises(ValueError):
        alpha_coeff(2, 3, 1, 1)
    with pytest.raises(ValueError):
        alpha_coeff(2, -1, 1, 1)


def test_mass_check_sees_a_shifted_number_weight(monkeypatch):
    weight = heisenberg.alpha_weight
    monkeypatch.setattr(heisenberg, "alpha_weight", lambda D, n, mu, nu: weight(D, n + 1, mu, nu))
    with pytest.raises(AssertionError, match=r"^tail 1\.000e\+00 outside \[0, "):
        verify.mass_identities([(Fraction(2), Fraction(7))], 0)


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
    # exact weights give an exact bound, which 400 terms of the tail stay
    # under; float weights give its float, rounded once
    for D, start, mu, nu in [(0, 0, 1, 9), (2, 5, 1, 3), (4, 12, 2, 3)]:
        cap = alpha_weight_tail_bound(D, start, mu, nu)
        assert isinstance(cap, Fraction)
        assert sum(alpha_weight(D, n, mu, nu) for n in range(start, start + 400)) < cap
        assert alpha_weight_tail_bound(D, start, float(mu), float(nu)) == float(cap)
    # at Delta = 0 the tail is geometric, and the bound its sum x^start / (1 - x)
    assert alpha_weight_tail_bound(0, 3, 1, 9) == Fraction(1, 10) ** 3 / Fraction(9, 10)
    with pytest.raises(ValueError, match=r"^tail not yet geometric at start=0 \(ratio 3\.000 >= 1\)$"):
        alpha_weight_tail_bound(5, 0, 1, 1)


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


def test_integer_kernels_match_termwise_sum():
    # every exact closed form against its per-term Fraction sum, for value
    # and type, with the calls shuffled so that no value can depend on the
    # order of the calls
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
            # the root of the Fraction 1 - delta, rounded once
            assert _is_rounded_root(eps / 2, 1 - delta) and type(eps) is float, (mu, nu, D, r)
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
    # nu=1/2; the integer tail needs neither
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
    # a gap that is a perfect square, 1 - delta = (1 + 8) / 2^8 = 9/256,
    # still gives a float at Delta > 0
    assert 1 - delta_number_space(HeisenbergTriple(1, 1, 1, 7)).delta == Fraction(9, 256)
    square = epsilon_heisenberg(HeisenbergTriple(1, 1, 1, 7))
    assert type(square) is float and square == 0.375


def test_epsilon_heisenberg_exact_inputs_skip_window_sum(monkeypatch):
    # exact inputs take 1 - delta from the binomial tail of Delta + 1
    # terms: the telescoped 2 x at Delta = r = 0, 2 x^((r+1)/2) at
    # Delta = 0 and odd r, and a float of the tail otherwise
    exact = [
        HeisenbergTriple(mu=1, nu=3, Delta=D, r=r) for D in (0, 1, 4) for r in (0, 1, 2, 5, 40)
    ]
    expected = [epsilon_heisenberg(t) for t in exact]

    def fail(t):
        raise AssertionError(f"window summed for {t}")

    monkeypatch.setattr(heisenberg, "delta_number_space", fail)
    for t, value in zip(exact, expected):
        got = epsilon_heisenberg(t)
        assert got == value and type(got) is type(value), t
    assert epsilon_heisenberg(HeisenbergTriple(mu=1, nu=3, Delta=0, r=5)) == Fraction(1, 32)
    got = epsilon_heisenberg(HeisenbergTriple(mu=1, nu=3, Delta=0, r=0))
    assert got == Fraction(1, 2) and type(got) is Fraction
    # float inputs take the same integers, Delta = r = 0 included, and
    # never read delta either: each is the float of the exact bound
    for t, value in zip(exact, expected):
        got = epsilon_heisenberg(HeisenbergTriple(float(t.mu), float(t.nu), t.Delta, t.r))
        assert got == float(value) and type(got) is float, t
    # 40,001 window terms of ~265,000 bits, which the window sum takes
    # about a second for: the Delta + 1 = 4 tail terms take a tenth of it
    got = epsilon_heisenberg(HeisenbergTriple(99, 1, 3, 40000))
    # 1 - delta = sum_{k<=3} C(40001, k) 0.99^(40001-k) 0.01^k
    ctx = Context(prec=40)
    gap = sum(
        comb(40001, k) * ctx.power(Decimal("0.99"), 40001 - k) * ctx.power(Decimal("0.01"), k)
        for k in range(4)
    )
    assert type(got) is float and abs(Decimal(got) / (2 * ctx.sqrt(gap)) - 1) <= Decimal("1e-14")


def test_epsilon_heisenberg_tail_equals_window_sum():
    # the tail is 2 sqrt(1 - delta) of the reference window sum, bit for
    # bit, since both reduce to the same Fraction before the root
    for mu, nu in ((1, 3), (99, 1), (Fraction(2, 3), Fraction(5, 7))):
        for D in (1, 3, 10):
            for r in (100, 1000, 5000):
                t = HeisenbergTriple(mu, nu, D, r)
                window = _window_delta(mu, nu, D, r)
                got = epsilon_heisenberg(t)
                gap = 1 - window
                want = 2.0 * _sqrt_float(gap.numerator, gap.denominator)
                assert type(got) is float and got == want, (mu, nu, D, r)
                assert delta_number_space(t).delta == window, (mu, nu, D, r)


def test_delta_number_space_cold_cell_in_under_a_second():
    # 40,001 window terms of ~265,000 bits took the window sum 1.4-1.7 s;
    # the tail has Delta + 1 = 4 terms
    t = HeisenbergTriple(99, 1, 3, 40000)
    start = time.perf_counter()
    delta = delta_number_space(t).delta
    assert time.perf_counter() - start < 1.0
    n = 40001
    tail = sum(comb(n, k) * 99 ** (n - k) for k in range(4))
    assert type(delta) is Fraction and delta == 1 - Fraction(tail, 100**n)


def test_delta_number_space_equals_window_sum_at_large_radius():
    t = HeisenbergTriple(99, 1, 3, 10**4)
    assert delta_number_space(t).delta == _window_delta(99, 1, 3, 10**4)


def test_tail_either_side_of_the_shorter_side_choice():
    # T sums the Delta + 1 terms below Delta while 2 Delta + 1 <= n, and
    # s^n less the n - Delta terms above it past that: both sides, and the
    # tie 2 Delta + 1 = n, against the termwise tail and the window sum
    for mu, nu in ((1, 1), (1, 3), (99, 1), (Fraction(2, 3), Fraction(5, 7))):
        ratio = Fraction(mu) / Fraction(nu)
        p, q = ratio.numerator, ratio.denominator
        for D in (0, 1, 2, 7, 40):
            for n in (2 * D, 2 * D + 1, 2 * D + 2):
                if n == 0:
                    continue
                termwise = sum(comb(n, k) * q**k * p ** (n - k) for k in range(min(D, n) + 1))
                assert heisenberg._tail(p, q, D, n) == termwise, (p, q, D, n)
                t = HeisenbergTriple(mu, nu, D, n - 1)
                assert delta_number_space(t).delta == _window_delta(mu, nu, D, n - 1), (mu, nu, D, n)
                want = 2.0 * _sqrt_float(termwise, (p + q) ** n)
                if D:
                    assert epsilon_heisenberg(t) == want, (mu, nu, D, n)


def test_delta_number_space_at_offset_equal_to_radius_takes_no_step():
    # at Delta = r the window is one term, delta = y^(r+1); the tail's
    # upper side has none to sum, where its lower side would step 10^5 times
    r = 10**5
    start = time.perf_counter()
    delta = delta_number_space(HeisenbergTriple(1, 1, r, r)).delta
    assert time.perf_counter() - start < 0.2
    assert delta == Fraction(1, 2 ** (r + 1))


def test_epsilon_heisenberg_below_float_range():
    # at x = 1/2 and even r the bound is 2 sqrt(x^(r+1)); x^(r+1) itself
    # leaves the float range (2^-1074) from r = 1074 on, the bound does not
    ctx = Context(prec=40)
    for r in (2, 1072, 1074, 1100, 2000):
        got = epsilon_heisenberg(HeisenbergTriple(mu=1, nu=1, Delta=0, r=r))
        want = 2 * ctx.sqrt(ctx.power(Decimal(2), -(r + 1)))
        assert type(got) is float and got > 0, r
        assert abs(Decimal(got) / want - 1) <= Decimal("1e-12"), r
    # with Delta > 0 the bound is 2 sqrt(1 - delta) of the reference window sum
    for r in (1100, 2000):
        t = HeisenbergTriple(mu=1, nu=1, Delta=1, r=r)
        gap = 1 - _window_delta(1, 1, 1, r)
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
    # away from x = 1/2, with an empty window (r < Delta, so delta = 0), and
    # at weights whose coprime integers are near 2^55, far out in r
    for mu, nu, D, r in (
        (3, 7, 2, 5), (99, 1, 4, 30), (1, 99, 3, 30), (1, 1, 5, 2),
        (0.3, 0.7, 2, 1000), (0.99, 0.01, 3, 2000), (123.456, 0.789, 5, 3000),
    ):
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


def _coherent_through_a_triple(n, k, r):
    """coherent_bound as it was before it checked (n, k, r) itself: the
    bound of the triple (k, n - k, 0, r)."""
    if not 0 < k < n:
        raise ValueError(f"need 0 < k < n, got k={k}, n={n}")
    if k.__class__ is n.__class__ is int:
        mu, nu = k, n - k
    else:
        mu, nu = Fraction(k), Fraction(n - k)
    return epsilon_heisenberg(HeisenbergTriple(mu=mu, nu=nu, Delta=0, r=r))


def _result_or_refusal(fn, *args):
    try:
        got = fn(*args)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return type(got), got


def test_coherent_bound_equals_the_bound_of_its_triple():
    cells = 0
    for n in range(2, 61):
        ks = [*range(1, n), True]
        ks += [Fraction(2 * j + 1, 2) for j in range(n - 1)] + [j + 0.5 for j in range(n - 1)]
        for k in ks:
            for r in range(8):
                got = coherent_bound(n, k, r)
                want = _coherent_through_a_triple(n, k, r)
                assert got == want and type(got) is type(want), (n, k, r)
                cells += 1
    assert cells == 8 * sum(3 * (n - 1) + 1 for n in range(2, 61))
    # the refusals, and which of two bad arguments is named
    for n, k in ((10, 0), (10, 10), (10, 11), (10, -1), (10, 0.0), (10, Fraction(10)), (10, 3), (2, True)):
        for r in (0, 3, -1, 1.5, 2.0, Fraction(1), None, True):
            got = _result_or_refusal(coherent_bound, n, k, r)
            assert got == _result_or_refusal(_coherent_through_a_triple, n, k, r), (n, k, r)


def test_coherent_check_catches_a_faulty_tail_and_a_wrong_type(monkeypatch):
    tail, bound = heisenberg._tail, heisenberg.coherent_bound

    def off_by_one(p, q, Delta, n):
        return tail(p, q, Delta, n) + (Delta == 0)

    assert verify.coherent_consistency(60, (0, 1, 2, 5)) == "splitting bound consistent up to n=60"
    # a reference built from epsilon_heisenberg would share this fault
    monkeypatch.setattr(heisenberg, "_tail", off_by_one)
    with pytest.raises(AssertionError, match=r"^coherent \(2, 1, 2\): "):
        verify.coherent_consistency(60, (0, 1, 2, 5))
    monkeypatch.undo()
    # equal in value, so only the type comparison sees it
    monkeypatch.setattr(heisenberg, "coherent_bound", lambda n, k, r: float(bound(n, k, r)))
    with pytest.raises(AssertionError, match=r"^coherent \(2, 1, 0\): 1.0 is not a Fraction$"):
        verify.coherent_consistency(60, (0, 1, 2, 5))


def test_delta_report_range():
    with pytest.raises(ValueError, match=r"^delta out of range: Fraction\(3, 2\)$"):
        DeltaReport.from_delta(Fraction(3, 2), "f", "psi")
    with pytest.raises(ValueError, match=r"^delta out of range: 1.1$"):
        DeltaReport.from_delta(1.1, "f", "psi")
    rep = DeltaReport.from_delta(-1e-13, "f", "psi")  # roundoff below 0 is clamped
    assert rep.delta == 0.0 and isinstance(rep.delta, float)
    assert (rep.bound_linear, rep.bound_sqrt) == (2.0, 2.0)


def test_delta_report_value_semantics():
    rep = DeltaReport(delta=Fraction(2, 3), formula_id="f", psi_label="psi")
    assert repr(rep) == "DeltaReport(delta=Fraction(2, 3), formula_id='f', psi_label='psi')"
    # an exact delta is stored as a Fraction
    assert DeltaReport(1, "f", "psi").delta.__class__ is Fraction
    assert rep == DeltaReport.from_delta(Fraction(2, 3), "f", "psi")
    assert rep != DeltaReport(Fraction(2, 3), "f", "other")
    assert rep != (Fraction(2, 3), "f", "psi")
    assert hash(rep) == hash((Fraction(2, 3), "f", "psi"))
    with pytest.raises(AttributeError):
        rep.delta = Fraction(1, 3)
    with pytest.raises(AttributeError):
        del rep.psi_label
    for r in (rep, DeltaReport(0.25, "g", "phi")):
        assert pickle.loads(pickle.dumps(r)) == r
        assert copy.deepcopy(r) == r and copy.deepcopy(r).bound_sqrt == r.bound_sqrt


# float mode weights near the float range: each value is compared with the
# float of the exact evaluation at the Fractions the floats store
def _exact_float(fn, *args):
    return float(fn(*(Fraction(a) if isinstance(a, float) else a for a in args)))


def _assert_tracks_exact(got, want):
    assert type(got) is float and got == pytest.approx(want, rel=1e-12, abs=0)


def _triple_exact(mu, nu, D, r):
    return HeisenbergTriple(Fraction(mu), Fraction(nu), D, r)


def test_float_weights_whose_sum_overflows():
    # mu + nu = inf used to make delta raise a math domain error and the
    # bound nan
    t = HeisenbergTriple(1e308, 1e308, 2, 3)
    exact = _triple_exact(1e308, 1e308, 2, 3)
    assert float(delta_number_space(exact).delta) == 0.3125
    _assert_tracks_exact(delta_number_space(t).delta, 0.3125)
    _assert_tracks_exact(epsilon_heisenberg(t), float(epsilon_heisenberg(exact)))
    assert float(epsilon_heisenberg(exact)) == pytest.approx(1.6583123951777, rel=1e-12)


def test_float_weights_whose_ratio_underflows():
    # nu / (mu + nu) = 0.0 in floats used to raise a math domain error
    exact = float(delta_number_space(_triple_exact(1e300, 1e-300, 3, 10)).delta)
    assert exact == 0.0
    got = delta_number_space(HeisenbergTriple(1e300, 1e-300, 3, 10)).delta
    assert type(got) is float and got == 0.0


def test_alpha_weight_at_float_range_weights():
    # both used to return 0.0
    want = _exact_float(alpha_weight, 3, 5, 1e308, 1e308)
    assert want == 0.21875
    _assert_tracks_exact(alpha_weight(3, 5, 1e308, 1e308), want)
    _assert_tracks_exact(alpha_coeff(3, 1, 1e308, 1e308), _exact_float(alpha_coeff, 3, 1, 1e308, 1e308))
    _assert_tracks_exact(
        alpha_weight_tail_bound(3, 10, 1e308, 1e308), _exact_float(alpha_weight_tail_bound, 3, 10, 1e308, 1e308)
    )


def test_alpha_weight_with_binomial_beyond_floats():
    # C(1600, 400) is not a float; this used to raise OverflowError
    want = _exact_float(alpha_weight, 400, 1200, 2.0, 1.0)
    assert want == 9.009882496091974e-14
    _assert_tracks_exact(alpha_weight(400, 1200, 2.0, 1.0), want)
    _assert_tracks_exact(alpha_coeff(1600, 400, 2.0, 1.0), _exact_float(alpha_coeff, 1600, 400, 2.0, 1.0))
    # one rounding keeps float precision where x is near 1
    want = _exact_float(alpha_weight, 20, 3000, 0.99, 0.01)
    _assert_tracks_exact(alpha_weight(20, 3000, 0.99, 0.01), want)


def test_infinite_mode_weight_is_refused():
    # HeisenbergTriple(inf, 1.0, 0, 1) used to be accepted with bound nan
    inf = float("inf")
    for call, message in (
        (lambda: HeisenbergTriple(inf, 1.0, 0, 1), "mode weights must be finite, got mu=inf, nu=1.0"),
        (lambda: HeisenbergTriple(Fraction(2), inf, 0, 1), "mode weights must be finite, got mu=2, nu=inf"),
        (lambda: alpha_weight(1, 2, 1.0, inf), "mode weights must be finite, got mu=1.0, nu=inf"),
        (lambda: alpha_coeff(2, 1, inf, inf), "mode weights must be finite, got mu=inf, nu=inf"),
        (lambda: alpha_weight_tail_bound(0, 3, inf, 1), "mode weights must be finite, got mu=inf, nu=1"),
    ):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message


_FLOAT_WEIGHTS = (0.3, 0.7, 0.99, 0.01, 123.456, 0.789, 1.0, 2.0, 1e300, 1e-300, 1e-200)


def test_float_weights_give_the_exact_value_rounded_once():
    # every float result is float() of the same call at the Fractions the
    # floats store, bit for bit; r is drawn log-uniformly below 400 so that
    # the exact references at 1e300 against 1e-300 stay cheap
    rng = random.Random(18)
    for _ in range(160):
        mu, nu = rng.choice(_FLOAT_WEIGHTS), rng.choice(_FLOAT_WEIGHTS)
        D, r = rng.randrange(13), int(400 ** rng.random())
        t, exact = HeisenbergTriple(mu, nu, D, r), _triple_exact(mu, nu, D, r)
        cell = (mu, nu, D, r)
        pairs = [
            (delta_number_space(t).delta, delta_number_space(exact).delta),
            (epsilon_heisenberg(t), epsilon_heisenberg(exact)),
            (alpha_weight(D, r, mu, nu), alpha_weight(D, r, Fraction(mu), Fraction(nu))),
        ] + [
            (alpha_coeff(D, ell, mu, nu), alpha_coeff(D, ell, Fraction(mu), Fraction(nu)))
            for ell in range(D + 1)
        ]
        for got, want in pairs:
            assert type(got) is float and got == float(want), cell


def test_float_weights_run_the_exact_tail(monkeypatch):
    # a float triple makes the _tail calls of its exact twin, argument for
    # argument, so no second float algorithm can come back unnoticed
    calls = []
    tail = heisenberg._tail

    def counted(p, q, Delta, n):
        calls.append((p, q, Delta, n))
        return tail(p, q, Delta, n)

    monkeypatch.setattr(heisenberg, "_tail", counted)
    total = 0
    for mu, nu in ((0.5, 2.0), (0.3, 0.7), (1e300, 1e-300)):
        for D in (0, 1, 3):
            for r in (0, 1, 2, 3, 8):
                seen = []
                for u in (HeisenbergTriple(mu, nu, D, r), _triple_exact(mu, nu, D, r)):
                    calls.clear()
                    delta_number_space(u)
                    epsilon_heisenberg(u)
                    seen.append(list(calls))
                assert seen[0] == seen[1], (mu, nu, D, r)
                total += len(seen[0])
    assert total > 0


def test_sqrt_float_ignores_a_common_factor():
    # the bound passes unreduced parts; a shared factor moves the scale
    # 2^-m below the float range by one step, never the rounded root
    for num, den in ((1, 1), (9, 256), (1, 2**2001), (3, 2**3000 + 1), (7, 5**2000)):
        want = _sqrt_float(num, den)
        assert want == sqrt(num / den) or num / den < 2**-1022
        for k in (2, 3, 2**40 + 15, 10**30):
            assert _sqrt_float(k * num, k * den) == want, (num, den, k)


def _is_rounded_root(got: float, x: Fraction) -> bool:
    """Whether got is sqrt(x) rounded to nearest, ties to even: x lies
    strictly between the squares of the midpoints from got to its two
    neighbours, or on one of them when got's last bit is 0."""
    if not 0 <= got < inf:
        return False
    f = Fraction(got)
    lo = (f + Fraction(nextafter(got, 0.0))) / 2  # 0 at got = 0
    hi = f + Fraction(ulp(got)) / 2
    even = not struct.unpack("<Q", struct.pack("<d", got))[0] & 1
    return lo * lo < x < hi * hi or (x in (lo * lo, hi * hi) and even)


def _radicands(rng):
    """(num, den) at every scale: random sides; roots in and below the
    subnormal band; exact squares and ties m^2 4^e times a common factor;
    roots up to the float max."""
    for _ in range(12000):
        yield rng.getrandbits(rng.randint(1, 200)), rng.getrandbits(rng.randint(1, 200)) + 1
    for _ in range(3000):
        num = rng.getrandbits(rng.randint(1, 120)) + 1
        yield num, (rng.getrandbits(60) + 1) << (num.bit_length() + rng.randint(2000, 2110))
    for _ in range(3000):
        m, e, c = rng.getrandbits(rng.randint(1, 55)) | 1, rng.randint(-1080, 960), rng.randint(1, 2**40)
        yield (c * m * m << 2 * e, c) if e >= 0 else (c * m * m, c << -2 * e)
    for _ in range(2000):
        yield rng.getrandbits(rng.randint(1900, 2047)), rng.getrandbits(rng.randint(1, 40)) + 1
    top = 2**1024 - 2**970  # the midpoint from the float max to 2^1024
    yield from ((0, 1), (0, 3 << 5000), (1, 1 << 2148), (1, 1 << 2150), (1, (1 << 2150) - 1), (top * top - 1, 1))


def test_sqrt_float_is_the_correctly_rounded_root():
    # sqrt(num / den) rounds twice, and misses the correctly rounded root
    # on about one random radicand in eight
    cases = list(_radicands(random.Random(32)))
    assert len(cases) > 20000
    for num, den in cases:
        assert _is_rounded_root(_sqrt_float(num, den), Fraction(num, den)), (num, den)
    assert _sqrt_float(1, 1 << 2150) == 0.0 and _sqrt_float(1, (1 << 2150) - 1) == 2.0**-1074
    top = 2**1024 - 2**970
    assert _sqrt_float(top * top - 1, 1) == sys.float_info.max
    for num, den in ((top * top, 1), (2**2048, 1), (1 << 5000, 7)):
        with pytest.raises(OverflowError):
            _sqrt_float(num, den)


def test_bound_sqrt_is_the_rounded_root_of_the_exact_delta():
    # a float delta is read as the exact value it stores, as a Fraction is
    assert DeltaReport(6.384713381046937e-17, "f", "psi").bound_sqrt == 2.0
    rng = random.Random(9)
    for _ in range(2000):
        d = 10.0 ** rng.uniform(-20, 0)
        for delta in (d, Fraction(d)):
            assert _is_rounded_root(DeltaReport(delta, "f", "psi").bound_sqrt / 2, 1 - Fraction(d)), delta
