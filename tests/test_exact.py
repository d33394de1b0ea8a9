"""Exact radical arithmetic: square splitting, ExactReal, RadicalSum."""

import math
import random
import time
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from definetti import su2_cg
from definetti.exact import TRIAL_DIVISOR_BOUND, ExactReal, split_square
from definetti.radicals import RadicalSum, dot


def test_split_square_small_values():
    assert split_square(1) == (1, 1)
    assert split_square(2) == (1, 2)
    assert split_square(4) == (2, 1)
    assert split_square(8) == (2, 2)
    assert split_square(12) == (2, 3)
    assert split_square(360) == (6, 10)
    assert split_square(7 * 7 * 11) == (7, 11)


def test_split_square_reconstructs_and_is_squarefree():
    for n in range(1, 3000):
        a, f = split_square(n)
        assert a * a * f == n
        for p in range(2, math.isqrt(f) + 1):
            assert f % (p * p) != 0


def test_split_square_large_smooth():
    n = math.factorial(30) * math.factorial(17)
    a, f = split_square(n)
    assert a * a * f == n


def test_split_square_rejects_nonpositive():
    with pytest.raises(ValueError):
        split_square(0)
    with pytest.raises(ValueError):
        split_square(-4)


def _split(x):
    """(sign, coeff, core) of x as RadicalSum.from_exact splits it."""
    s = RadicalSum.from_exact(x)
    if not s:
        return 0, Fraction(0), 1
    ((core, q),) = s._terms.items()
    return s.sign(), abs(q), core


def test_split_square_stops_at_the_trial_divisor_bound():
    """Two ~40-bit prime factors: the unfactored part stays above the
    square of every trial divisor up to 2**20.  Without the bound this
    input runs for a long time (a ~10**33 one ran for 270 s); with it
    split_square raises after ~2**19 trial divisions, well within a
    second.  An ExactReal never factors its radicand; RadicalSum splits
    it, so that is where the bound shows."""
    assert TRIAL_DIVISOR_BOUND == 2**20
    p, q = 2**40 - 87, 2**40 - 167
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="no prime factor up to 1048576"):
        split_square(p * q)
    with pytest.raises(ValueError, match="no prime factor up to 1048576"):
        RadicalSum.sqrt(Fraction(3, p * q))
    assert time.perf_counter() - t0 < 1.0
    # a prime below 2**40 ends the loop at its square root, and a prime
    # factor just below the bound is still found
    assert split_square(2**39 - 7) == (1, 2**39 - 7)
    assert split_square((2**20 - 3) ** 2 * (2**39 - 7)) == (2**20 - 3, 2**39 - 7)
    # a leftover square needs no trial division past its smallest prime
    assert split_square(6 * p * p) == (p, 6)


def test_exact_real_needs_no_split_until_core_is_read():
    # two ~40-bit primes: split_square gives up on p * q, and nothing but
    # RadicalSum, which reads the squarefree core, may ask it to
    p, q = 2**40 - 87, 2**40 - 167
    x = ExactReal.from_square(-1, 3 * 6, 2 * p * q)  # -sqrt(9 / (p q))
    y = ExactReal.sqrt(Fraction(9, p * q))
    assert x == -y and x != y and hash(-x) == hash(y)
    assert x.square() == y.square() == Fraction(9, p * q)
    assert y * y == ExactReal.of(Fraction(9, p * q)) and (x * y).sign == -1
    assert x * ExactReal.sqrt(p * q) == ExactReal.of(-3)
    assert float(y) == pytest.approx(3 / math.sqrt(p * q), rel=1e-15)
    assert repr(x) == f"ExactReal(-sqrt(9/{p * q}))"
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="no prime factor up to 1048576"):
        RadicalSum.from_exact(y)
    assert time.perf_counter() - t0 < 1.0
    # the split factors the whole square p^2 q: a rational factor is not
    # kept apart, so this split raises although sqrt(q) alone splits
    z = ExactReal.of(p) * ExactReal.sqrt(q)
    assert z.square() == p * p * q and z == ExactReal.from_square(1, p * p * q, 1)
    assert repr(z) == f"ExactReal(sqrt({p * p * q}))"
    assert _split(ExactReal.sqrt(q)) == (1, 1, q)
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="no prime factor up to 1048576"):
        RadicalSum.from_exact(z)
    assert time.perf_counter() - t0 < 1.0


def test_exact_real_canonical_form():
    # an ExactReal is its sign and its square in lowest terms; RadicalSum
    # splits that square into coeff * sqrt(core), core squarefree
    x = ExactReal.sqrt(8)
    assert _split(x) == (1, Fraction(2), 2)
    assert x.square() == 8 and repr(x) == "ExactReal(sqrt(8))"
    y = ExactReal.sqrt(Fraction(4, 9))
    assert _split(y) == (1, Fraction(2, 3), 1)
    assert repr(-y) == "ExactReal(-sqrt(4/9))"
    z = ExactReal.sqrt(Fraction(1, 2))
    # 1/sqrt(2) = (1/2) * sqrt(2)
    assert _split(z) == (1, Fraction(1, 2), 2)
    assert z.square() == Fraction(1, 2)
    assert repr(ExactReal.zero()) == "ExactReal(0)"
    # repr factors nothing, and names a side too long to print by its
    # digit count
    assert repr(ExactReal.of(Fraction(-(10**2200), 3))) == "ExactReal(-sqrt(a 4401-digit integer/9))"


def test_exact_real_from_square():
    # zero
    z = ExactReal.from_square(0, 0, 7)
    assert (z.sign, z.square()) == (0, 0) and _split(z) == (0, Fraction(0), 1)
    assert z == ExactReal.zero()
    # a perfect square: -sqrt(36/25) = -6/5
    x = ExactReal.from_square(-1, 36, 25)
    assert _split(x) == (-1, Fraction(6, 5), 1)
    # non-reduced num/den: without the gcd step, splitting 8 = 2^2 * 2 and
    # 2 apart would give the core 2 * 2 = 4, which is not squarefree
    w = ExactReal.from_square(1, 8, 2)
    assert w.square() == 4 and _split(w) == (1, Fraction(2), 1)
    v = ExactReal.from_square(1, 2 * 3 * 50, 3 * 49 * 2)  # 50/49
    assert v.square() == Fraction(50, 49) and _split(v) == (1, Fraction(5, 7), 2)
    assert v == ExactReal(1, Fraction(50, 49)) == ExactReal.sqrt(Fraction(50, 49))
    assert ExactReal.from_square(1, 45, 1) == ExactReal.of(3) * ExactReal.sqrt(5)
    for bad in ((1, -4, 1), (1, 4, 0), (1, 4, -1), (2, 4, 1), (0, 4, 1), (1, 0, 1)):
        with pytest.raises(ValueError):
            ExactReal.from_square(*bad)


def test_exact_real_equality_and_hash():
    two_r2 = ExactReal.of(2) * ExactReal.sqrt(2)
    assert ExactReal.sqrt(8) == two_r2
    assert ExactReal.of(Fraction(2, 3)) == ExactReal.sqrt(Fraction(4, 9))
    assert ExactReal.sqrt(2) != ExactReal.sqrt(3)
    assert hash(ExactReal.sqrt(8)) == hash(two_r2)
    assert ExactReal.of(5) == Fraction(5)
    assert ExactReal.zero() == 0


def test_exact_real_ne_is_not_eq_for_every_operand():
    # __ne__ compares the stored triples directly; for any other operand it
    # must still answer as not ==, and leave str to the other side
    rng = random.Random(29)
    values = [ExactReal.zero(), ExactReal.of(2), ExactReal.sqrt(2), -ExactReal.sqrt(Fraction(3, 7))]
    for _ in range(40):
        num, den = rng.randrange(0, 30), rng.randrange(1, 30)
        values.append(ExactReal.from_square(rng.choice((-1, 1)) if num else 0, num, den))
    others = values + [0, 2, -3, Fraction(1, 2), Fraction(-4, 9), 2.0, 0.5, float("nan"), "2", "x"]
    for _ in range(2000):
        x, y = rng.choice(values), rng.choice(others)
        assert (x != y) is (not (x == y)), (x, y)
        assert (y != x) is (not (y == x)), (y, x)
    assert ExactReal.of(2).__ne__("2") is NotImplemented
    assert ExactReal.of(2).__ne__(2.0) is NotImplemented
    assert ExactReal.of(2).__ne__(2) is False and ExactReal.of(2).__ne__(Fraction(3)) is True


def test_exact_real_multiplication():
    r2, r3 = ExactReal.sqrt(2), ExactReal.sqrt(3)
    assert r2 * r3 == ExactReal.sqrt(6)
    assert r2 * r2 == ExactReal.of(2)
    assert r2 * ExactReal.sqrt(8) == ExactReal.of(4)
    assert (-r2) * r3 == -ExactReal.sqrt(6)
    assert r2 * 0 == ExactReal.zero()
    assert 3 * r2 == ExactReal.sqrt(18)
    assert Fraction(1, 2) * r2 == ExactReal.sqrt(Fraction(1, 2))


def test_exact_real_square_and_value():
    x = ExactReal.of(Fraction(-3, 4)) * ExactReal.sqrt(5)
    assert x.sign == -1
    assert x.square() == Fraction(45, 16)
    assert x.value() == pytest.approx(-0.75 * math.sqrt(5))
    assert float(ExactReal.zero()) == 0.0
    assert not ExactReal.zero()
    assert ExactReal.sqrt(2)


def test_exact_real_value_past_the_float_range_below():
    # the square lies below 2^-1074: the root is a normal float all the same
    c = su2_cg.cg(300, 300, 300, -300, 600, 0)
    sq = c.square()
    with localcontext() as ctx:
        ctx.prec = 60
        want = float((Decimal(sq.numerator) / Decimal(sq.denominator)).sqrt())
    assert want == pytest.approx(1.588e-180, rel=1e-3)
    assert abs(float(c) - want) <= math.ulp(want)


def test_exact_real_value_past_the_float_range_above():
    # the square lies above 2^1024
    assert abs(float(ExactReal.of(10**200)) - 1e200) <= math.ulp(1e200)
    assert float(ExactReal.of(-(2**600))) == -(2.0**600)
    assert float(ExactReal.sqrt(Fraction(2**2001, 3))) == pytest.approx(math.sqrt(2 / 3) * 2.0**1000, rel=1e-15)
    # a root past the float range still overflows
    with pytest.raises(OverflowError):
        float(ExactReal.of(10**400))


def test_exact_real_validation():
    with pytest.raises(ValueError):
        ExactReal(2, 5)
    with pytest.raises(ValueError):
        ExactReal(0, 5)
    with pytest.raises(ValueError):
        ExactReal(1, 0)
    with pytest.raises(ValueError):
        ExactReal(1, -3)
    with pytest.raises(ValueError):
        ExactReal.sqrt(-1)
    assert ExactReal(-1, Fraction(9, 4)) == ExactReal.of(Fraction(-3, 2))


def test_over_long_radicand_and_sign_are_named_by_their_digit_count():
    # formatting them whole raised the interpreter's int-to-str error
    with pytest.raises(ValueError, match=r"^radicand must be nonnegative, got a negative 5001-digit integer/1$"):
        ExactReal.from_square(1, -(10**5000), 1)
    with pytest.raises(ValueError, match=r"^sign must be -1, 0 or \+1, got a 5001-digit integer$"):
        ExactReal.from_square(10**5000, 1, 1)


def test_exact_real_float_consistency():
    vals = [
        ExactReal.of(Fraction(p, q)) * ExactReal.sqrt(f)
        for p in (1, -2, 3)
        for q in (1, 4)
        for f in (1, 2, 15)
    ]
    for a in vals:
        for b in vals:
            assert float(a * b) == pytest.approx(float(a) * float(b), rel=1e-12)


def test_radical_sum_ring_laws():
    r2, r3 = RadicalSum.sqrt(2), RadicalSum.sqrt(3)
    s = r2 + r3
    # (sqrt(2) + sqrt(3))^2 = 5 + 2 sqrt(6)
    assert s * s == RadicalSum.of(5) + RadicalSum.coeff_sqrt(2, 6)
    assert s - s == RadicalSum.zero()
    assert (s - s).is_zero()
    assert -s + s == 0
    assert s * 0 == RadicalSum.zero()
    assert 2 * s == s + s


def test_radical_sum_cancellation_to_rational():
    a = RadicalSum.sqrt(2) + RadicalSum.of(Fraction(1, 3))
    b = RadicalSum.sqrt(2) - RadicalSum.of(Fraction(1, 3))
    prod = a * b
    assert prod.is_rational()
    assert prod.as_fraction() == 2 - Fraction(1, 9)


def test_radical_sum_collapse_and_errors():
    mixed = RadicalSum.sqrt(2) + RadicalSum.sqrt(3)
    with pytest.raises(ValueError):
        mixed.as_fraction()
    with pytest.raises(ValueError):
        mixed.as_exact()
    with pytest.raises(ValueError):
        mixed.sign()
    single = RadicalSum.coeff_sqrt(Fraction(-1, 2), 6)
    assert single.as_exact() == ExactReal.of(Fraction(-1, 2)) * ExactReal.sqrt(6)
    assert single.as_exact() == ExactReal.from_square(-1, 6, 4)
    assert single.sign() == -1
    assert RadicalSum.zero().sign() == 0
    assert RadicalSum.zero().as_exact() == ExactReal.zero()


def test_radical_sum_times_sqrt_and_dot():
    u = [RadicalSum.sqrt(Fraction(1, 2)), RadicalSum.sqrt(Fraction(1, 2))]
    assert dot(u, u).as_fraction() == 1
    v = [RadicalSum.sqrt(Fraction(1, 2)), -RadicalSum.sqrt(Fraction(1, 2))]
    assert dot(u, v).is_zero()
    w = RadicalSum.of(3).times_sqrt(Fraction(2, 9))
    assert w.as_exact() == ExactReal.sqrt(2)
    with pytest.raises(ValueError):
        dot(u, [RadicalSum.zero()])


def test_radical_sum_float_value():
    s = RadicalSum.of(1) + RadicalSum.coeff_sqrt(-2, 3)
    assert float(s) == pytest.approx(1 - 2 * math.sqrt(3))
