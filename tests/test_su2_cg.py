"""Coupling coefficients and the extremal-window overlap for SU(2)."""

import copy
import pickle
import random
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

import pytest

from definetti import exact, radicals, su2_cg, verify
from definetti.exact import ExactReal
from definetti.oracle import cg_oracle
from definetti.radicals import RadicalSum
from definetti.su2_cg import TwoJ, as_twoj, cg, delta_su2


def test_twoj_coercion():
    assert as_twoj(1) == TwoJ(2)
    assert as_twoj("1/2") == TwoJ(1)
    assert as_twoj(Fraction(3, 2)) == TwoJ(3)
    assert as_twoj(2.5) == TwoJ(5)
    assert as_twoj(TwoJ(7)) == TwoJ(7)
    assert str(TwoJ(3)) == "3/2"
    assert str(TwoJ(4)) == "2"
    # a TwoJ is its field as a one-tuple, never a plain number
    assert TwoJ(3) != 3 and TwoJ(3) != TwoJ(4)
    assert hash(TwoJ(3)) == hash((3,))
    assert repr(TwoJ(3)) == "TwoJ(doubled=3)"
    with pytest.raises(AttributeError):
        TwoJ(3).doubled = 4
    with pytest.raises(AttributeError):
        del TwoJ(3).doubled
    assert TwoJ(doubled=3) == TwoJ(3)
    for twoj in (TwoJ(3), TwoJ(-200), TwoJ(10**100)):
        assert pickle.loads(pickle.dumps(twoj)) == twoj
        assert copy.copy(twoj) == copy.deepcopy(twoj) == twoj
    # plain ints within the bound share one instance, made on first use
    assert TwoJ(3) is TwoJ(3) and as_twoj(Fraction(3, 2)) is TwoJ(3)
    assert TwoJ(doubled=-200) is TwoJ(-200) is pickle.loads(pickle.dumps(TwoJ(-200)))
    assert copy.copy(TwoJ(3)) is copy.deepcopy(TwoJ(3)) is TwoJ(3)
    bound = su2_cg.TWOJ_INTERN_BOUND
    assert TwoJ(bound) is TwoJ(bound) and TwoJ(-bound) is TwoJ(-bound)
    for big in (bound + 1, -bound - 1, 10**6, -(10**6), 10**100):
        assert TwoJ(big) is not TwoJ(big) and TwoJ(big) == TwoJ(big)
    assert all(k.__class__ is int and abs(k) <= bound for k in su2_cg._interned)

    # an int subclass is built fresh and never stored
    class Doubled(int):
        pass

    assert TwoJ(Doubled(5)) == TwoJ(5) and TwoJ(Doubled(5)) is not TwoJ(5)
    assert TwoJ(5).doubled.__class__ is int
    # the table is read by subscript, where False, True, 1.0 and 2.0 would
    # find TwoJ(0), TwoJ(1) and TwoJ(2): only a plain int may look
    assert TwoJ(0) is TwoJ(0) and TwoJ(1) is TwoJ(1) and TwoJ(2) is TwoJ(2)
    table = [(k.__class__, k, id(v)) for k, v in su2_cg._interned.items()]
    for bad in (True, False, 1.0, 2.0, "3"):
        with pytest.raises(TypeError):
            TwoJ(bad)
    assert [(k.__class__, k, id(v)) for k, v in su2_cg._interned.items()] == table
    # a tag with no arithmetic and no order
    for bad in (
        lambda: TwoJ(3) + 1,
        lambda: TwoJ(3) - 1,
        lambda: 1 + TwoJ(3),
        lambda: TwoJ(3) + TwoJ(1),
        lambda: -TwoJ(3),
        lambda: TwoJ(1) < TwoJ(2),
    ):
        with pytest.raises(TypeError):
            bad()
    with pytest.raises(ValueError):
        as_twoj(0.3)
    with pytest.raises(TypeError):
        as_twoj(True)
    with pytest.raises(TypeError):
        as_twoj(object())
    with pytest.raises(TypeError, match="doubled value must be an integer, got 1.5"):
        TwoJ(1.5)
    with pytest.raises(TypeError):
        TwoJ(True)



def test_over_long_half_integer_is_named_by_its_digit_count():
    # formatting the Fraction itself raised the interpreter's int-to-str error
    with pytest.raises(ValueError, match=r"^a 5001-digit integer/3 is not a half-integer$"):
        as_twoj(Fraction(10**5000 + 1, 3))


def test_non_finite_angular_momentum_is_a_value_error():
    # inf used to escape as OverflowError, and nan named no value
    for x, name in ((float("inf"), "inf"), (float("-inf"), "-inf"), (float("nan"), "nan")):
        message = f"^{name} is not a half-integer$"
        with pytest.raises(ValueError, match=message):
            as_twoj(x)
        with pytest.raises(ValueError, match=message):
            cg(x, 0, 1, 0, 1, 0)
        with pytest.raises(ValueError, match=message):
            cg(1, 0, 1, 0, 1, x)
        with pytest.raises(ValueError, match=message):
            delta_su2(x, 1, 1, 1, 0)
        with pytest.raises(ValueError, match=message):
            delta_su2(1, 1, 1, x, 0)


def test_cg_classic_values():
    half = Fraction(1, 2)
    # spin-1/2 pair: triplet and singlet
    assert cg(half, half, half, half, 1, 1) == ExactReal.of(1)
    assert cg(half, half, half, -half, 1, 0) == ExactReal.sqrt(half)
    assert cg(half, -half, half, half, 1, 0) == ExactReal.sqrt(half)
    assert cg(half, half, half, -half, 0, 0) == ExactReal.sqrt(half)
    assert cg(half, -half, half, half, 0, 0) == -ExactReal.sqrt(half)
    # 1 x 1 -> 2, 1, 0 at m = 0
    assert cg(1, 0, 1, 0, 2, 0) == ExactReal.sqrt(Fraction(2, 3))
    assert cg(1, 0, 1, 0, 1, 0) == ExactReal.zero()
    assert cg(1, 0, 1, 0, 0, 0) == -ExactReal.sqrt(Fraction(1, 3))
    assert cg(1, 1, 1, -1, 0, 0) == ExactReal.sqrt(Fraction(1, 3))
    # 1 x 1/2
    assert cg(1, 1, half, -half, Fraction(3, 2), half) == ExactReal.sqrt(Fraction(1, 3))
    assert cg(1, 0, half, half, Fraction(3, 2), half) == ExactReal.sqrt(Fraction(2, 3))
    assert cg(1, 1, half, -half, half, half) == ExactReal.sqrt(Fraction(2, 3))
    assert cg(1, 0, half, half, half, half) == -ExactReal.sqrt(Fraction(1, 3))


def test_cg_selection_rules_return_zero():
    assert cg(1, 1, 1, 1, 2, 1) == ExactReal.zero()  # m != m1 + m2
    assert cg(1, 1, 1, 1, 1, 2) == ExactReal.zero()  # |m| > j handled upstream of raise
    assert cg(2, 2, 2, 2, 4, 4).square() == 1


def test_cg_malformed_inputs_raise():
    half = Fraction(1, 2)
    for args, message in (
        ((-1, 0, 1, 0, 1, 0), "(j1, m1): negative angular momentum -2/2"),
        ((1, 0, -1, 0, 1, 0), "(j2, m2): negative angular momentum -2/2"),
        ((1, 0, 1, 0, -1, 0), "j: negative angular momentum -2/2"),
        ((1, half, 1, 0, 2, half), "(j1, m1): j=2/2 and m=1/2 differ by a non-integer"),
        ((1, 0, 1, half, 2, half), "(j2, m2): j=2/2 and m=1/2 differ by a non-integer"),
        ((1, 0, 1, 0, 2, half), "(j, m): j=4/2 and m=1/2 differ by a non-integer"),
        ((1, 2, 1, 0, 2, 2), "(j1, m1): |m|=4/2 exceeds j=2/2"),
        ((1, 0, 1, -2, 2, -2), "(j2, m2): |m|=4/2 exceeds j=2/2"),
        ((1, 1, 1, 1, Fraction(3, 2), Fraction(3, 2)), "j1+j2+j = 7/2 is not an integer"),
        ((1, 1, 1, 1, 5, 2), "triangle violation: j=10/2 outside [0/2, 4/2]"),
        ((2, 0, half, half, half, half), "triangle violation: j=1/2 outside [3/2, 5/2]"),
        # the first rule broken is named: m1 parity before |m2| and the triangle
        ((1, half, 1, 4, 9, 1), "(j1, m1): j=2/2 and m=1/2 differ by a non-integer"),
    ):
        with pytest.raises(ValueError) as info:
            cg(*args)
        assert str(info.value) == message, args


# factorials and triangle parts are cached: at 2j = 4000 they would take
# most of the reference's time
_factorial = lru_cache(maxsize=None)(factorial)


@lru_cache(maxsize=None)
def _reference_triangle(tj1, tj2, tj):
    f = _factorial
    return Fraction(
        (tj + 1) * f((tj1 + tj2 - tj) // 2) * f((tj1 - tj2 + tj) // 2) * f((tj2 - tj1 + tj) // 2),
        f((tj1 + tj2 + tj) // 2 + 1),
    )


def _reference_parts(tj1, tm1, tj2, tm2, tj, tm):
    """S and R of the single-sum formula, S added up one Fraction per term."""
    f = _factorial
    a, b, c = (tj1 + tj2 - tj) // 2, (tj1 - tm1) // 2, (tj2 + tm2) // 2
    d, e = (tj - tj2 + tm1) // 2, (tj - tj1 - tm2) // 2
    pre = _reference_triangle(tj1, tj2, tj)
    for k in (tj1 + tm1, tj1 - tm1, tj2 + tm2, tj2 - tm2, tj + tm, tj - tm):
        pre *= f(k // 2)
    s = Fraction(0)
    for t in range(max(0, -d, -e), min(a, b, c) + 1):
        s += Fraction((-1) ** t, f(t) * f(a - t) * f(b - t) * f(c - t) * f(d + t) * f(e + t))
    return s, pre


def _matches_reference(tj1, tm1, tj2, tm2, tj, tm):
    """sign(s) = sign(S) and s^2 t_num / (m_den t_den) = S^2 R: the
    binomial kernel against the factorial reference, exactly."""
    s, m_den = su2_cg._racah_parts(tj1, tm1, tj2, tm2, tj, tm)
    t_num, t_den = su2_cg._triangle(tj1, tj2, tj)
    big_s, pre = _reference_parts(tj1, tm1, tj2, tm2, tj, tm)
    square = Fraction(s * s * t_num, m_den * t_den)
    return (s > 0) - (s < 0) == (big_s > 0) - (big_s < 0) and square == big_s * big_s * pre


def _racah_terms(tj1, tm1, tj2, tm2, tj, tm):
    """The term count of a Racah sum as the tracer's su2_cg.racah_terms
    counts it, restated: min(a, b, c) - max(0, -d, -e) + 1."""
    t_lo = max(0, (tj2 - tj - tm1) // 2, (tj1 + tm2 - tj) // 2)
    t_hi = min((tj1 + tj2 - tj) // 2, (tj1 - tm1) // 2, (tj2 + tm2) // 2)
    return max(0, t_hi - t_lo + 1)


def _entries(tj1s, tj2s, tjs=None, tm1s=None, tm2s=None):
    """Every (2j1, 2m1, 2j2, 2m2, 2j, 2m) with m = m1 + m2 and |m| <= j."""
    for tj1 in tj1s:
        for tj2 in tj2s:
            for tj in tjs or range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
                for tm1 in tm1s or range(-tj1, tj1 + 1, 2):
                    for tm2 in tm2s or range(-tj2, tj2 + 1, 2):
                        if abs(tm1 + tm2) <= tj:
                            yield tj1, tm1, tj2, tm2, tj, tm1 + tm2


def test_racah_parts_match_termwise_sum():
    small = list(_entries(range(13), range(13)))
    # figure cells at j1 = j2 = 100: the coupled j of figures 1 and 2 and
    # lower ones, the first 41 window rows, and m2 below j2, where the sum
    # has up to 101 terms
    large = list(
        _entries((200,), (200,), (0, 100, 200, 380, 390, 396, 400),
                 range(200, 118, -4), (200, 198, 180, 100, 0, -100, -200))
    )
    assert len(small) == 45_045 and len(large) == 677
    multi_term = 0
    for args in small + large:
        assert _matches_reference(*args), args
        multi_term += _racah_terms(*args) > 1
    assert multi_term > len(large)


def test_racah_parts_match_reference_at_ten_times_figure_scale():
    # j1 = j2 = 1000: the top columns and the middle one, the first 21
    # window rows and m2 = j2, j2 - 5, 0, -j2
    entries = list(
        _entries((2000,), (2000,), (3990, 3996, 4000, 2000),
                 range(2000, 1958, -2), (2000, 1990, 0, -2000))
    )
    assert len(entries) == 287
    for args in entries:
        assert _matches_reference(*args), args
    assert max(_racah_terms(*args) for args in entries) == 21


def _binomial_terms(tj1, tm1, tj2, tm2, tj, tm):
    """{t: (-1)^t C(a, t) C(b1, u-t) C(b2, v-t)} for every t with a
    non-zero term, found without the kernel's summation bounds."""
    a, u, v = (tj1 + tj2 - tj) // 2, (tj1 - tm1) // 2, (tj2 + tm2) // 2
    b1, b2 = tj1 - a, tj2 - a
    return {
        t: (-1) ** t * comb(a, t) * comb(b1, u - t) * comb(b2, v - t)
        for t in range(a + 1)
        if 0 <= u - t <= b1 and 0 <= v - t <= b2
    }


def test_racah_terms_count_the_kernel_sum():
    # the tracer's su2_cg.racah_terms must stay a true term count: the
    # binomial sum has exactly that many non-zero terms, in one run of t,
    # and they add up to the kernel's s
    entries = 0
    for args in _entries(range(13), range(13)):
        terms = _binomial_terms(*args)
        assert len(terms) == _racah_terms(*args) == max(terms) - min(terms) + 1, args
        assert all(terms.values()), args
        assert su2_cg._racah_parts(*args)[0] == sum(terms.values()), args
        entries += 1
    assert entries == 45_045


def _squarefree_over_small_primes(n):
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23):
        if n % (p * p) == 0:
            return False
        if n % p == 0:
            n //= p
    return n == 1


def test_cg_and_oracle_entries_are_canonical():
    # both build sign(S) sqrt(S^2 R) from integer parts; each must equal
    # the canonical ExactReal(sign, square), whatever the gcd of the parts
    # they started from, and RadicalSum must split it into a positive
    # coeff times a squarefree core
    entries = 0
    for tj1 in range(13):
        for tj2 in range(13):
            table = cg_oracle(TwoJ(tj1), TwoJ(tj2))
            for (tj, tm, tm1), entry in table.items():
                tm2 = tm - tm1
                s, m_den = su2_cg._racah_parts(tj1, tm1, tj2, tm2, tj, tm)
                t_num, t_den = su2_cg._triangle(tj1, tj2, tj)
                sign = (s > 0) - (s < 0)
                square = Fraction(s * s * t_num, m_den * t_den)
                want = ExactReal(sign, square)
                closed = cg(TwoJ(tj1), TwoJ(tm1), TwoJ(tj2), TwoJ(tm2), TwoJ(tj), TwoJ(tm))
                for got in (closed, entry):
                    assert (got.sign, got.square()) == (sign, square)
                    assert got == want and hash(got) == hash(want)
                split = RadicalSum.from_exact(want)
                if sign:
                    ((core, q),) = split._terms.items()
                    assert split.sign() == sign and q * q * core == square
                    assert _squarefree_over_small_primes(core)
                else:
                    assert not split
                entries += 1
    assert entries == 45_045


@pytest.fixture
def no_splitting(monkeypatch):
    # split_square, patched in the module that defines it and in the one
    # that calls it
    def split_square(n):
        raise AssertionError(f"split_square({n}) called")

    for module in (exact, radicals):
        monkeypatch.setattr(module, "split_square", split_square)


def test_cg_and_oracle_compare_without_splitting(no_splitting):
    # building, comparing, squaring and printing entries factors nothing
    entries = 0
    for tj1 in range(11):
        for tj2 in range(11):
            for (tj, tm, tm1), entry in cg_oracle(TwoJ(tj1), TwoJ(tj2)).items():
                closed = cg(TwoJ(tj1), TwoJ(tm1), TwoJ(tj2), TwoJ(tm - tm1), TwoJ(tj), TwoJ(tm))
                assert closed == entry and closed.square() == entry.square()
                assert repr(closed) == repr(entry)
                entries += 1
    assert entries == 20_240
    # a radicand split_square gives up on (two ~40-bit primes) prints too
    p, q = 2**40 - 87, 2**40 - 167
    assert repr(ExactReal.sqrt(Fraction(3, p * q))) == f"ExactReal(sqrt(3/{p * q}))"
    with pytest.raises(AssertionError, match="split_square"):
        RadicalSum.sqrt(2)


def test_row_check_needs_no_splitting(no_splitting, monkeypatch):
    # the rows' squares and products are compared as rationals; a wrong
    # sign in one coefficient breaks orthogonality
    assert verify.cg_rows_orthonormal(range(0, 9, 2)) == "1563 exact row products"

    # the mutants patch the doubled-int core that cg and the checks share
    core = su2_cg._cg_doubled
    singlet_middle = (2, 0, 2, 0, 0, 0)

    def flipped(*args):
        value = core(*args)
        return -value if args == singlet_middle else value

    monkeypatch.setattr(su2_cg, "_cg_doubled", flipped)
    assert cg(1, 0, 1, 0, 0, 0) == -core(*singlet_middle)
    # <1 0 1 0 | 1 0> = 0, so the first row pair the flip breaks is j = 0, 2
    with pytest.raises(AssertionError, match=r"row orthogonality \(2, 2, 0, 4, 0\)"):
        verify.cg_rows_orthonormal(range(0, 3))

    # an entry off by sqrt(2) makes its product incommensurable with the others
    quintet_low = (2, -2, 2, 2, 4, 0)

    def stretched(*args):
        value = core(*args)
        return value * ExactReal.sqrt(2) if args == quintet_low else value

    monkeypatch.setattr(su2_cg, "_cg_doubled", stretched)
    assert cg(1, -1, 1, 1, 2, 0) == core(*quintet_low) * ExactReal.sqrt(2)
    with pytest.raises(AssertionError, match=r"\(2, 2, 0, 4, 0\): incommensurable products"):
        verify.cg_rows_orthonormal(range(0, 3))


def test_column_check_sees_a_doubled_entry(monkeypatch):
    # the column sums are taken from the stored parts of each entry; one
    # radicand times 4 doubles its coefficient and breaks its column
    assert verify.cg_columns_complete(range(0, 9, 2)) == "625 exact column sums"
    core = su2_cg._cg_doubled
    triplet_middle = (2, 0, 2, 0, 4, 0)

    def doubled(*args):
        value = core(*args)
        if args != triplet_middle:
            return value
        square = value.square()
        return ExactReal.from_square(value.sign, 4 * square.numerator, square.denominator)

    monkeypatch.setattr(su2_cg, "_cg_doubled", doubled)
    assert cg(1, 0, 1, 0, 2, 0).square() == 4 * core(*triplet_middle).square() == Fraction(8, 3)
    with pytest.raises(AssertionError, match=r"^completeness \(2, 2, 0, 0\): "):
        verify.cg_columns_complete(range(0, 3))


def test_ladder_check_reaches_the_core_without_cg(monkeypatch):
    # the table sweeps pass plain doubled ints to the core; cg's argument
    # handling runs for none of the 7,809 entries
    calls = {"core": 0, "cg": 0}
    core, public = su2_cg._cg_doubled, su2_cg.cg

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(su2_cg, "_cg_doubled", counted("core", core))
    monkeypatch.setattr(su2_cg, "cg", counted("cg", public))
    assert verify.cg_oracle_match(8) == "7809 exact matches for j1,j2 <= 4"
    assert calls == {"core": 7_809, "cg": 0}


def test_one_racah_evaluation_per_coefficient(monkeypatch):
    # cg evaluates the Racah sum once per entry that passes the selection
    # rules, and delta_su2 once per window term, with no second path
    calls = 0
    racah = su2_cg._racah_parts

    def counted(*args):
        nonlocal calls
        calls += 1
        return racah(*args)

    monkeypatch.setattr(su2_cg, "_racah_parts", counted)
    entries = list(_entries(range(7), range(7)))
    for tj1, tm1, tj2, tm2, tj, tm in entries:
        # m = m1 + m2 -+ 1 breaks the selection rule and needs no sum
        for tm_any in (tm - 2, tm, tm + 2):
            cg(TwoJ(tj1), TwoJ(tm1), TwoJ(tj2), TwoJ(tm2), TwoJ(tj), TwoJ(tm_any))
    assert calls == len(entries) == 2_408
    calls = 0
    terms = 0
    for tj1, tj2, tj, tm2, direction in ((6, 4, 6, 2, "down"), (6, 4, 4, -2, "up"), (5, 3, 4, 1, "up")):
        su2_cg._window_column.cache_clear()
        delta_su2(TwoJ(tj1), TwoJ(tj2), TwoJ(tj), TwoJ(tm2), 2 * tj1, direction)
        for i in range(tj1 + 1):
            tm1 = tj1 - 2 * i if direction == "down" else -tj1 + 2 * i
            terms += abs(tm1 + tm2) <= tj
    assert calls == terms


def test_delta_su2_aligned_corollary():
    rep = delta_su2(Fraction(1, 2), Fraction(1, 2), 1, Fraction(1, 2), 0)
    assert rep.delta == Fraction(2, 3)
    assert rep.bound_linear == Fraction(2, 3)
    assert rep.bound_sqrt == pytest.approx(2 * (1 / 3) ** 0.5)


def test_delta_su2_full_window_saturates_every_m2():
    # summing the whole m1 range recovers delta = 1 for any reference m2
    for tj1 in range(0, 5):
        for tj2 in range(0, 5):
            for tj in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
                for tm2 in range(-tj2, tj2 + 1, 2):
                    rep = delta_su2(TwoJ(tj1), TwoJ(tj2), TwoJ(tj), TwoJ(tm2), tj1)
                    assert rep.delta == 1


def test_delta_su2_directions_match_under_reflection():
    down = delta_su2(2, 2, 2, 2, 1, "down")
    up = delta_su2(2, 2, 2, -2, 1, "up")
    assert down.delta == up.delta
    assert down.formula_id.endswith("down")
    assert up.formula_id.endswith("up")


def test_delta_su2_memo_independent_of_call_order():
    # four columns, two per direction, one more than the memo holds; radii
    # run past 2j1, where the window has no more terms
    columns = [(6, 4, 6, 2, "down"), (6, 4, 8, 4, "down"), (6, 4, 4, -2, "up"), (5, 3, 4, 1, "up")]
    cells = [(col, r) for col in columns for r in range(col[0] + 3)]
    random.Random(11).shuffle(cells)
    got = {}
    for (tj1, tj2, tj, tm2, direction), r in cells:
        got[(tj1, tj2, tj, tm2, direction), r] = delta_su2(
            TwoJ(tj1), TwoJ(tj2), TwoJ(tj), TwoJ(tm2), r, direction
        )
    for ((tj1, tj2, tj, tm2, direction), r), rep in got.items():
        su2_cg._window_column.cache_clear()
        fresh = delta_su2(TwoJ(tj1), TwoJ(tj2), TwoJ(tj), TwoJ(tm2), r, direction)
        assert rep == fresh, ((tj1, tj2, tj, tm2, direction), r)


def test_delta_su2_sweep_sums_each_new_term_once(monkeypatch):
    # a radius repeated, one step back (which sums afresh), then past
    # 2j1, where the window has no more terms
    calls = 0
    racah = su2_cg._racah_parts

    def counted(*args):
        nonlocal calls
        calls += 1
        return racah(*args)

    radii = [0, 1, 2, 2, 1, 2, 3, 3, 5, 6, 7, 9, 9]
    for tj1, tj2, tj, tm2, direction in ((6, 4, 6, 2, "down"), (6, 4, 4, -2, "up"), (5, 3, 4, 1, "up")):
        column = (TwoJ(tj1), TwoJ(tj2), TwoJ(tj), TwoJ(tm2))
        tm1s = [tj1 - 2 * i if direction == "down" else -tj1 + 2 * i for i in range(tj1 + 1)]
        in_block = [abs(tm1 + tm2) <= tj for tm1 in tm1s]
        su2_cg._window_column.cache_clear()
        monkeypatch.setattr(su2_cg, "_racah_parts", counted)
        got, summed, kept = [], [], 0
        for r in radii:
            calls = 0
            got.append(delta_su2(*column, r, direction))
            count = min(r, tj1) + 1
            start = kept if kept <= count else 0
            summed.append((calls, sum(in_block[start:count])))
            kept = count
        monkeypatch.setattr(su2_cg, "_racah_parts", racah)
        assert all(c == want for c, want in summed), (column, summed)
        for r, rep in zip(radii, got):
            su2_cg._window_column.cache_clear()
            assert rep == delta_su2(*column, r, direction), (column, r)
        assert got[-1].delta == 1


def test_delta_su2_validation():
    with pytest.raises(ValueError):
        delta_su2(1, 1, 5, 1, 0)
    with pytest.raises(ValueError):
        delta_su2(1, 1, 2, 2, 0)  # |m2| > j2
    with pytest.raises(ValueError):
        delta_su2(1, 1, 2, 1, -1)
    with pytest.raises(ValueError):
        delta_su2(1, 1, 2, 1, Fraction(1, 2))
    with pytest.raises(ValueError):
        delta_su2(1, 1, 2, 1, 0, "left")
