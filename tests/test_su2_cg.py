"""Coupling coefficients and the extremal-window overlap for SU(2)."""

from fractions import Fraction

import pytest

from definetti.exact import ExactReal
from definetti.su2_cg import TwoJ, as_twoj, cg, delta_su2


def test_twoj_coercion():
    assert as_twoj(1) == TwoJ(2)
    assert as_twoj("1/2") == TwoJ(1)
    assert as_twoj(Fraction(3, 2)) == TwoJ(3)
    assert as_twoj(2.5) == TwoJ(5)
    assert as_twoj(TwoJ(7)) == TwoJ(7)
    assert str(TwoJ(3)) == "3/2"
    assert str(TwoJ(4)) == "2"
    assert TwoJ(3).value == Fraction(3, 2)
    assert TwoJ(3) + TwoJ(1) == TwoJ(4)
    assert -TwoJ(3) == TwoJ(0) - TwoJ(3)
    with pytest.raises(ValueError):
        as_twoj(0.3)
    with pytest.raises(TypeError):
        as_twoj(True)
    with pytest.raises(TypeError):
        as_twoj(object())
    with pytest.raises(TypeError):
        TwoJ(1.5)
    with pytest.raises(TypeError):
        TwoJ(True)


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
    with pytest.raises(ValueError):
        cg(1, 2, 1, 0, 2, 2)  # |m1| > j1
    with pytest.raises(ValueError):
        cg(1, Fraction(1, 2), 1, 0, 2, Fraction(1, 2))  # m1 not integral with j1
    with pytest.raises(ValueError):
        cg(1, 1, 1, 1, 5, 2)  # triangle violation
    with pytest.raises(ValueError):
        cg(1, 1, 1, 1, Fraction(3, 2), Fraction(3, 2))  # parity of j1+j2+j
    with pytest.raises(ValueError):
        cg(-1, 0, 1, 0, 1, 0)


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
