"""Dense numerical oracles: projectors, coupling tables, oscillators, Monte Carlo."""

from fractions import Fraction
from math import comb

import numpy as np
import pytest

from definetti import verify
from definetti.exact import ExactReal
from definetti.oracle import (
    brute_delta_symmetric,
    cg_oracle,
    fock_annihilator,
    haar_su2,
    heis_oracle,
    lambda_up_set,
    mc_theorem1,
    pair_annihilate,
    pair_tower,
    pair_vacuum,
    sym_basis,
    sym_basis_vector,
    trace_distance,
)
from definetti.su2_cg import TwoJ, _racah_parts, _triangle
from definetti.symmetric import SymTriple, dim_sym, epsilon
from definetti.weights import Weight


def test_trace_distance():
    p0 = np.diag([1.0, 0.0])
    p1 = np.diag([0.0, 1.0])
    assert trace_distance(p0, p1) == pytest.approx(1.0)
    assert trace_distance(p0, p0) == 0
    with pytest.raises(ValueError):
        trace_distance(np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((2, 2)))


def test_sym_basis_orthonormal():
    for n, d in [(3, 2), (2, 3), (4, 2)]:
        basis = sym_basis(n, d)
        assert len(basis) == dim_sym(n, d)
        mat = np.stack([vec for _, vec in basis])
        assert np.abs(mat @ mat.T - np.eye(len(basis))).max() < 1e-12
        for w, vec in basis:
            assert w.total == n and w.dim == d
            assert np.array_equal(vec, sym_basis_vector(w))


def test_brute_delta_matches_formula():
    t = SymTriple(4, 2, 2, 0)
    assert brute_delta_symmetric(t) == pytest.approx(0.6, abs=1e-12)
    with pytest.raises(ValueError):
        brute_delta_symmetric(SymTriple(21, 1, 2, 0))


def test_cg_oracle_matches_closed_form():
    # the spin-1/2 singlet, <0 0 | 1/2 1/2, 1/2 -1/2> = sqrt(1/2)
    assert cg_oracle(TwoJ(1), TwoJ(1))[(0, 0, 1)] == ExactReal.sqrt(Fraction(1, 2))
    with pytest.raises(ValueError):
        cg_oracle(13, 0)
    with pytest.raises(ValueError):
        cg_oracle(-1, 0)


def test_cg_oracle_stretched_states():
    # the j = j1+j2 column is a binomial ratio, known apart from both the
    # ladder and the Racah formula
    for tj1 in range(13):
        for tj2 in range(13):
            tj = tj1 + tj2
            table = cg_oracle(TwoJ(tj1), TwoJ(tj2))
            for (tjk, tm, tm1), val in table.items():
                if tjk != tj:
                    continue
                tm2 = tm - tm1
                want = Fraction(
                    comb(tj1, (tj1 + tm1) // 2) * comb(tj2, (tj2 + tm2) // 2),
                    comb(tj, (tj + tm) // 2),
                )
                assert val.sign == 1 and val.square() == want, (tj1, tj2, tm, tm1)


def test_cg_oracle_exact_at_guard_size():
    table = cg_oracle(12, 12)
    assert len(table) == 10425
    for (tj, tm, tm1), val in table.items():
        s, m_den = _racah_parts(24, tm1, 24, tm - tm1, tj, tm)
        t_num, t_den = _triangle(24, 24, tj)
        square = Fraction(s * s * t_num, m_den * t_den)
        assert (val.sign, val.square()) == ((s > 0) - (s < 0), square), (tj, tm, tm1)


def test_lambda_up_set():
    half = Fraction(1, 2)
    assert lambda_up_set(half, half, 0) == {Weight((0, 1))}
    assert lambda_up_set(half, half, 1) == {Weight((1, 0)), Weight((0, 1))}
    assert lambda_up_set(1, half, half) == {Weight((1, 1)), Weight((0, 2))}
    with pytest.raises(ValueError):
        lambda_up_set(1, 1, half)
    with pytest.raises(ValueError):
        lambda_up_set(1, 1, 3)
    with pytest.raises(ValueError, match=r"^j1: negative angular momentum -2/2$"):
        lambda_up_set(-1, 1, 0)


def test_lambda_up_set_radius():
    # the set always reaches the bottom weight, and its height above the
    # bottom matches the two-block separation radius
    detail = verify.up_window_covers_coupled_block(range(1, 7))
    assert detail == "127 coupled blocks inside their up windows"


def test_fock_operators():
    a = fock_annihilator(5)
    comm = a @ a.T - a.T @ a
    assert np.abs(np.diag(comm)[:-1] - 1.0).max() < 1e-12  # truncation spoils the last entry
    with pytest.raises(ValueError):
        fock_annihilator(0)


def test_pair_vacuum_and_tower():
    vac = pair_vacuum(2.0, 3.0, 2, 50)
    assert np.linalg.norm(vac) == pytest.approx(1.0)
    assert np.linalg.norm(pair_annihilate(2.0, 3.0, vac)) < 1e-12
    tower = pair_tower(2.0, 3.0, 1, 5, 60)
    gram = np.array([[float(np.sum(u * v)) for v in tower] for u in tower])
    assert np.abs(gram - np.eye(6)).max() < 1e-10
    with pytest.raises(ValueError):
        pair_vacuum(0.0, 1.0, 0, 10)
    with pytest.raises(ValueError):
        pair_tower(1.0, 1.0, 5, 20, 24)


def test_heis_oracle_matches_formula():
    assert heis_oracle(1, 1, 0, 0, 40) == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(ValueError):
        heis_oracle(1, 1, 0, 5, 40)  # cutoff below r + Delta + 40


def test_haar_su2():
    rng = np.random.default_rng(3)
    us = haar_su2(rng, 8)
    assert us.shape == (8, 2, 2)
    for u in us:
        assert np.abs(u @ u.conj().T - np.eye(2)).max() < 1e-12
        assert np.linalg.det(u) == pytest.approx(1.0)
    again = haar_su2(np.random.default_rng(3), 8)
    assert np.array_equal(us, again)


def test_mc_theorem1_runs_and_is_deterministic():
    rep = mc_theorem1(4, 2, 1, 10**3, 7)
    rep2 = mc_theorem1(4, 2, 1, 10**3, 7)
    assert rep.lhs_distance == rep2.lhs_distance
    assert rep.identity_residual == rep2.identity_residual
    assert rep.passed
    assert rep.bound == pytest.approx(float(epsilon(SymTriple(4, 2, 2, 1))))
    different = mc_theorem1(4, 2, 1, 10**3, 8)
    assert different.lhs_distance != rep.lhs_distance


def test_mc_theorem1_supplied_state():
    state = sym_basis_vector(Weight((2, 2)))
    rep = mc_theorem1(4, 2, 2, 10**3, 1, state=state)
    assert rep.passed
    with pytest.raises(ValueError):
        bad = np.zeros(16)
        bad[1] = 1.0  # not symmetric
        mc_theorem1(4, 2, 2, 10**3, 1, state=bad)
    with pytest.raises(ValueError):
        mc_theorem1(4, 2, 2, 10**3, 1, state=np.zeros(16))
    with pytest.raises(ValueError):
        mc_theorem1(4, 2, 2, 10**3, 1, state=np.ones(8))


def test_mc_theorem1_guards():
    with pytest.raises(ValueError):
        mc_theorem1(4, 0, 0, 10**3, 0)
    with pytest.raises(ValueError):
        mc_theorem1(4, 4, 0, 10**3, 0)
    with pytest.raises(ValueError):
        mc_theorem1(17, 2, 0, 10**3, 0)
    with pytest.raises(ValueError):
        mc_theorem1(4, 2, 0, 999, 0)
    with pytest.raises(ValueError):
        mc_theorem1(4, 2, 3, 10**3, 0)
