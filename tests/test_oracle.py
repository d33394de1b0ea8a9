"""Dense numerical oracles: projectors, coupling tables, oscillators, the theorem by quadrature."""

import hashlib
import inspect
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product
from math import comb, factorial, inf, isqrt, sqrt
from pathlib import Path

import numpy as np
import pytest

from definetti import oracle, su2_cg, verify
from definetti.exact import ExactReal
from definetti.heisenberg import HeisenbergTriple, _coprime, alpha_coeff, delta_number_space
from definetti.oracle import (
    brute_delta_symmetric,
    cg_oracle,
    heis_oracle,
    lambda_up_set,
    mc_theorem1,
    pair_annihilate,
    pair_create,
    pair_tower,
    pair_vacuum,
    trace_distance,
)
from definetti.report import _number, _sqrt_float
from definetti.su2_cg import TwoJ, _racah_parts, _triangle
from definetti.symmetric import SymTriple, dim_sym, epsilon
from definetti.weights import Weight, sym_weights

SRC = Path(__file__).resolve().parents[1] / "src"


def test_trace_distance():
    p0 = np.diag([1.0, 0.0])
    p1 = np.diag([0.0, 1.0])
    assert trace_distance(p0, p1) == pytest.approx(1.0)
    assert trace_distance(p0, p0) == 0
    with pytest.raises(ValueError):
        trace_distance(np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((2, 2)))


def _qubit_classes(n):
    """The type class of each of the 2^n qubit product indices, its number
    of 1 digits c, and the size C(n, c) of each class: class c holds the
    weight (n - c, c), the c-th of sym_weights(n, 2), and its orthonormal
    vector is 1/sqrt(sizes[c]) where cols == c, else 0."""
    index, cols = np.arange(2**n), np.zeros(2**n, dtype=np.intp)
    for bit in range(n):
        cols += (index >> bit) & 1
    return cols, np.array([comb(n, c) for c in range(n + 1)])


def _vector_power(vs, p):
    """The p-th tensor power of each row of vs, p >= 1."""
    out = vs
    for _ in range(p - 1):
        out = np.einsum("ni,nj->nij", out, vs).reshape(vs.shape[0], -1)
    return out


def _matrix_power(gs, p):
    """The p-th tensor power of each 2 x 2 matrix of gs, p >= 1."""
    out = gs
    for _ in range(p - 1):
        out = np.einsum("nij,nkl->nikjl", out, gs).reshape(gs.shape[0], 2 * out.shape[1], 2 * out.shape[1])
    return out


def _dense_basis(n):
    """The weights of Sym^n(C^2) and the 2^n x (n + 1) matrix whose
    columns are their vectors, read off the qubit class of each product
    index and the size of each class."""
    cols, sizes = _qubit_classes(n)
    mat = np.zeros((2**n, n + 1))
    mat[np.arange(2**n), cols] = (1.0 / np.sqrt(sizes))[cols]
    return sym_weights(n, 2), mat


def test_sym_basis_orthonormal():
    for n in (0, 1, 3, 4, 9):
        ws, mat = _dense_basis(n)
        assert len(ws) == mat.shape[1] == dim_sym(n, 2)
        assert np.abs(mat.T @ mat - np.eye(len(ws))).max() < 1e-12
        assert all(w.total == n and w.dim == 2 for w in ws)


def _class_indices(w):
    """Row-major product-basis indices of the type class of w, by the
    recursive enumeration of the class that the basis used to be built by."""
    d, counts = w.dim, list(w.entries)

    def rec(acc, remaining):
        if remaining == 0:
            yield acc
            return
        for a in range(d):
            if counts[a]:
                counts[a] -= 1
                yield from rec(acc * d + a, remaining - 1)
                counts[a] += 1

    yield from rec(0, w.total)


def _reference_vector(w):
    idx = np.fromiter(_class_indices(w), dtype=np.int64)
    vec = np.zeros(w.dim**w.total)
    vec[idx] = 1.0 / sqrt(len(idx))
    return vec


def test_sym_basis_equals_its_per_class_reference():
    # the qubit class map that the theorem check's product-basis reference
    # reads, class c = the index's number of 1 digits, against the
    # recursive enumeration of each class
    for n in range(14):
        ws, mat = _dense_basis(n)
        assert ws == [Weight((n - c, c)) for c in range(n + 1)], n
        want = np.column_stack([_reference_vector(w) for w in ws])
        assert np.array_equal(mat, want), n


def test_brute_delta_matches_formula():
    t = SymTriple(4, 2, 2, 0)
    assert brute_delta_symmetric(t) == Fraction(3, 5)
    # refused while the oracle enumerated the d^n product indices, d^n > 10^6
    t = SymTriple(21, 1, 2, 0)
    assert brute_delta_symmetric(t) == 1 - epsilon(t) / 2
    for n, k, d in ((30, 10, 2), (9, 4, 5)):
        for r in range(k + 1):
            t = SymTriple(n, k, d, r)
            assert brute_delta_symmetric(t) == 1 - epsilon(t) / 2, (n, k, d, r)


def test_cells_past_the_old_dense_cell_guard_compute_exactly():
    # each was refused while the basis was a dense d^n x dim_sym(n, d)
    # matrix of more than 2 * 10^7 cells; (6, 1, 10, 0) asked for 37.3 GiB
    for cell in ((12, 1, 3, 0), (9, 2, 4, 1), (8, 2, 5, 1), (6, 1, 10, 0)):
        t = SymTriple(*cell)
        assert brute_delta_symmetric(t) == 1 - epsilon(t) / 2, cell


def _in_child(code: str) -> str:
    """stdout of code run in a fresh interpreter, which is killed, failing
    the test, if it has not finished within 10 s: a call that hangs
    instead of refusing cannot hang the suite."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    try:
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=10, check=True
        )
    except subprocess.TimeoutExpired:
        pytest.fail("no result within 10 s")
    return out.stdout


def _moment_guard_message(n, k, d):
    """The refusal of the guard's bounds, n + d <= 500 and C(k+d-1, k) <=
    10^4 weights, or None, for inputs small enough to compute the binomial
    of."""
    if n + d > 500:
        return f"size guard exceeded: n + d = {n + d} > 500"
    if comb(k + d - 1, k) > 10**4:
        return f"size guard exceeded: dim_sym(k, d) = {_number(comb(k + d - 1, k))} > 10000"
    return None


def test_sym_basis_guard_runs_before_any_enumeration(monkeypatch):
    class Enumerated(Exception):
        pass

    def enumerated(*args, **kwargs):
        raise Enumerated

    # each (n, k, d) past the guard is refused before a weight is enumerated
    # or a factorial built, and each other reaches them
    monkeypatch.setattr(oracle, "sym_weights", enumerated)
    monkeypatch.setattr(oracle, "accumulate", enumerated)
    oracle._moment_terms.cache_clear()
    cells = [
        (n, k, d)
        for d in (2, 3, 4, 5, 9, 30, 250, 499)
        for n in (1, 9, 17, 140, 250, 498, 499)
        for k in {1, 2, 8, n // 2, n}
        if 0 < k <= n
    ]
    cells += [(497, 139, 3), (497, 140, 3), (480, 19, 5), (480, 20, 5), (1, 1, 499), (1, 1, 500), (2, 1, 498)]
    refused = 0
    for n, k, d in cells:
        message = _moment_guard_message(n, k, d)
        if message:
            refused += 1
            with pytest.raises(ValueError) as info:
                oracle._moment_terms(n, k, d)
            assert str(info.value) == message, (n, k, d)
        else:
            with pytest.raises(Enumerated):
                oracle._moment_terms(n, k, d)
    assert 0 < refused < len(cells)
    # 10^7 weights to enumerate first, which took longer than 8 s
    with pytest.raises(ValueError, match=r"^size guard exceeded: n \+ d = 10000002 > 500$"):
        oracle._moment_terms(10**7, 10**7, 2)
    # a cell refused by a guard on dense basis matrix cells, and one past
    # the old d^n <= 10^6 guard, reach the enumeration
    for cell in ((6, 1, 10, 0), (9, 4, 5, 0)):
        with pytest.raises(Enumerated):
            brute_delta_symmetric(SymTriple(*cell))


def test_huge_symmetric_inputs_are_refused_at_once():
    # each raised d to n before it compared, and never returned
    code = """
import time
from definetti import oracle
from definetti.symmetric import SymTriple
for cell in ((10**20, 1, 2, 0), (10**5000, 1, 3, 0)):
    start = time.perf_counter()
    try:
        oracle.brute_delta_symmetric(SymTriple(*cell))
    except ValueError as exc:
        print(f"{time.perf_counter() - start:.6f} {exc}")
"""
    lines = _in_child(code).splitlines()
    assert [line.split(" ", 1)[1] for line in lines] == [
        f"size guard exceeded: n + d = {10**20 + 2} > 500",
        "size guard exceeded: n + d = a 5001-digit integer > 500",
    ]
    assert all(float(line.split(" ", 1)[0]) < 0.1 for line in lines), lines


def test_brute_delta_builds_no_k_site_basis_before_it_refuses(monkeypatch):
    calls = []
    enumerate_weights = oracle.sym_weights

    def recorded(k, d):
        calls.append((k, d))
        return enumerate_weights(k, d)

    monkeypatch.setattr(oracle, "sym_weights", recorded)
    oracle._moment_terms.cache_clear()
    with pytest.raises(ValueError, match=r"^size guard exceeded: n \+ d = 501 > 500$"):
        brute_delta_symmetric(SymTriple(499, 1, 2, 0))
    with pytest.raises(ValueError, match=r"^size guard exceeded: dim_sym\(k, d\) = 10011 > 10000$"):
        brute_delta_symmetric(SymTriple(497, 140, 3, 0))
    assert calls == []
    assert brute_delta_symmetric(SymTriple(4, 2, 2, 0)) == Fraction(3, 5)
    assert calls == [(2, 2), (2, 2)]  # the term table, then the window


def test_symmetric_bases_are_freed_after_large_oracle_calls():
    # each cell is past the old d^n <= 10^6 guard, whose dense bases at
    # 2^19 x 20, 3^11 x 78 and 4^8 x 165 floats once held 268 MB; the
    # term tables of the first two, 250 and 9,870 integers, are dropped
    code = """
import gc, tracemalloc
from definetti import oracle
from definetti.symmetric import SymTriple
tracemalloc.start()
for cell in ((498, 249, 2, 100), (497, 139, 3, 70), (9, 4, 5, 2)):
    oracle.brute_delta_symmetric(SymTriple(*cell))
gc.collect()
print(tracemalloc.get_traced_memory()[0])
"""
    assert int(_in_child(code)) <= 16 * 2**20


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


# sha256 of the ladder tables for 2j1, 2j2 <= 10, recorded before the
# ladder's inner loops were rewritten over each slice's span
LADDER_TABLES_SHA256 = "1dd4a77041f9636e9ae936b0e19532a0cdd074f2a4ee3479c6b6a0df05a34327"


def test_cg_oracle_tables_keep_their_values_and_order():
    h = hashlib.sha256()
    for tj1 in range(11):
        for tj2 in range(11):
            for key, val in cg_oracle(TwoJ(tj1), TwoJ(tj2)).items():
                sq = val.square()
                h.update(repr((tj1, tj2, key, val.sign, sq.numerator, sq.denominator)).encode())
    assert h.hexdigest() == LADDER_TABLES_SHA256


def test_slice_weights_are_binomial():
    # W F = (2j1)! (2j2)! on the slice, F = (j1+m1)! (j1-m1)! (j2+m2)! (j2-m2)!
    for tj1 in range(13):
        for tj2 in range(13):
            top = factorial(tj1) * factorial(tj2)
            for tm in range(-tj1 - tj2, tj1 + tj2 + 1, 2):
                w = oracle._slice_weights(tj1, tj2, tm)
                assert len(w) == tj1 + 1
                for im1, wi in enumerate(w):
                    tm1 = tj1 - 2 * im1
                    tm2 = tm - tm1
                    if abs(tm2) > tj2:
                        assert wi == 0, (tj1, tj2, tm, tm1)
                        continue
                    f = (
                        factorial((tj1 + tm1) // 2)
                        * factorial((tj1 - tm1) // 2)
                        * factorial((tj2 + tm2) // 2)
                        * factorial((tj2 - tm2) // 2)
                    )
                    assert wi * f == top, (tj1, tj2, tm, tm1)


def test_cg_oracle_weighs_each_slice_once_over_its_span(monkeypatch):
    # the ladder walks the slices with m >= 0 only, each once, the rest
    # being reflected; every state is kept over its m-slice's span only:
    # each inner product of a slice pairs two states and the weights, all
    # of the span's length, and every stored state enters its slice's norms
    weights, wdot = oracle._slice_weights, oracle._wdot
    slices, bad = [], []

    def counted(tj1, tj2, tm):
        slices.append((tj1, tj2, tm))
        return weights(tj1, tj2, tm)

    def checked(u, v, w):
        tj1, tj2, tm = slices[-1]
        span = sum(abs(tm - tj1 + 2 * i) <= tj2 for i in range(tj1 + 1))
        if not len(u) == len(v) == len(w) == span:
            bad.append((tj1, tj2, tm, len(u), len(v), len(w), span))
        return wdot(u, v, w)

    monkeypatch.setattr(oracle, "_slice_weights", counted)
    monkeypatch.setattr(oracle, "_wdot", checked)
    for tj1 in range(9):
        for tj2 in range(9):
            slices.clear()
            cg_oracle(TwoJ(tj1), TwoJ(tj2))
            tms = range(tj1 + tj2, -1, -2)
            assert slices == [(tj1, tj2, tm) for tm in tms], (tj1, tj2)
    assert bad == []


def test_cg_oracle_fails_without_the_reflection_phase(monkeypatch):
    # the m < 0 slices copied from their mirrors with no (-1)^(j1+j2-j)
    source = inspect.getsource(oracle.cg_oracle)
    assert source.count("flip = (tj_top - tj) % 4") == 1
    namespace = dict(vars(oracle))
    exec(source.replace("flip = (tj_top - tj) % 4", "flip = 0"), namespace)
    mutant = namespace["cg_oracle"]

    # integer j1 + j2 with a block of odd j1 + j2 - j: the m = 0 check fires
    raised = []
    for tj1, tj2 in product(range(9), repeat=2):
        try:
            mutant(TwoJ(tj1), TwoJ(tj2))
        except AssertionError as exc:
            assert str(exc) == "reflection broken: the m = 0 entries are not their own mirror"
            raised.append((tj1, tj2))
    assert raised == [(a, b) for a, b in product(range(9), repeat=2) if (a + b) % 2 == 0 and a and b]
    assert len(raised) == 32
    # half-integer j1 + j2 has no m = 0 slice: the closed form sees the sign
    table = mutant(TwoJ(1), TwoJ(2))
    assert table[1, -1, 1] == -cg_oracle(TwoJ(1), TwoJ(2))[1, -1, 1]
    assert table[1, -1, 1] != su2_cg._cg_doubled(1, 1, 2, -2, 1, -1)
    monkeypatch.setattr(oracle, "cg_oracle", mutant)
    with pytest.raises(AssertionError, match="^reflection broken"):
        verify.cg_oracle_match(8)


def test_cg_oracle_match_sees_a_dropped_binomial(monkeypatch):
    def one_binomial(tj1, tj2, tm):
        return [comb(tj1, i) if abs(tm - tj1 + 2 * i) <= tj2 else 0 for i in range(tj1 + 1)]

    monkeypatch.setattr(oracle, "_slice_weights", one_binomial)
    with pytest.raises(AssertionError, match=r"^entry 2\(j1,j2,j,m,m1\)="):
        verify.cg_oracle_match(4)


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


def _dense_annihilator(cutoff: int) -> np.ndarray:
    """The annihilation matrix on span{|0>, ..., |cutoff>}."""
    return np.diag(np.sqrt(np.arange(1.0, cutoff + 1)), k=1)


def _dense_ladder(mu, nu, state, a):
    """(sqrt(mu) a x 1 + sqrt(nu) 1 x a)/sqrt(mu+nu) on state, for the dense
    ladder matrix a, by two matrix products: the reference for the shifts."""
    p, q = _coprime(mu, nu)
    return _sqrt_float(p, p + q) * (a @ state) + _sqrt_float(q, p + q) * (state @ a.T)


def _dense_create(mu, nu, state):
    return _dense_ladder(mu, nu, state, _dense_annihilator(len(state) - 1).T)


# verify's weight pairs, two exact ratios and a lopsided pair
LADDER_PAIRS = (*product((1, 2, 5), (1, 3)), (1.0, 1.0), (2.0, 3.0), (0.5, 1.25), (Fraction(2, 3), 5), (1, 99))


def test_the_pair_ladders_equal_the_dense_fock_matrices_bit_for_bit(monkeypatch):
    # a row of the dense products has one nonzero term, so each entry is
    # the one rounded product that the shift forms; the cutoffs are
    # verify's (Delta + 30, 40, r_max + Delta + 40) and the smallest
    rng = np.random.default_rng(34)
    for cutoff in (1, 2, 30, 36, 40, 46, 49):
        a = _dense_annihilator(cutoff)
        state = rng.standard_normal((cutoff + 1, cutoff + 1))
        for mu, nu in LADDER_PAIRS:
            assert np.array_equal(pair_annihilate(mu, nu, state), _dense_ladder(mu, nu, state, a)), (cutoff, mu, nu)
            assert np.array_equal(pair_create(mu, nu, state), _dense_ladder(mu, nu, state, a.T)), (cutoff, mu, nu)
    # the towers and the oracle built on them, against the same built on
    # the dense creation matrix
    grid = [(mu, nu, Delta) for mu, nu in LADDER_PAIRS for Delta in (0, 1, 3, 6)]
    got = [(pair_tower(mu, nu, Delta, 5, 40), heis_oracle(mu, nu, Delta, 6)) for mu, nu, Delta in grid]
    monkeypatch.setattr(oracle, "pair_create", _dense_create)
    for (tower, values), (mu, nu, Delta) in zip(got, grid):
        assert all(map(np.array_equal, tower, pair_tower(mu, nu, Delta, 5, 40))), (mu, nu, Delta)
        assert values == heis_oracle(mu, nu, Delta, 6), (mu, nu, Delta)


def test_fock_operators():
    # [b, b+] = 1 for the combined mode b, on states that the truncation
    # leaves alone: zero in the last row and column, so b+ drops nothing
    rng = np.random.default_rng(1)
    for mu, nu in LADDER_PAIRS:
        state = np.zeros((21, 21))
        state[:20, :20] = rng.standard_normal((20, 20))
        comm = pair_annihilate(mu, nu, pair_create(mu, nu, state)) - pair_create(mu, nu, pair_annihilate(mu, nu, state))
        assert np.abs(comm - state).max() < 1e-12 * np.abs(state).max(), (mu, nu)
    # at the edge b+ drops the first mode's quantum: b b+ |20, 0> keeps
    # only the second mode's share, nu/(mu+nu)
    edge = np.zeros((21, 21))
    edge[20, 0] = 1.0
    assert pair_annihilate(1, 3, pair_create(1, 3, edge))[20, 0] == pytest.approx(0.75, abs=1e-15)
    for shape in ((3, 4), (4,), (2, 2, 2)):
        with pytest.raises(ValueError, match=r"^need a square 2-D state, got shape \("):
            pair_create(1, 1, np.zeros(shape))


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


def _heis_cells(Delta, r_max):
    """(cells held, cells touched) by heis_oracle: two states of side^2
    cells and one column of side cells per state, and every state made."""
    states, side = max(r_max - Delta, 0) + 11, r_max + Delta + 41
    return 2 * side**2 + states * side, states * side**2


def test_the_fock_matrices_stop_at_their_cell_guard(monkeypatch):
    # heis_oracle holds about two states, so a tower of 216 states of 246^2
    # cells, past FOCK_CELL_GUARD in all, runs; each radius against the
    # closed form
    assert 216 * 246**2 > oracle.FOCK_CELL_GUARD
    for r, got in enumerate(heis_oracle(1, 1, 0, 205)):
        want = float(delta_number_space(HeisenbergTriple(Fraction(1), Fraction(1), 0, r)).delta)
        assert abs(got - want) <= verify.ROUNDOFF, r
    # just past its held guard (few large states) and its work guard (many
    # states), each call one step past one guard and inside the other;
    # neither refusal loads numpy
    held, work = oracle.HEIS_HELD_GUARD, oracle.HEIS_WORK_GUARD
    assert _heis_cells(1370, 0)[0] <= held < _heis_cells(1371, 0)[0] and _heis_cells(1371, 0)[1] <= work
    assert _heis_cells(0, 433)[1] <= work < _heis_cells(0, 434)[1] and _heis_cells(0, 434)[0] <= held
    code = """
import sys
from definetti import oracle
for args in ((1, 1, 1371, 0), (1, 1, 0, 434)):
    try:
        oracle.heis_oracle(*args)
    except ValueError as exc:
        print(exc)
print("numpy" in sys.modules)
"""
    assert _in_child(code).splitlines() == [
        f"size guard exceeded: 2 x 1412^2 + 11 x 1412 cells held > {held}",
        f"size guard exceeded: 445 x 475^2 cells touched > {work}",
        "False",
    ]
    # both bounds are inclusive: (Delta, r_max) = (0, 3) holds
    # 2 x 44^2 + 14 x 44 cells and touches 14 x 44^2
    assert _heis_cells(0, 3) == (4488, 27104)
    for guard, cells in (("HEIS_HELD_GUARD", 4488), ("HEIS_WORK_GUARD", 27104)):
        monkeypatch.setattr(oracle, guard, cells)
        assert len(heis_oracle(1, 1, 0, 3)) == 4
        monkeypatch.setattr(oracle, guard, cells - 1)
        with pytest.raises(ValueError, match=f"^size guard exceeded: .* > {cells - 1}$"):
            heis_oracle(1, 1, 0, 3)
        monkeypatch.undo()
    # pair_vacuum and pair_tower hold every state they return
    side = isqrt(oracle.FOCK_CELL_GUARD) + 1  # one matrix of side^2 cells is past the guard
    for call, args in (
        (pair_tower, (1, 1, 0, 1000, 1000)),
        (pair_vacuum, (1, 1, 0, side - 1)),
    ):
        with pytest.raises(ValueError, match=f"^size guard exceeded: .* cells > {oracle.FOCK_CELL_GUARD}$"):
            call(*args)
    # the guard bounds the cells held, inclusive: 13 states of 13^2 fit
    monkeypatch.setattr(oracle, "FOCK_CELL_GUARD", 13 * 13**2)
    assert len(pair_tower(1, 1, 0, 12, 12)) == 13
    with pytest.raises(ValueError, match=r"^size guard exceeded: 13 x 14\^2 cells > 2197$"):
        pair_tower(1, 1, 0, 12, 13)


def test_heis_oracle_refuses_a_tower_its_roundoff_could_drift(monkeypatch):
    # C(Delta + n_max, n_max) against 2^77, n_max = max(r_max - Delta, 0) + 10:
    # at r_max = 0, Delta = 936 is in and 937 out; at Delta = 24, r_max = 92
    # is in and 93 out
    bound = oracle.HEIS_ROUNDOFF_GUARD
    assert comb(946, 10) <= bound < comb(947, 10) and comb(102, 78) <= bound < comb(103, 79)
    for mu, nu in ((1, 1), (1, 99), (99, 1)):
        assert len(heis_oracle(mu, nu, 24, 92)) == 93
    assert len(heis_oracle(1, 1, 936, 0)) == 1
    code = """
import sys
from definetti import oracle
for args in ((1, 1, 937, 0), (1, 1, 24, 93), (1, 1, 1150, 0), (1, 1, 1370, 0)):
    try:
        oracle.heis_oracle(*args)
    except ValueError as exc:
        print(exc)
print("numpy" in sys.modules)
"""
    prefix = "roundoff guard exceeded: C(Delta + n_max, n_max) ="
    assert _in_child(code).splitlines() == [
        f"{prefix} C(947, 10) > 2^77",
        f"{prefix} C(103, 79) > 2^77",
        f"{prefix} C(1160, 10) > 2^77",
        f"{prefix} C(1380, 10) > 2^77",
        "False",
    ]
    # past the guard the norm check still stands: C(160, 60) is about 2^150
    monkeypatch.setattr(oracle, "HEIS_ROUNDOFF_GUARD", 2**200)
    with pytest.raises(RuntimeError, match="^tower state's norm drifted from 1 by roundoff: norm "):
        heis_oracle(1, 1, 100, 150)


def test_heis_oracle_matches_formula():
    assert heis_oracle(1, 1, 0, 0)[0] == pytest.approx(0.5, abs=1e-12)


def test_the_fock_oracle_reads_the_exact_ratio_of_the_weights():
    # equal weights past the float range, or whose sum or powers are,
    # give the values of (1, 1); an infinite weight is refused, as every
    # closed form refuses it
    base = heis_oracle(1, 1, 0, 3)
    assert base == [0.5, 0.75, 0.875, 0.9375]
    assert heis_oracle(Fraction(10**400), Fraction(10**400), 0, 3) == base
    assert heis_oracle(1e308, 1e308, 0, 3) == base
    assert np.array_equal(pair_vacuum(1e200, 1e200, 2, 10), pair_vacuum(1, 1, 2, 10))
    for call in (heis_oracle, pair_vacuum):
        with pytest.raises(ValueError, match=r"^mode weights must be finite, got mu=inf, nu=1.0$"):
            call(inf, 1.0, 0, 3)
    # each amplitude is the root of its exact Schmidt weight, rounded once
    mu, nu, D = Fraction(2, 3), 5, 6
    state = pair_vacuum(mu, nu, D, D)
    for ell in range(D + 1):
        alpha = alpha_coeff(D, ell, mu, nu)
        assert state[D - ell, ell] == (-1) ** ell * _sqrt_float(alpha.numerator, alpha.denominator), ell


def _heis_single_radius_reference(mu, nu, Delta, r, cutoff):
    """heis_oracle at one radius, as it was computed before one tower
    served every radius: a tower of max(r - Delta, 0) + 10 states."""
    mu, nu = float(mu), float(nu)
    total = 0.0
    for state in pair_tower(mu, nu, Delta, max(r - Delta, 0) + 10, cutoff):
        nrm = np.linalg.norm(state)
        if abs(nrm - 1.0) > 1e-9:
            raise RuntimeError(f"tower state's norm drifted from 1 by roundoff: norm {nrm}")
        total += float((state[: r + 1, 0] ** 2).sum())
    return nu / (mu + nu) * total


def test_heis_oracle_equals_its_single_radius_reference():
    # criterion 9's grid, bit for bit: the shared tower's first states are
    # the short tower's, and each window sums them in the same order; the
    # reference truncates each radius at its own r + Delta + 40
    for mu, nu in product(range(1, 11), repeat=2):
        for Delta in range(6):
            got = heis_oracle(mu, nu, Delta, 10)
            want = [_heis_single_radius_reference(mu, nu, Delta, r, r + Delta + 40) for r in range(11)]
            assert got == want, (mu, nu, Delta)


def test_fock_oracle_builds_one_tower_per_offset(monkeypatch):
    calls = 0
    tower = oracle._tower_states  # the ladder that pair_tower lists and heis_oracle reads

    def counted(*args):
        nonlocal calls
        calls += 1
        return tower(*args)

    monkeypatch.setattr(oracle, "_tower_states", counted)
    pairs = tuple(product((1, 2, 5), (1, 3)))
    assert verify.fock_oracle(pairs, 3, 6) == "168 truncated-fock cross-checks"
    assert calls == 6 * 4  # one per (mu, nu, Delta), not one per radius


def test_single_weight_overlap_builds_each_weight_vector_once():
    # one term table per (n, k, d), k <= n <= 7, d = 2, 3, whose terms are
    # the moments of the k-site weight vectors
    oracle._moment_terms.cache_clear()
    assert verify.single_weight_overlap(7, 3) == "434 projector traces equal term_overlap exactly"
    assert oracle._moment_terms.cache_info().misses == 2 * 28
    # the radius loop of the dense check reads one table per (n, k)
    oracle._moment_terms.cache_clear()
    assert verify.dense_projector_oracle(((3, 4),)) == "30 projector overlaps equal 1 - eps/2 exactly"
    assert oracle._moment_terms.cache_info()[:2] == (20, 10)  # (hits, misses)


def test_a_broken_aligned_contraction_fails_both_symmetric_oracles(monkeypatch):
    # the n-k reference powers put on |z_(d-1)|^2 instead of |z_0|^2
    source = inspect.getsource(oracle._moment_terms)
    assert source.count("a = (w[0] + n - k, *w[1:])") == 1
    namespace = dict(vars(oracle))
    exec(source.replace("a = (w[0] + n - k, *w[1:])", "a = (*w[:-1], w[-1] + n - k)"), namespace)

    assert verify.dense_projector_oracle(((3, 4),)) == "30 projector overlaps equal 1 - eps/2 exactly"
    assert verify.single_weight_overlap(4, 3) == "95 projector traces equal term_overlap exactly"
    monkeypatch.setattr(oracle, "_moment_terms", namespace["_moment_terms"])
    with pytest.raises(AssertionError, match="dense oracle"):
        verify.dense_projector_oracle(((3, 4),))
    with pytest.raises(AssertionError, match="overlap"):
        verify.single_weight_overlap(4, 3)


def test_sphere_rule_is_gauss_legendre_times_equal_phases():
    # Golub-Welsch nodes and weights against numpy's own Gauss-Legendre rule
    for n_nodes in (1, 2, 5, oracle.QUAD_N, 2 * oracle.QUAD_N):
        x, w = np.polynomial.legendre.leggauss(n_nodes)
        batches = list(oracle._sphere_rule(n_nodes))
        assert len(batches) == n_nodes
        for (weight, g), xi, wi in zip(batches, x, w):
            assert g.shape == (2 * n_nodes, 2, 2)
            assert weight * 2 * (2 * n_nodes) == pytest.approx(wi, rel=0, abs=1e-14)
            assert np.abs(np.abs(g[:, 0, 0]) ** 2 - (1 + xi) / 2).max() < 1e-14
            # coset points in SU(2), at 2 n_nodes equally spaced phases
            assert np.abs(g @ g.conj().transpose(0, 2, 1) - np.eye(2)).max() < 1e-14
            assert np.abs(np.linalg.det(g) - 1).max() < 1e-14
            phases = np.exp(1j * np.pi / n_nodes * np.arange(2 * n_nodes))
            assert np.abs(g[:, 1, 0] - np.sqrt((1 - xi) / 2) * phases).max() < 1e-14


def test_a_broken_jacobi_matrix_fails_the_moment_check(monkeypatch):
    assert verify.sphere_rule_moments((3, 4)) == "57 moments a! b!/(a+b+1)! exact to 1e-12 on 3, 4 nodes"
    # the Chebyshev recurrence in place of Legendre's: still a rule, wrong moments
    source = inspect.getsource(oracle._sphere_rule)
    assert source.count("beta = i / np.sqrt(4 * i * i - 1)") == 1
    namespace = dict(vars(oracle))
    exec(source.replace("beta = i / np.sqrt(4 * i * i - 1)", "beta = np.full(len(i), 0.5)"), namespace)
    monkeypatch.setattr(oracle, "_sphere_rule", namespace["_sphere_rule"])
    with pytest.raises(AssertionError, match="moment"):
        verify.sphere_rule_moments((3, 4))


def test_mc_theorem1_runs_and_is_deterministic():
    (rep,) = mc_theorem1(4, 2, (1,), 7)
    oracle._mc_memo.clear()  # a second real run, not the memo's reports
    (rep2,) = mc_theorem1(4, 2, (1,), 7)
    assert rep2 is not rep
    assert rep.lhs_distance == rep2.lhs_distance
    assert rep.identity_residual == rep2.identity_residual
    assert rep.passed
    assert rep.bound == pytest.approx(float(epsilon(SymTriple(4, 2, 2, 1))))
    (different,) = mc_theorem1(4, 2, (1,), 8)
    assert different.lhs_distance != rep.lhs_distance


def _epsilon_sum_shifted(t: SymTriple) -> Fraction:
    # the shipped sum with its lower limit off by one: epsilon at r + 1, and 0 at r >= k - 1
    ratio = Fraction(dim_sym(t.n - t.k, t.d), dim_sym(t.n, t.d))
    total = Fraction(0)
    for i in range(t.r + 2, t.k + 1):
        total += Fraction(comb(t.k, i), comb(t.n, i)) * comb(i + t.d - 2, i)
    return 2 * ratio * total


def test_mc_inequality_fails_a_bound_off_by_one_in_r(monkeypatch):
    # at r = k the bound is 0, and the rule leaves no noise to pass on
    for n, k, seed in ((4, 2, 0), (4, 2, 1), (7, 3, 5), (9, 4, 2)):
        (rep,) = mc_theorem1(n, k, (k,), seed)
        assert rep.bound == 0 and rep.lhs_distance <= 1e-12 and rep.passed, (n, k, seed)
    monkeypatch.setattr(oracle, "_mc_memo", {})  # no report of the shipped bound is reused, or kept
    monkeypatch.setattr(oracle, "epsilon", _epsilon_sum_shifted)
    # in the trace norm the shifted bound already fails at r = 0, below r = k
    with pytest.raises(AssertionError, match=r"^r=0: lhs 0\.\d+ > bound 0\.2000 \+ grid gap"):
        verify.mc_inequality(0)


def test_mc_inequality_fails_a_halved_bound(monkeypatch):
    # the check reads the trace norm, which at (4, 2), seed 15 comes within
    # 0.1% of the bound at r = 1: a bound without its factor 2 fails there
    reps = mc_theorem1(4, 2, (0, 1, 2), 15)
    assert all(rep.passed for rep in reps) and reps[1].lhs_distance > 0.999 * reps[1].bound
    monkeypatch.setattr(oracle, "_mc_memo", {})
    monkeypatch.setattr(oracle, "epsilon", lambda t: epsilon(t) / 2)
    assert [rep.passed for rep in mc_theorem1(4, 2, (0, 1, 2), 15)] == [False, False, True]


def _einsum_outer(w, a, b):
    return np.einsum("n,na,nb->ab", w, a, b)


def _dense_projection(k, r):
    """The radius-r window projection of each row of a point matrix, through
    the dense matrix V of the window's basis vectors, as back V^* V^T."""
    ws, mat = _dense_basis(k)
    v_mat = mat[:, [i for i, w in enumerate(ws) if w[0] >= k - r]]
    return lambda back: (back @ v_mat.conj()) @ v_mat.T


def _mc_reference(n, k, r, seed):
    """mc_theorem1's report at one radius, integrated over the same rule in
    the 2^n qubit product basis: the state read through the qubit classes,
    the reference and the rotations as tensor powers of each point, the
    window as a dense projection, and the sums over each batch by einsum."""
    d, dim_b, d_formal = 2, 2 ** (n - k), dim_sym(n - k, 2)
    cols_n, sizes_n = _qubit_classes(n)
    rng = random.Random(seed)
    coeff = np.array([complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n + 1)])
    coeff /= np.linalg.norm(coeff)
    big = (coeff / np.sqrt(sizes_n))[cols_n].reshape(d**k, dim_b)
    rho_k = big @ big.conj().T
    project = _dense_projection(k, r)
    residual, lhs = 0.0, []
    for n_nodes in (oracle.QUAD_N, 2 * oracle.QUAD_N):
        x_sum = np.zeros((d**k, d**k), dtype=np.complex128)
        y_sum = np.zeros((d**k, d**k), dtype=np.complex128)
        for weight, g in oracle._sphere_rule(n_nodes):
            phi = np.einsum("ab,nb->na", big, _vector_power(g[:, :, 0], n - k).conj())
            masses = weight * d_formal * np.linalg.norm(phi, axis=1) ** 2
            x_sum += weight * d_formal * _einsum_outer(np.ones(len(phi)), phi, phi.conj())
            g_k = _matrix_power(g, k)
            proj = project(np.einsum("nba,nb->na", g_k.conj(), phi))
            nrm = np.linalg.norm(proj, axis=1)
            chi_hat = np.einsum("nij,nj->ni", g_k, proj / np.where(nrm > 1e-150, nrm, 1.0)[:, None])
            chi_hat[nrm <= 1e-150] = 0.0
            y_sum += _einsum_outer(masses, chi_hat, chi_hat.conj())
        residual = max(residual, trace_distance(rho_k, (x_sum + x_sum.conj().T) / 2))
        lhs.append(2 * trace_distance(rho_k, (y_sum + y_sum.conj().T) / 2))  # the trace norm
    return oracle.McReport(
        n=n,
        k=k,
        r=r,
        seed=seed,
        lhs_distance=lhs[1],
        lhs_coarse=lhs[0],
        bound=float(epsilon(SymTriple(n, k, 2, r))),
        identity_residual=residual,
    )


def test_mc_theorem1_matches_its_einsum_reference():
    # the Dicke-basis oracle against the product-basis reference: the two
    # differ only by roundoff
    for n, k in ((4, 2), (7, 3), (8, 3), (12, 4)):
        for seed in range(3):
            for r, rep in enumerate(mc_theorem1(n, k, tuple(range(k + 1)), seed)):
                want = _mc_reference(n, k, r, seed)
                for name in oracle.McReport.__slots__:
                    value = getattr(want, name)
                    assert getattr(rep, name) == pytest.approx(value, rel=0, abs=1e-12), (n, k, r, seed, name)


def test_mc_theorem1_equals_its_single_radius_reference():
    # field for field, bit for bit, on both grids: the radii share the
    # state and the points, and nothing else
    for n, k in ((4, 2), (7, 3), (16, 15)):
        for seed in (0, 7, 2**31 - 1):
            got = mc_theorem1(n, k, tuple(range(k + 1)), seed)
            for r in range(k + 1):
                oracle._mc_memo.clear()
                assert mc_theorem1(n, k, (r,), seed) == (got[r],), (n, k, r, seed)


def test_mc_inequality_samples_once_for_all_radii(monkeypatch):
    calls = 0
    rule = oracle._sphere_rule

    def counted(*args):
        nonlocal calls
        calls += 1
        return rule(*args)

    monkeypatch.setattr(oracle, "_sphere_rule", counted)
    oracle._mc_memo.clear()
    verify.mc_inequality(0)
    assert calls == 2  # each grid once, for all radii
    # mc_identity_recovery would integrate the state again, for a residual
    # that does not depend on the radii; it reads the same run
    line = verify.mc_identity_recovery(0)
    assert calls == 2 and line == f"identity residual <= 1e-12 on {oracle.QUAD_N} and {2 * oracle.QUAD_N} nodes"
    (full,) = oracle._mc_memo.values()
    # the memo keeps the last call only, and a changed argument integrates afresh
    (alone,) = mc_theorem1(4, 2, (2,), 0)
    assert calls == 4 and alone.identity_residual == full[0].identity_residual
    assert mc_theorem1(4, 2, (2,), 0) == (alone,) and calls == 4
    mc_theorem1(4, 2, (2,), 1)
    assert calls == 6 and len(oracle._mc_memo) == 1


def test_mc_theorem1_holds_one_small_batch():
    # a batch is one node's 2 n_nodes points in the Dicke basis, and its
    # arrays are the run's working set; numpy reports its buffers to
    # tracemalloc.  (16, 15) would hold 2^15-square matrices in the
    # product basis
    code = """
import tracemalloc
from definetti import oracle
oracle.mc_theorem1(4, 2, (0, 1, 2), 1)  # numpy and its first-call buffers
for args in ((4, 2, (0, 1, 2), 0), (16, 15, tuple(range(16)), 0)):
    tracemalloc.start()
    oracle.mc_theorem1(*args)
    print(tracemalloc.get_traced_memory()[1])
    tracemalloc.stop()
"""
    peaks = [int(line) for line in _in_child(code).splitlines()]
    assert len(peaks) == 2 and max(peaks) <= 1.5 * 2**20, peaks


def test_mc_theorem1_guards(monkeypatch):
    with pytest.raises(ValueError):
        mc_theorem1(4, 0, (0,), 0)
    with pytest.raises(ValueError):
        mc_theorem1(4, 4, (0,), 0)
    with pytest.raises(ValueError):
        mc_theorem1(4, 2, (3,), 0)
    with pytest.raises(ValueError, match=r"^need seed >= 0, got seed=-1$"):
        mc_theorem1(4, 2, (0,), -1)

    # every radius is checked before the first point is integrated
    def fail(*args):
        raise AssertionError("integration started")

    monkeypatch.setattr(oracle, "_sphere_rule", fail)
    with pytest.raises(ValueError, match=r"^need 0 <= r <= k, got r=3$"):
        mc_theorem1(4, 2, (0, 1, 3), 0)

    # one step past the exactness guard, n - k <= 2 QUAD_N - 1 = 31, and
    # past the work guard, 2,560 points x (k+1)^2 x (radii + 2) <= 10^9
    # cells, each refused before numpy loads; at each bound the call
    # passes every guard and reaches the numpy import
    assert (oracle.QUAD_N, oracle.MC_WORK_GUARD, 2560 * 25**2 * 625) == (16, 10**9, 10**9)
    code = """
import sys
sys.modules["numpy"] = None  # import numpy raises ModuleNotFoundError
from definetti import oracle
for args in ((47, 15, (0,), 0), (46, 15, (0,), 0), (30, 24, (0,) * 624, 0), (30, 24, (0,) * 623, 0)):
    try:
        oracle.mc_theorem1(*args)
    except ValueError as exc:
        print(exc)
    except ModuleNotFoundError:
        print("admitted")
"""
    assert _in_child(code).splitlines() == [
        "size guard exceeded: n - k > 31, the degree the rule gives exactly, at n=47, k=15",
        "admitted",
        "size guard exceeded: 2560 points x 25^2 x 626 cells touched > 1000000000",
        "admitted",
    ]
