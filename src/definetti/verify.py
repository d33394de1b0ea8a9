"""Verification checks and the suites behind the `verify` CLI command.

Each check is a module-level function that takes its ranges (and, where
it samples, its seed and sample count), raises AssertionError at the
first violation and otherwise returns a one-line detail.  The suites run
every check at fixed ranges and report one line per check; the
acceptance tests call the same functions at their own pinned ranges.
Formula functions are looked up through their modules at call time, so
an injected mutation in any module is caught here.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb

import numpy as np

from . import heisenberg, oracle, su2_cg, symmetric, weights
from .radicals import RadicalSum
from .su2_cg import TwoJ
from .symmetric import SymTriple
from .weights import Weight

SUITES = ("weights", "cg", "symmetric", "heisenberg", "mc")


@dataclass
class Check:
    name: str
    passed: bool
    detail: str
    seconds: float


def _check(name: str, fn, *args) -> Check:
    t0 = time.monotonic()
    try:
        detail = fn(*args)
        return Check(name, True, detail or "", time.monotonic() - t0)
    except Exception as exc:  # a failed check must not stop the suite
        return Check(name, False, f"{type(exc).__name__}: {exc}", time.monotonic() - t0)


def _approx(a: float, b: float, tol: float, what: str) -> None:
    # written so that a NaN on either side, or a NaN tolerance, fails
    if not abs(a - b) <= tol:
        raise AssertionError(f"{what}: |{a!r} - {b!r}| = {abs(a - b):.3e} > {tol:g}")


def _exact(a, b, what: str) -> None:
    if a != b:
        raise AssertionError(f"{what}: {a!r} != {b!r}")


# ---------------------------------------------------------------------------
# weights


def simple_root_decomposition(k: int, d_max: int) -> str:
    """Every zero-sum difference of k-site weights decomposes over the
    simple roots, for 2 <= d <= d_max."""
    count = 0
    for d in range(2, d_max + 1):
        roots = [weights.simple_root(i, d) for i in range(1, d)]
        for w in weights.sym_weights(k, d):
            for w2 in weights.sym_weights(k, d):
                hd = weights.height_down(w2, w)
                rebuilt = w2
                for c, alpha in zip(hd.coefficients, roots):
                    rebuilt = Weight(tuple(a - c * b for a, b in zip(rebuilt, alpha)))
                _exact(rebuilt, w, "root decomposition must reconstruct the weight")
                count += 1
    return f"{count} reconstructions exact"


def reversal_duality(n_max: int, d_max: int) -> str:
    """Height below the top equals height above the bottom of the reversal."""
    count = 0
    for d in range(2, d_max + 1):
        for n in range(0, n_max + 1):
            lam = Weight((n,) + (0,) * (d - 1))
            for w in weights.sym_weights(n, d):
                down = weights.height_down(lam, w).height
                up = weights.height_up(lam, w.reversed()).height
                _exact(down, up, f"reversal duality at {w}")
                count += 1
    return f"{count} weight pairs"


def order_height_monotone(n_max: int, d_max: int) -> str:
    """Dominance order implies the order of heights above the bottom."""
    count = 0
    for d in range(2, d_max + 1):
        for n in range(0, n_max + 1):
            mu = Weight((n,) + (0,) * (d - 1))
            ws = weights.sym_weights(n, d)
            for a in ws:
                for b in ws:
                    if weights.weight_leq(a, b):
                        ha = weights.height_up(mu, a).height
                        hb = weights.height_up(mu, b).height
                        if ha > hb:
                            raise AssertionError(f"height not monotone: {a} <= {b}")
                        count += 1
    return f"{count} ordered pairs"


def type_class_partition(k_max: int, d_max: int) -> str:
    """Type-class sizes add up to d^k."""
    for d in range(2, d_max + 1):
        for k in range(0, k_max + 1):
            total = sum(weights.type_class_size(w) for w in weights.sym_weights(k, d))
            _exact(total, d**k, f"type classes must partition ({k},{d})")
    return f"partitions exact up to k={k_max}, d={d_max}"


def radius_window_counts(k_max: int, d_max: int) -> str:
    """Both radius windows have the closed-form cardinality."""
    for d in range(2, d_max + 1):
        for k in range(0, k_max + 1):
            for r in range(0, k + 1):
                got = len(weights.w_r_set(k, d, r, "down"))
                want = sum(comb(k - i + d - 2, k - i) for i in range(k - r, k + 1))
                _exact(got, want, f"window count ({k},{d},{r})")
                _exact(len(weights.w_r_set(k, d, r, "up")), got, f"up/down count ({k},{d},{r})")
    return f"window cardinalities exact up to k={k_max}, d={d_max}"


def two_level_radius(n_max: int) -> str:
    """The two-level exact radius is k - l."""
    for n in range(1, n_max + 1):
        for k in range(1, n + 1):
            for ell in range(0, min(k, n - k) + 1):
                lam = Weight((n - ell, ell))
                mu = Weight((k, 0))
                nu = Weight((n - k, 0))
                _exact(weights.exact_radius(lam, mu, nu), k - ell, f"radius at {(n, k, ell)}")
    return f"two-level radius k-l exact up to n={n_max}"


# ---------------------------------------------------------------------------
# SU(2) coupling coefficients (angular momenta doubled throughout)


def _cg(tj1: int, tm1: int, tj2: int, tm2: int, tj: int, tm: int):
    return su2_cg.cg(TwoJ(tj1), TwoJ(tm1), TwoJ(tj2), TwoJ(tm2), TwoJ(tj), TwoJ(tm))


def cg_oracle_match(tj_max: int, exact_max: int) -> str:
    """Ladder-built tables for 2j1, 2j2 <= tj_max against the closed form:
    entry for entry where 2j1, 2j2 <= exact_max, elsewhere as the exact
    (sign, square) pair of the Racah parts S and R, coefficient S*sqrt(R)."""
    exact = pairs = 0
    for tj1 in range(0, tj_max + 1):
        for tj2 in range(0, tj_max + 1):
            table = oracle.cg_oracle(TwoJ(tj1), TwoJ(tj2))
            exact_zone = tj1 <= exact_max and tj2 <= exact_max
            for (tj, tm, tm1), val in table.items():
                what = f"entry 2(j1,j2,j,m,m1)={(tj1, tj2, tj, tm, tm1)}"
                if exact_zone:
                    _exact(_cg(tj1, tm1, tj2, tm - tm1, tj, tm), val, what)
                    exact += 1
                else:
                    s, pre = su2_cg._racah_parts(tj1, tm1, tj2, tm - tm1, tj, tm)
                    _exact(val.sign, (s > 0) - (s < 0), f"{what} sign")
                    _exact(val.square(), s * s * pre, f"{what} square")
                    pairs += 1
    detail = f"{exact} exact matches for j1,j2 <= {TwoJ(exact_max)}"
    if pairs:
        detail += f"; {pairs} exact (sign, square) matches for j1,j2 <= {TwoJ(tj_max)}"
    return detail


def cg_rows_orthonormal(tjs) -> str:
    """The coupled rows of every fixed-m block are exactly orthonormal,
    for 2j1, 2j2 in tjs."""
    count = 0
    for tj1 in tjs:
        for tj2 in tjs:
            for tm in range(-(tj1 + tj2), tj1 + tj2 + 1, 2):
                tm1s = range(max(-tj1, tm - tj2), min(tj1, tm + tj2) + 1, 2)
                row_tjs = range(max(abs(tj1 - tj2), abs(tm)), tj1 + tj2 + 1, 2)
                rows = [
                    [RadicalSum.from_exact(_cg(tj1, tm1, tj2, tm - tm1, tj, tm)) for tm1 in tm1s]
                    for tj in row_tjs
                ]
                for a in range(len(rows)):
                    for b in range(a, len(rows)):
                        acc = RadicalSum.zero()
                        for x, y in zip(rows[a], rows[b]):
                            acc = acc + x * y
                        want = Fraction(1) if a == b else Fraction(0)
                        where = (tj1, tj2, row_tjs[a], row_tjs[b], tm)
                        _exact(acc.as_fraction(), want, f"row orthogonality {where}")
                        count += 1
    return f"{count} exact row products"


def cg_columns_complete(tjs) -> str:
    """Squared coefficients of every product state sum to exactly 1,
    for 2j1, 2j2 in tjs."""
    count = 0
    for tj1 in tjs:
        for tj2 in tjs:
            for tm1 in range(-tj1, tj1 + 1, 2):
                for tm2 in range(-tj2, tj2 + 1, 2):
                    tm = tm1 + tm2
                    total = Fraction(0)
                    for tj in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
                        if abs(tm) > tj:
                            continue
                        total += _cg(tj1, tm1, tj2, tm2, tj, tm).square()
                    _exact(total, Fraction(1), f"completeness {(tj1, tj2, tm1, tm2)}")
                    count += 1
    return f"{count} exact column sums"


def aligned_block_overlap(tj_max: int) -> str:
    """The coupled block at j = j1+j2 meets the top window with weight
    exactly (2j2+1)/(2j+1), for 2j1, 2j2 <= tj_max."""
    for tj1 in range(0, tj_max + 1):
        for tj2 in range(0, tj_max + 1):
            rep = su2_cg.delta_su2(TwoJ(tj1), TwoJ(tj2), TwoJ(tj1 + tj2), TwoJ(tj2), 0)
            _exact(rep.delta, Fraction(tj2 + 1, tj1 + tj2 + 1), f"aligned overlap {(tj1, tj2)}")
    return f"aligned-block overlap exact for j1,j2 <= {TwoJ(tj_max)}"


def window_saturation(tj_max: int) -> str:
    """The window overlap grows with r and is exactly 1 at r = 2j1."""
    for tj1 in range(0, tj_max + 1):
        for tj2 in range(0, tj_max + 1):
            for tj in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
                prev = Fraction(-1)
                for r in range(0, tj1 + 1):
                    rep = su2_cg.delta_su2(TwoJ(tj1), TwoJ(tj2), TwoJ(tj), TwoJ(tj2), r)
                    if rep.delta < prev:
                        raise AssertionError(f"delta not monotone at {(tj1, tj2, tj, r)}")
                    prev = rep.delta
                full = su2_cg.delta_su2(TwoJ(tj1), TwoJ(tj2), TwoJ(tj), TwoJ(tj2), tj1)
                _exact(full.delta, Fraction(1), f"saturation {(tj1, tj2, tj)}")
    return "monotone in r, exactly 1 at r = 2*j1"


def window_reflection(tj_max: int, r_max: int) -> str:
    """The down window at m2 = j2 equals the up window at m2 = -j2."""
    for tj1 in range(0, tj_max + 1):
        for tj2 in range(0, tj_max + 1):
            for tj in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
                for r in range(0, min(tj1, r_max) + 1):
                    down = su2_cg.delta_su2(TwoJ(tj1), TwoJ(tj2), TwoJ(tj), TwoJ(tj2), r, "down")
                    up = su2_cg.delta_su2(TwoJ(tj1), TwoJ(tj2), TwoJ(tj), TwoJ(-tj2), r, "up")
                    _exact(down.delta, up.delta, f"up/down symmetry {(tj1, tj2, tj, r)}")
    return f"window reflection symmetry exact for j1,j2 <= {TwoJ(tj_max)}"


# ---------------------------------------------------------------------------
# symmetric subspace


def zero_radius_identity(n_max: int, d_max: int) -> str:
    """epsilon at r = 0 is twice the dimension-ratio deficit."""
    for n in range(1, n_max + 1):
        for k in range(1, n + 1):
            for d in range(2, d_max + 1):
                got = symmetric.epsilon(SymTriple(n, k, d, 0))
                want = 2 * (1 - Fraction(symmetric.dim_sym(n - k, d), symmetric.dim_sym(n, d)))
                _exact(got, want, f"r=0 identity {(n, k, d)}")
    return f"r=0 identity exact up to n={n_max}, d={d_max}"


def tail_sum_closed_form(n_max: int) -> str:
    """The closed-form tail sum equals the direct sum for every r <= k."""
    for n in range(1, n_max + 1):
        for k in range(1, n + 1):
            direct = Fraction(0)
            for r in range(k, -1, -1):
                if r < k:
                    direct += Fraction(comb(k, r + 1), comb(n, r + 1))
                _exact(symmetric.closed_form_sum(n, k, r), direct, f"closed form {(n, k, r)}")
    return f"tail sums exact up to n={n_max}"


def tail_sum_recursion(n_max: int) -> str:
    """Each radius step removes exactly one term C(k,r)/C(n,r)."""
    for n in range(1, n_max + 1):
        for k in range(1, n + 1):
            for r in range(1, k + 1):
                lhs = symmetric.closed_form_sum(n, k, r)
                rhs = symmetric.closed_form_sum(n, k, r - 1) - Fraction(comb(k, r), comb(n, r))
                _exact(lhs, rhs, f"recursion {(n, k, r)}")
    return f"descent recursion exact up to n={n_max}"


def d2_exact_error(n_max: int) -> str:
    """The d = 2 factorial form equals epsilon."""
    for n in range(1, n_max + 1):
        for k in range(1, n + 1):
            for r in range(0, k + 1):
                _exact(
                    symmetric.exact_error_d2(n, k, r),
                    symmetric.epsilon(SymTriple(n, k, 2, r)),
                    f"d=2 error {(n, k, r)}",
                )
    return f"d=2 factorial form equals the sum, n <= {n_max}"


def bound_chain(n_max: int, d_max: int) -> str:
    """epsilon/2 <= intermediate <= headline/2 wherever the bound applies."""
    count = 0
    for n in range(4, n_max + 1):
        for k in range(2, n - 1):
            for d in range(2, d_max + 1):
                if d > min(k, n - k):
                    continue
                for r in range(0, k + 1):
                    t = SymTriple(n, k, d, r)
                    eps = float(symmetric.epsilon(t))
                    inter, head = symmetric.bound_exponential(t)
                    if not eps / 2 <= inter * (1 + 1e-12):
                        raise AssertionError(f"eps/2 > intermediate at {(n, k, d, r)}")
                    if not inter <= head / 2 * (1 + 1e-12):
                        raise AssertionError(f"intermediate > headline/2 at {(n, k, d, r)}")
                    count += 1
    return f"{count} chain comparisons hold"


def profile_consistency(n_max: int, d_max: int) -> str:
    """The weight profile of the radius window reproduces 1 - epsilon/2."""
    for n in range(1, n_max + 1):
        for k in range(1, n + 1):
            for d in range(2, d_max + 1):
                for r in range(0, k + 1):
                    prof = symmetric.weight_profile(weights.w_r_set(k, d, r, "down"), k)
                    _exact(
                        symmetric.delta_psi_weights(n, k, d, prof),
                        1 - symmetric.epsilon(SymTriple(n, k, d, r)) / 2,
                        f"profile consistency {(n, k, d, r)}",
                    )
    return f"window profile reproduces 1 - eps/2, n <= {n_max}"


def full_profile_unity(n_max: int, d_max: int) -> str:
    """The profile of every k-site weight gives overlap exactly 1."""
    for n in range(1, n_max + 1):
        for k in range(1, n + 1):
            for d in range(2, d_max + 1):
                prof = symmetric.weight_profile(weights.sym_weights(k, d), k)
                _exact(
                    symmetric.delta_psi_weights(n, k, d, prof),
                    Fraction(1),
                    f"full profile {(n, k, d)}",
                )
    return f"full weight set gives exactly 1, n <= {n_max}"


def dense_projector_oracle(n_max_by_d, tol: float) -> str:
    """Dense projector overlaps match 1 - epsilon/2 to tol, for every
    (d, n_max) pair given."""
    count = 0
    for d, n_max in n_max_by_d:
        for n in range(1, n_max + 1):
            for k in range(1, n + 1):
                for r in range(0, k + 1):
                    t = SymTriple(n, k, d, r)
                    got = oracle.brute_delta_symmetric(t)
                    want = float(1 - symmetric.epsilon(t) / 2)
                    _approx(got, want, tol, f"dense oracle {(n, k, d, r)}")
                    count += 1
    return f"{count} dense cross-checks within {tol:g}"


def single_weight_overlap(n_max: int, d_max: int) -> str:
    """Projector traces of single weight vectors match term_overlap."""
    count = 0
    for d in range(2, d_max + 1):
        for n in range(1, n_max + 1):
            for k in range(1, n + 1):
                ref = oracle.sym_basis(n, d)
                for w in weights.sym_weights(k, d):
                    vec = oracle.sym_basis_vector(w)
                    psi = np.zeros(d ** (n - k))
                    psi[0] = 1.0
                    full = np.kron(vec, psi)
                    got = sum(float(np.dot(b, full)) ** 2 for _, b in ref)
                    _approx(got, float(symmetric.term_overlap(w, n, k)), 1e-12, f"overlap {(w, n, k)}")
                    count += 1
    return f"{count} projector traces match term_overlap"


# ---------------------------------------------------------------------------
# oscillator pair; `pairs` lists (mu, nu) mode weights


def fock_oracle(pairs, delta_max: int, r_max: int, tol: float) -> str:
    """Truncated-Fock overlaps match the number-window formula to tol."""
    count = 0
    for mu, nu in pairs:
        for Delta in range(0, delta_max + 1):
            for r in range(0, r_max + 1):
                got = oracle.heis_oracle(mu, nu, Delta, r, r + Delta + 40)
                want = float(
                    heisenberg.delta_number_space(
                        heisenberg.HeisenbergTriple(Fraction(mu), Fraction(nu), Delta, r)
                    ).delta
                )
                _approx(got, want, tol, f"fock oracle {(mu, nu, Delta, r)}")
                count += 1
    return f"{count} truncated-fock cross-checks"


def vacuum_annihilation(pairs, delta_max: int, tol: float) -> str:
    """The combined mode annihilates every paired vacuum to within tol."""
    residuals = []
    for mu, nu in pairs:
        for Delta in range(0, delta_max + 1):
            state = oracle.pair_vacuum(mu, nu, Delta, Delta + 30)
            residuals.append(np.linalg.norm(oracle.pair_annihilate(mu, nu, state)))
    worst = float(np.max(residuals))  # unlike max(), np.max propagates a NaN
    if not worst <= tol:
        raise AssertionError(f"annihilation residual {worst:.2e} > {tol:g}")
    return f"worst residual {worst:.2e}"


def tower_orthonormal(pairs, delta_max: int, n_max: int, cutoff: int, tol: float) -> str:
    """The towers of all offsets 0..delta_max together form one
    orthonormal family, per (mu, nu), to within tol."""
    defects = []
    for mu, nu in pairs:
        flat = []
        for Delta in range(0, delta_max + 1):
            for s in oracle.pair_tower(mu, nu, Delta, n_max, cutoff):
                flat.append(s.reshape(-1))
        gram = np.array([[float(np.dot(a, b)) for b in flat] for a in flat])
        defects.append(np.abs(gram - np.eye(len(flat))).max())
    worst = float(np.max(defects))  # unlike max(), np.max propagates a NaN
    if not worst <= tol:
        raise AssertionError(f"gram defect {worst:.2e} > {tol:g}")
    return f"worst gram defect {worst:.2e}"


def geometric_closed_form(pairs, r_max: int) -> str:
    """At offset 0 the overlap is the exact Fraction 1 - x^(r+1)."""
    for mu, nu in pairs:
        x = Fraction(mu) / (Fraction(mu) + Fraction(nu))
        for r in range(0, r_max + 1):
            rep = heisenberg.delta_number_space(
                heisenberg.HeisenbergTriple(Fraction(mu), Fraction(nu), 0, r)
            )
            if not isinstance(rep.delta, Fraction):
                raise AssertionError(f"inexact overlap {rep.delta!r} at {(mu, nu, r)}")
            _exact(rep.delta, 1 - x ** (r + 1), f"geometric {(mu, nu, r)}")
    return "offset-0 overlap is exactly 1 - x^(r+1)"


def coherent_consistency(n_max: int, rs) -> str:
    """The coherent-splitting bound equals the offset-0 oscillator bound."""
    for n in range(2, n_max + 1):
        for k in range(1, n):
            for r in rs:
                got = heisenberg.coherent_bound(n, k, r)
                want = heisenberg.epsilon_heisenberg(
                    heisenberg.HeisenbergTriple(Fraction(k), Fraction(n - k), 0, r)
                )
                _exact(got, want, f"coherent {(n, k, r)}")
    return f"splitting bound consistent up to n={n_max}"


def mass_identities(pairs, delta_max: int) -> str:
    """Schmidt coefficients sum to exactly 1; the number weights beyond
    n = 200 sum to at most their tail bound."""
    for Delta in range(0, delta_max + 1):
        for mu, nu in pairs:
            schmidt = sum(heisenberg.alpha_coeff(Delta, ell, mu, nu) for ell in range(Delta + 1))
            _exact(schmidt, Fraction(1), f"schmidt mass {(Delta, mu, nu)}")
            head = sum(heisenberg.alpha_weight(Delta, n, mu, nu) for n in range(200))
            tail = (mu + nu) / nu - head  # full mass is (mu+nu)/nu
            cap = heisenberg.alpha_weight_tail_bound(Delta, 200, mu, nu)
            # the bound is exactly tight at Delta=0, so allow roundoff
            if not (tail >= 0 and float(tail) <= cap * (1 + 1e-12)):
                raise AssertionError(f"tail {float(tail):.3e} outside [0, {cap:.3e}]")
    return "schmidt mass exactly 1; number-weight tail under its bound"


def saturation_limit() -> str:
    """The overlap deficit falls below 1e-8 at a finite radius."""
    # two exact cases plus one float case through the compensated sum
    for mu, nu in ((Fraction(1, 2), Fraction(2)), (Fraction(5), Fraction(1, 2)), (50.0, 0.5)):
        for Delta in (0, 3):
            r = Delta + 1
            while True:
                rep = heisenberg.delta_number_space(heisenberg.HeisenbergTriple(mu, nu, Delta, r))
                if 1 - rep.delta < 1e-8:
                    break
                r *= 2
                if r > 10**6:
                    raise AssertionError(f"no saturation by r=10^6 at {(mu, nu, Delta)}")
    return "deficit falls below 1e-8 at finite radius"


# ---------------------------------------------------------------------------
# Monte Carlo


def haar_schur_average(seed: int, n_samples: int) -> str:
    """The sampled group average of |a><b| is the Schur projection."""
    rng = np.random.default_rng([seed, 17])
    g = oracle.haar_su2(rng, n_samples)
    for a in range(2):
        for b in range(2):
            e = np.zeros((2, 2), dtype=complex)
            e[a, b] = 1.0
            avg = np.einsum("nij,jk,nlk->il", g, e, g.conj()) / n_samples
            want = np.eye(2) * (0.5 if a == b else 0.0)
            defect = float(np.abs(avg - want).max())
            if not defect <= 3 / np.sqrt(n_samples):
                raise AssertionError(f"schur average defect {defect:.3e} at ({a},{b})")
    return "group average of |a><b| matches the schur projection"


def mc_inequality(seed: int, n_samples: int) -> str:
    """The projected mixture stays within the bound at n=4, k=2, r=0,1,2."""
    lines = []
    for r in (0, 1, 2):
        rep = oracle.mc_theorem1(4, 2, r, n_samples, seed)
        if not rep.passed:
            raise AssertionError(
                f"r={r}: lhs {rep.lhs_distance:.4f} > bound {rep.bound:.4f} + tol {rep.mc_tolerance:.4f}"
            )
        lines.append(f"r={r}: lhs={rep.lhs_distance:.4f} <= bound={rep.bound:.4f}+{rep.mc_tolerance:.4f}")
    return "; ".join(lines)


def mc_identity_recovery(seed: int, n_samples: int) -> str:
    """The unprojected mixture recovers the reduced state to within
    0.02 * sqrt(10^5 / n_samples) in trace distance."""
    rep = oracle.mc_theorem1(4, 2, 2, n_samples, seed)
    cap = 0.02 * np.sqrt(10**5 / n_samples)
    if not rep.identity_residual <= cap:
        raise AssertionError(f"identity residual {rep.identity_residual:.4f} > {cap:.4f}")
    return f"identity residual {rep.identity_residual:.4f} at N={n_samples}"


# ---------------------------------------------------------------------------
# suites


def suite_weights(seed: int, tol: float) -> list[Check]:
    return [
        _check("simple-root decomposition reconstructs weights", simple_root_decomposition, 4, 4),
        _check("height duality under reversal", reversal_duality, 6, 3),
        _check("dominance order implies height order", order_height_monotone, 6, 3),
        _check("type classes partition the product basis", type_class_partition, 7, 4),
        _check("radius window cardinalities", radius_window_counts, 8, 4),
        _check("two-level exact radius", two_level_radius, 12),
    ]


def suite_cg(seed: int, tol: float) -> list[Check]:
    return [
        _check("ladder oracle equals closed form", cg_oracle_match, 8, 8),
        _check("coupled rows orthonormal", cg_rows_orthonormal, range(0, 9, 2)),
        _check("coupled columns complete", cg_columns_complete, range(0, 9, 2)),
        _check("aligned-block overlap (2j2+1)/(2j+1)", aligned_block_overlap, 16),
        _check("window overlap monotone and saturating", window_saturation, 6),
        _check("up/down window symmetry", window_reflection, 8, 3),
    ]


def suite_symmetric(seed: int, tol: float) -> list[Check]:
    return [
        _check("zero-radius identity", zero_radius_identity, 40, 4),
        _check("tail-sum closed form", tail_sum_closed_form, 30),
        _check("tail-sum descent recursion", tail_sum_recursion, 30),
        _check("d=2 exact error formula", d2_exact_error, 40),
        _check("exponential bound chain", bound_chain, 40, 4),
        _check("window profile consistency", profile_consistency, 16, 3),
        _check("full profile saturates at 1", full_profile_unity, 20, 3),
        _check("dense projector oracle", dense_projector_oracle, ((2, 9), (3, 6)), tol),
        _check("single-weight overlap oracle", single_weight_overlap, 7, 3),
    ]


def suite_heisenberg(seed: int, tol: float) -> list[Check]:
    masses = ((Fraction(2), Fraction(7)), (Fraction(1), Fraction(1)))
    return [
        _check("truncated-fock oracle grid", fock_oracle, product((1, 2, 5), (1, 3)), 3, 6, tol),
        _check(
            "paired vacuum annihilation",
            vacuum_annihilation,
            ((1.0, 1.0), (2.0, 3.0), (0.5, 1.25)),
            6,
            tol,
        ),
        _check("tower orthonormality", tower_orthonormal, ((1.0, 1.0), (2.0, 3.0)), 5, 5, 40, tol),
        _check("offset-0 geometric closed form", geometric_closed_form, product((1, 2, 5), (1, 4)), 12),
        _check("coherent-splitting consistency", coherent_consistency, 60, (0, 1, 2, 5)),
        _check("schmidt and number-weight masses", mass_identities, masses, 8),
        _check("overlap saturates toward 1", saturation_limit),
    ]


def suite_mc(seed: int, tol: float, n_samples: int = 10**4) -> list[Check]:
    return [
        _check("haar sampler schur average", haar_schur_average, seed, 4000),
        _check("projected mixture within bound", mc_inequality, seed, n_samples),
        _check("unprojected mixture recovers reduced state", mc_identity_recovery, seed, n_samples),
    ]


def run_suites(
    names: list[str],
    seed: int = 0,
    tol: float = 1e-10,
    n_samples: int = 10**4,
) -> list[tuple[str, list[Check]]]:
    """Run the named suites in the order given."""
    fns = {
        "weights": lambda: suite_weights(seed, tol),
        "cg": lambda: suite_cg(seed, tol),
        "symmetric": lambda: suite_symmetric(seed, tol),
        "heisenberg": lambda: suite_heisenberg(seed, tol),
        "mc": lambda: suite_mc(seed, tol, n_samples),
    }
    unknown = [n for n in names if n not in fns]
    if unknown:
        raise KeyError(f"unknown suite(s): {', '.join(unknown)}")
    return [(n, fns[n]()) for n in names]
