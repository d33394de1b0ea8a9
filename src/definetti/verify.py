"""Verification checks and the suites behind the `verify` CLI command.

Each check is a module-level function that takes its ranges (and, where
it draws a random state, its seed), raises AssertionError at the
first violation and otherwise returns a one-line detail.  The suites are
one table of (check name, function, fixed ranges) rows, and run_suites
reports one line per row; the acceptance tests call the same functions
at their own pinned ranges.  Formula functions are looked up through
their modules at call time, so an injected mutation in any module is
caught here.  numpy is imported only inside the float checks that use
it: the weights, cg and symmetric suites run without it, and where it is
missing each float check of heisenberg and mc fails on its own line.
"""

from __future__ import annotations

import time
from fractions import Fraction
from itertools import product
from math import comb, factorial, isqrt, lcm
from operator import attrgetter

from . import heisenberg, oracle, su2_cg, symmetric, weights
from .report import _Frozen, _sqrt_float
from .su2_cg import TwoJ
from .symmetric import SymTriple
from .weights import Weight


class Check(_Frozen):
    """The outcome of one check: its name, verdict, detail line and time."""

    __slots__ = ("name", "passed", "detail", "seconds")


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


def _same_ratio(a: tuple[int, int], b: tuple[int, int], what: str) -> None:
    """Two (numerator, denominator) pairs, denominators nonzero, name the
    same rational: compared by cross-multiplication, with no gcd."""
    if a[0] * b[1] != b[0] * a[1]:
        raise AssertionError(f"{what}: {Fraction(*a)!r} != {Fraction(*b)!r}")


def _ratio_sum(terms) -> tuple[int, int]:
    """The sum of (numerator, denominator) pairs as one unreduced pair over
    the lcm of the denominators."""
    den = lcm(*(d for _, d in terms))
    return sum(n * (den // d) for n, d in terms), den


# ---------------------------------------------------------------------------
# weights


def simple_root_decomposition(k: int, d_max: int) -> str:
    """Every zero-sum difference of k-site weights decomposes over the
    simple roots, for 2 <= d <= d_max."""
    count = 0
    for d in range(2, d_max + 1):
        roots = [weights.simple_root(i, d).entries for i in range(1, d)]
        ws = weights.sym_weights(k, d)
        for w in ws:
            for w2 in ws:
                hd = weights.height_down(w2, w)
                rebuilt = w2.entries
                for c, alpha in zip(hd.coefficients, roots):
                    rebuilt = tuple(a - c * b for a, b in zip(rebuilt, alpha))
                _exact(Weight(rebuilt), w, "root decomposition must reconstruct the weight")
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


# the stored (sign, num, den) of an ExactReal sign * sqrt(num/den)
_parts = attrgetter("_sign", "_num", "_den")
_square_parts = attrgetter("_num", "_den")


def cg_oracle_match(tj_max: int) -> str:
    """Ladder-built tables for 2j1, 2j2 <= tj_max equal the closed form,
    entry for entry as exact reals."""
    exact = 0
    for tj1 in range(0, tj_max + 1):
        for tj2 in range(0, tj_max + 1):
            table = oracle.cg_oracle(TwoJ(tj1), TwoJ(tj2))
            for (tj, tm, tm1), val in table.items():
                closed = su2_cg._cg_doubled(tj1, tm1, tj2, tm - tm1, tj, tm)
                if _parts(closed) != _parts(val):  # a label for every entry would cost a tenth of the check
                    _exact(closed, val, f"entry 2(j1,j2,j,m,m1)={(tj1, tj2, tj, tm, tm1)}")
                exact += 1
    return f"{exact} exact matches for j1,j2 <= {TwoJ(tj_max)}"


def _in_units_of_first(products, what: str) -> tuple[int, int]:
    """The sum of the nonzero (sign, num, den) triples, in units of the
    first of them, as an unreduced (numerator, denominator) pair.

    Each one must be a rational multiple of the first: (p/p0)^2 = n/d is
    then a rational square, so n*d is a perfect square and p/p0 =
    sign * isqrt(n*d)/d.  A product that is not raises AssertionError.
    """
    terms = []
    for sign, num, den in products:
        if not sign:
            continue
        if not terms:
            sign0, num0, den0 = sign, num, den
            terms.append((1, 1))
            continue
        n, d = num * den0, den * num0
        root = isqrt(n * d)
        if root * root != n * d:
            raise AssertionError(f"{what}: incommensurable products")
        terms.append((sign * sign0 * root, d))
    return _ratio_sum(terms)


def cg_rows_orthonormal(tjs) -> str:
    """The coupled rows of every fixed-m block are exactly orthonormal,
    for 2j1, 2j2 in tjs.

    A row's squares sum to exactly 1.  The products of two rows are
    rational multiples of each other for true coefficients, and their
    rational sum in units of the first is exactly 0.  Both are summed in
    integers over one common denominator; nothing is split.
    """
    core = su2_cg._cg_doubled
    count = 0
    for tj1 in tjs:
        for tj2 in tjs:
            for tm in range(-(tj1 + tj2), tj1 + tj2 + 1, 2):
                tm1s = range(max(-tj1, tm - tj2), min(tj1, tm + tj2) + 1, 2)
                row_tjs = range(max(abs(tj1 - tj2), abs(tm)), tj1 + tj2 + 1, 2)
                rows = [[_parts(core(tj1, tm1, tj2, tm - tm1, tj, tm)) for tm1 in tm1s] for tj in row_tjs]
                for a, row_a in enumerate(rows):
                    for b in range(a, len(rows)):
                        what = f"row orthogonality {(tj1, tj2, row_tjs[a], row_tjs[b], tm)}"
                        if a == b:
                            _same_ratio(_ratio_sum([(n, d) for _, n, d in row_a]), (1, 1), what)
                        else:
                            products = [
                                (sa * sb, na * nb, da * db)
                                for (sa, na, da), (sb, nb, db) in zip(row_a, rows[b])
                            ]
                            _same_ratio(_in_units_of_first(products, what), (0, 1), what)
                        count += 1
    return f"{count} exact row products"


def cg_columns_complete(tjs) -> str:
    """Squared coefficients of every product state sum to exactly 1,
    for 2j1, 2j2 in tjs: in integers over one common denominator."""
    core = su2_cg._cg_doubled
    count = 0
    for tj1 in tjs:
        for tj2 in tjs:
            tjs_12 = range(abs(tj1 - tj2), tj1 + tj2 + 1, 2)
            for tm1 in range(-tj1, tj1 + 1, 2):
                for tm2 in range(-tj2, tj2 + 1, 2):
                    tm = tm1 + tm2
                    squares = [
                        _square_parts(core(tj1, tm1, tj2, tm2, tj, tm)) for tj in tjs_12 if abs(tm) <= tj
                    ]
                    _same_ratio(_ratio_sum(squares), (1, 1), f"completeness {(tj1, tj2, tm1, tm2)}")
                    count += 1
    return f"{count} exact column sums"


def up_window_covers_coupled_block(tjs) -> str:
    """For 2j1, 2j2 in tjs and every coupled j, the j1 weights that the
    coupled block reaches lie in the up window of the two-block radius
    above the bottom weight, and reach both its ends."""
    count = 0
    for tj1 in tjs:
        for tj2 in tjs:
            for tj in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
                what = f"coupled block 2(j1,j2,j)={(tj1, tj2, tj)}"
                ws = oracle.lambda_up_set(TwoJ(tj1), TwoJ(tj2), TwoJ(tj))
                lam = Weight(((tj1 + tj2 + tj) // 2, (tj1 + tj2 - tj) // 2))
                rad = weights.exact_radius(lam, Weight((tj1, 0)), Weight((tj2, 0)))
                if Weight((0, tj1)) not in ws or not ws <= set(weights.w_r_set(tj1, 2, rad, "up")):
                    raise AssertionError(f"{what}: weights outside the radius-{rad} up window")
                _exact(max(w[0] for w in ws), rad, f"{what}: height")
                count += 1
    return f"{count} coupled blocks inside their up windows"


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
                _exact(prev, Fraction(1), f"saturation {(tj1, tj2, tj)}")  # r = 2j1: the full window
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
        dims = {d: symmetric.dim_sym(n, d) for d in range(2, d_max + 1)}
        for k in range(1, n + 1):
            for d, whole in dims.items():
                got = symmetric.epsilon(SymTriple(n, k, d, 0))
                _same_ratio(
                    (got.numerator, got.denominator),
                    (2 * (whole - symmetric.dim_sym(n - k, d)), whole),
                    f"r=0 identity {(n, k, d)}",
                )
    return f"r=0 identity exact up to n={n_max}, d={d_max}"


def tail_sum_closed_form(n_max: int) -> str:
    """The closed-form tail sum equals the direct sum for every r <= k,
    the direct sum taken in integers over lcm(C(n, 0..n))."""
    for n in range(1, n_max + 1):
        den = lcm(*(comb(n, i) for i in range(n + 1)))
        units = [den // comb(n, i) for i in range(n + 1)]
        for k in range(1, n + 1):
            direct = 0
            for r in range(k, -1, -1):
                if r < k:
                    direct += comb(k, r + 1) * units[r + 1]
                _same_ratio(symmetric._closed_form_parts(n, k, r), (direct, den), f"closed form {(n, k, r)}")
    return f"tail sums exact up to n={n_max}"


def tail_sum_recursion(n_max: int) -> str:
    """Each radius step removes exactly one term C(k,r)/C(n,r)."""
    for n in range(1, n_max + 1):
        for k in range(1, n + 1):
            for r in range(1, k + 1):
                # a/b - c/e = (a e - c b) / (b e)
                a, b = symmetric._closed_form_parts(n, k, r - 1)
                c, e = comb(k, r), comb(n, r)
                rhs = (a * e - c * b, b * e)
                _same_ratio(symmetric._closed_form_parts(n, k, r), rhs, f"recursion {(n, k, r)}")
    return f"descent recursion exact up to n={n_max}"


def d2_exact_error(n_max: int) -> str:
    """The d = 2 factorial form equals epsilon."""
    for n in range(1, n_max + 1):
        for k in range(1, n + 1):
            for r in range(0, k + 1):
                _same_ratio(
                    symmetric._error_d2_parts(n, k, r),
                    symmetric._epsilon_parts(n, k, 2, r),
                    f"d=2 error {(n, k, r)}",
                )
    return f"d=2 factorial form equals the sum, n <= {n_max}"


def bound_chain(n_max: int, d_max: int) -> str:
    """epsilon/2 <= intermediate <= headline/2 wherever the bound applies,
    compared exactly: epsilon as its integer parts, each bound as the
    exact value of its float."""
    count = 0
    for n in range(4, n_max + 1):
        for k in range(2, n - 1):
            for d in range(2, d_max + 1):
                if d > min(k, n - k):
                    continue
                for r in range(0, k + 1):
                    num, den = symmetric._epsilon_parts(n, k, d, r)
                    inter, head = symmetric._bounds(n, k, d, r)
                    a, b = inter.as_integer_ratio()  # the exact float, b > 0
                    if not num * b <= 2 * den * a:
                        raise AssertionError(f"eps/2 > intermediate at {(n, k, d, r)}")
                    if not 2 * inter <= head:  # doubling a float is exact
                        raise AssertionError(f"intermediate > headline/2 at {(n, k, d, r)}")
                    count += 1
    return f"{count} chain comparisons hold"


def profile_consistency(n_max: int, d_max: int) -> str:
    """The weight profile of the radius window reproduces 1 - epsilon/2."""
    for k in range(1, n_max + 1):
        for d in range(2, d_max + 1):
            for r in range(0, k + 1):
                prof = symmetric.weight_profile(weights.w_r_set(k, d, r, "down"), k)
                for n in range(k, n_max + 1):
                    got = symmetric.delta_psi_weights(n, k, d, prof)
                    num, den = symmetric._epsilon_parts(n, k, d, r)
                    _same_ratio(
                        (got.numerator, got.denominator),
                        (2 * den - num, 2 * den),  # 1 - epsilon/2
                        f"profile consistency {(n, k, d, r)}",
                    )
    return f"window profile reproduces 1 - eps/2, n <= {n_max}"


def full_profile_unity(n_max: int, d_max: int) -> str:
    """The profile of every k-site weight gives overlap exactly 1."""
    one = Fraction(1)
    for k in range(1, n_max + 1):
        for d in range(2, d_max + 1):
            prof = symmetric.weight_profile(weights.sym_weights(k, d), k)
            for n in range(k, n_max + 1):
                _exact(symmetric.delta_psi_weights(n, k, d, prof), one, f"full profile {(n, k, d)}")
    return f"full weight set gives exactly 1, n <= {n_max}"


def dense_projector_oracle(n_max_by_d) -> str:
    """Projector overlaps, as Haar moments, equal 1 - epsilon/2 exactly,
    for every (d, n_max) pair given."""
    count = 0
    for d, n_max in n_max_by_d:
        for n in range(1, n_max + 1):
            for k in range(1, n + 1):
                for r in range(0, k + 1):
                    t = SymTriple(n, k, d, r)
                    got = oracle.brute_delta_symmetric(t)
                    _exact(got, 1 - symmetric.epsilon(t) / 2, f"dense oracle {(n, k, d, r)}")
                    count += 1
    return f"{count} projector overlaps equal 1 - eps/2 exactly"


def single_weight_overlap(n_max: int, d_max: int) -> str:
    """The Haar-moment term of each k-site weight vector, the one that
    brute_delta_symmetric sums from oracle._moment_terms, equals
    dim_sym(n-k, d)/dim_sym(n, d) times term_overlap exactly."""
    count = 0
    for d in range(2, d_max + 1):
        for k in range(1, n_max + 1):
            ws = weights.sym_weights(k, d)
            for n in range(k, n_max + 1):
                ratio = Fraction(symmetric.dim_sym(n - k, d), symmetric.dim_sym(n, d))
                nums, den = oracle._moment_terms(n, k, d)
                for w, num in zip(ws, nums):
                    _exact(Fraction(num, den), ratio * symmetric.term_overlap(w, n, k), f"overlap {(w, n, k)}")
                    count += 1
    return f"{count} projector traces equal term_overlap exactly"


# ---------------------------------------------------------------------------
# oscillator pair; `pairs` lists (mu, nu) mode weights


# the largest difference or defect the float oscillator checks allow: each
# is double-precision roundoff on quantities of size about 1
ROUNDOFF = 1e-10


def fock_oracle(pairs, delta_max: int, r_max: int) -> str:
    """Truncated-Fock overlaps match the number-window formula to ROUNDOFF."""
    count = 0
    for mu, nu in pairs:
        for Delta in range(0, delta_max + 1):
            for r, got in enumerate(oracle.heis_oracle(mu, nu, Delta, r_max)):
                want = float(
                    heisenberg.delta_number_space(
                        heisenberg.HeisenbergTriple(Fraction(mu), Fraction(nu), Delta, r)
                    ).delta
                )
                _approx(got, want, ROUNDOFF, f"fock oracle {(mu, nu, Delta, r)}")
                count += 1
    return f"{count} truncated-fock cross-checks"


def vacuum_annihilation(pairs, delta_max: int) -> str:
    """The combined mode annihilates every paired vacuum to within ROUNDOFF."""
    import numpy as np

    residuals = []
    for mu, nu in pairs:
        for Delta in range(0, delta_max + 1):
            state = oracle.pair_vacuum(mu, nu, Delta, Delta + 30)
            residuals.append(np.linalg.norm(oracle.pair_annihilate(mu, nu, state)))
    worst = float(np.max(residuals))  # unlike max(), np.max propagates a NaN
    if not worst <= ROUNDOFF:
        raise AssertionError(f"annihilation residual {worst:.2e} > {ROUNDOFF:g}")
    return f"worst residual {worst:.2e}"


def tower_orthonormal(pairs, delta_max: int, n_max: int, cutoff: int) -> str:
    """The towers of all offsets 0..delta_max together form one
    orthonormal family, per (mu, nu), to within ROUNDOFF."""
    import numpy as np

    defects = []
    for mu, nu in pairs:
        flat = []
        for Delta in range(0, delta_max + 1):
            for s in oracle.pair_tower(mu, nu, Delta, n_max, cutoff):
                flat.append(s.reshape(-1))
        # the upper triangle, one matrix-vector product per row: a single
        # stack @ stack.T would go to the threaded BLAS matrix product,
        # which slows the next check
        stack = np.array(flat)
        for i, a in enumerate(flat):
            row = stack[i:] @ a
            row[0] -= 1.0
            defects.append(np.abs(row).max())
    worst = float(np.max(defects))  # unlike max(), np.max propagates a NaN
    if not worst <= ROUNDOFF:
        raise AssertionError(f"gram defect {worst:.2e} > {ROUNDOFF:g}")
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
    """The coherent-splitting bound is its closed form in type and value:
    the Fraction 2 (k/n)^h, h = 1 at r = 0 and (r+1)/2 at odd r, and the
    float 2 sqrt((k/n)^(r+1)), its root rounded once, at even r >= 2."""
    for n in range(2, n_max + 1):
        for k in range(1, n):
            for r in rs:
                got = heisenberg.coherent_bound(n, k, r)
                what = f"coherent {(n, k, r)}"
                kind = float if r and not r % 2 else Fraction
                if got.__class__ is not kind:
                    raise AssertionError(f"{what}: {got!r} is not a {kind.__name__}")
                if kind is float:
                    _exact(got, 2.0 * _sqrt_float(k ** (r + 1), n ** (r + 1)), what)
                else:
                    h = (r + 1) // 2 or 1
                    _same_ratio((got.numerator, got.denominator), (2 * k**h, n**h), what)
    return f"splitting bound consistent up to n={n_max}"


def mass_identities(pairs, delta_max: int) -> str:
    """Schmidt coefficients sum to exactly 1; the number weights beyond
    n = 200 sum to at most their tail bound.  For exact weights."""
    for Delta in range(0, delta_max + 1):
        for mu, nu in pairs:
            coeffs = [heisenberg.alpha_coeff(Delta, i, mu, nu).as_integer_ratio() for i in range(Delta + 1)]
            _same_ratio(_ratio_sum(coeffs), (1, 1), f"schmidt mass {(Delta, mu, nu)}")
            masses = [heisenberg.alpha_weight(Delta, n, mu, nu).as_integer_ratio() for n in range(200)]
            head, den = _ratio_sum(masses)
            full = Fraction(mu + nu) / nu  # the full mass
            tail, tail_den = full.numerator * den - head * full.denominator, full.denominator * den
            cap, cap_den = heisenberg.alpha_weight_tail_bound(Delta, 200, mu, nu).as_integer_ratio()
            # the bound is exactly tight at Delta=0, so it is compared exactly
            if not (tail >= 0 and tail * cap_den <= cap * tail_den):
                raise AssertionError(f"tail {tail / tail_den:.3e} outside [0, {cap / cap_den:.3e}]")
    return "schmidt mass exactly 1; number-weight tail under its bound"


def saturation_limit() -> str:
    """The overlap deficit falls below 1e-8 at a finite radius."""
    # two exact cases plus one float case, the same integer tail rounded once
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
# quadrature check of the reconstruction inequality


def sphere_rule_moments(grids) -> str:
    """The sphere rule on n_nodes Gauss-Legendre nodes, for each n_nodes in
    grids, reproduces the Haar moments E|z0|^(2a) |z1|^(2b) = a! b!/(a+b+1)!
    of z = g|0> for a + b <= 2 n_nodes - 1, to 1e-12 relative."""
    import numpy as np

    count = 0
    for n_nodes in grids:
        top = 2 * n_nodes - 1
        powers = np.arange(top + 1)
        got = np.zeros((top + 1, top + 1))
        for weight, g in oracle._sphere_rule(n_nodes):
            z0, z1 = np.abs(g[:, 0, 0]) ** 2, np.abs(g[:, 1, 0]) ** 2
            got += weight * (z0[:, None] ** powers).T @ (z1[:, None] ** powers)
        for a, row in enumerate(got.tolist()):
            for b in range(top + 1 - a):
                want = factorial(a) * factorial(b) / factorial(a + b + 1)
                if not abs(row[b] - want) <= 1e-12 * want:  # a NaN fails
                    raise AssertionError(f"moment (a, b) = ({a}, {b}) on {n_nodes} nodes: {row[b]!r} != {want!r}")
                count += 1
    return f"{count} moments a! b!/(a+b+1)! exact to 1e-12 on {', '.join(map(str, grids))} nodes"


# the one run (n, k, radii) that both mc checks read: the second check finds
# it in mc_theorem1's memo
_MC_RUN = (4, 2, (0, 1, 2))


def mc_inequality(seed: int) -> str:
    """The projected mixture stays within the bound in the trace norm,
    plus the gap between the two grids, at n=4, k=2, r=0,1,2."""
    lines = []
    for rep in oracle.mc_theorem1(*_MC_RUN, seed):
        if not rep.passed:
            gap = abs(rep.lhs_distance - rep.lhs_coarse)
            raise AssertionError(f"r={rep.r}: lhs {rep.lhs_distance:.6f} > bound {rep.bound:.4f} + grid gap {gap:.1e}")
        lines.append(f"r={rep.r}: lhs={rep.lhs_distance:.6f} (coarse {rep.lhs_coarse:.6f}) <= bound={rep.bound:.4f}")
    return "; ".join(lines)


def mc_identity_recovery(seed: int) -> str:
    """The unprojected mixture equals the reduced state to 1e-12 in trace
    distance on both grids, read from the run of mc_inequality (the
    residual does not depend on the radii)."""
    rep = oracle.mc_theorem1(*_MC_RUN, seed)[0]
    if not rep.identity_residual <= 1e-12:
        raise AssertionError(f"identity residual {rep.identity_residual:.3e} > 1e-12")
    return f"identity residual <= 1e-12 on {oracle.QUAD_N} and {2 * oracle.QUAD_N} nodes"


# ---------------------------------------------------------------------------
# suites: (check name, check function, arguments) rows per suite, in run order

# the placeholder in a row's arguments that run_suites fills with the seed
_SEED = object()

_SUITE_TABLE = {
    "weights": (
        ("simple-root decomposition reconstructs weights", simple_root_decomposition, (4, 4)),
        ("height duality under reversal", reversal_duality, (6, 3)),
        ("dominance order implies height order", order_height_monotone, (6, 3)),
        ("type classes partition the product basis", type_class_partition, (7, 4)),
        ("radius window cardinalities", radius_window_counts, (8, 4)),
        ("two-level exact radius", two_level_radius, (12,)),
    ),
    "cg": (
        ("ladder oracle equals closed form", cg_oracle_match, (8,)),
        ("coupled rows orthonormal", cg_rows_orthonormal, (range(0, 9, 2),)),
        ("coupled columns complete", cg_columns_complete, (range(0, 9, 2),)),
        ("aligned-block overlap (2j2+1)/(2j+1)", aligned_block_overlap, (16,)),
        ("window overlap monotone and saturating", window_saturation, (6,)),
        ("up/down window symmetry", window_reflection, (8, 3)),
    ),
    "symmetric": (
        ("zero-radius identity", zero_radius_identity, (40, 4)),
        ("tail-sum closed form", tail_sum_closed_form, (30,)),
        ("tail-sum descent recursion", tail_sum_recursion, (30,)),
        ("d=2 exact error formula", d2_exact_error, (40,)),
        ("exponential bound chain", bound_chain, (40, 4)),
        ("window profile consistency", profile_consistency, (16, 3)),
        ("full profile saturates at 1", full_profile_unity, (20, 3)),
        ("dense projector oracle", dense_projector_oracle, (((2, 9), (3, 6)),)),
        ("single-weight overlap oracle", single_weight_overlap, (7, 3)),
    ),
    "heisenberg": (
        ("truncated-fock oracle grid", fock_oracle, (tuple(product((1, 2, 5), (1, 3))), 3, 6)),
        ("paired vacuum annihilation", vacuum_annihilation, (((1.0, 1.0), (2.0, 3.0), (0.5, 1.25)), 6)),
        ("tower orthonormality", tower_orthonormal, (((1.0, 1.0), (2.0, 3.0)), 5, 5, 40)),
        ("offset-0 geometric closed form", geometric_closed_form, (tuple(product((1, 2, 5), (1, 4))), 12)),
        ("coherent-splitting consistency", coherent_consistency, (60, (0, 1, 2, 5))),
        (
            "schmidt and number-weight masses",
            mass_identities,
            (((Fraction(2), Fraction(7)), (Fraction(1), Fraction(1))), 8),
        ),
        ("overlap saturates toward 1", saturation_limit, ()),
    ),
    "mc": (
        ("sphere rule reproduces haar moments", sphere_rule_moments, ((oracle.QUAD_N, 2 * oracle.QUAD_N),)),
        ("projected mixture within bound", mc_inequality, (_SEED,)),
        ("unprojected mixture recovers reduced state", mc_identity_recovery, (_SEED,)),
    ),
}

SUITES = tuple(_SUITE_TABLE)


def run_suites(names: list[str], seed: int = 0) -> list[tuple[str, list[Check]]]:
    """Run the named suites in the order given: each check's ranges
    and tolerances are fixed, so the seed alone varies."""
    unknown = [n for n in names if n not in _SUITE_TABLE]
    if unknown:
        raise KeyError(f"unknown suite(s): {', '.join(unknown)}")
    return [
        (n, [_check(name, fn, *(seed if a is _SEED else a for a in args)) for name, fn, args in _SUITE_TABLE[n]])
        for n in names
    ]
