"""Brute-force oracles for every closed form in the package.

Nothing here reuses the formula derivations: symmetric-subspace overlaps
are exact Haar moments of the projector, coupling coefficients come from
highest-weight plus lowering synthesis in integer arithmetic (on a
factorial-rescaled product basis, with one square root taken per entry
at the end) down to m = 0, and below it from the Condon-Shortley
reflection, which the m = 0 entries are checked to obey,
oscillator overlaps from truncated Fock states, which the ladders shift,
and the reconstruction theorem itself gets an end-to-end inequality
check by quadrature over the sphere, in the Dicke bases of the symmetric
subspaces.

numpy is imported inside each function that uses it, after the
function's refusals: importing this module, the coupling-table synthesis
and every refusal run without it, and a process without numpy fails only
the float checks.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb, gcd, prod, sqrt
from operator import add, mul
from random import Random

from .exact import ExactReal
from .heisenberg import _check_weights, _coprime
from .report import _Frozen, _number, _sqrt_float
from .su2_cg import _check_triple, as_twoj
from .symmetric import SymTriple, dim_sym, epsilon
from .weights import Weight, sym_weights

__all__ = [
    "McReport",
    "brute_delta_symmetric",
    "trace_distance",
    "cg_oracle",
    "lambda_up_set",
    "pair_annihilate",
    "pair_create",
    "pair_vacuum",
    "pair_tower",
    "heis_oracle",
    "mc_theorem1",
]

# a symmetric term table holds dim_sym(k, d) integers, each a product of
# factorials below (n+d-1)!; at both bounds one took 0.06-0.3 s and at most
# a few MB on a 2-vCPU VM
SYM_TERM_GUARD = 10**4
SYM_FACTORIAL_GUARD = 500  # n + d
# float64 cells of the dense (cutoff+1)^2 Fock states that pair_vacuum and
# pair_tower return, every one held at once: 13 M cells is about 100 MB
FOCK_CELL_GUARD = 13 * 10**6
# heis_oracle holds two states and one kept n2 = 0 column per state, and its
# ladder touches every cell of each state it makes.  On a 2-vCPU VM, at 4 M
# cells held, (1, 1, 1370, 0) peaked 92 MB above the interpreter (a ladder
# step briefly holds six states), and the whole call took 9-11 ns per cell
# touched: 0.71-0.88 s at (1, 1, 10, 400), 81.6 M cells
HEIS_HELD_GUARD = 4 * 10**6
HEIS_WORK_GUARD = 10**8
# tower state n is |n>|Delta> in (combined, orthogonal) mode numbers, and
# roundoff that a ladder step puts in |n + Delta>|0> grows relative to it
# by sqrt((n + Delta + 1)/(n + 1)) a step: by sqrt(C(Delta + n, n)) in all.
# At 1:1 a state's norm first drifted past 1e-9 at C = 2^77.99 (Delta = 24,
# n = 81; at r_max = 0 at Delta = 1,094, 2^79.24), over every Delta the
# other guards admit; 1:2 and 2:3 drifted from 2^80.8 (every 29th Delta),
# and 1:99 and 99:1 never up to this bound (every Delta)
HEIS_ROUNDOFF_GUARD = 2**77  # C(Delta + n_max, n_max)
CG_TABLE_GUARD = 24  # doubled angular momentum
# Gauss-Legendre nodes of mc_theorem1's coarse grid; its fine grid has
# twice as many.  The rule gives the unprojected mixture, of degree n - k in
# cos(theta) and in phi, exactly when n - k <= 2 QUAD_N - 1, and
# mc_theorem1 refuses any larger n - k
QUAD_N = 16
# mc_theorem1 touches about (k+1)^2 cells per point for the unprojected sum,
# the window frame and each distinct radius.  On a 2-vCPU VM calls of 10^7
# cells took 1.2-1.3 ns per cell, and calls near the guard 0.1-0.3 ns:
# 0.24 s at (2, 1) with 96,000 radii and 0.25 s at (386, 355, (0,))
MC_WORK_GUARD = 10**9  # points x (k+1)^2 x (radii + 2)


def trace_distance(a, b) -> float:
    """(1/2) tr|a - b| for hermitian matrices (the convention used throughout)."""
    import numpy as np

    diff = np.asarray(a) - np.asarray(b)
    herm_defect = np.abs(diff - diff.conj().T).max(initial=0.0)
    if herm_defect > 1e-8:
        raise ValueError(f"difference is not hermitian (defect {herm_defect:.2e})")
    diff = (diff + diff.conj().T) / 2
    return 0.5 * float(np.abs(np.linalg.eigvalsh(diff)).sum())


# ---------------------------------------------------------------------------
# symmetric subspace


@lru_cache(maxsize=1)
def _moment_terms(n: int, k: int, d: int) -> tuple[tuple[int, ...], int]:
    """The numerators, over one denominator (n+d-1)!, of
    (d_B/d_C) tr[P_n (|w><w| x |0...0><0...0|)] for each k-site weight
    vector |w> in sym_weights order.  With P_n = dim_sym(n, d) times the
    Haar integral of (|z><z|)^(x n) over the unit sphere of C^d, the
    trace is dim_sym(n, d) multinomial(k; w) times the moment
    E[prod |z_i|^(2 a_i)] = (d-1)! prod a_i! / (sum a_i + d-1)! at
    a = w + (n-k) e_0, the reference sites' powers on z_0.  The size guard
    runs before a weight is enumerated or a factorial built, and compares
    n + d first, which bounds the binomial dim_sym(k, d)."""
    if n + d > SYM_FACTORIAL_GUARD:
        raise ValueError(f"size guard exceeded: n + d = {_number(n + d)} > {SYM_FACTORIAL_GUARD}")
    if dim_sym(k, d) > SYM_TERM_GUARD:
        raise ValueError(f"size guard exceeded: dim_sym(k, d) = {_number(dim_sym(k, d))} > {SYM_TERM_GUARD}")
    fact = list(accumulate(range(1, n + d), mul, initial=1))  # 0!, ..., (n+d-1)!
    scale = dim_sym(n - k, d) * fact[d - 1]
    nums = []
    for w in sym_weights(k, d):
        a = (w[0] + n - k, *w[1:])
        nums.append(scale * (fact[k] // prod(fact[x] for x in w)) * prod(fact[x] for x in a))
    return tuple(nums), fact[n + d - 1]


def brute_delta_symmetric(t: SymTriple) -> Fraction:
    """Exact Haar-moment evaluation of the overlap functional for the symmetric family.

    Computes (d_B/d_C) tr[P_C (P_X x |psi><psi|)] with C the n-site
    symmetric subspace, X the span of k-site weight vectors with
    w_1 >= k - r, and psi the n-k aligned reference sites, as a Fraction:
    the sum of the window's _moment_terms.
    """
    n, k, d, r = t.n, t.k, t.d, t.r
    nums, den = _moment_terms(n, k, d)  # first: its guard refuses before the weights are enumerated
    return Fraction(sum(x for w, x in zip(sym_weights(k, d), nums) if w[0] >= k - r), den)


# ---------------------------------------------------------------------------
# coupling coefficients by ladder synthesis


def _slice_weights(tj1: int, tj2: int, tm: int) -> list[int]:
    """Integer inner-product weights W = C(2j1, j1-m1) C(2j2, j2-m2) of the
    m-slice, indexed by j1 - m1, and 0 off the slice.  W F = (2j1)! (2j2)!
    for the rescaling F of a product state, so W is 1/F up to a constant.
    """
    k = (tj1 + tj2 - tm) // 2  # j2 - m2 at index 0
    lo, hi = max(0, k - tj2), min(tj1, k)
    out = [0] * (tj1 + 1)
    out[lo : hi + 1] = [comb(tj1, i) * comb(tj2, k - i) for i in range(lo, hi + 1)]
    return out


def _wdot(u: list[int], v: list[int], w: list[int]) -> int:
    return sum(map(mul, map(mul, u, v), w))


def _reduced(v: list[int]) -> list[int]:
    """v divided by the gcd of its entries (direction and sign kept)."""
    g = gcd(*v)
    return [x // g for x in v] if g > 1 else v


def cg_oracle(j1, j2) -> dict[tuple[int, int, int], ExactReal]:
    """Full coupling table for j1 x j2 built by exact ladder synthesis.

    Keys are doubled (2j, 2m, 2m1) with m2 = m - m1 implied.  The top
    state of each j block is taken orthogonal to all higher blocks in
    the m = j subspace with positive seed overlap (Condon-Shortley),
    then lowered exactly.

    The synthesis runs in integers.  A state with product-basis
    coefficients c is stored as the integers a = c sqrt(F), F = (j1+m1)!
    (j1-m1)! (j2+m2)! (j2-m2)!.  On these coordinates the lowering
    operator has the integer entries j1-m1+1 and j2-m2+1, and the inner
    product of an m-slice has the binomial weights W = C(2j1, j1-m1)
    C(2j2, j2-m2) = (2j1)! (2j2)! / F.  Gram-Schmidt becomes
    v <- <u,u>_W v - <v,u>_W u, and every state is kept divided by the
    gcd of its entries; positive scalings drop out because only
    directions and signs matter.  A state at m is kept only over its
    slice's span, the indices j1 - m1 with |m - m1| <= j2.  One walk
    down the m-slices with m >= 0 lowers every block, seeds the block
    j = m and forms the slice's entries as sign(a) sqrt(a^2 W / sum a^2 W),
    reduced by one gcd, with nothing factored; entries compare with
    `cg` as (sign, radicand).

    The slices with m < 0 are not lowered: each entry is its mirror's,
    <j -m | j1 -m1, j2 -m2> = (-1)^(j1+j2-j) <j m | j1 m1, j2 m2>
    (Edmonds 1957), the same ExactReal or its negation.  When j1 + j2 is
    an integer the m = 0 slice is its own mirror, and an entry there that
    breaks the rule raises AssertionError, as a seed of the wrong sign
    does.  Entries are inserted in m-descending order, each slice's
    blocks in seeding order and m1 descending within a block.

    The synthesis is exact throughout: a floating version of the same
    ladder is numerically unstable, because any contamination of a low-j
    block by higher blocks grows under lowering by the ratio of their
    ladder factors (up to ~30x per step near the bottom of a j1+j2 = 24
    tower), which is why no float shortcut exists.
    """
    tj1, tj2 = as_twoj(j1).doubled, as_twoj(j2).doubled
    if tj1 < 0 or tj2 < 0:
        raise ValueError("angular momenta must be nonnegative")
    if max(tj1, tj2) > CG_TABLE_GUARD:
        raise ValueError(
            f"size guard exceeded: 2*j = {max(tj1, tj2)} > {CG_TABLE_GUARD}"
        )
    tj_top = tj1 + tj2
    blocks: list[tuple[int, list[int]]] = []  # (2j, rescaled state over the span) of each block at m
    table: dict[tuple[int, int, int], ExactReal] = {}
    raw = ExactReal._raw
    lo = 0
    for tm in range(tj_top, -1, -2):
        k = (tj_top - tm) // 2  # j2 - m2 at index 0
        shift = max(0, k - tj2) - lo  # the span's start moves by 0 or 1
        lo, hi = lo + shift, min(tj1, k)
        span = range(lo, hi + 1)
        w = _slice_weights(tj1, tj2, tm)[lo : hi + 1]
        # lowering from m+1: J- takes (m1, m2) to (m1-1, m2) with factor
        # j1-m1+1 and to (m1, m2-1) with j2-m2+1, on the rescaled
        # coordinates; at index i of this slice these are i and k - i, and
        # the previous state, padded with one 0 at each end, is read at i
        # and i - 1 (each 0 meets a zero factor or falls off the span)
        down = range(k - lo, k - hi - 1, -1)  # k - i over the span
        lowered = []
        for tj, v in blocks:
            ext = [0, *v, 0]
            out = map(add, map(mul, ext[shift + 1 :], down), map(mul, ext[shift:], span))
            lowered.append((tj, _reduced(list(out))))
        blocks = lowered
        norms = [_wdot(u, u, w) for _, u in blocks]
        if tm >= abs(tj1 - tj2):
            v = [0] * len(span)
            v[0] = 1  # seed at m1 = j1 (lo = 0 here), m2 = m - j1
            for (_, u), uu in zip(blocks, norms):
                vu = _wdot(v, u, w)
                if vu:
                    v = _reduced([uu * vi - vu * ui for vi, ui in zip(v, u)])
            if v[0] <= 0:
                raise AssertionError("phase convention broken: seed overlap not positive")
            blocks.append((tm, v))
            norms.append(_wdot(v, v, w))
        # each entry is sign(a) sqrt(a^2 W / norm2) in lowest terms, (0, 0, 1)
        # at a = 0; built unvalidated, as it is canonical by construction
        tm1s = range(tj1 - 2 * lo, tj1 - 2 * hi - 2, -2)
        for (tj, v), norm2 in zip(blocks, norms):
            for tm1, wi, a in zip(tm1s, w, v):
                num = a * a * wi
                g = gcd(num, norm2)
                table[tj, tm, tm1] = raw((a > 0) - (a < 0), num // g, norm2 // g)
    # m < 0 by reflection, <j -m | j1 -m1, j2 -m2> = (-1)^(j1+j2-j) <j m | j1 m1, j2 m2>;
    # m = 0 is its own mirror, so there the ladder's entries must obey it
    for tm in range(-(tj_top % 2), -tj_top - 2, -2):
        tm1s = range(min(tj1, tm + tj2), max(-tj1, tm - tj2) - 2, -2)
        for tj in range(tj_top, max(-tm, abs(tj1 - tj2)) - 2, -2):
            flip = (tj_top - tj) % 4  # j1 + j2 - j odd
            for tm1 in tm1s:
                x = table[tj, -tm, -tm1]
                if flip:
                    x = -x
                if tm:
                    table[tj, tm, tm1] = x
                elif table[tj, 0, tm1] != x:
                    raise AssertionError("reflection broken: the m = 0 entries are not their own mirror")
    return table


def lambda_up_set(j1, j2, j) -> set[Weight]:
    """Weights w of the j1 block with w + nu inside the coupled j block.

    All three representations sit in SU(2) weight coordinates: the j1
    block has weights (w1, 2j1-w1), nu = (2j2, 0), and the coupled block
    with highest weight ((j1+j2+j), (j1+j2-j)) is enumerated directly.
    """
    tj1, tj2, tj = as_twoj(j1).doubled, as_twoj(j2).doubled, as_twoj(j).doubled
    _check_triple(tj1, tj2, tj)
    nu = Weight((tj2, 0))
    lam_hi = (tj1 + tj2 + tj) // 2
    lam_lo = (tj1 + tj2 - tj) // 2
    lam_weights = {Weight((lam_hi - i, lam_lo + i)) for i in range(tj + 1)}
    return {w for w in sym_weights(tj1, 2) if w + nu in lam_weights}


# ---------------------------------------------------------------------------
# truncated oscillator pair


def _check_fock_cells(states: int, cutoff: int) -> None:
    """Refuse to hold states dense (cutoff+1)^2 matrices of more than
    FOCK_CELL_GUARD cells in all, before numpy allocates any."""
    if states * (cutoff + 1) ** 2 > FOCK_CELL_GUARD:
        raise ValueError(f"size guard exceeded: {_number(states)} x {_number(cutoff + 1)}^2 cells > {FOCK_CELL_GUARD}")


def _pair_ladder(mu, nu, state: np.ndarray, create: bool) -> np.ndarray:
    """(sqrt(mu) a x 1 + sqrt(nu) 1 x a)/sqrt(mu+nu), or its adjoint, by shifts:
    (a S)[i, j] = sqrt(i+1) S[i+1, j], (S a^T)[i, j] = sqrt(j+1) S[i, j+1], and
    a+ the other way; an amplitude shifted past the cutoff is dropped."""
    import numpy as np

    if state.ndim != 2 or state.shape[0] != state.shape[1]:
        raise ValueError(f"need a square 2-D state, got shape {state.shape}")
    roots = np.sqrt(np.arange(1.0, len(state)))
    read, write = (slice(None, -1), slice(1, None)) if create else (slice(1, None), slice(None, -1))
    rows, cols = np.zeros((2, *state.shape), np.result_type(state, 1.0))
    rows[write] = roots[:, None] * state[read]
    cols[:, write] = state[:, read] * roots
    p, q = _coprime(mu, nu)
    return _sqrt_float(p, p + q) * rows + _sqrt_float(q, p + q) * cols


def pair_annihilate(mu, nu, state: np.ndarray) -> np.ndarray:
    """Apply the combined mode (sqrt(mu) a1 + sqrt(nu) a2)/sqrt(mu+nu)."""
    return _pair_ladder(mu, nu, state, create=False)


def pair_create(mu, nu, state: np.ndarray) -> np.ndarray:
    """Apply the combined creation operator (sqrt(mu) a1+ + sqrt(nu) a2+)/sqrt(mu+nu)."""
    return _pair_ladder(mu, nu, state, create=True)


def pair_vacuum(mu, nu, Delta: int, cutoff: int) -> np.ndarray:
    """The offset-Delta paired vacuum sum_l (-1)^l sqrt(alpha_l) |Delta-l> x |l>,
    alpha_l = C(Delta, l) p^l q^(Delta-l) / (p+q)^Delta for p/q = mu/nu in lowest terms."""
    _check_weights(mu, nu)
    if Delta < 0 or Delta > cutoff:
        raise ValueError(f"need 0 <= Delta <= cutoff, got Delta={_number(Delta)}, cutoff={_number(cutoff)}")
    _check_fock_cells(1, cutoff)
    import numpy as np

    p, q = _coprime(mu, nu)
    state = np.zeros((cutoff + 1, cutoff + 1))
    for ell in range(Delta + 1):
        root = _sqrt_float(comb(Delta, ell) * p**ell * q ** (Delta - ell), (p + q) ** Delta)
        state[Delta - ell, ell] = -root if ell % 2 else root
    return state


def _tower_states(mu, nu, Delta: int, n_max: int, cutoff: int):
    """The states of pair_tower, made one from the last as they are read:
    the vacuum comes at the call, and a reader that keeps no state holds
    about two.  The callers refuse first, each by what it holds."""
    vacuum = pair_vacuum(mu, nu, Delta, cutoff)
    return accumulate(range(1, n_max + 1), lambda state, n: pair_create(mu, nu, state) / sqrt(n), initial=vacuum)


def pair_tower(mu, nu, Delta: int, n_max: int, cutoff: int) -> list[np.ndarray]:
    """States |psi_n> = (a+)^n |psi_0> / sqrt(n!) for n = 0..n_max."""
    if Delta + n_max > cutoff:
        raise ValueError(
            f"tower would leave the truncation: Delta+n_max = {_number(Delta + n_max)} > cutoff = {_number(cutoff)}"
        )
    _check_fock_cells(n_max + 1, cutoff)
    return list(_tower_states(mu, nu, Delta, n_max, cutoff))


def heis_oracle(mu, nu, Delta: int, r_max: int) -> list[float]:
    """Truncated-Fock evaluations of the vacuum-window overlap at r = 0..r_max.

    The value at r sums (nu/(mu+nu)) * sum_n sum_{n' <= r} |<n', 0 | psi_n>|^2
    over the first max(r - Delta, 0) + 11 states of one offset-Delta tower,
    truncated past every state it makes (r_max + Delta + 40), so the only
    numerical error is double-precision roundoff.  Each state's squared
    n2 = 0 column, all that the windows read, is kept as the ladder makes
    it, and the state is dropped.  It refuses, before numpy loads, more
    than HEIS_HELD_GUARD cells held, more than HEIS_WORK_GUARD cells
    touched by the ladder, and a tower whose ladder roundoff,
    sqrt(C(Delta + n_max, n_max)) times that of one step, could drift a
    state's norm past the 1e-9 it is checked to (C > HEIS_ROUNDOFF_GUARD).
    """
    _check_weights(mu, nu)
    if r_max < 0 or Delta < 0:
        raise ValueError(f"need r_max >= 0 and Delta >= 0, got r_max={_number(r_max)}, Delta={_number(Delta)}")
    n_max, side = max(r_max - Delta, 0) + 10, r_max + Delta + 41  # side = cutoff + 1
    if 2 * side**2 + (n_max + 1) * side > HEIS_HELD_GUARD:
        raise ValueError(
            f"size guard exceeded: 2 x {_number(side)}^2 + {_number(n_max + 1)} x {_number(side)} cells held"
            f" > {HEIS_HELD_GUARD}"
        )
    if (n_max + 1) * side**2 > HEIS_WORK_GUARD:
        raise ValueError(
            f"size guard exceeded: {_number(n_max + 1)} x {_number(side)}^2 cells touched > {HEIS_WORK_GUARD}"
        )
    if comb(Delta + n_max, n_max) > HEIS_ROUNDOFF_GUARD:
        raise ValueError(
            f"roundoff guard exceeded: C(Delta + n_max, n_max) = C({_number(Delta + n_max)}, {_number(n_max)})"
            f" > 2^{HEIS_ROUNDOFF_GUARD.bit_length() - 1}"
        )
    states = _tower_states(mu, nu, Delta, n_max, side - 1)
    import numpy as np

    p, q = _coprime(mu, nu)
    y = q / (p + q)
    columns = []
    for state in states:
        nrm = np.linalg.norm(state)
        if abs(nrm - 1.0) > 1e-9:
            raise RuntimeError(f"tower state's norm drifted from 1 by roundoff: norm {nrm}")
        columns.append(state[:, 0] ** 2)
    out = []
    for r in range(r_max + 1):
        total = 0.0
        for col in columns[: max(r - Delta, 0) + 11]:
            total += float(col[: r + 1].sum())
        out.append(y * total)
    return out


# ---------------------------------------------------------------------------
# quadrature check of the reconstruction inequality


class McReport(_Frozen):
    """Outcome of the end-to-end inequality check at one radius: the trace
    norm ||rho - sigma||_1 on the 2 QUAD_N-node grid and on the QUAD_N-node
    grid, whose gap is the check's tolerance, and the trace distance of the
    unprojected mixture from the reduced state."""

    __slots__ = ("n", "k", "r", "seed", "lhs_distance", "lhs_coarse", "bound", "identity_residual")

    @property
    def passed(self) -> bool:
        return self.lhs_distance <= self.bound + abs(self.lhs_distance - self.lhs_coarse) + 1e-12


def _sphere_rule(n_nodes: int):
    """The product rule on the sphere of g|0>, one batch per node: yields
    (weight, g) with g the 2 n_nodes coset points h(theta, phi) =
    [[c, -s e^(-i phi)], [s e^(i phi), c]], c = cos(theta/2), s =
    sin(theta/2), at one Gauss-Legendre node in cos(theta) (Golub-Welsch:
    the eigenvalues of the Jacobi matrix, weights 2 v_0^2) and 2 n_nodes
    equal phases, weight the node's share of the unit mass on each point.
    It integrates exactly every polynomial of degree <= 2 n_nodes - 1 in
    cos(theta) times a trigonometric polynomial of degree < 2 n_nodes in phi."""
    import numpy as np

    i = np.arange(1.0, n_nodes)
    beta = i / np.sqrt(4 * i * i - 1)
    nodes, vecs = np.linalg.eigh(np.diag(beta, -1))  # eigh reads the lower triangle
    phases = np.exp(1j * np.pi / n_nodes * np.arange(2 * n_nodes))
    for x, v0 in zip(nodes, vecs[0]):
        c, s = np.sqrt((1 + x) / 2), np.sqrt((1 - x) / 2)
        g = np.empty((2 * n_nodes, 2, 2), dtype=np.complex128)
        g[:, 0, 0] = g[:, 1, 1] = c
        g[:, 1, 0] = s * phases
        g[:, 0, 1] = -s * phases.conj()
        yield v0 * v0 / (2 * n_nodes), g


# the arguments and reports of the last mc_theorem1 call, at most one entry:
# the two mc checks of verify read one run.  Module state, not thread-safe.
_mc_memo: dict[tuple, tuple[McReport, ...]] = {}


def mc_theorem1(n: int, k: int, rs: tuple[int, ...], seed: int) -> tuple[McReport, ...]:
    """Check by quadrature that the projected rotated-product mixture
    reconstructs the reduced state within 2(1-delta) in the trace norm,
    one report per r in rs.

    Draws a random symmetric |Psi> of n qubits from the seed and averages
    over SU(2) both the unprojected mixture (which must equal the reduced
    state) and, per r, the mixture projected onto rotated radius-r weight
    windows (which must stay within the bound), all in the Dicke bases of
    Sym^k and Sym^(n-k), c = the number of 1 digits: Psi[c1, c2] =
    coeff[c1+c2] sqrt(C(k, c1) C(n-k, c2) / C(n, c1+c2)), (g|0>)^(x n-k)
    has entries sqrt(C(n-k, c2)) z0^(n-k-c2) z1^c2, a coset point acts on
    Sym^k as P d(theta) P*, P = diag(e^(i phi c)), with d(theta) from one
    eigh of J_y (Feng, Wang, Yang & Jin, Phys. Rev. E 92, 043307, 2015),
    and the window at r is c <= r.  The integrand depends on g only
    through g|0> up to a phase, so the Haar average is an integral over
    the sphere, taken by _sphere_rule on QUAD_N and 2 QUAD_N nodes: both
    give the unprojected mixture, of degree n - k <= 2 QUAD_N - 1, exactly,
    and the projected ones converge geometrically, so the grids' gap is
    each report's tolerance.  It refuses, before numpy loads, a larger
    n - k and more than MC_WORK_GUARD cells touched.  All radii share the
    state and the points.  A call with the arguments of the last one
    returns its reports again, without integrating.
    """
    if not 0 < k < n:
        raise ValueError(f"need 0 < k < n, got k={_number(k)}, n={_number(n)}")
    if n - k > 2 * QUAD_N - 1:
        raise ValueError(
            f"size guard exceeded: n - k > {2 * QUAD_N - 1}, the degree the rule gives exactly,"
            f" at n={_number(n)}, k={_number(k)}"
        )
    for r in rs:
        if not 0 <= r <= k:
            raise ValueError(f"need 0 <= r <= k, got r={_number(r)}")
    if seed < 0:
        raise ValueError(f"need seed >= 0, got seed={_number(seed)}")
    points = 10 * QUAD_N**2  # N x 2N on the coarse grid, 2N x 4N on the fine one
    if points * (k + 1) ** 2 * (len(rs) + 2) > MC_WORK_GUARD:
        raise ValueError(
            f"size guard exceeded: {points} points x {_number(k + 1)}^2 x {len(rs) + 2} cells touched > {MC_WORK_GUARD}"
        )
    key = (n, k, tuple(rs), seed)
    if key in _mc_memo:
        return _mc_memo[key]
    import numpy as np

    rng = Random(seed)
    coeff = np.array([complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n + 1)])
    coeff /= np.linalg.norm(coeff)
    m, d_formal = n - k, dim_sym(n - k, 2)
    c1, c2 = np.arange(k + 1), np.arange(m + 1)  # Dicke indices of the kept and the traced sites
    scale = [[_sqrt_float(comb(k, a) * comb(m, b), comb(n, a + b)) for b in c2.tolist()] for a in c1.tolist()]
    psi = np.array(scale) * coeff[np.add.outer(c1, c2)]
    rho_k = psi @ psi.conj().T

    ref_scale = np.sqrt([float(comb(m, b)) for b in c2.tolist()])
    ladder = np.diag(np.sqrt(c1[1:] * (k + 1.0 - c1[1:])), -1)  # J_- takes c to c + 1
    lam, vecs = np.linalg.eigh((ladder.T - ladder) / 2j)  # J_y

    identity_residual, grids = 0.0, []
    for n_nodes in (QUAD_N, 2 * QUAD_N):
        x_sum = np.zeros((k + 1, k + 1), dtype=np.complex128)
        y_sums = {r: np.zeros((k + 1, k + 1), dtype=np.complex128) for r in rs}  # a repeated radius once
        for weight, g in _sphere_rule(n_nodes):
            z0, z1 = g[:, 0, 0], g[:, 1, 0]
            ref = ref_scale * z0[:, None] ** (m - c2) * z1[:, None] ** c2  # g|0> over the traced sites
            phi = ref.conj() @ psi.T
            masses = weight * d_formal * np.linalg.norm(phi, axis=1) ** 2
            x_sum += weight * d_formal * (phi.T @ phi.conj())

            theta = 2 * np.arctan2(abs(z1[0]), z0[0].real)  # one node, one theta
            d_theta = (vecs * np.exp(-1j * theta * lam)) @ vecs.conj().T
            pc = np.exp(1j * np.angle(z1)[:, None] * c1)  # the diagonal of P at each point
            frame = (phi * pc.conj()) @ d_theta.conj()  # P* D* phi: the window frame, up to P
            for r, y_sum in y_sums.items():
                proj = frame[:, : r + 1]
                nrm = np.linalg.norm(proj, axis=1)
                safe = np.where(nrm > 1e-150, nrm, 1.0)
                chi_hat = ((proj / safe[:, None]) @ d_theta[:, : r + 1].T) * pc
                chi_hat[nrm <= 1e-150] = 0.0
                y_sum += (chi_hat * masses[:, None]).T @ chi_hat.conj()
        identity_residual = max(identity_residual, trace_distance(rho_k, (x_sum + x_sum.conj().T) / 2))
        grids.append({r: 2 * trace_distance(rho_k, (y_sum + y_sum.conj().T) / 2) for r, y_sum in y_sums.items()})

    coarse, fine = grids
    reports = tuple(
        McReport(n, k, r, seed, fine[r], coarse[r], float(epsilon(SymTriple(n, k, 2, r))), identity_residual)
        for r in rs
    )
    _mc_memo.clear()
    _mc_memo[key] = reports
    return reports
