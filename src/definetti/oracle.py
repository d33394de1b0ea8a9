"""Brute-force oracles for every closed form in the package.

Nothing here reuses the formula derivations: symmetric-subspace overlaps
are exact Haar moments of the projector, coupling coefficients come from
highest-weight plus lowering synthesis in integer arithmetic (on a
factorial-rescaled product basis, with one square root taken per entry
at the end),
oscillator overlaps from truncated Fock states, which the ladders shift,
and the reconstruction theorem itself gets a Monte Carlo end-to-end
inequality check.

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
    "haar_su2",
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
CG_TABLE_GUARD = 24  # doubled angular momentum
# Monte Carlo samples per mc_theorem1 call; the mc suite's two checks read
# one call, and took 1.5 s at 10^6 and 11 s at 10^7 samples on a 2-vCPU VM
MC_SAMPLE_MIN = 10**3
MC_SAMPLE_GUARD = 10**7


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
    down the m-slices lowers every block, seeds the block j = m and
    forms the slice's entries as sign(a) sqrt(a^2 W / sum a^2 W),
    reduced by one gcd, with nothing factored; entries compare with
    `cg` as (sign, radicand).

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
    for tm in range(tj_top, -tj_top - 2, -2):
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
            if tj < -tm:
                break  # blocks run down in j: this one and the rest end above m
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
    than HEIS_HELD_GUARD cells held and more than HEIS_WORK_GUARD cells
    touched by the ladder.
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
    states = _tower_states(mu, nu, Delta, n_max, side - 1)
    import numpy as np

    p, q = _coprime(mu, nu)
    y = q / (p + q)
    columns = []
    for state in states:
        nrm = np.linalg.norm(state)
        if abs(nrm - 1.0) > 1e-9:
            raise RuntimeError(f"tower state leaked through the truncation: norm {nrm}")
        columns.append(state[:, 0] ** 2)
    out = []
    for r in range(r_max + 1):
        total = 0.0
        for col in columns[: max(r - Delta, 0) + 11]:
            total += float(col[: r + 1].sum())
        out.append(y * total)
    return out


# ---------------------------------------------------------------------------
# Monte Carlo check of the reconstruction inequality


class McReport(_Frozen):
    """Outcome of the Monte Carlo end-to-end inequality check."""

    __slots__ = (
        "n", "k", "r", "n_samples", "seed", "lhs_distance", "bound", "identity_residual", "mc_tolerance",
    )

    @property
    def passed(self) -> bool:
        return self.lhs_distance <= self.bound + self.mc_tolerance


def haar_su2(rng: np.random.Generator, size: int) -> np.ndarray:
    """size Haar-uniform SU(2) matrices via unit quaternions."""
    import numpy as np

    q = rng.standard_normal((size, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    a, b, c, d = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    g = np.empty((size, 2, 2), dtype=np.complex128)
    g[:, 0, 0] = a + 1j * b
    g[:, 0, 1] = c + 1j * d
    g[:, 1, 0] = -c + 1j * d
    g[:, 1, 1] = a - 1j * b
    return g


# p-th tensor power of each sample, p >= 1
def _vector_power(vs: np.ndarray, p: int) -> np.ndarray:
    import numpy as np

    out = vs
    for _ in range(p - 1):
        out = np.einsum("ni,nj->nij", out, vs).reshape(vs.shape[0], -1)
    return out


def _matrix_power(gs: np.ndarray, p: int) -> np.ndarray:
    import numpy as np

    out = gs
    dim = gs.shape[1]
    for _ in range(p - 1):
        out = np.einsum("nij,nkl->nikjl", out, gs).reshape(gs.shape[0], dim * 2, dim * 2)
        dim *= 2
    return out


def _qubit_classes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The type class of each of the 2^n qubit product indices, its number
    of 1 digits c, and the size C(n, c) of each class: class c holds the
    weight (n - c, c), the c-th of sym_weights(n, 2), and its orthonormal
    vector is 1/sqrt(sizes[c]) where cols == c, else 0."""
    import numpy as np

    index, cols = np.arange(2**n), np.zeros(2**n, dtype=np.intp)
    for bit in range(n):
        cols += (index >> bit) & 1
    return cols, np.array([comb(n, c) for c in range(n + 1)])


# samples drawn and rotated at once.  A batch's arrays are mc_theorem1's
# working set: at (4, 2, (0, 1, 2), 10^4) tracemalloc traced 0.75 MB, against
# 1.24 MB at 1,024 and 4.17 MB at 4,096, and `verify all` peaked at 38.4 MB
# RSS against 39.0 at 1,024; a call took 10.9 ms against 9.8 and 10.7
# (medians of 60 alternating calls, 2-vCPU VM).  standard_normal draws in
# sequence, so the samples do not depend on the batch size (the sums over
# batches do, by summation order only: a few units in the last place)
_MC_BATCH = 512

# the arguments and reports of the last mc_theorem1 call, at most one entry:
# the two mc checks of verify read one run.  Module state, not thread-safe.
_mc_memo: dict[tuple, tuple[McReport, ...]] = {}


def mc_theorem1(n: int, k: int, rs: tuple[int, ...], n_samples: int, seed: int) -> tuple[McReport, ...]:
    """Monte Carlo check that the projected rotated-product mixture
    reconstructs the reduced state within 2(1-delta), one report per r in rs.

    Draws a Haar-random symmetric |Psi> from the seed, samples group
    elements uniformly, and accumulates both the unprojected mixture
    (which must converge to the reduced state) and, per r, the mixture
    projected onto rotated radius-r weight windows (which must stay within
    the bound plus Monte Carlo noise, five standard errors by default).
    All radii share the state and the samples.  A call with the arguments
    of the last one returns its reports again, without sampling.
    """
    if not 0 < k < n:
        raise ValueError(f"need 0 < k < n, got k={_number(k)}, n={_number(n)}")
    if n > 16:  # 2^n > 2^16, without raising 2 to a huge n
        raise ValueError(f"size guard exceeded: 2^{_number(n)} > 2^16")
    if n_samples < MC_SAMPLE_MIN:
        raise ValueError(f"need at least 10^3 samples, got {_number(n_samples)}")
    if n_samples > MC_SAMPLE_GUARD:
        raise ValueError(f"size guard exceeded: {_number(n_samples)} samples > {MC_SAMPLE_GUARD}")
    for r in rs:
        if not 0 <= r <= k:
            raise ValueError(f"need 0 <= r <= k, got r={_number(r)}")
    key = (n, k, tuple(rs), n_samples, seed)
    if key in _mc_memo:
        return _mc_memo[key]
    import numpy as np

    d = 2
    dim_b = d ** (n - k)
    d_formal = dim_sym(n - k, d)

    cols_n, sizes_n = _qubit_classes(n)
    rng_state = np.random.default_rng([seed, 0])
    coeff = rng_state.standard_normal(n + 1) + 1j * rng_state.standard_normal(n + 1)
    coeff /= np.linalg.norm(coeff)
    psi = (coeff / np.sqrt(sizes_n))[cols_n]

    big = psi.reshape(d**k, dim_b)
    rho_k = big @ big.conj().T

    # a row's window projection: its class means on the kept classes, else 0
    cols_k, sizes_k = _qubit_classes(k)
    order, starts = np.argsort(cols_k, kind="stable"), np.cumsum(sizes_k) - sizes_k
    keeps = [np.arange(k + 1) <= r for r in rs]  # weight (k - c, c) is in the window when c <= r

    dim_a = d**k
    x_sum = np.zeros((dim_a, dim_a), dtype=np.complex128)
    y_sums = [np.zeros((dim_a, dim_a), dtype=np.complex128) for _ in rs]
    y_sq_sums = [np.zeros((dim_a, dim_a)) for _ in rs]

    rng = np.random.default_rng([seed, 1])
    done = 0
    while done < n_samples:
        batch = min(_MC_BATCH, n_samples - done)
        g = haar_su2(rng, batch)
        ref = _vector_power(g[:, :, 0], n - k)  # g|0> tensored over the traced sites
        phi = np.einsum("ab,nb->na", big, ref.conj())
        weights = d_formal * np.linalg.norm(phi, axis=1) ** 2
        x_sum += d_formal * (phi.T @ phi.conj())

        g_k = _matrix_power(g, k)
        back = np.einsum("nba,nb->na", g_k.conj(), phi)  # rotate into the window frame
        means = np.add.reduceat(back[:, order], starts, axis=1) / sizes_k
        for keep, y_sum, y_sq_sum in zip(keeps, y_sums, y_sq_sums):
            proj = np.where(keep, means, 0.0)[:, cols_k]
            nrm = np.linalg.norm(proj, axis=1)
            safe = np.where(nrm > 1e-150, nrm, 1.0)
            chi_hat = np.einsum("nij,nj->ni", g_k, proj / safe[:, None])
            chi_hat[nrm <= 1e-150] = 0.0

            y_sum += (chi_hat * weights[:, None]).T @ chi_hat.conj()
            abs2 = np.abs(chi_hat) ** 2
            y_sq_sum += (abs2 * (weights**2)[:, None]).T @ abs2
        done += batch

    x_bar = x_sum / n_samples
    x_bar = (x_bar + x_bar.conj().T) / 2
    identity_residual = trace_distance(rho_k, x_bar)

    reports = []
    for r, y_sum, y_sq_sum in zip(rs, y_sums, y_sq_sums):
        y_bar = y_sum / n_samples
        y_bar = (y_bar + y_bar.conj().T) / 2
        var = np.maximum(y_sq_sum / n_samples - np.abs(y_bar) ** 2, 0.0)
        se = 0.5 * sqrt((k + 1) * float(var.sum()) / n_samples)
        lhs, bound = trace_distance(rho_k, y_bar), float(epsilon(SymTriple(n, k, 2, r)))
        reports.append(McReport(n, k, r, n_samples, seed, lhs, bound, identity_residual, 5.0 * se))
    _mc_memo.clear()
    _mc_memo[key] = reports = tuple(reports)
    return reports
