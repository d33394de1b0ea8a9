"""Brute-force oracles for every closed form in the package.

Nothing here reuses the formula derivations: symmetric-subspace overlaps
are dense projector traces, coupling coefficients come from highest-weight
plus lowering synthesis in integer arithmetic (on a factorial-rescaled
product basis, with one square root taken per entry at the end),
oscillator overlaps from truncated Fock matrices, and the reconstruction
theorem itself gets a Monte Carlo end-to-end inequality check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial, gcd, lcm, sqrt

import numpy as np

from .exact import ExactReal
from .su2_cg import as_twoj
from .symmetric import SymTriple, dim_sym, epsilon
from .weights import Weight, sym_weights

__all__ = [
    "McReport",
    "sym_basis",
    "sym_basis_vector",
    "brute_delta_symmetric",
    "trace_distance",
    "cg_oracle",
    "lambda_up_set",
    "fock_annihilator",
    "pair_annihilate",
    "pair_create",
    "pair_vacuum",
    "pair_tower",
    "heis_oracle",
    "haar_su2",
    "mc_theorem1",
]

SYM_SIZE_GUARD = 10**6
CG_TABLE_GUARD = 24  # doubled angular momentum
# Monte Carlo samples per mc_theorem1 call; the mc suite makes four such
# calls and took 4.8 s at 10^6 and 46 s at 10^7 samples on a 2-vCPU Xeon
MC_SAMPLES_GUARD = 10**7


def trace_distance(a, b) -> float:
    """(1/2) tr|a - b| for hermitian matrices (the convention used throughout)."""
    diff = np.asarray(a) - np.asarray(b)
    herm_defect = np.abs(diff - diff.conj().T).max(initial=0.0)
    if herm_defect > 1e-8:
        raise ValueError(f"difference is not hermitian (defect {herm_defect:.2e})")
    diff = (diff + diff.conj().T) / 2
    return 0.5 * float(np.abs(np.linalg.eigvalsh(diff)).sum())


# ---------------------------------------------------------------------------
# symmetric subspace


def _class_indices(w: Weight):
    """Row-major product-basis indices of the type class of w."""
    d = w.dim
    counts = list(w.entries)

    def rec(acc: int, remaining: int):
        if remaining == 0:
            yield acc
            return
        for a in range(d):
            if counts[a]:
                counts[a] -= 1
                yield from rec(acc * d + a, remaining - 1)
                counts[a] += 1

    yield from rec(0, w.total)


def sym_basis_vector(w: Weight) -> np.ndarray:
    """Normalized uniform superposition over the type class of w."""
    n, d = w.total, w.dim
    if d**n > SYM_SIZE_GUARD:
        raise ValueError(f"size guard exceeded: {d}^{n} > {SYM_SIZE_GUARD}")
    idx = np.fromiter(_class_indices(w), dtype=np.int64)
    vec = np.zeros(d**n)
    vec[idx] = 1.0 / sqrt(len(idx))
    return vec


@lru_cache(maxsize=32)
def _sym_basis_matrix(n: int, d: int) -> tuple[tuple[Weight, ...], np.ndarray]:
    ws = tuple(sym_weights(n, d))
    mat = np.zeros((d**n, len(ws)))
    for col, w in enumerate(ws):
        mat[:, col] = sym_basis_vector(w)
    mat.setflags(write=False)
    return ws, mat


def sym_basis(n: int, d: int) -> list[tuple[Weight, np.ndarray]]:
    """Orthonormal weight basis of the n-fold symmetric power of C^d.

    Returns (weight, vector) pairs in descending lexicographic weight
    order; vectors are read-only views from a shared cache.
    """
    if d**n > SYM_SIZE_GUARD:
        raise ValueError(f"size guard exceeded: {d}^{n} > {SYM_SIZE_GUARD}")
    ws, mat = _sym_basis_matrix(n, d)
    return [(w, mat[:, i]) for i, w in enumerate(ws)]


def brute_delta_symmetric(t: SymTriple) -> float:
    """Dense evaluation of the overlap functional for the symmetric family.

    Computes (d_B/d_C) tr[P_C (P_X x |psi><psi|)] with C the n-site
    symmetric subspace, X the span of k-site weight vectors with
    w_1 >= k - r, and psi the n-k aligned reference sites.
    """
    n, k, d, r = t.n, t.k, t.d, t.r
    if d**n > SYM_SIZE_GUARD:
        raise ValueError(f"size guard exceeded: {d}^{n} > {SYM_SIZE_GUARD}")
    ws_k, mat_k = _sym_basis_matrix(k, d)
    keep = [i for i, w in enumerate(ws_k) if w[0] >= k - r]
    x_mat = mat_k[:, keep]
    _, mat_n = _sym_basis_matrix(n, d)
    # contracting |psi> = |1...1> on the trailing n-k sites picks the
    # leading column of each reshaped basis vector
    contracted = mat_n.reshape(d**k, d ** (n - k), mat_n.shape[1])[:, 0, :]
    total = float(((x_mat.T @ contracted) ** 2).sum())
    return dim_sym(n - k, d) / dim_sym(n, d) * total


# ---------------------------------------------------------------------------
# coupling coefficients by ladder synthesis


def _slice_weights(tj1: int, tj2: int, tm: int) -> list[int]:
    """Integer inner-product weights M/F of the m-slice, 0 off the slice.

    F = (j1+m1)! (j1-m1)! (j2+m2)! (j2-m2)! rescales each product state,
    and M is the lcm of the slice's F values.
    """
    fs = []
    for im1 in range(tj1 + 1):
        tm1 = tj1 - 2 * im1
        tm2 = tm - tm1
        if abs(tm2) > tj2:
            fs.append(0)
            continue
        fs.append(
            factorial((tj1 + tm1) // 2)
            * factorial((tj1 - tm1) // 2)
            * factorial((tj2 + tm2) // 2)
            * factorial((tj2 - tm2) // 2)
        )
    top = lcm(*(f for f in fs if f))
    return [top // f if f else 0 for f in fs]


def _wdot(u: list[int], v: list[int], w: list[int]) -> int:
    return sum(a * b * c for a, b, c in zip(u, v, w))


def _reduced(v: list[int]) -> list[int]:
    """v divided by the gcd of its entries (direction and sign kept)."""
    g = gcd(*v)
    return [x // g for x in v] if g > 1 else v


def _lower(v: list[int], tj1: int, tj2: int, tm: int) -> list[int]:
    """Apply the total lowering operator to a rescaled state at m.

    On the coordinates a = c sqrt(F), J- takes (m1, m2) to (m1-1, m2)
    with coefficient j1-m1+1 and to (m1, m2-1) with coefficient j2-m2+1.
    """
    out = [0] * (tj1 + 1)
    for im1 in range(tj1 + 1):
        tm1 = tj1 - 2 * im1
        tm2 = (tm - 2) - tm1
        if abs(tm2) > tj2:
            continue
        acc = v[im1] * ((tj2 - tm2) // 2)
        if im1:
            acc += v[im1 - 1] * ((tj1 - tm1) // 2)
        out[im1] = acc
    return _reduced(out)


def _cg_oracle_exact(tj1: int, tj2: int) -> dict[tuple[int, int, int], ExactReal]:
    nm1 = tj1 + 1
    tj_top = tj1 + tj2
    weights = {tm: _slice_weights(tj1, tj2, tm) for tm in range(-tj_top, tj_top + 1, 2)}
    vectors: dict[tuple[int, int], list[int]] = {}
    for tj in range(tj_top, abs(tj1 - tj2) - 2, -2):
        w = weights[tj]
        v = [0] * nm1
        v[0] = 1  # seed at m1 = j1, m2 = j - j1
        for tjp in range(tj + 2, tj_top + 2, 2):
            u = vectors[(tjp, tj)]
            vu = _wdot(v, u, w)
            if vu:
                uu = _wdot(u, u, w)
                v = _reduced([uu * vi - vu * ui for vi, ui in zip(v, u)])
        if v[0] <= 0:
            raise AssertionError("phase convention broken: seed overlap not positive")
        vectors[(tj, tj)] = v
        for tm in range(tj, -tj, -2):
            v = _lower(v, tj1, tj2, tm)
            vectors[(tj, tm - 2)] = v
    table: dict[tuple[int, int, int], ExactReal] = {}
    for (tj, tm), vec in vectors.items():
        w = weights[tm]
        norm2 = _wdot(vec, vec, w)
        for im1 in range(nm1):
            if w[im1]:
                a = vec[im1]
                sign = (a > 0) - (a < 0)
                table[(tj, tm, tj1 - 2 * im1)] = ExactReal.from_square(sign, a * a * w[im1], norm2)
    return table


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
    product of an m-slice has the integer weights W = M/F (M the lcm of
    the slice's F values).
    Gram-Schmidt becomes v <- <u,u>_W v - <v,u>_W u, and every state is
    kept divided by the gcd of its entries; positive scalings drop out
    because only directions and signs matter.  Each entry is formed once,
    at the end, as sign(a) sqrt(a^2 W / sum a^2 W) by
    `ExactReal.from_square`, which reduces the radicand by one gcd and
    factors nothing; entries compare with `cg` as (sign, radicand).

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
    return _cg_oracle_exact(tj1, tj2)


def lambda_up_set(j1, j2, j) -> set[Weight]:
    """Weights w of the j1 block with w + nu inside the coupled j block.

    All three representations sit in SU(2) weight coordinates: the j1
    block has weights (w1, 2j1-w1), nu = (2j2, 0), and the coupled block
    with highest weight ((j1+j2+j), (j1+j2-j)) is enumerated directly.
    """
    tj1, tj2, tj = as_twoj(j1).doubled, as_twoj(j2).doubled, as_twoj(j).doubled
    if (tj1 + tj2 + tj) % 2:
        raise ValueError(f"j1+j2+j = {tj1 + tj2 + tj}/2 is not an integer")
    if not abs(tj1 - tj2) <= tj <= tj1 + tj2:
        raise ValueError(
            f"triangle violation: j={tj}/2 outside [{abs(tj1 - tj2)}/2, {tj1 + tj2}/2]"
        )
    nu = Weight((tj2, 0))
    lam_hi = (tj1 + tj2 + tj) // 2
    lam_lo = (tj1 + tj2 - tj) // 2
    lam_weights = {Weight((lam_hi - i, lam_lo + i)) for i in range(tj + 1)}
    return {w for w in sym_weights(tj1, 2) if w + nu in lam_weights}


# ---------------------------------------------------------------------------
# truncated oscillator pair


def fock_annihilator(cutoff: int) -> np.ndarray:
    """Annihilation matrix on span{|0>, ..., |cutoff>}."""
    if cutoff < 1:
        raise ValueError(f"need cutoff >= 1, got {cutoff}")
    return np.diag(np.sqrt(np.arange(1.0, cutoff + 1)), k=1)


def pair_annihilate(mu: float, nu: float, state: np.ndarray) -> np.ndarray:
    """Apply the combined mode (sqrt(mu) a1 + sqrt(nu) a2)/sqrt(mu+nu)."""
    a = fock_annihilator(state.shape[0] - 1)
    return (sqrt(mu) * (a @ state) + sqrt(nu) * (state @ a.T)) / sqrt(mu + nu)


def pair_create(mu: float, nu: float, state: np.ndarray) -> np.ndarray:
    """Apply the combined creation operator (sqrt(mu) a1+ + sqrt(nu) a2+)/sqrt(mu+nu)."""
    a = fock_annihilator(state.shape[0] - 1)
    return (sqrt(mu) * (a.T @ state) + sqrt(nu) * (state @ a)) / sqrt(mu + nu)


def pair_vacuum(mu: float, nu: float, Delta: int, cutoff: int) -> np.ndarray:
    """The offset-Delta paired vacuum sum_l (-1)^l sqrt(alpha_l) |Delta-l> x |l>."""
    if not (mu > 0 and nu > 0):
        raise ValueError(f"mode weights must be positive, got mu={mu}, nu={nu}")
    if Delta < 0 or Delta > cutoff:
        raise ValueError(f"need 0 <= Delta <= cutoff, got Delta={Delta}, cutoff={cutoff}")
    mu, nu = float(mu), float(nu)
    state = np.zeros((cutoff + 1, cutoff + 1))
    for ell in range(Delta + 1):
        alpha = comb(Delta, ell) * mu**ell * nu ** (Delta - ell) / (mu + nu) ** Delta
        state[Delta - ell, ell] = (-1.0) ** ell * sqrt(alpha)
    return state


def pair_tower(mu: float, nu: float, Delta: int, n_max: int, cutoff: int) -> list[np.ndarray]:
    """States |psi_n> = (a+)^n |psi_0> / sqrt(n!) for n = 0..n_max."""
    if Delta + n_max > cutoff:
        raise ValueError(
            f"tower would leave the truncation: Delta+n_max = {Delta + n_max} > cutoff = {cutoff}"
        )
    mu, nu = float(mu), float(nu)
    states = [pair_vacuum(mu, nu, Delta, cutoff)]
    for n in range(1, n_max + 1):
        states.append(pair_create(mu, nu, states[-1]) / sqrt(n))
    return states


def heis_oracle(mu, nu, Delta: int, r: int, cutoff: int) -> float:
    """Truncated-Fock evaluation of the vacuum-window overlap.

    Sums (nu/(mu+nu)) * sum_n sum_{n' <= r} |<n', 0 | psi_n>|^2 over the
    offset-Delta tower; the cutoff guard keeps every tower state exactly
    representable, so the only numerical error is double-precision roundoff.
    """
    if not (float(mu) > 0 and float(nu) > 0):
        raise ValueError(f"mode weights must be positive, got mu={mu}, nu={nu}")
    if r < 0 or Delta < 0:
        raise ValueError(f"need r >= 0 and Delta >= 0, got r={r}, Delta={Delta}")
    if cutoff < r + Delta + 40:
        raise ValueError(
            f"cutoff guard: need cutoff >= r + Delta + 40 = {r + Delta + 40}, got {cutoff}"
        )
    mu, nu = float(mu), float(nu)
    n_max = max(r - Delta, 0) + 10
    states = pair_tower(mu, nu, Delta, n_max, cutoff)
    total = 0.0
    for state in states:
        nrm = np.linalg.norm(state)
        if abs(nrm - 1.0) > 1e-9:
            raise RuntimeError(f"tower state leaked through the truncation: norm {nrm}")
        total += float((state[: r + 1, 0] ** 2).sum())
    return nu / (mu + nu) * total


# ---------------------------------------------------------------------------
# Monte Carlo check of the reconstruction inequality


@dataclass(frozen=True)
class McReport:
    """Outcome of the Monte Carlo end-to-end inequality check."""

    n: int
    k: int
    r: int
    n_samples: int
    seed: int
    lhs_distance: float
    bound: float
    identity_residual: float
    mc_tolerance: float

    def __post_init__(self) -> None:
        if self.lhs_distance < 0:
            raise ValueError("trace distances are nonnegative")

    @property
    def passed(self) -> bool:
        return self.lhs_distance <= self.bound + self.mc_tolerance


def haar_su2(rng: np.random.Generator, size: int) -> np.ndarray:
    """size Haar-uniform SU(2) matrices via unit quaternions."""
    q = rng.standard_normal((size, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    a, b, c, d = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    g = np.empty((size, 2, 2), dtype=np.complex128)
    g[:, 0, 0] = a + 1j * b
    g[:, 0, 1] = c + 1j * d
    g[:, 1, 0] = -c + 1j * d
    g[:, 1, 1] = a - 1j * b
    return g


def _vector_power(vs: np.ndarray, p: int) -> np.ndarray:
    if p == 0:
        return np.ones((vs.shape[0], 1), dtype=vs.dtype)
    out = vs
    for _ in range(p - 1):
        out = np.einsum("ni,nj->nij", out, vs).reshape(vs.shape[0], -1)
    return out


def _matrix_power(gs: np.ndarray, p: int) -> np.ndarray:
    if p == 0:
        return np.ones((gs.shape[0], 1, 1), dtype=gs.dtype)
    out = gs
    dim = gs.shape[1]
    for _ in range(p - 1):
        out = np.einsum("nij,nkl->nikjl", out, gs).reshape(gs.shape[0], dim * 2, dim * 2)
        dim *= 2
    return out


_MC_BATCH = 4096


def mc_theorem1(
    n: int,
    k: int,
    r: int,
    n_samples: int,
    seed: int,
    state: np.ndarray | None = None,
) -> McReport:
    """Monte Carlo check that the projected rotated-product mixture
    reconstructs the reduced state within 2(1-delta).

    Draws a Haar-random symmetric |Psi> (or takes a supplied one), samples
    group elements uniformly, and accumulates both the unprojected mixture
    (which must converge to the reduced state) and the mixture projected
    onto rotated radius-r weight windows (which must stay within the bound
    plus Monte Carlo noise, five standard errors by default).
    """
    if not 0 < k < n:
        raise ValueError(f"need 0 < k < n, got k={k}, n={n}")
    if 2**n > 2**16:
        raise ValueError(f"size guard exceeded: 2^{n} > 2^16")
    if n_samples < 10**3:
        raise ValueError(f"need at least 10^3 samples, got {n_samples}")
    if n_samples > MC_SAMPLES_GUARD:
        raise ValueError(f"size guard exceeded: {n_samples} samples > {MC_SAMPLES_GUARD}")
    if not 0 <= r <= k:
        raise ValueError(f"need 0 <= r <= k, got r={r}")
    d = 2
    dim_b = d ** (n - k)
    d_formal = dim_sym(n - k, d)

    ws_n, mat_n = _sym_basis_matrix(n, d)
    if state is None:
        rng_state = np.random.default_rng([seed, 0])
        coeff = rng_state.standard_normal(len(ws_n)) + 1j * rng_state.standard_normal(len(ws_n))
        coeff /= np.linalg.norm(coeff)
        psi = mat_n @ coeff
    else:
        psi = np.asarray(state, dtype=np.complex128).reshape(-1)
        if psi.shape[0] != d**n:
            raise ValueError(f"state must have dimension {d**n}, got {psi.shape[0]}")
        nrm = np.linalg.norm(psi)
        if nrm == 0:
            raise ValueError("state must be nonzero")
        psi = psi / nrm
        resid = np.linalg.norm(psi - mat_n @ (mat_n.T @ psi))
        if resid > 1e-10:
            raise ValueError(f"state is not symmetric (residual {resid:.2e})")

    big = psi.reshape(d**k, dim_b)
    rho_k = big @ big.conj().T

    ws_k, mat_k = _sym_basis_matrix(k, d)
    keep = [i for i, w in enumerate(ws_k) if w[0] >= k - r]
    v_mat = mat_k[:, keep]

    dim_a = d**k
    x_sum = np.zeros((dim_a, dim_a), dtype=np.complex128)
    y_sum = np.zeros((dim_a, dim_a), dtype=np.complex128)
    y_sq_sum = np.zeros((dim_a, dim_a))

    rng = np.random.default_rng([seed, 1])
    done = 0
    while done < n_samples:
        batch = min(_MC_BATCH, n_samples - done)
        g = haar_su2(rng, batch)
        ref = _vector_power(g[:, :, 0], n - k)  # g|0> tensored over the traced sites
        phi = np.einsum("ab,nb->na", big, ref.conj())
        weights = d_formal * np.linalg.norm(phi, axis=1) ** 2
        x_sum += d_formal * np.einsum("na,nb->ab", phi, phi.conj())

        g_k = _matrix_power(g, k)
        back = np.einsum("nba,nb->na", g_k.conj(), phi)  # rotate into the window frame
        proj = (back @ v_mat.conj()) @ v_mat.T
        nrm = np.linalg.norm(proj, axis=1)
        safe = np.where(nrm > 1e-150, nrm, 1.0)
        chi_hat = np.einsum("nij,nj->ni", g_k, proj / safe[:, None])
        chi_hat[nrm <= 1e-150] = 0.0

        y_sum += np.einsum("n,na,nb->ab", weights, chi_hat, chi_hat.conj())
        abs2 = np.abs(chi_hat) ** 2
        y_sq_sum += np.einsum("n,na,nb->ab", weights**2, abs2, abs2)
        done += batch

    x_bar = x_sum / n_samples
    y_bar = y_sum / n_samples
    x_bar = (x_bar + x_bar.conj().T) / 2
    y_bar = (y_bar + y_bar.conj().T) / 2

    var = np.maximum(y_sq_sum / n_samples - np.abs(y_bar) ** 2, 0.0)
    se = 0.5 * sqrt((k + 1) * float(var.sum()) / n_samples)

    bound = float(epsilon(SymTriple(n=n, k=k, d=2, r=r)))
    return McReport(
        n=n,
        k=k,
        r=r,
        n_samples=n_samples,
        seed=seed,
        lhs_distance=trace_distance(rho_k, y_bar),
        bound=bound,
        identity_residual=trace_distance(rho_k, x_bar),
        mc_tolerance=5.0 * se,
    )
