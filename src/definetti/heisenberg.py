"""Oscillator-pair overlap functionals.

A two-mode squeezed-style family: the weight-mu and weight-nu modes pair
into states |psi_D> whose Schmidt coefficients follow a negative binomial.
The overlap of the vacuum reference against the number window {0..r} has
the closed form

    delta = (nu/(mu+nu))^(D+1) * sum_{n=0}^{r-D} C(n+D, D) (mu/(mu+nu))^n

which is exact rational whenever mu and nu are.  Exact inputs are
evaluated in integers: with mu/nu = p/q in lowest terms and s = p + q,
x = mu/(mu+nu) = p/s and y = q/s, so every exact closed form here is one
integer numerator over a power of s and ends in one Fraction.  Float
inputs fall back to compensated floating summation over the term ratios;
the float error bound instead sums 1 - delta directly, as the Delta + 1
terms of the equivalent binomial tail.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, exp, fsum, gcd, log

from .report import DeltaReport, _sqrt_float

__all__ = [
    "HeisenbergTriple",
    "alpha_coeff",
    "alpha_weight",
    "alpha_weight_tail_bound",
    "delta_number_space",
    "epsilon_heisenberg",
    "coherent_bound",
]

_RESCALE = 2.0**512
_LOG_RESCALE = 512 * log(2.0)


@dataclass(frozen=True)
class HeisenbergTriple:
    """Parameters (mu, nu, Delta, r): mode weights, offset, window radius."""

    mu: Fraction | float
    nu: Fraction | float
    Delta: int
    r: int

    def __post_init__(self) -> None:
        if isinstance(self.mu, bool) or isinstance(self.nu, bool):
            raise TypeError("mode weights must be numbers")
        _check_weights(self.mu, self.nu)
        if not isinstance(self.Delta, int) or self.Delta < 0:
            raise ValueError(f"need an integer offset Delta >= 0, got {self.Delta!r}")
        if not isinstance(self.r, int) or self.r < 0:
            raise ValueError(f"need an integer radius r >= 0, got {self.r!r}")

    @property
    def is_exact(self) -> bool:
        return _exact_pair(self.mu, self.nu)


def alpha_coeff(D: int, ell: int, mu, nu):
    """Schmidt weight of |D-ell> x |ell> inside |psi_D>: C(D,ell) mu^ell nu^(D-ell) / (mu+nu)^D."""
    if not 0 <= ell <= D:
        raise ValueError(f"need 0 <= ell <= Delta, got ell={ell}, Delta={D}")
    _check_weights(mu, nu)
    if _exact_pair(mu, nu):
        p, q = _coprime(mu, nu)
        return Fraction(comb(D, ell) * p**ell * q ** (D - ell), (p + q) ** D)
    return comb(D, ell) * mu**ell * nu ** (D - ell) / (mu + nu) ** D


def alpha_weight(D: int, n: int, mu, nu):
    """Weight of total number D+n in the paired vacuum family.

    Negative binomial: (nu/(mu+nu))^D * C(n+D, D) * (mu/(mu+nu))^n.
    """
    if D < 0 or n < 0:
        raise ValueError(f"need Delta >= 0 and n >= 0, got {D}, {n}")
    _check_weights(mu, nu)
    if _exact_pair(mu, nu):
        p, q = _coprime(mu, nu)
        return Fraction(comb(n + D, D) * q**D * p**n, (p + q) ** (D + n))
    x = mu / (mu + nu)
    y = nu / (mu + nu)
    return y**D * comb(n + D, D) * x**n


def alpha_weight_tail_bound(D: int, start: int, mu, nu) -> float:
    """Geometric bound on sum_{n >= start} alpha_weight(D, n, mu, nu).

    Term ratios are x * (n+1+D)/(n+1) <= x * (1 + D/(start+1)); when that
    is below 1 the tail is dominated by a geometric series.
    """
    a = float(alpha_weight(D, start, mu, nu))
    x = float(mu) / float(mu + nu)
    rho = x * (1 + D / (start + 1))
    if rho >= 1:
        raise ValueError(f"tail not yet geometric at start={start} (ratio {rho:.3f} >= 1)")
    return a / (1 - rho)


def _check_weights(mu, nu) -> None:
    if not mu > 0 or not nu > 0:
        raise ValueError(f"mode weights must be positive, got mu={mu}, nu={nu}")


def _exact_pair(mu, nu) -> bool:
    return isinstance(mu, (int, Fraction)) and isinstance(nu, (int, Fraction))


def _coprime(mu, nu) -> tuple[int, int]:
    """Coprime (p, q) with x = mu/(mu+nu) = p/(p+q) and y = q/(p+q), for
    positive exact mu, nu: mu/nu = (a/b)/(c/d) = ad/(bc), over one gcd."""
    p = mu.numerator * nu.denominator
    q = nu.numerator * mu.denominator
    g = gcd(p, q)
    return p // g, q // g


@lru_cache(maxsize=2)
def _number_column(p: int, q: int, Delta: int) -> list:
    """[c, A, p^c] for one exact column, which delta_number_space updates
    in place: A = sum_{n<c} C(n+Delta, Delta) p^n s^(c-1-n), s = p + q."""
    return [0, 0, 1]


def delta_number_space(t: HeisenbergTriple) -> DeltaReport:
    """Vacuum-reference overlap against the number window {0, ..., r}.

    Exact inputs are summed in integers.  With (p, q) = _coprime(mu, nu),
    s = p + q and c = r - Delta + 1 window terms,

        delta = q^(Delta+1) A_c / s^(Delta+c),
        A_c = sum_{n<c} C(n+Delta, Delta) p^n s^(c-1-n),

    and A_{c+1} = A_c s + C(c+Delta, Delta) p^c, so each term costs one
    integer multiply-add and the result is one Fraction.  For the last two
    columns (p, q, Delta) the integers [c, A_c, p^c] of the column's last
    call are kept: a call at a larger radius adds only the missing terms,
    so a sweep over r = 0..R costs R - Delta + 1 terms, and one at a
    smaller radius sums afresh.  Only that one sum is kept: A_c is about
    log2(s) bits longer than A_(c-1), so keeping them all would take
    memory quadratic in r.  The memo is module state and not thread-safe,
    like the rest of the package.  Float inputs are summed afresh on every
    call.
    """
    label = f"vacuum |0> at offset Delta={t.Delta}"
    formula = "oscillator-number-window"
    if t.is_exact:
        p, q = _coprime(t.mu, t.nu)
        s, D = p + q, t.Delta
        count = max(t.r - D + 1, 0)
        memo = _number_column(p, q, D)
        c, total, p_pow = memo if memo[0] <= count else (0, 0, 1)
        for n in range(c, count):
            total = total * s + comb(n + D, D) * p_pow
            p_pow *= p
        memo[:] = count, total, p_pow
        delta = Fraction(q ** (D + 1) * total, s ** (D + count))
        return DeltaReport.from_delta(delta, formula_id=formula, psi_label=label)
    mu, nu = float(t.mu), float(t.nu)
    x = mu / (mu + nu)
    # C(n+Delta, Delta) x^n by the term ratio x (n+1+Delta)/(n+1), from 1;
    # y^(Delta+1) and every factor _RESCALE taken out of the running term
    # are carried as a logarithm, so neither the binomial nor the power
    # of y leaves the float range
    log_scale = (t.Delta + 1) * log(nu / (mu + nu))
    term, total, carry = 1.0, 0.0, 0.0
    for n in range(t.r - t.Delta + 1):
        # compensated summation
        step = term - carry
        acc = total + step
        carry = (acc - total) - step
        total = acc
        term *= x * (n + 1 + t.Delta) / (n + 1)
        if term > _RESCALE:
            term, total, carry = term / _RESCALE, total / _RESCALE, carry / _RESCALE
            log_scale += _LOG_RESCALE
    delta = exp(log(total) + log_scale) if total else 0.0
    return DeltaReport.from_delta(delta, formula_id=formula, psi_label=label)


def _float_epsilon(t: HeisenbergTriple) -> float:
    """2 sqrt(1 - delta) for float inputs, from the finite binomial form

        1 - delta = sum_{k=0}^{Delta} C(r+1, k) y^k x^(r+1-k),

    the chance of at most Delta successes of probability y in r + 1
    trials.  Its Delta + 1 positive terms are summed in logarithms, so
    nothing cancels and nothing leaves the float range before the end.
    """
    if t.r < t.Delta:
        return 2.0  # the window is empty: delta = 0
    mu, nu = float(t.mu), float(t.nu)
    log_x = log(mu) - log(mu + nu)
    log_y = log(nu) - log(mu + nu)
    logs = [
        log(comb(t.r + 1, k)) + k * log_y + (t.r + 1 - k) * log_x for k in range(t.Delta + 1)
    ]
    top = max(logs)
    return 2.0 * exp(0.5 * (top + log(fsum(exp(v - top) for v in logs))))


def epsilon_heisenberg(t: HeisenbergTriple):
    """Error bound from the vacuum overlap: 2(1-delta) in the aligned
    multiplicity-one case Delta = r = 0, otherwise 2 sqrt(1-delta).

    Returns an exact Fraction whenever the algebra allows (exact inputs
    with Delta = 0 and the exponent (r+1)/2 integral, or r = 0).  A float
    result is positive whenever the bound is a normal float (>= 2^-1022).
    Float inputs other than Delta = r = 0 never form delta: 1 - delta is
    summed directly as a finite binomial tail (see _float_epsilon).
    """
    if t.Delta == 0 and t.is_exact:
        # 1 - delta telescopes to x^(r+1) = p^(r+1) / s^(r+1), so the bound
        # is 2 x at r = 0 and 2 x^((r+1)/2) otherwise, and the window sum
        # is never needed
        p, q = _coprime(t.mu, t.nu)
        s = p + q
        if t.r == 0:
            return Fraction(2 * p, s)
        if (t.r + 1) % 2 == 0:
            e = (t.r + 1) // 2
            return Fraction(2 * p**e, s**e)
        return 2.0 * _sqrt_float(Fraction(p ** (t.r + 1), s ** (t.r + 1)))
    if t.Delta == 0 and t.r == 0:
        return delta_number_space(t).bound_linear
    if not t.is_exact:
        return _float_epsilon(t)
    return delta_number_space(t).bound_sqrt


def coherent_bound(n: int, k: int, r: int):
    """Error bound for k-of-n coherent-splitting reconstruction.

    Definitionally the oscillator bound at mu = k, nu = n - k, Delta = 0:
    2k/n at r = 0 and 2 (k/n)^((r+1)/2) otherwise.
    """
    if not 0 < k < n:
        raise ValueError(f"need 0 < k < n, got k={k}, n={n}")
    return epsilon_heisenberg(HeisenbergTriple(mu=Fraction(k), nu=Fraction(n - k), Delta=0, r=r))
