"""Oscillator-pair overlap functionals.

A two-mode squeezed-style family: the weight-mu and weight-nu modes pair
into states |psi_D> whose Schmidt coefficients follow a negative binomial.
The overlap of the vacuum reference against the number window {0..r} has
the closed form

    delta = (nu/(mu+nu))^(D+1) * sum_{n=0}^{r-D} C(n+D, D) (mu/(mu+nu))^n

which is exact rational whenever mu and nu are.  Float inputs fall back
to compensated floating summation over the term ratios; the float error
bound instead sums 1 - delta directly, as the Delta + 1 terms of the
equivalent binomial tail.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, exp, fsum, log

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
        if not self.mu > 0 or not self.nu > 0:
            raise ValueError(f"mode weights must be positive, got mu={self.mu}, nu={self.nu}")
        if not isinstance(self.Delta, int) or self.Delta < 0:
            raise ValueError(f"need an integer offset Delta >= 0, got {self.Delta!r}")
        if not isinstance(self.r, int) or self.r < 0:
            raise ValueError(f"need an integer radius r >= 0, got {self.r!r}")

    @property
    def is_exact(self) -> bool:
        return isinstance(self.mu, (int, Fraction)) and isinstance(self.nu, (int, Fraction))


def alpha_coeff(D: int, ell: int, mu, nu):
    """Schmidt weight of |D-ell> x |ell> inside |psi_D>: C(D,ell) mu^ell nu^(D-ell) / (mu+nu)^D."""
    if not 0 <= ell <= D:
        raise ValueError(f"need 0 <= ell <= Delta, got ell={ell}, Delta={D}")
    if _exact_pair(mu, nu):
        mu, nu = Fraction(mu), Fraction(nu)
    return comb(D, ell) * mu**ell * nu ** (D - ell) / (mu + nu) ** D


def alpha_weight(D: int, n: int, mu, nu):
    """Weight of total number D+n in the paired vacuum family.

    Negative binomial: (nu/(mu+nu))^D * C(n+D, D) * (mu/(mu+nu))^n.
    """
    if D < 0 or n < 0:
        raise ValueError(f"need Delta >= 0 and n >= 0, got {D}, {n}")
    if _exact_pair(mu, nu):
        mu, nu = Fraction(mu), Fraction(nu)
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


def _exact_pair(mu, nu) -> bool:
    return isinstance(mu, (int, Fraction)) and isinstance(nu, (int, Fraction))


@lru_cache(maxsize=2)
def _number_column(mu: Fraction, nu: Fraction, Delta: int) -> list:
    """[count, total]: the sum of C(n+Delta, Delta) x^n over n < count for
    one exact column, which delta_number_space updates in place."""
    return [0, Fraction(0)]


def delta_number_space(t: HeisenbergTriple) -> DeltaReport:
    """Vacuum-reference overlap against the number window {0, ..., r}.

    For exact inputs and the last two columns (mu, nu, Delta) the running
    sum at the radius of the column's last call is kept: a call at a
    larger radius adds only the missing terms, so a sweep over r = 0..R
    costs R - Delta + 1 terms, and one at a smaller radius sums afresh.
    Only that one sum is kept: with x = p/q in lowest terms each sum is
    about log2(q) bits longer than the one before, so keeping them all
    would take memory quadratic in r.  The memo is module state and not
    thread-safe, like the rest of the package.  Float inputs are summed
    afresh on every call.
    """
    label = f"vacuum |0> at offset Delta={t.Delta}"
    formula = "oscillator-number-window"
    if t.is_exact:
        mu, nu = Fraction(t.mu), Fraction(t.nu)
        x = mu / (mu + nu)
        y = nu / (mu + nu)
        count = max(t.r - t.Delta + 1, 0)
        memo = _number_column(mu, nu, t.Delta)
        start, total = memo if memo[0] <= count else (0, Fraction(0))
        for n in range(start, count):
            total += comb(n + t.Delta, t.Delta) * x**n
        memo[:] = count, total
        delta = y ** (t.Delta + 1) * total
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
    if t.Delta == 0 and t.r == 0:
        return delta_number_space(t).bound_linear
    if t.Delta == 0 and t.is_exact:
        # 1 - delta telescopes to x^(r+1), so the bound is 2 x^((r+1)/2)
        # and the window sum is never needed
        x = Fraction(t.mu) / Fraction(t.mu + t.nu)
        if (t.r + 1) % 2 == 0:
            return 2 * x ** ((t.r + 1) // 2)
        return 2.0 * _sqrt_float(x ** (t.r + 1))
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
