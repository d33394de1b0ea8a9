"""Oscillator-pair overlap functionals.

A two-mode squeezed-style family: the weight-mu and weight-nu modes pair
into states |psi_D> whose Schmidt coefficients follow a negative binomial.
The overlap of the vacuum reference against the number window {0..r} has
the closed form

    delta = (nu/(mu+nu))^(D+1) * sum_{n=0}^{r-D} C(n+D, D) (mu/(mu+nu))^n

which is exact rational whenever mu and nu are.  Exact inputs are
evaluated in integers: with mu/nu = p/q in lowest terms and s = p + q,
x = mu/(mu+nu) = p/s and y = q/s, so every exact closed form here is one
integer numerator over a power of s and ends in one Fraction.

No exact closed form sums the window.  Both take 1 - delta from the
equivalent binomial tail

    1 - delta = sum_{k=0}^{min(Delta, r+1)} C(r+1, k) y^k x^(r+1-k),

the chance of at most Delta successes of probability y in r + 1 trials
(Diaconis & Freedman's urn, drawn with replacement): one integer over
s^(r+1), _tail, summed on the side of Delta with fewer terms.  Float
inputs sum the window in compensated floats for delta and the tail in
logarithms for the bound.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, exp, fsum, gcd, inf, log, log1p

from .report import DeltaReport, _Frozen, _sqrt_float

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


class HeisenbergTriple(_Frozen):
    """Parameters (mu, nu, Delta, r): mode weights, offset, window radius."""

    __slots__ = ("mu", "nu", "Delta", "r")

    def __init__(self, mu: Fraction | float, nu: Fraction | float, Delta: int, r: int) -> None:
        if isinstance(mu, bool) or isinstance(nu, bool):
            raise TypeError("mode weights must be numbers")
        _check_weights(mu, nu)
        if not isinstance(Delta, int) or Delta < 0:
            raise ValueError(f"need an integer offset Delta >= 0, got {Delta!r}")
        if not isinstance(r, int) or r < 0:
            raise ValueError(f"need an integer radius r >= 0, got {r!r}")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "Delta", Delta)
        object.__setattr__(self, "r", r)

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
    _, log_x, log_y = _float_logs(mu, nu)
    return exp(log(comb(D, ell)) + ell * log_x + (D - ell) * log_y)


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
    _, log_x, log_y = _float_logs(mu, nu)
    return exp(log(comb(n + D, D)) + D * log_y + n * log_x)


def alpha_weight_tail_bound(D: int, start: int, mu, nu) -> float:
    """Geometric bound on sum_{n >= start} alpha_weight(D, n, mu, nu).

    Term ratios are x * (n+1+D)/(n+1) <= x * (1 + D/(start+1)); when that
    is below 1 the tail is dominated by a geometric series.
    """
    a = float(alpha_weight(D, start, mu, nu))
    x = _float_logs(mu, nu)[0]
    rho = x * (1 + D / (start + 1))
    if rho >= 1:
        raise ValueError(f"tail not yet geometric at start={start} (ratio {rho:.3f} >= 1)")
    return a / (1 - rho)


def _check_weights(mu, nu) -> None:
    if not mu > 0 or not nu > 0:
        raise ValueError(f"mode weights must be positive, got mu={mu}, nu={nu}")
    if not _exact_pair(mu, nu) and inf in (mu, nu):
        raise ValueError(f"mode weights must be finite, got mu={mu}, nu={nu}")


def _exact_pair(mu, nu) -> bool:
    return isinstance(mu, (int, Fraction)) and isinstance(nu, (int, Fraction))


def _coprime(mu, nu) -> tuple[int, int]:
    """Coprime (p, q) with x = mu/(mu+nu) = p/(p+q) and y = q/(p+q), for
    positive finite mu, nu, a float read as the exact value it stores:
    mu/nu = (a/b)/(c/d) = ad/(bc), over one gcd."""
    a, b = mu.as_integer_ratio()
    c, d = nu.as_integer_ratio()
    p, q = a * d, c * b
    g = gcd(p, q)
    return p // g, q // g


def _float_logs(mu, nu) -> tuple[float, float, float]:
    """x, log x = -log(1 + q/p) and log y = -log(1 + p/q) as floats, from
    the integers of _coprime: no float sum mu + nu leaves the float range,
    and log1p keeps full precision where x or y is near 1."""
    p, q = _coprime(mu, nu)
    return p / (p + q), -_log1p_ratio(q, p), -_log1p_ratio(p, q)


def _log1p_ratio(a: int, b: int) -> float:
    # a/b is a float below 2^1000; above it, log(1 + a/b) = log(a/b) in floats
    return log1p(a / b) if a.bit_length() < b.bit_length() + 1000 else log(a) - log(b)


def _tail(p: int, q: int, Delta: int, n: int) -> int:
    """T = sum_{k<=min(Delta, n)} C(n, k) q^k p^(n-k), s^n P(Bin(n, q/s) <= Delta)
    with s = p + q, summed on the side of Delta with fewer terms.  Below:
    p^(n-Delta) sum_{k<=Delta} C(n, k) q^k p^(Delta-k), from the term
    p^Delta, each next one the last times (n-k) q / ((k+1) p), an exact
    division.  Above: s^n less the swapped tail of the n - Delta terms
    k > Delta.  A call costs min(Delta + 1, n - Delta) steps, and none
    when Delta >= n - 1.
    """
    if Delta < 0:
        return 0
    if 2 * Delta >= n:
        return (p + q) ** n - _tail(q, p, n - Delta - 1, n)
    term = total = p**Delta
    for k in range(Delta):
        term = term * ((n - k) * q) // ((k + 1) * p)
        total += term
    return total * p ** (n - Delta)


def delta_number_space(t: HeisenbergTriple) -> DeltaReport:
    """Vacuum-reference overlap against the number window {0, ..., r}.

    Exact inputs are one Fraction: with (p, q) = _coprime(mu, nu),
    s = p + q and n = r + 1, delta = (s^n - T) / s^n, T = _tail(p, q,
    Delta, n) the binomial tail of the module docstring, so a cell costs
    min(Delta + 1, r - Delta + 1) integer steps and none once r <= Delta
    (r < Delta: the window misses the support and delta = 0).  Nothing is
    kept between calls.  Float inputs sum the window in compensated floats:
    1 - tail would cancel where delta is tiny.
    """
    label = f"vacuum |0> at offset Delta={t.Delta}"
    formula = "oscillator-number-window"
    if t.is_exact:
        p, q = _coprime(t.mu, t.nu)
        whole = (p + q) ** (t.r + 1)
        delta = Fraction(whole - _tail(p, q, t.Delta, t.r + 1), whole)
        return DeltaReport.from_delta(delta, formula_id=formula, psi_label=label)
    x, _, log_y = _float_logs(t.mu, t.nu)
    # C(n+Delta, Delta) x^n by the term ratio x (n+1+Delta)/(n+1), from 1;
    # y^(Delta+1) and every factor _RESCALE taken out of the running term
    # are carried as a logarithm, so neither the binomial nor the power
    # of y leaves the float range
    log_scale = (t.Delta + 1) * log_y
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
    """2 sqrt(1 - delta) for float inputs, from the binomial tail of the
    module docstring.  Its Delta + 1 positive terms are summed in
    logarithms, so nothing cancels and nothing leaves the float range
    before the end.
    """
    if t.r < t.Delta:
        return 2.0  # the window is empty: delta = 0
    _, log_x, log_y = _float_logs(t.mu, t.nu)
    logs = [
        log(comb(t.r + 1, k)) + k * log_y + (t.r + 1 - k) * log_x for k in range(t.Delta + 1)
    ]
    top = max(logs)
    return 2.0 * exp(0.5 * (top + log(fsum(exp(v - top) for v in logs))))


def epsilon_heisenberg(t: HeisenbergTriple):
    """Error bound from the vacuum overlap: 2(1-delta) in the aligned
    multiplicity-one case Delta = r = 0, otherwise 2 sqrt(1-delta).

    Returns an exact Fraction whenever the algebra allows: exact inputs
    with Delta = 0 and the exponent (r+1)/2 integral, or Delta = r = 0.
    A float result is positive whenever the bound is a normal float
    (>= 2^-1022).  Exact inputs take 1 - delta = T / s^(r+1) with
    T = _tail(p, q, Delta, r + 1), as delta_number_space does, whose one
    term at Delta = 0 is the telescoped x^(r+1).  Float inputs other than
    Delta = r = 0 sum the same tail in logarithms (see _float_epsilon).
    """
    if t.is_exact:
        p, q = _coprime(t.mu, t.nu)
        s, n = p + q, t.r + 1
        if t.Delta == 0 and n == 1:
            return Fraction(2 * p, s)
        if t.Delta == 0 and n % 2 == 0:
            return Fraction(2 * p ** (n // 2), s ** (n // 2))
        return 2.0 * _sqrt_float(Fraction(_tail(p, q, t.Delta, n), s**n))
    if t.Delta == 0 and t.r == 0:
        return delta_number_space(t).bound_linear
    return _float_epsilon(t)


def coherent_bound(n: int, k: int, r: int):
    """Error bound for k-of-n coherent-splitting reconstruction.

    Definitionally the oscillator bound at mu = k, nu = n - k, Delta = 0:
    2k/n at r = 0 and 2 (k/n)^((r+1)/2) otherwise.
    """
    if not 0 < k < n:
        raise ValueError(f"need 0 < k < n, got k={k}, n={n}")
    return epsilon_heisenberg(HeisenbergTriple(mu=Fraction(k), nu=Fraction(n - k), Delta=0, r=r))
