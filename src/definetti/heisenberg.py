"""Oscillator-pair overlap functionals.

A two-mode squeezed-style family: the weight-mu and weight-nu modes pair
into states |psi_D> whose Schmidt coefficients follow a negative binomial.
The overlap of the vacuum reference against the number window {0..r} has
the closed form

    delta = (nu/(mu+nu))^(D+1) * sum_{n=0}^{r-D} C(n+D, D) (mu/(mu+nu))^n

which is exact rational whenever mu and nu are.  Every input is
evaluated in integers: with mu/nu = p/q in lowest terms (a float read as
the exact value it stores) and s = p + q, x = mu/(mu+nu) = p/s and
y = q/s, so every closed form here is one integer numerator over a power
of s.  _value ends it in one Fraction for exact weights and in one
correctly rounded division for float weights.

No closed form sums the window.  Both take 1 - delta from the
equivalent binomial tail

    1 - delta = sum_{k=0}^{min(Delta, r+1)} C(r+1, k) y^k x^(r+1-k),

the chance of at most Delta successes of probability y in r + 1 trials
(Diaconis & Freedman's urn, drawn with replacement): one integer over
s^(r+1), _tail, summed on the side of Delta with fewer terms.

The error bound has one kernel, _bound(mu, nu, Delta, r), on plain
fields: epsilon_heisenberg reads them from its triple, and
coherent_bound, the Delta = 0 corollary, validates (n, k, r) itself and
builds no HeisenbergTriple.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, inf

from .report import DeltaReport, _Frozen, _number, _sqrt_float

__all__ = [
    "HeisenbergTriple",
    "alpha_coeff",
    "alpha_weight",
    "alpha_weight_tail_bound",
    "delta_number_space",
    "epsilon_heisenberg",
    "coherent_bound",
]


class HeisenbergTriple(_Frozen):
    """Parameters (mu, nu, Delta, r): mode weights, offset, window radius."""

    __slots__ = ("mu", "nu", "Delta", "r")

    def __init__(self, mu: Fraction | float, nu: Fraction | float, Delta: int, r: int) -> None:
        if isinstance(mu, bool) or isinstance(nu, bool):
            raise TypeError("mode weights must be numbers")
        _check_weights(mu, nu)
        if not isinstance(Delta, int) or Delta < 0:
            raise ValueError(f"need an integer offset Delta >= 0, got {_number(Delta, repr)}")
        if not isinstance(r, int) or r < 0:
            raise ValueError(f"need an integer radius r >= 0, got {_number(r, repr)}")
        self._fill(mu, nu, Delta, r)

    @property
    def is_exact(self) -> bool:
        return _exact_pair(self.mu, self.nu)


def alpha_coeff(D: int, ell: int, mu, nu):
    """Schmidt weight of |D-ell> x |ell> inside |psi_D>: C(D,ell) mu^ell nu^(D-ell) / (mu+nu)^D."""
    if not 0 <= ell <= D:
        raise ValueError(f"need 0 <= ell <= Delta, got ell={_number(ell)}, Delta={_number(D)}")
    _check_weights(mu, nu)
    p, q = _coprime(mu, nu)
    return _value(mu, nu, comb(D, ell) * p**ell * q ** (D - ell), (p + q) ** D)


def alpha_weight(D: int, n: int, mu, nu):
    """Weight of total number D+n in the paired vacuum family.

    Negative binomial: (nu/(mu+nu))^D * C(n+D, D) * (mu/(mu+nu))^n.
    """
    if D < 0 or n < 0:
        raise ValueError(f"need Delta >= 0 and n >= 0, got {_number(D)}, {_number(n)}")
    _check_weights(mu, nu)
    p, q = _coprime(mu, nu)
    return _value(mu, nu, comb(n + D, D) * q**D * p**n, (p + q) ** (D + n))


def alpha_weight_tail_bound(D: int, start: int, mu, nu):
    """Geometric bound on sum_{n >= start} alpha_weight(D, n, mu, nu).

    Term ratios are x * (n+1+D)/(n+1) <= rho = x * (1 + D/(start+1)); when
    that is below 1 the tail is dominated by the geometric series
    a / (1 - rho), a = alpha_weight(D, start, mu, nu).  With x = p/s,
    s = p + q, that is C(start+D, D) q^D p^start (start+1) s over
    s^(D+start) (s (start+1) - p (start+1+D)): an exact Fraction for exact
    weights, and for float weights its float, rounded once.
    """
    if D < 0 or start < 0:
        raise ValueError(f"need Delta >= 0 and n >= 0, got {_number(D)}, {_number(start)}")
    _check_weights(mu, nu)
    p, q = _coprime(mu, nu)
    s, m = p + q, start + 1
    gap = s * m - p * (m + D)  # s (start+1) (1 - rho)
    if gap <= 0:
        raise ValueError(f"tail not yet geometric at start={start} (ratio {p * (m + D) / (s * m):.3f} >= 1)")
    return _value(mu, nu, comb(start + D, D) * q**D * p**start * m * s, s ** (D + start) * gap)


def _check_weights(mu, nu) -> None:
    if not mu > 0 or not nu > 0:
        raise ValueError(f"mode weights must be positive, got mu={_number(mu)}, nu={_number(nu)}")
    if not _exact_pair(mu, nu) and inf in (mu, nu):
        raise ValueError(f"mode weights must be finite, got mu={_number(mu)}, nu={_number(nu)}")


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


def _value(mu, nu, num: int, den: int) -> Fraction | float:
    """num/den in the type of the weights: a Fraction when both are exact,
    else the float of one correctly rounded integer division, which equals
    float() of that Fraction and costs no gcd."""
    return Fraction(num, den) if _exact_pair(mu, nu) else num / den


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

    With (p, q) = _coprime(mu, nu), s = p + q and n = r + 1, delta =
    (s^n - T) / s^n, T = _tail(p, q, Delta, n) the binomial tail of the
    module docstring, so a cell costs min(Delta + 1, r - Delta + 1)
    integer steps and none once r <= Delta (r < Delta: the window misses
    the support and delta = 0).  Nothing is kept between calls.  Exact
    weights give that Fraction and float weights its float, rounded once.
    """
    p, q = _coprime(t.mu, t.nu)
    whole = (p + q) ** (t.r + 1)
    delta = _value(t.mu, t.nu, whole - _tail(p, q, t.Delta, t.r + 1), whole)
    label = f"vacuum |0> at offset Delta={t.Delta}"
    return DeltaReport.from_delta(delta, formula_id="oscillator-number-window", psi_label=label)


def epsilon_heisenberg(t: HeisenbergTriple):
    """Error bound from the vacuum overlap: 2(1-delta) in the aligned
    multiplicity-one case Delta = r = 0, otherwise 2 sqrt(1-delta).

    Returns an exact Fraction whenever the algebra allows: exact inputs
    with Delta = 0 and the exponent (r+1)/2 integral, or Delta = r = 0;
    float inputs there get its float, rounded once.  Otherwise the bound
    is 2 sqrt(T / s^(r+1)), T = _tail(p, q, Delta, r + 1) as in
    delta_number_space, whose one term at Delta = 0 is the telescoped
    x^(r+1): the root of that exact quotient, a float rounded only at
    the end (correctly) and positive whenever the root is > 2^-1075.
    """
    return _bound(t.mu, t.nu, t.Delta, t.r)


def _bound(mu, nu, Delta: int, r: int):
    """epsilon_heisenberg of the triple (mu, nu, Delta, r), for fields
    that HeisenbergTriple would accept."""
    p, q = _coprime(mu, nu)
    s, n = p + q, r + 1
    if Delta == 0 and n == 1:
        return _value(mu, nu, 2 * p, s)
    if Delta == 0 and n % 2 == 0:
        return _value(mu, nu, 2 * p ** (n // 2), s ** (n // 2))
    return 2.0 * _sqrt_float(_tail(p, q, Delta, n), s**n)


def coherent_bound(n: int, k: int, r: int):
    """Error bound for k-of-n coherent-splitting reconstruction.

    Definitionally the oscillator bound at mu = k, nu = n - k, Delta = 0:
    2k/n at r = 0 and 2 (k/n)^((r+1)/2) otherwise.  It checks k and r as
    HeisenbergTriple would, with its messages, and builds none.
    """
    if not 0 < k < n:
        raise ValueError(f"need 0 < k < n, got k={_number(k)}, n={_number(n)}")
    if k.__class__ is n.__class__ is int:
        mu, nu = k, n - k  # exact weights as they stand
    else:
        mu, nu = Fraction(k), Fraction(n - k)
    if not isinstance(r, int) or r < 0:
        raise ValueError(f"need an integer radius r >= 0, got {_number(r, repr)}")
    return _bound(mu, nu, 0, r)
