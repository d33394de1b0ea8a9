"""Command-line front end.

Three commands: `compute` evaluates any closed form from key=value
parameters, `figure` emits the CSV data behind the three overlap
figures, and `verify` runs the oracle/property suites.  Exit codes:
0 success, 1 verification or IO failure, 2 usage error.  Diagnostics go
to stderr; data goes to stdout or --out.
"""

from __future__ import annotations

import argparse
import re
import sys
from decimal import ROUND_HALF_EVEN, Context, Decimal
from fractions import Fraction
from functools import partial

from .report import _Frozen, _number, _shown

# heisenberg, symmetric and weights are imported where they are used, so
# a process that computes a coupling-window figure never loads them
from .su2_cg import TwoJ, as_twoj, delta_su2

_TWELVE_SIG = Context(prec=12, rounding=ROUND_HALF_EVEN)


def render_decimal(x) -> str:
    """The exact value of x, a Fraction or a float, to 12 significant
    digits, round-half-even, exact trailing zeros dropped."""
    num, den = x.as_integer_ratio()
    return str(_TWELVE_SIG.divide(Decimal(num), Decimal(den)))


def _printable_in_full(x: Fraction) -> bool:
    """Whether str() can print both sides of x under the interpreter's
    int-to-str digit limit, sys.get_int_max_str_digits() (0: no limit)."""
    limit = sys.get_int_max_str_digits()
    return not limit or max(abs(x.numerator), x.denominator) < 10**limit


def render_scalar(x) -> str:
    """`p/q = decimal` for non-integral rationals, bare integers, else decimal.

    A Fraction must be _printable_in_full.
    """
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return str(x.numerator)
        return f"{x.numerator}/{x.denominator} = {render_decimal(x)}"
    if isinstance(x, int):
        return str(x)
    return render_decimal(x)


# ---------------------------------------------------------------------------
# compute


def _parse_params(tokens: list[str], parsers: dict, optional: tuple[str, ...] = ()) -> dict:
    """The key=value tokens as a dict: the required keys, those of parsers,
    each parsed by its parser in the declared order, then the optional
    keys given, as typed."""
    params: dict[str, str] = {}
    for tok in tokens:
        key, sep, value = tok.partition("=")
        if not sep or not key or not value:
            raise ValueError(f"expected key=value, got {_shown(tok)}")
        if key not in parsers and key not in optional:
            expected = ", ".join((*parsers, *optional))
            raise ValueError(f"unknown parameter {_shown(key)} (expected {expected})")
        if key in params:
            raise ValueError(f"duplicate parameter {_shown(key)}")
        params[key] = value
    missing = [k for k in parsers if k not in params]
    if missing:
        raise ValueError(f"missing parameter(s): {', '.join(missing)}")
    parsed = {key: parse(params[key], key) for key, parse in parsers.items()}
    return parsed | {key: params[key] for key in optional if key in params}


def _typed(s: str) -> str:
    """s as typed, without surrounding space, cut when it is long."""
    s = s.strip()
    return s if len(s) <= 40 else f"{s[:32]}... ({len(s)} characters)"


# the text int() reads as a base-10 integer
_INTEGER = re.compile(r"\s*[-+]?\d+(_\d+)*\s*")


def _int(s: str, key: str, limit: int | None = None) -> int:
    """s as an int, at most limit if one is given.

    An integer of more digits than the interpreter converts
    (sys.get_int_max_str_digits()) is named by its digit count, against
    the limit where one applies, and never echoed.
    """
    try:
        value = int(s)
    except ValueError:
        if not _INTEGER.fullmatch(s):
            raise ValueError(f"{key} must be an integer, got {_shown(s)}") from None
        digits = sum(c.isdigit() for c in s)
        if limit is not None and not s.lstrip().startswith("-"):
            raise ValueError(f"need {key} <= {limit}, got a {digits}-digit integer") from None
        raise ValueError(
            f"{key} has {digits} digits, more than the interpreter converts "
            f"({sys.get_int_max_str_digits()})"
        ) from None
    if limit is not None and value > limit:
        raise ValueError(f"need {key} <= {limit}, got {_number(value)}")
    return value


def _option_int(s: str) -> int:
    """An argparse type that names an over-long integer as _int does."""
    try:
        return _int(s, "value")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _figure_id(s: str) -> int:
    """1, 2 or 3; argparse's choice check would echo a long integer whole."""
    value = _option_int(s)
    if value not in (1, 2, 3):
        raise argparse.ArgumentTypeError(f"invalid choice: {_number(value)} (choose from 1, 2, 3)")
    return value


def _choice(*names: str):
    """An argparse type for one of names, whose refusal cuts a long token
    as _shown does; argparse's own choice check would echo it whole.  The
    parser keeps its choices for the usage line, and they see only names."""

    def choice(s: str) -> str:
        if s not in names:
            shown = ", ".join(map(repr, names))
            raise argparse.ArgumentTypeError(f"invalid choice: {_shown(s)} (choose from {shown})")
        return s

    return choice


# a decimal with an exponent as Fraction reads it: sign, digits with single
# underscores between them, an optional fraction part, e or E, and spaces
# around the whole
_DECIMAL_EXPONENT = re.compile(
    r"\s*[-+]?(?=\d|\.\d)(\d+(_\d+)*)?(\.(\d+(_\d+)*)?)?[eE](?P<exp>[-+]?\d+(_\d+)*)\s*"
)


def _bounded_exponent(s: str, key: str) -> None:
    """Refuse a decimal whose exponent is over COMPUTE_BITS_GUARD in size
    before Fraction expands it into a power of ten."""
    match = _DECIMAL_EXPONENT.fullmatch(s)
    if not match:
        return
    # int() of more digits than sys.get_int_max_str_digits() would raise
    digits = match["exp"].lstrip("+-").replace("_", "").lstrip("0")
    if len(digits) > len(str(COMPUTE_BITS_GUARD)) or int(digits or 0) > COMPUTE_BITS_GUARD:
        limit = COMPUTE_BITS_GUARD
        raise ValueError(f"need the decimal exponent of {key} at most {limit} in size, got {_typed(s)}")


def _fraction(s: str, key: str) -> Fraction:
    _bounded_exponent(s, key)
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{key} must be a rational number, got {_shown(s)}") from None


def _mode_weight(s: str, key: str) -> Fraction:
    """mu or nu: a positive rational, refused as typed, before any
    message formats the number it builds."""
    value = _fraction(s, key)
    if value <= 0:
        raise ValueError(f"need {key} > 0, got {_typed(s)}")
    return value


def _twoj(s: str, key: str) -> TwoJ:
    _bounded_exponent(s, key)
    try:
        Fraction(s)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{key} must be a half-integer, got {_shown(s)}") from None
    # a rational that is not a half-integer is named as typed by as_twoj
    return as_twoj(s)


def _twoj_bounded(s: str, key: str) -> TwoJ:
    """j1 or j2, in 0..FIGURE_J_GUARD."""
    value = _twoj(s, key)
    if value.doubled > 2 * FIGURE_J_GUARD:
        raise ValueError(f"need {key} <= {FIGURE_J_GUARD}, got {_typed(s)}")
    if value.doubled < 0:
        raise ValueError(f"{key} = {_typed(s)} is negative")
    return value


def _twoj_coupled(s: str, key: str) -> TwoJ:
    """j, m2, j-min or j-max: at most 2 FIGURE_J_GUARD in size, as every
    valid value is (|m2| <= j2 and j <= j1 + j2), so that no message
    formats a number past the interpreter's int-to-str limit."""
    value = _twoj(s, key)
    if abs(value.doubled) > 4 * FIGURE_J_GUARD:
        raise ValueError(f"need |{key}| <= {2 * FIGURE_J_GUARD}, got {_typed(s)}")
    return value


def _weight(s: str, key: str):
    from .weights import Weight

    try:
        return Weight(tuple(int(x) for x in s.split(",")))
    except ValueError:
        raise ValueError(f"{key} must be a comma-separated integer tuple, got {_shown(s)}") from None


# Upper limits of compute sym-epsilon (n, d), sym-bound (d) and
# closed-form-sum (n); k <= n and r <= k follow.  Measured on a 2-vCPU Xeon
# VM, the slowest cells at the limits take 0.4-0.5 s in process (0.6-0.75 s
# as commands): sym-epsilon n=100000 k=100000 d=1000 r=50000 and
# closed-form-sum n=100000 k=100000 r=99999.  At d = 10^4 the first takes
# 0.9 s; sym-epsilon n=10^6 k=5*10^5 d=4 r=2*10^5 takes 5.5 s.
COMPUTE_N_GUARD = 10**5
COMPUTE_D_GUARD = 1000

# Upper limit of (r + 1) * bitlen(p + q) in compute heis-delta, heis-epsilon
# and coherent-bound, mu/nu = p/q in lowest terms (k/(n-k) for
# coherent-bound): the bit length of the power of p + q under every exact
# value, whose gcd, powers and tail terms are the cost.  The slowest cell
# at a given size is mu = nu = 1 with Delta = r/2, whose binomial tail has
# (r + 1)/2 terms of r bits each.  Measured on a 2-vCPU Xeon VM, in
# process: 0.35 s at 10^5 bits, 0.8 s at the limit (heis-delta mu=1 nu=1
# Delta=37499 r=74999; 0.9 s as a command) and 1.3 s at 2*10^5 bits;
# heis-delta mu=99 nu=1 Delta=3 r=21427, at the limit too, takes 0.05 s.
COMPUTE_BITS_GUARD = 150_000


def _check_oscillator_bits(mu, nu, r: int) -> None:
    ratio = Fraction(mu) / Fraction(nu)
    bits = (r + 1) * (ratio.numerator + ratio.denominator).bit_length()
    if bits > COMPUTE_BITS_GUARD:
        raise ValueError(
            f"the exact value needs about {bits} bits, over the limit of {COMPUTE_BITS_GUARD}: "
            "lower r or the digits of the mode weights"
        )


_NKR = {"n": _int, "k": _int, "r": _int}
_NKRD = {**_NKR, "d": partial(_int, limit=COMPUTE_D_GUARD)}
_NKR_GUARDED = {**_NKR, "n": partial(_int, limit=COMPUTE_N_GUARD)}
_NKRD_GUARDED = {**_NKRD, "n": partial(_int, limit=COMPUTE_N_GUARD)}


def _compute_su2_delta(tokens: list[str]):
    parsers = {
        "j1": _twoj_bounded, "j2": _twoj_bounded, "j": _twoj_coupled, "m2": _twoj_coupled, "r": _int
    }
    return delta_su2(**_parse_params(tokens, parsers, ("direction",))).delta


def _compute_sym_epsilon(tokens: list[str]):
    from .symmetric import SymTriple, epsilon

    return epsilon(SymTriple(**_parse_params(tokens, _NKRD_GUARDED)))


def _compute_sym_bound(tokens: list[str]):
    from .symmetric import SymTriple, bound_exponential

    pair = bound_exponential(SymTriple(**_parse_params(tokens, _NKRD)))
    return f"intermediate = {render_decimal(pair.intermediate)}\nheadline = {render_decimal(pair.headline)}"


def _heis_triple(tokens: list[str]):
    from .heisenberg import HeisenbergTriple

    parsers = {"mu": _mode_weight, "nu": _mode_weight, "Delta": _int, "r": _int}
    t = HeisenbergTriple(**_parse_params(tokens, parsers))
    _check_oscillator_bits(t.mu, t.nu, t.r)
    return t


def _compute_heis_delta(tokens: list[str]):
    from .heisenberg import delta_number_space

    return delta_number_space(_heis_triple(tokens)).delta


def _compute_heis_epsilon(tokens: list[str]):
    from .heisenberg import epsilon_heisenberg

    return epsilon_heisenberg(_heis_triple(tokens))


def _compute_coherent_bound(tokens: list[str]):
    from .heisenberg import coherent_bound

    n, k, r = _parse_params(tokens, _NKR).values()
    if 0 < k < n:
        _check_oscillator_bits(k, n - k, r)
    return coherent_bound(n, k, r)


def _compute_exact_radius(tokens: list[str]):
    from .weights import Weight, exact_radius

    # either explicit weights, or the two-level shortcut d=2 n=.. k=.. l=..
    if any(tok.startswith(("lambda=", "mu=", "nu=")) for tok in tokens):
        weights = _parse_params(tokens, {"lambda": _weight, "mu": _weight, "nu": _weight})
        return exact_radius(*weights.values())
    d, n, k, ell = _parse_params(tokens, {"d": _int, "n": _int, "k": _int, "l": _int}).values()
    if d != 2:
        raise ValueError(f"the n/k/l shortcut is two-level only (d=2), got d={_number(d)}")
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={_number(k)}, n={_number(n)}")
    if not 0 <= ell <= min(k, n - k):
        raise ValueError(f"need 0 <= l <= min(k, n-k), got l={_number(ell)}")
    return exact_radius(Weight((n - ell, ell)), Weight((k, 0)), Weight((n - k, 0)))


def _compute_closed_form_sum(tokens: list[str]):
    from .symmetric import closed_form_sum

    return closed_form_sum(**_parse_params(tokens, _NKR_GUARDED))


COMPUTE_FNS = {
    "su2-delta": _compute_su2_delta,
    "sym-epsilon": _compute_sym_epsilon,
    "sym-bound": _compute_sym_bound,
    "heis-delta": _compute_heis_delta,
    "heis-epsilon": _compute_heis_epsilon,
    "coherent-bound": _compute_coherent_bound,
    "exact-radius": _compute_exact_radius,
    "closed-form-sum": _compute_closed_form_sum,
}


# ---------------------------------------------------------------------------
# figure


class FigureSpec(_Frozen):
    """Resolved parameters of one figure grid: the figure id, j1 and j2
    as TwoJ, the coupled j columns tj_min..tj_max in doubled units, the
    largest radius r_max, and figure 3's mode weights mu, nu (Fractions) and
    largest offset delta_max."""

    __slots__ = ("figure_id", "j1", "j2", "tj_min", "tj_max", "r_max", "mu", "nu", "delta_max")


# Upper limits of the figure options.  Measured alone on a 2-vCPU Xeon VM,
# the others at their defaults: figure 3 --r-max 2000 takes 0.8-1.0 s
# (4.1 s at --mu 1 --nu 99, most of it printing the exact oscillator
# columns, whose denominators grow with r); figure 1 --j1 1000 --j2 1000
# --j-min 1990 --j-max 2000 takes 0.13 s; figure 3 --delta-max 100 takes
# 0.2 s.
FIGURE_R_MAX_GUARD = 2000
# for --j1 and --j2, and j1= and j2= of compute su2-delta: the angular
# momentum, not its double.  compute su2-delta needs no limit on r, since
# its window stops at 2 j1 + 1 terms; j and m2 lie within j1 + j2 and j2.
# The slowest su2-delta cell measured at the limit, over j in steps of 250
# and m2 in steps of 500, is j1=1000 j2=1000 j=1750 m2=0 r=2000
# direction=up: 2.6 s in process, 3.2 s as a command (2-vCPU Xeon VM).
FIGURE_J_GUARD = 1000
FIGURE_DELTA_MAX_GUARD = 100

# The costs of the options multiply, so a grid's estimated work
# (_figure_work) is bounded too.  A cell costs 2^12 + b^2 / 2^11 units,
# b the bit length of its operands: J log2(J), J = j1 + j2 + j + 1, for an
# SU(2) window term and (r + Delta + 1) log2(p + q) + (r + 1) log2(p) for an
# oscillator cell at mu/nu = p/q, whose numerator carries the powers of p.
# An oscillator unit takes 1.6-3.0 ns on the same VM (figure_values alone)
# at --delta-max 10, where figure 3 --r-max 2000 --mu 1 --nu 99 needs 9.0e8
# (1.5 s), and at --mu 99 --nu 1 the same grid needs 3.0e9 and is refused;
# --r-max 1000 --mu 99 --nu 1 needs 4.6e8 (1.2 s).  At --delta-max 100 a
# cell sums up to 101 binomial tail terms and a unit takes 3.8-4.8 ns, so
# the budget is about 4-5 s there: --r-max 1017, at the budget, takes
# 4.2-4.8 s and --r-max 510 --mu 99 --nu 1 3.8-4.1 s.  The SU(2) b is that
# of the factorials J!; the binomial Racah kernel's operands are far
# smaller, so an SU(2) unit takes only 0.03-0.7 ns, and figure 1 --j1 1000
# --j2 1000 --j-min 1995 --j-max 2000 --r-max 400, refused at 2.7e9,
# computes in 0.3 s.
FIGURE_WORK_GUARD = 10**9

# the option values of every figure, and of each; figure 3 draws no j columns
_SHARED_DEFAULTS = {"j1": "100", "j2": "100", "mu": "50", "nu": "50", "delta_max": "10"}
_FIGURE_DEFAULTS = {
    1: {"j_min": "190", "j_max": "200", "r_max": "40"},
    2: {"j_min": "0", "j_max": "30", "r_max": "30"},
    3: {"j_min": "190", "j_max": "200", "r_max": "40"},
}


def figure_spec(figure_id: int, overrides: dict[str, str | None]) -> FigureSpec:
    # an override that is not None replaces the default, so an empty
    # value is parsed and refused rather than read as absent
    opts = {**_SHARED_DEFAULTS, **_FIGURE_DEFAULTS[figure_id]}
    opts.update((key, value) for key, value in overrides.items() if value is not None)
    spec = FigureSpec(
        figure_id=figure_id,
        j1=_twoj_bounded(opts["j1"], "j1"),
        j2=_twoj_bounded(opts["j2"], "j2"),
        tj_min=_twoj_coupled(opts["j_min"], "j-min").doubled,
        tj_max=_twoj_coupled(opts["j_max"], "j-max").doubled,
        r_max=_int(opts["r_max"], "r-max", FIGURE_R_MAX_GUARD),
        mu=_mode_weight(opts["mu"], "mu"),
        nu=_mode_weight(opts["nu"], "nu"),
        delta_max=_int(opts["delta_max"], "delta-max"),
    )
    _validate_spec(spec)
    return spec


def _validate_spec(spec: FigureSpec) -> None:
    # the parsers refused negative j1, j2, nonpositive mu, nu and
    # r-max over its limit
    if spec.r_max < 0:
        raise ValueError(f"need r-max >= 0, got {_number(spec.r_max)}")
    tj1, tj2 = spec.j1.doubled, spec.j2.doubled
    if spec.figure_id in (1, 2):
        if spec.tj_min > spec.tj_max:
            raise ValueError("need j-min <= j-max")
        for label, tj in (("j-min", spec.tj_min), ("j-max", spec.tj_max)):
            if (tj1 + tj2 + tj) % 2:
                raise ValueError(f"j1+j2+j = {tj1 + tj2 + tj}/2 is not an integer at {label}")
            if not abs(tj1 - tj2) <= tj <= tj1 + tj2:
                raise ValueError(
                    f"j = {TwoJ(tj)} outside the triangle range "
                    f"[{TwoJ(abs(tj1 - tj2))}, {TwoJ(tj1 + tj2)}]"
                )
    else:
        if spec.delta_max < 0:
            raise ValueError(f"need delta-max >= 0, got {_number(spec.delta_max)}")
        if spec.delta_max > FIGURE_DELTA_MAX_GUARD:
            raise ValueError(f"need delta-max <= {FIGURE_DELTA_MAX_GUARD}, got {_number(spec.delta_max)}")
        if tj1 + tj2 - 2 * spec.delta_max < abs(tj1 - tj2):
            raise ValueError(
                f"overlay needs j1+j2-Delta >= |j1-j2|: Delta = {spec.delta_max} is too large"
            )
    work = _figure_work(spec)
    if work > FIGURE_WORK_GUARD:
        raise ValueError(
            f"the grid needs about {work:.1e} units of work, over the budget of "
            f"{FIGURE_WORK_GUARD:.0e}: lower --r-max, the number of columns or j1, j2"
        )


def _columns(spec: FigureSpec) -> list[tuple[str, int, str | None]]:
    """(header, parameter, direction) of every curve, in CSV order: an SU(2)
    window at m2 = j2 has the doubled j and its direction, an oscillator
    column its offset Delta and None.  Figure 3 pairs Delta=i with the down
    window at j = j1 + j2 - i."""
    if spec.figure_id in (1, 2):
        direction = "down" if spec.figure_id == 1 else "up"
        return [(f"j={TwoJ(tj)}", tj, direction) for tj in range(spec.tj_min, spec.tj_max + 1, 2)]
    offsets = range(spec.delta_max + 1)
    top = spec.j1.doubled + spec.j2.doubled
    return [(f"Delta={D}", D, None) for D in offsets] + [
        (f"su2_j={TwoJ(top - 2 * D)}", top - 2 * D, "down") for D in offsets
    ]


def _figure_work(spec: FigureSpec) -> int:
    """Estimated work of a valid grid, in the units of FIGURE_WORK_GUARD."""
    tj1, tj2, rows = spec.j1.doubled, spec.j2.doubled, spec.r_max + 1
    work = 0
    for _, param, direction in _columns(spec):
        if direction is None:
            ratio = spec.mu / spec.nu
            bits = (ratio.numerator + ratio.denominator).bit_length()
            p_bits = (ratio.numerator - 1).bit_length()
            work += sum(
                (1 << 12) + (((r + param + 1) * bits + (r + 1) * p_bits) ** 2 >> 11) for r in range(rows)
            )
        else:
            # at m2 = j2, window term i is in the block when |base - 2i| <= j,
            # base = j1 + j2 down and j1 - j2 up
            base = tj1 - tj2 if direction == "up" else tj1 + tj2
            terms = max(0, min(spec.r_max, tj1, (base + param) // 2) - max(0, (base - param) // 2) + 1)
            size = (tj1 + tj2 + param) // 2 + 1
            work += (rows << 12) + terms * ((size * size.bit_length()) ** 2 >> 11)
    return work


def figure_values(spec: FigureSpec) -> tuple[list[str], list[list[Fraction]]]:
    """Column headers and per-curve exact 1-delta columns for the grid."""
    if spec.figure_id == 3:
        from .heisenberg import HeisenbergTriple, delta_number_space
    header = ["r"]
    curves: list[list[Fraction]] = []
    rs = range(spec.r_max + 1)
    for head, param, direction in _columns(spec):
        header.append(head)
        if direction is None:
            reports = (delta_number_space(HeisenbergTriple(spec.mu, spec.nu, param, r)) for r in rs)
        else:
            reports = (delta_su2(spec.j1, spec.j2, TwoJ(param), spec.j2, r, direction) for r in rs)
        curves.append([1 - rep.delta for rep in reports])
    return header, curves


def render_csv(header: list[str], curves: list[list[Fraction]], r_max: int) -> str:
    # cells never contain commas or quotes, so plain joins are RFC-4180 safe
    lines = [",".join(header)]
    for i, r in enumerate(range(r_max + 1)):
        lines.append(",".join([str(r)] + [render_decimal(col[i]) for col in curves]))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# entry point


class _Parser(argparse.ArgumentParser):
    """argparse's parser, the subparsers' too, whose errors cut each argv
    token (kept longest first) of more than 40 characters as _typed does,
    and show one with a line break by its repr: argparse echoes an unknown
    command, an unrecognized argument or an ambiguous option whole."""

    def parse_known_args(self, args=None, namespace=None):
        self._tokens = sorted(sys.argv[1:] if args is None else args, key=len, reverse=True)
        return super().parse_known_args(args, namespace)

    def error(self, message: str):
        for tok in self._tokens:
            shown = tok if "".join(tok.splitlines()) == tok else repr(tok)
            if shown != tok or len(tok) > 40:
                message = message.replace(repr(tok), _typed(repr(tok))).replace(tok, _typed(shown))
        super().error(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="definetti",
        description="Closed-form overlap functionals, their verification suites, and figure data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="evaluate one closed form from key=value parameters")
    compute_names = sorted(COMPUTE_FNS)
    p_compute.add_argument("subcommand", type=_choice(*compute_names), choices=compute_names)
    p_compute.add_argument("params", nargs="*", metavar="key=value")

    p_figure = sub.add_parser("figure", help="emit the CSV grid behind one of the three figures")
    p_figure.add_argument("figure_id", type=_figure_id, metavar="{1,2,3}")
    p_figure.add_argument("--out", help="write CSV here instead of stdout")
    p_figure.add_argument("--j1", help="left angular momentum (default 100)")
    p_figure.add_argument("--j2", help="right angular momentum (default 100)")
    p_figure.add_argument("--j-min", help="smallest coupled j column (figures 1-2)")
    p_figure.add_argument("--j-max", help="largest coupled j column (figures 1-2)")
    p_figure.add_argument("--r-max", help="largest window radius row")
    p_figure.add_argument("--mu", help="first mode weight (figure 3, default 50)")
    p_figure.add_argument("--nu", help="second mode weight (figure 3, default 50)")
    p_figure.add_argument("--delta-max", help="largest embedding offset (figure 3, default 10)")

    p_verify = sub.add_parser("verify", help="run oracle and property suites")
    suites = ("weights", "cg", "symmetric", "heisenberg", "mc", "all")
    p_verify.add_argument("suite", type=_choice(*suites), choices=suites)
    p_verify.add_argument("--seed", type=_option_int, default=0, help="RNG seed (default 0)")
    return parser


def cmd_compute(args) -> int:
    try:
        result = COMPUTE_FNS[args.subcommand](args.params)
    except (ValueError, TypeError) as exc:
        print(f"definetti compute {args.subcommand}: {exc}", file=sys.stderr)
        return 2
    if isinstance(result, Fraction) and not _printable_in_full(result):
        # render_decimal divides as Decimals and never converts to str
        print(
            f"definetti compute {args.subcommand}: the exact fraction has more than "
            f"{sys.get_int_max_str_digits()} digits; printing its 12-digit decimal only",
            file=sys.stderr,
        )
        result = render_decimal(result)
    print(result if isinstance(result, str) else render_scalar(result))
    return 0


def cmd_figure(args) -> int:
    overrides = {
        key: getattr(args, key)
        for key in ("j1", "j2", "j_min", "j_max", "r_max", "mu", "nu", "delta_max")
    }
    try:
        spec = figure_spec(args.figure_id, overrides)
    except (ValueError, TypeError) as exc:
        print(f"definetti figure {args.figure_id}: {exc}", file=sys.stderr)
        return 2
    header, curves = figure_values(spec)
    text = render_csv(header, curves, spec.r_max)
    if args.out:
        try:
            with open(args.out, "w", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"definetti figure {args.figure_id}: cannot write {args.out}: {exc}", file=sys.stderr)
            return 1
        print(f"wrote {args.out}: {len(curves)} curves, r = 0..{spec.r_max}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def cmd_verify(args) -> int:
    from . import verify as verify_suites

    names = list(verify_suites.SUITES) if args.suite == "all" else [args.suite]
    if args.seed < 0:
        print(f"definetti verify: --seed must be nonnegative, got {_number(args.seed)}", file=sys.stderr)
        return 2
    results = verify_suites.run_suites(names, seed=args.seed)
    failed = 0
    total = 0
    for suite, checks in results:
        for c in checks:
            total += 1
            failed += not c.passed
            line = f"[{'PASS' if c.passed else 'FAIL'}] {suite}: {c.name} ({c.seconds:.2f}s)"
            print(f"{line} {c.detail}" if c.detail else line)
    print(f"{total - failed}/{total} checks passed")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles its own usage output
        return exc.code if isinstance(exc.code, int) else 2
    if args.command == "compute":
        return cmd_compute(args)
    if args.command == "figure":
        return cmd_figure(args)
    return cmd_verify(args)


if __name__ == "__main__":
    sys.exit(main())
