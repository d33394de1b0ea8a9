"""Command-line front end.

Three commands: `compute` evaluates any closed form from key=value
parameters, `figure` emits the CSV data behind the three overlap
figures, and `verify` runs the oracle/property suites.  Exit codes:
0 success, 1 verification or IO failure, 2 usage error.  Diagnostics go
to stderr; data goes to stdout or --out.
"""

from __future__ import annotations

import argparse
import math
import sys
from collections import namedtuple
from decimal import ROUND_HALF_EVEN, Context, Decimal
from fractions import Fraction

# heisenberg, symmetric and weights are imported where they are used, so
# a process that computes a coupling-window figure never loads them
from .su2_cg import TwoJ, as_twoj, delta_su2

_TWELVE_SIG = Context(prec=12, rounding=ROUND_HALF_EVEN)


def render_decimal(x) -> str:
    """12 significant digits, round-half-even, exact trailing zeros dropped."""
    if isinstance(x, Fraction):
        d = _TWELVE_SIG.divide(Decimal(x.numerator), Decimal(x.denominator))
    else:
        d = _TWELVE_SIG.plus(Decimal(float(x)))
    return str(d)


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


def _parse_params(tokens: list[str], required: tuple[str, ...], optional: tuple[str, ...] = ()):
    params: dict[str, str] = {}
    for tok in tokens:
        key, sep, value = tok.partition("=")
        if not sep or not key or not value:
            raise ValueError(f"expected key=value, got {tok!r}")
        if key not in required and key not in optional:
            raise ValueError(f"unknown parameter {key!r} (expected {', '.join(required + optional)})")
        if key in params:
            raise ValueError(f"duplicate parameter {key!r}")
        params[key] = value
    missing = [k for k in required if k not in params]
    if missing:
        raise ValueError(f"missing parameter(s): {', '.join(missing)}")
    return params


def _int(s: str, key: str) -> int:
    try:
        return int(s)
    except ValueError:
        raise ValueError(f"{key} must be an integer, got {s!r}") from None


def _fraction(s: str, key: str) -> Fraction:
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{key} must be a rational number, got {s!r}") from None


def _twoj(s: str, key: str) -> TwoJ:
    try:
        Fraction(s)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{key} must be a half-integer, got {s!r}") from None
    # a rational that is not a half-integer is named as typed by as_twoj
    return as_twoj(s)


def _weight(s: str, key: str):
    from .weights import Weight

    try:
        return Weight(tuple(int(x) for x in s.split(",")))
    except ValueError:
        raise ValueError(f"{key} must be a comma-separated integer tuple, got {s!r}") from None


def _compute_su2_delta(tokens: list[str]):
    p = _parse_params(tokens, ("j1", "j2", "j", "m2", "r"), ("direction",))
    rep = delta_su2(
        _twoj(p["j1"], "j1"),
        _twoj(p["j2"], "j2"),
        _twoj(p["j"], "j"),
        _twoj(p["m2"], "m2"),
        _int(p["r"], "r"),
        p.get("direction", "down"),
    )
    return rep.delta


def _compute_sym_epsilon(tokens: list[str]):
    from .symmetric import SymTriple, epsilon

    p = _parse_params(tokens, ("n", "k", "r", "d"))
    return epsilon(SymTriple(**{k: _int(v, k) for k, v in p.items()}))


def _compute_sym_bound(tokens: list[str]):
    from .symmetric import SymTriple, bound_exponential

    p = _parse_params(tokens, ("n", "k", "r", "d"))
    pair = bound_exponential(SymTriple(**{k: _int(v, k) for k, v in p.items()}))
    return f"intermediate = {render_decimal(pair.intermediate)}\nheadline = {render_decimal(pair.headline)}"


def _heis_triple(tokens: list[str]):
    from .heisenberg import HeisenbergTriple

    p = _parse_params(tokens, ("mu", "nu", "Delta", "r"))
    return HeisenbergTriple(
        mu=_fraction(p["mu"], "mu"),
        nu=_fraction(p["nu"], "nu"),
        Delta=_int(p["Delta"], "Delta"),
        r=_int(p["r"], "r"),
    )


def _compute_heis_delta(tokens: list[str]):
    from .heisenberg import delta_number_space

    return delta_number_space(_heis_triple(tokens)).delta


def _compute_heis_epsilon(tokens: list[str]):
    from .heisenberg import epsilon_heisenberg

    return epsilon_heisenberg(_heis_triple(tokens))


def _compute_coherent_bound(tokens: list[str]):
    from .heisenberg import coherent_bound

    p = _parse_params(tokens, ("n", "k", "r"))
    return coherent_bound(_int(p["n"], "n"), _int(p["k"], "k"), _int(p["r"], "r"))


def _compute_exact_radius(tokens: list[str]):
    from .weights import Weight, exact_radius

    # either explicit weights, or the two-level shortcut d=2 n=.. k=.. l=..
    if any(tok.startswith(("lambda=", "mu=", "nu=")) for tok in tokens):
        p = _parse_params(tokens, ("lambda", "mu", "nu"))
        return exact_radius(_weight(p["lambda"], "lambda"), _weight(p["mu"], "mu"), _weight(p["nu"], "nu"))
    p = _parse_params(tokens, ("d", "n", "k", "l"))
    d, n, k, ell = (_int(p[key], key) for key in ("d", "n", "k", "l"))
    if d != 2:
        raise ValueError(f"the n/k/l shortcut is two-level only (d=2), got d={d}")
    if not 0 <= ell <= min(k, n - k):
        raise ValueError(f"need 0 <= l <= min(k, n-k), got l={ell}")
    return exact_radius(Weight((n - ell, ell)), Weight((k, 0)), Weight((n - k, 0)))


def _compute_closed_form_sum(tokens: list[str]):
    from .symmetric import closed_form_sum

    p = _parse_params(tokens, ("n", "k", "r"))
    return closed_form_sum(_int(p["n"], "n"), _int(p["k"], "k"), _int(p["r"], "r"))


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


FigureSpec = namedtuple(
    "FigureSpec", ("figure_id", "j1", "j2", "tj_min", "tj_max", "r_max", "mu", "nu", "delta_max")
)
FigureSpec.__doc__ = """Resolved parameters of one figure grid: the figure id, j1 and j2
as TwoJ, the coupled j columns tj_min..tj_max in doubled units, the
largest radius r_max, and figure 3's mode weights mu, nu (Fractions) and
largest offset delta_max."""


# Upper limits of the figure options.  Measured alone on a 2-vCPU Xeon VM,
# the others at their defaults: figure 3 --r-max 2000 takes 1.0 s (4.2 s
# at --mu 1 --nu 99; its exact oscillator columns grow quadratically);
# figure 1 --j1 1000 --j2 1000 --j-min 1990 --j-max 2000 takes 0.13 s;
# figure 3 --delta-max 100 takes 0.25 s.
FIGURE_R_MAX_GUARD = 2000
FIGURE_J_GUARD = 1000  # for --j1 and --j2: the angular momentum, not its double
FIGURE_DELTA_MAX_GUARD = 100

# The costs of the options multiply, so a grid's estimated work
# (_figure_work) is bounded too.  A cell costs 2^12 + b^2 / 2^11 units,
# b the bit length of its operands: J log2(J), J = j1 + j2 + j + 1, for an
# SU(2) window term and (r + Delta + 1) log2(p + q) for an oscillator cell
# at mu/nu = p/q.  An oscillator unit takes 1.7-2.9 ns on the same VM
# (figure_values alone), so the budget is about 3 s: figure 3 --r-max 2000
# --mu 1 --nu 99 needs 9.0e8 (1.5 s).  The SU(2) b is that of the factorials
# J!; the binomial Racah kernel's operands are far smaller, so an SU(2) unit
# takes only 0.03-0.7 ns, and figure 1 --j1 1000 --j2 1000 --j-min 1995
# --j-max 2000 --r-max 400, refused at 2.7e9, computes in 0.3 s.
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
        j1=_twoj(opts["j1"], "j1"),
        j2=_twoj(opts["j2"], "j2"),
        tj_min=_twoj(opts["j_min"], "j-min").doubled,
        tj_max=_twoj(opts["j_max"], "j-max").doubled,
        r_max=_int(opts["r_max"], "r-max"),
        mu=_fraction(opts["mu"], "mu"),
        nu=_fraction(opts["nu"], "nu"),
        delta_max=_int(opts["delta_max"], "delta-max"),
    )
    _validate_spec(spec)
    return spec


def _validate_spec(spec: FigureSpec) -> None:
    for label, j in (("j1", spec.j1), ("j2", spec.j2)):
        if j.doubled < 0:
            raise ValueError(f"{label} = {j} is negative")
        if j.doubled > 2 * FIGURE_J_GUARD:
            raise ValueError(f"need {label} <= {FIGURE_J_GUARD}, got {j}")
    if spec.r_max < 0:
        raise ValueError(f"need r-max >= 0, got {spec.r_max}")
    if spec.r_max > FIGURE_R_MAX_GUARD:
        raise ValueError(f"need r-max <= {FIGURE_R_MAX_GUARD}, got {spec.r_max}")
    tj1, tj2 = spec.j1.doubled, spec.j2.doubled
    if spec.figure_id in (1, 2):
        if spec.tj_min > spec.tj_max:
            raise ValueError("need j-min <= j-max")
        if (tj1 + tj2 + spec.tj_min) % 2:
            raise ValueError(
                f"j1+j2+j = {(tj1 + tj2 + spec.tj_min)}/2 is not an integer at j-min"
            )
        for tj in (spec.tj_min, spec.tj_max):
            if not abs(tj1 - tj2) <= tj <= tj1 + tj2:
                raise ValueError(
                    f"j = {TwoJ(tj)} outside the triangle range "
                    f"[{TwoJ(abs(tj1 - tj2))}, {TwoJ(tj1 + tj2)}]"
                )
    else:
        if spec.delta_max < 0:
            raise ValueError(f"need delta-max >= 0, got {spec.delta_max}")
        if spec.delta_max > FIGURE_DELTA_MAX_GUARD:
            raise ValueError(f"need delta-max <= {FIGURE_DELTA_MAX_GUARD}, got {spec.delta_max}")
        if not (spec.mu > 0 and spec.nu > 0):
            raise ValueError(f"mode weights must be positive, got mu={spec.mu}, nu={spec.nu}")
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


def _figure_work(spec: FigureSpec) -> int:
    """Estimated work of a valid grid, in the units of FIGURE_WORK_GUARD."""
    tj1, tj2, rows = spec.j1.doubled, spec.j2.doubled, spec.r_max + 1
    su2_tjs = range(spec.tj_min, spec.tj_max + 1, 2)
    work = 0
    if spec.figure_id == 3:
        ratio = spec.mu / spec.nu
        bits = (ratio.numerator + ratio.denominator).bit_length()
        for D in range(spec.delta_max + 1):
            work += sum((1 << 12) + (((r + D + 1) * bits) ** 2 >> 11) for r in range(rows))
        su2_tjs = [tj1 + tj2 - 2 * D for D in range(spec.delta_max + 1)]  # the overlay
    # at m2 = j2, window term i is in the block when |base - 2i| <= j,
    # base = j1 + j2 down (figures 1 and 3) and j1 - j2 up (figure 2)
    base = tj1 - tj2 if spec.figure_id == 2 else tj1 + tj2
    for tj in su2_tjs:
        terms = max(0, min(spec.r_max, tj1, (base + tj) // 2) - max(0, (base - tj) // 2) + 1)
        size = (tj1 + tj2 + tj) // 2 + 1
        work += (rows << 12) + terms * ((size * size.bit_length()) ** 2 >> 11)
    return work


def figure_values(spec: FigureSpec) -> tuple[list[str], list[list[Fraction]]]:
    """Column headers and per-curve exact 1-delta columns for the grid."""
    header = ["r"]
    curves: list[list[Fraction]] = []
    rs = range(spec.r_max + 1)
    if spec.figure_id in (1, 2):
        direction = "down" if spec.figure_id == 1 else "up"
        for tj in range(spec.tj_min, spec.tj_max + 1, 2):
            header.append(f"j={TwoJ(tj)}")
            curves.append(
                [1 - delta_su2(spec.j1, spec.j2, TwoJ(tj), spec.j2, r, direction).delta for r in rs]
            )
        return header, curves
    from .heisenberg import HeisenbergTriple, delta_number_space

    for D in range(spec.delta_max + 1):
        header.append(f"Delta={D}")
        curves.append(
            [1 - delta_number_space(HeisenbergTriple(spec.mu, spec.nu, D, r)).delta for r in rs]
        )
    # overlay curves, paired so Delta=i sits next to j=j1+j2-i
    for D in range(spec.delta_max + 1):
        tj = spec.j1.doubled + spec.j2.doubled - 2 * D
        header.append(f"su2_j={TwoJ(tj)}")
        curves.append(
            [1 - delta_su2(spec.j1, spec.j2, TwoJ(tj), spec.j2, r, "down").delta for r in rs]
        )
    return header, curves


def render_csv(header: list[str], curves: list[list[Fraction]], r_max: int) -> str:
    # cells never contain commas or quotes, so plain joins are RFC-4180 safe
    lines = [",".join(header)]
    for i, r in enumerate(range(r_max + 1)):
        lines.append(",".join([str(r)] + [render_decimal(col[i]) for col in curves]))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="definetti",
        description="Closed-form overlap functionals, their verification suites, and figure data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="evaluate one closed form from key=value parameters")
    p_compute.add_argument("subcommand", choices=sorted(COMPUTE_FNS))
    p_compute.add_argument("params", nargs="*", metavar="key=value")

    p_figure = sub.add_parser("figure", help="emit the CSV grid behind one of the three figures")
    p_figure.add_argument("figure_id", type=int, choices=(1, 2, 3), metavar="{1,2,3}")
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
    p_verify.add_argument("suite", choices=("weights", "cg", "symmetric", "heisenberg", "mc", "all"))
    p_verify.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p_verify.add_argument(
        "--tol", type=float, default=1e-10, help="oracle tolerance, finite and positive (default 1e-10)"
    )
    p_verify.add_argument(
        "--samples", type=int, default=10**4, help="Monte Carlo sample count, 10^3 to 10^7 (default 10^4)"
    )
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
    from .oracle import MC_SAMPLES_GUARD

    names = list(verify_suites.SUITES) if args.suite == "all" else [args.suite]
    if args.samples < 10**3:
        print("definetti verify: --samples must be at least 10^3", file=sys.stderr)
        return 2
    if args.samples > MC_SAMPLES_GUARD:
        print(
            f"definetti verify: --samples must be at most {MC_SAMPLES_GUARD}, got {args.samples}",
            file=sys.stderr,
        )
        return 2
    if args.seed < 0:
        print(f"definetti verify: --seed must be nonnegative, got {args.seed}", file=sys.stderr)
        return 2
    if not (math.isfinite(args.tol) and args.tol > 0):
        print(f"definetti verify: --tol must be finite and positive, got {args.tol!r}", file=sys.stderr)
        return 2
    results = verify_suites.run_suites(names, seed=args.seed, tol=args.tol, n_samples=args.samples)
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
