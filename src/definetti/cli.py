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
from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Context, Decimal
from fractions import Fraction

from .heisenberg import (
    HeisenbergTriple,
    coherent_bound,
    delta_number_space,
    epsilon_heisenberg,
)
from .su2_cg import TwoJ, as_twoj, delta_su2
from .symmetric import SymTriple, bound_exponential, closed_form_sum, epsilon
from .weights import Weight, exact_radius

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


def _weight(s: str, key: str) -> Weight:
    try:
        return Weight(tuple(int(x) for x in s.split(",")))
    except ValueError:
        raise ValueError(f"{key} must be a comma-separated integer tuple, got {s!r}") from None


def _compute_su2_delta(tokens: list[str]):
    p = _parse_params(tokens, ("j1", "j2", "j", "m2", "r"), ("direction",))
    rep = delta_su2(
        as_twoj(p["j1"]),
        as_twoj(p["j2"]),
        as_twoj(p["j"]),
        as_twoj(p["m2"]),
        _int(p["r"], "r"),
        p.get("direction", "down"),
    )
    return rep.delta


def _compute_sym_epsilon(tokens: list[str]):
    p = _parse_params(tokens, ("n", "k", "r", "d"))
    return epsilon(SymTriple(**{k: _int(v, k) for k, v in p.items()}))


def _compute_sym_bound(tokens: list[str]):
    p = _parse_params(tokens, ("n", "k", "r", "d"))
    pair = bound_exponential(SymTriple(**{k: _int(v, k) for k, v in p.items()}))
    return f"intermediate = {render_decimal(pair.intermediate)}\nheadline = {render_decimal(pair.headline)}"


def _heis_triple(tokens: list[str]) -> HeisenbergTriple:
    p = _parse_params(tokens, ("mu", "nu", "Delta", "r"))
    return HeisenbergTriple(
        mu=_fraction(p["mu"], "mu"),
        nu=_fraction(p["nu"], "nu"),
        Delta=_int(p["Delta"], "Delta"),
        r=_int(p["r"], "r"),
    )


def _compute_heis_delta(tokens: list[str]):
    return delta_number_space(_heis_triple(tokens)).delta


def _compute_heis_epsilon(tokens: list[str]):
    return epsilon_heisenberg(_heis_triple(tokens))


def _compute_coherent_bound(tokens: list[str]):
    p = _parse_params(tokens, ("n", "k", "r"))
    return coherent_bound(_int(p["n"], "n"), _int(p["k"], "k"), _int(p["r"], "r"))


def _compute_exact_radius(tokens: list[str]):
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


@dataclass(frozen=True)
class FigureSpec:
    """Resolved parameters of one figure grid."""

    figure_id: int
    j1: TwoJ
    j2: TwoJ
    tj_min: int
    tj_max: int
    r_max: int
    mu: Fraction
    nu: Fraction
    delta_max: int


_FIGURE_DEFAULTS = {
    # (j_min, j_max, r_max) in doubled units for the coupled j columns
    1: {"tj_min": 380, "tj_max": 400, "r_max": 40},
    2: {"tj_min": 0, "tj_max": 60, "r_max": 30},
    3: {"tj_min": 380, "tj_max": 400, "r_max": 40},
}


def figure_spec(figure_id: int, overrides: dict[str, str | None]) -> FigureSpec:
    base = _FIGURE_DEFAULTS[figure_id]
    j1 = as_twoj(overrides.get("j1") or "100")
    j2 = as_twoj(overrides.get("j2") or "100")
    tj_min = as_twoj(overrides["j_min"]).doubled if overrides.get("j_min") else base["tj_min"]
    tj_max = as_twoj(overrides["j_max"]).doubled if overrides.get("j_max") else base["tj_max"]
    r_max = _int(overrides["r_max"], "r-max") if overrides.get("r_max") else base["r_max"]
    mu = _fraction(overrides.get("mu") or "50", "mu")
    nu = _fraction(overrides.get("nu") or "50", "nu")
    delta_max = _int(overrides["delta_max"], "delta-max") if overrides.get("delta_max") else 10
    spec = FigureSpec(
        figure_id=figure_id,
        j1=j1,
        j2=j2,
        tj_min=tj_min,
        tj_max=tj_max,
        r_max=r_max,
        mu=mu,
        nu=nu,
        delta_max=delta_max,
    )
    _validate_spec(spec)
    return spec


def _validate_spec(spec: FigureSpec) -> None:
    for label, j in (("j1", spec.j1), ("j2", spec.j2)):
        if j.doubled < 0:
            raise ValueError(f"{label} = {j} is negative")
    if spec.r_max < 0:
        raise ValueError(f"need r-max >= 0, got {spec.r_max}")
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
        if not (spec.mu > 0 and spec.nu > 0):
            raise ValueError(f"mode weights must be positive, got mu={spec.mu}, nu={spec.nu}")
        if tj1 + tj2 - 2 * spec.delta_max < abs(tj1 - tj2):
            raise ValueError(
                f"overlay needs j1+j2-Delta >= |j1-j2|: Delta = {spec.delta_max} is too large"
            )


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
