"""Command-line surface: compute output format, CSV figures, verify wiring."""

import copy
import inspect
import json
import pickle
import random
import re
import struct
import time
from decimal import ROUND_HALF_EVEN, Context, Decimal
from fractions import Fraction
from math import comb, isfinite
from pathlib import Path

import pytest

from definetti import cli, heisenberg, oracle, su2_cg, symmetric, verify, weights
from definetti.cli import FigureSpec, figure_spec, figure_values, main
from definetti.su2_cg import TwoJ
from test_oracle import _in_child


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_examples(capsys):
    code, out, _ = run(capsys, "compute", "sym-epsilon", "n=4", "k=2", "r=0", "d=2")
    assert (code, out) == (0, "4/5 = 0.8\n")
    code, out, _ = run(capsys, "compute", "coherent-bound", "n=100", "k=10", "r=0")
    assert (code, out) == (0, "1/5 = 0.2\n")
    code, out, _ = run(capsys, "compute", "exact-radius", "d=2", "n=12", "k=5", "l=2")
    assert (code, out) == (0, "3\n")


def test_compute_su2_delta(capsys):
    code, out, _ = run(capsys, "compute", "su2-delta", "j1=1/2", "j2=1/2", "j=1", "m2=1/2", "r=0")
    assert (code, out) == (0, "2/3 = 0.666666666667\n")
    code, out, _ = run(
        capsys, "compute", "su2-delta", "j1=1/2", "j2=1/2", "j=1", "m2=-1/2", "r=0", "direction=up"
    )
    assert (code, out) == (0, "2/3 = 0.666666666667\n")


def test_compute_remaining_subcommands(capsys):
    code, out, _ = run(capsys, "compute", "closed-form-sum", "n=4", "k=2", "r=0")
    assert (code, out) == (0, "2/3 = 0.666666666667\n")
    code, out, _ = run(capsys, "compute", "heis-delta", "mu=1", "nu=1", "Delta=0", "r=0")
    assert (code, out) == (0, "1/2 = 0.5\n")
    code, out, _ = run(capsys, "compute", "heis-epsilon", "mu=50", "nu=50", "Delta=0", "r=3")
    assert (code, out) == (0, "1/2 = 0.5\n")
    code, out, _ = run(capsys, "compute", "heis-epsilon", "mu=1", "nu=1", "Delta=0", "r=2")
    assert (code, out) == (0, "0.707106781187\n")
    code, out, _ = run(capsys, "compute", "exact-radius", "lambda=10,2", "mu=5,0", "nu=7,0")
    assert (code, out) == (0, "3\n")
    code, out, _ = run(capsys, "compute", "sym-bound", "n=60", "k=20", "r=4", "d=3")
    assert code == 0
    assert out == "intermediate = 0.167154449115\nheadline = 1345.21634659\n"


def test_compute_prints_decimal_past_the_int_digit_limit(capsys):
    # 1 - delta = (1/10)^5001: the exact denominator has 5,001 digits, past
    # the interpreter's default int-to-str limit of 4,300
    code, out, err = run(capsys, "compute", "heis-delta", "mu=1", "nu=9", "Delta=0", "r=5000")
    assert (code, out) == (0, "1.00000000000\n")
    assert len(err.splitlines()) == 1 and "decimal" in err
    # delta = 2^-15001, a 4,516-digit denominator
    code, out, err = run(capsys, "compute", "heis-delta", "mu=1", "nu=1", "Delta=15000", "r=15000")
    want = Context(prec=12).divide(Decimal(1), Decimal(2**15001))
    assert (code, out) == (0, f"{want}\n")
    assert out.startswith("1.") and out.endswith("E-4516\n")
    assert len(err.splitlines()) == 1
    # below the limit the exact fraction is printed in full, with no note
    code, out, err = run(capsys, "compute", "heis-delta", "mu=1", "nu=9", "Delta=0", "r=50")
    assert (code, err) == (0, "") and out.startswith("9" * 51 + "/1" + "0" * 51 + " = ")


def test_compute_heis_epsilon_prints_positive_past_float_underflow(capsys):
    # the bound is 2 * 2^-537.5; the power 2^-1075 under the root is no float
    code, out, _ = run(capsys, "compute", "heis-epsilon", "mu=1", "nu=1", "Delta=0", "r=1074")
    assert code == 0
    assert Decimal(out) > 0 and out.endswith("E-162\n")


def test_compute_cost_limits(capsys):
    n_max, d_max = cli.COMPUTE_N_GUARD, cli.COMPUTE_D_GUARD
    for argv, message in (
        (["sym-epsilon", f"n={n_max + 1}", "k=1", "r=0", "d=2"], f"need n <= {n_max}, got {n_max + 1}"),
        (["sym-epsilon", "n=4", "k=2", "r=0", f"d={d_max + 1}"], f"need d <= {d_max}, got {d_max + 1}"),
        (["closed-form-sum", f"n={n_max + 1}", "k=1", "r=0"], f"need n <= {n_max}, got {n_max + 1}"),
    ):
        code, out, err = run(capsys, "compute", *argv)
        assert code == 2 and out == "" and err.count("\n") == 1, argv
        assert err.endswith(f": {message}\n"), err
    # at the limits; at r = 0, epsilon is 2(1 - dim S(n-k) / dim S(n))
    for argv, value in (
        (["sym-epsilon", f"n={n_max}", "k=1", "r=0", "d=2"], Fraction(2, n_max + 1)),
        (["sym-epsilon", "n=4", "k=2", "r=0", f"d={d_max}"],
         2 * (1 - Fraction(comb(d_max + 1, 2), comb(d_max + 3, 4)))),
        (["closed-form-sum", f"n={n_max}", "k=1", "r=0"], Fraction(1, n_max)),
    ):
        code, out, err = run(capsys, "compute", *argv)
        assert (code, out, err) == (0, cli.render_scalar(value) + "\n", ""), argv


def test_compute_sym_bound_past_the_float_range(capsys, monkeypatch):
    code, out, err = run(capsys, "compute", "sym-bound", "n=1000", "k=500", "r=0", "d=116")
    assert (code, out, err) == (0, "intermediate = 4.29405046887E+109\nheadline = 1.24222066531E+238\n", "")
    # (n-k)^(d-2) = 500^115 used to end in an OverflowError traceback, exit 1
    code, out, err = run(capsys, "compute", "sym-bound", "n=1000", "k=500", "r=0", "d=117")
    assert (code, out) == (2, "") and err.count("\n") == 1
    assert err.endswith(": the bounds leave the float range at n=1000, k=500, d=117, r=0\n"), err
    # and below it: these printed intermediate = 0 and headline = 0, exit 0
    for n, k, r, d in ((100000, 50000, 2000, 2), (20862, 697, 257, 4)):
        code, out, err = run(capsys, "compute", "sym-bound", f"n={n}", f"k={k}", f"r={r}", f"d={d}")
        assert (code, out) == (2, "") and err.count("\n") == 1
        assert err.endswith(f": the bounds leave the float range at n={n}, k={k}, d={d}, r={r}\n"), err

    def fail(t):
        raise AssertionError("the bounds were computed")

    monkeypatch.setattr(symmetric, "bound_exponential", fail)
    d_over = cli.COMPUTE_D_GUARD + 1
    code, out, err = run(capsys, "compute", "sym-bound", "n=1000", "k=500", "r=0", f"d={d_over}")
    assert (code, out) == (2, "") and err.count("\n") == 1
    assert err.endswith(f": need d <= {cli.COMPUTE_D_GUARD}, got {d_over}\n"), err


def test_compute_oscillator_bits_limit(capsys, monkeypatch):
    # (r + 1) * bitlen(p + q) at the limit: p + q = 2 or 3 has two bits
    limit = cli.COMPUTE_BITS_GUARD
    r_max = limit // 2 - 1
    assert 2 * (r_max + 1) == limit
    code, out, err = run(capsys, "compute", "heis-epsilon", "mu=1", "nu=1", "Delta=0", f"r={r_max}")
    assert code == 0 and Decimal(out) > 0
    code, out, err = run(capsys, "compute", "heis-delta", "mu=1", "nu=1", "Delta=0", f"r={r_max}")
    assert (code, out) == (0, "1.00000000000\n") and "decimal" in err
    code, out, err = run(capsys, "compute", "coherent-bound", "n=3", "k=1", f"r={r_max}")
    assert code == 0 and Decimal(out) > 0

    def fail(*args):
        raise AssertionError("the oscillator value was computed")

    for name in ("delta_number_space", "epsilon_heisenberg", "coherent_bound"):
        monkeypatch.setattr(heisenberg, name, fail)
    message = f"the exact value needs about {limit + 2} bits, over the limit of {limit}"
    for argv in (
        ["heis-delta", "mu=1", "nu=1", "Delta=0", f"r={r_max + 1}"],
        ["heis-epsilon", "mu=2", "nu=2", "Delta=5", f"r={r_max + 1}"],
        ["coherent-bound", "n=3", "k=1", f"r={r_max + 1}"],
    ):
        code, out, err = run(capsys, "compute", *argv)
        assert (code, out) == (2, "") and err.count("\n") == 1, argv
        assert f": {message}: " in err, err
    # the weights' digits count too: this cell ran past 120 s
    argv = ["heis-delta", "mu=12345678901234567890", "nu=1", "Delta=10", "r=100000"]
    code, out, err = run(capsys, "compute", *argv)
    assert (code, out) == (2, "") and "over the limit" in err


def test_compute_usage_errors(capsys):
    for argv in (
        ["compute", "nonsense", "n=4"],
        ["compute", "sym-epsilon", "n=4", "k=2", "r=0"],  # missing d
        ["compute", "sym-epsilon", "n=4", "k=2", "r=0", "d=2", "x=1"],
        ["compute", "sym-epsilon", "n=4", "n=5", "k=2", "r=0", "d=2"],
        ["compute", "sym-epsilon", "n=4", "k=0", "r=0", "d=2"],
        ["compute", "sym-epsilon", "n=four", "k=2", "r=0", "d=2"],
        ["compute", "exact-radius", "d=3", "n=12", "k=5", "l=2"],
        ["compute", "exact-radius", "d=2", "n=12", "k=5", "l=9"],
        ["compute", "su2-delta", "j1=1/3", "j2=1/2", "j=1", "m2=1/2", "r=0"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
    assert err  # diagnostics land on stderr


def test_exact_radius_shortcut_checks_k_before_l(capsys):
    for argv, message in (
        (["d=2", "n=4", "k=5", "l=0"], "need 0 <= k <= n, got k=5, n=4"),
        (["d=2", "n=4", "k=-1", "l=0"], "need 0 <= k <= n, got k=-1, n=4"),
        (["d=2", "n=4", "k=3", "l=2"], "need 0 <= l <= min(k, n-k), got l=2"),
    ):
        code, out, err = run(capsys, "compute", "exact-radius", *argv)
        assert (code, out, err) == (2, "", f"definetti compute exact-radius: {message}\n"), argv


def test_non_half_integer_is_named_as_typed(capsys):
    for argv, message in (
        (["compute", "su2-delta", "j1=1/3", "j2=1/2", "j=1", "m2=1/2", "r=0"],
         "1/3 is not a half-integer"),
        (["compute", "su2-delta", "j1=1/2", "j2=1/2", "j=1", "m2=0.25", "r=0"],
         "0.25 is not a half-integer"),
        (["figure", "2", "--j1", "1/3"], "1/3 is not a half-integer"),
        (["figure", "1", "--j-max", "7/4"], "7/4 is not a half-integer"),
        # no number at all: the parameter is named
        (["compute", "su2-delta", "j1=1/2", "j2=1/2", "j=1/0", "m2=1/2", "r=0"],
         "j must be a half-integer, got '1/0'"),
        (["compute", "su2-delta", "j1=abc", "j2=1/2", "j=1", "m2=1/2", "r=0"],
         "j1 must be a half-integer, got 'abc'"),
        (["compute", "su2-delta", "j1=1/2", "j2=1/2", "j=1", "m2=1/0", "r=0"],
         "m2 must be a half-integer, got '1/0'"),
        (["figure", "1", "--j1", "1/0"], "j1 must be a half-integer, got '1/0'"),
        (["figure", "1", "--j1", "nan"], "j1 must be a half-integer, got 'nan'"),
        (["figure", "2", "--j-max", "1/0"], "j-max must be a half-integer, got '1/0'"),
        (["figure", "1", "--j-min", "abc"], "j-min must be a half-integer, got 'abc'"),
        (["figure", "3", "--j2", "inf"], "j2 must be a half-integer, got 'inf'"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.count("\n") == 1, argv
        assert err.endswith(f": {message}\n"), err


def test_decimal_exponent_is_bounded_before_the_number_is_built(capsys):
    # Fraction expands exponent notation into a power of ten first: each of
    # these took 10-24 s before it was refused, or ran on past any limit
    limit = cli.COMPUTE_BITS_GUARD
    over = f"need the decimal exponent of {{}} at most {limit} in size, got {{}}"
    for argv, message in (
        (["compute", "heis-delta", "mu=1e10000000", "nu=1", "Delta=0", "r=0"],
         over.format("mu", "1e10000000")),
        (["compute", "heis-epsilon", "mu=1", "nu= -1E+10_000_000 ", "Delta=0", "r=0"],
         over.format("nu", "-1E+10_000_000")),
        (["compute", "heis-delta", "mu=1e-10000000", "nu=1", "Delta=0", "r=0"],
         over.format("mu", "1e-10000000")),
        (["compute", "heis-delta", "mu=0.e99999999", "nu=1", "Delta=0", "r=0"],
         over.format("mu", "0.e99999999")),
        # once refused only for its equal weights' sake, since p + q = 2
        (["compute", "heis-delta", "mu=1e200000", "nu=1e200000", "Delta=0", "r=0"],
         over.format("mu", "1e200000")),
        (["figure", "3", "--mu", "1e10000000"], over.format("mu", "1e10000000")),
        (["figure", "3", "--nu", "." + "9" * 30 + "e" + "9" * 5000],
         over.format("nu", "." + "9" * 30 + "e... (5032 characters)")),
        (["figure", "1", "--j1", "1e10000000"], over.format("j1", "1e10000000")),
        (["compute", "su2-delta", "j1=1e10000000", "j2=1", "j=1", "m2=0", "r=0"],
         over.format("j1", "1e10000000")),
        (["compute", "su2-delta", "j1=1", "j2=1", "j=1", "m2=1e-10000000", "r=0"],
         over.format("m2", "1e-10000000")),
        # within the exponent limit, an over-limit value is named as typed,
        # never as Python's int-to-str digit limit
        (["figure", "1", "--j1", "1e5000"], f"need j1 <= {cli.FIGURE_J_GUARD}, got 1e5000"),
        (["compute", "su2-delta", "j1=1", "j2=1e5000", "j=1", "m2=0", "r=0"],
         f"need j2 <= {cli.FIGURE_J_GUARD}, got 1e5000"),
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0, argv
        assert code == 2 and out == "" and err.count("\n") == 1, argv
        assert err.endswith(f": {message}\n"), err
    # at the limit the number is built, underscores, spaces and all
    assert cli._fraction(f" 1_0e{limit - 1} ", "mu") == 10**limit
    assert cli._fraction(f"-2.5E-{limit}", "nu") == Fraction(-25, 10 ** (limit + 1))
    assert cli._twoj(f"5e{limit}", "j").doubled == 10 ** (limit + 1)
    # text that Fraction refuses is named as no number, not as too large
    for text in ("e" + "9" * 10, "1e5e" + "9" * 10, "1_e" + "9" * 10, "1e9__9" + "9" * 10):
        with pytest.raises(ValueError, match=f"^mu must be a rational number, got '{text}'$"):
            cli._fraction(text, "mu")


def test_over_long_values_are_named_at_parse_time(capsys):
    # each used to exit through Python's int-to-str limit: "Exceeds the
    # limit (4300 digits) for integer string conversion"
    for argv, message in (
        (["compute", "heis-delta", "mu=-1e5000", "nu=1", "Delta=0", "r=0"], "need mu > 0, got -1e5000"),
        (["compute", "heis-delta", "mu=1", "nu=-1e5000", "Delta=0", "r=0"], "need nu > 0, got -1e5000"),
        (["figure", "3", "--mu", "0"], "need mu > 0, got 0"),
        (["figure", "1", "--j1=-1e5000"], "j1 = -1e5000 is negative"),
        (["compute", "su2-delta", "j1=-1e5000", "j2=1", "j=1", "m2=0", "r=0"], "j1 = -1e5000 is negative"),
        (["figure", "1", "--j-max", "1e5000"], "need |j-max| <= 2000, got 1e5000"),
        (["figure", "2", "--j-min=-1e5000"], "need |j-min| <= 2000, got -1e5000"),
        (["compute", "su2-delta", "j1=1", "j2=1", "j=1e5000", "m2=0", "r=0"], "need |j| <= 2000, got 1e5000"),
        (["compute", "su2-delta", "j1=1", "j2=1", "j=1", "m2=-1e5000", "r=0"],
         "need |m2| <= 2000, got -1e5000"),
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0, argv
        assert code == 2 and out == "" and err.count("\n") == 1, argv
        assert err.endswith(f": {message}\n") and "Exceeds the limit" not in err, err
    # the bound on j refuses no valid value: j1 + j2 <= 2 FIGURE_J_GUARD
    j_max = cli.FIGURE_J_GUARD
    argv = [f"j1={j_max}", f"j2={j_max}", f"j={2 * j_max}", f"m2=-{j_max}", "r=0"]
    assert run(capsys, "compute", "su2-delta", *argv)[0] == 0


def test_over_long_integers_are_named_by_their_digit_count(capsys):
    digits = "1" + "0" * 4400
    for argv, message in (
        (["compute", "sym-epsilon", f"n={digits}", "k=1", "r=0", "d=2"],
         f"need n <= {cli.COMPUTE_N_GUARD}, got a 4401-digit integer"),
        (["figure", "3", "--r-max", digits],
         f"need r-max <= {cli.FIGURE_R_MAX_GUARD}, got a 4401-digit integer"),
        (["compute", "sym-epsilon", f"n=-{digits}", "k=1", "r=0", "d=2"],
         "n has 4401 digits, more than the interpreter converts (4300)"),
        (["compute", "sym-epsilon", "n=4", f"k={digits}", "r=0", "d=2"],
         "k has 4401 digits, more than the interpreter converts (4300)"),
        (["figure", "3", "--delta-max", f"+{digits[:2000]}_{digits[2000:]}"],
         "delta-max has 4401 digits, more than the interpreter converts (4300)"),
        (["compute", "sym-epsilon", "n=4", f"k={digits}.5", "r=0", "d=2"],
         f"k must be an integer, got {digits[:32]!r}... (4403 characters)"),
        (["compute", "exact-radius", f"lambda={digits},1", "mu=1,0", "nu=1,0"],
         f"lambda must be a comma-separated integer tuple, got {digits[:32]!r}... (4403 characters)"),
        # a convertible value past its limit is cut as typed
        (["figure", "1", "--j1", digits[:4000]], f"need j1 <= 1000, got {digits[:32]}... (4000 characters)"),
        (["compute", "su2-delta", "j1=1", "j2=1", f"j= {digits[:4000]}", "m2=0", "r=0"],
         f"need |j| <= 2000, got {digits[:32]}... (4000 characters)"),
        (["compute", "heis-epsilon", f"mu=-{digits[:4000]}", "nu=1", "Delta=0", "r=0"],
         f"need mu > 0, got -{digits[:31]}... (4001 characters)"),
        (["figure", "2", f"--j2=-{digits[:4000]}"], f"j2 = -{digits[:31]}... (4001 characters) is negative"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.count("\n") == 1, argv
        assert len(err) < 200 and err.endswith(f": {message}\n"), err
    # argparse's integer arguments, which it used to echo whole after its
    # usage lines (5,204 to 5,298 bytes)
    over = "value has 5000 digits, more than the interpreter converts (4300)"
    for argv, message in (
        (["verify", "all", "--seed", "7" * 5000], f"argument --seed: {over}"),
        (["figure", "7" * 5000], f"argument {{1,2,3}}: {over}"),
        # argparse's choice check echoed a convertible integer whole too
        (["figure", "7" * 4000], "argument {1,2,3}: invalid choice: a 4000-digit integer (choose from 1, 2, 3)"),
        (["figure", "-" + "7" * 4000],
         "argument {1,2,3}: invalid choice: a negative 4000-digit integer (choose from 1, 2, 3)"),
        (["figure", "5"], "argument {1,2,3}: invalid choice: 5 (choose from 1, 2, 3)"),
        (["verify", "all", "--seed", "x"], "argument --seed: value must be an integer, got 'x'"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and len(err) < 400, argv
        assert err.endswith(f": error: {message}\n"), err
    # argparse's choice checks echoed a whole token: 430 and 503-byte error
    # lines for these; short tokens read as argparse put them
    long, digits = "x" * 300, "x" + "9" * 300
    suites = "'weights', 'cg', 'symmetric', 'heisenberg', 'mc', 'all'"
    closed_forms = ", ".join(map(repr, sorted(cli.COMPUTE_FNS)))
    for argv, message in (
        (["verify", long], f"argument suite: invalid choice: {long[:32]!r}... (300 characters) (choose from {suites})"),
        (["verify", "bogus"], f"argument suite: invalid choice: 'bogus' (choose from {suites})"),
        (["compute", long],
         f"argument subcommand: invalid choice: {long[:32]!r}... (300 characters) (choose from {closed_forms})"),
        (["compute", "bogus"], f"argument subcommand: invalid choice: 'bogus' (choose from {closed_forms})"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.endswith(f": error: {message}\n") and len(err.splitlines()[-1]) < 300, err
    # argparse's own errors echoed an unrecognized argument, an unknown
    # command or an ambiguous option whole: 542 to 598-byte lines for 500
    # digits, 693 and 699 for 300 spaced words, and a line break split the
    # diagnostic; the parser's error cuts each long argv token, and shows
    # one with a line break by its repr
    nines, spaced = "9" * 500, "x " * 300
    for argv, cut in (
        (["verify", "all", f"--bogus={nines}"], f"--bogus={nines[:24]}... (508 characters)"),
        (["figure", "1", nines], f"{nines[:32]}... (500 characters)"),
        (["compute", "su2-delta", "j1=1", f"--x{nines}"], f"--x{nines[:29]}... (503 characters)"),
        ([nines], f"invalid choice: '{nines[:31]}... (502 characters)"),
        (["verify", "all", f"--samples={nines[:300]}"], f"--samples={nines[:22]}... (310 characters)"),
        (["verify", "all", "--samples", "7" * 5000], f"--samples {'7' * 32}... (5000 characters)"),
        (["verify", "all", f"--tol={digits}"], f"--tol={digits[:26]}... (307 characters)"),
        (["figure", "1", spaced], f"unrecognized arguments: {spaced[:32]}... (599 characters)"),
        ([spaced], f"invalid choice: '{spaced[:31]}... (602 characters) (choose from"),
        (["figure", "1", f"--j={spaced}"], f"ambiguous option: --j={spaced[:28]}... (603 characters) could match"),
        (["figure", "1", "a\nb"], "unrecognized arguments: 'a\\nb'"),
        (["figure", "1", "a\r\nb", "c\u2028"], "unrecognized arguments: 'a\\r\\nb' 'c\\u2028'"),
        (["a\nb"], "invalid choice: 'a\\nb' (choose from"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        last = err.splitlines()[-1]
        assert re.match(r"definetti( figure)?: error: ", last) and cut in last, err
        assert max(len(line.encode()) for line in err.splitlines()) < 300, err


def test_a_long_direction_is_cut(capsys):
    # the whole token was echoed, a 370-byte line for 300 characters
    argv = ["compute", "su2-delta", "j1=1", "j2=1", "j=1", "m2=0", "r=0"]
    long = "x" * 300
    code, out, err = run(capsys, *argv, f"direction={long}")
    assert (code, out) == (2, "")
    cut = f"{long[:32]!r}... (300 characters)"
    assert err == f"definetti compute su2-delta: direction must be 'down' or 'up', got {cut}\n"
    code, out, err = run(capsys, *argv, "direction=sideways")
    assert (code, out) == (2, "")
    assert err == "definetti compute su2-delta: direction must be 'down' or 'up', got 'sideways'\n"
    with pytest.raises(ValueError, match=r"\(300 characters\)$"):
        weights.w_r_set(3, 2, 1, long)


def test_int_names_an_over_limit_value_by_its_digit_count(capsys):
    # a convertible integer past its limit was echoed whole, 4,022 characters
    with pytest.raises(ValueError, match=r"^need n <= 100000, got a 4000-digit integer$"):
        cli._int("9" * 4000, "n", 100000)
    code, out, err = run(capsys, "figure", "3", "--r-max", "9" * 4000)
    assert code == 2 and out == "" and err.count("\n") == 1
    assert err.endswith(f": need r-max <= {cli.FIGURE_R_MAX_GUARD}, got a 4000-digit integer\n"), err
    assert cli._int("100001", "n", 10**6) == 100001
    with pytest.raises(ValueError, match=r"^need n <= 100000, got 100001$"):
        cli._int("100001", "n", 100000)


GOLDEN = Path(__file__).with_name("verify_all_seed0.txt")


def test_verify_all_transcript_matches_the_golden(capsys):
    # every detail and quadrature digit of verify all --seed 0; the golden
    # moves only with a change to a check
    code, out, err = run(capsys, "verify", "all", "--seed", "0")
    assert (code, err) == (0, "")
    lines = [re.sub(r" \(\d+\.\d\ds\)", "", line) for line in out.splitlines()]
    assert lines == GOLDEN.read_text().splitlines()


def test_compute_su2_delta_angular_momenta_are_bounded(capsys, monkeypatch):
    # j1 = j2 = j = 2000, r = 4000 took 17.5 s a cell, j1 = j2 = 10^5 ran on
    j_max = cli.FIGURE_J_GUARD

    def fail(*args):
        raise AssertionError("the overlap was computed")

    monkeypatch.setattr(cli, "delta_su2", fail)
    for argv, message in (
        ([f"j1={j_max + 1}", "j2=1", f"j={j_max}", "m2=0", "r=0"], f"need j1 <= {j_max}, got {j_max + 1}"),
        (["j1=1", f"j2={2 * j_max + 1}/2", f"j={j_max}", "m2=1/2", "r=0"],
         f"need j2 <= {j_max}, got {2 * j_max + 1}/2"),
        (["j1=100000", "j2=100000", "j=100000", "m2=0", "r=200000"], f"need j1 <= {j_max}, got 100000"),
    ):
        code, out, err = run(capsys, "compute", "su2-delta", *argv)
        assert (code, out) == (2, "") and err == f"definetti compute su2-delta: {message}\n", err
    monkeypatch.undo()
    # the limit itself is admitted, and r is not limited
    argv = [f"j1={j_max}", f"j2={j_max}", "j=0", "m2=0", "r=10000000"]
    code, out, err = run(capsys, "compute", "su2-delta", *argv)
    assert code == 0 and err == "", err


def test_figure_one_anchor_and_determinism(capsys):
    code, out, err = run(capsys, "figure", "1")
    assert code == 0 and err == ""
    lines = out.split("\n")
    assert lines[-1] == ""  # trailing newline
    header = lines[0].split(",")
    assert header[0] == "r"
    assert header[1] == "j=190"
    assert header[-1] == "j=200"
    row0 = lines[1].split(",")
    assert row0[0] == "0"
    assert row0[-1] == "0.498753117207"
    assert set(row0[1:-1]) == {"1"}  # window below the block until r reaches the gap
    assert lines[41].split(",")[0] == "40"
    code2, out2, _ = run(capsys, "figure", "1")
    assert (code2, out2) == (0, out)


def test_figure_two_vanishes_on_saturated_columns(capsys):
    code, out, _ = run(capsys, "figure", "2", "--j1", "15", "--j2", "15")
    assert code == 0
    lines = out.strip().split("\n")
    header = lines[0].split(",")
    assert header[1] == "j=0"
    j0 = header.index("j=0")
    for line in lines[1:]:
        assert line.split(",")[j0] == "0"


def test_figure_three_overlay_pairing(capsys):
    code, out, _ = run(capsys, "figure", "3")
    assert code == 0
    lines = out.split("\n")
    header = lines[0].split(",")
    assert header[1:12] == [f"Delta={d}" for d in range(11)]
    assert header[12:] == [f"su2_j={200 - d}" for d in range(11)]
    row0 = lines[1].split(",")
    assert row0[1] == "0.5"  # Delta=0 halves with every radius step
    assert row0[12] == "0.498753117207"
    assert lines[2].split(",")[1] == "0.25"
    assert lines[4].split(",")[1] == "0.0625"


def test_figure_cost_is_linear_in_r_max(monkeypatch):
    calls = 0
    racah = su2_cg._racah_parts

    def counted(*args):
        nonlocal calls
        calls += 1
        return racah(*args)

    monkeypatch.setattr(su2_cg, "_racah_parts", counted)
    su2_cg._window_column.cache_clear()
    figure_values(figure_spec(1, {}))
    # one Racah sum per window term: 11 columns x 41 radii, less the 55
    # terms with m1 + m2 > j (column j = 190 + c skips its first 10 - c)
    assert calls == 11 * 41 - 55
    calls = 0
    su2_cg._window_column.cache_clear()
    _, curves = figure_values(figure_spec(1, {"r_max": "2000"}))
    # past r = 2j1 = 200 a column adds no terms
    assert calls <= 11 * 201
    assert len(curves) == 11 and {len(c) for c in curves} == {2001}
    assert all(c[-1] == 0 for c in curves)  # the full window saturates


def test_figure_spec_value_semantics():
    spec = figure_spec(1, {})
    assert repr(spec) == (
        "FigureSpec(figure_id=1, j1=TwoJ(doubled=200), j2=TwoJ(doubled=200), tj_min=380, "
        "tj_max=400, r_max=40, mu=Fraction(50, 1), nu=Fraction(50, 1), delta_max=10)"
    )
    fields = (1, TwoJ(200), TwoJ(200), 380, 400, 40, Fraction(50), Fraction(50), 10)
    assert spec == FigureSpec(*fields) and spec != figure_spec(1, {"r_max": "41"})
    assert hash(spec) == hash(fields)
    with pytest.raises(AttributeError):
        spec.r_max = 41
    assert pickle.loads(pickle.dumps(spec)) == spec
    assert copy.deepcopy(spec) == spec


def test_figure_limits_start_no_computation(capsys, monkeypatch):
    def fail(*args):
        raise AssertionError("the figure started computing")

    monkeypatch.setattr(cli, "delta_su2", fail)
    monkeypatch.setattr(heisenberg, "delta_number_space", fail)
    r_over = str(cli.FIGURE_R_MAX_GUARD + 1)
    j_over = str(cli.FIGURE_J_GUARD + 1)
    j_max = str(cli.FIGURE_J_GUARD)
    d_over = str(cli.FIGURE_DELTA_MAX_GUARD + 1)
    for argv, message in (
        (["1", "--r-max", r_over], f"need r-max <= {cli.FIGURE_R_MAX_GUARD}, got {r_over}"),
        (["3", "--r-max", "1" + "0" * 30],
         f"need r-max <= {cli.FIGURE_R_MAX_GUARD}, got {10**30}"),
        (["1", "--j1", j_over, "--j2", j_over], f"need j1 <= {cli.FIGURE_J_GUARD}, got {j_over}"),
        (["2", "--j2", f"{2 * cli.FIGURE_J_GUARD + 1}/2"],
         f"need j2 <= {cli.FIGURE_J_GUARD}, got {2 * cli.FIGURE_J_GUARD + 1}/2"),
        (["3", "--j1", j_over], f"need j1 <= {cli.FIGURE_J_GUARD}, got {j_over}"),
        (["3", "--j1", j_max, "--j2", j_max, "--delta-max", d_over],
         f"need delta-max <= {cli.FIGURE_DELTA_MAX_GUARD}, got {d_over}"),
        # within every option's limit, but over the work budget together
        (["1", "--j1", "1000", "--j2", "1000", "--j-min", "1995", "--j-max", "2000", "--r-max", "400"],
         "the grid needs about 2.7e+09 units of work"),
        (["1", "--j1", "1000", "--j2", "1000", "--j-min", "1900", "--j-max", "2000", "--r-max", "2000"],
         "the grid needs about 2.2e+11 units of work"),
        (["3", "--r-max", "2000", "--delta-max", "100", "--mu", "1", "--nu", "99"],
         "the grid needs about 8.7e+09 units of work"),
        (["3", "--nu", "1e999"], "the grid needs about 2.0e+09 units of work"),
        # the numerator of 1 - delta carries the powers of mu
        (["3", "--r-max", "2000", "--mu", "99", "--nu", "1"],
         "the grid needs about 3.0e+09 units of work"),
    ):
        code, out, err = run(capsys, "figure", *argv)
        assert code == 2 and out == "" and err.count("\n") == 1, argv
        if message.startswith("the grid"):
            message += (
                f", over the budget of {cli.FIGURE_WORK_GUARD:.0e}: "
                "lower --r-max, the number of columns or j1, j2"
            )
        assert err == f"definetti figure {argv[0]}: {message}\n", err


def test_figure_limits_admit_the_documented_grids():
    # each limit itself is a valid grid
    for overrides in (
        {"r_max": str(cli.FIGURE_R_MAX_GUARD)},
        {"j1": str(cli.FIGURE_J_GUARD), "j2": str(cli.FIGURE_J_GUARD)},
    ):
        for figure_id in (1, 2, 3):
            figure_spec(figure_id, overrides)
    figure_spec(3, {"delta_max": str(cli.FIGURE_DELTA_MAX_GUARD)})
    # the grids the limits' notes time, inside the work budget
    figure_spec(3, {"r_max": "2000", "mu": "1", "nu": "99"})
    figure_spec(3, {"r_max": "1000", "mu": "99", "nu": "1"})
    figure_spec(1, {"j1": "1000", "j2": "1000", "j_min": "1990", "j_max": "2000"})


def test_figure_out_roundtrip(tmp_path, capsys):
    target = tmp_path / "fig2.csv"
    code, out, err = run(capsys, "figure", "2", "--out", str(target))
    assert code == 0 and out == ""
    assert "wrote" in err
    code2, out2, _ = run(capsys, "figure", "2")
    assert target.read_text() == out2


def test_figure_usage_and_io_errors(capsys):
    code, _, _ = run(capsys, "figure", "5")
    assert code == 2
    code, _, err = run(capsys, "figure", "1", "--j-min", "abc")
    assert code == 2 and err
    code, _, err = run(capsys, "figure", "1", "--j-min", "205", "--j-max", "200")
    assert code == 2 and err
    code, _, err = run(capsys, "figure", "1", "--out", "/nonexistent/dir/f.csv")
    assert code == 1 and err
    code, out, err = run(capsys, "figure", "3", "--mu", "1/0")
    assert code == 2 and out == "" and err.count("\n") == 1
    for argv, message in (
        (["3", "--r-max", "abc"], "r-max must be an integer, got 'abc'"),
        (["1", "--r-max", "1.5"], "r-max must be an integer, got '1.5'"),
        (["3", "--delta-max", "2.0"], "delta-max must be an integer, got '2.0'"),
        (["1", "--j-min", "189.5"], "j1+j2+j = 779/2 is not an integer at j-min"),
        (["1", "--j-max", "199.5"], "j1+j2+j = 799/2 is not an integer at j-max"),
    ):
        code, out, err = run(capsys, "figure", *argv)
        assert code == 2 and out == "" and err.count("\n") == 1, argv
        assert message in err and "int()" not in err, argv
    for argv, name in (
        (["1", "--j1", "-1"], "j1 = -1"),
        (["3", "--j1", "-1", "--j2", "-1", "--delta-max", "0"], "j1 = -1"),
        (["2", "--j2=-1/2"], "j2 = -1/2"),
    ):
        code, out, err = run(capsys, "figure", *argv)
        assert code == 2 and out == "" and err.count("\n") == 1, argv
        assert f"{name} is negative" in err, argv


def test_figure_empty_option_is_refused(capsys):
    # an empty value is given, not absent: it must not select the default
    for option, message in (
        ("--j1", "j1 must be a half-integer, got ''"),
        ("--j2", "j2 must be a half-integer, got ''"),
        ("--j-min", "j-min must be a half-integer, got ''"),
        ("--j-max", "j-max must be a half-integer, got ''"),
        ("--r-max", "r-max must be an integer, got ''"),
        ("--mu", "mu must be a rational number, got ''"),
        ("--nu", "nu must be a rational number, got ''"),
        ("--delta-max", "delta-max must be an integer, got ''"),
    ):
        for figure_id in ("1", "3"):
            code, out, err = run(capsys, "figure", figure_id, f"{option}=")
            assert code == 2 and out == "", option
            assert err == f"definetti figure {figure_id}: {message}\n", option


def test_verify_weights_suite(capsys):
    code, out, _ = run(capsys, "verify", "weights")
    assert code == 0
    lines = out.strip().split("\n")
    assert all(line.startswith("[PASS] weights:") for line in lines[:-1])
    passed, total = lines[-1].split()[0].split("/")
    assert passed == total
    assert lines[-1].endswith("checks passed")


def test_verify_usage_errors(capsys, monkeypatch):
    code, _, _ = run(capsys, "verify", "bogus")
    assert code == 2
    code, out, err = run(capsys, "verify", "mc", "--seed=-1")
    assert code == 2 and out == "" and err.count("\n") == 1
    # verify has one configuration: a tolerance or a sample count, which
    # could flip its verdict, is an unknown argument, and no check runs
    def fail(*args, **kwargs):
        raise AssertionError("a check ran")

    monkeypatch.setattr(verify, "run_suites", fail)
    for argv in (["all", "--tol", "1e300"], ["mc", "--samples", "1000"], ["weights", "--tol=nan"]):
        code, out, err = run(capsys, "verify", *argv)
        assert (code, out) == (2, ""), argv
        assert err.endswith(f"error: unrecognized arguments: {' '.join(argv[1:])}\n"), err
        assert max(len(line.encode()) for line in err.splitlines()) < 300, err


def test_verify_parser_offers_every_suite():
    # cli builds its parser without importing verify, which loads numpy,
    # so it lists the suites itself
    (subparsers,) = [a for a in cli.build_parser()._actions if a.dest == "command"]
    actions = subparsers.choices["verify"]._actions
    (suite,) = [a for a in actions if a.dest == "suite"]
    assert sorted(suite.choices) == sorted(("all", *verify.SUITES))
    # the suite and the seed are all that verify reads
    assert [a.option_strings or a.dest for a in actions] == [["-h", "--help"], "suite", ["--seed"]]


def _suite_rows(monkeypatch, **kwargs):
    # every check each suite runs, as (suite, name, args), without running it
    def record(name, fn, *args):
        args = tuple(list(a) if hasattr(a, "__next__") else a for a in args)
        return verify.Check(name, True, repr(args), 0.0)

    monkeypatch.setattr(verify, "_check", record)
    results = verify.run_suites(list(verify.SUITES), **kwargs)
    return [(suite, c.name, c.detail) for suite, checks in results for c in checks]


def test_verify_suites_are_well_formed(monkeypatch):
    with pytest.raises(KeyError, match="unknown suite\\(s\\): nope"):
        verify.run_suites(["nope"])
    with pytest.raises(KeyError, match="nope"):
        verify.run_suites(["weights", "nope"])
    rows = _suite_rows(monkeypatch, seed=7)
    assert len(rows) == 31
    assert list(verify.SUITES) == list(dict.fromkeys(s for s, _, _ in rows))
    for suite in verify.SUITES:
        names = [name for s, name, _ in rows if s == suite]
        assert len(set(names)) == len(names), suite
    args = {name: detail for _, name, detail in rows}
    assert args["projected mixture within bound"] == repr((7,))
    assert args["unprojected mixture recovers reduced state"] == repr((7,))
    assert args["sphere rule reproduces haar moments"] == repr(((oracle.QUAD_N, 2 * oracle.QUAD_N),))
    assert args["truncated-fock oracle grid"].endswith(", 3, 6)")
    # a second run sees the same arguments: no row holds a spent iterator
    assert _suite_rows(monkeypatch, seed=7) == rows


def test_verify_comparison_sees_nan():
    verify._approx(0.5, 0.5 + 1e-12, 1e-10, "close values")
    for a, b, tol in ((float("nan"), 0.5, 1e-10), (0.5, 0.5, float("nan"))):
        with pytest.raises(AssertionError):
            verify._approx(a, b, tol, "nan comparison")


def test_no_command_is_usage_error(capsys):
    assert run(capsys, )[0] == 2
    assert run(capsys, "bogus")[0] == 2


def test_render_decimal_reads_a_float_as_the_exact_value_it_stores():
    # a float prints as its exact value rounded once to 12 digits, as the
    # Fraction of that value prints
    rng = random.Random(11)
    xs = [struct.unpack("<d", struct.pack("<Q", rng.getrandbits(64)))[0] for _ in range(4000)]
    xs += [rng.getrandbits(52) * 2.0**-1074 for _ in range(1000)]  # subnormals
    xs += [float(rng.randrange(10**18)) for _ in range(1000)]
    xs += [rng.randrange(10**6) / 10 ** rng.randrange(8) for _ in range(1000)]
    twelve = Context(prec=12, rounding=ROUND_HALF_EVEN)
    for x in filter(isfinite, xs):
        got = cli.render_decimal(x)
        assert got == str(twelve.plus(Decimal(x))), x
        assert got == cli.render_decimal(Fraction(x)), x


def _cli_contract_records(seed: int, cases: int) -> list:
    """(argv, exit code or the escaped exception, stderr, broken law or
    None) of cli.main on each of `cases` compute and figure argument lists,
    drawn by random.Random(seed) from a fixed token set, under a 3 GiB
    address-space limit.  Self-contained: it runs in a child interpreter
    that loads no numpy."""
    import io
    import random
    import resource
    from contextlib import redirect_stderr, redirect_stdout
    from fractions import Fraction

    from definetti import cli, symmetric

    resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))
    small = ["0", "1", "2", "3", "4", "1/2", "3/2", "-1"]
    # values that often make a valid cell with the others drawn
    likely = {
        "n": ["4", "6", "9"], "k": ["2", "3"], "d": ["2", "3"], "r": ["0", "1", "2"], "l": ["0", "1"],
        "j1": ["1", "2"], "j2": ["1", "2"], "j": ["1", "2", "3"], "m2": ["0", "1", "-1"],
        "mu": ["1", "1/3"], "nu": ["1", "3"], "Delta": ["0", "1", "2"], "direction": ["down", "up"],
        "r-max": ["0", "5"], "delta-max": ["0", "2"],
    }
    big = "1" + "0" * 59
    odd = ["1/0", "0/0", "nan", "inf", "-inf", "1e400", "1e999999999", big, "-" + big, "½", "٣", "1_000", ""]
    odd += ["x " * 300, "a\nb"]  # argparse's own errors echoed these whole, the second over two lines
    # each key's values at and one past its guard; at r, (r + 1) bits of
    # p + q = 2 (mu = nu = 1, or n = 2k) reach COMPUTE_BITS_GUARD
    limits = {
        "n": cli.COMPUTE_N_GUARD, "d": cli.COMPUTE_D_GUARD, "r": cli.COMPUTE_BITS_GUARD // 2 - 1,
        "j1": cli.FIGURE_J_GUARD, "j2": cli.FIGURE_J_GUARD, "r-max": cli.FIGURE_R_MAX_GUARD,
        "delta-max": cli.FIGURE_DELTA_MAX_GUARD,
        **dict.fromkeys(("j", "m2", "j-min", "j-max"), 2 * cli.FIGURE_J_GUARD),
    }
    guards = {key: [str(limit), str(limit + 1)] for key, limit in limits.items()}
    keys = {
        "su2-delta": ("j1", "j2", "j", "m2", "r", "direction"),
        "sym-epsilon": ("n", "k", "r", "d"),
        "sym-bound": ("n", "k", "r", "d"),
        "heis-delta": ("mu", "nu", "Delta", "r"),
        "heis-epsilon": ("mu", "nu", "Delta", "r"),
        "coherent-bound": ("n", "k", "r"),
        "exact-radius": ("d", "n", "k", "l"),
        "closed-form-sum": ("n", "k", "r"),
    }
    rng = random.Random(seed)

    def value(key):
        roll = rng.random()
        if roll < 0.5:
            return rng.choice(likely.get(key, small))
        return rng.choice(small if roll < 0.8 else small + odd + guards.get(key, []))

    def draw():
        if rng.random() < 0.5:
            sub = rng.choice(sorted(keys))
            argv = ["compute", sub, *(f"{key}={value(key)}" for key in keys[sub] if rng.random() < 0.9)]
            extra = [f"{keys[sub][0]}=1", "x=1", rng.choice(odd)]  # duplicated, unknown or bare
        else:
            argv = ["figure", rng.choice(["1", "2", "3"] * 3 + odd)]
            for key in ("j1", "j2", "j-min", "j-max", "r-max", "mu", "nu", "delta-max"):
                if rng.random() < 0.3:
                    argv += [f"--{key}", value(key)]
            extra = [rng.choice(odd)]
        if rng.random() < 0.1:
            argv.append(rng.choice(extra))
        if rng.random() < 0.03:
            argv[0] = rng.choice(odd)  # an unknown command
        return argv

    def law(argv, out):
        """What the output of a success breaks, or None."""
        if argv[0] == "figure":
            rows = [line.split(",")[1:] for line in out.splitlines()[1:]]
            for column in zip(*rows):
                values = [Fraction(cell) for cell in column]
                if not all(0 <= v <= 1 for v in values) or values != sorted(values, reverse=True):
                    return f"a figure column leaves [0, 1] or increases in r: {column}"
        elif argv[1] in ("su2-delta", "heis-delta"):
            delta = Fraction(out.split(" = ")[0])
            if not 0 <= delta <= 1:
                return f"delta = {out.strip()}"
        elif argv[1] == "sym-bound":
            t = symmetric.SymTriple(**cli._parse_params(argv[2:], cli._NKRD))
            inter, head = symmetric._bounds(t.n, t.k, t.d, t.r)
            if out != f"intermediate = {cli.render_decimal(inter)}\nheadline = {cli.render_decimal(head)}\n":
                return "the printed bounds are not the bounds"
            if not 2 * inter <= head:
                return "intermediate > headline/2"
            if t.n <= cli.COMPUTE_N_GUARD:  # where compute sym-epsilon computes epsilon
                num, den = symmetric._epsilon_parts(t.n, t.k, t.d, t.r)
                a, b = inter.as_integer_ratio()
                if not num * b <= 2 * den * a:
                    return "epsilon/2 > intermediate"
        return None

    records = []
    for _ in range(cases):
        argv = draw()
        out, err = io.StringIO(), io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(argv)
        except (Exception, SystemExit) as exc:  # the contract is that none escapes main
            code = repr(exc)[:200]
        broken = law(argv, out.getvalue()) if code == 0 else None
        records.append((argv, code, err.getvalue(), broken))
    return records


def test_the_cli_keeps_its_contract_on_a_seeded_sweep():
    # in a child interpreter, so that a hang or a runaway allocation fails
    # this test alone; 1500 cases take about 2 s
    source = inspect.getsource(_cli_contract_records)
    records = json.loads(_in_child(f"{source}\nimport json\nprint(json.dumps(_cli_contract_records(0, 1500)))"))
    successes = {"figure": 0, "su2-delta": 0, "heis-delta": 0, "sym-bound": 0}
    for argv, code, err, broken in records:
        assert code in (0, 2), (argv, code)
        diagnostic = re.sub(r"\Ausage: .*\n( +.*\n)*", "", err)  # argparse's usage lines come first
        if diagnostic:
            assert diagnostic.startswith("definetti") and diagnostic.splitlines(keepends=True) == [diagnostic], err
            assert diagnostic.endswith("\n") and len(diagnostic.encode()) < 300, err
        assert broken is None, (argv, broken)
        name = argv[0] if argv[0] == "figure" else argv[1]
        if code == 0 and name in successes:
            successes[name] += 1
    assert all(successes.values()), successes  # each law met a success
