"""Command-line surface: compute output format, CSV figures, verify wiring."""

from decimal import Context, Decimal

import pytest

from definetti import su2_cg, verify
from definetti.cli import figure_spec, figure_values, main


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


def test_non_half_integer_is_named_as_typed(capsys):
    for argv, typed in (
        (["compute", "su2-delta", "j1=1/3", "j2=1/2", "j=1", "m2=1/2", "r=0"], "1/3"),
        (["compute", "su2-delta", "j1=1/2", "j2=1/2", "j=1", "m2=0.25", "r=0"], "0.25"),
        (["figure", "2", "--j1", "1/3"], "1/3"),
        (["figure", "1", "--j-max", "7/4"], "7/4"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.count("\n") == 1, argv
        assert err.endswith(f": {typed} is not a half-integer\n"), err


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


def test_verify_weights_suite(capsys):
    code, out, _ = run(capsys, "verify", "weights")
    assert code == 0
    lines = out.strip().split("\n")
    assert all(line.startswith("[PASS] weights:") for line in lines[:-1])
    passed, total = lines[-1].split()[0].split("/")
    assert passed == total
    assert lines[-1].endswith("checks passed")


def test_verify_usage_errors(capsys):
    code, _, _ = run(capsys, "verify", "bogus")
    assert code == 2
    code, _, err = run(capsys, "verify", "mc", "--samples", "10")
    assert code == 2 and err
    code, out, err = run(capsys, "verify", "mc", "--seed=-1")
    assert code == 2 and out == "" and err.count("\n") == 1
    for tol in ("nan", "inf", "0", "-1e-10"):
        code, out, err = run(capsys, "verify", "weights", f"--tol={tol}")
        assert code == 2 and out == "" and err.count("\n") == 1, tol


def test_verify_samples_over_the_guard_start_no_sampling(capsys, monkeypatch):
    # --samples 10^21 used to be accepted and loop through ~2.4e17 batches
    from definetti import oracle

    def fail(*args):
        raise AssertionError("sampling started")

    monkeypatch.setattr(oracle, "haar_su2", fail)
    for samples in (oracle.MC_SAMPLES_GUARD + 1, 10**21):
        code, out, err = run(capsys, "verify", "mc", "--samples", str(samples))
        assert code == 2 and out == "" and err.count("\n") == 1, samples
        assert f"at most {oracle.MC_SAMPLES_GUARD}" in err
        with pytest.raises(ValueError, match="size guard exceeded"):
            oracle.mc_theorem1(4, 2, 1, samples, 0)


def test_verify_comparison_sees_nan():
    verify._approx(0.5, 0.5 + 1e-12, 1e-10, "close values")
    for a, b, tol in ((float("nan"), 0.5, 1e-10), (0.5, 0.5, float("nan"))):
        with pytest.raises(AssertionError):
            verify._approx(a, b, tol, "nan comparison")


def test_no_command_is_usage_error(capsys):
    assert run(capsys, )[0] == 2
    assert run(capsys, "bogus")[0] == 2
