"""The package's small value types: one frozen contract on the slotted base,
and validation whose fast paths give the verdicts of the slow ones."""

import copy
import io
import pickle
from contextlib import redirect_stderr
from fractions import Fraction
from math import inf, nan

import pytest

from definetti import cli, heisenberg, oracle, su2_cg, symmetric, verify, weights
from definetti.cli import FigureSpec
from definetti.exact import ExactReal
from definetti.heisenberg import HeisenbergTriple, coherent_bound, epsilon_heisenberg
from definetti.oracle import McReport
from definetti.report import DeltaReport, _Frozen
from definetti.su2_cg import TwoJ
from definetti.symmetric import SymTriple
from definetti.verify import Check
from definetti.weights import HeightDecomposition, Weight

# (instance, its fields in order, its repr)
VALUES = (
    (TwoJ(3), (3,), "TwoJ(doubled=3)"),
    (DeltaReport(Fraction(2, 3), "f", "psi"), (Fraction(2, 3), "f", "psi"),
     "DeltaReport(delta=Fraction(2, 3), formula_id='f', psi_label='psi')"),
    (HeisenbergTriple(Fraction(1, 2), 2, 3, 1), (Fraction(1, 2), 2, 3, 1),
     "HeisenbergTriple(mu=Fraction(1, 2), nu=2, Delta=3, r=1)"),
    (SymTriple(6, 3, 2, 1), (6, 3, 2, 1), "SymTriple(n=6, k=3, d=2, r=1)"),
    (Weight((4, 0, 1)), ((4, 0, 1),), "Weight(entries=(4, 0, 1))"),
    (HeightDecomposition((1, -3), 3), ((1, -3), 3), "HeightDecomposition(coefficients=(1, -3), height=3)"),
    (McReport(4, 2, 1, 7, 0.25, 0.26, 0.5, 1e-16), (4, 2, 1, 7, 0.25, 0.26, 0.5, 1e-16),
     "McReport(n=4, k=2, r=1, seed=7, lhs_distance=0.25, lhs_coarse=0.26, bound=0.5, identity_residual=1e-16)"),
    (Check("c", True, "ok", 0.5), ("c", True, "ok", 0.5), "Check(name='c', passed=True, detail='ok', seconds=0.5)"),
    (FigureSpec(3, TwoJ(2), TwoJ(4), 0, 2, 5, Fraction(1), Fraction(2), 1),
     (3, TwoJ(2), TwoJ(4), 0, 2, 5, Fraction(1), Fraction(2), 1),
     "FigureSpec(figure_id=3, j1=TwoJ(doubled=2), j2=TwoJ(doubled=4), tj_min=0, tj_max=2, r_max=5, "
     "mu=Fraction(1, 1), nu=Fraction(2, 1), delta_max=1)"),
)


@pytest.mark.parametrize("value, fields, text", VALUES, ids=[type(v[0]).__name__ for v in VALUES])
def test_value_types_share_the_frozen_contract(value, fields, text):
    cls = type(value)
    assert isinstance(value, _Frozen) and not hasattr(value, "__dict__")
    assert repr(value) == text
    assert cls.__match_args__ == cls.__slots__ and len(cls.__slots__) == len(fields)
    assert tuple(getattr(value, name) for name in cls.__match_args__) == fields
    # keyword construction, and equality and hash by the field tuple
    assert cls(**dict(zip(cls.__match_args__, fields))) == cls(*fields) == value
    assert hash(value) == hash(fields)
    assert value != fields and fields != value
    for other, *_ in VALUES:
        if type(other) is not cls:
            assert value != other
    for name in cls.__slots__:
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(value, name, fields[0])
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(twin) is cls and twin == value and hash(twin) == hash(value)


def test_every_value_type_of_the_package_is_covered():
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    package = {cls for cls in subclasses(_Frozen) if cls.__module__.startswith("definetti.")}
    assert package == {type(value) for value, *_ in VALUES}
    for cls in package:
        assert cls._setters == tuple(getattr(cls, name).__set__ for name in cls.__slots__)


@pytest.mark.parametrize("value, fields, text", VALUES, ids=[type(v[0]).__name__ for v in VALUES])
def test_a_missing_unknown_or_repeated_field_is_a_type_error(value, fields, text):
    cls = type(value)
    named = dict(zip(cls.__match_args__, fields))
    first = cls.__match_args__[0]
    for args, kwargs in (
        (fields[:-1], {}),
        ((), {name: named[name] for name in cls.__match_args__[1:]}),
        (fields, {"extra": 1}),
        ((), {**named, "extra": 1}),
        ((*fields, 1), {}),
        (fields, {first: named[first]}),
    ):
        with pytest.raises(TypeError):
            cls(*args, **kwargs)
    # by position, by name and mixed, in any keyword order
    half = len(fields) // 2
    mixed = dict(reversed(list(named.items())[half:]))
    assert cls(*fields[:half], **mixed) == cls(**dict(reversed(named.items()))) == value


def test_an_interned_twoj_is_filled_once(monkeypatch):
    interned = TwoJ(3)
    calls = []

    def fill(self, *values):
        calls.append(values)
        _Frozen._fill(self, *values)

    monkeypatch.setattr(TwoJ, "_fill", fill)
    assert TwoJ(3) is interned and TwoJ(doubled=3) is interned
    assert calls == []
    fresh = su2_cg.TWOJ_INTERN_BOUND + 2
    assert TwoJ(fresh) == TwoJ(fresh) and TwoJ(fresh) is not TwoJ(fresh)
    assert calls == [(fresh,)] * 4
    # an interned value runs no Python __init__
    assert TwoJ.__init__ is object.__init__


def test_positional_patterns_follow_the_fields():
    match SymTriple(6, 3, 2, 1):
        case SymTriple(n, k, d, r):
            assert (n, k, d, r) == (6, 3, 2, 1)
        case _:
            raise AssertionError("no match")
    match Weight((4, 0)):
        case Weight((first, _)):
            assert first == 4
        case _:
            raise AssertionError("no match")


def test_same_fields_of_another_type_are_unequal():
    # four fields each, equal as tuples
    assert SymTriple(4, 2, 2, 1) != HeisenbergTriple(4, 2, 2, 1)
    assert hash(SymTriple(4, 2, 2, 1)) == hash(HeisenbergTriple(4, 2, 2, 1))


def test_sym_triple_refusals():
    for args, message in (
        ((4, 2, 1, 0), "need local dimension d >= 2, got 1"),
        ((4, 0, 2, 0), "need 0 < k <= n, got k=0, n=4"),
        ((4, 5, 2, 0), "need 0 < k <= n, got k=5, n=4"),
        ((4, 2, 2, 3), "need 0 <= r <= k, got r=3, k=2"),
        ((4, 2, 2, -1), "need 0 <= r <= k, got r=-1, k=2"),
        # d is checked first, then k, then r
        ((0, 0, 0, 9), "need local dimension d >= 2, got 0"),
        ((0, 0, 2, 9), "need 0 < k <= n, got k=0, n=0"),
    ):
        with pytest.raises(ValueError) as info:
            SymTriple(*args)
        assert str(info.value) == message, args
    # the fields are stored as given
    t = SymTriple(n=4.0, k=2, d=2, r=True)
    assert (t.n, t.r) == (4.0, True) and type(t.n) is float and type(t.r) is bool


BIG = 10**5000  # past the interpreter's 4300-digit int-to-str limit
LONG = "1" + "0" * 299  # a 300-digit integer as typed


def _verify_refusal(*argv):
    """Raise the diagnostic of a `verify` usage error as a ValueError."""
    err = io.StringIO()
    with redirect_stderr(err):
        code = cli.main(["verify", "weights", *argv])
    if code == 2:
        raise ValueError(err.getvalue().removesuffix("\n"))


@pytest.mark.parametrize(
    "call, args, names, digits",
    [
        pytest.param(su2_cg.delta_su2, (1, 1, BIG, 0, 0), "j=", 5001, id="delta_su2-j"),
        pytest.param(su2_cg.delta_su2, (1, 1, 1, 0, -BIG), "radius r", 5001, id="delta_su2-r"),
        pytest.param(su2_cg.cg, (1, 0, 1, 0, BIG, 0), "j=", 5001, id="cg-j"),
        pytest.param(su2_cg.cg, (1, BIG, 1, 0, 1, 0), "(j1, m1): |m|=", 5001, id="cg-m1"),
        pytest.param(HeisenbergTriple, (-BIG, 1, 0, 0), "mu=", 5001, id="HeisenbergTriple-mu"),
        pytest.param(HeisenbergTriple, (1, 1, -BIG, 0), "offset Delta", 5001, id="HeisenbergTriple-Delta"),
        pytest.param(SymTriple, (-BIG, 1, 2, 0), "n=", 5001, id="SymTriple-n"),
        pytest.param(SymTriple, (4, 2, -BIG, 0), "dimension d", 5001, id="SymTriple-d"),
        pytest.param(symmetric.dim_sym, (-BIG, 2), "n=", 5001, id="dim_sym-n"),
        pytest.param(symmetric.dim_sym, (2, -BIG), "d=", 5001, id="dim_sym-d"),
        pytest.param(
            symmetric.term_overlap, (Weight((0, 2)), 4, BIG), "expected k=", 5001, id="term_overlap-total",
        ),
        pytest.param(
            symmetric.term_overlap, (Weight((BIG + 2, -BIG)), 4, 2), "nonnegative", 5001, id="term_overlap-w",
        ),
        pytest.param(symmetric.term_overlap, (Weight((BIG, 0)), 4, BIG), "k=", 5001, id="term_overlap-k"),
        pytest.param(symmetric.weight_profile, ([Weight((BIG, 0))], 2), "leading", 5001, id="weight_profile"),
        pytest.param(symmetric.delta_psi_weights, (4, 2, -BIG, [0, 0, 1]), "dimension d", 5001, id="delta_psi-d"),
        pytest.param(symmetric.delta_psi_weights, (-BIG, 2, 2, [0, 0, 1]), "n=", 5001, id="delta_psi-n"),
        pytest.param(symmetric.delta_psi_weights, (4, 2, 2, [0, 0, -BIG]), "f[2]=", 5001, id="delta_psi-f"),
        pytest.param(symmetric.delta_psi_weights, (4, 2, 2, [0, 0, BIG]), "exceeds", 5001, id="delta_psi-cap"),
        pytest.param(symmetric.closed_form_sum, (10, -BIG, 1), "k=", 5001, id="closed_form_sum-k"),
        pytest.param(symmetric.closed_form_sum, (4, 2, BIG), "r=", 5001, id="closed_form_sum-r"),
        pytest.param(symmetric.exact_error_d2, (-BIG, 2, 0), "n=", 5001, id="exact_error_d2-n"),
        pytest.param(symmetric.exact_error_d2, (4, 2, -BIG), "r=", 5001, id="exact_error_d2-r"),
        pytest.param(
            symmetric.bound_exponential, (SymTriple(2 * BIG, BIG, BIG + 1, 0),), "d=", 5001,
            id="bound_exponential-d",
        ),
        pytest.param(
            symmetric.bound_exponential, (SymTriple(BIG, 3, 3, 0),), "float range", 5001,
            id="bound_exponential-range",
        ),
        # past _SHOWN_DIGITS but under the interpreter's limit, so that a
        # message could still echo it in full
        pytest.param(cli.figure_spec, (1, {"r_max": f"-{LONG}"}), "r-max >= 0", 300, id="figure-r-max"),
        pytest.param(cli.figure_spec, (3, {"delta_max": f"-{LONG}"}), "delta-max >= 0", 300, id="figure-delta"),
        pytest.param(cli.figure_spec, (3, {"delta_max": LONG}), "delta-max <= 100", 300, id="figure-delta-max"),
        pytest.param(_verify_refusal, (f"--seed=-{LONG}",), "--seed", 300, id="verify-seed"),
        pytest.param(cli._compute_exact_radius, ([f"d={LONG}", "n=4", "k=2", "l=0"],), "d=", 300, id="radius-d"),
        pytest.param(cli._compute_exact_radius, (["d=2", "n=4", f"k={LONG}", "l=0"],), "k=", 300, id="radius-k"),
        pytest.param(cli._compute_exact_radius, (["d=2", "n=4", "k=2", f"l={LONG}"],), "l=", 300, id="radius-l"),
        pytest.param(
            weights.exact_radius, (Weight((0, 0)), Weight((int(LONG) + 1, 0)), Weight((0, 0))),
            "invalid triple", 300, id="exact_radius",
        ),
        pytest.param(coherent_bound, (5, int(LONG), 0), "k=", 300, id="coherent_bound-k"),
        pytest.param(coherent_bound, (-int(LONG), 1, 0), "n=", 300, id="coherent_bound-n"),
        pytest.param(weights.simple_root, (-BIG, 3), "root index", 5001, id="simple_root-i"),
        pytest.param(weights.simple_root, (1, -BIG), "dimension d", 5001, id="simple_root-d"),
        pytest.param(weights.w_r_set, (2, 2, -BIG), "radius r", 5001, id="w_r_set-r"),
        pytest.param(weights.sym_weights, (-BIG, 2), "n >= 0", 5001, id="sym_weights-n"),
        pytest.param(weights.sym_weights, (2, -BIG), "dimension d", 5001, id="sym_weights-d"),
        pytest.param(weights.height_down, (Weight((BIG, 0)), Weight((0, 0))), "sums differ", 5001, id="height_down"),
        pytest.param(weights.height_up, (Weight((0, 0)), Weight((0, -BIG))), "sums differ", 5001, id="height_up"),
        pytest.param(heisenberg.alpha_coeff, (1, -BIG, 1, 1), "ell=", 5001, id="alpha_coeff-ell"),
        pytest.param(heisenberg.alpha_coeff, (-BIG, 0, 1, 1), "Delta=", 5001, id="alpha_coeff-Delta"),
        pytest.param(heisenberg.alpha_weight, (-BIG, 0, 1, 1), "Delta >= 0", 5001, id="alpha_weight-Delta"),
        pytest.param(heisenberg.alpha_weight, (0, -BIG, 1, 1), "n >= 0", 5001, id="alpha_weight-n"),
        pytest.param(oracle.heis_oracle, (1, 1, -BIG, 0), "Delta=", 5001, id="heis_oracle-Delta"),
        pytest.param(oracle.heis_oracle, (1, 1, 0, -BIG), "r_max=", 5001, id="heis_oracle-r_max"),
        pytest.param(oracle.heis_oracle, (1, 1, 0, BIG), "size guard", 5001, id="heis_oracle-size"),
        pytest.param(oracle.pair_vacuum, (1, 1, 0, BIG), "size guard", 5001, id="pair_vacuum-size"),
        pytest.param(oracle.pair_tower, (1, 1, 0, BIG, 1), "truncation", 5001, id="pair_tower-n_max"),
        pytest.param(oracle.pair_vacuum, (-BIG, 1, 0, 1), "mu=", 5001, id="pair_vacuum-mu"),
        pytest.param(oracle.pair_vacuum, (1, 1, -BIG, 1), "Delta=", 5001, id="pair_vacuum-Delta"),
        pytest.param(oracle.pair_vacuum, (1, 1, 0, -BIG), "cutoff=", 5001, id="pair_vacuum-cutoff"),
        pytest.param(oracle.mc_theorem1, (4, -BIG, (0,), 0), "k=", 5001, id="mc_theorem1-k"),
        pytest.param(oracle.mc_theorem1, (BIG, 2, (0,), 0), "size guard", 5001, id="mc_theorem1-n"),
        pytest.param(oracle.mc_theorem1, (4, 2, (-BIG,), 0), "r=", 5001, id="mc_theorem1-r"),
        pytest.param(oracle.mc_theorem1, (4, 2, (0,), -BIG), "seed=", 5001, id="mc_theorem1-seed"),
    ],
)
def test_a_refusal_names_an_over_long_number_by_its_digit_count(call, args, names, digits):
    with pytest.raises(ValueError) as info:
        call(*args)
    message = str(info.value)
    assert "\n" not in message and len(message) < 200, message
    assert names in message and f"{digits}-digit integer" in message, message


def test_weight_refusals_and_coercions():
    for given, message in (
        ((3,), "a weight needs at least two coordinates"),
        ((), "a weight needs at least two coordinates"),
        ([3], "a weight needs at least two coordinates"),
        ((1.5, 2), "weight entries must be integers, got (1.5, 2)"),
        (("3", 0), "weight entries must be integers, got ('3', 0)"),
        ((inf, 0), "weight entries must be finite, got (inf, 0)"),
        ((0, -inf), "weight entries must be finite, got (0, -inf)"),
        ((nan, 0), "cannot convert float NaN to integer"),
        ((Fraction(1, 2), 1), "weight entries must be integers, got (Fraction(1, 2), 1)"),
    ):
        with pytest.raises(ValueError) as info:
            Weight(given)
        assert str(info.value) == message, given
    with pytest.raises(TypeError):
        Weight((object(), 1))
    with pytest.raises(TypeError):
        Weight(3)
    # integral entries of other types become plain ints
    for given in ((True, 2.0), [1, 2], (x for x in (1, 2)), (Fraction(1), 2), (1, 2.0)):
        w = Weight(given)
        assert w.entries == (1, 2) and w == Weight((1, 2)), given
        assert type(w.entries) is tuple and all(type(x) is int for x in w.entries), given
    # a tuple of plain ints is stored as it stands
    entries = (3, 0, 1)
    assert Weight(entries).entries is entries


# the outcome of HeisenbergTriple(mu, nu, Delta, r): None where it is
# accepted, else the exception and its message
_POSITIVE = "mode weights must be positive, got mu={}, nu={}"
_FINITE = "mode weights must be finite, got mu={}, nu={}"
_NUMBERS = (TypeError, "mode weights must be numbers")
_WEIGHT_OUTCOMES = (
    (Fraction(0), (ValueError, _POSITIVE)),
    (Fraction(-1, 2), (ValueError, _POSITIVE)),
    (0, (ValueError, _POSITIVE)),
    (-3, (ValueError, _POSITIVE)),
    (-0.0, (ValueError, _POSITIVE)),
    (-inf, (ValueError, _POSITIVE)),
    (nan, (ValueError, _POSITIVE)),
    (inf, (ValueError, _FINITE)),
    (True, _NUMBERS),
    (False, _NUMBERS),
    (Fraction(1, 3), None),
    (4, None),
    (2.5, None),
)


def _outcome(*args):
    try:
        HeisenbergTriple(*args)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return None


def test_heisenberg_triple_fast_path_keeps_every_verdict():
    for bad, want in _WEIGHT_OUTCOMES:
        for good in (1, Fraction(2, 5), 0.75):
            for mu, nu in ((bad, good), (good, bad)):
                expected = want and (want[0], want[1].format(mu, nu))
                assert _outcome(mu, nu, 0, 0) == expected, (mu, nu)
    delta = "need an integer offset Delta >= 0, got {!r}"
    radius = "need an integer radius r >= 0, got {!r}"
    for value, refused in ((-1, True), (-0.5, True), (2.0, True), (Fraction(1), True),
                           (True, False), (False, False), (0, False), (7, False)):
        for mu, nu in ((Fraction(1, 2), 2), (1.0, 2.0)):
            got = (_outcome(mu, nu, value, 9), _outcome(mu, nu, 0, value))
            want = (ValueError, delta.format(value)), (ValueError, radius.format(value))
            assert got == (want if refused else (None, None)), (mu, nu, value)
    # a bool offset or radius is accepted and stored as given
    assert HeisenbergTriple(1, 1, True, False).Delta is True


def test_exact_comparison_gives_the_verdict_of_not_equal():
    halves = ExactReal.of(Fraction(1, 2))
    pairs = [
        (Fraction(1, 3), Fraction(1, 3)),
        (Fraction(1, 3), Fraction(2, 6)),
        (Fraction(1, 3), Fraction(1, 4)),
        (Fraction(2, 3), Fraction(2, 5)),
        (Fraction(-1, 3), Fraction(1, 3)),
        (Fraction(0), Fraction(0, 7)),
        (Fraction(10**40 + 1, 3), Fraction(10**40 + 1, 3)),
        (Fraction(2), 2),
        (2, Fraction(2)),
        (Fraction(1, 2), 1),
        (Fraction(1, 2), 0.5),
        (Fraction(1, 3), 1 / 3),
        (halves, ExactReal.of(Fraction(2, 4))),
        (halves, ExactReal.of(Fraction(1, 3))),
        (ExactReal.sqrt(Fraction(1, 2)), ExactReal.sqrt(Fraction(2, 4))),
        (ExactReal.sqrt(2), ExactReal.sqrt(3)),
        (ExactReal.sqrt(Fraction(1, 4)), halves),
        (halves, Fraction(1, 2)),
        (halves, Fraction(1, 3)),
        (3, 3),
        (3, 4),
        (nan, nan),
    ]
    for a, b in pairs:
        for x, y in ((a, b), (b, a)):
            try:
                verify._exact(x, y, "what")
                passed = True
            except AssertionError as exc:
                passed = False
                assert str(exc) == f"what: {x!r} != {y!r}"
            assert passed == (not x != y), (x, y)


def test_coherent_bound_keeps_the_values_and_types_of_fraction_weights():
    # ints go in as they stand; any other k or n is still read as a Fraction
    for n, k, r in ((2, 1, 0), (7, 3, 0), (7, 3, 1), (7, 3, 2), (12, 5, 5), (9, True, 3), (8, 3.0, 1)):
        got = coherent_bound(n, k, r)
        want = epsilon_heisenberg(HeisenbergTriple(Fraction(k), Fraction(n - k), 0, r))
        assert got == want and type(got) is type(want), (n, k, r)
