"""Every input to the public readers and to the CLI ends in a result or in
a documented ``BicomplexError``, never in another exception: arbitrary JSON
trees for the function, operator and point readers, short point texts, and
argument lists for ``main``, which exits 0, 1 or 2 and prints nothing on
stdout when it does not succeed.  Each example runs under a stated wall
bound.  Each verify suite, run once at its default trial count, exits 0 with
no failures under a stated wall bound.  A variable index passed to
``Poly4`` that is not an int in 0..3 is refused with an ``ArgumentError``
naming the argument, and so is a ``group_by`` positions argument that is
not iterable.  An exponent of a polynomial, function, operator or scalar
power, and a Laplacian index, must be an int that is not a bool."""

import contextlib
import io
import json
from fractions import Fraction
from time import perf_counter

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from bcpoly import ArgumentError, Bicomplex, BicomplexError, BicomplexFunction, GaussianRational, Poly4, laplacian, parse_point, wirtinger
from bcpoly.cli import main
from bcpoly.expr import function_from_json_obj, operator_from_json_obj
from bcpoly.verify import SUITE_NAMES

# The longest any one example may take.  Each reads a few short values, in
# a few ms on a 2-core x86 VM; the bound leaves room for a loaded host.
WALL_BOUND_S = 5.0

# The longest one verify suite may take at its default trial count.  Each
# takes 0.002-0.63 s on a 2-core x86 VM, 3.4 s in all; the bound leaves
# room for a loaded host.
SUITE_BOUND_S = 10.0


def _ends_in_result_or_domain_error(call, *args):
    """Run ``call``: it returns or raises a ``BicomplexError``, within the
    wall bound."""
    start = perf_counter()
    try:
        call(*args)
    except BicomplexError:
        pass
    elapsed = perf_counter() - start
    assert elapsed < WALL_BOUND_S, f"took {elapsed:.2f}s against a bound of {WALL_BOUND_S}s"


# ---- JSON trees

_PART_TEXTS = ["0", "1", "-1", "2", "3", "-6", "01", "-0", "+1", "1.5", " 1", "", "x", "9" * 5000]
_KEYS = ["plus", "minus", "op_plus", "op_minus", "alpha", ""]
_LEAVES = (st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.sampled_from(_PART_TEXTS)
           | st.text(max_size=3))


def _terms(children):
    """Term lists: well-formed ones, ``[e0, e1, e2, e3, [4 part strings]]``
    with distinct monomials, or lists of entries near that shape."""
    numerator, denominator = st.sampled_from(["0", "1", "-1", "2", "-6"]), st.sampled_from(["1", "2", "3"])
    coeff = st.tuples(numerator, denominator, numerator, denominator).map(list)
    valid = st.tuples(*[st.integers(0, 3)] * 4, coeff).map(list)
    exponent = st.integers(-1, 3) | st.booleans() | children
    near_coeff = st.lists(st.sampled_from(_PART_TEXTS) | children, min_size=3, max_size=5) | children
    near = st.lists(exponent, min_size=3, max_size=5).flatmap(lambda key: near_coeff.map(lambda c: [*key, c]))
    distinct = st.lists(valid, max_size=4, unique_by=lambda entry: tuple(entry[:4]))
    return distinct | st.lists(valid | near | children, max_size=4)


def _extend(children):
    keys = st.sampled_from(_KEYS) | st.text(max_size=2)
    return st.lists(children, max_size=5) | st.dictionaries(keys, children, max_size=3) | _terms(children)


def json_trees():
    """JSON values, two thirds of them objects with the two term lists of a
    function or of an operator."""
    trees = st.recursive(_LEAVES, _extend, max_leaves=24)
    pairs = [st.fixed_dictionaries({plus: _terms(trees), minus: _terms(trees)})
             for plus, minus in (("plus", "minus"), ("op_plus", "op_minus"))]
    return st.one_of(trees, *pairs)


@settings(deadline=None)
@given(json_trees())
def test_function_json_reader_ends_in_a_result_or_a_domain_error(tree):
    _ends_in_result_or_domain_error(function_from_json_obj, tree)


@settings(deadline=None)
@given(json_trees())
def test_operator_json_reader_ends_in_a_result_or_a_domain_error(tree):
    _ends_in_result_or_domain_error(operator_from_json_obj, tree)


@settings(deadline=None)
@given(json_trees() | st.lists(st.sampled_from(["1", "2", "-3"]), min_size=8, max_size=8)
       | st.lists(st.sampled_from(_PART_TEXTS) | _LEAVES, min_size=8, max_size=8))
def test_point_json_reader_ends_in_a_result_or_a_domain_error(tree):
    _ends_in_result_or_domain_error(Bicomplex.from_json, tree)


# ---- point texts

_POINT_LEXEMES = ["1", "2", "0", "7", "i", "j", "k", "e+", "e-", "Z", "a", "+", "-", "*", "/", "^", "(", ")", "|",
                  " ", "rehyp", "dag", "x", "?", "\n"]


@settings(deadline=None)
@given(st.lists(st.sampled_from(_POINT_LEXEMES), max_size=12).map("".join))
def test_point_text_ends_in_a_value_or_a_domain_error(text):
    _ends_in_result_or_domain_error(parse_point, text)


# ---- CLI argument lists

# a few functions, and texts of at most six lexemes, so no command expands
# a large power
_EXPRESSIONS = st.sampled_from(["Z", "Z^2*star(Z)", "rehyp(Z)^3", "e+*Z + 1/2", "a*ac | b", "0"]) | st.lists(
    st.sampled_from(["Z", "a", "bc", "i", "k", "star(", "rec(", "(", ")", "+", "-", "*", "/", "^", "|", "0", "1",
                     "2", " ", "?"]), max_size=6).map("".join)
_OPTIONS = ["--json", "--raw-idempotent", "--timings", "--at", "--n", "--k", "--seed", "--max-degree",
            "--coeff-bound", "--help", "--nosuch", "0", "1", "2", "-1", "x", ""]
# each command with arguments of the shapes it takes
_COMMANDS = {
    "eval": [_EXPRESSIONS, st.just("--at"), _EXPRESSIONS | st.sampled_from(["1+j", "e+", "Z"])],
    "apply": [st.sampled_from(["d1", "d7", "dZ^2", "dZs^-1", "d7^300", "dQ", "d2^x"]), _EXPRESSIONS],
    "classify": [_EXPRESSIONS],
    "decompose": [st.sampled_from(["conjbasis", "zstar", "almansi", "rehyp-holo", "rehyp-a1", "main", "nosuch"]),
                  _EXPRESSIONS],
    "verify": [st.sampled_from(["all", "mainthm-i", "serialization", "paper-examples", "nosuch"])],
    "paper-examples": [],
    "nosuch": [],
}


def argument_lists():
    """A command, the arguments it takes, and up to two further options;
    or up to four tokens of any kind.  ``verify`` ends in ``--trials`` and
    a count of at most one, so no example runs a default trial count."""
    trials = st.sampled_from(["0", "1", "-1", "x"])
    extras = st.lists(st.sampled_from(_OPTIONS), max_size=2)
    commands = st.sampled_from(sorted(_COMMANDS)).flatmap(
        lambda name: st.tuples(st.just(name), st.tuples(*_COMMANDS[name]), extras, trials)
    ).map(lambda c: [c[0], *c[1], *c[2], *(["--trials", c[3]] if c[0] == "verify" else [])])
    return commands | st.lists(st.sampled_from([*_COMMANDS, *_OPTIONS]) | _EXPRESSIONS, max_size=4)


@settings(deadline=None)
@given(argument_lists())
def test_cli_exits_0_1_or_2_with_nothing_on_stdout_on_error(argv):
    stdout = io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: usage errors and --help
            code = exc.code
    elapsed = perf_counter() - start
    assert elapsed < WALL_BOUND_S, f"took {elapsed:.2f}s against a bound of {WALL_BOUND_S}s"
    assert code in (0, 1, 2)
    if code:
        assert stdout.getvalue() == ""


# ---- verify suites at their default trial counts


def test_each_verify_suite_passes_at_default_trials():
    for name in SUITE_NAMES:
        stdout = io.StringIO()
        start = perf_counter()
        with contextlib.redirect_stdout(stdout):
            code = main(["verify", name, "--json"])
        elapsed = perf_counter() - start
        assert elapsed < SUITE_BOUND_S, f"{name} took {elapsed:.2f}s against a bound of {SUITE_BOUND_S}s"
        assert code == 0, name
        assert json.loads(stdout.getvalue())["failures"] == 0, name


# ---- variable indices of Poly4

_POLY = Poly4({(1, 2, 0, 3): 1, (0, 1, 2, 0): GaussianRational(2, -1), (3, 0, 1, 1): Fraction(1, 2), (2, 2, 2, 2): 5})
_NOT_INTS = st.booleans() | st.floats() | st.sampled_from([None, "0", (0,), Fraction(1), GaussianRational(1)])


def _raises_naming(name: str, call, *args) -> None:
    with pytest.raises(ArgumentError) as info:
        call(*args)
    assert str(info.value).startswith(f"{name}: ")


@given(st.integers().filter(lambda i: not 0 <= i < 4) | _NOT_INTS, _NOT_INTS | st.integers(max_value=-1))
def test_a_variable_index_outside_0_to_3_is_refused_naming_its_argument(index, times):
    _raises_naming("index", Poly4.variable, index)
    _raises_naming("var", _POLY.diff, index)
    _raises_naming("times", _POLY.diff, 0, times)
    _raises_naming("var", _POLY.degree, index)
    _raises_naming("var", Poly4.zero().degree, index)
    _raises_naming("positions", _POLY.group_by, (0, index))


@given(st.integers(0, 3))
def test_a_variable_index_in_0_to_3_gives_what_it_gave(var):
    # diff and group_by in range are checked against the reference in test_kernels
    assert Poly4.variable(var).terms == {tuple(int(v == var) for v in range(4)): GaussianRational(1)}
    assert _POLY.degree(var) == max(key[var] for key in _POLY.terms)
    assert Poly4.zero().degree(var) is None


def test_group_by_refuses_positions_that_are_not_iterable():
    for positions in (7, None, 1.5):
        _raises_naming("positions", _POLY.group_by, positions)


# ---- exponents and Laplacian indices: an int that is not a bool


@pytest.mark.parametrize("exponent", [True, False])
def test_a_bool_exponent_is_refused_like_any_other_non_int(exponent):
    with pytest.raises(ArgumentError, match="nonnegative integer"):
        _POLY ** exponent
    with pytest.raises(ArgumentError, match="nonnegative integer"):
        BicomplexFunction.variable() ** exponent
    with pytest.raises(ArgumentError, match="nonnegative integer"):
        wirtinger("Z") ** exponent
    with pytest.raises(TypeError, match="exponent must be an integer"):
        GaussianRational(2, 1) ** exponent
    with pytest.raises(TypeError, match="exponent must be an integer"):
        Bicomplex(2, 3) ** exponent


@pytest.mark.parametrize("index", [True, False, 1.0, 7.0, "1", None, [1], Fraction(1), 0, 8, -1])
def test_a_laplacian_index_that_is_not_an_int_in_1_to_7_is_refused(index):
    with pytest.raises(ArgumentError, match="Laplacian index must be 1..7"):
        laplacian(index)


def test_a_laplacian_index_in_1_to_7_gives_its_operator():
    assert laplacian(1) == wirtinger("Z") * wirtinger("Zstar")
    assert laplacian(7) == laplacian(1) + laplacian(6)
