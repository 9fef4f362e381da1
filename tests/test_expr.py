import time
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from bcpoly import (
    Bicomplex,
    BicomplexError,
    ExprLimitError,
    ExprSyntaxError,
    GaussianRational,
    JsonFormatError,
    format_function,
    function_from_json,
    function_to_json,
    parse,
    parse_point,
)
from bcpoly.expr import MAX_NESTING, MAX_TERM_PAIRS, function_from_json_obj, function_to_json_obj, operator_from_json_obj, operator_to_json_obj
from bcpoly.operators import laplacian
from bcpoly.polyfun import BicomplexFunction, Poly4
from bcpoly.sampling import Sampler

from strategies import functions

from test_polyfun import ALPHA, ALPHA_BAR, BETA, BETA_BAR, cross_term, realizer


def test_parse_hyperbolic_part_formula():
    f = parse("(Z + star(Z)) / 2")
    assert f == BicomplexFunction.variable().hyperbolic_part()
    assert f.plus == (ALPHA + ALPHA_BAR).scale(Fraction(1, 2))


def test_parse_real_part_formula():
    f = parse("(Z + dag(Z) + til(Z) + star(Z)) / 4")
    assert f == BicomplexFunction.variable().real_part()


def test_parse_realizer_formula():
    assert parse("2*star(Z)*(dag(Z) + til(Z))") == realizer()


def test_parse_raw_cross_term():
    assert parse("(a+ac)*(b+bc)", raw=True) == cross_term()


def test_raw_tokens_rejected_by_default():
    with pytest.raises(ExprSyntaxError):
        parse("a + ac")


def test_format_zero():
    assert format_function(BicomplexFunction.zero()) == "0 | 0"


def test_format_parse_identity_on_examples():
    for f in (cross_term(), realizer(), BicomplexFunction.variable() ** 3):
        assert parse(format_function(f), raw=True) == f


def test_precedence_rules():
    assert parse("-2^2").constant_value() == Bicomplex.coerce(-4)
    assert parse("1+2*3^2").constant_value() == Bicomplex.coerce(19)
    assert parse("-2*3").constant_value() == Bicomplex.coerce(-6)
    assert parse("3/2*2").constant_value() == Bicomplex.coerce(3)


def test_whitespace_insensitive():
    assert parse(" ( Z + star( Z ) )   /  2 ") == parse("(Z+star(Z))/2")


def test_number_unit_sugar():
    assert parse_point("1+2i+3j+4k") == Bicomplex.from_units(1, 2, 3, 4)
    assert parse_point("1 + 2*i + 3*j + 4*k") == Bicomplex.from_units(1, 2, 3, 4)


def test_syntax_errors_carry_positions():
    with pytest.raises(ExprSyntaxError) as err:
        parse("Z + ?")
    assert err.value.pos == 4
    with pytest.raises(ExprSyntaxError):
        parse("Z^-1")
    with pytest.raises(ExprSyntaxError):
        parse("Z / 0")
    with pytest.raises(ExprSyntaxError):
        parse("Z / Z")
    with pytest.raises(ExprSyntaxError):
        parse("dag Z")
    with pytest.raises(ExprSyntaxError):
        parse("Z Z")
    with pytest.raises(ExprSyntaxError):
        parse("Z²")


# malformed inputs, with the exact message and position each one raises
_DEEP_PARENS = "(" * (MAX_NESTING + 1) + "Z" + ")" * (MAX_NESTING + 1)
_DEEP_CALLS = "rec(" * (MAX_NESTING + 1) + "Z" + ")" * (MAX_NESTING + 1)
_SYNTAX_ERRORS = [
    ("Z + ?", False, "unexpected character '?'", 4),
    ("Z_1", False, "unexpected character '_'", 1),
    ("Z ) ?", False, "unexpected character '?'", 4),  # lexical errors come first
    ("foo(Z)", False, "unknown name 'foo'", 0),
    ("x + 1", False, "unknown name 'x'", 0),
    ("ex", False, "unknown name 'ex'", 0),
    ("a + foo", False, "unknown name 'foo'", 4),
    ("Z²", False, "unknown name 'Z²'", 0),
    ("2ij", False, "unknown name 'ij'", 1),
    ("Z Z", False, "unexpected trailing 'name'", 2),
    ("2 i", False, "unexpected trailing 'name'", 2),
    ("1 2", False, "unexpected trailing 'int'", 2),
    ("2i2", False, "unexpected trailing 'int'", 2),
    ("Z )", False, "unexpected trailing ')'", 2),
    ("Z^2^3", False, "unexpected trailing '^'", 3),
    ("a | b | bc", True, "unexpected trailing '|'", 6),
    ("(a | b)", True, "expected ')', found '|'", 3),
    ("| Z", False, "expected an atom, found '|'", 0),
    ("Z |", False, "expected an atom, found 'eof'", 3),
    ("", False, "expected an atom, found 'eof'", 0),
    ("   ", False, "expected an atom, found 'eof'", 3),
    ("-", False, "expected an atom, found 'eof'", 1),
    ("*Z", False, "expected an atom, found '*'", 0),
    ("()", False, "expected an atom, found ')'", 1),
    ("Z*/2", False, "expected an atom, found '/'", 2),
    ("Z / 0", False, "division by zero", 4),
    ("Z/00", False, "division by zero", 2),
    ("Z / Z", False, "expected 'int', found 'name'", 4),
    ("Z^-1", False, "expected 'int', found '-'", 2),
    ("Z^", False, "expected 'int', found 'eof'", 2),
    ("(Z", False, "expected ')', found 'eof'", 2),
    ("dag Z", False, "expected '(', found 'name'", 4),
    ("dag(Z", False, "expected ')', found 'eof'", 5),
    ("a", False, "idempotent variable 'a' requires raw idempotent mode", 0),
    ("Z + bc", False, "idempotent variable 'bc' requires raw idempotent mode", 4),
    (_DEEP_PARENS, False, f"parentheses and calls nest deeper than the limit of {MAX_NESTING}", MAX_NESTING),
    (_DEEP_CALLS, False, f"parentheses and calls nest deeper than the limit of {MAX_NESTING}", 4 * MAX_NESTING + 3),
]


@pytest.mark.parametrize("text, raw, message, pos", _SYNTAX_ERRORS)
def test_syntax_error_table(text, raw, message, pos):
    with pytest.raises(ExprSyntaxError) as err:
        parse(text, raw=raw)
    assert str(err.value) == f"{message} (at position {pos})"
    assert err.value.pos == pos


def test_unary_minus_chain_of_any_length():
    assert parse("-" * 1200 + "Z") == BicomplexFunction.variable()
    assert parse("-" * 1201 + "Z") == -BicomplexFunction.variable()


def test_nesting_limit():
    assert parse("(" * MAX_NESTING + "Z" + ")" * MAX_NESTING) == BicomplexFunction.variable()
    # the error names the limit and the opening parenthesis one past it
    deep_call = "dag(" * (MAX_NESTING + 1) + "Z" + ")" * (MAX_NESTING + 1)
    for text, pos in (("(" * 300 + "Z" + ")" * 300, MAX_NESTING), (deep_call, 4 * MAX_NESTING + 3)):
        with pytest.raises(ExprSyntaxError) as err:
            parse(text)
        assert f"limit of {MAX_NESTING}" in str(err.value)
        assert err.value.pos == pos


def test_expansion_work_limit():
    # each ran for minutes or would exhaust memory without the limit; the
    # limit comes before the syntax error at the end of the third
    nested_calls = "rec(1+Z*(" * 50 + "Z" + ")" * 100
    for text in (nested_calls, "(Z+star(Z)+dag(Z)+1)^200", "(Z+star(Z)+dag(Z)+1)^200 +", "7^777777777777"):
        start = time.perf_counter()
        with pytest.raises(ExprLimitError) as err:
            parse(text)
        assert time.perf_counter() - start < 5
        assert f"limit of {MAX_TERM_PAIRS} term pairs" in str(err.value)
    # 1891 terms per component, inside the limit
    f = parse("(Z+star(Z)+1)^60")
    assert len(f.plus.terms) == len(f.minus.terms) == 1891


def _primes(count: int) -> list[int]:
    primes, candidate = [], 2
    while len(primes) < count:
        if all(candidate % p for p in primes if p * p <= candidate):
            primes.append(candidate)
        candidate += 1
    return primes


def test_sum_over_growing_denominators_is_charged():
    # each new denominator rescales the whole sum so far; 4000 terms took
    # 35 s before the rescaling counted against the limit
    primes = _primes(4000)
    start = time.perf_counter()
    with pytest.raises(ExprLimitError, match=f"limit of {MAX_TERM_PAIRS} term pairs"):
        parse(" + ".join(f"Z^{n}/{p}" for n, p in enumerate(primes)))
    assert time.perf_counter() - start < 5
    f = parse(" + ".join(f"Z^{n}/{p}" for n, p in enumerate(primes[:1000])))
    assert list(f.plus.terms.items()) == [((n, 0, 0, 0), GaussianRational(Fraction(1, p))) for n, p in enumerate(primes[:1000])]
    assert list(f.minus.terms.items()) == [((0, 0, n, 0), GaussianRational(Fraction(1, p))) for n, p in enumerate(primes[:1000])]


# any string over the grammar's alphabet ends in a function or a domain
# error; an example may expand up to the work limit, about half a second,
# so the default deadline of hypothesis does not apply
_LEXEMES = ["Z", "i", "j", "k", "e+", "e-", "a", "ac", "b", "bc", "dag", "til", "star", "rehyp", "rec",
            "(", ")", "+", "-", "*", "/", "^", "|", " ", "0", "1", "2", "7", "x", "?"]


@settings(deadline=None)
@given(st.lists(st.sampled_from(_LEXEMES), max_size=16).map("".join), st.booleans())
def test_any_short_string_parses_or_raises_a_domain_error(text, raw):
    try:
        assert isinstance(parse(text, raw=raw), BicomplexFunction)
    except BicomplexError:
        pass


def test_component_join_syntax():
    f = parse("a^2 | b + bc", raw=True)
    assert f.plus == ALPHA ** 2
    assert f.minus == BETA + BETA_BAR


def test_point_parser_rejects_non_constants():
    with pytest.raises(BicomplexError):
        parse_point("Z + 1")


def test_mixed_coefficient_formatting_round_trips():
    p = Poly4(
        {
            (2, 0, 0, 0): GaussianRational(Fraction(1, 2), Fraction(-3, 4)),
            (0, 1, 0, 1): GaussianRational(0, 1),
            (0, 0, 0, 0): GaussianRational(-2),
            (0, 0, 3, 0): GaussianRational(-1),
        }
    )
    f = BicomplexFunction(p, Poly4.zero())
    text = format_function(f)
    assert parse(text, raw=True) == f


def test_json_round_trip_fixed():
    f = realizer()
    text = function_to_json(f)
    assert function_from_json(text) == f
    obj = function_to_json_obj(f)
    assert set(obj) == {"plus", "minus"}
    entry = obj["plus"][0]
    assert len(entry) == 5 and all(isinstance(e, int) for e in entry[:4])
    assert all(isinstance(part, str) for part in entry[4])


def test_json_terms_sorted_lexicographically():
    obj = function_to_json_obj(cross_term())
    keys = [tuple(entry[:4]) for entry in obj["plus"]]
    assert keys == sorted(keys)


def test_json_errors_name_paths():
    with pytest.raises(JsonFormatError) as err:
        function_from_json('{"plus": [[0,0,0,0,["1","0","0","1"]]], "minus": []}')
    assert "plus[0]" in str(err.value)
    with pytest.raises(JsonFormatError):
        function_from_json('{"plus": []}')
    with pytest.raises(JsonFormatError):
        function_from_json("not json")
    with pytest.raises(JsonFormatError) as err:
        function_from_json_obj({"plus": [[0, 0, 0, 0, ["1", "1", "0", "1"]], [0, 0, 0, 0, ["2", "1", "0", "1"]]], "minus": []})
    assert "duplicate" in str(err.value)
    with pytest.raises(JsonFormatError) as err:
        function_from_json_obj({"plus": [[0, -1, 0, 0, ["1", "1", "0", "1"]]], "minus": []})
    assert "exponents" in str(err.value)


def test_operator_json_round_trip():
    op = laplacian(3) + laplacian(1).scale(GaussianRational(0, 2))
    obj = operator_to_json_obj(op)
    assert set(obj) == {"op_plus", "op_minus"}
    assert operator_from_json_obj(obj) == op


@given(functions())
def test_format_parse_round_trip_random(f):
    assert parse(format_function(f), raw=True) == f


@given(functions())
def test_json_round_trip_random(f):
    assert function_from_json(function_to_json(f)) == f


def test_seeded_round_trip_bulk():
    sampler = Sampler(101)
    for _ in range(200):
        f = sampler.function()
        assert parse(format_function(f), raw=True) == f
        assert function_from_json(function_to_json(f)) == f
