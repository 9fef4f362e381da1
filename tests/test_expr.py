from fractions import Fraction

import pytest
from hypothesis import given

from bcpoly import (
    Bicomplex,
    ExprSyntaxError,
    GaussianRational,
    JsonFormatError,
    format_function,
    function_from_json,
    function_to_json,
    parse,
    parse_point,
)
from bcpoly.expr import MAX_NESTING, function_from_json_obj, function_to_json_obj, operator_from_json_obj, operator_to_json_obj
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


def test_component_join_syntax():
    f = parse("a^2 | b + bc", raw=True)
    assert f.plus == ALPHA ** 2
    assert f.minus == BETA + BETA_BAR


def test_point_parser_rejects_non_constants():
    from bcpoly import BicomplexError

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
