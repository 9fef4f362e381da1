"""Surface syntax and canonical serialization for bicomplex functions.

Grammar (whitespace-insensitive)::

    input  := expr ('|' expr)?            -- 'P | M' combines components
    expr   := term (('+' | '-') term)*
    term   := unary (('*' unary) | ('/' INT))*
    unary  := '-'* power
    power  := atom ('^' INT)?
    atom   := INT | 'i' | 'j' | 'k' | 'e+' | 'e-' | 'Z'
            | 'a' | 'ac' | 'b' | 'bc'      -- raw idempotent mode only
            | FUNC '(' expr ')' | '(' expr ')'
    FUNC   := 'dag' | 'til' | 'star' | 'rehyp' | 'rec'

Precedence is ``^`` over unary minus over ``*`` and ``/`` over binary
``+``/``-``.  Division is permitted only by nonzero integer literals, and
exponents are nonnegative integers, so every expression denotes a polynomial
function.  In raw idempotent mode the tokens a, ac, b, bc denote the four
idempotent variables placed in both components, which is how componentwise
formulas are entered verbatim.  As input sugar an integer immediately
followed by i, j or k multiplies it (``2i`` is ``2*i``).  Parentheses and
calls nest at most ``MAX_NESTING`` deep; sums, products and runs of unary
minus signs have no length limit.

The canonical text for a function is ``plus-poly | minus-poly`` with
monomials in ascending lexicographic exponent order; parsing the canonical
text in raw mode restores the function exactly.  The JSON codecs are
bit-exact round trips over the same sorted term lists.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from math import lcm
from typing import NamedTuple, Union

from .bicomplex import Bicomplex, BicomplexError, GaussianRational
from .bicomplex import E_MINUS, E_PLUS, I, J, K
from .bicomplex import _join_terms
from .operators import Operator
from .polyfun import BicomplexFunction, Poly4
from .polyfun import _ZERO_MONO, _from_integer_form, _integer_form, _mul_nums, _pow_form

__all__ = [
    "ExprSyntaxError",
    "JsonFormatError",
    "parse",
    "parse_point",
    "format_function",
    "format_poly",
    "function_to_json_obj",
    "function_from_json_obj",
    "function_to_json",
    "function_from_json",
    "operator_to_json_obj",
    "operator_from_json_obj",
    "VAR_NAMES",
    "MAX_NESTING",
]

VAR_NAMES = ("a", "ac", "b", "bc")

_UNITS = {"i": I, "j": J, "k": K, "e+": E_PLUS, "e-": E_MINUS}
_FUNCS = ("dag", "til", "star", "rehyp", "rec")
_RAW_VARS = {"a": 0, "ac": 1, "b": 2, "bc": 3}
_WORDS = {"Z"} | set(_UNITS) | set(_FUNCS) | set(_RAW_VARS)


class ExprSyntaxError(BicomplexError):
    """Syntax error carrying the character position it occurred at."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class JsonFormatError(BicomplexError):
    """Malformed serialized data; the message names the offending path."""


# ---------------------------------------------------------------- tokens

_SYMBOLS = {"+", "-", "*", "/", "^", "(", ")", "|"}


class _Token(NamedTuple):
    kind: str  # 'int', 'name', one of the symbols, or 'eof'
    value: Union[int, str, None]
    pos: int


# an integer, a name (e+ and e- included), or any other non-space character
_LEXEME = re.compile(r"\s*(?:(\d+)|(e[+-]|[^\W\d_]+)|(\S))")


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    for match in _LEXEME.finditer(text):
        digits, word, char = match.groups()
        if digits is not None:
            tokens.append(_Token("int", int(digits), match.start(1)))
            if text[match.end():match.end() + 1] in ("i", "j", "k"):  # sugar: 2i means 2*i
                tokens.append(_Token("*", "*", match.end()))
        elif word is not None:
            if word not in _WORDS:
                raise ExprSyntaxError(f"unknown name {word!r}", match.start(2))
            tokens.append(_Token("name", word, match.start(2)))
        elif char in _SYMBOLS:
            tokens.append(_Token(char, char, match.start(3)))
        else:
            raise ExprSyntaxError(f"unexpected character {char!r}", match.start(3))
    tokens.append(_Token("eof", None, len(text)))
    return tokens


# ---------------------------------------------------------------- ast

@dataclass(frozen=True)
class Num:
    value: int


@dataclass(frozen=True)
class UnitLit:
    name: str


@dataclass(frozen=True)
class VarZ:
    pass


@dataclass(frozen=True)
class RawVar:
    index: int


@dataclass(frozen=True)
class Sum:
    terms: tuple  # (sign, node) pairs, sign +1 or -1


@dataclass(frozen=True)
class Product:
    factors: tuple
    sign: int  # +1 or -1, from the unary minus signs of the factors
    divisor: int  # product of the '/ INT' divisors


@dataclass(frozen=True)
class PowNat:
    base: object
    exponent: int


@dataclass(frozen=True)
class Call:
    func: str
    arg: object


@dataclass(frozen=True)
class Pair:
    left: object
    right: object


# Parentheses and function calls open at once.  The parser and the lowering
# recurse only along this nesting, so the cap keeps both far inside Python's
# recursion limit; a sum or product of any length is walked by loops.
MAX_NESTING = 100


class _Parser:
    def __init__(self, tokens: list[_Token], raw: bool):
        self.tokens = tokens
        self.raw = raw
        self.index = 0
        self.depth = 0

    @property
    def current(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        token = self.current
        self.index += 1
        return token

    def expect(self, kind: str) -> _Token:
        if self.current.kind != kind:
            raise ExprSyntaxError(f"expected {kind!r}, found {self.current.kind!r}", self.current.pos)
        return self.advance()

    def parse_input(self):
        left = self.parse_expr()
        if self.current.kind == "|":
            self.advance()
            right = self.parse_expr()
            node = Pair(left, right)
        else:
            node = left
        if self.current.kind != "eof":
            raise ExprSyntaxError(f"unexpected trailing {self.current.kind!r}", self.current.pos)
        return node

    def parse_expr(self):
        terms = [(1, self.parse_term())]
        while self.current.kind in ("+", "-"):
            sign = 1 if self.advance().kind == "+" else -1
            terms.append((sign, self.parse_term()))
        return terms[0][1] if len(terms) == 1 else Sum(tuple(terms))

    def parse_term(self):
        sign, factor = self.parse_unary()
        factors = [factor]
        divisor = 1
        while self.current.kind in ("*", "/"):
            if self.advance().kind == "*":
                factor_sign, factor = self.parse_unary()
                sign *= factor_sign
                factors.append(factor)
            else:
                token = self.expect("int")
                if token.value == 0:
                    raise ExprSyntaxError("division by zero", token.pos)
                divisor *= token.value
        if len(factors) == 1 and sign == 1 and divisor == 1:
            return factor
        return Product(tuple(factors), sign, divisor)

    def parse_unary(self) -> tuple[int, object]:
        sign = 1
        while self.current.kind == "-":
            self.advance()
            sign = -sign
        return sign, self.parse_power()

    def parse_power(self):
        node = self.parse_atom()
        if self.current.kind == "^":
            self.advance()
            exponent = self.expect("int")
            return PowNat(node, exponent.value)
        return node

    def parse_nested(self, opener: _Token):
        """The expression inside a parenthesis or call that ``opener`` opens."""
        if self.depth == MAX_NESTING:
            raise ExprSyntaxError(
                f"parentheses and calls nest deeper than the limit of {MAX_NESTING}", opener.pos
            )
        self.depth += 1
        node = self.parse_expr()
        self.expect(")")
        self.depth -= 1
        return node

    def parse_atom(self):
        token = self.current
        if token.kind == "int":
            self.advance()
            return Num(token.value)
        if token.kind == "(":
            self.advance()
            return self.parse_nested(token)
        if token.kind == "name":
            self.advance()
            word = token.value
            if word == "Z":
                return VarZ()
            if word in _UNITS:
                return UnitLit(word)
            if word in _RAW_VARS:
                if not self.raw:
                    raise ExprSyntaxError(
                        f"idempotent variable {word!r} requires raw idempotent mode", token.pos
                    )
                return RawVar(_RAW_VARS[word])
            if word in _FUNCS:
                return Call(word, self.parse_nested(self.expect("(")))
        raise ExprSyntaxError(f"expected an atom, found {token.kind!r}", token.pos)


# ---------------------------------------------------------------- lowering
#
# Each component lowers to the integer form of ``polyfun``: numerators
# {monomial: (re, im)} over one denominator.  ``_lower`` fills only the
# components listed in ``comps`` (0: plus, 1: minus), so the two sides of
# 'P | M' each lower just the component they give.  Calls go through the
# BicomplexFunction methods.

_VAR_Z = ((1, 0, 0, 0), (0, 0, 1, 0))  # monomial of Z in each component
_UNIT_FORMS = {
    name: tuple(_integer_form({_ZERO_MONO: g} if g else {}) for g in (unit.alpha, unit.beta))
    for name, unit in _UNITS.items()
}


def _add_into(acc: dict, acc_den: int, nums: dict, den: int, sign: int) -> int:
    """Add ``sign * nums/den`` to ``acc/acc_den`` in place; returns the new
    common denominator of ``acc``."""
    common = lcm(acc_den, den)
    if common != acc_den:
        factor = common // acc_den
        for key, (re, im) in acc.items():
            acc[key] = (re * factor, im * factor)
    factor = sign * (common // den)
    for key, (re, im) in nums.items():
        re *= factor
        im *= factor
        old = acc.get(key)
        if old is not None:
            re += old[0]
            im += old[1]
            if not (re or im):
                del acc[key]
                continue
        acc[key] = (re, im)
    return common


def _poly(form: tuple[dict, int]) -> Poly4:
    return Poly4._raw(_from_integer_form(*form))


def _lower(node, comps: tuple[int, ...]) -> list:
    out: list = [None, None]
    if isinstance(node, Num):
        for c in comps:
            out[c] = ({_ZERO_MONO: (node.value, 0)} if node.value else {}, 1)
    elif isinstance(node, UnitLit):
        for c in comps:
            out[c] = _UNIT_FORMS[node.name][c]
    elif isinstance(node, VarZ):
        for c in comps:
            out[c] = ({_VAR_Z[c]: (1, 0)}, 1)
    elif isinstance(node, RawVar):
        key = [0, 0, 0, 0]
        key[node.index] = 1
        for c in comps:
            out[c] = ({tuple(key): (1, 0)}, 1)
    elif isinstance(node, Sum):
        accs = [({}, 1) if c in comps else None for c in (0, 1)]
        for sign, term in node.terms:
            lowered = _lower(term, comps)
            for c in comps:
                acc, den = accs[c]
                accs[c] = (acc, _add_into(acc, den, *lowered[c], sign))
        out = accs
    elif isinstance(node, Product):
        lowered = [_lower(factor, comps) for factor in node.factors]
        for c in comps:
            nums, den = {_ZERO_MONO: (node.sign, 0)}, node.divisor
            for factor in lowered:
                factor_nums, factor_den = factor[c]
                nums = _mul_nums(nums, factor_nums)
                den *= factor_den
            out[c] = (nums, den)
    elif isinstance(node, PowNat):
        base = _lower(node.base, comps)
        for c in comps:
            out[c] = _pow_form(*base[c], node.exponent)
    elif isinstance(node, Call):
        plus, minus = _lower(node.arg, (0, 1))
        arg = BicomplexFunction(_poly(plus), _poly(minus))
        if node.func == "dag":
            value = arg.conjugate("dagger")
        elif node.func == "til":
            value = arg.conjugate("tilde")
        elif node.func == "star":
            value = arg.conjugate("star")
        elif node.func == "rehyp":
            value = arg.hyperbolic_part()
        else:
            value = arg.real_part()
        for c in comps:
            out[c] = _integer_form((value.plus, value.minus)[c].terms)
    else:
        raise TypeError(f"unknown AST node {node!r}")
    return out


def parse(text: str, raw: bool = False) -> BicomplexFunction:
    """Parse an expression into canonical componentwise form.

    Parentheses and calls may nest at most ``MAX_NESTING`` deep; a sum or
    product may have any number of terms.
    """
    node = _Parser(_tokenize(text), raw).parse_input()
    if isinstance(node, Pair):
        return BicomplexFunction(_poly(_lower(node.left, (0,))[0]), _poly(_lower(node.right, (1,))[1]))
    plus, minus = _lower(node, (0, 1))
    return BicomplexFunction(_poly(plus), _poly(minus))


def parse_point(text: str) -> Bicomplex:
    """Parse a constant expression into a bicomplex value."""
    fn = parse(text, raw=False)
    if not fn.is_constant():
        raise BicomplexError("expected a constant bicomplex value, got a non-constant expression")
    return fn.constant_value()


# ---------------------------------------------------------------- printing

def _coeff_prefix(coeff: GaussianRational, has_monomial: bool) -> str:
    """Render a coefficient, with trailing '*' when a monomial follows."""
    if coeff.im == 0:
        body = str(coeff.re)
        if has_monomial:
            if coeff.re == 1:
                return ""
            if coeff.re == -1:
                return "-"
            return body + "*"
        return body
    if coeff.re == 0:
        if coeff.im == 1:
            body = "i"
        elif coeff.im == -1:
            body = "-i"
        else:
            body = f"{coeff.im}*i"
    else:
        im = coeff.im
        if im == 1:
            im_text = "i"
        elif im == -1:
            im_text = "-i"
        else:
            im_text = f"{im}*i"
        if not im_text.startswith("-"):
            im_text = "+" + im_text
        body = f"({coeff.re}{im_text})"
    return body + "*" if has_monomial else body


def _monomial_text(key) -> str:
    pieces = []
    for var, exponent in enumerate(key):
        if exponent == 1:
            pieces.append(VAR_NAMES[var])
        elif exponent > 1:
            pieces.append(f"{VAR_NAMES[var]}^{exponent}")
    return "*".join(pieces)


def format_poly(poly: Poly4) -> str:
    if poly.is_zero():
        return "0"
    rendered = []
    for key, coeff in poly.sorted_terms():
        monomial = _monomial_text(key)
        rendered.append(_coeff_prefix(coeff, bool(monomial)) + monomial)
    return _join_terms(rendered)


def format_function(fn: BicomplexFunction) -> str:
    return f"{format_poly(fn.plus)} | {format_poly(fn.minus)}"


# ---------------------------------------------------------------- json

def _terms_to_json(poly: Poly4) -> list:
    return [[*key, coeff.to_json()] for key, coeff in poly.sorted_terms()]


def _terms_from_json(data, path: str) -> Poly4:
    if not isinstance(data, list):
        raise JsonFormatError(f"{path}: expected a list of terms")
    terms = {}
    for idx, entry in enumerate(data):
        entry_path = f"{path}[{idx}]"
        if not isinstance(entry, list) or len(entry) != 5:
            raise JsonFormatError(f"{entry_path}: expected [a, b, c, d, coeff]")
        exponents = entry[:4]
        if any((not isinstance(e, int)) or isinstance(e, bool) or e < 0 for e in exponents):
            raise JsonFormatError(f"{entry_path}: exponents must be nonnegative integers")
        try:
            coeff = GaussianRational.from_json(entry[4], f"{entry_path}[4]")
        except BicomplexError as exc:
            raise JsonFormatError(str(exc)) from None
        key = tuple(exponents)
        if key in terms:
            raise JsonFormatError(f"{entry_path}: duplicate monomial {key}")
        if coeff.is_zero():
            raise JsonFormatError(f"{entry_path}: explicit zero coefficient")
        terms[key] = coeff
    return Poly4(terms)


def function_to_json_obj(fn: BicomplexFunction) -> dict:
    return {"plus": _terms_to_json(fn.plus), "minus": _terms_to_json(fn.minus)}


def function_from_json_obj(obj, path: str = "function") -> BicomplexFunction:
    if not isinstance(obj, dict) or set(obj) != {"plus", "minus"}:
        raise JsonFormatError(f"{path}: expected an object with keys 'plus' and 'minus'")
    return BicomplexFunction(
        _terms_from_json(obj["plus"], f"{path}.plus"),
        _terms_from_json(obj["minus"], f"{path}.minus"),
    )


def function_to_json(fn: BicomplexFunction) -> str:
    return json.dumps(function_to_json_obj(fn), separators=(",", ":"))


def function_from_json(text: str) -> BicomplexFunction:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise JsonFormatError(f"function: invalid JSON ({exc})") from None
    return function_from_json_obj(obj)


def operator_to_json_obj(op: Operator) -> dict:
    return {"op_plus": _terms_to_json(op.plus), "op_minus": _terms_to_json(op.minus)}


def operator_from_json_obj(obj, path: str = "operator") -> Operator:
    if not isinstance(obj, dict) or set(obj) != {"op_plus", "op_minus"}:
        raise JsonFormatError(f"{path}: expected an object with keys 'op_plus' and 'op_minus'")
    return Operator(
        _terms_from_json(obj["op_plus"], f"{path}.op_plus"),
        _terms_from_json(obj["op_minus"], f"{path}.op_minus"),
    )
