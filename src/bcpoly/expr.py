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

The reader makes one pass and builds no syntax tree: each grammar rule
returns its value as expanded polynomial components, so the expansion runs
while the text is read.  Its work is bounded by ``MAX_TERM_PAIRS``, past
which ``ExprLimitError`` is raised, possibly before a syntax error later in
the text.

The canonical text for a function is ``plus-poly | minus-poly`` with
monomials in ascending lexicographic exponent order; parsing the canonical
text in raw mode restores the function exactly.  The JSON codecs are
bit-exact round trips over the same sorted term lists.
"""

from __future__ import annotations

import json
import re
from itertools import islice
from math import lcm

from .bicomplex import Bicomplex, BicomplexError, GaussianRational
from .bicomplex import DAGGER, E_MINUS, E_PLUS, I, J, K, STAR, TILDE
from .bicomplex import _join_terms
from .operators import Operator
from .polyfun import BicomplexFunction, Poly4
from .polyfun import _ZERO_MONO, _from_integer_form, _integer_form, _mul_nums, _pow_form

__all__ = [
    "ExprSyntaxError",
    "ExprLimitError",
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
    "MAX_TERM_PAIRS",
]

VAR_NAMES = ("a", "ac", "b", "bc")

# Parentheses and function calls open at once.  The reader recurses only
# along this nesting, so the cap keeps it far inside Python's recursion
# limit; a sum or product of any length is read by loops.
MAX_NESTING = 100

# Expansion work of one parse, in term pairs: a product of an m-term and an
# n-term component counts m*n, as does each multiply inside a power; a power
# x^e also counts e times the bits its numbers can gain per factor (log2 of
# x's denominator and of the sum of |re| + |im| over its numerators), and a
# call, which runs on Gaussian rationals, _CALL_PAIRS per term of its
# argument, about its cost against the integer multiply.  A sum whose
# common denominator grows rescales its accumulated terms, two multiplies
# each against a term pair's four, so each rescale counts half their number.
# The benchmark's largest expression needs 26 thousand, (Z+star(Z)+1)^60
# 570 thousand.
MAX_TERM_PAIRS = 800_000
_CALL_PAIRS = 64

_FUNCS = {
    "dag": lambda f: f.conjugate(DAGGER),
    "til": lambda f: f.conjugate(TILDE),
    "star": lambda f: f.conjugate(STAR),
    "rehyp": lambda f: f.hyperbolic_part(),
    "rec": lambda f: f.real_part(),
}

# the values of the named atoms, as integer forms per component; shared,
# so no rule may add into them
_ATOMS = {
    name: (_integer_form(fn.plus.terms), _integer_form(fn.minus.terms))
    for name, fn in (
        ("Z", BicomplexFunction.variable()),
        *((name, BicomplexFunction.constant(unit)) for name, unit in
          (("i", I), ("j", J), ("k", K), ("e+", E_PLUS), ("e-", E_MINUS))),
        *((name, BicomplexFunction.from_shared(Poly4.variable(var))) for var, name in enumerate(VAR_NAMES)),
    )
}
_SYMBOLS = {"+", "-", "*", "/", "^", "(", ")", "|"}
_KNOWN = set(_ATOMS) | set(_FUNCS) | _SYMBOLS | {""}


class ExprSyntaxError(BicomplexError):
    """Syntax error carrying the character position it occurred at."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class ExprLimitError(BicomplexError):
    """An expression whose expansion would exceed ``MAX_TERM_PAIRS``."""


class JsonFormatError(BicomplexError):
    """Malformed serialized data; the message names the offending path."""


# ---------------------------------------------------------------- reader

# One lexeme per match, as a plain string: an integer, the empty string
# between an integer and an i, j or k right after it (the '2i' sugar, which
# the term rule reads as '*'), a name (e+ and e- included), or any other
# non-space character.  An error finds its token's position by matching again.
_LEXEME = re.compile(r"\s*(\d+|(?<=\d)(?=[ijk])|e[+-]|[^\W\d_]+|\S)")


def _kind(token) -> str:
    """The token class that error messages name."""
    if token is None:
        return "eof"
    if token.isdecimal():
        return "int"
    return token if token in _SYMBOLS else "name"


def _poly(form: tuple[dict, int]) -> Poly4:
    return Poly4._raw(_from_integer_form(*form))


def _add_into(acc: dict, acc_den: int, nums: dict, den: int, sign: int, charge) -> int:
    """Add ``sign * nums/den`` to ``acc/acc_den`` in place; returns the new
    common denominator of ``acc``.  A new denominator rescales all of
    ``acc``, which is charged to the work budget through ``charge``."""
    common = lcm(acc_den, den)
    if common != acc_den:
        charge(len(acc) // 2)
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


class _Reader:
    """Recursive descent over the lexemes of one text.

    Each rule returns a value: a pair of integer forms ``(nums, den)``, one
    per component (0: plus, 1: minus), of which only the components in
    ``comps`` are computed (the others may be None).  The two sides of
    'P | M' each compute just the component they give; a call computes
    both for its argument.  The forms that ``term`` returns are new dicts,
    so a sum may add into its first term in place.
    """

    def __init__(self, text: str, raw: bool):
        self.text = text
        self.tokens = _LEXEME.findall(text)
        if not all(token.isdecimal() for token in set(self.tokens) - _KNOWN):
            for match in _LEXEME.finditer(text):
                token = match[1]
                if token not in _KNOWN and not token.isdecimal():
                    # a name matches [^\W\d_]+, any other lexeme is one character
                    what = "unknown name" if token[0].isalnum() else "unexpected character"
                    raise ExprSyntaxError(f"{what} {token!r}", match.start(1))
        self.tokens.append(None)  # end of input
        self.raw = raw
        self.index = 0
        self.depth = 0
        self.work = 0

    def error(self, message: str, index: int | None = None) -> ExprSyntaxError:
        """A syntax error at the token ``index`` (default: the current one)."""
        index = self.index if index is None else index
        match = next(islice(_LEXEME.finditer(self.text), index, None), None)
        return ExprSyntaxError(message, len(self.text) if match is None else match.start(1))

    def expect(self, symbol: str) -> None:
        token = self.tokens[self.index]
        if token != symbol:
            raise self.error(f"expected {symbol!r}, found {_kind(token)!r}")
        self.index += 1

    def integer(self) -> int:
        token = self.tokens[self.index]
        if token is None or not token.isdecimal():
            raise self.error(f"expected 'int', found {_kind(token)!r}")
        self.index += 1
        return int(token)

    # ---- work budget

    def charge(self, pairs: int) -> None:
        self.work += pairs
        if self.work > MAX_TERM_PAIRS:
            raise ExprLimitError(f"expansion needs more than the limit of {MAX_TERM_PAIRS} term pairs")

    def mul(self, a: dict, b: dict) -> dict:
        self.charge(len(a) * len(b))
        return _mul_nums(a, b)

    # ---- grammar

    def read(self) -> tuple:
        pair = "|" in self.tokens
        self.comps = (0,) if pair else (0, 1)
        value = self.expr()
        if pair and self.tokens[self.index] == "|":
            self.index += 1
            self.comps = (1,)
            value = (value[0], self.expr()[1])
        token = self.tokens[self.index]
        if token is not None:
            raise self.error(f"unexpected trailing {_kind(token)!r}")
        return value

    def expr(self) -> tuple:
        tokens = self.tokens
        value = self.term()
        if tokens[self.index] not in ("+", "-"):
            return value
        comps = self.comps
        acc = list(value)
        while (op := tokens[self.index]) in ("+", "-"):
            self.index += 1
            term = self.term()
            sign = 1 if op == "+" else -1
            for c in comps:
                nums, den = acc[c]
                acc[c] = (nums, _add_into(nums, den, *term[c], sign, self.charge))
        return tuple(acc)

    def term(self) -> tuple:
        tokens = self.tokens
        sign, factors, divisor = 1, [], 1
        while True:
            while tokens[self.index] == "-":
                self.index += 1
                sign = -sign
            factors.append(self.power())
            while tokens[self.index] == "/":
                self.index += 1
                value = self.integer()
                if value == 0:
                    raise self.error("division by zero", self.index - 1)
                divisor *= value
            if tokens[self.index] not in ("*", ""):
                break
            self.index += 1
        out = [None, None]
        for c in self.comps:
            out[c] = self.product(sign, [factor[c] for factor in factors], divisor)
        return tuple(out)

    def product(self, sign: int, forms: list, divisor: int) -> tuple[dict, int]:
        """One component of a term: the one-term factors fold into a single
        coefficient and monomial, and only the factors with several terms
        are multiplied."""
        e0 = e1 = e2 = e3 = 0
        re, im, den = sign, 0, divisor
        multi = None
        for nums, d in forms:
            den *= d
            if len(nums) == 1:
                [((k0, k1, k2, k3), (a, b))] = nums.items()
                e0 += k0
                e1 += k1
                e2 += k2
                e3 += k3
                re, im = re * a - im * b, re * b + im * a
            elif not nums:
                re = im = 0
            elif re or im:
                multi = nums if multi is None else self.mul(multi, nums)
        if not (re or im):
            return {}, 1
        if multi is None:
            return {(e0, e1, e2, e3): (re, im)}, den
        if not (e0 or e1 or e2 or e3 or im) and re == 1:
            return multi, den
        self.charge(len(multi))
        return {
            (k0 + e0, k1 + e1, k2 + e2, k3 + e3): (a * re - b * im, a * im + b * re)
            for (k0, k1, k2, k3), (a, b) in multi.items()
        }, den

    def power(self) -> tuple:
        value = self.atom()
        if self.tokens[self.index] != "^":
            return value
        self.index += 1
        exponent = self.integer()
        out = [None, None]
        for c in self.comps:
            nums, den = value[c]
            norm = sum(abs(re) + abs(im) for re, im in nums.values())
            self.charge(exponent * (max(norm.bit_length() - 1, 0) + den.bit_length() - 1))
            if len(nums) == 1:
                [((k0, k1, k2, k3), (a, b))] = nums.items()
                if not b:  # a real monomial
                    e = exponent
                    out[c] = ({(k0 * e, k1 * e, k2 * e, k3 * e): (a ** e, 0)}, den ** e)
                    continue
            out[c] = _pow_form(nums, den, exponent, self.mul)
        return tuple(out)

    def nested(self, opener: int) -> tuple:
        """The expression inside a parenthesis or call that the token at
        ``opener`` opens."""
        if self.depth == MAX_NESTING:
            raise self.error(f"parentheses and calls nest deeper than the limit of {MAX_NESTING}", opener)
        self.depth += 1
        value = self.expr()
        self.expect(")")
        self.depth -= 1
        return value

    def atom(self) -> tuple:
        start = self.index
        token = self.tokens[start]
        self.index += 1
        if token and token.isdecimal():
            value = int(token)
            form = ({_ZERO_MONO: (value, 0)} if value else {}, 1)
            return form, form
        if token == "(":
            return self.nested(start)
        terms = _ATOMS.get(token)
        if terms is not None:
            if not self.raw and token in VAR_NAMES:
                raise self.error(f"idempotent variable {token!r} requires raw idempotent mode", start)
            return terms
        func = _FUNCS.get(token)
        if func is not None:
            self.expect("(")
            outer, self.comps = self.comps, (0, 1)
            plus, minus = self.nested(start + 1)
            self.comps = outer
            self.charge(_CALL_PAIRS * (len(plus[0]) + len(minus[0])))
            value = func(BicomplexFunction(_poly(plus), _poly(minus)))
            return tuple(
                _integer_form((value.plus, value.minus)[c].terms) if c in outer else None for c in (0, 1)
            )
        raise self.error(f"expected an atom, found {_kind(token)!r}", start)


def parse(text: str, raw: bool = False) -> BicomplexFunction:
    """Parse an expression into canonical componentwise form.

    Parentheses and calls may nest at most ``MAX_NESTING`` deep; a sum or
    product may have any number of terms.  Raises ``ExprSyntaxError`` for
    malformed text and ``ExprLimitError`` when the expansion would need more
    than ``MAX_TERM_PAIRS`` term pairs.
    """
    plus, minus = _Reader(text, raw).read()
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
    return Poly4._raw(terms)  # the checks above are those of Poly4()


def _pair_to_json_obj(pair, keys: tuple[str, str]) -> dict:
    """A (plus, minus) pair as an object with the term lists under ``keys``."""
    return {keys[0]: _terms_to_json(pair.plus), keys[1]: _terms_to_json(pair.minus)}


def _pair_from_json_obj(cls, obj, path: str, keys: tuple[str, str]):
    """The ``cls`` pair of an object with exactly the two ``keys``."""
    plus, minus = keys
    if not isinstance(obj, dict) or set(obj) != {plus, minus}:
        raise JsonFormatError(f"{path}: expected an object with keys '{plus}' and '{minus}'")
    return cls(_terms_from_json(obj[plus], f"{path}.{plus}"), _terms_from_json(obj[minus], f"{path}.{minus}"))


def function_to_json_obj(fn: BicomplexFunction) -> dict:
    return _pair_to_json_obj(fn, ("plus", "minus"))


def function_from_json_obj(obj, path: str = "function") -> BicomplexFunction:
    return _pair_from_json_obj(BicomplexFunction, obj, path, ("plus", "minus"))


def function_to_json(fn: BicomplexFunction) -> str:
    return json.dumps(function_to_json_obj(fn), separators=(",", ":"))


def function_from_json(text: str) -> BicomplexFunction:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise JsonFormatError(f"function: invalid JSON ({exc})") from None
    return function_from_json_obj(obj)


def operator_to_json_obj(op: Operator) -> dict:
    return _pair_to_json_obj(op, ("op_plus", "op_minus"))


def operator_from_json_obj(obj, path: str = "operator") -> Operator:
    return _pair_from_json_obj(Operator, obj, path, ("op_plus", "op_minus"))
