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
while the text is read.  A power of a sum whose terms share no variable,
such as a linear form in Z and its conjugates in each component, is
expanded by the multinomial theorem once that takes fewer steps than
square-and-multiply; it is charged, before any work, the term pairs
square-and-multiply would multiply, so every text is accepted or refused
alike on either route.  A call runs on its argument's integer forms and
is charged the terms it writes.  The work of a parse is bounded by
``MAX_TERM_PAIRS``, past which ``ExprLimitError`` is raised, possibly
before a syntax error later in the text.

The canonical text for a function is ``plus-poly | minus-poly`` with
monomials in ascending lexicographic exponent order; parsing the canonical
text in raw mode restores the function exactly.  Such text is read one
printed term per match of ``_CANONICAL_TERM``, each coefficient built from
its printed parts, which are in lowest terms, with the reader's results,
work charges, limits and errors: at the first text that is not a printed
term, the reader reads the whole text.  The JSON codecs are bit-exact round
trips over the same sorted term lists.  Every reader returns polynomials
that store their coefficients as lowest-terms integer parts, which the
printers read; their Gaussian-rational terms are built only when read.
Every printed number goes through one renderer, which raises
``OutputLimitError`` past Python's int-to-string digit limit.
"""

from __future__ import annotations

import json
import re
import sys
from itertools import islice, starmap
from math import lcm

from .bicomplex import Bicomplex, BicomplexError
from .bicomplex import E_MINUS, E_PLUS, I, J, K
from .bicomplex import _in_lowest_terms, _join_terms, _number_text, _output_limit_error, _parts_from_json, _signed_unit_term
from .operators import Operator
from .polyfun import BicomplexFunction, Poly4
from .polyfun import _ZERO_MONO, _PartsPoly4, _bar_form, _cached_form, _hyperbolic_form, _mul_nums
from .polyfun import _multinomial_form, _multinomial_pairs, _poly_of_form, _pow_form

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
# n-term component counts m*n, as does each multiply inside a power.  Where
# the multinomial kernel takes a power (of a sum whose terms share no
# variable), the power counts, before any work, the pairs square-and-multiply
# would multiply.  A power x^e also counts e times the bits its numbers can
# gain per factor (log2 of x's denominator and of the sum of |re| + |im|
# over its numerators), and a factor or divisor of a term counts its bits
# once the term's coefficient or divisor is past _RESCALE_BITS bits.  A
# call counts the terms it writes, one pass over its argument.  A sum whose
# common denominator grows rescales its accumulated terms, two multiplies
# each against a term pair's four, so each rescale counts half their
# number, and as much again for each further _RESCALE_BITS bits of the new
# denominator per 30-bit digit of the rescaling factor: about the bits that
# a term pair's time multiplies by a one-digit factor (0.35 us a pair
# against 19 ns per thousand bits, on a 2-core x86 VM).  So a charged pair
# of a sum over primes and of one over 31-digit denominators takes about
# the same time, near 1.2 us there.  The benchmark's largest
# expression needs 26 thousand, (Z+star(Z)+1)^60 570 thousand.
MAX_TERM_PAIRS = 800_000
_RESCALE_BITS = 1 << 14

_FUNCS = {"dag", "til", "star", "rehyp", "rec"}

# the values of the named atoms, as integer forms per component; shared,
# so no rule may add into them
_ATOMS = {
    name: (_cached_form(fn.plus), _cached_form(fn.minus))
    for name, fn in (
        ("Z", BicomplexFunction.variable()),
        *((name, BicomplexFunction.constant(unit)) for name, unit in
          (("i", I), ("j", J), ("k", K), ("e+", E_PLUS), ("e-", E_MINUS))),
        *((name, BicomplexFunction.from_shared(Poly4.variable(var))) for var, name in enumerate(VAR_NAMES)),
    )
}
_SYMBOLS = {"+", "-", "*", "/", "^", "(", ")", "|"}
_KNOWN = set(_ATOMS) | _FUNCS | _SYMBOLS | {""}


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


def _factor_bits(nums: dict, den: int) -> int:
    """The bits that multiplying by the form ``nums/den`` can add to a
    number: log2 of its denominator and of the sum of |re| + |im| over its
    numerators."""
    norm = sum(abs(re) + abs(im) for re, im in nums.values())
    return max(norm.bit_length() - 1, 0) + den.bit_length() - 1


def _rescale_charge(n_terms: int, den: int, term_den: int, charge) -> int:
    """The common denominator of a sum of ``n_terms`` over ``den`` and a
    term over ``term_den``; when it is new, rescaling the sum is charged to
    the work budget as ``n_terms // 2`` term pairs, and as much again for
    each whole ``_RESCALE_BITS`` bits of it times each 30-bit digit of the
    factor that rescales it (an int multiply costs the product of the
    digit counts)."""
    common = lcm(den, term_den)
    if common != den:
        bits = common.bit_length()
        factor_digits = (bits - den.bit_length() + 30) // 30  # factor < 2^(bits - den bits + 1)
        charge(n_terms // 2 * (1 + bits * factor_digits // _RESCALE_BITS))
    return common


def _add_into(acc: dict, acc_den: int, nums: dict, den: int, sign: int, charge) -> int:
    """Add ``sign * nums/den`` to ``acc/acc_den`` in place; returns the new
    common denominator of ``acc``.  A new denominator rescales all of
    ``acc``, which is charged to the work budget through ``charge``."""
    common = _rescale_charge(len(acc), acc_den, den, charge)
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


class _Budget:
    """The expansion work of one parse, charged against ``MAX_TERM_PAIRS``."""

    def __init__(self):
        self.work = 0

    def charge(self, pairs: int) -> None:
        self.work += pairs
        if self.work > MAX_TERM_PAIRS:
            raise ExprLimitError(f"expansion needs more than the limit of {MAX_TERM_PAIRS} term pairs")


class _Reader(_Budget):
    """Recursive descent over the lexemes of one text.

    Each rule returns a value: a pair of integer forms ``(nums, den)``, one
    per component (0: plus, 1: minus), of which only the components in
    ``comps`` are computed (the others may be None).  The two sides of
    'P | M' each compute just the component they give; a call computes
    both for its argument.  The forms that ``term`` and a call return are
    new dicts, one per component (rec's two included), so a sum may add
    into its first term in place, and rec into its argument.
    """

    def __init__(self, text: str, raw: bool):
        super().__init__()
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
        return self.literal(self.index - 1)

    def literal(self, index: int) -> int:
        """The value of the integer token at ``index``."""
        try:
            return int(self.tokens[index])
        except ValueError:  # past Python's int conversion limit
            limit = sys.get_int_max_str_digits()
            raise self.error(f"integer literal longer than the limit of {limit} digits", index) from None

    def mul(self, a: dict, b: dict) -> dict:
        self.charge(len(a) * len(b))
        return _mul_nums(a, b)

    def call(self, name: str, plus: tuple, minus: tuple) -> tuple:
        """The components in ``comps`` of the call ``name`` on an argument
        of forms ``plus`` and ``minus``, each charged the terms it writes:
        dag swaps them, star bars each and til does both, rehyp is
        (p + bar(p))/2 per component, and rec is (s + bar(s))/4 in both for
        s the sum of the two, added into ``plus`` in place."""
        if name == "dag":
            return minus, plus
        if name == "til":
            plus, minus = minus, plus
        elif name == "rec":
            plus = minus = (plus[0], _add_into(*plus, *minus, 1, self.charge))
        out = [None, None]
        for c in self.comps:
            form = (plus, minus)[c]
            out[c] = _bar_form(*form) if name in ("star", "til") else _hyperbolic_form(*form, 2 if name == "rehyp" else 4)
            self.charge(len(out[c][0]))
        return tuple(out)

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
                if divisor.bit_length() > _RESCALE_BITS:  # a long divisor chain
                    self.charge(value.bit_length() - 1)
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
        are multiplied.  Once the coefficient or the denominator is past
        ``_RESCALE_BITS`` bits, each further factor after the first is
        charged its bits."""
        e0 = e1 = e2 = e3 = 0
        re, im, den = sign, 0, divisor
        multi, big, later = None, _RESCALE_BITS, False
        for nums, d in forms:
            if later and (den.bit_length() > big or re.bit_length() > big or im.bit_length() > big):
                self.charge(_factor_bits(nums, d))
            later = True
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
            self.charge(exponent * _factor_bits(nums, den))
            if len(nums) == 1:
                [((k0, k1, k2, k3), (a, b))] = nums.items()
                if not b:  # a real monomial
                    e = exponent
                    out[c] = ({(k0 * e, k1 * e, k2 * e, k3 * e): (a ** e, 0)}, den ** e)
                    continue
            pairs = _multinomial_pairs(nums, exponent)
            if pairs is None:
                out[c] = _pow_form(nums, den, exponent, self.mul)
            else:  # charged, before any work, what _pow_form would charge
                self.charge(pairs)
                out[c] = _multinomial_form(nums, den, exponent)
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
            value = self.literal(start)
            form = ({_ZERO_MONO: (value, 0)} if value else {}, 1)
            return form, form
        if token == "(":
            return self.nested(start)
        terms = _ATOMS.get(token)
        if terms is not None:
            if not self.raw and token in VAR_NAMES:
                raise self.error(f"idempotent variable {token!r} requires raw idempotent mode", start)
            return terms
        if token in _FUNCS:
            self.expect("(")
            outer, self.comps = self.comps, (0, 1)
            argument = self.nested(start + 1)
            self.comps = outer
            return self.call(token, *argument)
        raise self.error(f"expected an atom, found {_kind(token)!r}", start)


# One term of the canonical text per match, as format_poly prints it: the
# separator, or the first term's sign; a mixed, imaginary or real coefficient;
# then the monomial's factors in order, each after a '*' when a coefficient or
# factor precedes it.  Numbers have no zero, no leading zero and no 1 before
# '*'; exponents are at least 2.
_NUMBER = r"(?!1\*)([1-9]\d*)(?:/([1-9]\d*))?"
_POWER = r"(\^(?!1(?!\d))[1-9]\d*|)"
_FACTOR = r"(?:(?<=[\w)])\*|(?<![\w)]))"
_CANONICAL_TERM = re.compile(
    rf"( [+-] |-(?!\()|)(?=[\w(])(?:\((-?){_NUMBER}([+-])(?:{_NUMBER}\*)?i\)|(?:{_NUMBER}\*)?(i)|{_NUMBER})?"
    rf"(?:{_FACTOR}a(?!c){_POWER})?(?:{_FACTOR}ac{_POWER})?(?:{_FACTOR}b(?!c){_POWER})?(?:{_FACTOR}bc{_POWER})?"
    r"(?= [+-] |\Z)"
)


def _read_canonical(text: str, budget: _Budget) -> tuple[Poly4, Poly4] | None:
    """The components that ``_Reader(text, True).read()`` gives for the
    canonical text of a function, as ``format_poly`` prints it: each monomial
    once, in ascending order.  Read one term per match, each coefficient
    straight from its printed parts; None at the first thing that is not a
    canonical term, an out-of-order or repeated monomial included, for the
    reader to read the whole text.  Terms come in the reader's order, and the
    common denominator the reader would rescale its sum to is kept only to
    charge the same work, through ``_rescale_charge`` as in ``_add_into``."""
    mid = text.find(" | ") if isinstance(text, str) else -1
    if mid < 0:
        return None
    value = []
    try:
        for pos, end in ((0, mid), (mid + 3, len(text))):
            terms, den, last = None, 1, ()
            if end == pos + 1 and text[pos] == "0":
                terms, pos = {}, end
            while pos < end:
                match = _CANONICAL_TERM.match(text, pos, end)
                if match is None or (terms is None) == (len(match[1]) == 3):
                    return None
                pos = match.end()
                sep, re_sign, re_n, re_d, im_sign, im_n, im_d, i_n, i_d, i, r_n, r_d, *powers = match.groups()
                if re_n is None:  # not (re+im*i): an imaginary or a real coefficient
                    re_n, re_d, im_n, im_d = ("0", None, i_n, i_d) if i else (r_n or "1", r_d, "0", None)
                if re_d == "1" or im_d == "1":
                    return None
                negative = sep == " - " or sep == "-"
                re_num, re_den, im_num, im_den = int(re_n), int(re_d or 1), int(im_n or 1), int(im_d or 1)
                re_num = -re_num if (re_sign == "-") != negative else re_num
                im_num = -im_num if (im_sign == "-") != negative else im_num
                if not (_in_lowest_terms(re_num, re_den) and _in_lowest_terms(im_num, im_den)):
                    return None
                key = tuple([0 if p is None else int(p[1:] or 1) for p in powers])
                if key <= last:  # out of order or repeated: not printed text
                    return None
                if terms is None:
                    terms = {}
                den = _rescale_charge(len(terms), den, lcm(re_den, im_den), budget.charge)
                terms[key], last = (re_num, re_den, im_num, im_den), key
            if terms is None:
                return None
            value.append(_PartsPoly4(terms))
    except ValueError:  # a number past int's digit limit, which the reader reports
        return None
    except ExprLimitError:
        _Reader(text, True)  # the reader reports a bad token anywhere before its limit
        raise
    return value[0], value[1]


def parse(text: str, raw: bool = False) -> BicomplexFunction:
    """Parse an expression into canonical componentwise form.

    Parentheses and calls may nest at most ``MAX_NESTING`` deep; a sum or
    product may have any number of terms.  Raises ``ExprSyntaxError`` for
    malformed text and ``ExprLimitError`` when the expansion would need more
    than ``MAX_TERM_PAIRS`` term pairs.
    """
    value = _read_canonical(text, _Budget()) if raw else None
    if value is None:
        value = starmap(_poly_of_form, _Reader(text, raw).read())
    return BicomplexFunction(*value)


def parse_point(text: str) -> Bicomplex:
    """Parse a constant expression into a bicomplex value."""
    fn = parse(text, raw=False)
    if not fn.is_constant():
        raise BicomplexError("expected a constant bicomplex value, got a non-constant expression")
    return fn.constant_value()


# ---------------------------------------------------------------- printing

def _coeff_prefix(parts: tuple, has_monomial: bool) -> str:
    """Render a coefficient from its parts, with trailing '*' when a
    monomial follows."""
    re_num, re_den, im_num, im_den = parts
    if not im_num:
        if has_monomial and re_den == 1 and (re_num == 1 or re_num == -1):
            return "" if re_num == 1 else "-"
        body = _number_text(re_num, re_den)
    else:
        body = _signed_unit_term(im_num, im_den, "i")
        if re_num:
            body = f"({_number_text(re_num, re_den)}{body if body[0] == '-' else '+' + body})"
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
    try:
        for key, parts in sorted(poly._coeff_parts().items()):
            monomial = _monomial_text(key)
            rendered.append(_coeff_prefix(parts, bool(monomial)) + monomial)
    except ValueError:  # an exponent past the int-to-string digit limit
        raise _output_limit_error() from None
    return _join_terms(rendered)


def format_function(fn: BicomplexFunction) -> str:
    return f"{format_poly(fn.plus)} | {format_poly(fn.minus)}"


# ---------------------------------------------------------------- json

def _terms_to_json(poly: Poly4) -> list:
    return [
        [*key, [_number_text(re), _number_text(re_den), _number_text(im), _number_text(im_den)]]
        for key, (re, re_den, im, im_den) in sorted(poly._coeff_parts().items())
    ]


def _terms_from_json(data, path: str) -> Poly4:
    if not isinstance(data, list):
        raise JsonFormatError(f"{path}: expected a list of terms")
    terms = {}
    for idx, entry in enumerate(data):
        # each rule in order; the path of an entry is built only to raise
        if not isinstance(entry, list) or len(entry) != 5:
            raise JsonFormatError(f"{path}[{idx}]: expected [a, b, c, d, coeff]")
        e0, e1, e2, e3, coeff = entry
        key = (e0, e1, e2, e3)
        for e in key:
            if not isinstance(e, int) or isinstance(e, bool) or e < 0:
                raise JsonFormatError(f"{path}[{idx}]: exponents must be nonnegative integers")
        try:
            parts = _parts_from_json(coeff, "")
        except BicomplexError as exc:
            raise JsonFormatError(f"{path}[{idx}][4]{exc}") from None
        if key in terms:
            raise JsonFormatError(f"{path}[{idx}]: duplicate monomial {key}")
        if not (parts[0] or parts[2]):
            raise JsonFormatError(f"{path}[{idx}]: explicit zero coefficient")
        terms[key] = parts
    return _PartsPoly4(terms)  # the checks above are those of Poly4()


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


def _json_text(obj, **options) -> str:
    """``json.dumps`` of lists, dicts, strings, bools and ints, where an int
    past the int-to-string digit limit (in a function, an exponent) raises
    ``OutputLimitError``."""
    try:
        return json.dumps(obj, **options)
    except ValueError:
        raise _output_limit_error() from None


def function_to_json(fn: BicomplexFunction) -> str:
    return _json_text(function_to_json_obj(fn), separators=(",", ":"))


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
