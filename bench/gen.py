"""Seeded input generators and reference answers for the request workloads.

Nothing here uses ``bcpoly.sampling``: a change to the program's sampler
must not change what the benchmark feeds the program.  Every input carries
its answer, planted by construction or computed by an evaluator that walks
the benchmark's own expression tree, so checking needs no second run of the
code under test.

Functions are built as plain ``{exponents: (re, im)}`` dictionaries of
``Fraction`` pairs and handed to the program through its public
constructors (``Poly4``, ``BicomplexFunction``); expressions are rendered to
the program's surface syntax.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

# ------------------------------------------------------------------ scalars


COEFF_BOUND = 5  # classify-decompose coefficients: p/q with |p|, q <= 5


def _fraction(rng: random.Random, nonzero: bool = True) -> Fraction:
    while True:
        q = Fraction(rng.randint(-COEFF_BOUND, COEFF_BOUND), rng.randint(1, COEFF_BOUND))
        if q or not nonzero:
            return q


def _gaussian(rng: random.Random) -> tuple[Fraction, Fraction]:
    """A nonzero Gaussian rational as a (re, im) pair."""
    while True:
        re, im = _fraction(rng, False), _fraction(rng, False)
        if re or im:
            return re, im


def _conj(c: tuple[Fraction, Fraction]) -> tuple[Fraction, Fraction]:
    return c[0], -c[1]


# ------------------------------------------------------ classify-decompose


@dataclass(frozen=True)
class ClassifyInput:
    """One classify-decompose request and its planted answers.

    ``plus``/``minus`` are the components of the classified function,
    ``box_plus``/``box_minus`` those of the hyperbolic-valued kernel-box
    function handed to ``main_decomposition`` with bounds ``bounds``.
    """

    plus: dict
    minus: dict
    signature: tuple[int, int, int]
    d1_order: int
    box_plus: dict
    box_minus: dict
    bounds: tuple[int, int]
    non_real: tuple[tuple[str, int, int], ...]


# Shapes of one block: (m, n, k, top degree, random terms per component,
# kernel-box bound_dagger, bound_tilde, real coefficients).  A block is
# always this multiset of shapes in a seeded order, so block cost hardly
# depends on the seed while every input stays distinct.
CLASSIFY_SHAPES = (
    (1, 1, 1, 2, 4, 1, 1, True),
    (1, 2, 1, 3, 6, 1, 2, True),
    (2, 1, 2, 3, 6, 2, 1, True),
    (2, 2, 2, 4, 8, 2, 2, True),
    (2, 2, 2, 4, 8, 2, 2, False),
    (3, 1, 2, 4, 8, 2, 3, True),
    (1, 3, 3, 5, 10, 3, 2, False),
    (3, 3, 1, 5, 10, 3, 3, True),
    (2, 3, 3, 5, 12, 2, 3, False),
    (3, 2, 3, 6, 12, 3, 3, False),
    (3, 3, 3, 6, 12, 3, 3, True),
    (4, 2, 3, 6, 14, 3, 4, False),
    (2, 4, 4, 6, 14, 4, 3, True),
    (4, 4, 2, 6, 16, 4, 4, False),
    (3, 4, 4, 7, 16, 3, 4, True),
    (4, 3, 4, 7, 16, 4, 4, False),
)


def _signature_function(rng, m, n, k, top, terms):
    """Components with annihilation signature exactly (m, n, k).

    Plus monomials (x_a, x_ac, x_b, x_bc) keep x_ac < m, x_bc < n, x_b < k;
    minus monomials (y_a, y_ac, y_b, y_bc) keep y_bc < m, y_ac < n, y_a < k.
    One anchor per component reaches all three limits, so each degree is
    attained.  Coefficients are nonzero and keys distinct, so nothing
    cancels and the d1 order is read off the keys.
    """
    plus, minus = {}, {}
    for _ in range(terms):
        plus[(rng.randint(0, top), rng.randint(0, m - 1), rng.randint(0, k - 1), rng.randint(0, n - 1))] = _gaussian(rng)
        minus[(rng.randint(0, k - 1), rng.randint(0, n - 1), rng.randint(0, top), rng.randint(0, m - 1))] = _gaussian(rng)
    plus[(rng.randint(0, top), m - 1, k - 1, n - 1)] = _gaussian(rng)
    minus[(k - 1, n - 1, rng.randint(0, top), m - 1)] = _gaussian(rng)
    # d1 = (d_a d_ac, d_b d_bc) kills a monomial after 1 + min(pair exponents) steps
    d1 = 1 + max(
        max(min(a, ac) for a, ac, _, _ in plus),
        max(min(b, bc) for _, _, b, bc in minus),
    )
    return plus, minus, d1


def _real_pair_poly(rng, pair: int, degree: int, terms: int) -> dict:
    """A real-valued polynomial on one variable pair (0: alpha, 2: beta).

    Built from distinct unordered exponent pairs: off-diagonal c z^p zbar^q
    is paired with conj(c) z^q zbar^p, the diagonal gets a real coefficient.
    """
    out = {}
    for _ in range(terms):
        p, q = rng.randint(0, degree), rng.randint(0, degree)
        c = _gaussian(rng) if p != q else (_fraction(rng), Fraction(0))
        key, mirror = [0, 0, 0, 0], [0, 0, 0, 0]
        key[pair], key[pair + 1] = p, q
        mirror[pair], mirror[pair + 1] = q, p
        out[tuple(key)] = c
        out[tuple(mirror)] = _conj(c)
    return out


def _non_real_pair_poly(rng, pair: int, degree: int, terms: int) -> dict:
    """A pair polynomial that is certainly not real-valued: a real-valued
    one plus a purely imaginary diagonal monomial above its degree."""
    out = _real_pair_poly(rng, pair, degree, terms)
    key = [0, 0, 0, 0]
    key[pair] = key[pair + 1] = degree + 1
    out[tuple(key)] = (Fraction(0), _fraction(rng))
    return out


def _shift(poly: dict, offset: tuple[int, int, int, int]) -> dict:
    return {tuple(e + o for e, o in zip(key, offset)): c for key, c in poly.items()}


def _kernel_box_function(rng, bound_dagger: int, bound_tilde: int, real: bool):
    """Hyperbolic-valued F = sum G_(l1,l2) Zdagger^l1 Ztilde^l2 inside the
    dagger^n / tilde^k kernel box, with the non-real coefficient list known.

    Hyperbolic values pair the (l1, l2) coefficient with the bar of the
    (l2, l1) one, so the support is the min(n, k) square; the non-real case
    makes at least the (0, 1) pair non-real (side >= 2 required).
    """
    side = min(bound_dagger, bound_tilde)
    if not real and side < 2:
        raise ValueError("non-real coefficients need both bounds >= 2")
    plus, minus = {}, {}
    non_real = []
    for l1 in range(side):
        for l2 in range(l1, side):
            odd = not real and l1 != l2 and ((l1, l2) == (0, 1) or rng.random() < 0.5)
            coeffs = []
            for pair in (0, 2):
                make = _non_real_pair_poly if odd else _real_pair_poly
                coeffs.append(make(rng, pair, rng.randint(1, 2), rng.randint(1, 3)))
            cp, cm = coeffs
            # plus carries (beta, conj beta) powers, minus (alpha, conj alpha)
            for (i1, i2), sp, sm in (((l1, l2), cp, cm), ((l2, l1), _bar(cp), _bar(cm))):
                plus.update(_shift(sp, (0, 0, i1, i2)))
                minus.update(_shift(sm, (i1, i2, 0, 0)))
                if odd:
                    non_real += [("minus", i1, i2), ("plus", i1, i2)]
    return plus, minus, tuple(sorted(set(non_real)))


def _bar(poly: dict) -> dict:
    """Pointwise conjugate: swap each variable with its partner, conjugate."""
    return {(b, a, d, c): _conj(coeff) for (a, b, c, d), coeff in poly.items()}


def classify_block(rng: random.Random) -> list[ClassifyInput]:
    shapes = list(CLASSIFY_SHAPES)
    rng.shuffle(shapes)
    block = []
    for m, n, k, top, terms, bd, bt, real in shapes:
        plus, minus, d1 = _signature_function(rng, m, n, k, top, terms)
        bplus, bminus, non_real = _kernel_box_function(rng, bd, bt, real)
        block.append(ClassifyInput(plus, minus, (m, n, k), d1, bplus, bminus, (bd, bt), non_real))
    return block


# ---------------------------------------------------------------- expr-eval
#
# Expression trees are tuples:
#   ("Z",)  ("unit", name)  ("num", Fraction, Fraction)   -- re, im
#   ("call", func, arg)  ("neg", x)  ("+"|"-"|"*", x, y)  ("^", x, n)
#   ("/", x, int)

_UNITS = ("i", "j", "k", "e+", "e-")
_CALLS = ("dag", "til", "star", "rehyp", "rec")
_COORDS = (("Z",), ("call", "star", ("Z",)), ("call", "dag", ("Z",)), ("call", "til", ("Z",)))

# Terms per component above which reparsing the canonical text of the
# parsed function exhausts the default recursion limit.
RECURSION_TERMS = 1000


def _num_text(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator) if q >= 0 else f"({q.numerator})"
    return f"({q.numerator}/{q.denominator})"


def render(node) -> str:
    """Surface syntax for a tree, fully parenthesized where it matters."""
    kind = node[0]
    if kind == "Z":
        return "Z"
    if kind == "unit":
        return node[1]
    if kind == "num":
        re, im = node[1], node[2]
        if not im:
            return _num_text(re)
        if not re:
            return f"({_num_text(im)}*i)"
        return f"({_num_text(re)} + {_num_text(im)}*i)"
    if kind == "call":
        return f"{node[1]}({render(node[2])})"
    if kind == "neg":
        return f"-({render(node[1])})"
    if kind == "^":
        return f"({render(node[1])})^{node[2]}"
    if kind == "/":
        return f"({render(node[1])})/{node[2]}"
    return f"({render(node[1])} {kind} {render(node[2])})"


def reference_value(node, point, bicomplex):
    """Evaluate a tree at a point with the scalar class ``bicomplex.Bicomplex``.

    This walks the expression itself, so it shares no code with the
    program's polynomial lowering, expansion or evaluation.
    """
    Bicomplex = bicomplex.Bicomplex
    kind = node[0]
    if kind == "Z":
        return point
    if kind == "unit":
        return _unit_values(bicomplex)[node[1]]
    if kind == "num":
        return Bicomplex.coerce(bicomplex.GaussianRational(node[1], node[2]))
    if kind == "call":
        v = reference_value(node[2], point, bicomplex)
        if node[1] == "dag":
            return v.conjugate("dagger")
        if node[1] == "til":
            return v.conjugate("tilde")
        if node[1] == "star":
            return v.conjugate("star")
        if node[1] == "rehyp":
            return (v + v.conjugate("star")) / 2
        return (v + v.conjugate("dagger") + v.conjugate("tilde") + v.conjugate("star")) / 4
    if kind == "neg":
        return -reference_value(node[1], point, bicomplex)
    if kind == "^":
        return reference_value(node[1], point, bicomplex) ** node[2]
    if kind == "/":
        return reference_value(node[1], point, bicomplex) / node[2]
    left = reference_value(node[1], point, bicomplex)
    right = reference_value(node[2], point, bicomplex)
    if kind == "+":
        return left + right
    if kind == "-":
        return left - right
    return left * right


def _unit_values(bicomplex) -> dict:
    return {"i": bicomplex.I, "j": bicomplex.J, "k": bicomplex.K, "e+": bicomplex.E_PLUS, "e-": bicomplex.E_MINUS}


# Costs grow with coefficient and point size, so both are drawn from sets of
# one size class: seeds change the values, not the work.
_COEFF_RE = tuple(Fraction(n, 2) for n in (-3, -1, 1, 3))
_COEFF_IM = tuple(Fraction(n, 3) for n in (-2, -1, 1, 2))
_POINT_UNITS = tuple(Fraction(s * n, d) for s in (-1, 1) for n in (1, 2, 3) for d in (2, 3))


def _coeff_node(rng):
    return ("num", rng.choice(_COEFF_RE), rng.choice(_COEFF_IM))


def _linear(rng, coords):
    """c0 + sum of c_i * coord over the given coordinates; nonzero Gaussian
    coefficients are nonzero in both idempotent components, so powers of
    the form have every monomial."""
    node = _coeff_node(rng)
    for coord in coords:
        node = ("+", node, ("*", _coeff_node(rng), coord))
    return node


def _small_tree(rng, shape: int, call: str):
    """A fixed-shape expression of a few terms with random atoms and units.
    Shape 1: f(c*X + c*Y) * (c*U + c*u).  Shape 2:
    (c*X + c*Y - u)^3 / n + f(c*U*V) * c."""
    x, y = rng.sample(_COORDS, 2)
    u, v = rng.choice(_COORDS), rng.choice(_COORDS)
    unit = ("unit", rng.choice(_UNITS))
    if shape == 1:
        left = ("call", call, ("+", ("*", _coeff_node(rng), x), ("*", _coeff_node(rng), y)))
        right = ("+", ("*", _coeff_node(rng), u), ("*", _coeff_node(rng), unit))
        return ("*", left, right)
    cube = ("^", ("-", ("+", ("*", _coeff_node(rng), x), ("*", _coeff_node(rng), y)), unit), 3)
    tail = ("*", ("call", call, ("*", ("*", _coeff_node(rng), u), v)), _coeff_node(rng))
    return ("+", ("/", cube, rng.randint(2, 5)), tail)


def _expansion_tree(rng, coords: int, degree: int):
    """A power of one linear form in ``coords`` coordinates, or for degree 4
    and 6 the product of the halves' powers of two such forms; generic
    coefficients give C(degree + coords, coords) terms."""
    chosen = rng.sample(_COORDS, coords)
    if degree in (4, 6):
        half = degree // 2
        return ("*", ("^", _linear(rng, chosen), half), ("^", _linear(rng, chosen), degree - half))
    return ("^", _linear(rng, chosen), degree)


# One expr-eval block: distinct texts by tier, each requested twice (fresh,
# then again later in the block at fresh points).  Tiers are (count, coords,
# level): with coords None a small tree of shape ``level``, the calls taken
# in turn; else an expansion of degree ``level``.  Terms per component
# run from a few up to C(14, 4) = 1001 for the single large text, so 2 of
# 100 requests lie above the recursion limit.  Tiers are listed from cheap
# to dear.  The 50th slowest of each 100 requests lies in the middle of the
# 24 cubes of a two-coordinate form, whose cost varies by a few percent, and
# the 90th inside the 70-term products; a percentile that fell where costs
# rise steeply would move with the seed.
EXPR_TIERS = (
    (14, None, 1),
    (5, None, 2),
    (12, 2, 3),
    (6, 2, 4),
    (4, 3, 3),
    (2, 3, 4),
    (4, 4, 4),
    (1, 4, 6),
    (1, 4, 8),
    (1, 4, 10),
)


POINTS = 2  # evaluation points per request


def _point(rng) -> tuple:
    """Four unit-basis coordinates of a bicomplex point."""
    return tuple(rng.choice(_POINT_UNITS) for _ in range(4))


@dataclass(frozen=True)
class ExprRequest:
    text: str
    tree: tuple
    points: tuple  # per point, its four unit-basis coordinates


def expr_block(rng: random.Random) -> list[ExprRequest]:
    distinct = []
    for count, coords, level in EXPR_TIERS:
        for index in range(count):
            if coords is None:
                tree = _small_tree(rng, level, _CALLS[index % len(_CALLS)])
            else:
                tree = _expansion_tree(rng, coords, level)
            distinct.append((render(tree), tree))
    # each text is requested twice, the second time at fresh points
    order = list(range(len(distinct))) * 2
    rng.shuffle(order)
    return [ExprRequest(*distinct[index], tuple(_point(rng) for _ in range(POINTS))) for index in order]
