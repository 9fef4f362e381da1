"""Reference kernels on GaussianRational coefficients.

``ref_gr_mul`` is the product of two Gaussian rationals on four ``Fraction``
products, as ``GaussianRational.__mul__`` computed it before it moved to
integer parts.  The others are the scalar loops that ``Poly4.__mul__``,
``Poly4.__pow__`` and ``Poly4.substitute`` ran before they moved to integer
numerators over a common denominator, and the per-variable derivative and
the chain of derivatives, scales and sums that ``Poly4.diff`` and
``Operator.apply`` ran before the one-pass ``Poly4.derive``.  ``ref_add``,
``ref_scale``, ``ref_bar``, ``ref_group_by`` and ``ref_is_bar_fixed`` are
the loops over GaussianRational terms that ``Poly4`` runs for them, or ran
before the hyperbolic-valued test read coefficient parts.  Tests compare the
kernels against them: equal values and the same term order.
"""

from math import perm

from bcpoly import GaussianRational
from bcpoly.polyfun import Poly4


def ref_gr_mul(x, y) -> GaussianRational:
    x, y = GaussianRational.coerce(x), GaussianRational.coerce(y)
    return GaussianRational(x.re * y.re - x.im * y.im, x.re * y.im + x.im * y.re)


def ref_mul(p: Poly4, q: Poly4) -> Poly4:
    out = {}
    for ka, ca in p.terms.items():
        for kb, cb in q.terms.items():
            key = (ka[0] + kb[0], ka[1] + kb[1], ka[2] + kb[2], ka[3] + kb[3])
            prod = ca * cb
            acc = out.get(key)
            total = prod if acc is None else acc + prod
            if total.is_zero():
                out.pop(key, None)
            else:
                out[key] = total
    return Poly4._raw(out)


def ref_pow(p: Poly4, exponent: int) -> Poly4:
    out = Poly4.constant(1)
    base = p
    n = exponent
    while n:
        if n & 1:
            out = ref_mul(out, base)
        base = ref_mul(base, base) if n > 1 else base
        n >>= 1
    return out


def ref_substitute(p: Poly4, values) -> GaussianRational:
    values = tuple(GaussianRational.coerce(v) for v in values)
    total = GaussianRational(0)
    for key, coeff in p.terms.items():
        term = coeff
        for var, e in enumerate(key):
            if e:
                term = term * (values[var] ** e)
        total = total + term
    return total


def ref_diff(p: Poly4, var: int, times: int) -> Poly4:
    out = {}
    for key, coeff in p.terms.items():
        e = key[var]
        if e < times:
            continue
        new_key = list(key)
        new_key[var] = e - times
        out[tuple(new_key)] = coeff * perm(e, times)  # keys stay distinct: injective shift
    return Poly4._raw(out)


def ref_apply(op_poly: Poly4, target: Poly4) -> Poly4:
    """One component of ``Operator.apply``: op_poly applied to target."""
    out = Poly4.zero()
    for key, coeff in op_poly.terms.items():
        piece = target
        for var, times in enumerate(key):
            if times:
                piece = ref_diff(piece, var, times)
                if piece.is_zero():
                    break
        if not piece.is_zero():
            out = out + piece.scale(coeff)
    return out


def ref_add(p: Poly4, q: Poly4) -> Poly4:
    out = dict(p.terms)
    for key, coeff in q.terms.items():
        acc = out.get(key)
        total = coeff if acc is None else acc + coeff
        if total.is_zero():
            out.pop(key, None)
        else:
            out[key] = total
    return Poly4._raw(out)


def ref_scale(p: Poly4, value) -> Poly4:
    value = GaussianRational.coerce(value)
    if value.is_zero():
        return Poly4.zero()
    return Poly4._raw({key: coeff * value for key, coeff in p.terms.items()})


def ref_bar(p: Poly4) -> Poly4:
    return Poly4._raw({(b, a, d, c): coeff.conjugate() for (a, b, c, d), coeff in p.terms.items()})


def ref_group_by(p: Poly4, positions) -> dict:
    groups: dict = {}
    for key, coeff in p.terms.items():
        residual = list(key)
        for pos in positions:
            residual[pos] = 0
        groups.setdefault(tuple(key[pos] for pos in positions), {})[tuple(residual)] = coeff
    return {index: Poly4._raw(terms) for index, terms in groups.items()}


def ref_is_bar_fixed(p: Poly4) -> bool:
    for (a, b, c, d), coeff in p.terms.items():
        partner = p.terms.get((b, a, d, c))
        if partner is None or partner != coeff.conjugate():
            return False
    return True
