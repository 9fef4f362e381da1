"""Reference polynomial kernels on GaussianRational coefficients.

These are the scalar loops that ``Poly4.__mul__``, ``Poly4.__pow__`` and
``Poly4.substitute`` ran before they moved to integer numerators over a
common denominator.  Tests compare the kernels against them: equal values
and the same term order.
"""

from bcpoly import GaussianRational
from bcpoly.polyfun import Poly4


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
