"""Hypothesis strategies for exact bicomplex objects (small, fast shapes)."""

import hypothesis.strategies as st

from bcpoly import Bicomplex, GaussianRational
from bcpoly.polyfun import BicomplexFunction, Poly4


def fractions_small():
    return st.fractions(min_value=-6, max_value=6, max_denominator=6)


def gaussians():
    return st.builds(GaussianRational, fractions_small(), fractions_small())


def bicomplexes():
    return st.builds(Bicomplex, gaussians(), gaussians())


def monomials(max_degree=3):
    exponent = st.integers(min_value=0, max_value=max_degree)
    return st.tuples(exponent, exponent, exponent, exponent)


def polys(max_terms=4, max_degree=3):
    return st.dictionaries(monomials(max_degree), gaussians(), max_size=max_terms).map(Poly4)


def functions(max_terms=4, max_degree=3):
    return st.builds(BicomplexFunction, polys(max_terms, max_degree), polys(max_terms, max_degree))


def conjugation_kinds():
    return st.sampled_from(["dagger", "tilde", "star"])


@st.composite
def disjoint_monomials(draw):
    """One to five monomials with pairwise disjoint supports: each variable
    goes to one of four terms or to none, and a constant may join them."""
    keys: dict = {}
    for var, owner in enumerate(draw(st.lists(st.sampled_from([None, 0, 1, 2, 3]), min_size=4, max_size=4))):
        if owner is not None:
            keys.setdefault(owner, [0, 0, 0, 0])[var] = draw(st.integers(1, 3))
    monos = [tuple(key) for key in keys.values()]
    if not monos or draw(st.booleans()):
        monos.append((0, 0, 0, 0))
    return monos


def disjoint(poly) -> bool:
    """Whether no variable appears in two terms of ``poly``."""
    return all(sum(1 for key in poly.terms if key[var]) < 2 for var in range(4))


def power_bases():
    """Bases of one to five terms, with disjoint supports, as a linear form
    in Z and its conjugates has in each component, or with monomials drawn
    freely, which may share variables."""
    keys = disjoint_monomials() | st.lists(monomials(max_degree=2), min_size=1, max_size=5, unique=True)
    coeff = gaussians().filter(lambda g: not g.is_zero())
    return keys.flatmap(lambda ks: st.lists(coeff, min_size=len(ks), max_size=len(ks)).map(lambda cs: Poly4(dict(zip(ks, cs)))))
