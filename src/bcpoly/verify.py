"""Seeded randomized verification suites for every stated identity.

Each suite draws inputs from a deterministic :class:`~bcpoly.sampling.Sampler`
and checks exact (zero-tolerance) equalities.  Every failing trial counts:
nothing is redrawn.  A suite result records the trial count, failure count,
the seed, and the first counterexample in serialized form; its report also
carries a ``retries`` key, always 0, for readers of the report format.
Identical parameters always produce byte-identical reports.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Optional

from . import worked_examples
from .bicomplex import ArgumentError, Bicomplex, E_MINUS, E_PLUS, GaussianRational, K, ONE
from .classify import (
    class_membership,
    pair_polyharmonic_order,
    polyharmonic_order,
    signature_by_degrees,
    signature_by_iteration,
)
from .decompose import (
    NotInClass,
    PreconditionViolation,
    almansi_bicomplex,
    almansi_complex,
    expand_conjugate_basis,
    expand_zstar,
    main_decomposition,
    rehyp_to_holomorphic,
    rehyp_to_polyholomorphic_A1,
)
from .expr import (
    format_function,
    function_from_json,
    function_to_json,
    operator_from_json_obj,
    operator_to_json_obj,
    parse,
)
from .operators import Operator, laplacian, wirtinger
from .polyfun import _PAIRS, PAIR_ALPHA, BicomplexFunction, Poly4
from .sampling import Sampler

__all__ = ["SuiteResult", "SUITE_NAMES", "DEFAULT_TRIALS", "run_suite", "report_to_json"]

# The conjugation composition law on values: second∘first == expected.  An
# operator kind is the value kind with "_op" appended.
_ROTATIONS = (
    ("dagger", "tilde", "star"),
    ("tilde", "dagger", "star"),
    ("star", "tilde", "dagger"),
    ("tilde", "star", "dagger"),
    ("star", "dagger", "tilde"),
    ("dagger", "star", "tilde"),
)

# The worked example's real cross term, outside the Z^* class; parsed once
# here, not by the full reader on every almansi-roundtrip trial
_CROSS_TERM = worked_examples.real_cross_term()


@dataclass
class SuiteResult:
    name: str
    trials: int
    failures: int
    seed: int
    first_counterexample: Optional[dict] = None
    flags: dict = field(default_factory=dict)

    def to_json_obj(self) -> dict:
        return {
            "name": self.name,
            "trials": self.trials,
            "failures": self.failures,
            "retries": 0,
            "seed": self.seed,
            "first_counterexample": self.first_counterexample,
            "flags": self.flags,
        }


def _fail(check: str, **context) -> dict:
    payload = {"check": check}
    payload.update(context)
    return payload


# --------------------------------------------------------------- suites

def _trial_core_algebra(s: Sampler, flags: dict) -> Optional[dict]:
    z, w, v = s.bicomplex(), s.bicomplex(), s.bicomplex()
    if not (E_PLUS * E_PLUS == E_PLUS and E_MINUS * E_MINUS == E_MINUS):
        return _fail("idempotent-squares")
    if not (E_PLUS * E_MINUS == Bicomplex(0, 0) and E_PLUS + E_MINUS == ONE and E_PLUS - E_MINUS == K):
        return _fail("idempotent-table")
    if z.det() != z.alpha * z.beta:
        return _fail("determinant", z=str(z))
    if (z + z.conjugate("star")) / 2 != z.hyperbolic_part().to_bicomplex():
        return _fail("hyperbolic-part-average", z=str(z))
    quad = (z + z.conjugate("dagger") + z.conjugate("tilde") + z.conjugate("star")) / 4
    if quad != Bicomplex.coerce(GaussianRational(z.real_part())):
        return _fail("real-part-average", z=str(z))
    if (z + w) + v != z + (w + v) or z * w != w * z or (z * w) * v != z * (w * v):
        return _fail("ring-axioms", z=str(z), w=str(w), v=str(v))
    if z * (w + v) != z * w + z * v:
        return _fail("distributivity", z=str(z), w=str(w), v=str(v))
    if not z.is_null_cone() and z.invert() * z != ONE:
        return _fail("inverse", z=str(z))
    for kind in ("dagger", "tilde", "star"):
        if z.conjugate(kind).conjugate(kind) != z:
            return _fail("conjugation-involution", kind=kind, z=str(z))
    for first, second, expected in _ROTATIONS:
        if z.conjugate(first).conjugate(second) != z.conjugate(expected):
            return _fail("conjugation-rotation", pair=f"{second}∘{first}", z=str(z))
    round_trip = Bicomplex.from_cartesian(z.z1, z.z2)
    if round_trip != z or Bicomplex.from_units(*z.units()) != z:
        return _fail("coordinate-round-trip", z=str(z))
    return None


def _trial_conjugation_rotation(s: Sampler, flags: dict) -> Optional[dict]:
    op = s.operator()
    kinds = ("star_op", "dagger_op", "tilde_op")
    for kind in kinds:
        if op.conjugate(kind).conjugate(kind) != op:
            return _fail("op-involution", kind=kind)
    for first, second, expected in _ROTATIONS:
        if op.conjugate(first + "_op").conjugate(second + "_op") != op.conjugate(expected + "_op"):
            return _fail("op-rotation", pair=f"{second}_op∘{first}_op")
    pairs = (("star_op", "Zstar"), ("dagger_op", "Zdagger"), ("tilde_op", "Ztilde"))
    for kind, target in pairs:
        if wirtinger("Z").conjugate(kind) != wirtinger(target):
            return _fail("wirtinger-conjugate", kind=kind)
    return None


def _trial_reduction_lemma(s: Sampler, flags: dict) -> Optional[dict]:
    fn = s.function()
    d = {i: laplacian(i) for i in range(1, 8)}
    d6_fn = d[6].apply(fn)
    if d6_fn != d[1].apply(fn.conjugate("dagger")).conjugate("dagger"):
        return _fail("reduction-6-1", f=format_function(fn))
    if d[5].apply(fn) != d[2].apply(fn.conjugate("star")).conjugate("star"):
        return _fail("reduction-5-2", f=format_function(fn))
    if d[4].apply(fn) != d[3].apply(fn.conjugate("star")).conjugate("star"):
        return _fail("reduction-4-3", f=format_function(fn))
    if d[7].apply(fn) != d[1].apply(fn) + d6_fn or d[7] != d[1] + d[6]:
        return _fail("reduction-7-sum", f=format_function(fn))
    return None


def _trial_fn_pointwise(s: Sampler, flags: dict) -> Optional[dict]:
    fn, gn = s.function(), s.function()
    z = s.bicomplex()
    value = fn.evaluate(z)
    for kind in ("dagger", "tilde", "star"):
        if fn.conjugate(kind).evaluate(z) != value.conjugate(kind):
            return _fail("pointwise-conjugation", kind=kind, f=format_function(fn), z=str(z))
    hyp = s.hyperbolic_valued_function()
    if not hyp.is_hyperbolic_valued():
        return _fail("hyperbolic-symmetry", f=format_function(hyp))
    if not hyp.evaluate(z).is_hyperbolic():
        return _fail("hyperbolic-value", f=format_function(hyp), z=str(z))
    rehyp = fn.hyperbolic_part()
    if rehyp.hyperbolic_part() != rehyp or not rehyp.is_hyperbolic_valued():
        return _fail("hyperbolic-part-projection", f=format_function(fn))
    if not fn.real_part().is_real_valued():
        return _fail("real-part-real-valued", f=format_function(fn))
    ops = [wirtinger(kind) for kind in ("Z", "Zstar", "Zdagger", "Ztilde")]
    images = [op.apply(fn) for op in ops]
    dz = ops[0]
    if dz.apply(fn * gn) != images[0] * gn + fn * dz.apply(gn):
        return _fail("leibniz", f=format_function(fn), g=format_function(gn))
    for i, (a, image_a) in enumerate(zip(ops, images)):
        for b, image_b in zip(ops[i + 1:], images[i + 1:]):
            if a * b != b * a or a.apply(image_b) != b.apply(image_a):
                return _fail("wirtinger-commutation", f=format_function(fn))
    if Operator.k_multiplication().apply(fn) != fn.scale(K):
        return _fail("k-multiplication", f=format_function(fn))
    if Operator.identity().apply(fn) != fn:
        return _fail("identity-action", f=format_function(fn))
    return None


def _trial_char2_kernel(s: Sampler, flags: dict) -> Optional[dict]:
    level = s.rng.randint(1, 4)
    m = s.rng.randint(0, level)
    n = level if m < level else s.rng.randint(0, level)
    member = s.a1_function(m, n)
    star, dagger, tilde = wirtinger("Zstar"), wirtinger("Zdagger"), wirtinger("Ztilde")
    if not (star ** level).apply(member).is_zero():
        return _fail("char2-member-star-kernel", f=format_function(member), level=level)
    if not dagger.apply(member).is_zero() or not tilde.apply(member).is_zero():
        return _fail("char2-member-first-order", f=format_function(member))
    if level >= 1 and (star ** (level - 1)).apply(member).is_zero() and (m, n) != (0, 0):
        return _fail("char2-member-exactness", f=format_function(member), level=level)
    report = class_membership(member)
    if report.a1_orders != (m, n) or report.zstar_order != max(m, n):
        return _fail("char2-member-orders", f=format_function(member), got=str(report.a1_orders))
    probe = s.function() if s.rng.random() < 0.5 else member
    probe_report = class_membership(probe)
    level2 = s.rng.randint(1, 4)
    lhs = probe_report.zstar_order is not None and probe_report.zstar_order <= level2
    rhs = (
        (star ** level2).apply(probe).is_zero()
        and dagger.apply(probe).is_zero()
        and tilde.apply(probe).is_zero()
    )
    if lhs != rhs:
        return _fail("char2-equivalence", f=format_function(probe), level=level2)
    return None


def _trial_classify_oracle(s: Sampler, flags: dict) -> Optional[dict]:
    fn = s.function()
    fast = signature_by_degrees(fn)
    slow = signature_by_iteration(fn)
    if fast != slow:
        return _fail("signature-oracle", f=format_function(fn), fast=str(fast.as_tuple()), slow=str(slow.as_tuple()))
    if not fn.is_zero():
        star, dagger, tilde = wirtinger("Zstar"), wirtinger("Zdagger"), wirtinger("Ztilde")
        for op, order in ((star, fast.m), (tilde, fast.n), (dagger, fast.k)):
            if order >= 1 and (op ** (order - 1)).apply(fn).is_zero():
                return _fail("signature-exactness", f=format_function(fn))
    level = s.rng.randint(1, 5)
    member = class_membership(fn)
    lhs = fast.n <= 1 and fast.k <= 1 and fast.m <= level
    rhs = member.zstar_order is not None and member.zstar_order <= level
    if lhs != rhs:
        return _fail("a2-l11-coincidence", f=format_function(fn), level=level)
    return None


def _trial_polyholo_orders(s: Sampler, flags: dict) -> Optional[dict]:
    m = s.rng.randint(1, 3)
    n = s.rng.randint(1, 3)
    k = s.rng.randint(1, 3)
    fn = s.a2_function(m, n, k)
    d1 = laplacian(1)
    if polyharmonic_order(fn, d1) != m:
        return _fail("order-of-f", f=format_function(fn), expected=m)
    if polyharmonic_order(fn.conjugate("dagger"), d1) != min(n, k):
        return _fail("order-of-f-dagger", f=format_function(fn), expected=min(n, k))
    if polyharmonic_order(fn.hyperbolic_part(), d1) != m:
        return _fail("order-of-rehyp", f=format_function(fn), expected=m)
    if polyharmonic_order(fn.real_part(), d1) != max(m, min(n, k)):
        return _fail("order-of-rec", f=format_function(fn), expected=max(m, min(n, k)))
    # informational: the stated order min(m,n,k) for the minus component
    # against the observed own-pair order (the degree bookkeeping suggests
    # min(n,k) instead); recorded, never asserted
    observed = pair_polyharmonic_order(fn.minus, PAIR_ALPHA)
    if observed != min(m, n, k):
        flags["minus-order-min-mnk-mismatch"] = flags.get("minus-order-min-mnk-mismatch", 0) + 1
    if observed == min(n, k):
        flags["minus-order-matches-min-nk"] = flags.get("minus-order-matches-min-nk", 0) + 1
    return None


def _trial_almansi(s: Sampler, flags: dict) -> Optional[dict]:
    pair = "alpha" if s.rng.random() < 0.5 else "beta"
    poly = s.pair_poly(pair)
    dec = almansi_complex(poly, pair)
    if dec.reconstruct() != poly:
        return _fail("complex-reconstruction", pair=pair)
    indices = _PAIRS[pair]
    for part in dec.parts:
        if not part.diff(indices[0]).diff(indices[1]).is_zero():
            return _fail("complex-part-harmonic", pair=pair)
    if dec.order != pair_polyharmonic_order(poly, indices):
        return _fail("complex-part-count", pair=pair)
    shuffled_items = list(poly.terms.items())
    s.rng.shuffle(shuffled_items)
    redone = almansi_complex(Poly4(dict(shuffled_items)), pair)
    if redone.parts != dec.parts:
        return _fail("complex-permutation-stability", pair=pair)

    fn = s.function()
    bdec = almansi_bicomplex(fn)
    if bdec.reconstruct() != fn:
        return _fail("bicomplex-reconstruction", f=format_function(fn))
    d1 = laplacian(1)
    for part in bdec.parts:
        if not d1.apply(part).is_zero():
            return _fail("bicomplex-part-harmonic", f=format_function(fn))
    if bdec.order != polyharmonic_order(fn, d1):
        return _fail("bicomplex-part-count", f=format_function(fn))

    expansion = expand_conjugate_basis(fn)
    if expansion.reconstruct() != fn:
        return _fail("conjugate-basis-reconstruction", f=format_function(fn))
    if any(not class_membership(coeff).is_bc_holomorphic for coeff in expansion.coeffs.values()):
        return _fail("conjugate-basis-coefficients", f=format_function(fn))

    member = s.a1_function(s.rng.randint(0, 3), s.rng.randint(1, 3))
    star = BicomplexFunction.variable_star()
    layers = expand_zstar(member)
    rebuilt = BicomplexFunction.zero()
    for t, layer in enumerate(layers):
        rebuilt = rebuilt + (star ** t) * layer
    if rebuilt != member or (layers and layers[-1].is_zero()):
        return _fail("zstar-reconstruction", f=format_function(member))
    try:
        expand_zstar(_CROSS_TERM)
    except NotInClass:
        pass
    else:
        return _fail("zstar-class-guard")
    return None


def _trial_rehyp_roundtrip(s: Sampler, flags: dict) -> Optional[dict]:
    d1 = laplacian(1)
    dagger, tilde = wirtinger("Zdagger"), wirtinger("Ztilde")

    holo = s.bc_holomorphic(real_constants=True)
    rehyp = holo.hyperbolic_part()
    if not dagger.apply(rehyp).is_zero() or not tilde.apply(rehyp).is_zero():
        return _fail("rehyp-kernels", f=format_function(holo))
    if not d1.apply(rehyp).is_zero():
        return _fail("rehyp-harmonic", f=format_function(holo))
    if rehyp_to_holomorphic(rehyp) != holo:
        return _fail("holomorphic-roundtrip", f=format_function(holo))

    m = s.rng.randint(1, 4)
    n = s.rng.randint(1, 4)
    first_kind = s.a1_function(m, n, normalized=True)
    part = first_kind.hyperbolic_part()
    top = max(m, n)
    if not (d1 ** top).apply(part).is_zero():
        return _fail("a1-rehyp-annihilation", f=format_function(first_kind), order=top)
    if (d1 ** (top - 1)).apply(part).is_zero():
        return _fail("a1-rehyp-exact-order", f=format_function(first_kind), order=top)
    inverted, orders = rehyp_to_polyholomorphic_A1(part)
    if inverted != first_kind or orders != (m, n):
        return _fail("a1-roundtrip", f=format_function(first_kind), got=str(orders))

    # shared hyperbolic real part forces equal signatures
    m2, n2, k2 = (s.rng.randint(1, 3) for _ in range(3))
    base = s.a2_function(m2, n2, k2)
    side = min(n2, k2) - 1
    box_plus = (m2 - 1, m2 - 1, side, side)
    box_minus = (side, side, m2 - 1, m2 - 1)
    perturbed = base + s.hyperbolic_imaginary_function(box_plus, box_minus)
    if perturbed.hyperbolic_part() != base.hyperbolic_part():
        return _fail("propunic-setup", f=format_function(base))
    if signature_by_degrees(perturbed) != signature_by_degrees(base):
        return _fail("propunic-signature", f=format_function(base), g=format_function(perturbed))

    # real-valued inputs that pass the inversion preconditions are constant
    candidate = s.real_valued_function()
    try:
        rehyp_to_holomorphic(candidate)
    except PreconditionViolation:
        pass
    else:
        if not candidate.is_constant():
            return _fail("real-valued-accepted-nonconstant", f=format_function(candidate))
    constant = BicomplexFunction.constant(Bicomplex.coerce(GaussianRational(s.fraction())))
    if rehyp_to_holomorphic(constant) != constant:
        return _fail("real-constant-roundtrip")
    return None


def _trial_mainthm_i(s: Sampler, flags: dict) -> Optional[dict]:
    m, n, k = (s.rng.randint(1, 3) for _ in range(3))
    fn = s.a2_function(m, n, k)
    part = fn.hyperbolic_part()
    power = max(n, k)
    if not (wirtinger("Zdagger") ** power).apply(part).is_zero():
        return _fail("mainthm-i-dagger", f=format_function(fn), power=power)
    if not (wirtinger("Ztilde") ** power).apply(part).is_zero():
        return _fail("mainthm-i-tilde", f=format_function(fn), power=power)
    return None


def _trial_mainthm_ii(s: Sampler, flags: dict) -> Optional[dict]:
    real_case = s.rng.random() < 0.5
    n = s.rng.randint(1, 3)
    k = s.rng.randint(1, 3)
    if not real_case:
        n, k = max(n, 2), max(k, 2)
    fn, expected_non_real = s.kernel_box_function(n, k, real_coeffs=real_case)
    dec = main_decomposition(fn, n, k)
    if dec.reconstruct() != fn:
        return _fail("mainthm-ii-reconstruction", f=format_function(fn), n=n, k=k)
    order = polyharmonic_order(fn, laplacian(1))
    for index, coeff in dec.coeffs.items():
        if polyharmonic_order(coeff, laplacian(1)) > order:
            return _fail("mainthm-ii-coefficient-order", f=format_function(fn), index=list(index))
    if real_case:
        if dec.inverted is None or dec.non_real:
            return _fail("mainthm-ii-refined-missing", f=format_function(fn))
        if dec.reconstruct_from_inverted() != fn:
            return _fail("mainthm-ii-refined-reconstruction", f=format_function(fn))
        for index, inv in dec.inverted.items():
            if class_membership(inv).a1_orders is None:
                return _fail("mainthm-ii-refined-class", f=format_function(fn), index=list(index))
    else:
        if dec.inverted is not None:
            return _fail("mainthm-ii-refined-unsound", f=format_function(fn))
        if list(dec.non_real) != [tuple(entry) for entry in expected_non_real]:
            return _fail(
                "mainthm-ii-diagnostic",
                f=format_function(fn),
                got=[list(e) for e in dec.non_real],
                expected=[list(e) for e in expected_non_real],
            )
    return None


def _trial_serialization(s: Sampler, flags: dict) -> Optional[dict]:
    fn = s.function()
    if parse(format_function(fn), raw=True) != fn:
        return _fail("format-parse-roundtrip", f=format_function(fn))
    if function_from_json(function_to_json(fn)) != fn:
        return _fail("function-json-roundtrip", f=format_function(fn))
    z = s.bicomplex()
    if Bicomplex.from_json(z.to_json()) != z:
        return _fail("bicomplex-json-roundtrip", z=str(z))
    op = s.operator()
    if operator_from_json_obj(operator_to_json_obj(op)) != op:
        return _fail("operator-json-roundtrip")
    return None


def _run_paper_examples(trials: int, seed: int) -> SuiteResult:
    if trials == 0:
        return SuiteResult("paper-examples", 0, 0, seed)
    checks = worked_examples.run_checks()
    failures = [check for check in checks if not check["pass"]]
    return SuiteResult(
        "paper-examples",
        trials=len(checks),
        failures=len(failures),
        seed=seed,
        first_counterexample=failures[0] if failures else None,
    )


_TRIAL_SUITES: dict[str, tuple[Callable, int]] = {
    # name -> (trial function, default trials)
    "core-algebra": (_trial_core_algebra, 1000),
    "conjugation-rotation": (_trial_conjugation_rotation, 1000),
    "reduction-lemma": (_trial_reduction_lemma, 1000),
    "fn-pointwise": (_trial_fn_pointwise, 500),
    "char2-kernel": (_trial_char2_kernel, 1000),
    "classify-oracle": (_trial_classify_oracle, 1000),
    "proppolholharm-orders": (_trial_polyholo_orders, 500),
    "almansi-roundtrip": (_trial_almansi, 500),
    "rehyp-roundtrip": (_trial_rehyp_roundtrip, 500),
    "mainthm-i": (_trial_mainthm_i, 500),
    "mainthm-ii": (_trial_mainthm_ii, 500),
    "serialization": (_trial_serialization, 500),
}

SUITE_NAMES = tuple(_TRIAL_SUITES) + ("paper-examples",)
DEFAULT_TRIALS = {name: entry[1] for name, entry in _TRIAL_SUITES.items()}
DEFAULT_TRIALS["paper-examples"] = 1


def run_suite(
    name: str,
    trials: Optional[int] = None,
    seed: int = 0,
    max_degree: int = 4,
    coeff_bound: int = 9,
    on_trial: Optional[Callable[[float], None]] = None,
) -> SuiteResult:
    """Run one suite.  ``on_trial``, if given, receives each trial's wall
    seconds as it finishes; the fixed ``paper-examples`` block has no
    trials of its own and never calls it.  The result does not depend on it."""
    if name not in SUITE_NAMES:
        raise ArgumentError(f"unknown suite {name!r}; expected one of {SUITE_NAMES} or 'all'")
    if trials is not None and trials < 0:
        raise ArgumentError(f"trials must be >= 0, got {trials}")
    count = DEFAULT_TRIALS[name] if trials is None else trials
    if name == "paper-examples":
        return _run_paper_examples(count, seed)
    trial_fn = _TRIAL_SUITES[name][0]
    sampler = Sampler(seed, max_degree, coeff_bound)
    failures = 0
    first: Optional[dict] = None
    flags: dict = {}
    for trial in range(count):
        start = perf_counter()
        outcome = trial_fn(sampler, flags)
        if on_trial is not None:
            on_trial(perf_counter() - start)
        if outcome is not None:
            failures += 1
            if first is None:
                first = {"trial": trial, **outcome}
    return SuiteResult(name, count, failures, seed, first, flags)


def report_to_json(results: list[SuiteResult], indent: Optional[int] = None) -> str:
    payload = {
        "suites": [result.to_json_obj() for result in results],
        "failures": sum(result.failures for result in results),
    }
    if indent is None:
        return json.dumps(payload, separators=(",", ":"))
    return json.dumps(payload, indent=indent)
