"""The two request workloads, driven through the public ``bcpoly`` API.

A workload turns a seeded block of generated inputs into program objects
(outside any timing), runs one request (timed by the caller), and checks
the request's outputs against the answers planted in its input (also
outside timing).  Program functions are looked up on their modules at call
time, so the wrappers of a traced run are the ones called.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from types import SimpleNamespace

import gen


@dataclass(frozen=True)
class Request:
    key: object  # equal keys mean a repeated input
    data: object  # generator record with the planted answers
    args: tuple  # program objects the request is called with


def _poly(polyfun, bicomplex, terms: dict):
    return polyfun.Poly4({key: bicomplex.GaussianRational(re, im) for key, (re, im) in terms.items()})


def _function(bc, plus: dict, minus: dict):
    return bc.polyfun.BicomplexFunction(_poly(bc.polyfun, bc.bicomplex, plus), _poly(bc.polyfun, bc.bicomplex, minus))


class ClassifyDecompose:
    """Operator iteration: classification, signature by iteration, layered
    harmonic and conjugate-basis decompositions, kernel-box decomposition."""

    name = "classify-decompose"

    def __init__(self, bc: SimpleNamespace):
        self.bc = bc

    def block(self, rng: random.Random) -> list[Request]:
        out = []
        for item in gen.classify_block(rng):
            key = hash((frozenset(item.plus.items()), frozenset(item.minus.items())))
            fn = _function(self.bc, item.plus, item.minus)
            box = _function(self.bc, item.box_plus, item.box_minus)
            out.append(Request(key, item, (fn, box)))
        return out

    def op(self, request: Request, span, out: dict) -> None:
        classify, decompose = self.bc.classify, self.bc.decompose
        fn, box = request.args
        out["report"] = classify.classification_report(fn)
        out["signature"] = classify.signature_by_iteration(fn)
        out["almansi"] = decompose.almansi_bicomplex(fn)
        out["conjbasis"] = decompose.expand_conjugate_basis(fn)
        out["main"] = decompose.main_decomposition(box, *request.data.bounds)

    def check(self, request: Request, out: dict) -> list[str]:
        item = request.data
        fn, box = request.args
        main = out["main"]
        problems = []
        if out["report"]["signature"] != list(item.signature):
            problems.append("report-signature")
        if out["signature"].as_tuple() != item.signature:
            problems.append("iterated-signature")
        if out["report"]["orders"]["d1"] != item.d1_order or out["almansi"].order != item.d1_order:
            problems.append("d1-order")
        if out["almansi"].reconstruct() != fn:
            problems.append("almansi-reconstruct")
        if out["conjbasis"].reconstruct() != fn:
            problems.append("conjbasis-reconstruct")
        if main.reconstruct() != box:
            problems.append("main-reconstruct")
        if main.non_real != item.non_real or (main.inverted is None) != bool(item.non_real):
            problems.append("main-non-real")
        if main.inverted is not None and main.reconstruct_from_inverted() != box:
            problems.append("main-reconstruct-inverted")
        return problems

    def expected_failure(self, request: Request, out: dict, exc: BaseException) -> bool:
        return False

    def size(self, request: Request, out: dict) -> int:
        fn = request.args[0]
        return max(len(fn.plus.terms), len(fn.minus.terms))


class ExprEval:
    """Parse, expand and evaluate expression texts, then round-trip the
    result through the canonical text and JSON."""

    name = "expr-eval"

    def __init__(self, bc: SimpleNamespace):
        self.bc = bc

    def block(self, rng: random.Random) -> list[Request]:
        from_units = self.bc.bicomplex.Bicomplex.from_units
        return [
            Request(item.text, item, tuple(from_units(*p) for p in item.points))
            for item in gen.expr_block(rng)
        ]

    def op(self, request: Request, span, out: dict) -> None:
        expr = self.bc.expr
        fn = out["fn"] = expr.parse(request.data.text)
        out["values"] = [fn.evaluate(point) for point in request.args]
        text = out["text"] = expr.format_function(fn)
        out["reparsed"] = span("bench.reparse", expr.parse, text, raw=True)
        out["json"] = expr.function_to_json(fn)
        out["from_json"] = expr.function_from_json(out["json"])

    def check(self, request: Request, out: dict) -> list[str]:
        tree = request.data.tree
        problems = []
        expected = [gen.reference_value(tree, point, self.bc.bicomplex) for point in request.args]
        if out["values"] != expected:
            problems.append("values")
        if out["reparsed"] != out["fn"]:
            problems.append("canonical-round-trip")
        if out["from_json"] != out["fn"]:
            problems.append("json-round-trip")
        return problems

    def expected_failure(self, request: Request, out: dict, exc: BaseException) -> bool:
        """Reparsing the canonical text of a function above the recursion
        limit raises ``RecursionError``: a failed request, not a wrong one."""
        return isinstance(exc, RecursionError) and "text" in out and self.size(request, out) > gen.RECURSION_TERMS

    def size(self, request: Request, out: dict) -> int:
        fn = out.get("fn")
        return 0 if fn is None else max(len(fn.plus.terms), len(fn.minus.terms))


REQUEST_WORKLOADS = {cls.name: cls for cls in (ClassifyDecompose, ExprEval)}
