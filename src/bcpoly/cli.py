"""Command-line interface.

Subcommands: ``eval``, ``apply``, ``classify``, ``decompose``, ``verify``,
``paper-examples``.  Machine output is JSON on stdout (compact with
``--json``, indented otherwise where JSON is the natural shape); domain
errors are reported as structured JSON on stderr.  Exit codes: 0 success,
1 evaluation/verification failure, 2 usage error.  Each command returns its
stdout text and exit code; ``main`` alone prints them, or the error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from time import perf_counter

from .bicomplex import BicomplexError
from .classify import classification_report
from .decompose import (
    almansi_bicomplex,
    expand_conjugate_basis,
    expand_zstar,
    main_decomposition,
    rehyp_to_holomorphic,
    rehyp_to_polyholomorphic_A1,
)
from .expr import (
    _json_text,
    format_function,
    function_to_json_obj,
    parse,
    parse_point,
)
from .operators import laplacian, wirtinger
from .verify import SUITE_NAMES, report_to_json, run_suite
from .worked_examples import run_checks

USAGE_ERROR = 2
FAILURE = 1

_OPERATORS = {
    "dZ": wirtinger("Z"),
    "dZs": wirtinger("Zstar"),
    "dZd": wirtinger("Zdagger"),
    "dZt": wirtinger("Ztilde"),
    **{f"d{i}": laplacian(i) for i in range(1, 8)},
}

DECOMPOSE_KINDS = ("conjbasis", "zstar", "almansi", "rehyp-holo", "rehyp-a1", "main")

# The largest operator power ``apply`` takes.  The power d7^k of the
# two-term operator d7 has k + 1 terms, built once each by the multinomial
# kernel, with binomial coefficients of up to k bits: on a 2-core x86 VM
# d7^256 takes 0.7 ms to build and, applied to the 301 terms of
# (Z*star(Z)+1)^300, 7 ms to apply.  The limit bounds the terms that each
# function term meets and their coefficients' bits: d7^100000 would hold
# about 0.9 GB of binomials per component.
_MAX_OPERATOR_POWER = 256


class UsageError(Exception):
    pass


def _dumps(obj, compact: bool) -> str:
    return _json_text(obj, separators=(",", ":")) if compact else _json_text(obj, indent=2)


def _parse_operator_spec(spec: str):
    name, _, power_text = spec.partition("^")
    if name not in _OPERATORS:
        raise UsageError(f"unknown operator {name!r}; expected dZ, dZs, dZd, dZt or d1..d7")
    power = 1
    if power_text:
        try:
            power = int(power_text)
        except ValueError:
            raise UsageError(f"bad operator power {power_text!r}") from None
        if power < 0:
            raise UsageError("operator power must be nonnegative")
        if power > _MAX_OPERATOR_POWER:
            raise UsageError(f"operator power {power} is past the limit of {_MAX_OPERATOR_POWER}")
    return _OPERATORS[name] ** power


def _index_key(index) -> str:
    return ",".join(str(part) for part in index)


def cmd_eval(args) -> tuple[str, int]:
    value = parse(args.expr, raw=args.raw_idempotent).evaluate(parse_point(args.at))
    return (_dumps(value.to_json(), compact=True) if args.json else str(value)), 0


def cmd_apply(args) -> tuple[str, int]:
    operator = _parse_operator_spec(args.operator)
    image = operator.apply(parse(args.expr, raw=args.raw_idempotent))
    return (_dumps(function_to_json_obj(image), compact=True) if args.json else format_function(image)), 0


def cmd_classify(args) -> tuple[str, int]:
    return _dumps(classification_report(parse(args.expr, raw=args.raw_idempotent)), compact=args.json), 0


def cmd_decompose(args) -> tuple[str, int]:
    fn = parse(args.expr, raw=args.raw_idempotent)
    if args.kind == "conjbasis":
        expansion = expand_conjugate_basis(fn)
        payload = {
            _index_key(index): function_to_json_obj(coeff)
            for index, coeff in sorted(expansion.coeffs.items())
        }
    elif args.kind == "zstar":
        layers = expand_zstar(fn)
        payload = {str(i): function_to_json_obj(layer) for i, layer in enumerate(layers)}
    elif args.kind == "almansi":
        dec = almansi_bicomplex(fn)
        payload = {str(i): function_to_json_obj(part) for i, part in enumerate(dec.parts)}
    elif args.kind == "rehyp-holo":
        payload = function_to_json_obj(rehyp_to_holomorphic(fn))
    elif args.kind == "rehyp-a1":
        inverted, orders = rehyp_to_polyholomorphic_A1(fn)
        payload = {"function": function_to_json_obj(inverted), "orders": list(orders)}
    else:  # main
        if args.n is None or args.k is None:
            raise UsageError("the 'main' decomposition needs --n and --k kernel bounds")
        if args.n < 1 or args.k < 1:
            raise UsageError("the 'main' decomposition needs kernel bounds --n and --k of at least 1")
        dec = main_decomposition(fn, args.n, args.k)
        payload = {
            "G": {_index_key(i): function_to_json_obj(c) for i, c in sorted(dec.coeffs.items())},
            "f": (
                {_index_key(i): function_to_json_obj(c) for i, c in sorted(dec.inverted.items())}
                if dec.inverted is not None
                else None
            ),
            "non_real": [list(entry) for entry in dec.non_real],
        }
    return _dumps(payload, compact=args.json), 0


def _trial_percentiles(durations: list[float]) -> str:
    """Trial count, then nearest-rank p50 and p90 trial seconds."""
    if not durations:
        return "0 trials\tp50 -\tp90 -"
    ranked = sorted(durations)
    p50, p90 = (ranked[math.ceil(q * len(ranked)) - 1] for q in (0.5, 0.9))
    return f"{len(ranked)} trials\tp50 {p50:.6f} s\tp90 {p90:.6f} s"


def cmd_verify(args) -> tuple[str, int]:
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    for name in names:
        if name not in SUITE_NAMES:
            raise UsageError(f"unknown suite {name!r}; expected one of {', '.join(SUITE_NAMES)} or 'all'")
    if args.trials is not None and args.trials < 0:
        raise UsageError("--trials must be at least 0")
    if args.max_degree < 0:
        raise UsageError("--max-degree must be at least 0")
    if args.coeff_bound < 1:
        raise UsageError("--coeff-bound must be at least 1")
    results = []
    for name in names:
        durations: list[float] = []
        start = perf_counter()
        on_trial = durations.append if args.timings else None
        results.append(run_suite(name, args.trials, args.seed, args.max_degree, args.coeff_bound, on_trial))
        if args.timings:
            print(f"{name}\t{perf_counter() - start:.3f} s\t{_trial_percentiles(durations)}", file=sys.stderr)
    failed = sum(result.failures for result in results)
    return report_to_json(results, indent=None if args.json else 2), (FAILURE if failed else 0)


def cmd_paper_examples(args) -> tuple[str, int]:
    checks = run_checks()
    return _dumps(checks, compact=args.json), (0 if all(check["pass"] for check in checks) else FAILURE)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="compact machine JSON on stdout")
    common.add_argument(
        "--raw-idempotent",
        action="store_true",
        help="accept the idempotent variables a, ac, b, bc in expressions",
    )

    parser = argparse.ArgumentParser(
        prog="bcpoly",
        description="Exact bicomplex polynomial calculus: evaluate, differentiate, classify, decompose, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", parents=[common], help="evaluate an expression at a point")
    p.add_argument("expr")
    p.add_argument("--at", required=True, help="bicomplex point, e.g. '1 + 2i + 3j + 4k'")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("apply", parents=[common], help="apply a differential operator")
    p.add_argument("operator", help="dZ, dZs, dZd, dZt or d1..d7, with optional ^power")
    p.add_argument("expr")
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("classify", parents=[common], help="signature, class flags, and orders")
    p.add_argument("expr")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("decompose", parents=[common], help="run a constructive decomposition")
    p.add_argument("kind", choices=DECOMPOSE_KINDS)
    p.add_argument("expr")
    p.add_argument("--n", type=int, default=None, help="dagger-direction kernel bound (main)")
    p.add_argument("--k", type=int, default=None, help="tilde-direction kernel bound (main)")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("verify", parents=[common], help="run seeded randomized verification suites")
    p.add_argument("suite", help=f"one of {', '.join(SUITE_NAMES)}, or 'all'")
    p.add_argument("--trials", type=int, default=None, help="override the per-suite trial count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-degree", type=int, default=4)
    p.add_argument("--coeff-bound", type=int, default=9)
    p.add_argument(
        "--timings",
        action="store_true",
        help="print each suite's wall seconds, trial count and p50/p90 trial seconds on stderr "
        "as it finishes (stdout is unchanged)",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("paper-examples", parents=[common], help="re-run the built-in worked examples")
    p.set_defaults(func=cmd_paper_examples)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        out, code = args.func(args)
    except UsageError as exc:
        print(json.dumps({"error": "UsageError", "message": str(exc)}), file=sys.stderr)
        return USAGE_ERROR
    except BicomplexError as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        condition = getattr(exc, "condition", None)
        if condition is not None:
            payload["condition"] = condition
        print(json.dumps(payload, separators=(",", ":")), file=sys.stderr)
        return FAILURE
    print(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
