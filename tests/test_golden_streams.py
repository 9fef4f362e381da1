"""Sampler draws and verify reports pinned byte for byte.

``golden/sampler.json`` holds, for seeds 0 and 101, the first 20 draws of a
fresh ``Sampler`` from each public generator, rendered with
``format_function``, ``format_poly`` or ``str``.  ``golden/verify_reports.json``
holds ``report_to_json`` of every suite at 1/8 of ``DEFAULT_TRIALS`` (at
least one trial), the share a verify-harness benchmark pass runs, for the
same seeds.  A change to the sampler or to the arithmetic under the suites
that alters a single drawn value, or a report byte, fails here.  After a
deliberate change to the stream, regenerate both with
``PYTHONPATH=src python tests/test_golden_streams.py``.
"""

import json
from pathlib import Path

from bcpoly import format_function, format_poly
from bcpoly.sampling import Sampler
from bcpoly.verify import DEFAULT_TRIALS, SUITE_NAMES, report_to_json, run_suite

GOLDEN = Path(__file__).parent / "golden"
SEEDS = (0, 101)
DRAWS = 20


def _operator_text(op):
    return f"{format_poly(op.plus)} | {format_poly(op.minus)}"


def _kernel_box(s, i):
    fn, non_real = s.kernel_box_function(2 + i % 2, 2 + (i + 1) % 2, real_coeffs=i % 2 == 0)
    return f"{format_function(fn)} ; {non_real}"


# generator -> one rendered draw, given the sampler and the draw's index;
# the index varies the arguments so that every branch of a generator is hit
_GENERATORS = {
    "fraction": lambda s, i: str(s.fraction(nonzero=i % 2 == 1)),
    "gaussian": lambda s, i: str(s.gaussian(nonzero=i % 2 == 1)),
    "bicomplex": lambda s, i: str(s.bicomplex(invertible=i % 2 == 1)),
    "poly": lambda s, i: format_poly(s.poly()),
    "function": lambda s, i: format_function(s.function()),
    "operator": lambda s, i: _operator_text(s.operator()),
    "a1_function": lambda s, i: format_function(s.a1_function(i % 5, (i + 2) % 5, normalized=i % 2 == 1)),
    "a2_function": lambda s, i: format_function(s.a2_function(1 + i % 3, 1 + (i + 1) % 3, 1 + (i + 2) % 3)),
    "bc_holomorphic": lambda s, i: format_function(s.bc_holomorphic(real_constants=i % 2 == 1)),
    "hyperbolic_valued_function": lambda s, i: format_function(s.hyperbolic_valued_function()),
    "real_valued_function": lambda s, i: format_function(s.real_valued_function()),
    "hyperbolic_imaginary_function": lambda s, i: format_function(
        s.hyperbolic_imaginary_function((2, 2, 1, 1), (1, 1, 2, 2))
    ),
    "kernel_box_function": _kernel_box,
}


def sampler_draws() -> dict:
    out = {}
    for seed in SEEDS:
        for name, draw in _GENERATORS.items():
            s = Sampler(seed)
            out[f"{seed}/{name}"] = [draw(s, i) for i in range(DRAWS)]
    return out


def verify_reports() -> dict:
    return {
        str(seed): report_to_json(
            [run_suite(name, trials=max(1, round(DEFAULT_TRIALS[name] / 8)), seed=seed) for name in SUITE_NAMES]
        )
        for seed in SEEDS
    }


def test_sampler_draws_match_golden():
    golden = json.loads((GOLDEN / "sampler.json").read_text())
    draws = sampler_draws()
    for key, expected in golden.items():
        assert draws[key] == expected, key
    assert draws.keys() == golden.keys()


def test_verify_reports_match_golden_byte_for_byte():
    golden = json.loads((GOLDEN / "verify_reports.json").read_text())
    reports = verify_reports()
    for seed, report in golden.items():
        # the golden stores each report parsed; compact dumps of it give back
        # the exact bytes of report_to_json
        assert reports[seed] == json.dumps(report, separators=(",", ":")), seed
    assert reports.keys() == golden.keys()


if __name__ == "__main__":
    (GOLDEN / "sampler.json").write_text(json.dumps(sampler_draws(), indent=1, ensure_ascii=False) + "\n")
    reports = {seed: json.loads(text) for seed, text in verify_reports().items()}
    (GOLDEN / "verify_reports.json").write_text(json.dumps(reports, indent=1, ensure_ascii=False) + "\n")
