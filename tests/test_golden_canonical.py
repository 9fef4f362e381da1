"""Canonical text and JSON of sampled functions pinned byte for byte.

``golden/canonical.json`` holds ``format_function`` and ``function_to_json``
of the first 100 functions that ``Sampler(101)`` draws.  After a deliberate
format change, regenerate it with
``PYTHONPATH=src python tests/test_golden_canonical.py``.
"""

import json
from pathlib import Path

from bcpoly import format_function, function_from_json, function_to_json, parse
from bcpoly.sampling import Sampler

GOLDEN = Path(__file__).parent / "golden" / "canonical.json"


def sampled_functions():
    sampler = Sampler(101)
    return [sampler.function() for _ in range(100)]


def printed(fn):
    return {"text": format_function(fn), "json": function_to_json(fn)}


def test_printers_match_golden_and_read_back():
    golden = json.loads(GOLDEN.read_text())
    functions = sampled_functions()
    assert [printed(fn) for fn in functions] == golden
    for fn, case in zip(functions, golden):
        assert parse(case["text"], raw=True) == fn
        assert function_from_json(case["json"]) == fn


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([printed(fn) for fn in sampled_functions()], indent=1) + "\n")
