"""Values of sampled functions at sampled points pinned byte for byte.

``golden/evaluate.json`` holds, for each of the first 100 functions that
``Sampler(101)`` draws, ``Bicomplex.to_json`` of its value at the two points
the same sampler draws right after it.  A change to evaluation that alters a
single value fails here.  Regenerate it after a deliberate change with
``PYTHONPATH=src python tests/test_golden_evaluate.py``.
"""

import json
from pathlib import Path

from bcpoly.sampling import Sampler

GOLDEN = Path(__file__).parent / "golden" / "evaluate.json"
FUNCTIONS = 100
POINTS = 2


def evaluated():
    sampler = Sampler(101)
    out = []
    for _ in range(FUNCTIONS):
        fn = sampler.function()
        points = [sampler.bicomplex() for _ in range(POINTS)]
        out.append([fn.evaluate(point).to_json() for point in points])
    return out


def test_values_match_golden():
    assert evaluated() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(evaluated(), indent=1) + "\n")
