"""Classification and decomposition CLI outputs pinned byte for byte.

``golden/classify_decompose.json`` holds, for each argument list below, the
exit code, stdout and stderr of ``bcpoly``.  After a deliberate output
change, regenerate it with ``PYTHONPATH=src python tests/test_golden_cli.py``.
"""

import contextlib
import io
import json
from pathlib import Path

from bcpoly.cli import main

GOLDEN = Path(__file__).parent / "golden" / "classify_decompose.json"

# (expression, raw idempotent mode): the README inputs, a d7-heavy power,
# first-kind hyperbolic inputs for rehyp-a1, a kernel-box input whose main
# coefficients are not real-valued, and inputs that fail a precondition
EXPRESSIONS = (
    ("(a+ac)*(b+bc)", True),
    ("2*star(Z)*(dag(Z) + til(Z))", False),
    ("(Z*star(Z))^3", False),
    ("(Z*star(Z) + dag(Z)*til(Z))^2", False),
    ("Z^2 + 3*i", False),
    ("rehyp(Z*star(Z)^2)", False),
    ("rehyp((1+i)*Z^3) + 1/2", False),
    ("a^2*ac + a*ac^2 | b*bc^3 + b^3*bc", True),
    ("i*a*b - i*ac*bc", True),
    ("rec(Z^2*star(Z))", False),
    ("dag(Z)^2*til(Z) + 5/2", False),
    ("e+*star(Z)^3 + e-*Z", False),
    ("0", False),
)

COMMANDS = (
    ("classify",),
    ("decompose", "conjbasis"),
    ("decompose", "almansi"),
    ("decompose", "rehyp-holo"),
    ("decompose", "rehyp-a1"),
    ("decompose", "main", "--n", "2", "--k", "2"),
)

ARGVS = [
    [*command, expr, "--json", *(["--raw-idempotent"] if raw else [])]
    for expr, raw in EXPRESSIONS
    for command in COMMANDS
]
# the README's main invocation, whose output is indented
ARGVS.append(["decompose", "main", "(a+ac)*(b+bc)", "--raw-idempotent", "--n", "2", "--k", "2"])


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def test_classify_and_decompose_outputs_match_golden():
    golden = json.loads(GOLDEN.read_text())
    assert [case["argv"] for case in golden] == ARGVS
    for case in golden:
        assert run(case["argv"]) == case


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([run(argv) for argv in ARGVS], indent=1) + "\n")
