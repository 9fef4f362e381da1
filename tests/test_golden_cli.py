"""CLI outputs pinned byte for byte.

``golden/classify_decompose.json`` holds, for each argument list below, the
exit code, stdout and stderr of ``bcpoly``: classification and every
decomposition kind, every README command line, the JSON forms of the other
commands, and each error path.  After a deliberate output
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
# the conjugate-power expansion, which refuses inputs outside the first kind
ARGVS += [["decompose", "zstar", expr, "--json", *(["--raw-idempotent"] if raw else [])] for expr, raw in EXPRESSIONS]
# the README command lines not listed above
ARGVS += [
    ["eval", "Z^2", "--at", "1 + j"],
    ["eval", "rehyp(Z)", "--at", "1+2i+3j+4k"],
    ["apply", "d1", "(a+ac)*(b+bc)", "--raw-idempotent"],
    ["apply", "dZs^2", "star(Z)"],
    ["classify", "(a+ac)*(b+bc)", "--raw-idempotent", "--json"],
    ["classify", "(a+ac)*(b+bc)", "--raw-idempotent"],
    ["classify", "0 | a*ac", "--raw-idempotent"],
    ["decompose", "conjbasis", "2*ac*(b+bc) | 2*bc*(a+ac)", "--raw-idempotent"],
    ["verify", "all", "--seed", "7"],
    ["paper-examples"],
    ["eval", "Z^4096", "--at", "1+j"],
    ["eval", "Z^1000000000", "--at", "1+j"],
    ["eval", "2^20000", "--at", "1"],
]
# the JSON forms of the other commands
ARGVS += [
    ["apply", "d7^2", "(Z*star(Z))^3", "--json"],
    ["eval", "Z^2 + 3*i", "--at", "1+2i+3j+4k", "--json"],
    ["paper-examples", "--json"],
    ["verify", "core-algebra", "--trials", "3", "--json"],
    ["verify", "paper-examples", "--json"],
]
# error paths: usage errors exit 2, domain errors 1, each with nothing on
# stdout; an operator spec is checked before the expression is read, and
# the expression before the 'main' kernel bounds
ARGVS += [
    ["apply", "d9", "Z"],
    ["apply", "d9", "Z+"],
    ["apply", "d1^x", "Z"],
    ["apply", "d1^-1", "Z"],
    ["apply", "d1", "Z+"],
    ["decompose", "main", "(a+ac)*(b+bc)", "--raw-idempotent", "--k", "2"],
    ["decompose", "main", "Z+"],
    ["decompose", "main", "Z", "--n", "2", "--k", "2"],
    ["decompose", "zstar", "dag(Z)"],
    ["eval", "Z+", "--at", "1"],
    ["eval", "Z", "--at", "1+q"],
    ["classify", "Z +* 2"],
    ["classify", "(Z+star(Z)+dag(Z)+1)^200"],
    ["verify", "nosuch"],
]
# bad numeric options and operator powers past the limit are usage errors,
# each checked where the parent checked its neighbours
ARGVS += [
    ["decompose", "main", "Z", "--n", "0", "--k", "1"],
    ["decompose", "main", "Z+", "--n", "0", "--k", "1"],
    ["decompose", "main", "(a+ac)*(b+bc)", "--raw-idempotent", "--n", "2", "--k", "-1"],
    ["verify", "core-algebra", "--max-degree", "-1"],
    ["verify", "core-algebra", "--coeff-bound", "0"],
    ["verify", "nosuch", "--max-degree", "-1"],
    ["apply", "d7^100000", "Z"],
    ["apply", "d7^257", "Z+"],
    ["apply", "d7^256", "(Z*star(Z))^3", "--json"],
]
# a negative trial count is a usage error, checked beside the other numbers
ARGVS += [
    ["verify", "core-algebra", "--trials", "-5"],
    ["verify", "paper-examples", "--trials", "-1"],
]


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
