import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from bcpoly.cli import _MAX_OPERATOR_POWER, main

CLI = [sys.executable, "-m", "bcpoly"]
# the CLI runs from this checkout's sources, installed or not
SRC = str(Path(__file__).resolve().parents[1] / "src")
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}


def run_cli(*args, timeout=None):
    return subprocess.run(CLI + list(args), capture_output=True, text=True, env=ENV, timeout=timeout)


def test_eval_square_at_one_plus_j():
    result = run_cli("eval", "Z^2", "--at", "1 + j")
    assert result.returncode == 0
    assert result.stdout.strip() == "2*j"


def test_eval_idempotent_product_is_zero():
    result = run_cli("eval", "e+ * e-", "--at", "1+2i+3j+4k")
    assert result.returncode == 0
    assert result.stdout.strip() == "0"


def test_eval_hyperbolic_part_of_unit_quadruple():
    result = run_cli("eval", "rehyp(Z)", "--at", "1+2i+3j+4k")
    assert result.returncode == 0
    assert result.stdout.strip() == "1 + 4*k"


def test_eval_json_output_is_the_eight_string_array():
    result = run_cli("eval", "rehyp(Z)", "--at", "1+2i+3j+4k", "--json")
    payload = json.loads(result.stdout)
    assert payload == ["5", "1", "0", "1", "-3", "1", "0", "1"]


def test_eval_domain_error_is_structured():
    for text in ("Z +", "(" * 300 + "Z" + ")" * 300):
        result = run_cli("eval", text, "--at", "0")
        assert result.returncode == 1
        payload = json.loads(result.stderr)
        assert payload["error"] == "ExprSyntaxError"


def test_integer_literal_past_the_digit_limit_is_structured():
    result = run_cli("eval", "1" * 5000, "--at", "1")
    assert result.returncode == 1
    payload = json.loads(result.stderr)
    assert payload["error"] == "ExprSyntaxError"
    assert payload["message"] == f"integer literal longer than the limit of {sys.get_int_max_str_digits()} digits (at position 0)"


def test_output_past_the_digit_limit_is_structured():
    limit = sys.get_int_max_str_digits()
    for args in (
        ("eval", "2^20000", "--at", "1"),
        ("eval", "2^20000", "--at", "1", "--json"),
        ("apply", "dZ", "2^20000*Z^2"),
        ("apply", "dZ", "2^20000*Z^2", "--json"),
        ("decompose", "zstar", "2^20000*Z"),
    ):
        result = run_cli(*args)
        assert result.returncode == 1, args
        assert result.stdout == ""
        payload = json.loads(result.stderr)
        assert payload == {"error": "OutputLimitError", "message": f"cannot print a number longer than the limit of {limit} digits"}


def test_expansion_limit_error_is_structured():
    result = run_cli("classify", "(Z+star(Z)+dag(Z)+1)^200")
    assert result.returncode == 1
    payload = json.loads(result.stderr)
    assert payload["error"] == "ExprLimitError"
    assert "limit of" in payload["message"]


def test_evaluation_limit_error_is_structured():
    # parsing is immediate; the refusal must come before any power table
    result = run_cli("eval", "Z^1000000000", "--at", "1 + j", timeout=5)
    assert result.returncode == 1
    payload = json.loads(result.stderr)
    assert payload["error"] == "EvalLimitError"
    assert "limit of" in payload["message"]


def test_apply_d1_annihilates_cross_term():
    result = run_cli("apply", "d1", "(a+ac)*(b+bc)", "--raw-idempotent")
    assert result.returncode == 0
    assert result.stdout.strip() == "0 | 0"


def test_apply_d5_gives_constant_one():
    result = run_cli("apply", "d5", "(a+ac)*(b+bc)", "--raw-idempotent")
    assert result.stdout.strip() == "1 | 1"


def test_apply_powered_star_derivative():
    result = run_cli("apply", "dZs^2", "star(Z)")
    assert result.stdout.strip() == "0 | 0"


def test_apply_unknown_operator_is_usage_error():
    result = run_cli("apply", "d9", "Z")
    assert result.returncode == 2


def test_operator_power_past_the_limit_is_refused_at_once():
    # the golden CLI table pins the output; this pins the time
    err = io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stderr(err):
        assert main(["apply", "d7^100000", "Z"]) == 2
    assert perf_counter() - start < 1
    assert json.loads(err.getvalue())["message"] == f"operator power 100000 is past the limit of {_MAX_OPERATOR_POWER}"


def test_classify_cross_term():
    result = run_cli("classify", "(a+ac)*(b+bc)", "--raw-idempotent", "--json")
    payload = json.loads(result.stdout)
    assert payload["signature"] == [2, 2, 2]
    assert payload["orders"]["d1"] == 1


def test_decompose_conjbasis_realizer():
    result = run_cli("decompose", "conjbasis", "2*star(Z)*(dag(Z) + til(Z))", "--json")
    payload = json.loads(result.stdout)
    assert set(payload) == {"1,0,1", "1,1,0"}
    two = [[0, 0, 0, 0, ["2", "1", "0", "1"]]]
    assert payload["1,0,1"] == {"plus": two, "minus": two}


def test_decompose_rehyp_holo_rejects_cross_term():
    result = run_cli("decompose", "rehyp-holo", "(a+ac)*(b+bc)", "--raw-idempotent")
    assert result.returncode == 1
    payload = json.loads(result.stderr)
    assert payload["error"] == "PreconditionViolation"
    assert payload["condition"] == "dZdagger-kernel"


def test_decompose_main_requires_bounds():
    result = run_cli("decompose", "main", "(a+ac)*(b+bc)", "--raw-idempotent")
    assert result.returncode == 2


def test_decompose_main_with_bounds():
    result = run_cli(
        "decompose", "main", "(a+ac)*(b+bc)", "--raw-idempotent", "--n", "2", "--k", "2", "--json"
    )
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert set(payload) == {"G", "f", "non_real"}
    assert set(payload["G"]) == {"0,1", "1,0"}
    assert payload["non_real"] == []
    assert payload["f"] is not None


def test_verify_suite_passes_and_is_deterministic():
    first = run_cli("verify", "reduction-lemma", "--trials", "50", "--seed", "7", "--json")
    second = run_cli("verify", "reduction-lemma", "--trials", "50", "--seed", "7", "--json")
    assert first.returncode == 0
    assert first.stdout == second.stdout
    payload = json.loads(first.stdout)
    assert payload["failures"] == 0


def test_verify_all_zero_trials_vacuous_pass():
    result = run_cli("verify", "all", "--trials", "0", "--json")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["failures"] == 0
    assert all(entry["trials"] == 0 for entry in payload["suites"])


def test_verify_timings_go_to_stderr_only():
    args = ("verify", "all", "--trials", "2", "--seed", "3")
    plain = run_cli(*args)
    timed = run_cli(*args, "--timings")
    assert plain.returncode == timed.returncode == 0
    assert timed.stdout == plain.stdout and plain.stderr == ""
    names = [entry["name"] for entry in json.loads(plain.stdout)["suites"]]
    rows = [line.split("\t") for line in timed.stderr.splitlines()]
    assert [name for name, *_ in rows] == names
    for name, seconds, count, p50, p90 in rows:
        assert seconds.endswith(" s") and float(seconds[:-2]) >= 0
        if name == "paper-examples":
            # one fixed block of checks, with no trials of its own to time
            assert (count, p50, p90) == ("0 trials", "p50 -", "p90 -")
            continue
        assert count == "2 trials"
        low, high = (float(p.split()[1]) for p in (p50, p90))
        assert p50.endswith(" s") and p90.endswith(" s") and 0 <= low <= high <= float(seconds[:-2]) + 0.001


def test_verify_unknown_suite_is_usage_error():
    result = run_cli("verify", "nosuch")
    assert result.returncode == 2


def test_paper_examples_command():
    result = run_cli("paper-examples", "--json")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert all(check["pass"] for check in payload)
    assert len(payload) == 7
