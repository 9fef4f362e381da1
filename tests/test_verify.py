import pytest

from bcpoly import classify
from bcpoly.polyfun import Poly4
from bcpoly.verify import DEFAULT_TRIALS, SUITE_NAMES, report_to_json, run_suite, run_suites


def test_every_suite_passes_at_small_counts():
    for name in SUITE_NAMES:
        result = run_suite(name, trials=25, seed=7)
        assert result.failures == 0, (name, result.first_counterexample)
        assert result.first_counterexample is None


def test_reports_are_deterministic():
    first = report_to_json(run_suites(SUITE_NAMES, trials=30, seed=11))
    second = report_to_json(run_suites(SUITE_NAMES, trials=30, seed=11))
    assert first == second


def test_zero_trials_is_a_vacuous_pass():
    for name in SUITE_NAMES:
        result = run_suite(name, trials=0, seed=0)
        assert result.trials == 0 and result.failures == 0
        assert result.first_counterexample is None


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("bogus", trials=1, seed=0)


def test_suite_names_cover_the_required_set():
    required = {
        "conjugation-rotation",
        "reduction-lemma",
        "char2-kernel",
        "proppolholharm-orders",
        "almansi-roundtrip",
        "rehyp-roundtrip",
        "mainthm-i",
        "mainthm-ii",
        "paper-examples",
    }
    assert required <= set(SUITE_NAMES)
    assert set(DEFAULT_TRIALS) == set(SUITE_NAMES)


def test_result_shape_and_flags():
    result = run_suite("proppolholharm-orders", trials=60, seed=5)
    obj = result.to_json_obj()
    assert set(obj) == {"name", "trials", "failures", "retries", "seed", "first_counterexample", "flags"}
    # the informational counter for the minus-component order comparison is
    # recorded on every trial
    assert obj["flags"].get("minus-order-matches-min-nk") == 60


def test_paper_examples_suite_counts_fixed_checks():
    result = run_suite("paper-examples", seed=0)
    assert result.trials == 7 and result.failures == 0


def _assert_caught(names):
    for name in names:
        result = run_suite(name, trials=5, seed=0)
        assert result.failures > 0, name
        assert result.first_counterexample is not None, name


def test_off_by_one_closed_form_order_is_caught(monkeypatch):
    order_under = classify._order_under
    monkeypatch.setattr(classify, "_order_under", lambda poly, kappa: order_under(poly, kappa) + 1)
    _assert_caught(("classify-oracle", "almansi-roundtrip"))


def test_wrong_sign_in_bar_is_caught(monkeypatch):
    bar = Poly4.bar
    monkeypatch.setattr(Poly4, "bar", lambda self: -bar(self))
    _assert_caught(("fn-pointwise",))
