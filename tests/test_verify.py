from math import perm

import pytest

from bcpoly import GaussianRational, classify, expr, polyfun
from bcpoly.polyfun import Poly4
from bcpoly.verify import DEFAULT_TRIALS, SUITE_NAMES, report_to_json, run_suite


def test_every_suite_passes_at_small_counts():
    for name in SUITE_NAMES:
        result = run_suite(name, trials=25, seed=7)
        assert result.failures == 0, (name, result.first_counterexample)
        assert result.first_counterexample is None


def test_reports_are_deterministic():
    first = report_to_json([run_suite(name, trials=30, seed=11) for name in SUITE_NAMES])
    second = report_to_json([run_suite(name, trials=30, seed=11) for name in SUITE_NAMES])
    assert first == second


def test_zero_trials_is_a_vacuous_pass():
    for name in SUITE_NAMES:
        result = run_suite(name, trials=0, seed=0)
        assert result.trials == 0 and result.failures == 0
        assert result.first_counterexample is None


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("bogus", trials=1, seed=0)


@pytest.mark.parametrize("name", ["mainthm-i", "paper-examples"])
def test_negative_trial_count_rejected(name):
    with pytest.raises(ValueError, match="trials must be >= 0"):
        run_suite(name, trials=-3, seed=0)


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


def test_wrong_falling_factorial_in_derive_is_caught(monkeypatch):
    # perm(e, k) + 1 for e >= 2 in the operator kernel.  Orders, kernel tests
    # and round trips do not see a wrong nonzero factor; only the Leibniz
    # check of fn-pointwise does, and it failed every one of 40 trials on
    # each of seeds 0, 1 and 2.
    monkeypatch.setattr(polyfun, "perm", lambda e, k: perm(e, k) + (e >= 2))
    _assert_caught(("fn-pointwise",))


def test_wrong_sign_in_gaussian_product_is_caught(monkeypatch):
    # (a + b*i)(c + d*i) with imaginary part a*d - b*c: wrong whenever
    # b*c != 0, so a real left factor still multiplies correctly
    mul = GaussianRational.__mul__

    def wrong_sign(self, other):
        other = GaussianRational.coerce(other)
        return GaussianRational(mul(self, other).re, self.re * other.im - self.im * other.re)

    monkeypatch.setattr(GaussianRational, "__mul__", wrong_sign)
    monkeypatch.setattr(GaussianRational, "__rmul__", wrong_sign)
    _assert_caught(("core-algebra", "fn-pointwise"))


def test_wrong_sign_in_operator_products_is_caught(monkeypatch):
    # the same wrong imaginary part, only in the products that carry a
    # falling-factorial factor, which Poly4.derive alone makes
    times = GaussianRational._times

    def wrong_sign(self, other, k):
        right = times(self, other, k)
        return right if k == 1 else GaussianRational(right.re, k * (self.re * other.im - self.im * other.re))

    monkeypatch.setattr(GaussianRational, "_times", wrong_sign)
    _assert_caught(("fn-pointwise",))


def test_wrong_sign_in_one_term_product_is_caught(monkeypatch):
    # the imaginary sign flipped in every product with a one-term factor,
    # the route of most Poly4 products the suites make
    shifted = polyfun._shifted
    monkeypatch.setattr(polyfun, "_shifted", lambda terms, single: {key: c.conjugate() for key, c in shifted(terms, single).items()})
    _assert_caught(("fn-pointwise", "almansi-roundtrip"))


def test_wrong_sign_in_canonical_kernel_is_caught(monkeypatch):
    read = expr._read_canonical

    def flipped(text, budget):
        value = read(text, budget)
        return value and tuple(Poly4._raw({key: c.conjugate() for key, c in p.terms.items()}) for p in value)

    monkeypatch.setattr(expr, "_read_canonical", flipped)
    _assert_caught(("serialization",))


def test_trial_callback_sees_every_trial_and_leaves_the_report_alone():
    durations = []
    timed = run_suite("fn-pointwise", trials=6, seed=3, on_trial=durations.append)
    assert len(durations) == 6 and all(d >= 0 for d in durations)
    assert timed.to_json_obj() == run_suite("fn-pointwise", trials=6, seed=3).to_json_obj()
    untimed = []
    run_suite("paper-examples", seed=0, on_trial=untimed.append)
    assert untimed == []
