"""Benchmark of the ``bcpoly`` package: one command, three workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src``.  Workloads (why each was chosen is recorded in ``BENCHMARK.json``):

* ``verify-harness``: every suite of ``bcpoly.verify`` at a fixed fraction of
  its default trial count, the reproduction path ``bcpoly verify all``.  One
  op is one trial.  Passes repeat, each with a seed drawn from the
  benchmark seed (the first pass uses the seed itself).
* ``classify-decompose`` and ``expr-eval``: seeded blocks of requests from
  ``gen.py``, sent by one client in a closed loop (the next request starts
  when the previous one has returned).

A run measures whole passes or blocks until the program's measured time
reaches ``--seconds``, so every run ends on a whole batch.

Timing covers only the program's calls.  Input generation, garbage
collection between requests, the reference kernel of ``refclock.py`` and
every check run outside it.  Timing metrics are in refs: each work unit's
wall time over the kernel's mean time close to it, so that a host whose
speed drifts does not move them (the line before the result gives them in
wall time as well).  The last line
of standard output is one JSON object: with ``--trace 0`` the end-to-end
metrics, with ``--trace 1`` the per-layer metrics, each as listed in
``BENCHMARK.json``.

The traced run works on a fixed batch (one verify pass with the seed, or
``TRACE_BLOCKS`` request blocks), first untraced and then with every layer
wrapped (``tracing.py``).  Both passes must give equal outputs: the verify
report byte for byte, every request result equal.  Counts are exact for a
seed; the difference of the two pass times is the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import gen
import refclock
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# share of each suite's DEFAULT_TRIALS run by one verify-harness pass
VERIFY_FRACTION = 1 / 8
SETUP_SAMPLES = 7
IMPORT_SAMPLES = 5
# request blocks in the traced batch
TRACE_BLOCKS = {"classify-decompose": 8, "expr-eval": 1}


def _plain_span(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


# ------------------------------------------------------------------ set-up


def _program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def measure_setup() -> float:
    """Median wall time of a fresh interpreter importing ``bcpoly.cli``."""
    times = []
    for _ in range(SETUP_SAMPLES):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "import bcpoly.cli"], env=_program_env(), cwd=ROOT, check=True)
        times.append(perf_counter() - start)
    return statistics.median(times)


def measure_imports() -> dict[str, float]:
    """Median self import time in ms of each layer, from ``-X importtime``."""
    samples: dict[str, list[float]] = {layer: [] for layer in tracing.LAYERS}
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import bcpoly.cli"],
            env=_program_env(), cwd=ROOT, check=True, capture_output=True, text=True,
        )
        for line in done.stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) == 3 and fields[2].strip().startswith("bcpoly."):
                layer = fields[2].strip().removeprefix("bcpoly.")
                if layer in samples:
                    samples[layer].append(int(fields[0]) / 1000)
    return {layer: statistics.median(values) if values else 0.0 for layer, values in samples.items()}


def load_program() -> SimpleNamespace:
    sys.path.insert(0, str(SRC))
    importlib.import_module("bcpoly.cli")
    return SimpleNamespace(**{layer: importlib.import_module(f"bcpoly.{layer}") for layer in tracing.LAYERS})


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# -------------------------------------------------------- request workloads


class Tally:
    """Outcome of a run of requests; failed requests have latency ``inf``."""

    def __init__(self):
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.repeats = 0
        self.above_limit = 0
        self.problems: list[str] = []
        self.failure_types: dict[str, int] = {}
        self._keys: set = set()

    def add(self, workload, request, out: dict, error, elapsed: float) -> None:
        self.attempted += 1
        if request.key in self._keys:
            self.repeats += 1
        self._keys.add(request.key)
        if workload.size(request, out) > gen.RECURSION_TERMS:
            self.above_limit += 1
        if error is None:
            self.latencies.append(elapsed)
            self.problems += workload.check(request, out)
            return
        self.failed += 1
        self.latencies.append(math.inf)
        kind = type(error).__name__
        self.failure_types[kind] = self.failure_types.get(kind, 0) + 1
        if not workload.expected_failure(request, out, error):
            self.problems.append(f"unexpected {kind}")
            traceback.print_exception(error, file=sys.stderr)


def time_request(workload, request, span):
    """Run one request; returns its outputs, the exception it raised or
    None, and its time."""
    gc.collect()
    out: dict = {}
    error = None
    start = perf_counter()
    try:
        span("bench.request", workload.op, request, span, out)
    except Exception as exc:  # a failing request is counted, the run goes on
        error = exc
    return out, error, perf_counter() - start


def serve(workload, request, tally: Tally) -> float:
    """One request, tallied; its outputs are freed before the next starts,
    so peak memory does not depend on which requests are neighbours."""
    out, error, elapsed = time_request(workload, request, _plain_span)
    tally.add(workload, request, out, error, elapsed)
    return elapsed


def run_requests(workload, seed: int, seconds: float) -> tuple[dict, Tally, dict]:
    rng = random.Random(seed)
    tally = Tally()
    clock = refclock.RefClock()
    spans: list[tuple[float, float]] = []  # per request, in tally order
    block_spans = []
    while clock.position < seconds:
        start = clock.position
        for request in workload.block(rng):
            spans.append(clock.advance(serve(workload, request, tally)))
        block_spans.append((start, clock.position))
    ok = tally.attempted - tally.failed
    refs = [clock.refs(span) for span in spans]
    busy_refs = sum(refs)

    def latency(values, q, whole_run):
        # a failed request is slower than any limit: it counts as the whole run
        value = nearest_rank([v if math.isfinite(lat) else math.inf for v, lat in zip(values, tally.latencies)], q)
        return value if math.isfinite(value) else whole_run

    block_refs = [sum(clock.refs(span) for span in spans if start <= span[0] < end) for start, end in block_spans]
    metrics = {
        "throughput_ops_per_ref": ok / busy_refs,
        "latency_p50_ref": latency(refs, 0.5, busy_refs),
        "latency_p90_ref": latency(refs, 0.9, busy_refs),
        "success_ratio": ok / tally.attempted,
        "verify_ref": statistics.median(block_refs),
    }
    busy = clock.position
    info = {
        "blocks": len(block_spans),
        "busy_s": busy,
        "latency_samples": len(tally.latencies),
        "repeat_share": tally.repeats / tally.attempted,
        "above_recursion_limit_share": tally.above_limit / tally.attempted,
        "failure_types": tally.failure_types,
        **clock_info(clock),
        "wall_throughput_ops_s": ok / busy,
        "wall_latency_p50_ms": 1000 * latency(tally.latencies, 0.5, busy),
        "wall_latency_p90_ms": 1000 * latency(tally.latencies, 0.9, busy),
        "wall_verify_s": statistics.median(end - start for start, end in block_spans),
    }
    check_clock(clock, tally)
    return metrics, tally, info


def clock_info(clock: refclock.RefClock) -> dict:
    return {"ref_mean_ms": clock.mean_ms(), "ref_samples": len(clock.samples)}


def check_clock(clock: refclock.RefClock, tally: Tally) -> None:
    if clock.wrong:
        tally.problems.append(f"reference kernel gave a wrong value {clock.wrong} times")


def trace_requests(bc, workload, seed: int) -> tuple[dict, Tally, dict]:
    rng = random.Random(seed)
    batch = [request for _ in range(TRACE_BLOCKS[workload.name]) for request in workload.block(rng)]

    def run_batch(span):
        results, busy = [], 0.0
        for request in batch:
            out, error, elapsed = time_request(workload, request, span)
            results.append((out, error))
            busy += elapsed
        return results, busy

    plain, untraced_s = run_batch(_plain_span)
    gc.freeze()  # keep the retained outputs out of the collections between requests
    tracer = tracing.Tracer()
    tracer.install()
    tracer.on = True
    traced, traced_s = run_batch(tracer.span)
    tracer.on = False

    tally = Tally()
    for request, (out, error), (out_t, error_t) in zip(batch, plain, traced):
        tally.add(workload, request, out, error, 0.0)
        if out != out_t or type(error) is not type(error_t):
            tally.problems.append("traced output differs")
    metrics = layer_metrics(tracer, {}, untraced_s, traced_s, bc.verify.SUITE_NAMES)
    info = {"requests": len(batch), "repeat_share": tally.repeats / tally.attempted, "spans": len(tracer.span_name)}
    return metrics, tally, info


# ----------------------------------------------------------- verify harness


def suite_trials(bc, name: str) -> int:
    return max(1, round(bc.verify.DEFAULT_TRIALS[name] * VERIFY_FRACTION))


def verify_pass(bc, seed: int, span, clock=None):
    """All suites once; returns results, per-suite seconds (or, given a
    clock, per-suite spans on it) and the report."""
    results, seconds = [], {}
    for name in bc.verify.SUITE_NAMES:
        start = perf_counter()
        results.append(span("bench.suite", bc.verify.run_suite, name, trials=suite_trials(bc, name), seed=seed))
        seconds[name] = perf_counter() - start
        if clock is not None:
            seconds[name] = clock.advance(seconds[name])
    return results, seconds, bc.verify.report_to_json(results)


def tally_suites(tally: Tally, results, seed: int) -> None:
    """Count trials as ops; the verdict must be zero failures."""
    for result in results:
        tally.attempted += result.trials
        tally.failed += result.failures
        if result.failures:
            tally.problems.append(f"suite {result.name} seed {seed}: {result.failures} failures")


def run_verify(bc, seed: int, seconds: float) -> tuple[dict, Tally, dict]:
    seeds = random.Random(seed)
    pass_seed = seed
    tally = Tally()
    clock = refclock.RefClock()
    pass_spans = []
    suite_spans: dict[str, list[tuple[float, float]]] = {}
    trials: dict[str, int] = {}
    while clock.position < seconds:
        gc.collect()
        start = clock.position
        results, spans, _ = verify_pass(bc, pass_seed, _plain_span, clock)
        pass_spans.append((start, clock.position))
        tally_suites(tally, results, pass_seed)
        for result in results:
            suite_spans.setdefault(result.name, []).append(spans[result.name])
            trials[result.name] = result.trials
        pass_seed = seeds.randrange(2**31)
    ok = tally.attempted - tally.failed
    busy = clock.position
    busy_refs = sum(clock.refs(span) for spans in suite_spans.values() for span in spans)

    # Trials are not timed one by one: each trial counts as its suite's mean
    # trial time over the run, and weighs as one trial of a pass.
    def latency(q, measure):
        by_time = sorted(
            (sum(measure(span) for span in suite_spans[name]) / (count * len(suite_spans[name])), count)
            for name, count in trials.items()
        )
        rank = q * sum(trials.values())
        for value, count in by_time:
            rank -= count
            if rank <= 0:
                return value
        return by_time[-1][0]

    def wall(span):
        return span[1] - span[0]

    metrics = {
        "throughput_ops_per_ref": ok / busy_refs,
        "latency_p50_ref": latency(0.5, clock.refs),
        "latency_p90_ref": latency(0.9, clock.refs),
        "success_ratio": ok / tally.attempted,
        "verify_ref": statistics.median(
            sum(clock.refs(span) for spans in suite_spans.values() for span in spans if start <= span[0] < end)
            for start, end in pass_spans
        ),
    }
    info = {
        "passes": len(pass_spans),
        "busy_s": busy,
        "trials_per_pass": sum(trials.values()),
        "repeat_share": None,
        **clock_info(clock),
        "wall_throughput_ops_s": ok / busy,
        "wall_latency_p50_ms": 1000 * latency(0.5, wall),
        "wall_latency_p90_ms": 1000 * latency(0.9, wall),
        "wall_verify_s": statistics.median(wall(span) for span in pass_spans),
    }
    check_clock(clock, tally)
    return metrics, tally, info


def trace_verify(bc, seed: int) -> tuple[dict, Tally, dict]:
    gc.collect()
    results, suite_s, report = verify_pass(bc, seed, _plain_span)
    tracer = tracing.Tracer()
    tracer.install()
    tracer.on = True
    gc.collect()
    _, traced_suite_s, traced_report = verify_pass(bc, seed, tracer.span)
    tracer.on = False
    tally = Tally()
    tally_suites(tally, results, seed)
    if traced_report != report:
        tally.problems.append("traced report differs")
    metrics = layer_metrics(tracer, suite_s, sum(suite_s.values()), sum(traced_suite_s.values()), bc.verify.SUITE_NAMES)
    return metrics, tally, {"spans": len(tracer.span_name)}


# --------------------------------------------------------- per-layer metrics


def layer_metrics(tracer, suite_s: dict, untraced_s: float, traced_s: float, suite_names) -> dict:
    by_name, by_layer = tracer.summary()
    counts = tracer.counts

    def ms(*names):
        return 1000 * sum((by_name[n]["total_s"] for n in names if n in by_name), 0.0)

    def calls(name):
        return by_name[name]["calls"] if name in by_name else 0

    order_calls = calls("classify.polyharmonic_order")
    metrics = {
        "bicomplex.gr_mul_calls": counts["bicomplex.GaussianRational.__mul__"],
        "bicomplex.coeff_bits_max": tracer.coeff_bits_max,
        "polyfun.evaluate_ms": ms("polyfun.BicomplexFunction.evaluate"),
        "polyfun.evaluate_calls": calls("polyfun.BicomplexFunction.evaluate"),
        "polyfun.diff_calls": calls("polyfun.Poly4.diff"),
        "polyfun.mul_ms": ms("polyfun.Poly4.__mul__"),
        "polyfun.mul_calls": calls("polyfun.Poly4.__mul__"),
        "polyfun.mul_term_pairs": counts["polyfun.mul_term_pairs"],
        "polyfun.add_ms": ms("polyfun.Poly4.__add__"),
        "polyfun.add_calls": calls("polyfun.Poly4.__add__"),
        "polyfun.add_terms_copied": counts["polyfun.add_terms_copied"],
        "operators.apply_ms": ms("operators.Operator.apply"),
        "operators.apply_calls": calls("operators.Operator.apply"),
        "operators.apply_input_terms": counts["operators.apply_input_terms"],
        "classify.report_ms": ms("classify.classification_report"),
        "classify.signature_iter_ms": ms("classify.signature_by_iteration"),
        "classify.order_calls": order_calls,
        "classify.applies_per_order": counts["classify.applies_in_order"] / order_calls if order_calls else 0.0,
        "decompose.almansi_ms": ms("decompose.almansi_bicomplex"),
        "decompose.conjbasis_ms": ms("decompose.expand_conjugate_basis"),
        "decompose.main_ms": ms("decompose.main_decomposition"),
        "expr.parse_ms": ms("expr.parse"),
        "expr.parse_calls": calls("expr.parse"),
        "expr.terms_out": counts["expr.terms_out"],
        "expr.format_ms": ms("expr.format_function"),
        "expr.json_ms": ms("expr.function_to_json", "expr.function_from_json"),
        "expr.reparse_ms": ms("bench.reparse"),
        "sampling.draw_ms": 1000 * by_layer.get("sampling", {}).get("total_s", 0.0),
        "trace.untraced_s": untraced_s,
        "trace.traced_s": traced_s,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.spans": len(tracer.span_name),
    }
    # bicomplex scalars are counted, not spanned; no workload calls cli
    for layer in tracing.LAYERS:
        if layer not in ("bicomplex", "cli"):
            metrics[f"{layer}.self_ms"] = 1000 * by_layer.get(layer, {}).get("self_s", 0.0)
    for name in suite_names:
        metrics[f"verify.{name}_s"] = suite_s.get(name, 0.0)
    for layer, value in measure_imports().items():
        metrics[f"{layer}.import_ms"] = value
    return metrics


# --------------------------------------------------------------------- main


WORKLOADS = ("verify-harness", *workloads.REQUEST_WORKLOADS)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "bcpoly" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no bcpoly source under {SRC} or no {spec_path.name}; run from a source checkout", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())["per_layer" if args.trace else "end_to_end"]

    setup_s = None if args.trace else measure_setup()
    bc = load_program()
    gc.freeze()  # the collections between requests then skip the interpreter's own objects
    if args.workload == "verify-harness":
        if args.trace:
            metrics, tally, info = trace_verify(bc, args.seed)
        else:
            metrics, tally, info = run_verify(bc, args.seed, args.seconds)
    else:
        workload = workloads.REQUEST_WORKLOADS[args.workload](bc)
        if args.trace:
            metrics, tally, info = trace_requests(bc, workload, args.seed)
        else:
            metrics, tally, info = run_requests(workload, args.seed, args.seconds)
    if not args.trace:
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = peak_rss_mb()

    missing = [entry["name"] for entry in spec if entry["name"] not in metrics]
    if missing:
        print(f"error: metrics listed in BENCHMARK.json but not measured: {missing}", file=sys.stderr)
        return 2
    for problem in tally.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed, **info}))
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {e["name"]: {"value": metrics[e["name"]], "unit": e["unit"]} for e in spec},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
