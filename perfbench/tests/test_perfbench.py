"""Tests for the benchmark's own logic: span arithmetic, target/censoring rule,
output checks and metric names. Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import platform
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import run as bench_run  # noqa: E402
import setup_probe  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from checks import TrialFailure  # noqa: E402
from spans import Span  # noqa: E402

unipol = bench_run._import_unipol()


def _span(sid, parent, start, end, name="solver.loop", attrs=None, thread=0, cpu=0.0):
    return Span(sid, parent, name, float(start), float(end), thread, cpu, attrs)


# --- self time -------------------------------------------------------------


def test_self_time_subtracts_union_of_children():
    tree = [
        _span(1, None, 0, 10),
        _span(2, 1, 1, 4),
        _span(3, 1, 3, 6),  # overlaps span 2: covered once, [1, 6]
        _span(4, 2, 2, 3),
    ]
    selfs = spans.self_times(tree)
    assert selfs[1] == pytest.approx(5.0)
    assert selfs[2] == pytest.approx(2.0)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(1.0)


def test_self_time_clips_children_to_parent_interval():
    # a worker-thread child may outlive its fan-out parent's recorded end
    tree = [_span(1, None, 0, 4), _span(2, 1, 3, 9), _span(3, 1, -1, 1)]
    assert spans.self_times(tree)[1] == pytest.approx(2.0)


def test_tracer_nesting_and_shares():
    tracer = spans.Tracer()

    def leaf():
        time.sleep(0.002)

    leaf_t = tracer.wrap("quartic.roots", leaf)

    def mid():
        leaf_t()
        time.sleep(0.002)

    mid_t = tracer.wrap("quartic.minimize_batch", mid)
    outer = tracer.wrap("solver.loop", lambda: (mid_t(), mid_t()))
    outer()

    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    (root,) = by_name["solver.loop"]
    assert root.parent is None
    assert all(s.parent == root.id for s in by_name["quartic.minimize_batch"])
    mids = {s.id for s in by_name["quartic.minimize_batch"]}
    assert all(s.parent in mids for s in by_name["quartic.roots"])

    selfs = spans.self_times(tracer.spans)
    assert sum(selfs.values()) == pytest.approx(root.end - root.start, rel=1e-9)
    m = spans.layer_metrics(tracer.spans)
    assert sum(m[f"{layer}.share"] for layer in spans.LAYERS) == pytest.approx(1.0)
    assert m["quartic.minimize_batch.calls"] == 2
    assert m["quartic.select.self_s"] == pytest.approx(m["quartic.minimize_batch.self_s"])


def test_fanout_parent_reaches_worker_threads():
    tracer = spans.Tracer()
    trial = tracer.wrap("bench.trial", lambda: time.sleep(0.001))

    def batch():
        with ThreadPoolExecutor(max_workers=2) as pool:
            for f in [pool.submit(trial) for _ in range(4)]:
                f.result()

    tracer.wrap("bench.run_bench", batch, fanout=True)()
    (parent,) = [s for s in tracer.spans if s.name == "bench.run_bench"]
    trials = [s for s in tracer.spans if s.name == "bench.trial"]
    assert len(trials) == 4 and all(s.parent == parent.id for s in trials)
    assert any(s.thread != threading.get_ident() for s in trials)


def test_concurrency_and_dispatch_gap_arithmetic():
    # one batch over [0, 10]; worker A runs [0.5, 4] and [4.25, 9], worker B [1, 8]
    tree = [
        _span(1, None, 0, 10, "bench.run_bench"),
        _span(2, 1, 0.5, 4, "bench.trial", thread=1, cpu=3.0),
        _span(3, 1, 1, 8, "bench.trial", thread=2, cpu=6.0),
        _span(4, 1, 4.25, 9, "bench.trial", thread=1, cpu=4.0),
    ]
    m = spans.layer_metrics(tree)
    assert m["bench.concurrency"] == pytest.approx(13.0 / 10.0)
    assert m["bench.trial_queue_wait_s"] == pytest.approx(0.5)  # gaps 0.5, 1, 0.25


def test_concurrency_counts_cpu_not_open_spans():
    # Pure-Python trials on two threads take turns on the GIL: both spans are
    # open the whole time, but at most one core is busy.
    tracer = spans.Tracer()

    def spin():
        deadline = time.thread_time() + 0.05
        while time.thread_time() < deadline:
            pass

    trial = tracer.wrap("bench.trial", spin)

    def batch():
        with ThreadPoolExecutor(max_workers=2) as pool:
            for f in [pool.submit(trial) for _ in range(4)]:
                f.result()

    tracer.wrap("bench.run_bench", batch, fanout=True)()
    m = spans.layer_metrics(tracer.spans)
    assert 0.5 < m["bench.concurrency"] < 1.2


def test_install_and_uninstall_restore_every_attribute():
    before = {
        "run": unipol.solver.run,
        "post_init": unipol.metrics.UnimodularSequence.__post_init__,
        "runner": unipol.bench._RUNNERS["can"],
    }
    tracer = spans.Tracer()
    spans.install(tracer, unipol)
    try:
        unipol.run(unipol.SolverConfig(n=16, max_iterations=2, seed=1))
    finally:
        tracer.uninstall()
    names = {s.name for s in tracer.spans}
    assert {"solver.run", "solver.loop", "solver.step", "surrogate.ab_all_fast",
            "quartic.minimize_batch", "quartic.roots", "metrics.isl_time",
            "metrics.sequence_new"} <= names
    assert unipol.solver.run is before["run"]
    assert unipol.metrics.UnimodularSequence.__post_init__ is before["post_init"]
    assert unipol.bench._RUNNERS["can"] is before["runner"]


# --- end-to-end reductions -----------------------------------------------------


def test_isl_reduction_median_is_per_seed_progress():
    def trial(seed, initial, final):
        return workloads.Trial("unipol", 100, seed, 10, 1.0, final, np.ones(10), b"",
                               initial_isl=initial)

    first = [trial(0, 100.0, 20.0), trial(1, 200.0, 100.0), trial(2, 50.0, 45.0)]
    m = workloads.Measurement(trials=list(first), first_pass=first, call_rates=[1.0])
    e2e, _ = bench_run._end_to_end(workloads.MmCanN100(unipol, 0, Path(".")), m, [0.1])
    assert e2e["isl_reduction_median"] == pytest.approx(0.5)  # of 0.8, 0.5, 0.1
    assert e2e["final_isl_median"] == pytest.approx(45.0)


def test_relative_metrics_pair_each_call_with_its_reference():
    # three calls: 10, 20 and 5 evaluations per second against reference steps
    # of 0.1, 0.05 and 0.1 s give 1, 1 and 2 reference steps per evaluation
    m = workloads.Measurement(call_rates=[10.0, 20.0, 5.0], step_means=[0.2, float("nan"), 0.3],
                              ref_s=[0.1, 0.05, 0.1])
    e2e, extra = bench_run._end_to_end(workloads.MmCanN100(unipol, 0, Path(".")), m, [0.1])
    assert e2e["eval_rel_p50"] == pytest.approx(1.0)
    assert e2e["step_rel_p50"] == pytest.approx(2.5)  # calls without primary steps are skipped
    assert extra["ref_ms_p50"] == pytest.approx(100.0)


def test_measure_times_a_reference_block_around_every_call(tmp_path, monkeypatch):
    blocks = iter([np.array([1.0]), np.array([3.0]), np.array([5.0])])
    monkeypatch.setattr(workloads, "reference_block", lambda v, threads: next(blocks))

    class Fixed(workloads.Workload):
        name, primary, per_call, seeds_per_pass = "fixed", ("unipol", 4), 1, 2

        def call(self, key):
            trial = workloads.Trial("unipol", 4, key, 2, 0.5, 1.0, np.array([0.1, 0.3]), b"")
            return 0.5, [trial]

    m = workloads.measure(Fixed(unipol, 0, tmp_path), [0, 1], timed_reference=True)
    assert m.call_rates == [4.0, 4.0]
    assert m.step_means == pytest.approx([0.2, 0.2])
    assert m.ref_s == [2.0, 4.0]  # mean of the blocks before and after each call


def test_reference_block_runs_at_least_min_reps():
    v = np.exp(2j * np.pi * np.linspace(0.0, 1.0, 64, endpoint=False))
    assert workloads.reference_block(v, seconds=0.0, min_reps=5).size == 5
    assert workloads.reference_block(v, seconds=0.0, min_reps=5, threads=2).size == 10
    assert np.allclose(np.abs(workloads.reference_step(v)), 1.0)


def test_malloc_pins_take_on_glibc():
    if platform.libc_ver()[0] != "glibc":
        pytest.skip("mallopt is glibc's")
    assert bench_run._pin_malloc()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_setup_probe_first_calls_run(name, monkeypatch):
    monkeypatch.setenv("UNIPOL_THREADS", "1")  # restored after the bench-matrix probe
    assert setup_probe.main(["--workload", name]) == 0


# --- target and censoring ----------------------------------------------------


def test_evals_to_target_first_crossing():
    isl = [100.0, 60.0, 30.0, 25.0, 20.0]
    assert checks.evals_to_target(isl) == 3  # 25 <= 0.25 * 100
    assert checks.evals_to_target([100.0, 90.0, 26.0]) is None


def test_censored_median_ranks_misses_last():
    assert checks.censored_median([300, None, 500]) == 500.0
    assert checks.censored_median([300, 400, None, None]) is None  # median touches a miss
    assert checks.censored_median([None, None, None]) is None
    assert checks.censored_median([]) is None
    assert checks.hit_fraction([300, None, 500, None]) == 0.5


def test_tail_percentile_needs_ten_samples_beyond():
    assert checks.tail_percentile(np.arange(99.0)) is None
    assert checks.tail_percentile(np.arange(100.0)) == pytest.approx(89.1)


# --- failure detection ---------------------------------------------------------


def test_rising_trace_fails():
    with pytest.raises(TrialFailure, match="rose at evaluation 2"):
        checks.check_isl_trace([10.0, 9.0, 9.5, 8.0], budget=3, evals=3, monotone=True)
    # CAN traces carry no descent guarantee
    checks.check_isl_trace([10.0, 9.0, 9.5, 8.0], budget=3, evals=3, monotone=False)


def test_rise_within_criterion_3_tolerance_passes():
    checks.check_isl_trace([10.0, 10.0 * (1 + 5e-10)], budget=1, evals=1, monotone=True)


def test_budget_and_finiteness_fail():
    with pytest.raises(TrialFailure, match="budget"):
        checks.check_isl_trace([3.0, 2.0, 1.0], budget=1, evals=2, monotone=True)
    with pytest.raises(TrialFailure, match="non-finite"):
        checks.check_isl_trace([3.0, float("nan")], budget=1, evals=1, monotone=False)


class _SmallDesign(workloads.CliDesign):
    n = 64
    iters = 3


def test_clean_design_call_passes(tmp_path):
    wl = _SmallDesign(unipol, 0, tmp_path)
    _, (trial,) = wl.call(wl.keys[0])
    assert trial.error is None and trial.evals == 3


def test_tampered_readback_file_fails(tmp_path, monkeypatch):
    wl = _SmallDesign(unipol, 0, tmp_path)
    original = unipol.io.read_sequence_file

    def tamper_then_read(path):
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        theta = float(lines[1].split(",")[1]) + 0.5
        lines[1] = f"0,{theta!r},{float(np.cos(theta))!r},{float(np.sin(theta))!r}"
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
        return original(path)

    monkeypatch.setattr(unipol.io, "read_sequence_file", tamper_then_read)
    _, (trial,) = wl.call(wl.keys[0])
    assert trial.error is not None and "read-back ISL" in trial.error


def test_bench_rows_order_and_count():
    row = unipol.bench.BenchRow
    rows = [row("unipol", 8, s, 2, 1.0, 0.1) for s in (0, 1)]
    expected = [("unipol", 8, 0), ("unipol", 8, 1)]
    checks.check_bench_rows(rows, expected, iters=2)
    with pytest.raises(TrialFailure, match="order"):
        checks.check_bench_rows(rows[::-1], expected, iters=2)
    with pytest.raises(TrialFailure, match="rows"):
        checks.check_bench_rows(rows[:1], expected, iters=2)


def test_measure_counts_raises_and_nondeterminism(tmp_path):
    class Flaky(workloads.Workload):
        name, primary, per_call, seeds_per_pass = "flaky", ("unipol", 4), 1, 2
        calls = 0

        def call(self, key):
            self.calls += 1
            if key == 1:
                raise RuntimeError("boom")
            trial = workloads.Trial("unipol", 4, key, 1, 0.01, 1.0, np.zeros(1),
                                    bytes([self.calls]))
            return 0.01, [trial]

    m = workloads.measure(Flaky(unipol, 0, tmp_path), [0, 1, 0])
    assert (m.attempted, m.failed) == (3, 2)
    assert any("boom" in e for e in m.errors)
    assert any("differs from the first run" in e for e in m.errors)


# --- metric names ----------------------------------------------------------------


def test_metric_name_charset():
    assert checks.valid_metric_name("quartic.minimize_batch.ms_p50")
    assert checks.valid_metric_name("bench.trial_queue_wait_s")
    for bad in ("", "step ms", "io/write", ".share", "x" * 65, "isl:ratio"):
        assert not checks.valid_metric_name(bad)


def test_benchmark_json_names_match_what_the_harness_emits():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert all(checks.valid_metric_name(n) for n in names)
    assert len(names) == len(set(names))
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert set(bench_run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)

    layer = set(spans.layer_metrics([])) | {"trace.overhead_frac"}
    assert {m["name"] for m in spec["per_layer"]} == layer

    m = workloads.Measurement(call_rates=[1.0])
    e2e, extra = bench_run._end_to_end(workloads.MmCanN100(unipol, 0, Path(".")), m, [0.1])
    assert set(e2e) | set(extra) <= set(bench_run.UNITS)
    for item in spec["end_to_end"]:
        assert item["name"] in e2e and bench_run.UNITS[item["name"]] == item["unit"]
