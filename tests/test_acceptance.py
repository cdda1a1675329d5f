"""Acceptance gate: every exit criterion at its stated scale and tolerance.

Each test prints one PASS/FAIL line (run with -s or check captured output).
Criterion 7 is timing-based and assumes a quiet machine.

Criterion 8 fixes a comparison protocol: N = 100, a 1000-iteration budget,
30 seeded trials, median final ISL of the MM driver <= median final ISL of
CAN, both <= 10% of the median initial ISL. With exact per-variable
minimization the MM driver's Jensen-type majorizer takes O(1/N)-damped steps,
so at N = 100 it is still far from its limit point after 1000 iterations,
while CAN reaches its fixed point within a few hundred. The companion test
shows the driver does reach lower ISL than CAN once both run to convergence;
under the fixed 1000-iteration budget plain MM (accel="none") misses the
required medians, and the default SQUAREM-accelerated run meets them.
"""

import gc
import time

import numpy as np

from unipol.baselines import can_run, generate
from unipol.cli import main
from unipol.io import read_run_record, read_sequence_file
from unipol.metrics import isl_freq, isl_quartic, isl_time, merit_factor, phase_of, psl
from unipol.quartic import minimize_batch
from unipol.solver import SolverConfig, init_random, run, unipol_step
from unipol.surrogate import ab_all_direct, ab_all_fast, surrogate_value

from test_solver import direct_step


def report(cid: str, ok: bool, detail: str = ""):
    print(f"[criterion {cid}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {cid}: {detail}"


def random_unimodular(n, rng):
    return np.exp(2j * np.pi * rng.random(n))


def test_criterion_1_parseval_equivalence():
    rng = np.random.default_rng(101)
    lengths = list(rng.integers(1, 65, size=197)) + [511, 512, 1024]
    worst = 0.0
    for n in lengths:
        x = random_unimodular(int(n), rng)
        t, f = isl_time(x), isl_freq(x)
        worst = max(worst, abs(t - f) / max(1.0, t))
    report("1", worst <= 1e-10, f"time-vs-frequency ISL, 200 sequences, worst rel gap {worst:.2e}")


def test_criterion_2_majorization_suite():
    rng = np.random.default_rng(202)
    worst_touch = 0.0
    dominated = True
    for _ in range(500):
        n = int(rng.integers(1, 33))
        xt = random_unimodular(n, rng)
        x = random_unimodular(n, rng)
        ref = isl_quartic(xt)
        worst_touch = max(worst_touch, abs(surrogate_value(xt, xt) - ref) / ref)
        u = surrogate_value(x, xt)
        dominated &= u >= isl_quartic(x) - 1e-8 * u
    ok = worst_touch <= 1e-8 and dominated
    report("2", ok, f"500 pairs, worst touching gap {worst_touch:.2e}, domination {dominated}")


def test_criterion_3_monotone_descent():
    violations = 0
    runs = 0
    for n, count in ((50, 34), (100, 33), (225, 33)):
        for seed in range(count):
            trace = run(SolverConfig(n=n, max_iterations=200, seed=seed)).isl_per_iteration
            bad = trace[1:] > trace[:-1] * (1 + 1e-9) + 1e-9
            violations += int(np.sum(bad))
            runs += 1
    report("3", violations == 0, f"{runs} runs x 200 iterations, {violations} violations")


def test_criterion_4_minimizer_vs_grid():
    rng = np.random.default_rng(404)
    n_pairs = 10_000
    a = rng.uniform(-10, 10, n_pairs) + 1j * rng.uniform(-10, 10, n_pairs)
    b = rng.uniform(-10, 10, n_pairs) + 1j * rng.uniform(-10, 10, n_pairs)
    # forced coverage of the theta = pi family the half-angle roots cannot hit
    a[:100] = 0.0
    b[:100] = -np.abs(b[:100].real) - 0.5

    theta = np.array([phase_of(minimize_batch(ai, bi))[0] for ai, bi in zip(a, b)])
    achieved = (a * np.exp(2j * theta) - b * np.exp(1j * theta)).real

    grid = np.linspace(0.0, 2 * np.pi, 1_000_001)[:-1]
    coeff = np.stack([a.real, -a.imag, -b.real, b.imag], axis=1)  # (P, 4)
    best = np.full(n_pairs, np.inf)
    chunk = 20_000
    out = np.empty((chunk, n_pairs))
    for start in range(0, grid.size, chunk):
        t = grid[start : start + chunk]
        basis = np.stack([np.cos(2 * t), np.sin(2 * t), np.cos(t), np.sin(t)], axis=1)
        buf = out if t.size == chunk else np.empty((t.size, n_pairs))
        np.dot(basis, coeff.T, out=buf)
        np.minimum(best, buf.min(axis=0), out=best)
    worst = float(np.max(achieved - best))
    del out, buf
    gc.collect()  # the grid buffer is large; leave the heap clean for the timing test
    report("4", worst <= 1e-9, f"10^4 pairs vs 10^6-point grid, worst excess {worst:.2e}")


def test_criterion_5_fast_path_oracle_equivalence():
    rng = np.random.default_rng(505)
    worst = 0.0
    for n in (2, 3, 5, 8, 16, 64):
        for _ in range(50):
            x = random_unimodular(n, rng)
            af, bf = ab_all_fast(x)
            ad, bd = ab_all_direct(x)
            worst = max(worst, float(np.max(np.abs(af - ad) / np.maximum(1.0, np.abs(ad)))))
            worst = max(worst, float(np.max(np.abs(bf - bd) / np.maximum(1.0, np.abs(bd)))))
    for _ in range(3):
        x = random_unimodular(1024, rng)
        af, bf = ab_all_fast(x)
        ad, bd = ab_all_direct(x)
        worst = max(worst, float(np.max(np.abs(af - ad) / np.maximum(1.0, np.abs(ad)))))
        worst = max(worst, float(np.max(np.abs(bf - bd) / np.maximum(1.0, np.abs(bd)))))
    report("5", worst <= 1e-8, f"fast vs direct coefficients, worst rel gap {worst:.2e}")


def test_criterion_6_known_sequence_anchors():
    b13 = generate("barker", 13)
    ok = (
        abs(isl_time(b13) - 6.0) <= 1e-12
        and abs(psl(b13) - 1.0) <= 1e-12
        and abs(merit_factor(b13) - 169 / 12) <= 1e-12 * (169 / 12)
    )
    detail = [f"barker13 isl={isl_time(b13)} psl={psl(b13)} mf={merit_factor(b13):.6f}"]
    for family, n in (("frank", 16), ("golomb", 100), ("chu", 100), ("p4", 100)):
        seq = generate(family, n)
        uni = np.max(np.abs(np.abs(seq.values) - 1.0)) <= 1e-12
        mf = merit_factor(seq)
        ok &= uni and mf > 3.0
        detail.append(f"{family}({n}) mf={mf:.2f}")
    report("6", ok, "; ".join(detail))


def median_step_seconds(n, step, reps, seed=0):
    x = init_random(n, seed)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        x = step(x)
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def test_criterion_7_complexity_scaling():
    # timing-based; run on a quiet machine. The two scaling sizes are measured
    # interleaved so slow drift (allocator state, clock ramping) cancels in
    # the ratio.
    gc.collect()
    x1, x2 = init_random(1024, 0), init_random(2048, 0)
    for _ in range(3):  # warm caches and transform plans
        x1, x2 = unipol_step(x1), unipol_step(x2)
    t1, t2 = [], []
    for _ in range(15):
        t0 = time.perf_counter()
        x1 = unipol_step(x1)
        t1.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        x2 = unipol_step(x2)
        t2.append(time.perf_counter() - t0)
    t1024, t2048 = float(np.median(t1)), float(np.median(t2))
    ratio = t2048 / t1024

    t_fast = median_step_seconds(4096, unipol_step, 7)
    t_direct = median_step_seconds(4096, direct_step, 3)
    speedup = t_direct / t_fast
    ok = ratio <= 2.6 and speedup >= 10.0
    report(
        "7",
        ok,
        f"per-iteration medians: 1024 {t1024 * 1e3:.1f} ms, 2048 {t2048 * 1e3:.1f} ms "
        f"(ratio {ratio:.2f} <= 2.6); N=4096 fast {t_fast * 1e3:.1f} ms vs direct "
        f"{t_direct * 1e3:.0f} ms ({speedup:.1f}x >= 10x)",
    )


def test_criterion_8_comparative_behavior():
    mm_finals, can_finals, initials = [], [], []
    for seed in range(30):
        cfg = SolverConfig(n=100, max_iterations=1000, seed=seed)
        mm_finals.append(run(cfg).isl_per_iteration[-1])
        can_finals.append(can_run(cfg).isl_per_iteration[-1])
        initials.append(isl_time(init_random(100, seed)))
    mm_med, can_med, init_med = map(float, map(np.median, (mm_finals, can_finals, initials)))
    ok = mm_med <= can_med and mm_med <= 0.1 * init_med and can_med <= 0.1 * init_med
    report(
        "8",
        ok,
        f"medians over 30 trials: init {init_med:.0f}, mm-driver {mm_med:.0f}, can {can_med:.0f} "
        f"(budgeted at 1000 iterations; see module docstring)",
    )


def test_comparative_behavior_at_convergence_supplementary():
    # context for criterion 8: with both algorithms run to (near) convergence
    # the MM driver does reach lower ISL than CAN
    mm_finals, can_finals = [], []
    for seed in range(3):
        cfg = SolverConfig(n=50, max_iterations=30_000, seed=seed)
        mm_finals.append(run(cfg).isl_per_iteration[-1])
        can_finals.append(can_run(cfg).isl_per_iteration[-1])
    mm_med, can_med = float(np.median(mm_finals)), float(np.median(can_finals))
    print(
        f"[criterion 8 supplement] N=50 run to 30k iterations: "
        f"mm-driver median {mm_med:.1f} vs can median {can_med:.1f}"
    )
    assert mm_med <= can_med


def test_criterion_9_cli_end_to_end(tmp_path, capsys):
    record_path = tmp_path / "design.json"
    rc = main(
        ["design", "--algo", "unipol", "-N", "100", "--iters", "200", "--seed", "7",
         "-o", str(record_path)]
    )
    assert rc == 0
    record = read_run_record(record_path)
    seq = read_sequence_file(tmp_path / "design.seq.csv")
    round_trip_gap = abs(isl_time(seq) - record["finalIsl"]) / max(1.0, record["finalIsl"])

    bench_path = tmp_path / "bench.csv"
    bench_args = ["bench", "--algos", "unipol", "--lengths", "50,100", "--runs", "3",
                  "--iters", "100", "--seed", "0", "-o", str(bench_path)]
    assert main(bench_args) == 0
    first = bench_path.read_text()
    lines = first.strip().split("\n")
    well_formed = (
        lines[0] == "algo,N,seed,iterations,finalIsl,totalSeconds,perIterSeconds"
        and len(lines) == 7
        and all(len(line.split(",")) == 7 for line in lines[1:])
    )
    assert main(bench_args) == 0
    second = bench_path.read_text()
    stable = [l.split(",")[:5] for l in first.strip().split("\n")] == [
        l.split(",")[:5] for l in second.strip().split("\n")
    ]
    ok = round_trip_gap <= 1e-9 and well_formed and stable
    report(
        "9",
        ok,
        f"design->metrics round trip rel gap {round_trip_gap:.2e}; "
        f"bench CSV well-formed {well_formed}, deterministic {stable}",
    )
