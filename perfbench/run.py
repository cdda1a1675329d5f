"""unipol benchmark: one workload per invocation, or every workload with `--workload all`.

    python3 perfbench/run.py --workload mm-can-n100 --seed 0 --seconds 25 --trace 0

Run from the repository root. The package is imported from ./src, never from
an installed copy. With --trace 0 the last stdout line is a JSON object with
the end-to-end metrics listed in BENCHMARK.json; with --trace 1 it carries the
per-layer metrics of a traced run instead. The lines before it are a
human-readable table and a JSON report (environment block, sample counts,
workload-specific metrics, failures). Exit codes: 0 all trials passed their
checks, 1 some trial failed (result still printed), 2 the benchmark could
not run (no result printed). See perfbench/README.md for every metric.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_ROUNDS = 7
# One BLAS thread per solver thread keeps every run within the machine's cores.
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# glibc mallopt parameters (malloc.h) and the values the benchmark pins them to.
M_TRIM_THRESHOLD, M_TOP_PAD, M_MMAP_THRESHOLD = -1, -2, -3
MALLOC_PINS = {M_MMAP_THRESHOLD: 32 << 20, M_TRIM_THRESHOLD: 256 << 20, M_TOP_PAD: 64 << 20}

WORKLOAD_NAMES = ("mm-can-n100", "design-n16384", "can-n16384", "bench-matrix")

# Unit of every end-to-end and report metric. The result line carries only the
# metrics BENCHMARK.json gates; the table and the report line carry them all.
UNITS = {
    "setup_s": "s",
    "setup_samples_s": "s",
    "evals_per_s": "1/s",
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "eval_rel_p50": "ratio",
    "step_rel_p50": "ratio",
    "ref_ms_p50": "ms",
    "trial_s_p50": "s",
    "isl_reduction_median": "frac",
    "final_isl_median": "isl",
    "peak_rss_mb": "MB",
    "failed_frac": "frac",
    "step_samples": "count",
    "trial_samples": "count",
    "isl_ratio_vs_can": "ratio",
    "evals_to_target_p50": "evals",
    "target_hit_frac": "frac",
    "time_to_target_s_p50": "s",
    "evals_per_s_untraced": "1/s",
    "evals_per_s_traced": "1/s",
}


class BenchError(Exception):
    """The benchmark cannot run here; exit 2 without a result."""


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0,
                        help="base seed; selects the seed set (seeds used while writing: 0)")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def _import_unipol():
    src = ROOT / "src"
    if not (src / "unipol" / "__init__.py").is_file():
        raise BenchError(f"no unipol package under {src}")
    sys.path.insert(0, str(src))
    import unipol
    import unipol.bench
    import unipol.cli
    import unipol.io

    if Path(unipol.__file__).resolve().parent != src / "unipol":
        raise BenchError(f"imported unipol from {unipol.__file__}, not from {src}")
    return unipol


def _pin_malloc() -> bool:
    """Pin glibc's malloc thresholds so the steps' large temporaries come from a
    heap that stays mapped. By default glibc mmaps blocks above a threshold that
    it raises as such blocks are freed, and hands the heap top back to the
    kernel, so whether a step page-faults its N = 16384 temporaries in again
    depends on allocation history: the same 2.2 ms CAN step took 1.5 to 3.8 ms,
    and six calls of can-n16384 made 369k minor faults against 10k for twelve
    pinned ones. Returns whether every setting took (False off glibc)."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return all(mallopt(param, value) == 1 for param, value in MALLOC_PINS.items())


def _spec() -> dict:
    from checks import valid_metric_name

    path = ROOT / "BENCHMARK.json"
    try:
        with open(path, encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from None
    bad = [m["name"] for m in spec["end_to_end"] + spec["per_layer"] if not valid_metric_name(m["name"])]
    if bad:
        raise BenchError(f"metric names outside [A-Za-z0-9_.-]: {bad}")
    return spec


def _environment(base_seed: int, seeds, malloc_pinned: bool) -> dict:
    import numpy as np

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "loadavg_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in THREAD_ENV},
        "unipol_threads": os.environ.get("UNIPOL_THREADS"),
        "malloc_pinned": malloc_pinned,
        "base_seed": base_seed,
        "seeds": seeds,
    }


def _setup_times(workload: str) -> list[float]:
    """Wall seconds of SETUP_ROUNDS fresh interpreters, run back to back, each
    importing unipol and making the workload's first calls at N = 64."""
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), "--workload", workload]
    samples = []
    for _ in range(SETUP_ROUNDS):
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60)
        except subprocess.TimeoutExpired:
            raise BenchError("setup probe ran over 60 s") from None
        samples.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchError(f"setup probe failed: {proc.stderr.strip()}")
    return samples


def _median(values):
    return float(statistics.median(values)) if values else None


def _end_to_end(wl, m, setup) -> tuple[dict, dict]:
    """(contract metrics, workload-specific report metrics) for an untraced run."""
    from checks import censored_median, hit_fraction, tail_percentile
    import numpy as np

    primary = [t for t in m.trials if (t.algo, t.n) == wl.primary and t.error is None]
    first = [t for t in m.first_pass if (t.algo, t.n) == wl.primary]
    steps = np.concatenate([t.steps for t in primary]) if primary else np.array([])
    p90 = tail_percentile(steps)
    ref = np.asarray(m.ref_s)
    rel_steps = np.asarray(m.step_means) / ref if ref.size else np.array([np.nan])
    metrics = {
        "setup_s": _median(setup),
        "evals_per_s": m.evals_per_s,
        "step_ms_p50": 1e3 * float(np.median(steps)) if steps.size else None,
        "step_ms_p90": None if p90 is None else 1e3 * p90,
        "eval_rel_p50": float(np.median(1.0 / (np.asarray(m.call_rates) * ref))) if ref.size else None,
        "step_rel_p50": None if np.isnan(rel_steps).all() else float(np.nanmedian(rel_steps)),
        "trial_s_p50": _median([t.seconds for t in primary]),
        "isl_reduction_median": _median([1.0 - t.final_isl / t.initial_isl for t in first]),
        "final_isl_median": _median([t.final_isl for t in first]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {
        "failed_frac": m.failed / m.attempted if m.attempted else None,
        "step_samples": int(steps.size),
        "trial_samples": len(primary),
        "setup_samples_s": setup,
        "ref_ms_p50": 1e3 * float(np.median(ref)) if ref.size else None,
    }
    can = [t.final_isl for t in m.first_pass if t.algo == "can"]
    if wl.target and first and can:
        extra["isl_ratio_vs_can"] = metrics["final_isl_median"] / _median(can)
        extra["evals_to_target_p50"] = censored_median([t.target_evals for t in first])
        extra["target_hit_frac"] = hit_fraction([t.target_evals for t in first])
        extra["time_to_target_s_p50"] = censored_median([t.target_seconds for t in primary])
    return metrics, extra


def _traced(wl, unipol, args):
    """Fixed work, each call run untraced and then traced, so both halves see the
    same machine state; per-layer metrics plus the paired tracing overhead."""
    import numpy as np
    import spans
    from workloads import Measurement, measure

    tracer = spans.Tracer()
    plain, traced = Measurement(), Measurement()
    for key in wl.trace_keys():
        plain.extend(measure(wl, [key]))
        spans.install(tracer, unipol)
        try:
            traced.extend(measure(wl, [key]))
        finally:
            tracer.uninstall()
    tracer.dump(OUT_DIR / f"spans-{wl.name}-seed{args.seed}.json")
    metrics = spans.layer_metrics(tracer.spans)
    paired = len(traced.call_rates) == len(plain.call_rates) > 0
    metrics["trace.overhead_frac"] = (
        1.0 - float(np.median(np.divide(traced.call_rates, plain.call_rates))) if paired else None
    )
    extra = {"evals_per_s_untraced": plain.evals_per_s, "evals_per_s_traced": traced.evals_per_s}
    return plain, traced, metrics, extra


def run_one(args) -> int:
    malloc_pinned = _pin_malloc()
    for key in THREAD_ENV:
        os.environ[key] = "1"
    spec = _spec()
    unipol = _import_unipol()
    from workloads import MIN_STEP_SAMPLES, WORKLOADS, measure

    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](unipol, args.seed, workdir)
        env = _environment(args.seed, wl.keys, malloc_pinned)
        if args.trace:
            wl.warm_up()
            plain, traced, values, extra = _traced(wl, unipol, args)
            runs = (plain, traced)
            listed = spec["per_layer"]
        else:
            setup = _setup_times(args.workload)
            wl.warm_up()
            m = measure(wl, wl.keys, args.seconds, MIN_STEP_SAMPLES, timed_reference=True)
            values, extra = _end_to_end(wl, m, setup)
            runs = (m,)
            listed = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    errors = [e for r in runs for e in r.errors]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    table = {**values, **extra}
    for name, value in table.items():
        if isinstance(value, list):
            continue
        shown = "n/a" if value is None else f"{value:.6g}"
        unit = metrics[name]["unit"] if name in metrics else UNITS[name]
        gated = "" if name in metrics or args.trace else "  (not in result line)"
        print(f"{wl.name:14s} {name:34s} {shown:>14s} {unit}{gated}")
    for err in errors[:20]:
        print(f"{wl.name:14s} FAILED {err}")
    correct = failed == 0 and all(v["value"] is not None for v in metrics.values())
    print(json.dumps({"report": {"workload": wl.name, "trace": args.trace, "env": env,
                                 "metrics": table, "errors": errors}}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own interpreter, one after another; aggregate line last."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("".join(ln + "\n" for ln in lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode not in (0, 1) or not lines:
            raise BenchError(f"workload {name} could not run (exit {proc.returncode})")
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        return run_all(args) if args.workload == "all" else run_one(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
