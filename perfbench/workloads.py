"""The four benchmark workloads and the closed loop that measures them.

Each workload drives only unipol's public entry points (unipol.run,
unipol.can_run, unipol.cli.main, unipol.bench.run_bench), one call at a time
from one process. A call covers one key of the workload's seed set; a pass
covers every key once. The loop runs calls until the time budget is spent,
at least one full pass is done (the deterministic quality metrics come from
that first pass) and the primary cell has enough step samples for a p90
with ten samples beyond it. Later passes repeat the same seeds, so their
outputs must match the first pass bit for bit.
"""

from __future__ import annotations

import contextlib
import io as stdio
import math
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from checks import (
    TrialFailure,
    check_bench_rows,
    check_descended,
    check_isl_trace,
    check_readback,
    evals_to_target,
)

MIN_STEP_SAMPLES = 100
# Each reference block runs the reference step for at least this long and this often.
REF_BLOCK_S = 0.2
REF_MIN_REPS = 20


def reference_step(v: np.ndarray) -> np.ndarray:
    """The yardstick for machine speed: one CAN projection (2N-point spectrum
    flattened, then the moduli), kept here so that no change to unipol moves it."""
    n = v.size
    spec = np.fft.fft(v, 2 * n)
    mag = np.abs(spec)
    flat = np.where(mag > 0.0, spec / np.where(mag > 0.0, mag, 1.0), 1.0)
    z = np.fft.ifft(flat)[:n]
    zmag = np.abs(z)
    return np.where(zmag > 0.0, z / np.where(zmag > 0.0, zmag, 1.0), v)


def reference_block(v: np.ndarray, seconds: float = REF_BLOCK_S, min_reps: int = REF_MIN_REPS,
                    threads: int = 1) -> np.ndarray:
    """Seconds of each reference step, run back to back for `seconds` on each of
    `threads` threads at once, so that the yardstick sees the same share of the
    machine as a workload running that many threads."""
    per_thread = [[] for _ in range(threads)]
    deadline = time.perf_counter() + seconds

    def loop(samples):
        while len(samples) < min_reps or time.perf_counter() < deadline:
            t0 = time.perf_counter()
            reference_step(v)
            samples.append(time.perf_counter() - t0)

    workers = [threading.Thread(target=loop, args=(samples,)) for samples in per_thread[1:]]
    for w in workers:
        w.start()
    try:
        loop(per_thread[0])
    finally:
        for w in workers:
            w.join()
    return np.concatenate([np.asarray(samples) for samples in per_thread])


@dataclass
class Trial:
    """One solver run (one row of a bench matrix) and what the checks need of it."""

    algo: str
    n: int
    seed: int
    evals: int
    seconds: float
    final_isl: float
    steps: np.ndarray
    fingerprint: bytes
    initial_isl: Optional[float] = None
    target_evals: Optional[int] = None
    target_seconds: Optional[float] = None
    error: Optional[str] = None


@dataclass
class Measurement:
    trials: list = field(default_factory=list)
    first_pass: list = field(default_factory=list)
    call_rates: list = field(default_factory=list)  # evaluations per second, per call
    # Per successful call, when measured with reference blocks: the mean of the
    # primary cell's steps in that call (nan if none) and the mean reference step
    # over the blocks just before and just after it. Means, not medians: when the
    # host flips between a fast and a slow mode, a mean follows the share of time
    # spent in each, alike for the call and for the reference, where a median
    # jumps from one mode to the other.
    step_means: list = field(default_factory=list)
    ref_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    @property
    def evals_per_s(self) -> float:
        """Median over calls, so one call slowed by a noisy neighbour does not move it."""
        return float(np.median(self.call_rates)) if self.call_rates else 0.0

    def extend(self, other: "Measurement") -> None:
        self.trials += other.trials
        self.first_pass += other.first_pass
        self.call_rates += other.call_rates
        self.step_means += other.step_means
        self.ref_s += other.ref_s
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors += other.errors


class Workload:
    """Base: subclasses set name/primary/per_call and implement call()."""

    name = ""
    primary: tuple = ()  # (algo, N) whose trials give step, trial and ISL metrics
    per_call = 1  # trials one call produces
    seeds_per_pass = 10
    target = False  # whether MM trials carry the evals/time-to-target metrics
    ref_threads = 1  # threads the reference block runs on: as many as the workload uses

    def __init__(self, unipol, base_seed: int, workdir: Path):
        self.up = unipol
        self.workdir = workdir
        self.keys = [base_seed * self.seeds_per_pass + i for i in range(self.seeds_per_pass)]
        # Reference step input at the primary cell's N; its cost does not depend on the values.
        phases = np.random.default_rng(0).random(self.primary[1])
        self.ref_input = np.exp(2j * np.pi * phases)
        # Reference ISL captured before any tracing wraps the package.
        self.isl_ref = unipol.metrics.isl_time

    @classmethod
    def first_call(cls, unipol, workdir: Path) -> None:
        """The workload's entry points at a tiny size: what setup_s times after
        the import, in a fresh interpreter."""
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def call(self, key: int) -> tuple[float, list[Trial]]:
        """Run one key; return (seconds around the public calls, trials)."""
        raise NotImplementedError

    def trace_keys(self) -> list[int]:
        """The fixed work of a traced run: half a pass."""
        return self.keys[: max(1, len(self.keys) // 2)]


def _trial_from_trace(algo: str, trace, seconds: float, monotone: bool, target: bool) -> Trial:
    isl = np.asarray(trace.isl_per_iteration)
    cfg = trace.config
    trial = Trial(
        algo=algo,
        n=cfg.n,
        seed=cfg.seed,
        evals=trace.iterations_run,
        seconds=seconds,
        final_isl=float(isl[-1]),
        steps=np.asarray(trace.wall_time_per_iteration),
        fingerprint=isl.tobytes(),
        initial_isl=float(isl[0]),
    )
    try:
        check_isl_trace(isl, cfg.max_iterations, trace.iterations_run, monotone)
    except TrialFailure as exc:
        trial.error = str(exc)
    if target:
        trial.target_evals = evals_to_target(isl)
        if trial.target_evals is not None:
            trial.target_seconds = float(trace.cumulative_seconds[trial.target_evals])
    return trial


class MmCanN100(Workload):
    """Library path, criterion-8 protocol: unipol.run then unipol.can_run per seed."""

    name = "mm-can-n100"
    primary = ("unipol", 100)
    per_call = 2
    target = True
    n = 100
    iters = 1000

    def _cfg(self, seed, iters):
        return self.up.SolverConfig(n=self.n, max_iterations=iters, seed=seed)

    @classmethod
    def first_call(cls, unipol, workdir):
        cfg = unipol.SolverConfig(n=64, max_iterations=2, seed=0)
        unipol.run(cfg)
        unipol.can_run(cfg)

    def warm_up(self) -> None:
        cfg = self._cfg(0, 2)
        self.up.run(cfg)
        self.up.can_run(cfg)

    def call(self, key):
        cfg = self._cfg(key, self.iters)
        t0 = time.perf_counter()
        mm = self.up.run(cfg)
        t1 = time.perf_counter()
        can = self.up.can_run(cfg)
        t2 = time.perf_counter()
        return t2 - t0, [
            _trial_from_trace("unipol", mm, t1 - t0, monotone=True, target=True),
            _trial_from_trace("can", can, t2 - t1, monotone=False, target=False),
        ]


class CliDesign(Workload):
    """In-process `unipol design` at N = 16384, outputs read back through unipol.io."""

    name = "design-n16384"
    algo = "unipol"
    n = 16384
    iters = 12
    seeds_per_pass = 9  # 9 x 12 = 108 steps: a p90 with ten samples beyond it
    primary = ("unipol", 16384)

    @classmethod
    def first_call(cls, unipol, workdir):
        cls._cli_design(unipol, workdir, 64, 0, 1)

    def warm_up(self) -> None:
        self._design(0, 1)

    def call(self, key):
        return self._design(key, self.iters)

    @classmethod
    def _cli_design(cls, up, workdir: Path, n: int, seed: int, iters: int):
        """Run the CLI and read its outputs back; returns (exit code, stdout,
        record, sequence, output paths)."""
        out = workdir / f"{cls.name}-{seed}.json"
        seq_path = out.with_suffix(".seq.csv")
        argv = ["design", "--algo", cls.algo, "-N", str(n), "--iters", str(iters),
                "--seed", str(seed), "-o", str(out)]
        printed = stdio.StringIO()
        with contextlib.redirect_stdout(printed):
            code = up.cli.main(argv)
        record = up.io.read_run_record(out)
        seq = up.io.read_sequence_file(seq_path)
        return code, printed.getvalue(), record, seq, (out, seq_path)

    def _design(self, seed: int, iters: int):
        t0 = time.perf_counter()
        code, printed, record, seq, paths = self._cli_design(self.up, self.workdir, self.n, seed, iters)
        seconds = time.perf_counter() - t0

        isl = np.asarray(record["islTrace"], dtype=float)
        evals = isl.size - 1
        trial = Trial(
            algo=self.algo,
            n=self.n,
            seed=seed,
            evals=evals,
            seconds=seconds,
            final_isl=float(record["finalIsl"]),
            steps=np.diff(np.asarray(record["timeTraceSeconds"], dtype=float)),
            fingerprint=isl.tobytes() + np.asarray(record["finalPhases"]).tobytes(),
            initial_isl=float(isl[0]),
        )
        try:
            if code != 0:
                raise TrialFailure(f"cli exited {code}")
            if f"iterations={evals}" not in printed:
                raise TrialFailure(f"unexpected cli output {printed!r}")
            check_isl_trace(isl, iters, evals, monotone=self.algo == "unipol")
            if record["finalIsl"] != isl[-1]:
                raise TrialFailure("record finalIsl differs from the last islTrace entry")
            if len(seq) != self.n:
                raise TrialFailure(f"read back {len(seq)} elements, expected {self.n}")
            check_readback(trial.final_isl, self.isl_ref(seq))
        except TrialFailure as exc:
            trial.error = str(exc)
        for path in paths:
            os.remove(path)
        return seconds, [trial]


class CliCan(CliDesign):
    """The same CLI path with --algo can: never enters surrogate or quartic."""

    name = "can-n16384"
    algo = "can"
    iters = 400
    seeds_per_pass = 10
    primary = ("can", 16384)


class BenchMatrix(Workload):
    """unipol.bench.run_bench over {unipol, can} x {1000, 4096} on two pool threads."""

    name = "bench-matrix"
    algos = ("unipol", "can")
    lengths = (1000, 4096)
    runs = 16
    iters = 2  # short trials give ~400 MM N=4096 rows per run, a well-sampled p90
    primary = ("unipol", 4096)
    per_call = len(algos) * len(lengths) * runs
    threads = "2"
    ref_threads = 2

    def __init__(self, unipol, base_seed, workdir):
        super().__init__(unipol, base_seed, workdir)
        os.environ["UNIPOL_THREADS"] = self.threads
        # One call per pass; run_bench seeds its trials base, base+1, ...
        self.keys = [base_seed * self.runs]
        base = self.keys[0]
        self.expected = [(a, n, base + i) for a in self.algos for n in self.lengths for i in range(self.runs)]
        self.initial_isl = {
            (n, s): self.isl_ref(unipol.solver.init_random(n, s))
            for n in self.lengths for s in range(base, base + self.runs)
        }

    @classmethod
    def first_call(cls, unipol, workdir):
        os.environ["UNIPOL_THREADS"] = cls.threads
        unipol.bench.run_bench(list(cls.algos), [64], runs=1, iters=1)

    def warm_up(self) -> None:
        self.up.bench.run_bench(list(self.algos), list(self.lengths), runs=1, iters=1)

    def trace_keys(self):
        return self.keys * 8

    def call(self, key):
        t0 = time.perf_counter()
        rows = self.up.bench.run_bench(list(self.algos), list(self.lengths), runs=self.runs,
                                       iters=self.iters, base_seed=key)
        seconds = time.perf_counter() - t0
        check_bench_rows(rows, self.expected, self.iters)
        trials = []
        for r in rows:
            trial = Trial(
                algo=r.algo,
                n=r.n,
                seed=r.seed,
                evals=r.iterations,
                seconds=r.total_seconds,
                final_isl=r.final_isl,
                steps=np.array([r.per_iter_seconds]),
                fingerprint=np.float64(r.final_isl).tobytes(),
                initial_isl=self.initial_isl[(r.n, r.seed)],
            )
            if r.algo == "unipol":
                try:
                    check_descended(r.final_isl, trial.initial_isl)
                except TrialFailure as exc:
                    trial.error = str(exc)
            trials.append(trial)
        return seconds, trials


WORKLOADS = {w.name: w for w in (MmCanN100, CliDesign, CliCan, BenchMatrix)}


def measure(wl: Workload, keys, seconds: float = 0.0, min_samples: int = 0,
            timed_reference: bool = False) -> Measurement:
    """Closed loop over keys, cycled: every key runs once, then calls go on until
    `seconds` have passed and the primary cell has `min_samples` step samples
    (or some trial has failed). With the defaults each key runs exactly once.
    With `timed_reference`, a reference block runs before the first call and
    after every call, so each call's times can be read against the machine's
    speed at that moment."""
    m = Measurement()
    reference = {}
    blocks = [reference_block(wl.ref_input, threads=wl.ref_threads)] if timed_reference else []
    samples = 0
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        key = keys[i % len(keys)]
        try:
            call_seconds, trials = wl.call(key)
        except Exception as exc:  # any raise from the program is a failed trial
            m.attempted += wl.per_call
            m.failed += wl.per_call
            m.errors.append(f"key {key}: {type(exc).__name__}: {exc}")
            trials = []
            call_seconds = None
        if timed_reference:
            blocks.append(reference_block(wl.ref_input, threads=wl.ref_threads))
        if call_seconds is not None:
            m.call_rates.append(sum(t.evals for t in trials) / call_seconds)
            if timed_reference:
                steps = [t.steps for t in trials if (t.algo, t.n) == wl.primary]
                m.step_means.append(float(np.mean(np.concatenate(steps))) if steps else math.nan)
                m.ref_s.append(float(np.mean(np.concatenate(blocks[-2:]))))
        for t in trials:
            ident = (t.algo, t.n, t.seed)
            if ident not in reference:
                reference[ident] = t.fingerprint
                m.first_pass.append(t)
            elif reference[ident] != t.fingerprint and t.error is None:
                t.error = "output differs from the first run of the same seed"
            m.attempted += 1
            if t.error is not None:
                m.failed += 1
                m.errors.append(f"{t.algo} N={t.n} seed={t.seed}: {t.error}")
            elif (t.algo, t.n) == wl.primary:
                samples += t.steps.size
            m.trials.append(t)
        i += 1
        if (i >= len(keys) and time.perf_counter() >= deadline
                and (samples >= min_samples or m.failed)):
            return m
