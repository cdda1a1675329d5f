"""Benchmark harness: seeded trial matrices over (algorithm, length) and CSV output.

Each (algo, N) cell runs `runs` trials seeded base_seed + trial index. Rows
come out in a deterministic (algo, N, seed) order regardless of execution
order; only the timing columns vary between repeat invocations. The
UNIPOL_THREADS environment variable caps trial concurrency (0 or unset =
auto, 1 = sequential); a value that is not an integer is an error.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from unipol.baselines import can_run
from unipol.solver import SolverConfig, run

__all__ = ["BenchRow", "DEFAULT_LENGTHS", "run_bench", "rows_to_csv"]

DEFAULT_LENGTHS = (50, 100, 225, 400, 625, 900, 1000, 1300)

CSV_HEADER = "algo,N,seed,iterations,finalIsl,totalSeconds,perIterSeconds"

_RUNNERS = {"unipol": run, "can": can_run}


@dataclass(frozen=True)
class BenchRow:
    algo: str
    n: int
    seed: int
    iterations: int
    final_isl: float
    total_seconds: float

    @property
    def per_iter_seconds(self) -> float:
        return self.total_seconds / self.iterations if self.iterations else 0.0

    def to_csv(self) -> str:
        return (
            f"{self.algo},{self.n},{self.seed},{self.iterations},"
            f"{self.final_isl:.17g},{self.total_seconds:.6g},{self.per_iter_seconds:.6g}"
        )


def worker_count(n_tasks: int) -> int:
    """Concurrency cap from UNIPOL_THREADS, an integer; 0/unset means auto (cpu count)."""
    raw = os.environ.get("UNIPOL_THREADS", "0")
    try:
        configured = int(raw)
    except ValueError:
        raise ValueError(f"UNIPOL_THREADS must be an integer, got {raw!r}") from None
    if configured <= 0:
        configured = os.cpu_count() or 1
    return max(1, min(configured, n_tasks))


def _one_trial(algo: str, n: int, seed: int, iters: int, tol: float) -> BenchRow:
    cfg = SolverConfig(n=n, max_iterations=iters, rel_tolerance=tol, seed=seed)
    trace = _RUNNERS[algo](cfg)
    return BenchRow(
        algo=algo,
        n=n,
        seed=seed,
        iterations=trace.iterations_run,
        final_isl=float(trace.isl_per_iteration[-1]),
        total_seconds=float(np.sum(trace.wall_time_per_iteration)),
    )


def run_bench(
    algos: Sequence[str],
    lengths: Sequence[int],
    runs: int,
    iters: int,
    base_seed: int = 0,
    tol: float = 0.0,
) -> list[BenchRow]:
    """Run the full (algo, N, trial) matrix and return rows in deterministic order."""
    if not algos:
        raise ValueError("empty algorithm list")
    for algo in algos:
        if algo not in _RUNNERS:
            raise ValueError(f"unknown algorithm {algo!r}; choose from {sorted(_RUNNERS)}")
    if runs < 1:
        raise ValueError("runs must be >= 1")
    if any(n < 2 for n in lengths):
        raise ValueError("benchmark lengths must be >= 2")

    tasks = [
        (algo, n, base_seed + trial)
        for algo in algos
        for n in lengths
        for trial in range(runs)
    ]
    with ThreadPoolExecutor(max_workers=worker_count(len(tasks))) as pool:
        futures = [pool.submit(_one_trial, a, n, s, iters, tol) for a, n, s in tasks]
        return [f.result() for f in futures]


def rows_to_csv(rows: Iterable[BenchRow]) -> str:
    return "\n".join([CSV_HEADER, *(row.to_csv() for row in rows)]) + "\n"
