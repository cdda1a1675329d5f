"""Benchmark harness: seeded trial matrices over (algorithm, length) and CSV output.

Each (algo, N) cell runs `runs` trials seeded base_seed + trial index. Trials
run one after another on the calling thread, in (algo, N, seed) order, which
is also the row order; only the timing columns vary between repeat
invocations, and each row's time is that trial's own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from unipol.baselines import can_run
from unipol.solver import SolverConfig, _check_choice, _check_int, run

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
        return self.total_seconds / self.iterations

    def to_csv(self) -> str:
        return (
            f"{self.algo},{self.n},{self.seed},{self.iterations},"
            f"{self.final_isl:.17g},{self.total_seconds:.6g},{self.per_iter_seconds:.6g}"
        )


def _one_trial(algo: str, cfg: SolverConfig) -> BenchRow:
    trace = _RUNNERS[algo](cfg)
    return BenchRow(
        algo=algo,
        n=cfg.n,
        seed=cfg.seed,
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
) -> list[BenchRow]:
    """Run the full (algo, N, trial) matrix in order and return one row per trial.

    An empty or unknown algorithm list, an empty length list, a length that
    is not an integer >= 2, runs that is not an integer >= 1, or an iters or
    seed that SolverConfig rejects raises ValueError before any trial runs.
    """
    if not algos:
        raise ValueError("empty algorithm list")
    for algo in algos:
        _check_choice("algorithm", algo, tuple(_RUNNERS))
    if not lengths:
        raise ValueError("empty length list")
    for n in lengths:
        _check_int("length", n, 2)
    _check_int("runs", runs, 1)
    base_seed = _check_int("seed", base_seed, 0)  # a numpy uint8 would wrap in base_seed + trial

    tasks = [
        (algo, SolverConfig(n=n, max_iterations=iters, seed=base_seed + trial))
        for algo in algos
        for n in lengths
        for trial in range(runs)
    ]
    return [_one_trial(algo, cfg) for algo, cfg in tasks]


def rows_to_csv(rows: Iterable[BenchRow]) -> str:
    return "\n".join([CSV_HEADER, *(row.to_csv() for row in rows)]) + "\n"
