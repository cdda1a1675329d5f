"""Majorization-minimization driver for unimodular ISL minimization.

Each outer iteration builds the separable quartic majorizer at the current
iterate and, for all N variables simultaneously (Jacobi update from the same
snapshot), replaces the variable with the exact unit-circle minimizer of its
surrogate. Descent of the quartic spectral objective, hence of the ISL, is
structural: every update minimizes a function that touches the objective at
the snapshot and dominates it elsewhere.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from unipol.metrics import UnimodularSequence, as_values, isl_time
from unipol.quartic import minimize_batch
from unipol.surrogate import ab_all_direct, ab_all_fast

__all__ = ["SolverConfig", "RunTrace", "init_random", "unipol_step", "run"]

PHASE_RANGES = ("full", "unit")


@dataclass(frozen=True)
class SolverConfig:
    """Run parameters shared by the MM driver and the baselines.

    rel_tolerance = 0 (the default) runs the fixed max_iterations budget;
    a positive value stops after 3 consecutive iterations whose relative ISL
    decrease falls below it. phase_range picks the initial phase law:
    "full" draws from [0, 2*pi), "unit" from [0, 1] radians.
    """

    n: int
    max_iterations: int = 1000
    rel_tolerance: float = 0.0
    seed: int = 0
    phase_range: str = "full"

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("sequence length must be >= 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not 0.0 <= self.rel_tolerance < math.inf:
            raise ValueError("rel_tolerance must be finite and >= 0")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        if self.phase_range not in PHASE_RANGES:
            raise ValueError(f"phase_range must be one of {PHASE_RANGES}")


@dataclass(frozen=True)
class RunTrace:
    """Per-iteration record of one solver run.

    isl_per_iteration[0] is the ISL of the initial sequence, so its length is
    iterations_run + 1. wall_time_per_iteration holds the duration of each
    update step (ISL bookkeeping excluded); cumulative_seconds pairs 1:1 with
    isl_per_iteration via a leading 0.0.
    """

    isl_per_iteration: np.ndarray
    wall_time_per_iteration: np.ndarray
    final_sequence: UnimodularSequence
    iterations_run: int
    config: SolverConfig

    @property
    def cumulative_seconds(self) -> np.ndarray:
        return np.concatenate(([0.0], np.cumsum(self.wall_time_per_iteration)))


def init_random(n: int, seed: int, phase_range: str = "full") -> UnimodularSequence:
    """Seeded random unimodular sequence; identical inputs give identical output."""
    if n < 1:
        raise ValueError("sequence length must be >= 1")
    if phase_range not in PHASE_RANGES:
        raise ValueError(f"phase_range must be one of {PHASE_RANGES}")
    width = 2.0 * np.pi if phase_range == "full" else 1.0
    theta = width * np.random.default_rng(seed).random(n)
    return UnimodularSequence.from_phases(theta)


def unipol_step(xt, fast_path: bool = True) -> UnimodularSequence:
    """One simultaneous MM update of every variable from the snapshot xt.

    For N = 1 the surrogate is constant and the step returns its input.
    isl_time never increases across a step. Passing False as the second
    argument swaps ab_all_fast for the O(N^2) ab_all_direct oracle, which
    tests use as the reference.
    """
    v = as_values(xt)
    if v.size == 1:
        return xt if isinstance(xt, UnimodularSequence) else UnimodularSequence(v)
    a, b = ab_all_fast(v) if fast_path else ab_all_direct(v)
    return UnimodularSequence.from_phases(minimize_batch(a, b))


def _run_loop(
    step: Callable[[UnimodularSequence], UnimodularSequence],
    cfg: SolverConfig,
    init: Optional[UnimodularSequence],
) -> RunTrace:
    """Shared iteration/trace/stopping loop for the MM driver and baselines."""
    if init is None:
        x = init_random(cfg.n, cfg.seed, cfg.phase_range)
    else:
        x = init if isinstance(init, UnimodularSequence) else UnimodularSequence(as_values(init))
        if len(x) != cfg.n:
            raise ValueError(f"init has length {len(x)}, config says {cfg.n}")

    isl = [isl_time(x)]
    durations = []
    slow_streak = 0
    for _ in range(cfg.max_iterations):
        t0 = time.perf_counter()
        x = step(x)
        durations.append(time.perf_counter() - t0)
        isl.append(isl_time(x))
        if cfg.rel_tolerance > 0.0:
            prev, cur = isl[-2], isl[-1]
            decrease = (prev - cur) / prev if prev > 0.0 else 0.0
            slow_streak = slow_streak + 1 if decrease < cfg.rel_tolerance else 0
            if slow_streak >= 3:
                break

    return RunTrace(
        isl_per_iteration=np.asarray(isl),
        wall_time_per_iteration=np.asarray(durations),
        final_sequence=x,
        iterations_run=len(durations),
        config=cfg,
    )


def run(cfg: SolverConfig, init: Optional[UnimodularSequence] = None) -> RunTrace:
    """Run the MM driver until the iteration budget or the tolerance rule stops it.

    The ISL trace is non-increasing up to floating-point slack. With a fixed
    seed the trace is bit-for-bit reproducible.
    """
    return _run_loop(unipol_step, cfg, init)
