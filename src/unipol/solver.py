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
import numbers
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from unipol.metrics import UnimodularSequence, as_values, isl_freq, unit_of
from unipol.metrics import isl_time  # noqa: F401  perfbench/spans.py patches solver.isl_time
from unipol.quartic import minimize_batch
from unipol.surrogate import ab_all_fast

__all__ = ["SolverConfig", "RunTrace", "init_random", "unipol_step", "run"]

ACCELS = ("squarem", "none")

# Step-length tries per SQUAREM cycle before it falls back to the plain iterate x2.
_SQUAREM_TRIES = 4


def _check_int(name: str, value, least: int) -> int:
    """value as a plain int; ValueError unless a non-bool integer (numpy ones too) >= least."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}")
    return int(value)


def _check_choice(name: str, value, choices: tuple) -> None:
    """ValueError unless value is a str (np.str_ too) among choices; a list or array never is."""
    if not isinstance(value, str) or value not in choices:
        raise ValueError(f"unknown {name} {value!r}: {name} must be one of {choices}")


@dataclass(frozen=True)
class SolverConfig:
    """Run parameters shared by the MM driver and the baselines.

    n and max_iterations are integers >= 1 and seed an integer >= 0; other
    values raise ValueError. Numpy integers are accepted and stored as plain
    int. The config alone fixes a run: it starts from init_random(n, seed)
    and makes exactly max_iterations map evaluations. accel picks the outer
    scheme: "squarem" (the default) adds a squared extrapolation after every
    two MM steps, "none" runs the paper's plain MM; any other value, a
    non-string included, raises ValueError.
    """

    n: int
    max_iterations: int = 1000
    seed: int = 0
    accel: str = "squarem"

    def __post_init__(self):
        for name, least in (("n", 1), ("max_iterations", 1), ("seed", 0)):
            value = _check_int(name, getattr(self, name), least)
            object.__setattr__(self, name, value)  # frozen: store the plain int
        _check_choice("accel", self.accel, ACCELS)


@dataclass(frozen=True, eq=False)
class RunTrace:
    """Per-iteration record of one solver run.

    isl_per_iteration[0] is the ISL of the initial sequence, so its length is
    iterations_run + 1: one entry per map evaluation, each isl_freq of its
    iterate (Parseval on its spectrum; isl_time agrees to rounding).
    wall_time_per_iteration holds the duration of each evaluation (ISL
    bookkeeping excluded) and of any SQUAREM extrapolation and its ISL checks
    made just before it; cumulative_seconds pairs 1:1 with isl_per_iteration
    via a leading 0.0. Traces compare and hash by identity; to compare two
    runs' designs, use np.array_equal on their final_sequence.values.
    """

    isl_per_iteration: np.ndarray
    wall_time_per_iteration: np.ndarray
    final_sequence: UnimodularSequence
    config: SolverConfig

    @property
    def iterations_run(self) -> int:
        return self.wall_time_per_iteration.size

    @property
    def cumulative_seconds(self) -> np.ndarray:
        return np.concatenate(([0.0], np.cumsum(self.wall_time_per_iteration)))


def init_random(n: int, seed: int) -> UnimodularSequence:
    """Seeded sequence with phases uniform on [0, 2*pi), for integers n >= 1, seed >= 0."""
    n = _check_int("n", n, 1)
    _check_int("seed", seed, 0)
    theta = 2.0 * np.pi * np.random.default_rng(seed).random(n)
    return UnimodularSequence.from_phases(theta)


def unipol_step(xt) -> UnimodularSequence:
    """One simultaneous MM update of every variable from the snapshot xt.

    For N = 1 the surrogate is constant and the step returns its input.
    isl_time never increases across a step.
    """
    v = as_values(xt)
    if v.size == 1:
        return UnimodularSequence(v)
    # ab_all_fast and minimize_batch are looked up here, where perfbench/spans.py patches them
    return UnimodularSequence(minimize_batch(*ab_all_fast(xt)))


def _squarem(x0, x1, x2, isl2: float) -> UnimodularSequence:
    """Squared extrapolation from three successive iterates, projected to the unit circle.

    With r = x1 - x0 and v = x2 - x1 - r it tries x0 - 2*alpha*r + alpha^2*v
    from alpha = min(-|r|/|v|, -1), halving alpha + 1 while the projected
    point's ISL exceeds isl2 = ISL(x2), and returns x2 itself (the point at
    alpha = -1) after _SQUAREM_TRIES rejections. Each check is isl_freq, on
    the spectrum the next step reads if the point is accepted. The
    projection is metrics.unit_of: an element with |z| below the smallest
    normal double, z = 0 included, goes to 1.
    """
    v0, v1, v2 = as_values(x0), as_values(x1), as_values(x2)
    r = v1 - v0
    v = v2 - v1 - r
    norm_r, norm_v = math.sqrt(np.vdot(r, r).real), math.sqrt(np.vdot(v, v).real)
    if not norm_r > norm_v > 0.0:  # alpha = -1: nothing to try beyond x2
        return x2
    alpha = -norm_r / norm_v
    for _ in range(_SQUAREM_TRIES):
        y = UnimodularSequence(unit_of(v0 - 2.0 * alpha * r + alpha * alpha * v))
        if isl_freq(y) <= isl2:
            return y
        alpha = (alpha - 1.0) / 2.0
    return x2


def _run_loop(
    step: Callable[[UnimodularSequence], UnimodularSequence], cfg: SolverConfig
) -> RunTrace:
    """Shared iteration/trace loop for the MM driver and baselines.

    Every run starts from init_random(cfg.n, cfg.seed) and makes exactly
    max_iterations calls of step, each recording one ISL. Under
    accel="squarem", each third call starts from the _squarem point of the
    three iterates before it, whenever the budget has room for that call.
    The bookkeeping is isl_freq on each iterate's spectrum, the same route as
    SQUAREM's checks, so it transforms nothing.
    """
    x = init_random(cfg.n, cfg.seed)
    isl = [isl_freq(x)]
    durations = []
    cycle = [x]  # the iterates x0, x1, x2 since the last extrapolation
    for _ in range(cfg.max_iterations):
        t0 = time.perf_counter()
        if len(cycle) == 3:
            x, cycle = _squarem(*cycle, isl[-1]), []
        x = step(x)
        durations.append(time.perf_counter() - t0)
        isl.append(isl_freq(x))
        if cfg.accel == "squarem":
            cycle.append(x)

    return RunTrace(
        isl_per_iteration=np.asarray(isl),
        wall_time_per_iteration=np.asarray(durations),
        final_sequence=x,
        config=cfg,
    )


def run(cfg: SolverConfig) -> RunTrace:
    """Run the MM driver from init_random(cfg.n, cfg.seed) for cfg.max_iterations evaluations.

    cfg.accel="squarem" (the default) wraps the MM map in SQUAREM (Varadhan &
    Roland 2008): an extrapolated point is kept only if its ISL is at most
    that of the plain iterate it replaces, and one MM step follows it. The ISL
    trace is non-increasing up to floating-point slack. With a fixed seed the
    trace is bit-for-bit reproducible.
    """
    return _run_loop(unipol_step, cfg)
