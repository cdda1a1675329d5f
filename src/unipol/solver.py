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
from typing import Callable, Optional

import numpy as np

from unipol.metrics import UnimodularSequence, as_values, isl_freq, spectrum_2n, unit_of
from unipol.metrics import isl_time  # noqa: F401  perfbench/spans.py patches solver.isl_time
from unipol.quartic import minimize_batch
from unipol.surrogate import ab_all_fast

__all__ = ["SolverConfig", "RunTrace", "init_random", "unipol_step", "run"]

PHASE_RANGES = ("full", "unit")
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
    """ValueError unless value is a str among choices (a numpy array never is)."""
    if not isinstance(value, str) or value not in choices:
        raise ValueError(f"{name} must be one of {choices}, got {value!r}")


@dataclass(frozen=True)
class SolverConfig:
    """Run parameters shared by the MM driver and the baselines.

    n and max_iterations are integers >= 1, seed an integer >= 0 and
    rel_tolerance a finite non-bool real >= 0; other values raise ValueError.
    Numpy scalars are accepted and stored as plain int and float.
    rel_tolerance = 0 (the default) runs the fixed max_iterations budget;
    a positive value stops after 3 consecutive iterations whose relative ISL
    decrease falls below it. phase_range picks the initial phase law:
    "full" draws from [0, 2*pi), "unit" from [0, 1] radians.
    accel picks the outer scheme: "squarem" (the default) adds a squared
    extrapolation after every two MM steps, "none" runs the paper's plain MM.
    For either, any other value, a non-string included, raises ValueError.
    """

    n: int
    max_iterations: int = 1000
    rel_tolerance: float = 0.0
    seed: int = 0
    phase_range: str = "full"
    accel: str = "squarem"

    def __post_init__(self):
        plain = {
            name: _check_int(name, getattr(self, name), least)
            for name, least in (("n", 1), ("max_iterations", 1), ("seed", 0))
        }
        tol = self.rel_tolerance
        if isinstance(tol, bool) or not (isinstance(tol, numbers.Real) and 0.0 <= tol < math.inf):
            raise ValueError("rel_tolerance must be finite and >= 0")
        _check_choice("phase_range", self.phase_range, PHASE_RANGES)
        _check_choice("accel", self.accel, ACCELS)
        for name, value in {**plain, "rel_tolerance": float(tol)}.items():
            object.__setattr__(self, name, value)  # frozen: store the plain int/float


@dataclass(frozen=True)
class RunTrace:
    """Per-iteration record of one solver run.

    isl_per_iteration[0] is the ISL of the initial sequence, so its length is
    iterations_run + 1: one entry per map evaluation, each isl_freq of its
    iterate (Parseval on its kept spectrum; isl_time agrees to rounding).
    wall_time_per_iteration holds the duration of each evaluation (ISL
    bookkeeping excluded), of the new iterate's 2N-point spectrum (which the
    next evaluation and the bookkeeping read), and of any SQUAREM
    extrapolation and its ISL checks made just before it; cumulative_seconds
    pairs 1:1 with isl_per_iteration via a leading 0.0.
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


def init_random(n: int, seed: int, phase_range: str = "full") -> UnimodularSequence:
    """Seeded random unimodular sequence for integers n >= 1, seed >= 0; reproducible."""
    n = _check_int("n", n, 1)
    _check_int("seed", seed, 0)
    _check_choice("phase_range", phase_range, PHASE_RANGES)
    width = 2.0 * np.pi if phase_range == "full" else 1.0
    theta = width * np.random.default_rng(seed).random(n)
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
    the spectrum that an accepted point then hands to the next step. The
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
    step: Callable[[UnimodularSequence], UnimodularSequence],
    cfg: SolverConfig,
    init: Optional[UnimodularSequence],
) -> RunTrace:
    """Shared iteration/trace/stopping loop for the MM driver and baselines.

    Every call of step counts against max_iterations and records one ISL.
    Under accel="squarem", each third call starts from the _squarem point of
    the three iterates before it, whenever the budget has room for that call.
    Each new iterate's spectrum is taken inside the timed evaluation, so the
    step that reads it next and the ISL bookkeeping in between transform
    nothing forward. The bookkeeping is isl_freq on that spectrum, the same
    route as SQUAREM's checks, so it makes no inverse transform either.
    """
    x = init_random(cfg.n, cfg.seed, cfg.phase_range) if init is None else UnimodularSequence(init)
    if len(x) != cfg.n:
        raise ValueError(f"init has length {len(x)}, config says {cfg.n}")

    isl = [isl_freq(x)]
    durations = []
    cycle = [x]  # the iterates x0, x1, x2 since the last extrapolation
    slow_streak = 0
    for _ in range(cfg.max_iterations):
        t0 = time.perf_counter()
        if len(cycle) == 3:
            x, cycle = _squarem(*cycle, isl[-1]), []
        x = step(x)
        spectrum_2n(x)
        durations.append(time.perf_counter() - t0)
        isl.append(isl_freq(x))
        if cfg.accel == "squarem":
            cycle.append(x)
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
        config=cfg,
    )


def run(cfg: SolverConfig, init: Optional[UnimodularSequence] = None) -> RunTrace:
    """Run the MM driver until the iteration budget or the tolerance rule stops it.

    cfg.accel="squarem" (the default) wraps the MM map in SQUAREM (Varadhan &
    Roland 2008): an extrapolated point is kept only if its ISL is at most
    that of the plain iterate it replaces, and one MM step follows it. The ISL
    trace is non-increasing up to floating-point slack. With a fixed seed the
    trace is bit-for-bit reproducible.
    """
    return _run_loop(unipol_step, cfg, init)
