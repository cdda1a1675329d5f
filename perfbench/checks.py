"""Output checks and summary statistics for the unipol benchmark.

Every check raises TrialFailure with a one-line reason; the harness counts a
trial as failed when its public call raises or any check on its output does.
"""

from __future__ import annotations

import math
import re
from typing import Optional, Sequence

import numpy as np

# Criterion 3's descent tolerance: isl[i+1] <= isl[i] * (1 + 1e-9) + 1e-9.
DESCENT_RTOL = 1e-9
DESCENT_ATOL = 1e-9
# A written sequence, read back, must reproduce the record's finalIsl this closely.
READBACK_RTOL = 1e-9
# mm-can-n100 target: 25% of each seed's initial ISL.
TARGET_FRACTION = 0.25

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


class TrialFailure(Exception):
    """A trial's output broke one of the benchmark's checks."""


def valid_metric_name(name: str) -> bool:
    return METRIC_NAME.fullmatch(name) is not None


def check_isl_trace(isl: Sequence[float], budget: int, evals: int, monotone: bool) -> None:
    """Finite trace, one entry per evaluation plus the start, within budget, and
    for MM runs no rise beyond criterion 3's tolerance."""
    isl = np.asarray(isl, dtype=float)
    if not np.all(np.isfinite(isl)):
        raise TrialFailure("non-finite ISL in trace")
    if evals > budget:
        raise TrialFailure(f"ran {evals} evaluations, budget {budget}")
    if isl.size != evals + 1:
        raise TrialFailure(f"ISL trace has {isl.size} entries for {evals} evaluations")
    if monotone:
        rise = np.flatnonzero(isl[1:] > isl[:-1] * (1.0 + DESCENT_RTOL) + DESCENT_ATOL)
        if rise.size:
            i = int(rise[0])
            raise TrialFailure(f"ISL rose at evaluation {i + 1}: {isl[i]!r} -> {isl[i + 1]!r}")


def check_readback(final_isl: float, readback_isl: float) -> None:
    """The sequence file's ISL must match the run record's finalIsl."""
    if not math.isfinite(readback_isl):
        raise TrialFailure("read-back sequence has non-finite ISL")
    if abs(readback_isl - final_isl) > READBACK_RTOL * abs(final_isl):
        raise TrialFailure(f"read-back ISL {readback_isl!r} != record finalIsl {final_isl!r}")


def check_bench_rows(rows, expected_keys: list[tuple], iters: int) -> None:
    """run_bench rows: right count, (algo, N, seed) order, finite ISL, within budget."""
    keys = [(r.algo, r.n, r.seed) for r in rows]
    if len(keys) != len(expected_keys):
        raise TrialFailure(f"run_bench returned {len(keys)} rows, expected {len(expected_keys)}")
    if keys != expected_keys:
        raise TrialFailure("run_bench rows out of (algo, N, seed) order")
    for r in rows:
        if not math.isfinite(r.final_isl):
            raise TrialFailure(f"non-finite ISL for {r.algo} N={r.n} seed={r.seed}")
        if r.iterations > iters:
            raise TrialFailure(f"{r.algo} N={r.n} seed={r.seed} ran {r.iterations} > {iters}")


def check_descended(final_isl: float, initial_isl: float) -> None:
    if final_isl > initial_isl * (1.0 + DESCENT_RTOL) + DESCENT_ATOL:
        raise TrialFailure(f"final ISL {final_isl!r} above initial {initial_isl!r}")


def evals_to_target(isl: Sequence[float], fraction: float = TARGET_FRACTION) -> Optional[int]:
    """First evaluation count whose ISL is <= fraction * initial ISL; None if never (censored)."""
    isl = np.asarray(isl, dtype=float)
    hit = np.flatnonzero(isl <= fraction * isl[0])
    return int(hit[0]) if hit.size else None


def censored_median(values: Sequence[Optional[float]]) -> Optional[float]:
    """Median where None means 'not reached within budget' (ranked above every value).

    Returns None when the median position falls on a censored value.
    """
    if not values:
        return None
    ranked = sorted(math.inf if v is None else float(v) for v in values)
    med = float(np.median(ranked))
    return None if math.isinf(med) or math.isnan(med) else med


def hit_fraction(values: Sequence[Optional[float]]) -> float:
    return sum(v is not None for v in values) / len(values) if values else 0.0


def tail_percentile(samples: Sequence[float], q: float = 90.0, min_tail: int = 10) -> Optional[float]:
    """q-th percentile, or None when fewer than min_tail samples lie beyond it."""
    samples = np.asarray(samples, dtype=float)
    if samples.size * (100.0 - q) < 100.0 * min_tail:
        return None
    return float(np.percentile(samples, q))
