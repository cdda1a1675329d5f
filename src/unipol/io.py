"""On-disk formats: sequence tables and run records.

A sequence file is a CSV table with header ``index,phase,re,im``: 0-based
index, phase in [0, 2*pi) radians, and the matching cosine/sine. Phases are
written with 17 significant digits, so a write/read round trip reproduces
them to full double precision (well inside the 1e-12 format contract).
``re``/``im`` must agree with the phase within 1e-12. Every cell is an ASCII
decimal: digit-group underscores and non-ASCII digits, which Python's
``int``/``float`` would take, are rejected. A UTF-8 byte-order mark is allowed.

A run record is a JSON document with keys {algorithm, N, seed, phaseRange,
maxIterations, relTolerance, islTrace, timeTraceSeconds, finalPhases,
finalIsl, finalPsl, meritFactor}. timeTraceSeconds is the cumulative wall
time with a leading 0.0, pairing 1:1 with islTrace. meritFactor is null when
undefined (N = 1) or non-finite.
"""

from __future__ import annotations

import json
import math
from typing import Union

import numpy as np

from unipol.metrics import UnimodularSequence, merit_factor, psl
from unipol.solver import RunTrace

__all__ = [
    "SequenceFileError",
    "sequence_file_text",
    "write_sequence_file",
    "read_sequence_file",
    "run_record_dict",
    "write_run_record",
    "read_run_record",
]

_HEADER = "index,phase,re,im"


class SequenceFileError(ValueError):
    """Malformed sequence table; the message carries row/column diagnostics."""


def sequence_file_text(seq: Union[UnimodularSequence, np.ndarray]) -> str:
    """Render one sequence as the CSV phase table."""
    if not isinstance(seq, UnimodularSequence):
        seq = UnimodularSequence(np.asarray(seq, dtype=complex))
    lines = [_HEADER]
    for i, theta in enumerate(seq.phases):
        lines.append(f"{i},{theta:.17g},{math.cos(theta):.17g},{math.sin(theta):.17g}")
    return "\n".join(lines) + "\n"


def write_sequence_file(path, seq: Union[UnimodularSequence, np.ndarray]) -> None:
    """Write one sequence as a CSV phase table."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(sequence_file_text(seq))


def read_sequence_file(path) -> UnimodularSequence:
    """Parse a CSV phase table back into a sequence.

    Raises SequenceFileError with the offending row/column on any malformed
    content, including non-UTF-8 bytes, cells that are not finite ASCII
    decimals and re/im entries inconsistent with the phase.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            raw = [line.strip() for line in fh]
    except UnicodeDecodeError as exc:
        raise SequenceFileError(f"not UTF-8 text: {exc.reason}") from None
    rows = [line for line in raw if line]
    if not rows or rows[0] != _HEADER:
        raise SequenceFileError(f"row 1: expected header {_HEADER!r}")

    phases = []
    for rownum, line in enumerate(rows[1:], start=2):
        parts = line.split(",")
        if len(parts) != 4:
            raise SequenceFileError(f"row {rownum}: expected 4 columns, got {len(parts)}")
        for colnum, text in enumerate(parts, start=1):
            if "_" in text or not text.isascii():
                raise SequenceFileError(
                    f"row {rownum}, column {colnum}: not an ASCII decimal: {text!r}"
                )
        try:
            idx = int(parts[0])
        except ValueError:
            raise SequenceFileError(f"row {rownum}, column 1: bad index {parts[0]!r}") from None
        values = []
        for colnum, text in enumerate(parts[1:], start=2):
            try:
                value = float(text)
            except ValueError:
                value = math.nan  # reported with the non-finite cells below
            if not math.isfinite(value):
                raise SequenceFileError(
                    f"row {rownum}, column {colnum}: not a finite number: {text!r}"
                )
            values.append(value)
        theta, re, im = values
        if idx != rownum - 2:
            raise SequenceFileError(f"row {rownum}, column 1: index {idx}, expected {rownum - 2}")
        if abs(re - math.cos(theta)) > 1e-12 or abs(im - math.sin(theta)) > 1e-12:
            raise SequenceFileError(
                f"row {rownum}: re/im inconsistent with phase {theta!r}"
            )
        phases.append(theta)
    if not phases:
        raise SequenceFileError("row 2: no data rows")
    return UnimodularSequence.from_phases(np.asarray(phases))


def _json_merit_factor(seq: UnimodularSequence):
    if len(seq) < 2:
        return None
    value = merit_factor(seq)
    return value if math.isfinite(value) else None


def run_record_dict(algorithm: str, trace: RunTrace) -> dict:
    """Assemble the JSON-ready run record for a finished trace."""
    cfg = trace.config
    final = trace.final_sequence
    return {
        "algorithm": algorithm,
        "N": cfg.n,
        "seed": cfg.seed,
        "phaseRange": cfg.phase_range,
        "maxIterations": cfg.max_iterations,
        "relTolerance": cfg.rel_tolerance,
        "islTrace": [float(v) for v in trace.isl_per_iteration],
        "timeTraceSeconds": [float(v) for v in trace.cumulative_seconds],
        "finalPhases": [float(v) for v in final.phases],
        "finalIsl": float(trace.isl_per_iteration[-1]),
        "finalPsl": float(psl(final)),
        "meritFactor": _json_merit_factor(final),
    }


def write_run_record(path, record: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, allow_nan=False)
        fh.write("\n")


def read_run_record(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
