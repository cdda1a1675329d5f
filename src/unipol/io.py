"""On-disk formats: sequence tables and run records.

A sequence file is a CSV table with header ``index,phase,re,im``: 0-based
index, phase in radians, and the matching cosine/sine. The writer emits
phases in [0, 2*pi) with 17 significant digits, so a write/read round trip
reproduces them to full double precision (well inside the 1e-12 format
contract). The reader takes any finite phase whose ``re``/``im`` agree with
it within 1e-12. Every cell is an ASCII
decimal: digit-group underscores and non-ASCII digits, which Python's
``int``/``float`` would take, are rejected. A UTF-8 byte-order mark is allowed.

Both directions work in blocks of rows, not one Python step per row. Writes
are byte-stable: each row renders exactly as
``f"{i},{t:.17g},{math.cos(t):.17g},{math.sin(t):.17g}"``. Errors are named
per row: a malformed file is rejected with the row number (and column, where
there is one) of its first bad row, checked in the order of ``_parse_row``.

A run record is a JSON document with keys {algorithm, N, seed, maxIterations,
accel, islTrace, timeTraceSeconds, finalPhases, finalIsl, finalPsl,
meritFactor}. accel is the outer scheme the run used,
"squarem" or "none" (always "none" for CAN). timeTraceSeconds is the
cumulative wall time with a leading 0.0, pairing 1:1 with islTrace.
finalIsl is the last islTrace entry, the Parseval value (isl_freq); ``unipol
metrics`` reads the lag route (isl_time), and acceptance criterion 1 bounds
the gap between the two at 1e-10 relative.
meritFactor is null only for N = 1, where it is undefined. For N >= 2 it is finite: a unimodular
sequence has |r_{N-1}| = |x_{N-1}| * |x_0| = 1, so ISL >= 1.
"""

from __future__ import annotations

import json
import math
from itertools import repeat
from typing import Optional, Union

import numpy as np

from unipol.metrics import UnimodularSequence, merit_factor, psl
from unipol.solver import RunTrace

__all__ = [
    "SequenceFileError",
    "sequence_file_text",
    "write_sequence_file",
    "read_sequence_file",
    "run_record_dict",
    "run_record_text",
    "write_run_record",
    "read_run_record",
]

_HEADER = "index,phase,re,im"
_ROW = "%d,%.17g,%.17g,%.17g\n"  # renders as f"{i},{t:.17g},{math.cos(t):.17g},{math.sin(t):.17g}"
_RE_IM_TOL = 1e-12  # how far a row's re/im may sit from the cos/sin of its phase

# Rows per bulk step of a write or a read: a block's temporaries stay a small
# fraction of the whole file's.
_BLOCK = 2048


class SequenceFileError(ValueError):
    """Malformed sequence table; the message carries row/column diagnostics."""


def sequence_file_text(seq: Union[UnimodularSequence, np.ndarray]) -> str:
    """Render one sequence as the CSV phase table, _BLOCK rows per format call."""
    phases = UnimodularSequence(seq).phases.tolist()
    chunks = [_HEADER + "\n"]
    for start in range(0, len(phases), _BLOCK):
        theta = phases[start : start + _BLOCK]
        cells = [None] * (4 * len(theta))
        cells[0::4] = range(start, start + len(theta))
        cells[1::4] = theta
        cells[2::4] = map(math.cos, theta)
        cells[3::4] = map(math.sin, theta)
        chunks.append(_ROW * len(theta) % tuple(cells))
    return "".join(chunks)


def write_sequence_file(path, seq: Union[UnimodularSequence, np.ndarray]) -> None:
    """Write one sequence as a CSV phase table; a render error leaves path untouched."""
    text = sequence_file_text(seq)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def read_sequence_file(path) -> UnimodularSequence:
    """Parse a CSV phase table back into a sequence.

    Raises SequenceFileError with the offending row/column on any malformed
    content, including non-UTF-8 bytes, cells that are not finite ASCII
    decimals and re/im entries inconsistent with the phase.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            rows = list(filter(None, map(str.strip, fh)))
    except UnicodeDecodeError as exc:
        raise SequenceFileError(f"not UTF-8 text: {exc.reason}") from None
    if not rows or rows[0] != _HEADER:
        raise SequenceFileError(f"row 1: expected header {_HEADER!r}")
    if len(rows) == 1:
        raise SequenceFileError("row 2: no data rows")
    # rows[j] is row number j + 1
    blocks = [_parse_block(rows[j : j + _BLOCK], j + 1) for j in range(1, len(rows), _BLOCK)]
    return UnimodularSequence.from_phases(np.concatenate(blocks))


def _parse_block(block: list[str], first: int) -> np.ndarray:
    """Phases of consecutive data rows, the first of them row number first.

    The bulk checks pass exactly when every row passes every rule of
    _parse_row; when one fails, _parse_row runs over the block and names its
    first bad row. Earlier blocks passed, so that is the file's first bad row.
    """
    phases = _bulk_phases(block, first)
    if phases is None:
        phases = np.array([_parse_row(line, rownum) for rownum, line in enumerate(block, start=first)])
    return phases


def _bulk_phases(block: list[str], first: int) -> Optional[np.ndarray]:
    """The block's phases, or None if some row breaks a rule of _parse_row."""
    joined = ",".join(block)
    if set(map(str.count, block, repeat(","))) != {3} or not joined.isascii() or "_" in joined:
        return None
    cells = joined.split(",")  # every row has 4 cells, so cell c of row i is cells[4 * i + c]
    try:
        index = list(map(int, cells[0::4]))
        theta, re, im = (list(map(float, cells[c::4])) for c in (1, 2, 3))
    except ValueError:
        return None
    if index != list(range(first - 2, first - 2 + len(block))):
        return None
    values = np.array([theta, re, im])
    if not np.isfinite(values).all():
        return None
    # math.cos/math.sin, as _parse_row uses: numpy's may differ in the last bit
    expected = np.array([list(map(math.cos, theta)), list(map(math.sin, theta))])
    if (np.abs(values[1:] - expected) > _RE_IM_TOL).any():
        return None
    return values[0]


def _parse_row(line: str, rownum: int) -> float:
    """The phase of one data row. The one home of every per-row
    SequenceFileError: it names the row, and the column where there is one, of
    the first rule the row breaks."""
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
    if abs(re - math.cos(theta)) > _RE_IM_TOL or abs(im - math.sin(theta)) > _RE_IM_TOL:
        raise SequenceFileError(
            f"row {rownum}: re/im inconsistent with phase {theta!r}"
        )
    return theta


def run_record_dict(algorithm: str, trace: RunTrace) -> dict:
    """Assemble the JSON-ready run record for a finished trace."""
    cfg = trace.config
    final = trace.final_sequence
    return {
        "algorithm": algorithm,
        "N": cfg.n,
        "seed": cfg.seed,
        "maxIterations": cfg.max_iterations,
        "accel": cfg.accel,
        "islTrace": trace.isl_per_iteration.tolist(),
        "timeTraceSeconds": trace.cumulative_seconds.tolist(),
        "finalPhases": final.phases.tolist(),
        "finalIsl": float(trace.isl_per_iteration[-1]),
        "finalPsl": float(psl(final)),
        "meritFactor": merit_factor(final) if cfg.n >= 2 else None,
    }


def run_record_text(record: dict) -> str:
    """Render a run record as indented JSON; NaN or infinity raises ValueError."""
    return json.dumps(record, indent=2, allow_nan=False) + "\n"


def write_run_record(path, record: dict) -> None:
    """Write a run record as JSON; a render error leaves path untouched."""
    text = run_record_text(record)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def read_run_record(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
