"""Command-line front end: design | metrics | generate | bench.

Exit codes, set by ``main`` alone: 0 success, 1 runtime or I/O failure, 2
usage error (any other ValueError). Bench trials run one after another.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from unipol import bench as bench_mod
from unipol import io as io_mod
from unipol.baselines import FAMILIES, can_run, generate
from unipol.metrics import autocorrelation, isl_time, merit_factor, psl, sidelobe_db
from unipol.solver import ACCELS, SolverConfig, run

__all__ = ["main"]


def _parse_lengths(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"bad length list {text!r}") from None


def _file_identity(path):
    """(device, inode) of an existing file, so hard links match; else the resolved path."""
    if os.path.exists(path):
        st = os.stat(path)
        return st.st_dev, st.st_ino
    return os.path.realpath(path)


def _check_outputs(*paths) -> None:
    """Before any work: a nameless or repeated path is a ValueError, an unwritable one an OSError.

    Two paths repeat when they resolve to one name or, if they exist, to one
    inode. design's derived R.seq.csv can only repeat R.json as a pre-existing
    symlink or hard link, and this check is the one guard against that.
    """
    paths = [p for p in paths if p is not None]
    for path in paths:
        folder, name = os.path.split(path)
        if name in ("", ".", ".."):
            raise ValueError(f"output path {path!r} has no file name")
        if not os.path.isdir(folder or "."):
            raise FileNotFoundError(f"no such directory: {folder!r}")
        if os.path.isdir(path):
            raise IsADirectoryError(f"is a directory: {path!r}")
    if len({_file_identity(p) for p in paths}) < len(paths):
        raise ValueError(f"outputs {paths} name the same file")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unipol",
        description="Design and analyze unimodular sequences with low autocorrelation sidelobes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    design = sub.add_parser("design", help="run a sidelobe-minimization solver")
    design.add_argument("--algo", choices=("unipol", "can"), default="unipol")
    design.add_argument("-N", "--length", dest="n", type=int, required=True)
    design.add_argument(
        "--iters",
        type=int,
        default=1000,
        help="map evaluations; every run makes exactly this many",
    )
    design.add_argument("--seed", type=int, default=0)
    design.add_argument(
        "--accel",
        choices=ACCELS,
        default="squarem",
        help="outer scheme of --algo unipol; 'none' is the paper's plain MM (CAN always runs plain)",
    )
    design.add_argument(
        "-o", "--output", help="run record JSON path; R.json also writes R.seq.csv (default: stdout)"
    )
    design.set_defaults(func=cmd_design)

    metrics = sub.add_parser("metrics", help="report metrics for a sequence file")
    metrics.add_argument("input", help="sequence CSV path")
    metrics.add_argument("--json", action="store_true", help="emit a JSON report")
    metrics.set_defaults(func=cmd_metrics)

    gen = sub.add_parser("generate", help="emit a classical sequence")
    gen.add_argument("--family", choices=FAMILIES, required=True)
    gen.add_argument("-N", "--length", dest="n", type=int, required=True)
    gen.add_argument("-o", "--output", help="sequence CSV path (default: stdout)")
    gen.set_defaults(func=cmd_generate)

    bench = sub.add_parser("bench", help="run the seeded benchmark matrix")
    bench.add_argument("--algos", default="unipol", help="comma list from {unipol,can}")
    bench.add_argument(
        "--lengths",
        default=",".join(str(n) for n in bench_mod.DEFAULT_LENGTHS),
        help="comma list of sequence lengths",
    )
    bench.add_argument("--runs", type=int, default=30)
    bench.add_argument("--iters", type=int, default=1000)
    bench.add_argument("--seed", type=int, default=0, help="base seed; trial i uses seed+i")
    bench.add_argument("-o", "--output", help="CSV path (default: stdout)")
    bench.set_defaults(func=cmd_bench)

    return parser


def cmd_design(args) -> int:
    cfg = SolverConfig(
        n=args.n,
        max_iterations=args.iters,
        seed=args.seed,
        accel=args.accel,
    )
    seq_path = None if args.output is None else os.path.splitext(args.output)[0] + ".seq.csv"
    _check_outputs(args.output, seq_path)

    trace = run(cfg) if args.algo == "unipol" else can_run(cfg)
    record = io_mod.run_record_dict(args.algo, trace)

    if seq_path is not None:
        io_mod.write_sequence_file(seq_path, trace.final_sequence)
    if args.output is None:
        sys.stdout.write(io_mod.run_record_text(record))
    else:
        io_mod.write_run_record(args.output, record)
        print(
            f"{args.algo}: N={cfg.n} iterations={trace.iterations_run} "
            f"isl {record['islTrace'][0]:.6g} -> {record['finalIsl']:.6g} "
            f"(record: {args.output})"
        )
    return 0


def cmd_metrics(args) -> int:
    seq = io_mod.read_sequence_file(args.input)
    isl = isl_time(seq)
    peak = psl(seq)
    mf = merit_factor(seq) if len(seq) >= 2 else None
    db = sidelobe_db(seq)

    if args.json:
        report = {
            "N": len(seq),
            "isl": isl,
            "psl": peak,
            "meritFactor": mf,
            "sidelobeDb": [None if not math.isfinite(v) else float(v) for v in db],
        }
        json.dump(report, sys.stdout, indent=2)
        sys.stdout.write("\n")
        return 0

    print(f"N:            {len(seq)}")
    print(f"ISL:          {isl:.12g}")
    print(f"PSL:          {peak:.12g}")
    print(f"merit factor: {'undefined' if mf is None else format(mf, '.12g')}")
    print("lag  |r_k|          20log10(|r_k|/N)")
    mags = np.abs(autocorrelation(seq))
    for k, (mag, level) in enumerate(zip(mags, db)):
        print(f"{k:<4d} {mag:<14.6g} {level:.6g}")
    return 0


def cmd_generate(args) -> int:
    _check_outputs(args.output)
    seq = generate(args.family, args.n)
    if args.output is not None:
        io_mod.write_sequence_file(args.output, seq)
        print(f"{args.family}: wrote N={len(seq)} sequence to {args.output}")
    else:
        sys.stdout.write(io_mod.sequence_file_text(seq))
    return 0


def cmd_bench(args) -> int:
    algos = [tok.strip() for tok in args.algos.split(",") if tok.strip()]
    lengths = _parse_lengths(args.lengths)
    _check_outputs(args.output)
    rows = bench_mod.run_bench(
        algos=algos,
        lengths=lengths,
        runs=args.runs,
        iters=args.iters,
        base_seed=args.seed,
    )
    csv_text = bench_mod.rows_to_csv(rows)
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
        print(f"wrote {len(rows)} rows to {args.output}")
    else:
        sys.stdout.write(csv_text)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except io_mod.SequenceFileError as exc:  # a ValueError, so it comes first; metrics only
        print(f"error: {args.input}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
