"""Set-up probe: in a fresh interpreter, import unipol from ./src and make one
workload's first calls at a tiny size (N = 64), then exit.

    python3 perfbench/setup_probe.py --workload can-n16384

perfbench/run.py times whole runs of this script, start to exit, for setup_s.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=run.WORKLOAD_NAMES)
    args = parser.parse_args(argv)
    unipol = run._import_unipol()
    from workloads import WORKLOADS

    workdir = run.OUT_DIR / f"probe-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        WORKLOADS[args.workload].first_call(unipol, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
