"""Unimodular sequence design with low aperiodic autocorrelation sidelobes.

The solver minimizes the integrated sidelobe level by majorization-
minimization: each iteration majorizes the quartic spectral form of the ISL
with a function separable across sequence elements, then drops every element
to the exact minimizer of its own unit-circle quartic subproblem (found
through the subproblem's trust-region secular equation). A CAN
alternating-projection baseline, classical polyphase generators, exact
metrics, and a benchmark harness round out the library; the ``unipol``
command exposes it all on the command line.
"""

from unipol.baselines import BARKER_CODES, FAMILIES, can_run, generate
from unipol.metrics import (
    UnimodularSequence,
    autocorrelation,
    isl_freq,
    isl_time,
    merit_factor,
    psl,
    sidelobe_db,
)
from unipol.solver import RunTrace, SolverConfig, init_random, run

__version__ = "0.1.0"

__all__ = [
    "BARKER_CODES",
    "FAMILIES",
    "RunTrace",
    "SolverConfig",
    "UnimodularSequence",
    "autocorrelation",
    "can_run",
    "generate",
    "init_random",
    "isl_freq",
    "isl_time",
    "merit_factor",
    "psl",
    "run",
    "sidelobe_db",
]
