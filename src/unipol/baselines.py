"""Comparison material: the CAN alternating-projection baseline and classical
analytic unimodular families (Barker, Frank, Golomb, Chu, P4)."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from unipol.metrics import UnimodularSequence, as_values, spectrum_2n, unit_of
from unipol.solver import RunTrace, SolverConfig, _check_choice, _check_int, _run_loop

__all__ = ["FAMILIES", "BARKER_CODES", "generate", "can_run"]

FAMILIES = ("barker", "frank", "golomb", "chu", "p4")

BARKER_CODES = {
    2: [1, -1],
    3: [1, 1, -1],
    4: [1, 1, -1, 1],
    5: [1, 1, 1, -1, 1],
    7: [1, 1, 1, -1, -1, 1, -1],
    11: [1, 1, 1, -1, -1, -1, 1, -1, -1, 1, -1],
    13: [1, 1, 1, 1, 1, -1, -1, 1, 1, -1, 1, -1, 1],
}


def generate(family: str, n: int) -> UnimodularSequence:
    """Classical unimodular sequence of the given family and length.

    barker: the +-1 codes, lengths 2, 3, 4, 5, 7, 11, 13 only.
    frank:  requires n = L^2, L >= 2; phase 2*pi*m*k/L on an L x L index grid.
    golomb: quadratic phase pi*m*(m+1)/n.
    chu:    quadratic phase pi*m^2/n for even n, pi*m*(m+1)/n for odd n.
    p4:     quadratic phase pi*m*(m-n)/n.

    The last three share the law pi*m*(m+s)/n with s = 1, n mod 2 and -n. Each
    integer numerator is reduced mod 2n (L for frank) first, so rounding does not grow with n.
    """
    _check_choice("family", family, FAMILIES)
    n = _check_int("n", n, 1)
    m = np.arange(n)

    if family == "barker":
        if n not in BARKER_CODES:
            raise ValueError(
                f"barker supports lengths {sorted(BARKER_CODES)} only, not {n}"
            )
        return UnimodularSequence(BARKER_CODES[n])
    if family == "frank":
        root = round(n**0.5)
        if root * root != n or root < 2:
            raise ValueError(f"frank needs a square length L^2 with L >= 2, not {n}")
        row, col = np.divmod(m, root)
        return UnimodularSequence(np.exp(2j * np.pi * (row * col % root) / root))
    shift = {"golomb": 1, "chu": n % 2, "p4": -n}[family]
    return UnimodularSequence(np.exp(1j * np.pi * (m * (m + shift) % (2 * n)) / n))


def _can_step(x: UnimodularSequence) -> UnimodularSequence:
    """One CAN alternating projection: flatten the 2N-point spectrum, then the moduli."""
    v = as_values(x)
    z = np.fft.ifft(unit_of(spectrum_2n(x)))[: v.size]
    return UnimodularSequence(unit_of(z, v))


def can_run(cfg: SolverConfig) -> RunTrace:
    """Run the CAN baseline under the same config surface as the MM driver.

    Like run, it starts from init_random(cfg.n, cfg.seed) and makes exactly
    cfg.max_iterations map evaluations. CAN alternates unit-modulus
    projections between the time and 2N-point frequency domains. It optimizes
    a frequency-domain approximation of the ISL, so its ISL trace carries no
    monotonicity guarantee. It always runs plain: the trace's config says
    accel="none" whatever cfg.accel holds.
    """
    return _run_loop(_can_step, replace(cfg, accel="none"))
