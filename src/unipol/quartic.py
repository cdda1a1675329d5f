"""Exact minimizer of the unit-circle subproblem, by its secular equation.

The separable quartic majorizer leaves one subproblem per variable: minimize
f(z) = Re(a z^2 - b z) over |z| = 1, with theta = arg z. This module solves
it exactly, by another route than the paper's stationarity quartic. With
h = sqrt(a/|a|) (h = 1 when a = 0) and z = w conj(h), the subproblem becomes

    min  |a| (u^2 - v^2) - Re(b') u + Im(b') v   over  u^2 + v^2 = 1,

w = u + jv and b' = b conj(h): a trust-region problem on the circle with the
diagonal matrix diag(|a|, -|a|) (Gander, Golub & von Matt 1989; More &
Sorensen 1983). Its global minimizer is w = (Re b' / 2(s + t), -Im b' / 2s)
with t = 2|a| and s >= 0 the root of the secular equation

    p^2 / (s + t)^2 + q^2 / s^2 = 1,   p = |Re b'| / 2,  q = |Im b'| / 2,

whose multiplier s + |a| >= |a| certifies that the minimum is global. The
root lies in [max(q, p - t), sqrt(p^2 + q^2)]. The hard case is s = 0: q = 0
and p <= t, where u = Re b' / 2t and v = +-sqrt(1 - u^2) are two minimizers
and the smaller theta wins.

`_real_roots_batch` finds s for every row (the module and that function keep
their names from the quartic route); `minimize_batch` turns s into theta;
`minimize_single` is that batch of one. Every step is elementwise, so a row's
result does not depend on its batch. The separable majorizer, the paper's
contribution, is unchanged.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "minimize_single",
    "minimize_batch",
]

# Objective gap, times min(1, |a| + |b|), within which the smallest theta wins a tie.
_TIE_GAP = 1e-12

# Newton steps per row at most. Far left of the root the q-term dominates and a
# step multiplies s by about 3/2, so from s >= q the angle q/s still to go
# shrinks like (2/3)^k. Solver rows stop within 4 steps, rows next to a triple
# point (p = t, q ~ 1e-16 t) within 43; after 64 the angle left is below 1e-11
# and the objective gap below 1e-22 (|a| + |b|).
_NEWTON_CAP = 64

_TINY = np.finfo(float).tiny


def _real_roots_batch(p: np.ndarray, q: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Root s (M,) of p^2/(s + t)^2 + q^2/s^2 = 1 per row, 0 in the hard case.

    Newton on 1/|w(s)| - 1, which is concave and rising, from the left end
    s = max(q, p - t): each step rises toward the root, and a row is frozen
    at its first step that does not rise, or after _NEWTON_CAP steps. The hard
    case, q = 0 and p <= t, returns 0; so does a subnormal start, whose q is
    below any angle a double can hold next to 1 (and where the steps would
    round to nothing). Rows are expected scaled to about 1, as minimize_batch
    sends them.
    """
    s = np.maximum(q, p - t)
    s[s < _TINY] = 0.0
    rows = np.flatnonzero(s)
    p, q, t = p[rows], q[rows], t[rows]
    for _ in range(_NEWTON_CAP):
        if not rows.size:
            break
        sr = s[rows]
        d = sr + t
        u, v = p / d, q / sr
        e = v * v - (sr + (t - p)) * (d + p) / (d * d)  # |w|^2 - 1, free of cancellation
        n = np.sqrt(1.0 + e)
        new = sr + sr * (1.0 + e) * e / ((n + 1.0) * (u * u * sr / d + v * v))
        rising = new > sr
        rows, p, q, t = rows[rising], p[rising], q[rising], t[rising]
        s[rows] = new[rising]
    return s


def minimize_batch(a, b) -> np.ndarray:
    """Global minimizers of Re(a_q e^{2j theta} - b_q e^{j theta}) on [0, 2*pi), per row.

    Each row is first scaled by a power of two, exactly, so its largest real
    or imaginary part lies in [1/2, 1); the secular root of _real_roots_batch
    then gives the one minimizer, or in the hard case two mirror candidates
    v = +-sqrt(1 - u^2). Only those exact ties are scored, on the unscaled row:
    within 1e-12 * min(1, |a| + |b|) objective the smaller theta wins. Above
    |a| + |b| = 1 that gap is an absolute 1e-12, so a tie whose two values
    differ only by rounding may go to either minimizer. A row is constant
    exactly when a = b = 0, and returns 0.0. a and b are finite scalars or
    1-D arrays of one shape.
    """
    a = np.atleast_1d(np.asarray(a, dtype=np.complex128))
    b = np.atleast_1d(np.asarray(b, dtype=np.complex128))
    if a.ndim != 1 or a.shape != b.shape or not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError(f"a and b must be finite, 1-D of one shape, got {a.shape} and {b.shape}")
    parts = np.array([a.real, a.imag, b.real, b.imag])
    largest = np.abs(parts).max(axis=0)
    ar, ai, br, bi = np.ldexp(parts, -np.frexp(largest)[1], out=parts)
    r = np.abs(ar + 1j * ai)
    # h = sqrt(a/|a|) up to sign, as the phase of |a| + a or j(|a| - a), whichever is
    # further from 0; h = 1 when a = 0
    g = np.where(ar >= 0.0, r + ar + 1j * ai, ai + 1j * (r - ar))
    g[r == 0.0] = 1.0
    h = g / np.abs(g)
    bh = (br + 1j * bi) * h.conj()
    t = 2.0 * r
    s = _real_roots_batch(np.abs(bh.real) / 2.0, np.abs(bh.imag) / 2.0, t)

    hard = s == 0.0
    u = bh.real / (2.0 * np.where(largest > 0.0, s + t, 1.0))  # s + t = 0 only for a = b = 0
    v = -bh.imag / (2.0 * np.where(hard, 1.0, s))
    v[hard] = np.sqrt(1.0 - u[hard] ** 2)
    theta = _phase((u + 1j * v) * h.conj())

    # the hard case: the mirror candidate, scored against the first on the unscaled row
    k = np.flatnonzero(hard)
    if k.size:
        z = np.stack([u[k] + 1j * v[k], u[k] - 1j * v[k]]) * h[k].conj()
        thetas = _phase(z)
        f = (a[k] * z * z - b[k] * z).real
        tied = f <= f.min(axis=0) + _TIE_GAP * np.minimum(1.0, np.abs(a[k]) + np.abs(b[k]))
        theta[k] = np.min(np.where(tied, thetas, np.inf), axis=0)
    return np.where(largest == 0.0, 0.0, theta)


def _phase(z: np.ndarray) -> np.ndarray:
    """arg z folded to [0, 2*pi); a hair-below-zero angle that rounds up to 2*pi goes to 0."""
    theta = np.angle(z)
    theta = np.where(theta < 0.0, theta + 2.0 * np.pi, theta)
    return np.where(theta >= 2.0 * np.pi, 0.0, theta)


def minimize_single(a: complex, b: complex) -> float:
    """Minimizer theta* in [0, 2*pi) of Re(a e^{2j theta} - b e^{j theta}).

    For a = b = 0 the objective is constant and 0.0 is returned (smallest
    theta under the tie-break rule).
    """
    return float(minimize_batch(np.array([a]), np.array([b]))[0])
