"""Stationarity quartic of the unit-circle subproblem and its minimizer.

The per-variable surrogate reduces to minimizing f(theta) = Re(a e^{2j theta}
- b e^{j theta}) over theta. Its stationary points, after the tangent
half-angle substitution beta = tan(theta/2), are the real roots of

    p4 b^4 + p3 b^3 + p2 b^2 + p1 b + p0 = 0

with p4 = 2*aI + bI, p3 = -8*aR - 2*bR, p2 = -12*aI, p1 = 8*aR - 2*bR,
p0 = 2*aI - bI. The substitution cannot represent theta = pi, so the
minimizer always evaluates that candidate explicitly.

All rows go through one batched root route, `_real_roots_batch`; there is
no single-row solver. Leading coefficients are deflated to the row's
effective degree (4, 3, 2 or 1), the real eigenvalues of the companion
matrix of that monic polynomial are kept, two Newton passes against the full
quartic refine them, and one residual gate drops what is not a root.
`minimize_batch` turns the surviving roots plus theta = pi into each row's
minimizer; `minimize_single` is that batch of one.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "quartic_coeffs_batch",
    "minimize_single",
    "minimize_batch",
]

# A leading coefficient at or below this fraction of the row maximum is deflated.
LEADING_DEFLATION_RTOL = 1e-12

# Companion eigenvalues count as real when |Im| <= this * (1 + |Re|); Newton
# polishing plus the residual gate clean up what the loose filter lets through.
_IMAG_RTOL = 1e-6

# Objective gap, times min(1, |a| + |b|), within which the smallest theta wins a tie.
_TIE_GAP = 1e-12


def quartic_coeffs_batch(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stationarity-polynomial rows [p4, p3, p2, p1, p0] (M, 5) for complex arrays a, b (M,)."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    return np.stack(
        [
            2.0 * ai + bi,
            -8.0 * ar - 2.0 * br,
            -12.0 * ai,
            8.0 * ar - 2.0 * br,
            2.0 * ai - bi,
        ],
        axis=1,
    )


def _polish(coeffs: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """Two Newton passes on NaN-padded roots (M, R) against coefficient rows (M, 5)."""
    c4, c3, c2, c1, c0 = (coeffs[:, i : i + 1] for i in range(5))
    b = roots
    for _ in range(2):
        val = (((c4 * b + c3) * b + c2) * b + c1) * b + c0
        der = ((4.0 * c4 * b + 3.0 * c3) * b + 2.0 * c2) * b + c1
        with np.errstate(invalid="ignore", divide="ignore"):
            step = np.where(np.abs(der) > 0.0, val / der, 0.0)
        b = b - np.nan_to_num(step, nan=0.0, posinf=0.0, neginf=0.0)
    return b


def _companion_real_roots(rows: np.ndarray) -> np.ndarray:
    """Real eigenvalues of companion matrices for monic-normalizable rows.

    rows holds highest-first coefficients of a fixed degree d = rows.shape[1]-1;
    returns (len(rows), d) with NaN in non-real slots.
    """
    m, width = rows.shape
    d = width - 1
    monic = rows[:, 1:] / rows[:, :1]
    comp = np.zeros((m, d, d))
    comp[:, 0, :] = -monic
    idx = np.arange(d - 1)
    comp[:, idx + 1, idx] = 1.0
    eig = np.linalg.eigvals(comp)
    real_like = np.abs(eig.imag) <= _IMAG_RTOL * (1.0 + np.abs(eig.real))
    return np.where(real_like, eig.real, np.nan)


def _real_roots_batch(coeffs: np.ndarray) -> np.ndarray:
    """Real roots of each quartic row, NaN-padded to shape (M, 4).

    Leading coefficients are deflated at LEADING_DEFLATION_RTOL relative to
    the row maximum, and each effective degree 4, 3, 2 and 1 goes through the
    same companion route. Polished roots that miss the residual gate
    |p(beta)| <= 1e-9 * (1 + row max|p_i|) * (1 + |beta|)^4 become NaN, as
    does every slot of an identically-zero row.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    m = coeffs.shape[0]
    out = np.full((m, 4), np.nan)
    if m == 0:
        return out

    mags = np.abs(coeffs)
    scale = np.max(mags, axis=1)
    significant = mags > LEADING_DEFLATION_RTOL * scale[:, None]
    has_any = significant.any(axis=1)
    first = np.argmax(significant, axis=1)
    degree = np.where(has_any, 4 - first, -1)

    for d in (4, 3, 2, 1):
        rows = np.flatnonzero(degree == d)
        if rows.size:
            out[rows, :d] = _companion_real_roots(coeffs[rows, 4 - d :])

    # degree 0: a nonzero constant has no roots; degree -1 is an identically
    # zero row, which minimize_batch treats as degenerate. Both stay all-NaN.
    roots = _polish(coeffs, out)
    c4, c3, c2, c1, c0 = (coeffs[:, i : i + 1] for i in range(5))
    residual = np.abs((((c4 * roots + c3) * roots + c2) * roots + c1) * roots + c0)
    bound = 1e-9 * (1.0 + scale[:, None]) * (1.0 + np.abs(roots)) ** 4
    return np.where(residual <= bound, roots, np.nan)


def _objective(a: np.ndarray, b: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """f(theta) = Re(a e^{2j theta} - b e^{j theta}), broadcast over candidates."""
    ar, ai = a.real[:, None], a.imag[:, None]
    br, bi = b.real[:, None], b.imag[:, None]
    return ar * np.cos(2.0 * theta) - ai * np.sin(2.0 * theta) - br * np.cos(theta) + bi * np.sin(theta)


def minimize_batch(a, b, fallback_phases=None) -> np.ndarray:
    """Global minimizers of Re(a_q e^{2j theta} - b_q e^{j theta}) on [0, 2*pi), per row.

    Candidates are theta = 2*arctan(beta) over the gated roots of
    _real_roots_batch plus the mandatory theta = pi; ties within
    1e-12 * min(1, |a| + |b|) objective go to the smallest theta. Rows with
    every quartic coefficient <= 1e-12 * max(1, |a| + |b|) count as constant
    (the floor of 1 absorbs the N = 1 FFT residue, |a| + |b| ~ 1e-15) and
    return fallback_phases there, or 0.0 if not given.
    """
    a = np.atleast_1d(np.asarray(a, dtype=np.complex128))
    b = np.atleast_1d(np.asarray(b, dtype=np.complex128))
    coeffs = quartic_coeffs_batch(a, b)

    scale = np.abs(a) + np.abs(b)
    degenerate = np.max(np.abs(coeffs), axis=1) <= LEADING_DEFLATION_RTOL * np.maximum(1.0, scale)

    roots = _real_roots_batch(coeffs)
    # Bitwise np.mod(t, 2*pi) for t in [-pi, pi], without np.mod's slow path on
    # the NaN slots; <= sends -0.0 to +0.0 as np.mod does.
    thetas = 2.0 * np.arctan(roots)
    thetas = np.where(thetas <= 0.0, thetas + 2.0 * np.pi, thetas)
    thetas[thetas == 2.0 * np.pi] = 0.0  # a tiny negative angle (or a zero) rounds up to 2*pi
    thetas = np.concatenate([thetas, np.full((len(a), 1), np.pi)], axis=1)

    with np.errstate(invalid="ignore"):
        f = _objective(a, b, thetas)
    f = np.where(np.isnan(f), np.inf, f)
    best = np.min(f, axis=1, keepdims=True)
    tied = f <= best + _TIE_GAP * np.minimum(1.0, scale)[:, None]
    theta = np.min(np.where(tied, thetas, np.inf), axis=1)

    if np.any(degenerate):
        if fallback_phases is None:
            theta = np.where(degenerate, 0.0, theta)
        else:
            theta = np.where(degenerate, np.asarray(fallback_phases, dtype=float), theta)
    return theta


def minimize_single(a: complex, b: complex) -> float:
    """Minimizer theta* in [0, 2*pi) of Re(a e^{2j theta} - b e^{j theta}).

    For a = b = 0 the objective is constant and 0.0 is returned (smallest
    theta under the tie-break rule).
    """
    return float(minimize_batch(np.array([a]), np.array([b]))[0])
