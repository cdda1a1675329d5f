"""Stationarity quartic of the unit-circle subproblem and its minimizer.

The per-variable surrogate reduces to minimizing f(theta) = Re(a e^{2j theta}
- b e^{j theta}) over theta. Its stationary points, after the tangent
half-angle substitution beta = tan(theta/2), are the real roots of

    p4 b^4 + p3 b^3 + p2 b^2 + p1 b + p0 = 0

with p4 = 2*aI + bI = -f'(pi), p3 = -8*aR - 2*bR, p2 = -12*aI,
p1 = 8*aR - 2*bR, p0 = 2*aI - bI. The substitution cannot reach theta = pi,
so each row is first rotated, theta = phi + psi with a -> a e^{2j phi} and
b -> b e^{j phi}, by the anchor phi in {k*pi/4} with the largest |p4|. As
p4^2 sums to 16|a|^2 + 4|b|^2 over the 8 anchors, |p4| >= (sqrt(2)/12)
max|p_i| > max|p_i| / 9: phi + pi is never stationary, every stationary point
is a root with |beta| <= 9.5, and every row is a true quartic.

`_real_roots_batch` keeps the real eigenvalues of each row's 4x4 companion
matrix, polishes them and gates them on their residual; `minimize_batch`
picks the best theta = phi + 2*arctan(beta) of each row, and
`minimize_single` is that batch of one.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "quartic_coeffs_batch",
    "minimize_single",
    "minimize_batch",
]

# A row whose every coefficient is at or below this times max(1, |a| + |b|) has a
# constant objective; the floor of 1 absorbs the N = 1 FFT residue, |a| + |b| ~ 1e-15.
_CONSTANT_ROW_RTOL = 1e-12

# Companion eigenvalues count as real when |Im| <= this * (1 + |Re|); Newton
# polishing plus the residual gate clean up what the loose filter lets through.
_IMAG_RTOL = 1e-6

# Objective gap, times min(1, |a| + |b|), within which the smallest theta wins a tie.
_TIE_GAP = 1e-12

# cos and sin of the anchors k*pi/4, k = 0..7, exact where they are 0 or +-1.
_COS = np.array([1.0, np.sqrt(0.5), 0.0, -np.sqrt(0.5), -1.0, -np.sqrt(0.5), 0.0, np.sqrt(0.5)])
_SIN = np.roll(_COS, 2)
_DOUBLE = 2 * np.arange(8) % 8  # anchor index of 2*phi


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


def _polish(coeffs: np.ndarray, roots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two Newton passes on NaN-padded roots (M, R) of rows (M, 5); returns the roots and |p|.

    A step is kept only where it does not raise |p|: at a multiple root a full
    step, rounding noise in p over p' ~ 0, would throw the root away.
    """
    c4, c3, c2, c1, c0 = (coeffs[:, i : i + 1] for i in range(5))

    def p(x):
        return (((c4 * x + c3) * x + c2) * x + c1) * x + c0

    b, val = roots, p(roots)
    # a wild step (p' = 0, overflow) yields inf or NaN and fails the |p| test
    with np.errstate(all="ignore"):
        for _ in range(2):
            der = ((4.0 * c4 * b + 3.0 * c3) * b + 2.0 * c2) * b + c1
            trial = b - val / der
            trial_val = p(trial)
            better = np.abs(trial_val) <= np.abs(val)
            b = np.where(better, trial, b)
            val = np.where(better, trial_val, val)
    return b, np.abs(val)


def _anchor(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Anchor phi (M,) of each row and the stationarity rows (M, 5) of the
    rotated subproblem a e^{2j phi}, b e^{j phi}.

    phi = k*pi/4 maximizes |p4| = |2 Im(a e^{2j phi}) + Im(b e^{j phi})|.
    Only elementwise arithmetic, so a row's result does not depend on its batch.
    """
    ar, ai, br, bi = (x[:, None] for x in (a.real, a.imag, b.real, b.imag))
    p4 = 2.0 * (ai * _COS[_DOUBLE] + ar * _SIN[_DOUBLE]) + bi * _COS + br * _SIN
    k = np.argmax(np.abs(p4), axis=1)
    c, s, c2, s2 = _COS[k], _SIN[k], _COS[_DOUBLE[k]], _SIN[_DOUBLE[k]]
    a = (a.real * c2 - a.imag * s2) + 1j * (a.real * s2 + a.imag * c2)
    b = (b.real * c - b.imag * s) + 1j * (b.real * s + b.imag * c)
    return k * (np.pi / 4), quartic_coeffs_batch(a, b)


def _real_roots_batch(coeffs: np.ndarray) -> np.ndarray:
    """Real roots of each quartic row, NaN-padded to shape (M, 4).

    Polished real companion eigenvalues that miss the residual gate
    |p(beta)| <= 1e-9 * (1 + row max|p_i|) * (1 + |beta|)^4 become NaN, as does
    every slot of a row whose leading coefficient is zero (no deflation).
    """
    coeffs = np.asarray(coeffs, dtype=float)
    quartic = coeffs[:, 0] != 0.0
    comp = np.zeros((coeffs.shape[0], 4, 4))
    comp[:, 0, :] = -coeffs[:, 1:] / np.where(quartic, coeffs[:, 0], 1.0)[:, None]
    comp[:, [1, 2, 3], [0, 1, 2]] = 1.0
    eig = np.linalg.eigvals(comp)
    real_like = quartic[:, None] & (np.abs(eig.imag) <= _IMAG_RTOL * (1.0 + np.abs(eig.real)))
    roots, residual = _polish(coeffs, np.where(real_like, eig.real, np.nan))
    scale = np.max(np.abs(coeffs), axis=1, keepdims=True)
    bound = 1e-9 * (1.0 + scale) * (1.0 + np.abs(roots)) ** 4
    return np.where(residual <= bound, roots, np.nan)


def minimize_batch(a, b) -> np.ndarray:
    """Global minimizers of Re(a_q e^{2j theta} - b_q e^{j theta}) on [0, 2*pi), per row.

    Candidates are theta = phi + 2*arctan(beta) over the row's anchor phi and
    the gated roots of _real_roots_batch; there is no separate theta = pi
    candidate. Ties within 1e-12 * min(1, |a| + |b|) objective go to the
    smallest theta. Rows whose anchored coefficients are all <= 1e-12 *
    max(1, |a| + |b|) have a constant objective and return 0.0.
    """
    a = np.atleast_1d(np.asarray(a, dtype=np.complex128))
    b = np.atleast_1d(np.asarray(b, dtype=np.complex128))
    phi, coeffs = _anchor(a, b)

    scale = np.abs(a) + np.abs(b)
    constant = np.max(np.abs(coeffs), axis=1) <= _CONSTANT_ROW_RTOL * np.maximum(1.0, scale)
    coeffs[constant] = 0.0

    # phi + 2*arctan(beta) lies in (-pi, 3*pi). A hair-below-zero angle rounds
    # up to exactly 2*pi on the first fold and goes to 0 on the second.
    thetas = phi[:, None] + 2.0 * np.arctan(_real_roots_batch(coeffs))
    thetas = np.where(thetas < 0.0, thetas + 2.0 * np.pi, thetas)
    thetas = np.where(thetas >= 2.0 * np.pi, thetas - 2.0 * np.pi, thetas)

    ar, ai, br, bi = (x[:, None] for x in (a.real, a.imag, b.real, b.imag))
    f = (ar * np.cos(2.0 * thetas) - ai * np.sin(2.0 * thetas)
         - br * np.cos(thetas) + bi * np.sin(thetas))
    best = np.fmin.reduce(f, axis=1, keepdims=True)  # skips the NaN slots
    tied = f <= best + _TIE_GAP * np.minimum(1.0, scale)[:, None]
    theta = np.min(np.where(tied, thetas, np.inf), axis=1)
    return np.where(constant, 0.0, theta)


def minimize_single(a: complex, b: complex) -> float:
    """Minimizer theta* in [0, 2*pi) of Re(a e^{2j theta} - b e^{j theta}).

    For a = b = 0 the objective is constant and 0.0 is returned (smallest
    theta under the tie-break rule).
    """
    return float(minimize_batch(np.array([a]), np.array([b]))[0])
