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
max|p_i| > max|p_i| / 9: phi + pi is never stationary, every row but a = b = 0
is a true quartic, and every root has |beta| <= 10 (Cauchy's bound).

`_real_roots_batch` returns the real parts of all four roots of each row, by
Ferrari's closed form, and `minimize_batch` scores every one of them as
theta = phi + 2*arctan(beta) on the objective itself. Every real stationary
point is among these candidates and every candidate is a real angle whose
objective is evaluated exactly, so the best candidate is the global minimizer.
`minimize_single` is that batch of one.

Inside, the M independent rows lie on the last axis of every array, as in the
(5, M) coefficients; the (M, 5) and (M, 4) results are transposed views.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "quartic_coeffs_batch",
    "minimize_single",
    "minimize_batch",
]

# Objective gap, times min(1, |a| + |b|), within which the smallest theta wins a tie.
_TIE_GAP = 1e-12

# cos, sin and e^{j k pi/4} of the anchors k = 0..7, exact where they are 0 or +-1.
_COS = np.array([1.0, np.sqrt(0.5), 0.0, -np.sqrt(0.5), -1.0, -np.sqrt(0.5), 0.0, np.sqrt(0.5)])
_SIN = np.roll(_COS, 2)
_ROT = _COS + 1j * _SIN
_DOUBLE = 2 * np.arange(8) % 8  # anchor index of 2*phi

# Rows per block of the closed form; bounds its complex temporaries.
_BLOCK = 2048
_CUBE_ROOTS_OF_UNITY = np.exp(2j * np.pi * np.arange(3) / 3)[:, None]


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
    ).T


def _anchor(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Anchor phi (M,) of each row and the stationarity rows (M, 5) of the
    rotated subproblem a e^{2j phi}, b e^{j phi}.

    phi = k*pi/4 maximizes |p4| = |2 Im(a e^{2j phi}) + Im(b e^{j phi})|, on real
    (8, M) tables (complex ones double the temporaries); the row is then rotated
    by _ROT. Elementwise only, so a row's result does not depend on its batch.
    """
    cos, sin = _COS[:, None], _SIN[:, None]  # anchors down axis 0, rows along axis 1
    p4 = 2.0 * (a.imag * cos[_DOUBLE] + a.real * sin[_DOUBLE]) + b.imag * cos + b.real * sin
    k = np.argmax(np.abs(p4), axis=0)
    return k * (np.pi / 4), quartic_coeffs_batch(a * _ROT[_DOUBLE[k]], b * _ROT[k])


def _ferrari(cols: np.ndarray) -> np.ndarray:
    """Real parts (4, M) of the four roots of each column of cols (5, M), all with cols[0] != 0."""
    flip = np.abs(cols[4]) > np.abs(cols[0])
    lead, a3, a2, a1, a0 = np.where(flip, cols[::-1], cols)
    a3, a2, a1, a0 = a3 / lead, a2 / lead, a1 / lead, a0 / lead
    # depressed quartic y^4 + p y^2 + q y + r with x = y - a3/4
    p = a2 - 0.375 * a3 * a3
    q = a1 - 0.5 * a3 * (a2 - 0.25 * a3 * a3)
    r = a0 - 0.25 * a3 * (a1 - a3 * (a2 - 0.1875 * a3 * a3) / 4.0)
    # resolvent m^3 + p m^2 + (p^2/4 - r) m - q^2/8 = 0 by Cardano on m = t - p/3; its
    # root of largest |m| is the one that keeps s = sqrt(2m) away from zero
    cp = -p * p / 12.0 - r
    cq = -p * p * p / 108.0 + p * r / 3.0 - q * q / 8.0
    w = np.sqrt(cq * cq / 4.0 + cp * cp * cp / 27.0 + 0j)
    u = (np.where(cq * w.real > 0.0, -w, w) - cq / 2.0) ** (1.0 / 3.0) * _CUBE_ROOTS_OF_UNITY
    m = u - cp / 3.0 / np.where(u == 0.0, 1.0, u) - p / 3.0
    m = np.choose(np.argmax(np.abs(m), axis=0), m)
    # (y^2 + p/2 + m)^2 = (s y - q/(2s))^2 splits into y^2 + b y + p/2 + m - q/(2b), b = +-s;
    # s = 0 leaves q = 0 but for rounding. Each takes its larger root without cancellation.
    b = np.sqrt(2.0 * m) * [[1.0], [-1.0]]
    c = p / 2.0 + m - q / (2.0 * np.where(b == 0.0, 1.0, b))
    d = np.sqrt(b * b - 4.0 * c)
    y = -0.5 * (b + np.where(b.real * d.real + b.imag * d.imag < 0.0, -d, d))
    x = np.concatenate([y, c / np.where(y == 0.0, 1.0, y)]) - a3 / 4.0
    x[:, flip] = 1.0 / np.where(x[:, flip] == 0.0, np.finfo(float).tiny, x[:, flip])
    return x.real


def _real_roots_batch(coeffs: np.ndarray) -> np.ndarray:
    """Candidate betas: the real parts of all four roots of each row, an (M, 4) view of (4, M).

    Ferrari's closed form in complex arithmetic on columns, in blocks of _BLOCK
    rows so the temporaries stay a fraction of the output. A row with |p0| > |p4| is
    solved reversed, for 1/beta, keeping its large roots accurate. Accuracy is
    guaranteed on anchored rows (|p4| >= max|p_i|/9), the only ones that
    minimize_batch sends: each real root has a candidate on it, the rest are
    real parts of complex roots, scored like any other angle. Roots spread
    over many decades lose the moderate ones (np.poly([1e-6, 1, 2, 1e6])
    gives -1.13 and 0.46 for 1 and 2); coefficients past about 1e77 |p4|
    overflow to NaN. A row with a zero leading coefficient is all-NaN.
    """
    cols = np.asarray(coeffs, dtype=float).T
    quartic = cols[0] != 0.0
    out = np.empty((4, cols.shape[1]))
    for lo in range(0, cols.shape[1], _BLOCK):
        block = np.where(quartic[lo : lo + _BLOCK], cols[:, lo : lo + _BLOCK], 1.0)
        out[:, lo : lo + _BLOCK] = _ferrari(block)  # all-ones columns stand in for the zero-led
    out[:, ~quartic] = np.nan
    return out.T


def minimize_batch(a, b) -> np.ndarray:
    """Global minimizers of Re(a_q e^{2j theta} - b_q e^{j theta}) on [0, 2*pi), per row.

    Candidates are theta = phi + 2*arctan(beta) over the row's anchor phi and
    the four candidate betas of _real_roots_batch, a superset of the
    stationary points, scored as (4, M) arrays; no separate theta = pi candidate.
    Ties within 1e-12 * min(1, |a| + |b|) objective go to the smallest theta. Above
    |a| + |b| = 1 that gap is an absolute 1e-12, so a tie whose two values
    differ only by rounding may go to either minimizer. A row is constant
    exactly when its anchored leading coefficient is 0, that is a = b = 0,
    and returns 0.0. a and b are finite scalars or 1-D arrays of one shape.
    """
    a = np.atleast_1d(np.asarray(a, dtype=np.complex128))
    b = np.atleast_1d(np.asarray(b, dtype=np.complex128))
    if a.ndim != 1 or a.shape != b.shape or not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError(f"a and b must be finite, 1-D of one shape, got {a.shape} and {b.shape}")
    phi, coeffs = _anchor(a, b)

    # phi + 2*arctan(beta) lies in (-pi, 3*pi). A hair-below-zero angle rounds
    # up to exactly 2*pi on the first fold and goes to 0 on the second.
    thetas = phi + 2.0 * np.arctan(_real_roots_batch(coeffs).T)
    thetas = np.where(thetas < 0.0, thetas + 2.0 * np.pi, thetas)
    thetas = np.where(thetas >= 2.0 * np.pi, thetas - 2.0 * np.pi, thetas)

    f = (a.real * np.cos(2.0 * thetas) - a.imag * np.sin(2.0 * thetas)
         - b.real * np.cos(thetas) + b.imag * np.sin(thetas))
    tied = f <= np.min(f, axis=0) + _TIE_GAP * np.minimum(1.0, np.abs(a) + np.abs(b))
    theta = np.min(np.where(tied, thetas, np.inf), axis=0)
    return np.where(coeffs[:, 0] == 0.0, 0.0, theta)


def minimize_single(a: complex, b: complex) -> float:
    """Minimizer theta* in [0, 2*pi) of Re(a e^{2j theta} - b e^{j theta}).

    For a = b = 0 the objective is constant and 0.0 is returned (smallest
    theta under the tie-break rule).
    """
    return float(minimize_batch(np.array([a]), np.array([b]))[0])
