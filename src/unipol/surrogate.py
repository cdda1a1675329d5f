"""Per-variable majorizer construction for the quartic spectral objective.

For the iterate xt, the separable majorizer of sum_p |X_p|^4 restricted to
variable q is (up to an additive constant) Re(a x^2 - b x) on |x| = 1, with

    alpha_p(q) = xt[q] - c_p e^{j omega_p q},   c_p = X_p / N,
    a(q) = sum_p 2 conj(alpha_p)^2,
    b(q) = sum_p 4 conj(alpha_p) (1 + |alpha_p|^2),

on the 2N-point grid omega_p = pi p / N. Two routes compute every (a(q), b(q)):

* `ab_all_fast`, the solver's route, expands the p-sums into one forward
  transform of length 2N and two inverse ones, of lengths 2N and N (the
  e^{2j omega_p q} terms alias onto a length-N subgrid), O(N log N) total;
* `ab_all_direct` builds every alpha_p(q) and sums over p, O(N^2) total. It is
  the one testing oracle, and `surrogate_value` builds the same alphas.
"""

from __future__ import annotations

import numpy as np

from unipol.metrics import as_values, spectrum_2n

__all__ = [
    "ab_all_direct",
    "ab_all_fast",
    "surrogate_value",
]


# Variables per block of the O(N^2) direct route; bounds its (rows, 2N) temporaries.
_CHUNK = 256


def _alphas(v: np.ndarray, q: np.ndarray) -> np.ndarray:
    """alpha_p(q) for the variables q (rows) on the 2N-point grid (columns).

    Generally |alpha_p| != 1. Shared by both direct oracles, so they build the
    same alpha values bit for bit.
    """
    n = v.size
    c = spectrum_2n(v) / n
    omega = np.pi * np.arange(2 * n) / n
    return v[q, None] - c[None, :] * np.exp(1j * np.outer(q, omega))


def ab_all_direct(xt) -> tuple[np.ndarray, np.ndarray]:
    """(a(q), b(q)) for every q by the direct p-sums, in blocks of variables.

    O(N^2) total; the testing oracle for ab_all_fast.
    """
    v = as_values(xt)
    n = v.size
    a = np.empty(n, dtype=np.complex128)
    b = np.empty(n, dtype=np.complex128)
    for start in range(0, n, _CHUNK):
        q = np.arange(start, min(start + _CHUNK, n))
        alphas = _alphas(v, q)
        ac = np.conj(alphas)
        a[q] = 2.0 * np.sum(ac * ac, axis=1)
        b[q] = 4.0 * np.sum(ac * (1.0 + np.abs(alphas) ** 2), axis=1)
    return a, b


def ab_all_fast(xt) -> tuple[np.ndarray, np.ndarray]:
    """(a(q), b(q)) for every q in O(N log N) via transforms.

    Expanding the p-sums with alpha_p(q) = xt[q] - c_p e^{j omega_p q} leaves
    three kinds of q-dependent sums. The first, sum_p c_p e^{j omega_p q},
    is exactly 2 xt[q]: c is the zero-padded forward transform of xt over N,
    and the inverse transform undoes it. The other two take one inverse
    transform each:

        S3[q] = sum_p |c_p|^2 c_p  e^{j omega_p q}     (length 2N)
        T2[q] = sum_p c_p^2        e^{2j omega_p q}    (aliases to length N)

    giving, with u = xt[q] and P0 = sum_p |c_p|^2 (|u| carried exactly rather
    than assumed 1, so the identity holds for any xt):

        a(q)/2 = 2(N-2) conj(u)^2 + conj(T2)
        b(q)/4 = conj(u) (2N(1+|u|^2) + 2 P0 - 2 - 6|u|^2) - conj(S3) + u conj(T2)
    """
    v = as_values(xt)
    n = v.size
    c = spectrum_2n(xt) / n
    cmag2 = np.abs(c) ** 2
    s3 = (2 * n * np.fft.ifft(cmag2 * c))[:n]
    c2 = c * c
    t2 = n * np.fft.ifft(c2[:n] + c2[n:])
    p0 = np.sum(cmag2)

    uc = np.conj(v)
    umag2 = np.abs(v) ** 2
    t2c = np.conj(t2)
    a = 2.0 * (2.0 * (n - 2) * uc * uc + t2c)
    b = 4.0 * (
        uc * (2.0 * n * (1.0 + umag2) + 2.0 * p0 - 2.0 - 6.0 * umag2) - np.conj(s3) + v * t2c
    )
    return a, b


def surrogate_value(x, xt) -> float:
    """Joint majorizer value u(x | xt) of the quartic spectral objective.

    u(x|xt) = N^3 sum_p sum_n |x_n - alpha_p(n)|^4; it touches isl_quartic at
    x = xt and dominates it everywhere on the unimodular set. Direct (N x 2N)
    evaluation, intended for verification rather than inner loops.
    """
    xv = as_values(x)
    tv = as_values(xt)
    if xv.size != tv.size:
        raise ValueError(f"length mismatch: {xv.size} vs {tv.size}")
    alphas = _alphas(tv, np.arange(tv.size))
    diff2 = np.abs(xv[:, None] - alphas) ** 2
    return float(tv.size**3 * np.sum(diff2 * diff2))
