"""Sequence types and exact sidelobe metrics.

Aperiodic autocorrelation, integrated/peak sidelobe levels, merit factor,
and the 2N-point spectrum (the package's one forward FFT) behind the identities:

    isl_freq(x)    = (1/4N) * sum_p (|X_p|^2 - N)^2 = isl_time(x)
    isl_quartic(x) = sum_p |X_p|^4 = 4N * isl_time(x) + 2N^3

with X_p the zero-padded 2N-point transform of x, for unimodular x. (The
1/4N normalizer follows from |X_p|^2 - N = sum_{k != 0} r_k e^{-j omega_p k}
and grid orthogonality, which yields 2N * sum_{k != 0} |r_k|^2 = 4N * ISL
for the one-sided ISL used throughout.)

A UnimodularSequence is built with its spectrum: spectrum_2n, and every
metric built on it (isl_freq, which is the ISL a run records, and
isl_quartic), reads that one read-only copy, which the frozen values keep
current. An array argument gets a fresh, writable spectrum each call. The
lag-domain metrics (isl_time, psl, merit_factor, sidelobe_db) each compute
their own autocorrelation: for N > 64 that is one inverse FFT of the kept
spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "UnimodularSequence",
    "as_values",
    "phase_of",
    "unit_of",
    "autocorrelation",
    "isl_time",
    "isl_freq",
    "isl_quartic",
    "psl",
    "merit_factor",
    "spectrum_2n",
    "sidelobe_db",
]

# Element moduli must sit within this distance of 1.
UNIT_MODULUS_TOL = 1e-12

# Direct O(N^2) autocorrelation below this length keeps small-N anchors bit-stable.
_FFT_THRESHOLD = 64

# The smallest normal double: unit_of sends any modulus below it to its fallback.
_TINY = np.finfo(float).tiny


@dataclass(frozen=True, eq=False)
class UnimodularSequence:
    """A length-N complex sequence with every element on the unit circle.

    Values (anything as_values accepts) are copied and frozen at
    construction, and their read-only 2N-point spectrum is computed with
    them; instances are immutable and safe to share across threads.
    Sequences compare and hash by identity, at every N; to compare two
    designs, use np.array_equal(a.values, b.values).
    """

    values: np.ndarray
    _spectrum: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        arr = np.array(as_values(self.values))
        dev = float(np.max(np.abs(np.abs(arr) - 1.0)))
        if not dev <= UNIT_MODULUS_TOL:  # also rejects NaN elements
            raise ValueError(f"element modulus deviates from 1 by {dev:.3e}")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)
        spec = spectrum_2n(arr)
        spec.flags.writeable = False
        object.__setattr__(self, "_spectrum", spec)

    @classmethod
    def from_phases(cls, phases) -> "UnimodularSequence":
        """Build e^{j*theta_n} from an array of phases (radians)."""
        return cls(np.exp(1j * np.asarray(phases, dtype=float)))

    @property
    def phases(self) -> np.ndarray:
        """Element phases wrapped to [0, 2*pi)."""
        return phase_of(self.values)

    def __len__(self) -> int:
        return self.values.size


def phase_of(z) -> np.ndarray:
    """arg z folded to [0, 2*pi); a hair-below-zero angle that rounds up to 2*pi goes to 0."""
    theta = np.mod(np.angle(z), 2.0 * np.pi)
    return np.where(theta >= 2.0 * np.pi, 0.0, theta)


def unit_of(z, fallback=1.0) -> np.ndarray:
    """z / |z| elementwise for an array z, or fallback (element by element if an array)
    where |z| is below the smallest normal double, 0 included: dividing there could overflow."""
    z = np.asarray(z, dtype=np.complex128)
    m = np.abs(z)
    small = m < _TINY
    m[small] = 1.0  # a masked divide (where=) costs about 40% more than a plain one
    unit = z / m
    np.copyto(unit, fallback, where=small)
    return unit


def as_values(x) -> np.ndarray:
    """Coerce a sequence-like (UnimodularSequence or array-like) to a 1-D complex array."""
    if isinstance(x, UnimodularSequence):
        return x.values
    arr = np.asarray(x, dtype=np.complex128)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D sequence, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError("empty sequence")
    return arr


def autocorrelation(x) -> np.ndarray:
    """Aperiodic autocorrelation at nonnegative lags.

    Returns r with r[k] = sum_n x[n+k] * conj(x[n]) for k = 0..N-1; negative
    lags follow by conjugate symmetry. Uses direct summation for N <= 64 and
    zero-padded 2N-point transforms above (the forward one kept on a
    UnimodularSequence). Each call returns a fresh, writable array.
    """
    v = as_values(x)
    n = v.size
    if n <= _FFT_THRESHOLD:
        return np.correlate(v, v, mode="full")[n - 1 :]
    spec = spectrum_2n(x)
    return np.fft.ifft(spec * np.conj(spec))[:n]


def isl_time(x) -> float:
    """Integrated sidelobe level sum_{k>=1} |r_k|^2 from the lag-domain autocorrelation."""
    r = autocorrelation(x)
    return float(np.sum(np.abs(r[1:]) ** 2))


def isl_freq(x) -> float:
    """Integrated sidelobe level from the 2N-point spectrum (Parseval route).

    0.0 for N = 1: no sidelobes, though |x_0|^2 may round off 1 and leave ~1e-32.
    """
    power = np.abs(spectrum_2n(x)) ** 2
    n = power.size // 2
    if n == 1:
        return 0.0
    return float(np.sum((power - n) ** 2) / (4 * n))


def isl_quartic(x) -> float:
    """Fourth-power spectral sum  sum_p |X_p|^4.

    For unimodular x this equals 4N*isl_time(x) + 2N^3, so minimizing it
    minimizes the ISL; it is the objective the per-iteration majorizer bounds.
    """
    power = np.abs(spectrum_2n(x)) ** 2
    return float(np.sum(power**2))


def psl(x) -> float:
    """Peak sidelobe level max_{k>=1} |r_k| (0.0 for N = 1: no sidelobes)."""
    r = autocorrelation(x)
    return float(np.max(np.abs(r[1:]), initial=0.0))


def merit_factor(x) -> float:
    """Merit factor N^2 / (2 * ISL); +inf sentinel when ISL is exactly 0.

    Raises ValueError for N = 1 where the quantity is undefined.
    """
    v = as_values(x)
    n = v.size
    if n < 2:
        raise ValueError("merit factor is undefined for length-1 sequences")
    isl = isl_time(x)
    if isl == 0.0:
        return math.inf
    return n * n / (2.0 * isl)


def spectrum_2n(x) -> np.ndarray:
    """Zero-padded 2N-point transform X_p = sum_n x_n e^{-j*omega_p*n}, p = 0..2N-1.

    The grid is omega_p = 2*pi*p / (2N). Sequence indexing is 0-based; a
    1-based convention would only rotate each bin by a unit-modulus factor,
    leaving |X_p| and every ISL-type sum unchanged. A UnimodularSequence
    returns the read-only array it was built with; any other input gets a
    fresh, writable transform.
    """
    if isinstance(x, UnimodularSequence):
        return x._spectrum
    v = as_values(x)
    return np.fft.fft(v, 2 * v.size)


def sidelobe_db(x) -> np.ndarray:
    """Normalized correlation levels 20*log10(|r_k| / N) for k = 0..N-1.

    Lags with exactly zero correlation map to -inf.
    """
    v = as_values(x)
    mags = np.abs(autocorrelation(x)) / v.size
    with np.errstate(divide="ignore"):
        return 20.0 * np.log10(mags)
