"""Unit-circle minimizer tests: the secular-equation kernel, and the paper's
stationarity-quartic route kept here as its oracle (coefficient map, anchor
rotation and companion-matrix roots)."""

import tracemalloc

import numpy as np
import pytest

import unipol.quartic as quartic
from unipol.metrics import phase_of
from unipol.quartic import minimize_batch
from unipol.solver import init_random, unipol_step
from unipol.surrogate import ab_all_fast

# Objective slack, times min(1, |a| + |b|), that the grid and triple-point bounds allow.
_TIE_GAP = 1e-12


def theta_of(a, b):
    """Angles theta = metrics.phase_of(z) in [0, 2 pi) of minimize_batch's unit minimizers z."""
    return phase_of(minimize_batch(a, b))


def objective(a, b, theta):
    return (a * np.exp(2j * theta) - b * np.exp(1j * theta)).real


# The oracle: f(theta) = Re(a e^{2j theta} - b e^{j theta}) is stationary where,
# with beta = tan(theta/2), p4 b^4 + p3 b^3 + p2 b^2 + p1 b + p0 = 0 (rows of
# quartic_coeffs_batch). The substitution cannot reach theta = pi, so each row is
# rotated by the anchor phi in {k pi/4} with the largest |p4|; then every real
# root is a candidate theta = phi + 2 arctan(beta), scored on the objective.


def quartic_coeffs_batch(a, b):
    """Stationarity-polynomial rows [p4, p3, p2, p1, p0] (M, 5) for complex arrays a, b (M,)."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    return np.stack([2.0 * ai + bi, -8.0 * ar - 2.0 * br, -12.0 * ai, 8.0 * ar - 2.0 * br, 2.0 * ai - bi]).T


# e^{j k pi/4} for the anchors k = 0..7, exact where cos or sin is 0 or +-1
_COS = np.array([1.0, np.sqrt(0.5), 0.0, -np.sqrt(0.5), -1.0, -np.sqrt(0.5), 0.0, np.sqrt(0.5)])
_ROT = _COS + 1j * np.roll(_COS, 2)
_DOUBLE = 2 * np.arange(8) % 8  # anchor index of 2*phi


def anchor(a, b):
    """Anchor phi (M,) of each row and the stationarity rows (M, 5) of the
    rotated subproblem a e^{2j phi}, b e^{j phi}, phi = k pi/4 maximizing |p4|."""
    p4 = (2.0 * a * _ROT[_DOUBLE, None] + b * _ROT[:, None]).imag
    k = np.argmax(np.abs(p4), axis=0)
    return k * (np.pi / 4), quartic_coeffs_batch(a * _ROT[_DOUBLE[k]], b * _ROT[k])


def eig_candidates(coeffs):
    """The real parts of the four eigenvalues of each row's 4x4 companion matrix;
    an all-NaN row where the leading coefficient is zero."""
    coeffs = np.asarray(coeffs, dtype=float)
    leading = coeffs[:, 0] != 0.0
    comp = np.zeros((coeffs.shape[0], 4, 4))
    comp[:, 0, :] = -coeffs[:, 1:] / np.where(leading, coeffs[:, 0], 1.0)[:, None]
    comp[:, [1, 2, 3], [0, 1, 2]] = 1.0
    return np.where(leading[:, None], np.linalg.eigvals(comp).real, np.nan)


def quartic_minimize(a, b, tie_gap=_TIE_GAP):
    """The quartic route's minimizer theta (M,) in [0, 2 pi): anchored eig
    candidates scored on the objective, ties within tie_gap * min(1, |a| + |b|)
    to the smallest theta, 0.0 for a = b = 0."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    phi, coeffs = anchor(a, b)
    thetas = np.mod(phi[:, None] + 2.0 * np.arctan(eig_candidates(coeffs)), 2 * np.pi)
    thetas = np.where(thetas >= 2 * np.pi, 0.0, thetas)
    f = objective(a[:, None], b[:, None], thetas)
    tied = f <= np.min(f, axis=1, keepdims=True) + tie_gap * np.minimum(1.0, np.abs(a) + np.abs(b))[:, None]
    theta = np.min(np.where(tied, thetas, np.inf), axis=1)
    return np.where(coeffs[:, 0] == 0.0, 0.0, theta)


def candidates(coeffs):
    """Candidate betas of one coefficient row through the oracle's roots, sorted."""
    return np.sort(eig_candidates(np.asarray([coeffs], dtype=float))[0])


class TestQuarticCoeffs:
    def test_pure_negative_real_b(self):
        assert np.array_equal(quartic_coeffs_batch([0], [-1])[0], [0.0, 2.0, 0.0, 2.0, 0.0])

    def test_pure_imaginary_a(self):
        assert np.array_equal(quartic_coeffs_batch([1j], [0])[0], [2.0, 0.0, -12.0, 0.0, 2.0])

    def test_pure_real_a(self):
        assert np.array_equal(quartic_coeffs_batch([1], [0])[0], [0.0, -8.0, 0.0, 8.0, 0.0])


class TestSolveQuarticReal:
    """The oracle's candidate betas (real parts of all four roots) of single
    rows and of random batches."""

    def test_biquadratic(self):
        # roots +-1 and +-1j; the complex pair contributes its real part 0 twice
        assert np.allclose(candidates([1, 0, 0, 0, -1]), [-1.0, 0.0, 0.0, 1.0], atol=1e-12)

    def test_deflated_cubic(self):
        # no deflation: a row whose leading coefficient is zero comes back all-NaN
        assert np.all(np.isnan(eig_candidates(np.array([[0.0, 2.0, 0.0, 2.0, 0.0]]))))

    def test_double_root_collapsed(self):
        # oracle: expand (b - 2)^2 (b^2 + 1); both slots of the double root land
        # on 2, and the pair +-1j gives 0 twice
        coeffs = np.polymul(np.polymul([1, -2], [1, -2]), [1, 0, 1])
        assert np.array_equal(coeffs, [1, -4, 5, -4, 4])
        assert np.all(np.abs(candidates(coeffs) - [0.0, 0.0, 2.0, 2.0]) <= 1e-6)

    def test_all_zero_signals(self):
        # every theta is stationary; the row comes back all-NaN
        assert np.all(np.isnan(eig_candidates(np.zeros((1, 5)))))

    def test_residual_contract_random(self):
        rng = np.random.default_rng(1)
        c = rng.uniform(-10, 10, size=(2000, 5))
        got = np.sort(eig_candidates(c), axis=1)
        oracle = np.array([np.sort(np.roots(row).real) for row in c])
        assert np.all(np.abs(got - oracle) <= 1e-8 * (1.0 + np.abs(oracle)))

    def test_sign_change_bracketing(self):
        # every sign change of p on the wide grid must have a reported root
        # inside (or at the edge of) the bracket; reduced-size sample of the
        # full property for CI speed
        rng = np.random.default_rng(7)
        grid = np.linspace(-1e3, 1e3, 10_000)
        trials = 20_000
        coeffs = rng.uniform(-10, 10, size=(trials, 5))
        all_roots = eig_candidates(coeffs)
        spacing = grid[1] - grid[0]
        checked = 0
        for c, roots in zip(coeffs, all_roots):
            vals = np.polyval(c, grid)
            flips = np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)
            for j in flips:
                lo, hi = grid[j] - 1e-9 * spacing, grid[j + 1] + 1e-9 * spacing
                assert np.any((roots >= lo) & (roots <= hi)), (
                    f"sign change in [{grid[j]}, {grid[j+1]}] missed; coeffs {c}, roots {roots}"
                )
                checked += 1
        assert checked > 10_000  # the sample actually exercised the property


class TestRootGate:
    def test_every_finite_root_meets_its_row_bound(self):
        # (beta - r)^2 (beta^2 + e) puts a complex pair next to a double real
        # root; the double root may split into a complex pair, whose real part
        # must still land on r. Uniform rows share the batch.
        rng = np.random.default_rng(50)
        r = rng.uniform(-5, 5, size=3000)
        e = 10.0 ** rng.uniform(-16, -6, size=r.size)
        near_double = [np.polymul(np.polymul([1, -ri], [1, -ri]), [1, 0, ei]) for ri, ei in zip(r, e)]
        coeffs = np.vstack([near_double, rng.uniform(-10, 10, size=(3000, 5))])
        betas = eig_candidates(coeffs)
        assert np.all(np.isfinite(betas))
        miss = np.min(np.abs(betas[: r.size] - r[:, None]), axis=1)
        assert np.all(miss <= 1e-6), float(np.max(miss))


class TestSingleRows:
    """minimize_batch on one row at a time: hand-picked rows, tiny rows,
    stationarity, a dense grid and the range of theta."""

    def test_positive_real_b(self):
        assert theta_of(0, 2)[0] == pytest.approx(0.0, abs=1e-12)

    def test_negative_real_b_points_to_pi(self):
        # with a = 0 the minimizer points along conj(b), here z = -1 and theta = pi
        theta = theta_of(0, -2)[0]
        assert theta == pytest.approx(np.pi, abs=1e-12)
        assert objective(0, -2, theta) < objective(0, -2, 0.0)

    def test_real_a_tie_breaks_to_smallest(self):
        # cos(2 theta) minimized at pi/2 and 3pi/2; smallest wins
        assert theta_of(1, 0)[0] == pytest.approx(np.pi / 2, abs=1e-12)

    def test_constant_objective_returns_zero(self):
        assert theta_of(0, 0)[0] == 0.0

    @pytest.mark.parametrize(
        "a, b, expected",
        [
            (0, -3e-14, np.pi),  # 0.0 would be the maximizer
            (1e-15, 0, np.pi / 2),
            (0, 1e-13j, 3 * np.pi / 2),
            (5e-324, 0, np.pi / 2),
            (0, -5e-324, np.pi),
        ],
    )
    def test_tiny_rows_are_not_constant(self, a, b, expected):
        # only a = b = 0 is constant, however small the row
        assert theta_of(a, b)[0] == pytest.approx(expected, abs=1e-12)

    def test_stationarity_of_root_candidates(self):
        rng = np.random.default_rng(3)
        h = 1e-6
        for _ in range(500):
            a = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
            b = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
            theta = theta_of(a, b)[0]
            deriv = (objective(a, b, theta + h) - objective(a, b, theta - h)) / (2 * h)
            assert abs(deriv) <= 1e-6 * (abs(a) + abs(b) + 1)

    def test_grid_optimality_sample(self):
        rng = np.random.default_rng(9)
        grid = np.linspace(0.0, 2 * np.pi, 1_000_001)[:-1]
        cos_t, sin_t = np.cos(grid), np.sin(grid)
        cos_2t, sin_2t = np.cos(2 * grid), np.sin(2 * grid)
        for _ in range(200):
            a = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
            b = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
            theta = theta_of(a, b)[0]
            grid_best = np.min(
                a.real * cos_2t - a.imag * sin_2t - b.real * cos_t + b.imag * sin_t
            )
            assert objective(a, b, theta) <= grid_best + 1e-9

    def test_range(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            a = complex(rng.normal(), rng.normal())
            b = complex(rng.normal(), rng.normal())
            theta = theta_of(a, b)[0]
            assert 0.0 <= theta < 2 * np.pi


class TestMinimizeBatch:
    def test_matches_single(self):
        rng = np.random.default_rng(13)
        a = rng.normal(size=50) + 1j * rng.normal(size=50)
        b = rng.normal(size=50) + 1j * rng.normal(size=50)
        batch = theta_of(a, b)
        singles = np.array([theta_of(ai, bi)[0] for ai, bi in zip(a, b)])
        assert np.array_equal(batch, singles)

    @pytest.mark.parametrize(
        "a, b",
        [(np.ones(3), np.ones(1)), (np.ones(1), np.ones(3)), (np.ones((2, 2)), np.ones((2, 2))),
         (np.ones(4), np.ones((2, 2)))],
    )
    def test_rejects_unpaired_rows(self, a, b):
        with pytest.raises(ValueError, match="1-D of one shape"):
            minimize_batch(a, b)

    @pytest.mark.parametrize(
        "a, b",
        [([np.nan, 1.0], [1.0, np.inf]), ([np.nan], [0.0]), ([1.0], [-np.inf]),
         ([complex(1.0, np.nan)], [1.0]), (np.inf, 0.0)],
    )
    def test_rejects_non_finite_rows(self, a, b):
        with pytest.raises(ValueError, match="finite"):
            minimize_batch(np.asarray(a), np.asarray(b))

    def test_scalar_rows(self):
        theta = theta_of(1.0 + 0j, 0.0)
        assert theta.shape == (1,)
        assert theta[0] == theta_of([1.0 + 0j], [0.0])[0]

    def test_degenerate_rows_use_fallback(self):
        a = np.array([0.0 + 0j, 1.0 + 0j])
        b = np.array([0.0 + 0j, 0.0 + 0j])
        theta = theta_of(a, b)
        assert theta[0] == 0.0
        assert theta[1] == pytest.approx(np.pi / 2, abs=1e-12)


class TestDegenerateStationarityRows:
    """Rows whose stationarity polynomial loses its leading terms, or whose
    minimum is a multiple stationary point, checked on a dense theta grid.
    The secular route meets them as hard-case or near-hard-case rows."""

    GRID = np.linspace(0.0, 2 * np.pi, 200_001)[:-1]
    CHUNK = 16  # rows per grid evaluation; bounds the (rows, grid) temporaries

    def grid_excess(self, a, b):
        """Objective at minimize_batch's theta minus the grid minimum, per row."""
        theta = theta_of(a, b)
        assert np.all((theta >= 0.0) & (theta < 2 * np.pi))
        got = objective(a, b, theta)
        cos_t, sin_t = np.cos(self.GRID), np.sin(self.GRID)
        cos_2t, sin_2t = np.cos(2 * self.GRID), np.sin(2 * self.GRID)
        grid_best = np.empty(a.size)
        for lo in range(0, a.size, self.CHUNK):
            ca, cb = a[lo : lo + self.CHUNK, None], b[lo : lo + self.CHUNK, None]
            f = ca.real * cos_2t - ca.imag * sin_2t - cb.real * cos_t + cb.imag * sin_t
            grid_best[lo : lo + self.CHUNK] = f.min(axis=1)
        return got - grid_best

    def assert_grid_optimal(self, a, b):
        excess = self.grid_excess(a, b)
        scale = np.abs(a) + np.abs(b)
        # _TIE_GAP of slack, plus rounding that grows with the row's scale
        assert np.all(excess <= _TIE_GAP + 1e-13 * scale), float(np.max(excess))

    @staticmethod
    def degree_two_rows(rng, m):
        # 2*aI + bI = 0 and 8*aR + 2*bR = 0 hold exactly: b = -4*aR - 2j*aI
        a = rng.normal(size=m) + 1j * rng.normal(size=m)
        return a, -4.0 * a.real - 2j * a.imag

    @staticmethod
    def degree_one_rows(rng, m):
        # aI = bI = 0 and bR = -4*aR: only p1 = 16*aR survives
        a = rng.normal(size=m) + 0j
        return a, -4.0 * a

    def test_exact_degree_two(self):
        a, b = self.degree_two_rows(np.random.default_rng(40), 300)
        coeffs = quartic_coeffs_batch(a, b)
        assert np.all(coeffs[:, :2] == 0.0) and np.all(coeffs[:, 2] != 0.0)
        self.assert_grid_optimal(a, b)

    def test_exact_degree_one(self):
        a, b = self.degree_one_rows(np.random.default_rng(41), 300)
        coeffs = quartic_coeffs_batch(a, b)
        assert np.all(coeffs[:, [0, 1, 2, 4]] == 0.0) and np.all(coeffs[:, 3] != 0.0)
        self.assert_grid_optimal(a, b)

    @pytest.mark.parametrize("build", ["degree_two_rows", "degree_one_rows"])
    def test_perturbed_degenerations(self, build):
        rng = np.random.default_rng(42)
        a, b = getattr(self, build)(rng, 400)
        eps = 10.0 ** rng.uniform(-14, -6, size=a.size)
        kick = rng.normal(size=(4, a.size))
        a = a + eps * (kick[0] + 1j * kick[1])
        b = b + eps * (kick[2] + 1j * kick[3])
        self.assert_grid_optimal(a, b)

    @pytest.mark.parametrize("build", ["degree_two_rows", "degree_one_rows"])
    def test_perturbed_degenerations_below_unit_scale(self, build):
        # the excess is taken relative to |a| + |b| < 1, so an absolute 1e-12
        # cannot hide a worse minimizer on a small row
        rng = np.random.default_rng(45)
        a, b = getattr(self, build)(rng, 400)
        eps = 10.0 ** rng.uniform(-14, -6, size=a.size)
        kick = rng.normal(size=(4, a.size))
        a = a + eps * (kick[0] + 1j * kick[1])
        b = b + eps * (kick[2] + 1j * kick[3])
        shrink = 10.0 ** rng.uniform(-9, -1, size=a.size)
        a, b = shrink * a, shrink * b
        scale = np.abs(a) + np.abs(b)
        rel = self.grid_excess(a, b) / scale
        assert np.all(rel <= _TIE_GAP + 1e-13), float(np.max(rel))

    def test_rotated_triple_stationary_point(self):
        # a = r e^{2j gamma}, b = -4r e^{j gamma}: the minimum f* = -3r at
        # theta = pi - gamma is a triple stationary point
        rng = np.random.default_rng(2026)
        r = 10.0 ** rng.uniform(-3, 4, size=3000)
        gamma = 2 * np.pi * rng.random(r.size)
        a, b = r * np.exp(2j * gamma), -4.0 * r * np.exp(1j * gamma)
        excess = objective(a, b, theta_of(a, b)) + 3.0 * r
        scale = np.abs(a) + np.abs(b)
        bound = _TIE_GAP * np.minimum(1.0, scale) + 1e-13 * scale
        assert np.all(excess <= bound), int(np.sum(excess > bound))

    def test_magnitude_ratio_sweep(self):
        rng = np.random.default_rng(43)
        ratio = np.repeat(10.0 ** np.arange(-12, 13), 12)
        a = ratio * np.exp(2j * np.pi * rng.random(ratio.size))
        b = np.exp(2j * np.pi * rng.random(ratio.size))
        self.assert_grid_optimal(a, b)
        self.assert_grid_optimal(b, a)  # the same ratios with the roles swapped

    def test_mixed_degrees_in_one_batch(self):
        rng = np.random.default_rng(44)
        pieces = [self.degree_two_rows(rng, 20), self.degree_one_rows(rng, 20),
                  (rng.normal(size=20) + 1j * rng.normal(size=20),
                   rng.normal(size=20) + 1j * rng.normal(size=20))]
        a = np.concatenate([p[0] for p in pieces])
        b = np.concatenate([p[1] for p in pieces])
        batch = theta_of(a, b)
        singles = np.array([theta_of(ai, bi)[0] for ai, bi in zip(a, b)])
        assert np.array_equal(batch, singles)
        self.assert_grid_optimal(a, b)


class TestAgainstQuarticEigOracle:
    """minimize_batch against the quartic route it replaced, on the objective."""

    def assert_no_worse_than_eig(self, a, b):
        # With a zero tie gap the oracle returns its best candidate, so the
        # comparison sees the routes, not which side of the gap a near-tie falls on.
        got = objective(a, b, theta_of(a, b))
        ref = objective(a, b, quartic_minimize(a, b, tie_gap=0.0))
        excess = (got - ref) / (np.abs(a) + np.abs(b))
        assert np.all(excess <= 1e-15), float(np.max(excess))

    @pytest.mark.parametrize("n, steps", [(100, 5), (1000, 5), (16384, 2)])
    def test_solver_rows(self, n, steps):
        for seed in range(3):
            x = init_random(n, seed)
            for _ in range(steps):
                self.assert_no_worse_than_eig(*ab_all_fast(x))
                x = unipol_step(x)

    @staticmethod
    def family(name, rng, m=20_000):
        size = 10.0 ** rng.uniform(-9, 6, size=(2, m))
        phase = np.exp(2j * np.pi * rng.random((2, m)))
        a, b = size * phase
        r = 10.0 ** rng.uniform(-3, 4, size=m)
        gamma = 2 * np.pi * rng.random(m)
        eps = 10.0 ** rng.uniform(-14, -6, size=m) * r
        kick = eps * (rng.normal(size=(2, m)) + 1j * rng.normal(size=(2, m)))
        # the rows of test_rotated_triple_stationary_point: a triple stationary minimum
        triple = (r * np.exp(2j * gamma), -4.0 * r * np.exp(1j * gamma))
        return {
            "generic": (a, b),
            "triple": triple,
            "perturbed_triple": (triple[0] + kick[0], triple[1] + kick[1]),
            "a_zero": (np.zeros(m, dtype=complex), b),
            "b_zero": (a, np.zeros(m, dtype=complex)),
            "b_near_four_a": (a, 4.0 * np.abs(a) * (1.0 + 1e-3 * rng.normal(size=m)) * phase[1]),
        }[name]

    @pytest.mark.parametrize(
        "name", ["generic", "triple", "perturbed_triple", "a_zero", "b_zero", "b_near_four_a"]
    )
    def test_adversarial_families(self, name):
        self.assert_no_worse_than_eig(*self.family(name, np.random.default_rng(70)))


def long_double_polish(a, b, theta, steps=4):
    """theta after Newton steps on f'(theta) = 0 in np.longdouble."""
    ar, ai, br, bi = (np.asarray(v, dtype=np.longdouble) for v in (a.real, a.imag, b.real, b.imag))
    t = np.asarray(theta, dtype=np.longdouble)
    for _ in range(steps):
        d1 = -2 * ar * np.sin(2 * t) - 2 * ai * np.cos(2 * t) + br * np.sin(t) + bi * np.cos(t)
        d2 = -4 * ar * np.cos(2 * t) + 4 * ai * np.sin(2 * t) + br * np.cos(t) - bi * np.sin(t)
        t = t - d1 / d2
    return t


def triple_rows(rng, m):
    """a = r e^{2j gamma}, b = -4r e^{j gamma}: the rows of test_rotated_triple_stationary_point."""
    r = 10.0 ** rng.uniform(-3, 4, size=m)
    gamma = 2 * np.pi * rng.random(m)
    return r * np.exp(2j * gamma), -4.0 * r * np.exp(1j * gamma)


class TestSecularKernel:
    """Edge cases of the secular route: a = 0, b = 0, the exact hard case, slow
    rows next to a triple point, extreme scales, batches, memory and accuracy."""

    def test_a_zero_points_against_b(self):
        rng = np.random.default_rng(80)
        b = (rng.normal(size=200) + 1j * rng.normal(size=200)) * 10.0 ** rng.uniform(-300, 300, 200)
        theta = theta_of(np.zeros_like(b), b)
        assert np.all(np.abs(np.exp(1j * theta) - b.conj() / np.abs(b)) <= 1e-15)

    def test_a_below_the_normal_range_points_against_b(self):
        # |a| at 1e-310 |b| scales to a subnormal: its frame falls back to h = 1,
        # where dividing by the subnormal modulus gave NaN
        rng = np.random.default_rng(84)
        a, b = np.exp(2j * np.pi * rng.random((2, 200))) * 10.0 ** rng.uniform(-300, 300, 200)
        z = minimize_batch(1e-310 * a, b)
        assert np.all(np.abs(z - b.conj() / np.abs(b)) <= 1e-15)

    def test_b_zero_takes_the_smaller_of_two_minimizers(self):
        # |a| cos(2 theta + phi) is least at (pi - phi)/2 mod pi and pi past it
        rng = np.random.default_rng(81)
        phi = 2 * np.pi * rng.random(200)
        a = np.exp(1j * phi) * 10.0 ** rng.uniform(-300, 300, size=200)
        theta = theta_of(a, np.zeros_like(a))
        assert np.allclose(theta, np.mod((np.pi - phi) / 2, np.pi), rtol=0.0, atol=1e-12)

    def test_exact_hard_case_ties_to_the_smallest_theta(self):
        # q = 0 exactly and p < t: v = +-sqrt(1 - u^2) are both minimizers.
        # a > 0 with b real: theta = +-arccos(b/4a); a < 0 with b imaginary:
        # sin(theta) = -Im(b)/4|a|, at -arcsin(u) and pi + arcsin(u)
        rng = np.random.default_rng(82)
        size = 10.0 ** rng.uniform(-300, 300, size=300)
        ratio = rng.uniform(-4.0, 4.0, size=300)
        theta = theta_of(size + 0j, size * ratio + 0j)
        assert np.allclose(theta, np.arccos(ratio / 4), rtol=0.0, atol=1e-12)
        theta = theta_of(-size + 0j, 1j * size * ratio)
        u = np.arcsin(ratio / 4)
        assert np.allclose(theta, np.minimum(np.mod(-u, 2 * np.pi), np.pi + u), rtol=0.0, atol=1e-12)

    def test_triple_rows_converge_within_the_cap(self, monkeypatch):
        # next to a triple point (p = t, q ~ 1e-16 t) s rises by about 3/2 a step:
        # six steps leave these rows short, and every row stops by itself before
        # _NEWTON_CAP, so a larger cap changes no bit
        a, b = triple_rows(np.random.default_rng(2026), 3000)
        theta = theta_of(a, b)
        monkeypatch.setattr(quartic, "_NEWTON_CAP", 6)
        assert not np.array_equal(theta_of(a, b), theta)
        monkeypatch.setattr(quartic, "_NEWTON_CAP", 10_000)
        assert np.array_equal(theta_of(a, b), theta)

    def test_solver_rows_stop_within_four_steps(self, monkeypatch):
        # every solver batch stops rising within 4 Newton passes, the bound the
        # _NEWTON_CAP comment gives, so a cap of 4 changes no bit; one pass is short
        batches = []
        for n, steps in [(100, 5), (1000, 5), (16384, 2)]:
            for seed in range(3):
                x = init_random(n, seed)
                for _ in range(steps):
                    batches.append(ab_all_fast(x))
                    x = unipol_step(x)
        z = [minimize_batch(a, b) for a, b in batches]
        monkeypatch.setattr(quartic, "_NEWTON_CAP", 1)
        assert not all(np.array_equal(minimize_batch(a, b), zi) for (a, b), zi in zip(batches, z))
        monkeypatch.setattr(quartic, "_NEWTON_CAP", 4)
        for (a, b), zi in zip(batches, z):
            assert np.array_equal(minimize_batch(a, b), zi)

    def test_extreme_scales_change_no_bit(self):
        # a power-of-two scale is undone exactly, so rows at 5e-324 and near 1e300
        # give their unit-size twins' theta, with no warning (filterwarnings = error)
        rng = np.random.default_rng(83)
        k = rng.integers(-(2**20), 2**20, size=(4, 500)).astype(float)
        a, b = k[0] + 1j * k[1], k[2] + 1j * k[3]
        theta = theta_of(a, b)
        for scale in (2.0**-1074, 2.0**976):
            assert np.array_equal(theta_of(a * scale, b * scale), theta)
        lopsided = theta_of([5e-324, 1e300, 1e300j, 5e-324j], [1e300, 5e-324j, -5e-324, 1e300])
        assert np.all((lopsided >= 0.0) & (lopsided < 2 * np.pi))
        # a subnormal q next to a triple point is the hard case: Newton steps
        # from s = q would round to nothing 3.5e-3 rad short of theta = pi
        assert theta_of(1.0, -4.0 + 1e-320j)[0] == np.pi

    def test_slow_rows_leave_fast_rows_bitwise_alone(self):
        # a batch makes as many Newton passes as its slowest row needs, and a row
        # that stops rising is frozen in place; the s = 0 rows (exact hard-case
        # ties, constant rows, a subnormal start) go NaN inside every pass and are
        # never written. So fast rows solved beside slow triple rows, and s = 0 rows
        # beside both, keep the bits they have alone and as single rows
        rng = np.random.default_rng(71)
        a = rng.normal(size=300) + 1j * rng.normal(size=300)
        b = rng.normal(size=300) + 1j * rng.normal(size=300)
        slow_a, slow_b = triple_rows(rng, 300)
        tie_a, tie_b = adversarial_rows("hard_case_ties", rng)
        zero_a = np.concatenate([tie_a, np.zeros(3), [1.0]])
        zero_b = np.concatenate([tie_b, np.zeros(3), [-4.0 + 1e-320j]])
        m = 600 + zero_a.size
        order = rng.permutation(m)
        mixed = theta_of(np.concatenate([a, slow_a, zero_a])[order], np.concatenate([b, slow_b, zero_b])[order])
        theta = np.empty(m)
        theta[order] = mixed
        assert np.array_equal(theta[:300], theta_of(a, b))
        assert np.array_equal(theta[:50], [theta_of(ai, bi)[0] for ai, bi in zip(a[:50], b[:50])])
        assert np.array_equal(theta[600:], [theta_of(ai, bi)[0] for ai, bi in zip(zero_a, zero_b)])

    def test_traced_peak_holds_no_per_candidate_tables(self):
        # a few dozen row-length temporaries (29x the output here); one more
        # complex (8, M) table, like the quartic route's anchor scores, passes 40x
        rng = np.random.default_rng(72)
        m = 65_536
        a = rng.normal(size=m) + 1j * rng.normal(size=m)
        b = rng.normal(size=m) + 1j * rng.normal(size=m)
        tracemalloc.start()
        try:
            out = theta_of(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 40 * out.nbytes, peak / out.nbytes

    @pytest.mark.parametrize("n", [1000, 16384])
    def test_solver_rows_match_a_long_double_polish(self, n):
        # the quartic route was 2.9e-7 (N = 1000) and 3.0e-6 rad (N = 16384) away
        for seed in (0, 1):
            x = init_random(n, seed)
            for _ in range(3):
                a, b = ab_all_fast(x)
                theta = theta_of(a, b)
                gap = np.mod(theta - long_double_polish(a, b, theta) + np.pi, 2 * np.pi) - np.pi
                assert np.max(np.abs(gap)) <= 1e-10, float(np.max(np.abs(gap)))
                x = unipol_step(x)


def adversarial_rows(name, rng):
    """The row sets the tests above build, by name: the eig-oracle families,
    exact hard-case ties, degenerate and triple-point rows, constant rows and
    rows at subnormal or extreme scale."""
    if name in ("generic", "triple", "perturbed_triple", "a_zero", "b_zero", "b_near_four_a"):
        return TestAgainstQuarticEigOracle.family(name, rng, m=5000)
    if name == "degree_two":
        return TestDegenerateStationarityRows.degree_two_rows(rng, 500)
    if name == "degree_one":
        return TestDegenerateStationarityRows.degree_one_rows(rng, 500)
    if name == "near_triple":
        return triple_rows(rng, 3000)
    size = 10.0 ** rng.uniform(-300, 0, size=300)
    ratio = rng.uniform(-4.0, 4.0, size=300)
    if name == "hard_case_ties":
        return np.concatenate([size, -size]) + 0j, np.concatenate([size * ratio + 0j, 1j * size * ratio])
    if name == "constant":
        return np.zeros(3, dtype=complex), np.zeros(3, dtype=complex)
    k = rng.integers(-(2**20), 2**20, size=(4, 500)).astype(float)
    return {
        "subnormal": ((k[0] + 1j * k[1]) * 2.0**-1074, (k[2] + 1j * k[3]) * 2.0**-1074),
        "huge": ((k[0] + 1j * k[1]) * 2.0**976, (k[2] + 1j * k[3]) * 2.0**976),
        "lopsided": (np.array([5e-324, 1e300, 1e300j, 5e-324j, 1.0]),
                     np.array([1e300, 5e-324j, -5e-324, 1e300, -4.0 + 1e-320j])),
    }[name]


@pytest.mark.parametrize(
    "name",
    ["generic", "triple", "perturbed_triple", "a_zero", "b_zero", "b_near_four_a", "degree_two",
     "degree_one", "near_triple", "hard_case_ties", "constant", "subnormal", "huge", "lopsided"],
)
def test_minimize_batch_returns_unit_values(name):
    """minimize_batch returns unit values on every adversarial row set."""
    z = minimize_batch(*adversarial_rows(name, np.random.default_rng(90)))
    assert np.all(np.abs(np.abs(z) - 1.0) <= 1e-12), float(np.max(np.abs(np.abs(z) - 1.0)))
    if name == "constant":
        assert np.all(z == 1.0)
