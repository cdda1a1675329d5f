"""Stationarity-quartic tests: coefficient map, real roots, unit-circle minimizer."""

import numpy as np
import pytest

from unipol.quartic import (
    _TIE_GAP,
    _real_roots_batch,
    minimize_batch,
    minimize_single,
    quartic_coeffs_batch,
)


def objective(a, b, theta):
    return (a * np.exp(2j * theta) - b * np.exp(1j * theta)).real


def real_roots(coeffs):
    """Finite roots of one coefficient row through the batched route, sorted."""
    roots = _real_roots_batch(np.asarray([coeffs], dtype=float))[0]
    return np.sort(roots[~np.isnan(roots)])


class TestQuarticCoeffs:
    def test_pure_negative_real_b(self):
        assert np.array_equal(quartic_coeffs_batch([0], [-1])[0], [0.0, 2.0, 0.0, 2.0, 0.0])

    def test_pure_imaginary_a(self):
        assert np.array_equal(quartic_coeffs_batch([1j], [0])[0], [2.0, 0.0, -12.0, 0.0, 2.0])

    def test_pure_real_a(self):
        assert np.array_equal(quartic_coeffs_batch([1], [0])[0], [0.0, -8.0, 0.0, 8.0, 0.0])


class TestSolveQuarticReal:
    """Real roots of single rows and of random batches, all through _real_roots_batch."""

    def test_biquadratic(self):
        roots = real_roots([1, 0, 0, 0, -1])
        assert np.allclose(roots, [-1.0, 1.0], atol=1e-12)

    def test_deflated_cubic(self):
        # no deflation: a row whose leading coefficient is zero comes back all-NaN
        assert np.all(np.isnan(_real_roots_batch(np.array([[0.0, 2.0, 0.0, 2.0, 0.0]]))))

    def test_double_root_collapsed(self):
        # oracle: expand (b - 2)^2 (b^2 + 1); every slot the double root fills lands on 2
        coeffs = np.polymul(np.polymul([1, -2], [1, -2]), [1, 0, 1])
        assert np.array_equal(coeffs, [1, -4, 5, -4, 4])
        roots = real_roots(coeffs)
        assert roots.size >= 1
        assert np.all(np.abs(roots - 2.0) <= 1e-6)

    def test_all_zero_signals(self):
        # every theta is stationary; the row comes back all-NaN
        assert np.all(np.isnan(_real_roots_batch(np.zeros((1, 5)))))

    def test_residual_contract_random(self):
        rng = np.random.default_rng(1)
        c = rng.uniform(-10, 10, size=(2000, 5))
        roots = _real_roots_batch(c)
        finite = ~np.isnan(roots)
        assert np.any(finite)
        c4, c3, c2, c1, c0 = (c[:, i : i + 1] for i in range(5))
        residual = np.abs((((c4 * roots + c3) * roots + c2) * roots + c1) * roots + c0)
        bound = 1e-9 * (1 + np.max(np.abs(c), axis=1, keepdims=True)) * (1 + np.abs(roots)) ** 4
        assert np.all(residual[finite] <= bound[finite])

    def test_sign_change_bracketing(self):
        # every sign change of p on the wide grid must have a reported root
        # inside (or at the edge of) the bracket; reduced-size sample of the
        # full property for CI speed
        rng = np.random.default_rng(7)
        grid = np.linspace(-1e3, 1e3, 10_000)
        trials = 20_000
        coeffs = rng.uniform(-10, 10, size=(trials, 5))
        all_roots = _real_roots_batch(coeffs)
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
        # root, inside the loose _IMAG_RTOL filter; uniform rows share the batch
        rng = np.random.default_rng(50)
        r = rng.uniform(-5, 5, size=3000)
        e = 10.0 ** rng.uniform(-16, -6, size=r.size)
        near_double = [np.polymul(np.polymul([1, -ri], [1, -ri]), [1, 0, ei]) for ri, ei in zip(r, e)]
        coeffs = np.vstack([near_double, rng.uniform(-10, 10, size=(3000, 5))])
        roots = _real_roots_batch(coeffs)
        c4, c3, c2, c1, c0 = (coeffs[:, i : i + 1] for i in range(5))
        residual = np.abs((((c4 * roots + c3) * roots + c2) * roots + c1) * roots + c0)
        row_max = np.max(np.abs(coeffs), axis=1, keepdims=True)
        bound = 1e-9 * (1 + row_max) * (1 + np.abs(roots)) ** 4
        finite = ~np.isnan(roots)
        assert np.count_nonzero(finite) > 3000  # the gate still keeps real roots
        assert np.all(residual[finite] <= bound[finite]), int(np.sum(finite & ~(residual <= bound)))


class TestMinimizeSingle:
    def test_positive_real_b(self):
        assert minimize_single(0, 2) == pytest.approx(0.0, abs=1e-12)

    def test_negative_real_b_needs_pi_candidate(self):
        # quartic roots alone yield theta = 0, a maximizer here
        theta = minimize_single(0, -2)
        assert theta == pytest.approx(np.pi, abs=1e-12)
        assert objective(0, -2, theta) < objective(0, -2, 0.0)

    def test_real_a_tie_breaks_to_smallest(self):
        # cos(2 theta) minimized at pi/2 and 3pi/2; smallest wins
        assert minimize_single(1, 0) == pytest.approx(np.pi / 2, abs=1e-12)

    def test_constant_objective_returns_zero(self):
        assert minimize_single(0, 0) == 0.0

    def test_stationarity_of_root_candidates(self):
        rng = np.random.default_rng(3)
        h = 1e-6
        for _ in range(500):
            a = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
            b = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
            theta = minimize_single(a, b)
            if abs(theta - np.pi) < 1e-12:
                continue  # the explicit pi candidate need not be stationary
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
            theta = minimize_single(a, b)
            grid_best = np.min(
                a.real * cos_2t - a.imag * sin_2t - b.real * cos_t + b.imag * sin_t
            )
            assert objective(a, b, theta) <= grid_best + 1e-9

    def test_range(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            a = complex(rng.normal(), rng.normal())
            b = complex(rng.normal(), rng.normal())
            theta = minimize_single(a, b)
            assert 0.0 <= theta < 2 * np.pi


class TestMinimizeBatch:
    def test_matches_single(self):
        rng = np.random.default_rng(13)
        a = rng.normal(size=50) + 1j * rng.normal(size=50)
        b = rng.normal(size=50) + 1j * rng.normal(size=50)
        batch = minimize_batch(a, b)
        singles = np.array([minimize_single(ai, bi) for ai, bi in zip(a, b)])
        assert np.array_equal(batch, singles)

    def test_degenerate_rows_use_fallback(self):
        a = np.array([0.0 + 0j, 1.0 + 0j])
        b = np.array([0.0 + 0j, 0.0 + 0j])
        theta = minimize_batch(a, b)
        assert theta[0] == 0.0
        assert theta[1] == pytest.approx(np.pi / 2, abs=1e-12)


class TestSingleRootRouteAdversarial:
    """Rows whose stationarity polynomial loses its leading terms, or whose
    minimum is a multiple stationary point, checked on a dense theta grid.
    The anchor rotation hands every one of them to the root route as a quartic."""

    GRID = np.linspace(0.0, 2 * np.pi, 200_001)[:-1]
    CHUNK = 16  # rows per grid evaluation; bounds the (rows, grid) temporaries

    def grid_excess(self, a, b):
        """Objective at minimize_batch's theta minus the grid minimum, per row."""
        theta = minimize_batch(a, b)
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
        # candidates within the tie gap (at most _TIE_GAP) go to the smaller theta
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
        # the tie gap shrinks with |a| + |b| below 1, so a small row never
        # trades a better stationary root for theta = pi
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
        excess = objective(a, b, minimize_batch(a, b)) + 3.0 * r
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
        batch = minimize_batch(a, b)
        singles = np.array([minimize_single(ai, bi) for ai, bi in zip(a, b)])
        assert np.array_equal(batch, singles)
        self.assert_grid_optimal(a, b)
