"""Stationarity-quartic tests: coefficient map, closed-form candidates, unit-circle minimizer."""

import tracemalloc

import numpy as np
import pytest

import unipol.quartic as quartic
from unipol.quartic import (
    _BLOCK,
    _TIE_GAP,
    _anchor,
    _real_roots_batch,
    minimize_batch,
    minimize_single,
    quartic_coeffs_batch,
)
from unipol.solver import init_random, unipol_step
from unipol.surrogate import ab_all_fast


def objective(a, b, theta):
    return (a * np.exp(2j * theta) - b * np.exp(1j * theta)).real


def candidates(coeffs):
    """Candidate betas of one coefficient row through the batched route, sorted."""
    return np.sort(_real_roots_batch(np.asarray([coeffs], dtype=float))[0])


def eig_candidates(coeffs):
    """The companion-matrix route the closed form replaced, kept as its oracle:
    the real parts of the four eigenvalues of each row's 4x4 companion matrix."""
    coeffs = np.asarray(coeffs, dtype=float)
    leading = coeffs[:, 0] != 0.0
    comp = np.zeros((coeffs.shape[0], 4, 4))
    comp[:, 0, :] = -coeffs[:, 1:] / np.where(leading, coeffs[:, 0], 1.0)[:, None]
    comp[:, [1, 2, 3], [0, 1, 2]] = 1.0
    return np.where(leading[:, None], np.linalg.eigvals(comp).real, np.nan)


class TestQuarticCoeffs:
    def test_pure_negative_real_b(self):
        assert np.array_equal(quartic_coeffs_batch([0], [-1])[0], [0.0, 2.0, 0.0, 2.0, 0.0])

    def test_pure_imaginary_a(self):
        assert np.array_equal(quartic_coeffs_batch([1j], [0])[0], [2.0, 0.0, -12.0, 0.0, 2.0])

    def test_pure_real_a(self):
        assert np.array_equal(quartic_coeffs_batch([1], [0])[0], [0.0, -8.0, 0.0, 8.0, 0.0])


class TestSolveQuarticReal:
    """Candidate betas (real parts of all four roots) of single rows and of
    random batches, all through _real_roots_batch."""

    def test_biquadratic(self):
        # roots +-1 and +-1j; the complex pair contributes its real part 0 twice
        assert np.allclose(candidates([1, 0, 0, 0, -1]), [-1.0, 0.0, 0.0, 1.0], atol=1e-12)

    def test_deflated_cubic(self):
        # no deflation: a row whose leading coefficient is zero comes back all-NaN
        assert np.all(np.isnan(_real_roots_batch(np.array([[0.0, 2.0, 0.0, 2.0, 0.0]]))))

    def test_double_root_collapsed(self):
        # oracle: expand (b - 2)^2 (b^2 + 1); both slots of the double root land
        # on 2, and the pair +-1j gives 0 twice
        coeffs = np.polymul(np.polymul([1, -2], [1, -2]), [1, 0, 1])
        assert np.array_equal(coeffs, [1, -4, 5, -4, 4])
        assert np.all(np.abs(candidates(coeffs) - [0.0, 0.0, 2.0, 2.0]) <= 1e-6)

    def test_all_zero_signals(self):
        # every theta is stationary; the row comes back all-NaN
        assert np.all(np.isnan(_real_roots_batch(np.zeros((1, 5)))))

    def test_residual_contract_random(self):
        rng = np.random.default_rng(1)
        c = rng.uniform(-10, 10, size=(2000, 5))
        got = np.sort(_real_roots_batch(c), axis=1)
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
        # root; the double root may split into a complex pair, whose real part
        # must still land on r. Uniform rows share the batch.
        rng = np.random.default_rng(50)
        r = rng.uniform(-5, 5, size=3000)
        e = 10.0 ** rng.uniform(-16, -6, size=r.size)
        near_double = [np.polymul(np.polymul([1, -ri], [1, -ri]), [1, 0, ei]) for ri, ei in zip(r, e)]
        coeffs = np.vstack([near_double, rng.uniform(-10, 10, size=(3000, 5))])
        betas = _real_roots_batch(coeffs)
        assert np.all(np.isfinite(betas))
        miss = np.min(np.abs(betas[: r.size] - r[:, None]), axis=1)
        assert np.all(miss <= 1e-6), float(np.max(miss))


class TestMinimizeSingle:
    def test_positive_real_b(self):
        assert minimize_single(0, 2) == pytest.approx(0.0, abs=1e-12)

    def test_negative_real_b_needs_pi_candidate(self):
        # theta = pi, the minimizer here, is the one angle the half-angle
        # substitution cannot reach; the anchor rotation brings it into range
        theta = minimize_single(0, -2)
        assert theta == pytest.approx(np.pi, abs=1e-12)
        assert objective(0, -2, theta) < objective(0, -2, 0.0)

    def test_real_a_tie_breaks_to_smallest(self):
        # cos(2 theta) minimized at pi/2 and 3pi/2; smallest wins
        assert minimize_single(1, 0) == pytest.approx(np.pi / 2, abs=1e-12)

    def test_constant_objective_returns_zero(self):
        assert minimize_single(0, 0) == 0.0

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
        assert minimize_single(a, b) == pytest.approx(expected, abs=1e-12)

    def test_stationarity_of_root_candidates(self):
        rng = np.random.default_rng(3)
        h = 1e-6
        for _ in range(500):
            a = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
            b = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
            theta = minimize_single(a, b)
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
        theta = minimize_batch(1.0 + 0j, 0.0)
        assert theta.shape == (1,)
        assert theta[0] == minimize_single(1.0 + 0j, 0.0)

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


class TestClosedFormAgainstEigOracle:
    """The closed form against the companion eigenvalues it replaced, scored on
    the objective by minimize_batch, plus its blocks and their memory."""

    @staticmethod
    def best_objective(monkeypatch, a, b, roots):
        # With a zero tie gap minimize_batch returns the row's best candidate, so
        # the comparison sees the root route, not which side of the gap a near-tie
        # falls on (that may cost up to the gap either way, by the tie contract).
        with monkeypatch.context() as patch:
            patch.setattr(quartic, "_TIE_GAP", 0.0)
            patch.setattr(quartic, "_real_roots_batch", roots)
            return objective(a, b, minimize_batch(a, b))

    def assert_no_worse_than_eig(self, monkeypatch, a, b):
        got = self.best_objective(monkeypatch, a, b, _real_roots_batch)
        ref = self.best_objective(monkeypatch, a, b, eig_candidates)
        excess = (got - ref) / (np.abs(a) + np.abs(b))
        assert np.all(excess <= 1e-15), float(np.max(excess))

    @pytest.mark.parametrize("n, steps", [(100, 5), (1000, 5), (16384, 2)])
    def test_solver_rows(self, monkeypatch, n, steps):
        for seed in range(3):
            x = init_random(n, seed)
            for _ in range(steps):
                self.assert_no_worse_than_eig(monkeypatch, *ab_all_fast(x))
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
    def test_adversarial_families(self, monkeypatch, name):
        self.assert_no_worse_than_eig(monkeypatch, *self.family(name, np.random.default_rng(70)))

    def test_block_boundaries_match_single(self):
        rng = np.random.default_rng(71)
        m = 2 * _BLOCK + 3
        a = rng.normal(size=m) + 1j * rng.normal(size=m)
        b = rng.normal(size=m) + 1j * rng.normal(size=m)
        singles = np.array([minimize_single(ai, bi) for ai, bi in zip(a, b)])
        assert np.array_equal(minimize_batch(a, b), singles)

    def test_traced_peak_stays_near_the_output(self):
        # the blocks keep the temporaries small; one unblocked pass over 65536
        # rows peaks at about 17x the output, the companion route at about 7x
        rng = np.random.default_rng(72)
        m = 65_536
        coeffs = _anchor(rng.normal(size=m) + 1j * rng.normal(size=m),
                         rng.normal(size=m) + 1j * rng.normal(size=m))[1]
        tracemalloc.start()
        try:
            out = _real_roots_batch(coeffs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * out.nbytes, peak / out.nbytes
