"""Driver tests: seeded init, single steps against grid oracles, full runs."""

import numpy as np
import pytest

from unipol.metrics import UnimodularSequence, isl_quartic, isl_time
from unipol.solver import SolverConfig, _run_loop, init_random, run, unipol_step
from unipol.surrogate import surrogate_value


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig(n=10)
        assert cfg.max_iterations == 1000
        assert cfg.rel_tolerance == 0.0
        assert cfg.phase_range == "full"

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=0),
            dict(n=5, max_iterations=0),
            dict(n=5, rel_tolerance=-1e-3),
            dict(n=5, phase_range="narrow"),
            dict(n=5, seed=-1),
            dict(n=5, rel_tolerance=float("nan")),
            dict(n=5, rel_tolerance=float("inf")),
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)


class TestInitRandom:
    def test_deterministic(self):
        a = init_random(5, 7)
        b = init_random(5, 7)
        assert np.array_equal(a.values, b.values)

    def test_unimodular(self):
        x = init_random(200, 3)
        assert np.max(np.abs(np.abs(x.values) - 1.0)) < 1e-15

    def test_unit_range_phases(self):
        x = init_random(500, 11, phase_range="unit")
        assert np.all(x.phases >= 0.0)
        assert np.all(x.phases <= 1.0)

    def test_full_range_phases_spread(self):
        x = init_random(500, 11, phase_range="full")
        assert x.phases.max() > 5.0  # would be < 1 under the unit law

    def test_seed_changes_output(self):
        assert not np.array_equal(init_random(8, 1).values, init_random(8, 2).values)


class TestUnipolStep:
    def test_n1_keeps_input(self):
        x = UnimodularSequence([np.exp(0.83j)])
        out = unipol_step(x)
        assert np.array_equal(out.values, x.values)

    @pytest.mark.parametrize("phase", [-1e-300, -1e-17, -3e-16])
    def test_n1_keeps_input_below_zero_phase(self, phase):
        # wrapping such a phase into [0, 2*pi) rounds it up to 2*pi
        x = UnimodularSequence([np.exp(1j * phase)])
        assert np.array_equal(unipol_step(x).values, x.values)

    def test_matches_per_variable_grid_search(self):
        # each updated phase must reach the grid-searched minimum of its own
        # per-variable quartic surrogate sum_p |x - alpha_p|^4
        rng = np.random.default_rng(2)
        grid = np.linspace(0.0, 2 * np.pi, 1_000_001)[:-1]
        for _ in range(3):
            xt = UnimodularSequence(np.exp(2j * np.pi * rng.random(2)))
            stepped = unipol_step(xt)
            c = np.fft.fft(xt.values, 4) / 2
            for q in range(2):
                alphas = xt.values[q] - c * np.exp(1j * np.pi * np.arange(4) / 2 * q)
                diff2 = np.abs(np.exp(1j * grid)[:, None] - alphas[None, :]) ** 2
                obj = np.sum(diff2 * diff2, axis=1)
                got = np.sum(
                    np.abs(stepped.values[q] - alphas) ** 4
                )
                assert got <= np.min(obj) + 1e-6

    def test_first_step_strictly_decreases(self):
        decreases = 0
        for seed in range(100):
            xt = init_random(100, seed)
            before = isl_time(xt)
            after = isl_time(unipol_step(xt))
            assert after <= before + 1e-9 * max(1.0, before)
            if after < before:
                decreases += 1
        assert decreases >= 95

    def test_fast_and_direct_agree(self):
        xt = init_random(64, 5)
        a = unipol_step(xt, fast_path=True)
        b = unipol_step(xt, fast_path=False)
        assert np.max(np.abs(a.values - b.values)) < 1e-9

    def test_output_unimodular(self):
        out = unipol_step(init_random(128, 9))
        assert np.max(np.abs(np.abs(out.values) - 1.0)) <= 1e-12


class TestRun:
    def test_trace_shape_and_monotonicity(self):
        cfg = SolverConfig(n=100, max_iterations=50, seed=7)
        trace = run(cfg)
        assert trace.iterations_run == 50
        assert trace.isl_per_iteration.shape == (51,)
        assert trace.wall_time_per_iteration.shape == (50,)
        isl = trace.isl_per_iteration
        assert np.all(isl[1:] <= isl[:-1] * (1 + 1e-9) + 1e-9)
        assert trace.cumulative_seconds.shape == (51,)
        assert trace.cumulative_seconds[0] == 0.0

    def test_deterministic_repeat(self):
        cfg = SolverConfig(n=60, max_iterations=20, seed=123)
        a = run(cfg)
        b = run(cfg)
        assert np.array_equal(a.isl_per_iteration, b.isl_per_iteration)
        assert np.array_equal(a.final_sequence.values, b.final_sequence.values)

    def test_rel_tolerance_stops_early(self):
        cfg = SolverConfig(n=50, max_iterations=1000, rel_tolerance=1e-12, seed=5)
        trace = run(cfg)
        assert trace.iterations_run <= 1000
        isl = trace.isl_per_iteration
        assert np.all(isl[1:] <= isl[:-1] * (1 + 1e-9) + 1e-9)

    def test_fixed_budget_when_tol_zero(self):
        trace = run(SolverConfig(n=20, max_iterations=40, seed=1))
        assert trace.iterations_run == 40

    def test_init_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            run(SolverConfig(n=10, max_iterations=5), init=init_random(9, 0))

    def test_explicit_init_used(self):
        x0 = init_random(30, 77)
        trace = run(SolverConfig(n=30, max_iterations=3, seed=0), init=x0)
        assert trace.isl_per_iteration[0] == pytest.approx(isl_time(x0), rel=1e-12)

    def test_n1_trace_all_zero(self):
        trace = run(SolverConfig(n=1, max_iterations=5, seed=1))
        assert np.array_equal(trace.isl_per_iteration, np.zeros(6))

    def test_final_sequence_unimodular(self):
        trace = run(SolverConfig(n=75, max_iterations=25, seed=3))
        assert np.max(np.abs(np.abs(trace.final_sequence.values) - 1.0)) <= 1e-12

    def test_fast_direct_trace_equivalence(self):
        for n in (16, 64, 128):
            cfg = SolverConfig(n=n, max_iterations=15, seed=n)
            fast = run(cfg)
            direct = _run_loop(lambda x: unipol_step(x, fast_path=False), cfg, None)
            a, b = fast.isl_per_iteration, direct.isl_per_iteration
            assert np.max(np.abs(a - b) / np.maximum(1.0, a)) <= 1e-6


class TestSandwich:
    def test_per_step_mm_inequalities(self):
        # isl_quartic(x+) <= u(x+|x) <= u(x|x) = isl_quartic(x), within slack
        rng = np.random.default_rng(14)
        for n in (4, 12, 32):
            x = UnimodularSequence(np.exp(2j * np.pi * rng.random(n)))
            for _ in range(3):
                x_next = unipol_step(x)
                g_now = isl_quartic(x)
                g_next = isl_quartic(x_next)
                u_next = surrogate_value(x_next, x)
                u_now = surrogate_value(x, x)
                tol = 1e-7
                assert g_next <= u_next * (1 + tol)
                assert u_next <= u_now * (1 + tol)
                assert abs(u_now - g_now) <= tol * g_now
                x = x_next
