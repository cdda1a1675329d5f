"""Driver tests: seeded init, single steps against grid oracles, full runs."""

import numpy as np
import pytest

from unipol import solver
from unipol.baselines import _can_step, can_run
from unipol.metrics import UnimodularSequence, isl_freq, isl_quartic, isl_time
from unipol.quartic import minimize_batch
from unipol.solver import SolverConfig, _run_loop, init_random, run, unipol_step
from unipol.surrogate import ab_all_direct, surrogate_value


def direct_step(x):
    """unipol_step with the O(N^2) ab_all_direct oracle in place of ab_all_fast, for N >= 2."""
    return UnimodularSequence(minimize_batch(*ab_all_direct(x)))


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig(n=10)
        assert cfg.max_iterations == 1000
        assert cfg.rel_tolerance == 0.0
        assert cfg.phase_range == "full"
        assert cfg.accel == "squarem"

    @pytest.mark.parametrize("accel", ["squarem", "none"])
    def test_accepts_accel(self, accel):
        assert SolverConfig(n=5, accel=accel).accel == accel

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
            dict(n=10.0),
            dict(n=5, max_iterations=2.5),
            dict(n=5, seed=1.5),
            dict(n=5, rel_tolerance="0.1"),
            dict(n=5, rel_tolerance=None),
            dict(n=True),
            dict(n=5, max_iterations=True),
            dict(n=5, seed=False),
            dict(n=5, rel_tolerance=True),
            dict(n=5, rel_tolerance=False),
            dict(n=5, accel="SQUAREM"),
            dict(n=5, accel=""),
            dict(n=5, accel=None),
            dict(n=5, accel=1),
            dict(n=5, accel=True),
            dict(n=5, accel=("squarem",)),
            dict(n=5, accel=np.str_("bogus")),
            dict(n=5, phase_range=np.array("unit")),
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [dict(n=np.int64(8)), dict(n=8, max_iterations=np.int32(2)), dict(n=8, seed=np.uint8(3)),
         dict(n=8, rel_tolerance=np.float32(0.25)), dict(n=8, rel_tolerance=0)],
    )
    def test_stores_plain_numbers(self, kwargs):
        cfg = SolverConfig(**kwargs)
        assert [type(v) for v in (cfg.n, cfg.max_iterations, cfg.seed, cfg.rel_tolerance)] == [
            int, int, int, float
        ]
        assert cfg == SolverConfig(**{k: v.item() if hasattr(v, "item") else v
                                      for k, v in kwargs.items()})


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

    @pytest.mark.parametrize("n", [2.5, 5.0, np.float64(5.0), "5", None, True, False])
    def test_rejects_non_integer_length(self, n):
        with pytest.raises(ValueError, match="must be an integer"):
            init_random(n, 0)

    @pytest.mark.parametrize("n", [np.int64(5), np.int32(5), np.uint8(5)])
    def test_numpy_integer_length(self, n):
        assert np.array_equal(init_random(n, 4).values, init_random(5, 4).values)

    @pytest.mark.parametrize(
        "seed, message",
        [(1.5, "seed must be an integer"), ("3", "seed must be an integer"),
         (None, "seed must be an integer"), (-1, "seed must be >= 0")],
    )
    def test_rejects_bad_seed(self, seed, message):
        with pytest.raises(ValueError, match=message):
            init_random(5, seed)

    def test_numpy_integer_seed(self):
        assert np.array_equal(init_random(5, np.int64(4)).values, init_random(5, 4).values)

    def test_rejects_unknown_phase_range(self):
        with pytest.raises(ValueError, match="phase_range must be one of"):
            init_random(5, 0, "narrow")

    def test_rejects_non_string_phase_range(self):
        # np.array("full") == "full" is truthy, so only the type check stops it
        with pytest.raises(ValueError, match="phase_range must be one of"):
            init_random(4, 0, np.array("full"))


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
        a = unipol_step(xt)
        b = direct_step(xt)
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
            direct = _run_loop(direct_step, cfg, None)
            a, b = fast.isl_per_iteration, direct.isl_per_iteration
            assert np.max(np.abs(a - b) / np.maximum(1.0, a)) <= 1e-6


def _hand_loop(step, x, budget):
    """The plain loop written out: one step and one isl_freq per evaluation."""
    isl = [isl_freq(x)]
    for _ in range(budget):
        x = step(x)
        isl.append(isl_freq(x))
    return np.asarray(isl), x


class TestAcceleratedLoop:
    @pytest.mark.parametrize("budget", range(1, 8))
    def test_every_map_evaluation_is_counted(self, monkeypatch, budget):
        # budgets 1..7 stop at every point of a two-steps-then-extrapolate cycle
        calls = []
        plain_step = solver.unipol_step

        def counted(x):
            calls.append(x)
            return plain_step(x)

        monkeypatch.setattr(solver, "unipol_step", counted)
        trace = run(SolverConfig(n=40, max_iterations=budget, seed=budget))
        assert len(calls) == trace.iterations_run == budget
        assert trace.isl_per_iteration.shape == (budget + 1,)
        assert trace.wall_time_per_iteration.shape == (budget,)

    @pytest.mark.parametrize("budget", range(1, 8))
    def test_final_sequence_is_the_last_recorded_iterate(self, budget):
        trace = run(SolverConfig(n=40, max_iterations=budget, seed=3))
        assert isl_freq(trace.final_sequence) == trace.isl_per_iteration[-1]

    def test_extrapolation_beats_plain_mm(self):
        cfg = SolverConfig(n=100, max_iterations=200, seed=0)
        fast = run(cfg).isl_per_iteration
        plain = run(SolverConfig(n=100, max_iterations=200, seed=0, accel="none")).isl_per_iteration
        assert fast[:3].tolist() == plain[:3].tolist()  # the first cycle's two plain steps
        assert fast[-1] < 0.5 * plain[-1]

    def test_tolerance_stops_early_and_stays_monotone(self):
        cfg = SolverConfig(n=30, max_iterations=2000, rel_tolerance=1e-3, seed=4)
        trace = run(cfg)
        assert trace.iterations_run < 2000
        assert isl_freq(trace.final_sequence) == trace.isl_per_iteration[-1]
        isl = trace.isl_per_iteration
        assert np.all(isl[1:] <= isl[:-1] * (1 + 1e-9) + 1e-9)
        assert np.all(isl[-3:] >= isl[-4:-1] * (1 - 1e-3))  # the streak that stopped it

    def test_none_is_the_plain_loop_bit_for_bit(self):
        cfg = SolverConfig(n=50, max_iterations=30, seed=9, accel="none")
        trace = run(cfg)
        isl, x = _hand_loop(unipol_step, init_random(50, 9), 30)
        assert trace.isl_per_iteration.tobytes() == isl.tobytes()
        assert trace.final_sequence.values.tobytes() == x.values.tobytes()

    @pytest.mark.parametrize("seed", [0, 1])
    def test_large_n_run_cuts_the_isl_by_half(self, seed):
        # the design-n16384 budget; with the quartic route's 3e-6 rad errors in
        # theta, which SQUAREM's alpha^2 ~ 1e6 magnifies, it cut about 0.10
        isl = run(SolverConfig(n=16384, max_iterations=12, seed=seed)).isl_per_iteration
        assert 1.0 - isl[-1] / isl[0] >= 0.5

    def test_squarem_projects_zero_to_phase_zero(self):
        # r = 2 - 5e-324j and v = 1 + 5e-324j give alpha = -2, so the point
        # x0 - 2 alpha r + alpha^2 v is 0 in the first element and 5e-324j in the second
        x0 = np.array([-12.0, -12.0 + 5e-324j])
        y = solver._squarem(x0, np.array([-10.0, -10.0]), np.array([-7.0, -7.0]), np.inf)
        assert y.values.tolist() == [1.0, 1.0]

    @pytest.mark.parametrize("accel", ["squarem", "none"])
    def test_can_runs_plain_bit_for_bit(self, accel):
        trace = can_run(SolverConfig(n=50, max_iterations=30, seed=9, accel=accel))
        isl, x = _hand_loop(_can_step, init_random(50, 9), 30)
        assert trace.isl_per_iteration.tobytes() == isl.tobytes()
        assert trace.final_sequence.values.tobytes() == x.values.tobytes()
        assert trace.config.accel == "none"


def _count_calls(monkeypatch, name):
    """The first argument of every np.fft.<name> call made while the test runs."""
    calls = []
    transform = getattr(np.fft, name)

    def counted(*args, **kwargs):
        calls.append(args[0])
        return transform(*args, **kwargs)

    monkeypatch.setattr(np.fft, name, counted)
    return calls


class TestOneTransformPerIterate:
    """Each iterate's 2N-point spectrum is computed once: the step and the ISL
    bookkeeping of a run read it, so K evaluations make K + 1 forward transforms
    (the start's and one per new iterate), plus one per SQUAREM candidate. The
    bookkeeping (isl_freq) inverts nothing, so the only inverse transforms are
    the step's own: two per MM step (in ab_all_fast), one per CAN step."""

    @pytest.fixture
    def forward(self, monkeypatch):
        return _count_calls(monkeypatch, "fft")

    @pytest.fixture
    def inverse(self, monkeypatch):
        return _count_calls(monkeypatch, "ifft")

    @pytest.mark.parametrize("n", [40, 100])
    def test_plain_mm(self, forward, inverse, n):
        run(SolverConfig(n=n, max_iterations=9, seed=2, accel="none"))
        assert len(forward) == 9 + 1
        assert len(inverse) == 2 * 9

    @pytest.mark.parametrize("n", [40, 100])
    def test_can(self, forward, inverse, n):
        can_run(SolverConfig(n=n, max_iterations=9, seed=2))
        assert len(forward) == 9 + 1
        assert len(inverse) == 9

    @pytest.mark.parametrize("n", [40, 100])
    def test_squarem_adds_only_its_candidates(self, forward, monkeypatch, n):
        checks = []
        isl_freq = solver.isl_freq

        def counted(y):
            checks.append(y)
            return isl_freq(y)

        monkeypatch.setattr(solver, "isl_freq", counted)
        run(SolverConfig(n=n, max_iterations=12, seed=2))
        candidates = len(checks) - (12 + 1)  # the rest are the loop's ISL records
        assert candidates > 0
        assert len(forward) <= 12 + 1 + candidates


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
