"""Baseline tests: classical generators against lag oracles, CAN behavior."""

import numpy as np
import pytest

from unipol.baselines import BARKER_CODES, _can_step, can_run, generate
from unipol.bench import run_bench
from unipol.metrics import UnimodularSequence, isl_time, merit_factor, psl
from unipol.solver import SolverConfig


def integer_lag_oracle(code):
    """Exact integer autocorrelation of a +-1 code."""
    n = len(code)
    return [sum(code[m + k] * code[m] for m in range(n - k)) for k in range(n)]


class TestGenerate:
    def test_barker13_anchors(self):
        seq = generate("barker", 13)
        assert np.all(np.isin(seq.values.real, [-1, 1]))
        assert np.all(seq.values.imag == 0)
        oracle = integer_lag_oracle(BARKER_CODES[13])
        assert sum(v * v for v in oracle[1:]) == 6
        assert max(abs(v) for v in oracle[1:]) == 1
        assert isl_time(seq) == pytest.approx(6.0, abs=1e-12)
        assert psl(seq) == pytest.approx(1.0, abs=1e-12)
        assert merit_factor(seq) == pytest.approx(169 / 12, rel=1e-12)

    @pytest.mark.parametrize("n", sorted(BARKER_CODES))
    def test_barker_isl_exact_integer(self, n):
        seq = generate("barker", n)
        oracle = integer_lag_oracle(BARKER_CODES[n])
        assert isl_time(seq) == float(sum(v * v for v in oracle[1:]))
        assert np.array_equal(np.real(np.round(np.correlate(seq.values, seq.values, "full")[n - 1 :])), oracle)

    @pytest.mark.parametrize("n", sorted(BARKER_CODES))
    def test_barker_psl_one(self, n):
        assert psl(generate("barker", n)) == pytest.approx(1.0, abs=1e-12)

    def test_barker_unsupported_length(self):
        with pytest.raises(ValueError, match="barker supports"):
            generate("barker", 6)

    def test_frank16_leading_row(self):
        seq = generate("frank", 16)
        assert len(seq) == 16
        assert np.allclose(seq.values[:4], 1.0, atol=1e-15)

    def test_frank_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            generate("frank", 15)
        with pytest.raises(ValueError, match="square"):
            generate("frank", 1)

    @pytest.mark.parametrize(
        "family,n",
        [
            ("golomb", 31),
            ("chu", 30),
            ("chu", 31),
            ("p4", 40),
            ("chu", np.int64(30)),
            ("p4", np.int32(9)),
        ],
    )
    def test_quadratic_families_unimodular(self, family, n):
        seq = generate(family, n)
        assert len(seq) == n
        assert np.max(np.abs(np.abs(seq.values) - 1.0)) <= 1e-15

    @pytest.mark.parametrize("family", ["chu", "golomb", "p4", "barker", "frank"])
    @pytest.mark.parametrize("n", [10.5, 16.0, np.float64(13.0), "13", None, True, False])
    def test_rejects_non_integer_length(self, family, n):
        with pytest.raises(ValueError, match="must be an integer"):
            generate(family, n)

    @pytest.mark.parametrize("family", ["chu", "golomb", "p4"])
    @pytest.mark.parametrize("n", [np.uint8(200), np.int8(100), np.int16(20000)])
    def test_narrow_numpy_length_matches_python_int(self, family, n):
        # the phase numerators m*(m+s) overflow a narrow integer type
        assert np.array_equal(generate(family, n).values, generate(family, int(n)).values)

    def test_chu_even_formula(self):
        n = 10
        seq = generate("chu", n)
        m = np.arange(n)
        assert np.allclose(seq.values, np.exp(1j * np.pi * m * m / n), atol=1e-15)

    def test_p4_formula(self):
        n = 8
        seq = generate("p4", n)
        m = np.arange(n)
        assert np.allclose(seq.values, np.exp(1j * np.pi * m * (m - n) / n), atol=1e-15)

    @pytest.mark.parametrize(
        "family, n",
        [("chu", 4096), ("chu", 16383), ("chu", 16384), ("p4", 4096), ("p4", 16383),
         ("p4", 16384), ("golomb", 16383), ("frank", 4096), ("frank", 16384)],
    )
    def test_zero_periodic_sidelobes_at_large_n(self, family, n):
        # these families are CAZAC; phases reduced before scaling keep that to rounding
        x = generate(family, n).values
        periodic = np.fft.ifft(np.abs(np.fft.fft(x)) ** 2)
        assert np.max(np.abs(periodic[1:])) / n <= 1e-15

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            generate("zadoff", 10)

    @pytest.mark.parametrize(
        "call, match",
        [
            (lambda: generate(np.array(["barker"]), 13), "unknown family"),
            (lambda: generate(np.array(["golomb"]), 13), "unknown family"),
            (lambda: run_bench([["can"]], [8], 1, 1), "unknown algorithm"),
            (lambda: run_bench([np.array(["can"])], [8], 1, 1), "unknown algorithm"),
            (lambda: generate(np.str_("chu"), 16), None),
            (lambda: run_bench(np.array(["can"]), [8], 1, 1), None),
        ],
        ids=["array-barker", "array-golomb", "list-algorithm", "array-algorithm",
             "np-str-family", "np-str-algorithm"],
    )
    def test_string_choices_take_strings_only(self, call, match):
        """A family or algorithm is a str (np.str_ too); a list or array of one is not."""
        if match is None:
            call()
        else:
            with pytest.raises(ValueError, match=match):
                call()

    @pytest.mark.parametrize(
        "family,n", [("frank", 49), ("golomb", 100), ("chu", 100), ("p4", 100)]
    )
    def test_classical_beats_random(self, family, n):
        rng = np.random.default_rng(1000 + n)
        random_mfs = [
            merit_factor(UnimodularSequence(np.exp(2j * np.pi * rng.random(n))))
            for _ in range(100)
        ]
        assert merit_factor(generate(family, n)) > 3.0 * np.median(random_mfs)


class TestCanRun:
    def test_output_unimodular(self):
        trace = can_run(SolverConfig(n=64, max_iterations=50, seed=2))
        assert np.max(np.abs(np.abs(trace.final_sequence.values) - 1.0)) <= 1e-12

    def test_deterministic(self):
        cfg = SolverConfig(n=32, max_iterations=40, seed=9)
        a = can_run(cfg)
        b = can_run(cfg)
        assert np.array_equal(a.isl_per_iteration, b.isl_per_iteration)
        assert np.array_equal(a.final_sequence.values, b.final_sequence.values)

    def test_median_tenfold_reduction(self):
        finals, initials = [], []
        for seed in range(30):
            trace = can_run(SolverConfig(n=100, max_iterations=1000, seed=seed))
            initials.append(trace.isl_per_iteration[0])
            finals.append(trace.isl_per_iteration[-1])
        assert np.median(finals) < np.median(initials) / 10.0

    def test_trace_lengths(self):
        trace = can_run(SolverConfig(n=20, max_iterations=25, seed=4))
        assert trace.iterations_run == 25
        assert trace.isl_per_iteration.shape == (26,)

    def test_subnormal_spectrum_bin_stays_finite(self):
        # the bin X_0 = -1e-320j is subnormal: it projects to 1, where dividing by
        # its modulus gave NaN (and a RuntimeWarning, an error under this suite)
        out = _can_step(UnimodularSequence([1, -1 - 1e-320j]))
        assert np.allclose(out.values, [1.0, -1.0], rtol=0.0, atol=1e-15)
