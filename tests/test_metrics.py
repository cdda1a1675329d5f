"""Metric-layer tests: lag-domain oracles, spectral identities, the spectrum each sequence keeps, and invariants."""

import numpy as np
import pytest

from unipol.baselines import _can_step, generate
from unipol.io import read_sequence_file, write_sequence_file
from unipol.metrics import (
    UnimodularSequence,
    as_values,
    autocorrelation,
    isl_freq,
    isl_quartic,
    isl_time,
    merit_factor,
    phase_of,
    psl,
    sidelobe_db,
    spectrum_2n,
    unit_of,
)
from unipol.solver import init_random, unipol_step
from unipol.surrogate import ab_all_fast

BARKER_13 = [1, 1, 1, 1, 1, -1, -1, 1, 1, -1, 1, -1, 1]


def lag_oracle(x):
    """Literal double-loop autocorrelation r_k = sum_n x[n+k] * conj(x[n])."""
    x = list(x)
    n = len(x)
    return [sum(x[m + k] * np.conj(x[m]) for m in range(n - k)) for k in range(n)]


def random_unimodular(n, rng):
    return np.exp(2j * np.pi * rng.random(n))


def assert_identity_only(a, b):
    """a and b, distinct objects holding equal arrays, compare and hash by identity without raising."""
    assert (a == b) is False and (a != b) is True
    assert a == a and b == b
    assert len({a, b}) == 2 and a in {a} and b not in {a}
    labels = {a: "a", b: "b"}
    assert labels[a] == "a" and labels[b] == "b"
    assert a in [a] and a not in [b]
    assert [b, a].index(a) == 1
    assert hash(a) == hash(a)


class TestUnimodularSequence:
    def test_accepts_unit_modulus(self):
        seq = UnimodularSequence(np.exp(1j * np.array([0.1, 2.0, 4.0])))
        assert len(seq) == 3

    def test_rejects_off_circle(self):
        with pytest.raises(ValueError, match="modulus"):
            UnimodularSequence(np.array([1.0, 0.5 + 0.5j]))

    @pytest.mark.parametrize("bad", [np.nan, complex(np.nan, np.nan), np.inf, complex(0.0, -np.inf)])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="modulus"):
            UnimodularSequence(np.array([1.0, bad]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            UnimodularSequence(np.array([], dtype=complex))

    @pytest.mark.parametrize("case", ["sequence", "2-D", "empty"])
    def test_one_coercion(self, case):
        """The constructor accepts what as_values accepts and rejects the rest alike."""
        x = np.exp(1j * np.array([0.1, 2.0, 4.0]))
        if case == "sequence":
            inner = UnimodularSequence(x)
            seq = UnimodularSequence(inner)
            assert np.array_equal(seq.values, x)
            assert not np.shares_memory(seq.values, inner.values)
            assert not seq.values.flags.writeable
            return
        bad = x.reshape(1, 3) if case == "2-D" else x[:0]
        with pytest.raises(ValueError) as coerced:
            as_values(bad)
        with pytest.raises(ValueError) as built:
            UnimodularSequence(bad)
        assert str(built.value) == str(coerced.value)

    def test_values_frozen(self):
        seq = UnimodularSequence(np.array([1.0 + 0j, -1.0]))
        with pytest.raises(ValueError):
            seq.values[0] = 2.0

    def test_phase_round_trip(self):
        phases = np.array([0.0, 1.25, 6.0])
        seq = UnimodularSequence.from_phases(phases)
        assert np.allclose(seq.phases, phases, atol=1e-15)

    @pytest.mark.parametrize("n", [5, 1])
    def test_compares_and_hashes_by_identity(self, n):
        """Equal values make distinct sequences, at every N; array_equal compares designs."""
        a, b = init_random(n, 0), init_random(n, 0)
        assert np.array_equal(a.values, b.values)
        assert_identity_only(a, b)


class TestUnitCircleRules:
    def test_unit_of_sends_tiny_moduli_to_the_fallback(self):
        # 5e-324 is the smallest subnormal; dividing by its modulus overflows
        assert np.array_equal(unit_of(np.array([0.0, 5e-324, 5e-324j, -4.0, 2j])), [1, 1, 1, -1, 1j])

    def test_unit_of_takes_an_array_fallback_element_by_element(self):
        fallback = np.array([1j, -1.0, 7.0])
        assert np.array_equal(unit_of(np.array([0.0, 5e-324, 2j]), fallback), [1j, -1.0, 1j])

    def test_phase_of_folds_to_zero_not_two_pi(self):
        # arg = -1e-17 wraps to a value that rounds to 2*pi
        assert np.array_equal(phase_of(np.array([np.exp(-1e-17j), 1 - 0j, -1j])), [0.0, 0.0, 1.5 * np.pi])


class TestAutocorrelation:
    def test_all_ones(self):
        r = autocorrelation([1, 1, 1, 1])
        assert np.allclose(r, [4, 3, 2, 1], atol=1e-12)

    def test_two_element(self):
        r = autocorrelation([1, 1j])
        assert abs(r[0] - 2) < 1e-12
        assert abs(r[1] - 1j) < 1e-12

    def test_barker13_sidelobes(self):
        r = autocorrelation(BARKER_13)
        expected = lag_oracle(BARKER_13)
        assert np.allclose(r, expected, atol=1e-12)
        mags = np.round(np.abs(r[1:])).astype(int)
        assert set(mags) <= {0, 1}

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            autocorrelation([])

    @pytest.mark.parametrize("n", [2, 3, 17, 63, 64, 65, 130, 257, 512])
    def test_direct_vs_fft_paths(self, n):
        # the two routes must agree regardless of which one the length selects
        rng = np.random.default_rng(n)
        x = random_unimodular(n, rng)
        r_direct = np.correlate(x, x, mode="full")[n - 1 :]
        spec = np.fft.fft(x, 2 * n)
        r_fft = np.fft.ifft(spec * np.conj(spec))[:n]
        scale = np.maximum(1.0, np.abs(r_direct))
        assert np.max(np.abs(r_fft - r_direct) / scale) < 1e-9
        assert np.allclose(autocorrelation(x), r_direct, atol=1e-9 * n)

    def test_zero_lag_is_n(self):
        rng = np.random.default_rng(5)
        for n in (1, 7, 100, 200):
            r = autocorrelation(random_unimodular(n, rng))
            assert abs(r[0].imag) < 1e-9
            assert abs(r[0].real - n) < 1e-9


class TestIslTime:
    def test_all_ones(self):
        assert isl_time([1, 1, 1, 1]) == pytest.approx(14.0, abs=1e-12)

    def test_single_element(self):
        assert isl_time([1j]) == 0.0

    def test_barker13(self):
        expected = sum(abs(v) ** 2 for v in lag_oracle(BARKER_13)[1:])
        assert expected == 6
        assert isl_time(BARKER_13) == pytest.approx(6.0, abs=1e-12)


class TestIslFreq:
    def test_all_ones_matches_time(self):
        assert isl_freq([1, 1, 1, 1]) == pytest.approx(14.0, abs=1e-10)

    def test_single_element(self):
        assert isl_freq([1.0]) == pytest.approx(0.0, abs=1e-12)
        # |x_0|^2 of this random phase rounds off 1; no sidelobes, so still exactly 0
        assert isl_freq(random_unimodular(1, np.random.default_rng(1))) == 0.0

    def test_parseval_on_random_257(self):
        rng = np.random.default_rng(257)
        for _ in range(100):
            x = random_unimodular(257, rng)
            t, f = isl_time(x), isl_freq(x)
            assert abs(t - f) <= 1e-10 * max(1.0, t)

    @pytest.mark.parametrize("n", [1, 2, 3, 33, 64, 511, 512, 1024, 2048])
    def test_parseval_across_lengths(self, n):
        rng = np.random.default_rng(n + 1)
        x = random_unimodular(n, rng)
        t, f = isl_time(x), isl_freq(x)
        assert abs(t - f) <= 1e-10 * max(1.0, t)


class TestIslQuartic:
    def test_single_element(self):
        assert isl_quartic([1.0]) == pytest.approx(2.0, abs=1e-12)

    def test_all_ones_against_spectral_oracle(self):
        # oracle: direct |X_p|^4 sum over explicitly evaluated grid points
        x = np.ones(4, dtype=complex)
        grid = 2 * np.pi * np.arange(8) / 8
        spectra = np.array([np.sum(x * np.exp(-1j * w * np.arange(4))) for w in grid])
        expected = np.sum(np.abs(spectra) ** 4)
        assert expected == pytest.approx(352.0, abs=1e-9)
        assert isl_quartic(x) == pytest.approx(expected, rel=1e-12)

    def test_affine_identity_in_isl(self):
        # sum_p |X_p|^4 = 4N*isl + 2N^3 (energy identity + Parseval)
        rng = np.random.default_rng(64)
        for n in (2, 5, 64):
            x = random_unimodular(n, rng)
            lhs = isl_quartic(x)
            rhs = 4 * n * isl_time(x) + 2 * n**3
            assert abs(lhs - rhs) <= 1e-8 * lhs


class TestPslMeritFactor:
    def test_all_ones_psl(self):
        assert psl([1, 1, 1, 1]) == pytest.approx(3.0, abs=1e-12)

    def test_barker13_psl(self):
        expected = max(abs(v) for v in lag_oracle(BARKER_13)[1:])
        assert expected == 1
        assert psl(BARKER_13) == pytest.approx(1.0, abs=1e-12)

    def test_barker13_merit_factor(self):
        assert merit_factor(BARKER_13) == pytest.approx(169 / 12, rel=1e-12)

    def test_single_element_psl(self):
        assert psl([1.0]) == 0.0

    def test_merit_factor_undefined_for_n1(self):
        with pytest.raises(ValueError, match="undefined"):
            merit_factor([1.0])

    def test_zero_isl_sentinel(self, monkeypatch):
        # ISL = 0 is unreachable for N >= 2; force it to exercise the sentinel
        import unipol.metrics as metrics

        monkeypatch.setattr(metrics._Lags, "isl", 0.0)
        assert metrics.merit_factor([1, -1]) == np.inf

    @pytest.mark.parametrize("n", [1, 2, 13, 64, 65, 1000])
    def test_figures_keep_their_lag_expressions(self, n):
        # the one-autocorrelation helper must give the bits each metric gave on its own
        x = init_random(n, n)
        r = autocorrelation(x)
        isl = float(np.sum(np.abs(r[1:]) ** 2))
        assert isl_time(x) == isl
        assert psl(x) == float(np.max(np.abs(r[1:]), initial=0.0))
        if n >= 2:
            assert merit_factor(x) == n * n / (2.0 * isl)
        with np.errstate(divide="ignore"):
            assert np.array_equal(sidelobe_db(x), 20.0 * np.log10(np.abs(r) / n))


class TestSpectrum:
    def test_single_element_bins(self):
        bins = spectrum_2n([1.0])
        assert bins.size == 2
        assert np.allclose(np.abs(bins), 1.0, atol=1e-12)

    def test_energy_identity(self):
        rng = np.random.default_rng(50)
        x = random_unimodular(50, rng)
        energy = np.sum(np.abs(spectrum_2n(x)) ** 2)
        assert abs(energy - 5000.0) <= 1e-8 * 5000.0

    def test_isl_from_grid_matches(self):
        bins = spectrum_2n([1, 1, 1, 1])
        val = np.sum((np.abs(bins) ** 2 - 4) ** 2) / 16.0
        assert val == pytest.approx(14.0, abs=1e-10)

    def test_grid_offset_convention_immaterial(self):
        # p = 1..2N and p = 0..2N-1 cover the same period; all |X| sums agree
        rng = np.random.default_rng(11)
        n = 9
        x = random_unimodular(n, rng)
        idx = np.arange(n)
        shifted = np.array(
            [np.sum(x * np.exp(-1j * (np.pi * p / n) * idx)) for p in range(1, 2 * n + 1)]
        )
        base = spectrum_2n(x)
        for arr in (shifted, base):
            energy = np.sum(np.abs(arr) ** 2)
            assert abs(energy - 2 * n * n) <= 1e-8 * 2 * n * n
        assert np.sum(np.abs(shifted) ** 4) == pytest.approx(np.sum(np.abs(base) ** 4), rel=1e-10)

    def test_one_based_indexing_only_rotates_bins(self):
        rng = np.random.default_rng(12)
        n = 8
        x = random_unimodular(n, rng)
        grid = np.pi * np.arange(2 * n) / n
        one_based = np.array([np.sum(x * np.exp(-1j * w * np.arange(1, n + 1))) for w in grid])
        base = spectrum_2n(x)
        assert np.allclose(np.abs(one_based), np.abs(base), atol=1e-9)
        assert np.allclose(one_based, base * np.exp(-1j * grid), atol=1e-9)


class TestSpectrumCache:
    """A UnimodularSequence keeps the one spectrum it is built with; arrays never share one."""

    def test_sequence_returns_one_read_only_spectrum(self):
        seq = UnimodularSequence(random_unimodular(100, np.random.default_rng(60)))
        first = spectrum_2n(seq)
        assert spectrum_2n(seq) is first
        assert not first.flags.writeable
        assert first.tobytes() == np.fft.fft(seq.values, 200).tobytes()
        with pytest.raises(ValueError):
            first[0] = 0.0

    def test_array_input_gets_a_fresh_writable_transform(self):
        v = random_unimodular(100, np.random.default_rng(61))
        first, second = spectrum_2n(v), spectrum_2n(v)
        assert first is not second and not np.shares_memory(first, second)
        assert first.flags.writeable and second.flags.writeable
        assert first.tobytes() == second.tobytes() == np.fft.fft(v, 200).tobytes()

    def test_cache_is_invisible_to_repr(self):
        seq = UnimodularSequence(random_unimodular(8, np.random.default_rng(62)))
        before = repr(seq)
        spectrum_2n(seq)
        assert repr(seq) == before
        assert "_spectrum" not in before

    def test_metrics_read_the_same_bits_as_from_an_array(self):
        v = random_unimodular(300, np.random.default_rng(63))
        seq = UnimodularSequence(v)
        spectrum_2n(seq)
        for metric in (autocorrelation, isl_time, isl_freq, isl_quartic, psl):
            assert np.asarray(metric(seq)).tobytes() == np.asarray(metric(v)).tobytes(), metric


def _sequence_file(tmp_path):
    path = tmp_path / "x.seq.csv"
    write_sequence_file(path, random_unimodular(100, np.random.default_rng(71)))
    return lambda: read_sequence_file(path)


def _from_sequence(make):
    def prepare(tmp_path):
        seq = UnimodularSequence(random_unimodular(100, np.random.default_rng(72)))
        return lambda: make(seq)

    return prepare


# Each entry prepares its inputs (transforms allowed) and returns the call that builds one sequence.
CONSTRUCTIONS = {
    "values": lambda tmp_path: lambda: UnimodularSequence(random_unimodular(100, np.random.default_rng(70))),
    "from_phases": lambda tmp_path: lambda: UnimodularSequence.from_phases(np.linspace(0.0, 6.0, 100)),
    "init_random": lambda tmp_path: lambda: init_random(100, 3),
    "generate": lambda tmp_path: lambda: generate("golomb", 100),
    "read_sequence_file": _sequence_file,
    "rewrap": _from_sequence(UnimodularSequence),
    "unipol_step": _from_sequence(unipol_step),
    "can_step": _from_sequence(_can_step),
}


class TestSpectrumAtConstruction:
    """Every sequence is built with its spectrum: building it makes the one forward
    transform, and every later reader of the spectrum makes none."""

    @pytest.mark.parametrize("prepare", CONSTRUCTIONS.values(), ids=CONSTRUCTIONS.keys())
    def test_one_forward_transform_at_construction(self, monkeypatch, tmp_path, prepare):
        build = prepare(tmp_path)
        calls = []
        transform = np.fft.fft

        def counted(*args, **kwargs):
            calls.append(args[0])
            return transform(*args, **kwargs)

        monkeypatch.setattr(np.fft, "fft", counted)
        seq = build()
        assert len(calls) == 1
        for read in (spectrum_2n, isl_freq, ab_all_fast, autocorrelation):  # N > 64: autocorrelation reads it
            read(seq)
        assert len(calls) == 1
        assert spectrum_2n(seq).tobytes() == transform(seq.values, 2 * len(seq)).tobytes()


class TestInvariants:
    def test_phase_rotation_invariance(self):
        rng = np.random.default_rng(3)
        x = random_unimodular(40, rng)
        base = isl_time(x)
        for phi in (0.3, 1.7, 5.9):
            rotated = isl_time(np.exp(1j * phi) * x)
            assert abs(rotated - base) <= 1e-10 * base

    def test_sidelobe_db_mainlobe(self):
        db = sidelobe_db(BARKER_13)
        assert db[0] == pytest.approx(0.0, abs=1e-12)

    def test_sidelobe_db_zero_lag_is_neg_inf(self):
        db = sidelobe_db([1, 1, -1])  # r_1 = 0
        assert np.isneginf(db[1])
