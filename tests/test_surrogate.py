"""Surrogate-layer tests: direct oracle, (a, b) reduction, fast path, majorization."""

import numpy as np
import pytest

from unipol.metrics import isl_quartic
from unipol.surrogate import _CHUNK, _alphas, ab_all_direct, ab_all_fast, surrogate_value


def random_unimodular(n, rng):
    return np.exp(2j * np.pi * rng.random(n))


def alpha_naive(x, q):
    """Literal double-sum oracle: alpha_p = x[q] - (1/N) sum_m x[m] e^{-j w_p (m-q)}."""
    x = np.asarray(x, dtype=complex)
    n = x.size
    out = np.empty(2 * n, dtype=complex)
    for p in range(2 * n):
        w = np.pi * p / n
        acc = sum(x[m] * np.exp(-1j * w * (m - q)) for m in range(n))
        out[p] = x[q] - acc / n
    return out


def ab_naive(alphas):
    """The module docstring's p-sums for one alpha set: a = sum 2 conj(al)^2,
    b = sum 4 conj(al) (1 + |al|^2)."""
    ac = np.conj(alphas)
    return 2.0 * np.sum(ac * ac), 4.0 * np.sum(ac * (1.0 + np.abs(alphas) ** 2))


def surrogate_naive(x, xt):
    """Literal triple-loop majorizer oracle (keep N tiny)."""
    x = np.asarray(x, dtype=complex)
    xt = np.asarray(xt, dtype=complex)
    n = xt.size
    total = 0.0
    for p in range(2 * n):
        w = np.pi * p / n
        for m in range(n):
            inner = sum(xt[mp] * np.exp(-1j * w * (mp - m)) for mp in range(n))
            total += abs(x[m] - xt[m] + inner / n) ** 4
    return n**3 * total


class TestAlphaDirect:
    """ab_all_direct against the literal alpha sets, reduced by the p-sums."""

    def test_single_element_all_zero(self):
        # N = 1: every alpha_p is 0, so a = b = 0
        a, b = ab_all_direct([1.0 + 0j])
        assert a.shape == b.shape == (1,)
        assert abs(a[0]) < 1e-15 and abs(b[0]) < 1e-15

    def test_two_element_closed_form(self):
        # all-ones pair: alpha_p(0) = 1 - (1 + e^{-j w_p})/2 = [0, (1+j)/2, 1, (1-j)/2]
        # and alpha_p(1) is its conjugate; the p-sums give a = 2, b = 14 for both
        a, b = ab_all_direct([1.0, 1.0])
        assert np.allclose(a, [2.0, 2.0], atol=1e-12)
        assert np.allclose(b, [14.0, 14.0], atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 12])
    def test_matches_naive_double_sum(self, n):
        rng = np.random.default_rng(n)
        x = random_unimodular(n, rng)
        a, b = ab_all_direct(x)
        for q in range(n):
            ea, eb = ab_naive(alpha_naive(x, q))
            assert abs(a[q] - ea) <= 1e-10 * max(1.0, abs(ea))
            assert abs(b[q] - eb) <= 1e-10 * max(1.0, abs(eb))

    def test_not_generally_unimodular(self):
        rng = np.random.default_rng(8)
        alphas = _alphas(random_unimodular(6, rng), np.array([2]))
        assert np.max(np.abs(np.abs(alphas) - 1.0)) > 1e-3


class TestAbFromAlphas:
    """The (a, b) reduction of ab_all_direct on sequences x = [v, 0, ..., 0],
    whose alpha set at q = 0 is the constant v (1 - 1/N)."""

    def test_zero_alphas(self):
        a, b = ab_all_direct(np.zeros(4, dtype=complex))
        assert np.all(a == 0) and np.all(b == 0)

    def test_unit_alphas(self):
        n = 5
        x = np.zeros(n, dtype=complex)
        x[0] = n / (n - 1)
        a, b = ab_all_direct(x)
        assert a[0] == pytest.approx(4 * n)
        assert b[0] == pytest.approx(16 * n)

    def test_imaginary_alphas(self):
        n = 3
        x = np.zeros(n, dtype=complex)
        x[0] = 1j * n / (n - 1)
        a, b = ab_all_direct(x)
        assert a[0] == pytest.approx(-4 * n)
        assert b[0] == pytest.approx(-16j * n)


class TestFastPath:
    def test_single_element_zero(self):
        a, b = ab_all_fast([1.0 + 0j])
        assert abs(a[0]) < 1e-12 and abs(b[0]) < 1e-12

    def test_all_ones_n4(self):
        a_fast, b_fast = ab_all_fast(np.ones(4, dtype=complex))
        a_dir, b_dir = ab_all_direct(np.ones(4, dtype=complex))
        assert np.max(np.abs(a_fast - a_dir)) < 1e-10 * max(1, np.max(np.abs(a_dir)))
        assert np.max(np.abs(b_fast - b_dir)) < 1e-10 * max(1, np.max(np.abs(b_dir)))

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 16])
    def test_matches_direct_oracle(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(10):
            x = random_unimodular(n, rng)
            a_fast, b_fast = ab_all_fast(x)
            a_dir, b_dir = ab_all_direct(x)
            assert np.all(np.abs(a_fast - a_dir) <= 1e-8 * np.maximum(1.0, np.abs(a_dir)))
            assert np.all(np.abs(b_fast - b_dir) <= 1e-8 * np.maximum(1.0, np.abs(b_dir)))

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 64])
    def test_matches_direct_oracle_off_the_unit_circle(self, n):
        # sum_p c_p e^{j omega_p q} = 2 x[q] is an identity of the transforms,
        # so the fast route must not lean on |x| = 1
        rng = np.random.default_rng(200 + n)
        for _ in range(10):
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            a_fast, b_fast = ab_all_fast(x)
            a_dir, b_dir = ab_all_direct(x)
            assert np.all(np.abs(a_fast - a_dir) <= 1e-8 * np.maximum(1.0, np.abs(a_dir)))
            assert np.all(np.abs(b_fast - b_dir) <= 1e-8 * np.maximum(1.0, np.abs(b_dir)))

    def test_one_forward_and_two_inverse_transforms(self, monkeypatch):
        calls = {"fft": 0, "ifft": 0}
        for name in calls:
            original = getattr(np.fft, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        ab_all_fast(random_unimodular(16, np.random.default_rng(3)))
        assert calls == {"fft": 1, "ifft": 2}

    def test_direct_batch_equals_per_q_composition(self):
        # variables on both sides of the first block edge of ab_all_direct
        rng = np.random.default_rng(77)
        n = _CHUNK + 9
        x = random_unimodular(n, rng)
        a_dir, b_dir = ab_all_direct(x)
        for q in (0, _CHUNK - 1, _CHUNK, n - 1):
            ea, eb = ab_naive(alpha_naive(x, q))
            assert abs(a_dir[q] - ea) < 1e-12 * max(1.0, abs(ea))
            assert abs(b_dir[q] - eb) < 1e-12 * max(1.0, abs(eb))

    def test_spot_check_large_n(self):
        rng = np.random.default_rng(1024)
        x = random_unimodular(1024, rng)
        a_fast, b_fast = ab_all_fast(x)
        a_dir, b_dir = ab_all_direct(x)
        assert np.max(np.abs(a_fast - a_dir) / np.maximum(1.0, np.abs(a_dir))) <= 1e-8
        assert np.max(np.abs(b_fast - b_dir) / np.maximum(1.0, np.abs(b_dir))) <= 1e-8


class TestSurrogateValue:
    def test_single_element(self):
        assert surrogate_value([1.0 + 0j], [1.0 + 0j]) == pytest.approx(2.0, abs=1e-12)

    def test_matches_naive_triple_loop(self):
        rng = np.random.default_rng(4)
        for n in (1, 2, 4):
            x = random_unimodular(n, rng)
            xt = random_unimodular(n, rng)
            assert surrogate_value(x, xt) == pytest.approx(
                surrogate_naive(x, xt), rel=1e-10
            )

    def test_touching(self):
        rng = np.random.default_rng(30)
        for n in (1, 3, 16, 64):
            xt = random_unimodular(n, rng)
            ref = isl_quartic(xt)
            assert abs(surrogate_value(xt, xt) - ref) <= 1e-8 * ref

    def test_domination(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            n = int(rng.integers(1, 17))
            x = random_unimodular(n, rng)
            xt = random_unimodular(n, rng)
            u = surrogate_value(x, xt)
            assert u >= isl_quartic(x) - 1e-8 * u

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            surrogate_value([1.0, 1.0], [1.0])
