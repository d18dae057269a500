import numpy as np
import pytest

from reconkit.config import config_dict, read_config
from reconkit.noise import NoiseParams, sample_noise, sample_params


class TestNoiseParams:
    def test_defaults_clean(self):
        p = NoiseParams()
        assert p.sigma == 0 and p.gamma == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            NoiseParams(sigma=-0.1)
        with pytest.raises(ValueError):
            NoiseParams(gamma=-1.0)

    def test_dict_round_trip(self):
        p = NoiseParams(sigma=0.05, gamma=0.2)
        assert read_config(NoiseParams, config_dict(p), "noise") == p


class TestSampleNoise:
    def test_zero_noise_identity(self):
        clean = np.random.default_rng(0).random((1, 8, 8))
        y, clamped = sample_noise(clean, NoiseParams(), seed=1)
        assert np.array_equal(y, clean)
        assert not clamped

    def test_deterministic(self):
        clean = np.random.default_rng(1).random((1, 8, 8))
        p = NoiseParams(sigma=0.1, gamma=0.3)
        y1, _ = sample_noise(clean, p, seed=7)
        y2, _ = sample_noise(clean, p, seed=7)
        y3, _ = sample_noise(clean, p, seed=8)
        assert np.array_equal(y1, y2)
        assert not np.array_equal(y1, y3)

    def test_gaussian_moments(self):
        # Monte Carlo: mean == clean, std == sigma
        clean = np.full((1, 64, 64), 0.5)
        p = NoiseParams(sigma=0.2)
        draws = np.stack([sample_noise(clean, p, seed=s)[0] for s in range(200)])
        err = draws - clean
        assert abs(err.mean()) < 0.005
        assert abs(err.std() - 0.2) < 0.005

    def test_poisson_moments(self):
        # y = g * Poisson(x/g): mean x, variance g * x
        x0, g = 0.8, 0.05
        clean = np.full((1, 64, 64), x0)
        p = NoiseParams(gamma=g)
        draws = np.stack([sample_noise(clean, p, seed=s)[0] for s in range(200)])
        assert abs(draws.mean() - x0) < 0.005
        assert abs(draws.var() - g * x0) / (g * x0) < 0.05

    def test_mixed_variance(self):
        # total variance: g * x + sigma^2
        x0, g, s0 = 0.6, 0.04, 0.1
        clean = np.full((1, 64, 64), x0)
        p = NoiseParams(sigma=s0, gamma=g)
        draws = np.stack([sample_noise(clean, p, seed=s)[0] for s in range(300)])
        expect = g * x0 + s0 ** 2
        assert abs(draws.var() - expect) / expect < 0.05

    def test_negative_clean_clamped(self):
        clean = np.array([[[-1.0, 0.5]]])
        y, clamped = sample_noise(clean, NoiseParams(gamma=0.1), seed=0)
        assert clamped
        assert np.all(y >= 0)

    def test_no_clamp_flag_for_nonnegative(self):
        clean = np.array([[[0.0, 0.5]]])
        _, clamped = sample_noise(clean, NoiseParams(gamma=0.1), seed=0)
        assert not clamped

    def test_seed_sequence_list(self):
        clean = np.zeros((1, 4, 4))
        y1, _ = sample_noise(clean, NoiseParams(sigma=1.0), seed=[3, 0])
        y2, _ = sample_noise(clean, NoiseParams(sigma=1.0), seed=[3, 1])
        assert not np.array_equal(y1, y2)


class TestSampleParams:
    def test_fixed_values(self):
        p = sample_params(0.1, 0.2, seed=0)
        assert p == NoiseParams(sigma=0.1, gamma=0.2)

    def test_none_gamma(self):
        p = sample_params((0.0, 0.2), None, seed=1)
        assert p.gamma == 0.0
        assert 0.0 <= p.sigma <= 0.2

    def test_uniform_coverage(self):
        sigmas = [sample_params((0.001, 0.2), seed=s).sigma for s in range(500)]
        assert min(sigmas) < 0.02 and max(sigmas) > 0.18
        assert abs(np.mean(sigmas) - 0.1005) < 0.01

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            sample_params((0.5, 0.1), seed=0)

    def test_deterministic(self):
        assert sample_params((0, 1), (0, 1), seed=9) == sample_params((0, 1), (0, 1), seed=9)
