"""Poisson-Gaussian measurement noise: y = gamma * Poisson(clean / gamma) + sigma * n.

The convention gamma == 0 means a purely Gaussian model; sigma == gamma == 0
returns the clean measurement unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["NoiseParams", "sample_noise", "sample_params"]


@dataclass(frozen=True)
class NoiseParams:
    sigma: float = 0.0
    gamma: float = 0.0

    def __post_init__(self):
        if self.sigma < 0 or self.gamma < 0:
            raise ValueError("noise parameters must be nonnegative")


def sample_noise(clean: np.ndarray, params: NoiseParams, seed: int | list[int] = 0):
    """Draw one noisy measurement; deterministic under ``seed``.

    Negative clean values are clamped to zero for the Poisson branch (they
    can occur when resampling from network outputs); the returned flag
    reports whether clamping happened.

    Returns (noisy, clamped_flag).
    """
    clean = np.asarray(clean, dtype=np.float64)
    if params.sigma == 0 and params.gamma == 0:
        return clean.copy(), False
    rng = np.random.default_rng(seed)
    clamped = False
    if params.gamma > 0:
        rate = clean / params.gamma
        if np.any(rate < 0):
            rate = np.clip(rate, 0, None)
            clamped = True
        y = params.gamma * rng.poisson(rate).astype(np.float64)
    else:
        y = clean.copy()
    if params.sigma > 0:
        y = y + params.sigma * rng.standard_normal(clean.shape)
    return y, clamped


def sample_params(sigma_range, gamma_range=None, seed: int | list[int] = 0) -> NoiseParams:
    """Uniform draw from the task's noise ranges.

    A range is (min, max); a single value means a fixed level; ``None`` for
    the gamma range means no Poisson component (gamma = 0).
    """
    rng = np.random.default_rng(seed)

    def draw(rng_, rangespec):
        if rangespec is None:
            return 0.0
        if np.isscalar(rangespec):
            return float(rangespec)
        lo, hi = rangespec
        if lo > hi:
            raise ValueError(f"invalid range ({lo}, {hi})")
        if lo == hi:
            return float(lo)
        return float(rng_.uniform(lo, hi))

    return NoiseParams(sigma=draw(rng, sigma_range), gamma=draw(rng, gamma_range))
