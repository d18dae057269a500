"""Image quality metrics: PSNR and the structural similarity index."""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = ["psnr", "ssim"]


def psnr(ref: np.ndarray, test: np.ndarray, data_range: float = 1.0) -> float:
    """Peak signal-to-noise ratio in dB, capped at 99 for (near-)exact
    reconstructions."""
    ref = np.asarray(ref, dtype=np.float64)
    test = np.asarray(test, dtype=np.float64)
    if ref.shape != test.shape:
        raise ValueError("shape mismatch")
    mse = np.mean((ref - test) ** 2)
    if mse == 0:
        return 99.0
    val = 10.0 * np.log10(data_range ** 2 / mse)
    return float(min(val, 99.0))


def _gaussian_taps(size: int = 11, sigma: float = 1.5) -> np.ndarray:
    r = np.arange(size) - size // 2
    g = np.exp(-0.5 * (r / sigma) ** 2)
    return g / g.sum()


def _gaussian_filter(img: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Correlate the last two axes of ``img`` with the separable window
    ``g g^T``, extending the borders by half-sample symmetry (scipy.ndimage's
    ``"reflect"``); one contraction per axis."""
    h = g.size // 2
    pad = np.pad(img, [(0, 0)] * (img.ndim - 2) + [(h, h), (h, h)], mode="symmetric")
    rows = sliding_window_view(pad, g.size, axis=-1) @ g
    return sliding_window_view(rows, g.size, axis=-2) @ g


def ssim(ref: np.ndarray, test: np.ndarray, data_range: float = 1.0) -> float:
    """Mean structural similarity with an 11x11 Gaussian window (sigma 1.5)
    and the usual constants k1 = 0.01, k2 = 0.03, averaged over channels.
    Inputs are (C, H, W) or (H, W)."""
    ref = np.asarray(ref, dtype=np.float64)
    test = np.asarray(test, dtype=np.float64)
    if ref.shape != test.shape:
        raise ValueError("shape mismatch")
    if ref.ndim == 2:
        ref, test = ref[None], test[None]
    if ref.ndim != 3:
        raise ValueError("expected (C, H, W) images")
    c1 = (0.01 * data_range) ** 2
    c2 = (0.03 * data_range) ** 2
    mu_x, mu_y, xx, yy, xy = _gaussian_filter(
        np.stack([ref, test, ref * ref, test * test, ref * test]), _gaussian_taps())
    var_x = xx - mu_x ** 2
    var_y = yy - mu_y ** 2
    cov = xy - mu_x * mu_y
    num = (2 * mu_x * mu_y + c1) * (2 * cov + c2)
    den = (mu_x ** 2 + mu_y ** 2 + c1) * (var_x + var_y + c2)
    return float(np.mean((num / den).mean(axis=(1, 2))))
