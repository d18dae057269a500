import sys
import threading

import numpy as np
import pytest
import scipy.fft
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reconkit import operators as ops


def adjoint_test(op, trials=100, seed=0, tol=1e-10):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        x = rng.standard_normal(op.domain_shape)
        y = rng.standard_normal(op.range_shape)
        lhs = np.vdot(op.apply(x), y)
        rhs = np.vdot(x, op.adjoint(y))
        scale = max(abs(lhs), abs(rhs), 1e-30)
        worst = max(worst, abs(lhs - rhs) / scale)
    assert worst < tol, f"adjoint identity violated: {worst:.2e}"


def linearity_test(op, seed=0, tol=1e-10):
    rng = np.random.default_rng(seed)
    x1 = rng.standard_normal(op.domain_shape)
    x2 = rng.standard_normal(op.domain_shape)
    a, b = rng.standard_normal(2)
    lhs = op.apply(a * x1 + b * x2)
    rhs = a * op.apply(x1) + b * op.apply(x2)
    assert np.linalg.norm(lhs - rhs) < tol * max(np.linalg.norm(rhs), 1)


def all_operators():
    """One representative of every operator kind, on small grids."""
    rng = np.random.default_rng(42)
    out = {}
    out["identity"] = ops.identity_operator((1, 8, 8))
    out["blur_valid"] = ops.make_blur(ops.make_gaussian_kernel(1.2, 5), (1, 12, 12))
    out["blur_rgb_7x7"] = ops.make_blur(ops.make_gaussian_kernel(1.5, 7), (3, 20, 26))
    out["blur_motion_31x31"] = ops.make_blur(ops.make_motion_kernel(0.6, 0.5, seed=12), (1, 40, 44))
    mask = ops.make_bernoulli_mask((2, 10, 10), 0.6, seed=1)
    out["inpainting"] = ops.make_inpainting(mask)
    out["mri"] = ops.make_mri(ops.make_mri_mask((2, 8, 8), 4, seed=2), (2, 8, 8))
    smaps = ops.make_sensitivity_maps(4, (2, 8, 8), seed=3)
    out["multicoil_mri"] = ops.make_multicoil_mri(
        ops.make_mri_mask((2, 8, 8), 2, seed=4), smaps, (2, 8, 8))
    out["ct"] = ops.make_ct_radon(10, (1, 12, 12))
    out["sr2"] = ops.make_downsampling(2, "bicubic", (1, 12, 12))
    out["sr4"] = ops.make_downsampling(4, "bilinear", (3, 16, 16))
    out["sr2_nonsquare"] = ops.make_downsampling(2, "bicubic", (2, 12, 18))
    sign, keep = ops.make_cs_pattern((1, 8, 8), 4, seed=11)
    out["compressed_sensing"] = ops.make_compressed_sensing(sign, keep, (1, 8, 8))
    sign, keep = ops.make_cs_pattern((2, 12, 20), 4, seed=12)
    out["compressed_sensing_2ch_12x20"] = ops.make_compressed_sensing(sign, keep, (2, 12, 20))
    out["demosaic"] = ops.make_demosaic((3, 8, 8))
    out["upsampler"] = ops.make_upsampler(1, (1, 8, 8))
    out["upsampler_nonsquare"] = ops.make_upsampler(2, (2, 6, 9))
    base = ops.make_inpainting(ops.make_bernoulli_mask((1, 16, 16), 0.5, seed=5))
    out["coarse"] = ops.make_coarse(base, 1)
    return out


OPERATORS = all_operators()


@pytest.mark.parametrize("name", sorted(OPERATORS))
def test_adjoint_identity(name):
    adjoint_test(OPERATORS[name], trials=100, seed=7)


@pytest.mark.parametrize("name", sorted(OPERATORS))
def test_linearity(name):
    linearity_test(OPERATORS[name], seed=8)


class TestApplyAdjointBasics:
    def test_identity(self):
        op = OPERATORS["identity"]
        x = np.random.default_rng(0).standard_normal(op.domain_shape)
        assert np.array_equal(op.apply(x), x)

    def test_inpainting_is_elementwise(self):
        mask = ops.make_bernoulli_mask((1, 6, 6), 0.5, seed=9)
        op = ops.make_inpainting(mask)
        x = np.random.default_rng(1).standard_normal((1, 6, 6))
        assert np.array_equal(op.apply(x), mask * x)
        assert np.array_equal(op.adjoint(x), op.apply(x))  # self-adjoint

    def test_shape_mismatch(self):
        op = OPERATORS["blur_valid"]
        with pytest.raises(ValueError):
            op.apply(np.zeros((1, 5, 5)))
        with pytest.raises(ValueError):
            op.adjoint(np.zeros((1, 5, 5)))

    def test_blur_matches_dense_oracle(self):
        k = ops.make_gaussian_kernel(0.8, 3)
        op = ops.make_blur(k, (1, 5, 5))
        mat = ops.dense_matrix(op)
        x = np.arange(25, dtype=float).reshape(1, 5, 5) / 25.0
        ref = (mat @ x.ravel()).reshape(op.range_shape)
        assert np.allclose(op.apply(x), ref, atol=1e-12)
        y = np.random.default_rng(2).standard_normal(op.range_shape)
        assert np.allclose(op.adjoint(y), (mat.T @ y.ravel()).reshape(1, 5, 5), atol=1e-12)


class TestOperatorNorm:
    def test_diagonal(self):
        d = np.array([3.0, 1.0, 0.5]).reshape(1, 1, 3)
        op = ops.OperatorHandle((1, 1, 3), (1, 1, 3), lambda x: d * x, lambda y: d * y)
        assert abs(ops.operator_norm(op, iters=500, tol=1e-9) - 3.0) < 1e-3

    def test_unitary_dft(self):
        op = ops.make_mri(np.ones((8, 8)), (2, 8, 8))
        assert abs(ops.operator_norm(op) - 1.0) < 1e-6

    def test_blur_matches_dense_svd(self):
        op = ops.make_blur(ops.make_gaussian_kernel(2.0, 7), (1, 16, 16))
        mat = ops.dense_matrix(op)
        smax = np.linalg.svd(mat, compute_uv=False)[0]
        assert abs(ops.operator_norm(op, iters=2000, tol=1e-10) - smax) < 1e-4

    def test_normalize(self):
        op = ops.make_blur(ops.make_gaussian_kernel(1.0, 5), (1, 12, 12))
        normed = ops.normalize(op)
        est = ops.operator_norm(normed, iters=1000, tol=1e-9, seed=5)
        assert abs(est - 1.0) < 1e-3

    def test_scaled_handle_has_its_own_norm(self):
        # the base's cached norm must not be handed to a scaled copy
        op = ops.make_blur(ops.make_gaussian_kernel(1.0, 5), (1, 12, 12))
        scaled = ops.scale_operator(op, 2.0)
        assert abs(scaled.norm() - 2.0 * op.norm()) < 1e-12

    def test_zero_operator(self):
        zero = ops.make_inpainting(np.zeros((1, 4, 4)))
        assert zero.norm() == 0.0
        with pytest.raises(ValueError):
            ops.normalize(zero)
        generic = ops.OperatorHandle((1, 2, 2), (1, 2, 2), np.zeros_like, np.zeros_like)
        assert ops.operator_norm(generic) == 0.0


class TestBlurFactory:
    def test_delta_kernel_is_center_crop(self):
        delta = np.zeros((3, 3))
        delta[1, 1] = 1.0
        op = ops.make_blur(ops.BlurKernel(delta), (1, 6, 6))
        x = np.random.default_rng(3).standard_normal((1, 6, 6))
        assert np.allclose(op.apply(x), x[:, 1:5, 1:5])

    def test_mean_filter_on_constant(self):
        k = ops.BlurKernel(np.ones((3, 3)) / 9.0)
        op = ops.make_blur(k, (1, 8, 8))
        out = op.apply(np.full((1, 8, 8), 0.7))
        assert np.allclose(out, 0.7, atol=1e-12)

    def test_kernel_too_large(self):
        with pytest.raises(ValueError):
            ops.make_blur(ops.make_gaussian_kernel(1.0, 9), (1, 8, 8))

    @pytest.mark.parametrize("name", ["blur_rgb_7x7", "blur_motion_31x31"])
    def test_matches_dense_loop(self, name):
        op = OPERATORS[name]
        k = op.arrays["kernel"]
        ks = k.shape[0]
        rng = np.random.default_rng(14)
        x = rng.standard_normal(op.domain_shape)
        y = rng.standard_normal(op.range_shape)
        c, hout, wout = op.range_shape
        ref = np.zeros(op.range_shape)
        ref_adj = np.zeros(op.domain_shape)
        for i in range(hout):
            for j in range(wout):
                ref[:, i, j] = (x[:, i:i + ks, j:j + ks] * k).sum(axis=(1, 2))
                ref_adj[:, i:i + ks, j:j + ks] += y[:, i, j, None, None] * k
        assert np.linalg.norm(op.apply(x) - ref) < 1e-12 * np.linalg.norm(ref)
        assert np.linalg.norm(op.adjoint(y) - ref_adj) < 1e-12 * np.linalg.norm(ref_adj)


def dense_correlation(k, shape):
    """Dense matrix of the per-channel valid cross-correlation, one output
    pixel (row) at a time."""
    c, h, w = shape
    ks = k.shape[0]
    ho, wo = h - ks + 1, w - ks + 1
    mat = np.zeros((c, ho, wo, c, h, w))
    for ch in range(c):
        for i in range(ho):
            for j in range(wo):
                mat[ch, i, j, ch, i:i + ks, j:j + ks] = k
    return mat.reshape(c * ho * wo, c * h * w)


BLUR_KERNELS = {
    "gaussian3": (ops.make_gaussian_kernel(0.8, 3), (9, 13)),
    "gaussian7": (ops.make_gaussian_kernel(1.5, 7), (12, 17)),
    "gaussian31": (ops.make_gaussian_kernel(4.0, 31), (33, 36)),
    "motion7": (ops.make_motion_kernel(0.5, 0.5, 7, seed=21), (13, 10)),
    "motion31": (ops.make_motion_kernel(0.6, 0.5, 31, seed=22), (34, 33)),
    "random5": (ops.BlurKernel(np.random.default_rng(23).random((5, 5))), (9, 14)),
}


class TestBlurSVD:
    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("name", sorted(BLUR_KERNELS))
    def test_dense_matrix_matches_loop(self, name, channels):
        kernel, hw = BLUR_KERNELS[name]
        op = ops.make_blur(kernel, (channels,) + hw)
        ref = dense_correlation(kernel.array, op.domain_shape)
        assert np.abs(ops.dense_matrix(op) - ref).max() < 1e-12
        adj = ops.OperatorHandle(op.range_shape, op.domain_shape, op.adjoint, op.apply)
        assert np.abs(ops.dense_matrix(adj) - ref.T).max() < 1e-12

    def test_rank_decides_separability(self):
        assert np.linalg.matrix_rank(BLUR_KERNELS["random5"][0].array) == 5
        for name, (kernel, hw) in BLUR_KERNELS.items():
            op = ops.make_blur(kernel, (1,) + hw)
            assert (op.factors is not None) == name.startswith("gaussian"), name

    @pytest.mark.parametrize("fine_shape", [None, (1, 24, 32)])
    def test_rank1_norms_closed_form(self, fine_shape):
        # a kernel no other test builds, so nothing is cached yet
        op = ops.make_blur(ops.make_gaussian_kernel(1.37, 5), (1, 20, 28))
        before = ops.cache_stats()["lanczos_applies"]
        norm = op.norm()
        coarse = [ops.make_coarse(op, s, fine_shape=fine_shape) for s in range(3)]
        assert ops.cache_stats()["lanczos_applies"] == before
        assert abs(norm - dense_norm(op)) < 1e-12
        for s, cop in enumerate(coarse):
            assert abs(dense_norm(cop) - 1.0) < 1e-12, f"scale {s}"


class TestKernels:
    def test_gaussian_center_max_and_symmetry(self):
        k = ops.make_gaussian_kernel(1.0, 31).array
        assert k[15, 15] == k.max()
        assert np.allclose(k, np.rot90(k))

    def test_gaussian_small_sigma_is_delta(self):
        k = ops.make_gaussian_kernel(1e-3, 7).array
        assert k[3, 3] > 0.999

    def test_gaussian_second_moment(self):
        sigma = 2.0
        k = ops.make_gaussian_kernel(sigma, 31).array
        r = np.arange(31) - 15
        m2 = (k.sum(axis=0) * r ** 2).sum()
        assert abs(m2 - sigma ** 2) / sigma ** 2 < 0.02

    def test_gaussian_invalid_sigma(self):
        with pytest.raises(ValueError):
            ops.make_gaussian_kernel(0.0)

    def test_motion_normalized(self):
        for seed in (0, 1, 2):
            k = ops.make_motion_kernel(0.6, 0.5, 31, seed=seed).array
            assert abs(k.sum() - 1.0) < 1e-12
            assert np.all(k >= 0)

    def test_motion_zero_amplitude_concentrates(self):
        k = ops.make_motion_kernel(0.5, 0.0, 31, seed=4).array
        assert k.max() > 0.99

    def test_motion_hard_wider_than_easy(self):
        easy = ops.make_motion_kernel(0.1, 0.1, 31, seed=7).array
        hard = ops.make_motion_kernel(1.2, 1.0, 31, seed=7).array
        support = lambda k: (k > 1e-4 * k.max()).sum()
        assert support(hard) > support(easy)

    def test_motion_deterministic(self):
        a = ops.make_motion_kernel(0.6, 0.5, 31, seed=3).array
        b = ops.make_motion_kernel(0.6, 0.5, 31, seed=3).array
        assert np.array_equal(a, b)


class TestInpainting:
    def test_all_ones_is_identity(self):
        op = ops.make_inpainting(np.ones((1, 5, 5)))
        x = np.random.default_rng(4).standard_normal((1, 5, 5))
        assert np.array_equal(op.apply(x), x)

    def test_idempotent_projector(self):
        op = OPERATORS["inpainting"]
        x = np.random.default_rng(5).standard_normal(op.domain_shape)
        assert np.allclose(op.normal(op.normal(x)), op.normal(x))

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError):
            ops.make_inpainting(np.full((1, 4, 4), 0.5))

    def test_bernoulli_fraction(self):
        m = ops.make_bernoulli_mask((1, 128, 128), 0.3, seed=3)
        frac = m.mean()
        assert abs(frac - 0.3) < 0.03


class TestMRI:
    def test_full_mask_parseval(self):
        op = ops.make_mri(np.ones((8, 8)), (2, 8, 8))
        x = np.random.default_rng(6).standard_normal((2, 8, 8))
        assert abs(np.linalg.norm(op.apply(x)) - np.linalg.norm(x)) < 1e-10

    def test_projector(self):
        op = OPERATORS["mri"]
        x = np.random.default_rng(7).standard_normal((2, 8, 8))
        p = op.normal(x)
        assert np.allclose(op.normal(p), p, atol=1e-10)

    def test_mask_line_fraction(self):
        m = ops.make_mri_mask((2, 64, 64), 4, seed=8)
        lines = m[:, 0].sum()
        assert abs(lines - 16) <= 1

    def test_wrong_channels(self):
        with pytest.raises(ValueError):
            ops.make_mri(np.ones((8, 8)), (1, 8, 8))


class TestMulticoil:
    def test_single_uniform_coil_reduces_to_mri(self):
        h = w = 8
        smap = np.zeros((1, 2, h, w))
        smap[0, 0] = 1.0  # s == 1 everywhere
        mask = ops.make_mri_mask((2, h, w), 2, seed=9)
        mc = ops.make_multicoil_mri(mask, smap, (2, h, w))
        sc = ops.make_mri(mask, (2, h, w))
        x = np.random.default_rng(8).standard_normal((2, h, w))
        assert np.allclose(mc.apply(x), sc.apply(x), atol=1e-13)

    def test_full_mask_normal_is_identity(self):
        smaps = ops.make_sensitivity_maps(4, (2, 8, 8), seed=10)
        op = ops.make_multicoil_mri(np.ones((8, 8)), smaps, (2, 8, 8))
        x = np.random.default_rng(9).standard_normal((2, 8, 8))
        assert np.allclose(op.normal(x), x, atol=1e-8)

    def test_unnormalized_maps_rejected(self):
        bad = np.ones((2, 2, 4, 4))
        with pytest.raises(ValueError):
            ops.make_multicoil_mri(np.ones((4, 4)), bad, (2, 4, 4))

    def test_mask_shape_rejected(self):
        smaps = ops.make_sensitivity_maps(2, (2, 4, 4), seed=10)
        with pytest.raises(ValueError):
            ops.make_multicoil_mri(np.ones(4), smaps, (2, 4, 4))


class TestRadon:
    def test_mass_conservation(self):
        h = 16
        yy, xx = np.meshgrid(*[np.arange(h) - h / 2 + 0.5] * 2, indexing="ij")
        disk = ((yy ** 2 + xx ** 2) < (h / 3) ** 2).astype(float)[None]
        op = ops.make_ct_radon(12, (1, h, h))
        sino = op.apply(disk)
        sums = sino[0].sum(axis=1)
        assert np.max(np.abs(sums - disk.sum())) < 1e-6 * disk.sum()

    def test_center_pixel_horizontal_line(self):
        h = 17  # odd so one pixel sits exactly at the center
        x = np.zeros((1, h, h))
        x[0, h // 2, h // 2] = 1.0
        op = ops.make_ct_radon(8, (1, h, h))
        sino = op.apply(x)[0]
        peaks = sino.argmax(axis=1)
        assert np.all(peaks == peaks[0])

    def test_dense_oracle(self):
        op = ops.make_ct_radon(10, (1, 16, 16))
        mat = ops.dense_matrix(op)
        x = np.random.default_rng(10).standard_normal((1, 16, 16))
        assert np.allclose(op.apply(x).ravel(), mat @ x.ravel(), atol=1e-10)
        adjoint_test(op, trials=50, seed=11)

    def test_bad_angles(self):
        with pytest.raises(ValueError):
            ops.make_ct_radon(0, (1, 8, 8))


class TestDownsampling:
    def test_constant_preserved(self):
        for filt in ("bicubic", "bilinear"):
            op = ops.make_downsampling(2, filt, (1, 12, 12))
            out = op.apply(np.full((1, 12, 12), 0.4))
            assert np.allclose(out, 0.4, atol=1e-12)

    def test_factor_composition(self):
        # smooth input: cascading two x2 stages approximates one x4 stage
        h = 32
        t = np.arange(h) / h
        x = (np.outer(np.sin(2 * np.pi * t), np.cos(2 * np.pi * t)) * 0.5 + 0.5)[None]
        op2a = ops.make_downsampling(2, "bicubic", (1, h, h))
        op2b = ops.make_downsampling(2, "bicubic", (1, h // 2, h // 2))
        op4 = ops.make_downsampling(4, "bicubic", (1, h, h))
        cascade = op2b.apply(op2a.apply(x))
        direct = op4.apply(x)
        assert np.max(np.abs(cascade - direct)) < 1e-3

    def test_indivisible_rejected(self):
        with pytest.raises(ValueError):
            ops.make_downsampling(4, "bicubic", (1, 10, 10))


class TestCompressedSensing:
    def test_full_sampling_isometry(self):
        sign = np.random.default_rng(11).choice([-1.0, 1.0], size=(8, 8))
        keep = np.arange(64)
        op = ops.make_compressed_sensing(sign, keep, (1, 8, 8))
        x = np.random.default_rng(12).standard_normal((1, 8, 8))
        assert abs(np.linalg.norm(op.apply(x)) - np.linalg.norm(x)) < 1e-10

    def test_row_orthonormality(self):
        op = OPERATORS["compressed_sensing"]
        y = np.random.default_rng(13).standard_normal(op.range_shape)
        aat = op.apply(op.adjoint(y))
        assert np.allclose(aat, y, atol=1e-10)

    def test_matches_per_channel_dst(self):
        op = OPERATORS["compressed_sensing_2ch_12x20"]
        sign, keep = op.arrays["sign_mask"], op.arrays["keep_indices"].astype(np.int64)
        rng = np.random.default_rng(14)
        x = rng.standard_normal(op.domain_shape)
        y = rng.standard_normal(op.range_shape)
        ref_apply = np.stack([scipy.fft.dstn(sign * ch, type=2, norm="ortho").ravel()[keep]
                              for ch in x])
        ref_adjoint = np.empty(op.domain_shape)
        for c, yc in enumerate(y):
            coeffs = np.zeros(sign.size)
            coeffs[keep] = yc
            ref_adjoint[c] = sign * scipy.fft.idstn(coeffs.reshape(sign.shape), type=2, norm="ortho")
        assert np.abs(op.apply(x) - ref_apply).max() < 1e-12
        assert np.abs(op.adjoint(y) - ref_adjoint).max() < 1e-12

    def test_duplicate_indices_rejected(self):
        sign = np.ones((4, 4))
        with pytest.raises(ValueError):
            ops.make_compressed_sensing(sign, [0, 0, 1], (1, 4, 4))

    @pytest.mark.parametrize("bad", [-1, 16])
    def test_out_of_range_indices_rejected(self, bad):
        with pytest.raises(ValueError):
            ops.make_compressed_sensing(np.ones((4, 4)), [0, bad], (1, 4, 4))


class TestDemosaic:
    def test_every_mosaic_pixel_from_one_channel(self):
        op = ops.make_demosaic((3, 6, 6))
        x = np.random.default_rng(14).standard_normal((3, 6, 6))
        y = op.apply(x)[0]
        sel = op.arrays["selector"]
        ref = (sel * x).sum(axis=0)
        assert np.array_equal(y, ref)
        assert np.allclose(sel.sum(axis=0), 1)  # exactly one channel per pixel

    def test_normal_is_diagonal_selector(self):
        op = ops.make_demosaic((3, 4, 4))
        x = np.random.default_rng(15).standard_normal((3, 4, 4))
        assert np.allclose(op.normal(x), op.arrays["selector"] * x)

    def test_wrong_channels(self):
        with pytest.raises(ValueError):
            ops.make_demosaic((1, 4, 4))


class TestDFT:
    def test_inversion_and_parseval(self):
        rng = np.random.default_rng(16)
        x = rng.standard_normal((2, 16, 16))
        assert np.allclose(ops.idft2(ops.dft2(x)), x, atol=1e-10)
        assert abs(np.linalg.norm(ops.dft2(x)) - np.linalg.norm(x)) < 1e-10

    def test_against_naive_dft(self):
        rng = np.random.default_rng(17)
        n = 16
        x = rng.standard_normal((2, n, n))
        z = x[0] + 1j * x[1]
        k = np.arange(n)
        w = np.exp(-2j * np.pi * np.outer(k, k) / n)
        naive = (w @ z @ w.T) / n  # orthonormal scaling
        fast = ops.dft2(x)
        assert np.max(np.abs((fast[0] + 1j * fast[1]) - naive)) < 1e-8

    def test_dst_matches_naive(self):
        n = 8
        rng = np.random.default_rng(18)
        v = rng.standard_normal(n)
        # DST-II with orthonormal scaling, direct formula
        naive = np.array([
            sum(v[j] * np.sin(np.pi * (j + 0.5) * (k + 1) / n) for j in range(n))
            for k in range(n)
        ]) * np.sqrt(2.0 / n)
        naive[-1] /= np.sqrt(2.0)
        fast = scipy.fft.dst(v, type=2, norm="ortho")
        assert np.allclose(fast, naive, atol=1e-10)


class TestUpsampler:
    def test_dc_preservation(self):
        op = ops.make_upsampler(2, (1, 8, 8))
        out = op.apply(np.full((1, 8, 8), 0.3))
        assert np.max(np.abs(out - 0.3)) < 1e-6

    def test_low_frequency_resampling(self):
        n = 16
        t = np.arange(n)
        x = np.sin(2 * np.pi * t / n)
        img = np.outer(x, x)[None]
        op = ops.make_upsampler(1, (1, n, n))
        up = op.apply(img)
        rec = up[:, ::2, ::2]
        assert np.linalg.norm(rec - img) / np.linalg.norm(img) < 1e-2


class TestCoarse:
    def test_scale_zero_is_normalized_base(self):
        base = ops.make_inpainting(ops.make_bernoulli_mask((1, 8, 8), 0.5, seed=20))
        c0 = ops.make_coarse(base, 0)
        x = np.random.default_rng(19).standard_normal((1, 8, 8))
        assert np.allclose(c0.apply(x), base.apply(x) / base.norm(), atol=1e-8)

    def test_coarse_adjoint_and_unit_norm(self):
        base = ops.make_blur(ops.make_gaussian_kernel(1.0, 5), (1, 16, 16))
        c = ops.make_coarse(base, 1)
        adjoint_test(c, trials=50, seed=22)
        assert abs(ops.operator_norm(c, iters=500, tol=1e-8, seed=1) - 1.0) < 1e-3

    def test_cache(self):
        base = ops.make_inpainting(np.ones((1, 8, 8)))
        assert ops.make_coarse(base, 1) is ops.make_coarse(base, 1)


def dense_norm(op):
    """Largest singular value from a dense SVD of A, or of A^T A when
    that is the smaller matrix."""
    if np.prod(op.range_shape) == 0:
        return 0.0
    if np.prod(op.range_shape) <= np.prod(op.domain_shape):
        return np.linalg.svd(ops.dense_matrix(op), compute_uv=False)[0]
    gram = ops.OperatorHandle(op.domain_shape, op.domain_shape, op.normal, op.normal)
    return np.sqrt(np.linalg.svd(ops.dense_matrix(gram), compute_uv=False)[0])


def model_kinds(n):
    """One handle of every kind a 1-, 2- or 3-channel model head takes."""
    shape, cplx = (1, n, n), (2, n, n)
    sign, keep = ops.make_cs_pattern(shape, 4, seed=3)
    return {
        "identity": ops.identity_operator(shape),
        "blur": ops.make_blur(ops.make_gaussian_kernel(1.0, 7), shape),
        "inpainting": ops.make_inpainting(ops.make_bernoulli_mask(shape, 0.5, seed=1)),
        "mri": ops.make_mri(ops.make_mri_mask(cplx, 4, seed=2), cplx),
        "multicoil_mri": ops.make_multicoil_mri(
            ops.make_mri_mask(cplx, 4, seed=2), ops.make_sensitivity_maps(2, cplx, seed=2), cplx),
        "ct": ops.make_ct_radon(n // 4, shape),
        "downsampling": ops.make_downsampling(2, "bicubic", shape),
        "compressed_sensing": ops.make_compressed_sensing(sign, keep, shape),
        "demosaic": ops.make_demosaic((3, n, n)),
    }


@pytest.mark.parametrize("n", [16, 32])
@pytest.mark.parametrize("kind", sorted(model_kinds(16)))
def test_unit_norm_against_dense_svd(kind, n):
    op = model_kinds(n)[kind]
    c, h, w = op.domain_shape
    padded = ops.make_coarse(op, 1, (c, h + 4, w + 4))  # fine grid 2 px larger per side
    for unit in (ops.normalize(op), ops.make_coarse(op, 0), ops.make_coarse(op, 1),
                 ops.make_coarse(op, 2), padded):
        gap = abs(dense_norm(unit) - 1.0)
        assert gap < 1e-12, f"{kind} {n}: {unit.kind} {unit.domain_shape} gap {gap:.1e}"


def build(kind, n, seed):
    """A keyed handle of ``kind`` at n x n, drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    shape = (1, n, n)
    if kind == "blur":
        return ops.make_blur(ops.make_motion_kernel(0.5, 0.5, 5, seed=seed), shape)
    if kind == "inpainting":
        return ops.make_inpainting(ops.make_bernoulli_mask(shape, rng.uniform(0.2, 0.8), seed=seed))
    if kind == "mri":
        return ops.make_mri(ops.make_mri_mask((2, n, n), 2, seed=seed), (2, n, n))
    if kind == "compressed_sensing":
        sign, keep = ops.make_cs_pattern(shape, 2, seed=seed)
        return ops.make_compressed_sensing(sign, keep, shape)
    if kind == "ct":
        return ops.make_ct_radon(int(rng.integers(1, 5)), shape)
    return ops.make_downsampling(2, ["bicubic", "bilinear"][seed % 2], shape)


KEYED = ["blur", "inpainting", "mri", "compressed_sensing", "ct", "downsampling"]


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(KEYED), n=st.sampled_from([8, 12]),
       seed=st.integers(0, 2 ** 20), scale=st.integers(0, 1))
def test_equal_definitions_share_key_and_coarse(kind, n, seed, scale):
    a, b = build(kind, n, seed), build(kind, n, seed)
    assert a is not b and a.key == b.key and hash(a.key) == hash(b.key)
    assert ops.make_coarse(a, scale) is ops.make_coarse(b, scale)
    assert a.norm() == b.norm()


@settings(max_examples=30, deadline=None)
@given(n=st.sampled_from([6, 8]), seed=st.integers(0, 2 ** 20), data=st.data())
def test_one_flipped_pixel_changes_key(n, seed, data):
    i = data.draw(st.integers(0, n - 1))
    j = data.draw(st.integers(0, n - 1))
    mask = ops.make_bernoulli_mask((1, n, n), 0.5, seed=seed)
    flipped = mask.copy()
    flipped[0, i, j] = 1.0 - flipped[0, i, j]
    assert ops.make_inpainting(mask).key != ops.make_inpainting(flipped).key
    assert ops.make_mri(mask[0], (2, n, n)).key != ops.make_mri(flipped[0], (2, n, n)).key


@settings(max_examples=30, deadline=None)
@given(s1=st.floats(0.3, 3.0), s2=st.floats(0.3, 3.0), size=st.sampled_from([3, 5]))
def test_different_kernel_changes_key(s1, s2, size):
    k1, k2 = ops.make_gaussian_kernel(s1, size), ops.make_gaussian_kernel(s2, size)
    assume(not np.array_equal(k1.array, k2.array))
    assert ops.make_blur(k1, (1, 8, 8)).key != ops.make_blur(k2, (1, 8, 8)).key


@st.composite
def closed_form_operators(draw):
    n = draw(st.sampled_from([4, 8, 12]))
    shape = (draw(st.integers(1, 2)), n, n)
    seed = draw(st.integers(0, 2 ** 20))
    keep_prob = draw(st.sampled_from([0.0, 0.3, 1.0]))
    choice = draw(st.sampled_from(["identity", "inpainting", "mri", "compressed_sensing",
                                   "demosaic", "multicoil_mri", "downsampling", "upsampler",
                                   "identity*upsampler", "downsampling*upsampler", "crop",
                                   "gaussian_blur", "mri*upsampler", "mri*crop"]))
    mask = ops.make_bernoulli_mask((1, n, n), keep_prob, seed=seed)
    if choice == "identity":
        return ops.identity_operator(shape)
    if choice == "inpainting":
        return ops.make_inpainting(ops.make_bernoulli_mask(shape, keep_prob, seed=seed,
                                                           per_channel=True))
    if choice == "mri":
        return ops.make_mri(mask[0], (2, n, n))
    if choice in ("mri*upsampler", "mri*crop"):
        # a row mask, so the handle carries complex factors
        mri = ops.make_mri(ops.make_mri_mask((2, n, n), draw(st.sampled_from([1, 2, 4])),
                                             seed=seed), (2, n, n))
        if choice == "mri*upsampler":
            return ops.compose(mri, ops.make_upsampler(1, (2, n // 2, n // 2)))
        return ops.compose(mri, ops._crop_op((2, n + 2, n + 4), (2, n, n)))
    if choice == "compressed_sensing":
        sign, _ = ops.make_cs_pattern(shape, 1, seed=seed)
        return ops.make_compressed_sensing(sign, np.flatnonzero(mask), shape)
    if choice == "demosaic":
        return ops.make_demosaic((3, n, n))
    if choice == "gaussian_blur":
        return ops.make_blur(ops.make_gaussian_kernel(draw(st.floats(0.3, 3.0)), 3), shape)
    if choice == "multicoil_mri":
        coils = draw(st.integers(1, 3))
        smaps = ops.make_sensitivity_maps(coils, (2, n, n), seed=seed)
        lines = ops.make_mri_mask((2, n, n), draw(st.sampled_from([1, 2, 4])), seed=seed)
        return ops.make_multicoil_mri(lines, smaps, (2, n, n))
    filt = draw(st.sampled_from(["bicubic", "bilinear"]))
    factor = draw(st.sampled_from([2, 4] if n % 4 == 0 else [2]))
    up = ops.make_upsampler(1, (shape[0], n // 2, n // 2))
    if choice == "downsampling":
        return ops.make_downsampling(factor, filt, shape)
    if choice == "upsampler":
        return up
    if choice == "identity*upsampler":
        return ops.compose(ops.identity_operator(shape), up)
    if choice == "downsampling*upsampler":
        return ops.compose(ops.make_downsampling(factor, filt, shape), up)
    big = (shape[0], n + 2, n + 4)
    return ops.compose(ops.make_downsampling(2, filt, shape), ops._crop_op(big, shape))


@settings(max_examples=60, deadline=None)
@given(op=closed_form_operators())
def test_closed_form_norms_match_dense_svd(op):
    assert op.exact_norm is not None or op.factors is not None
    assert abs(ops.operator_norm(op) - dense_norm(op)) <= 1e-12 * max(1.0, dense_norm(op))


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["inpainting", "compressed_sensing", "mri"]),
       n=st.sampled_from([8, 12, 16]), scale=st.integers(1, 2),
       seed=st.integers(0, 2 ** 20), keep=st.floats(0.2, 0.8))
def test_lanczos_norms_match_dense_svd(kind, n, scale, seed, keep):
    """Fresh coarse operators that take Lanczos, gap-aware stop included."""
    assume(n % 2 ** scale == 0)
    mask = ops.make_bernoulli_mask((1, n, n), keep, seed=seed)
    if kind == "inpainting":
        op = ops.make_inpainting(mask)
    elif kind == "compressed_sensing":
        sign, keep_idx = ops.make_cs_pattern((1, n, n), 4, seed=seed)
        op = ops.make_compressed_sensing(sign, keep_idx, (1, n, n))
    else:
        assume(not np.all(mask[0] == mask[0, :, :1]))  # not a row mask
        op = ops.make_mri(mask[0], (2, n, n))
    c = op.domain_shape[0]
    inner = ops.compose(op, ops.make_upsampler(scale, (c, n >> scale, n >> scale)))
    assert inner.exact_norm is None and inner.factors is None
    dense = dense_norm(inner)
    assert abs(inner.norm() - dense) <= 1e-12 * dense


class TestCaches:
    def test_stats_count_hits_misses_and_lanczos(self):
        kernel = ops.make_motion_kernel(0.7, 0.4, 5, seed=424242)
        before = ops.cache_stats()
        first = ops.make_blur(kernel, (1, 16, 16))
        first.norm()
        ops.make_coarse(first, 1)
        mid = ops.cache_stats()
        again = ops.make_blur(kernel, (1, 16, 16))
        again.norm()
        ops.make_coarse(again, 1)
        after = ops.cache_stats()
        assert mid["norm"]["misses"] - before["norm"]["misses"] == 1
        assert mid["coarse"]["misses"] - before["coarse"]["misses"] == 1
        assert mid["lanczos_applies"] > before["lanczos_applies"]
        assert mid["lanczos_runs"] > before["lanczos_runs"]
        assert after["norm"]["hits"] - mid["norm"]["hits"] == 1
        assert after["coarse"]["hits"] - mid["coarse"]["hits"] == 1
        assert after["lanczos_applies"] == mid["lanczos_applies"]
        assert after["lanczos_runs"] == mid["lanczos_runs"]

    def test_row_mask_mri_ladder_runs_no_lanczos(self):
        cplx = (2, 16, 16)
        before = ops.cache_stats()
        row = ops.make_mri(ops.make_mri_mask(cplx, 4, seed=313131), cplx)
        for scale in range(3):
            ops.make_coarse(row, scale)
        mid = ops.cache_stats()
        assert mid["lanczos_runs"] == before["lanczos_runs"]
        assert mid["lanczos_applies"] == before["lanczos_applies"]
        bernoulli = ops.make_mri(ops.make_bernoulli_mask((1, 16, 16), 0.5, seed=313131)[0], cplx)
        for scale in range(3):
            ops.make_coarse(bernoulli, scale)
        assert ops.cache_stats()["lanczos_runs"] > mid["lanczos_runs"]

    def test_defining_arrays_are_private(self):
        # a caller editing its mask afterwards must not change the
        # operator its key names
        mask = np.ones((1, 4, 4))
        op = ops.make_inpainting(mask)
        mask[0, 0, 0] = 0.0
        assert op.apply(np.ones((1, 4, 4)))[0, 0, 0] == 1.0
        with pytest.raises(ValueError):
            op.arrays["mask"][0, 0, 0] = 0.0

    def test_cache_is_bounded(self):
        size = ops.cache_stats()["coarse"]["size"]
        for seed in range(ops._COARSE.size + 5):
            ops.make_coarse(build("inpainting", 4, 10 ** 6 + seed), 0)
        assert ops.cache_stats()["coarse"]["size"] == ops._COARSE.size >= size

    def test_threads_share_one_coarse_object(self):
        # more threads than cores and a short switch interval, so misses
        # race; every thread must still get the one stored object
        kernel = ops.make_motion_kernel(0.3, 0.6, 5, seed=515151)
        results, calls = [], 8 * 4
        before = ops.cache_stats()["coarse"]

        def work():
            for _ in range(4):
                results.append(ops.make_coarse(ops.make_blur(kernel, (1, 16, 16)), 1))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(results) == calls and all(r is results[0] for r in results)
        after = ops.cache_stats()["coarse"]
        assert (after["hits"] + after["misses"]) - (before["hits"] + before["misses"]) == calls
