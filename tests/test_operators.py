import sys
import threading

import numpy as np
import pytest
import scipy.fft
import scipy.sparse
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
    out["ct_3ch"] = ops.make_ct_radon(7, (3, 12, 12))
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

    def test_motion_gp_factor_shared_and_read_only(self):
        ops.make_motion_kernel(0.45, 0.35, 7, seed=1)
        hits = ops._gp_factor.cache_info().hits
        ops.make_motion_kernel(0.45, 0.35, 7, seed=2)
        assert ops._gp_factor.cache_info().hits == hits + 1
        chol = ops._gp_factor(0.45, 0.35, 1000)
        assert not chol.flags.writeable
        with pytest.raises(ValueError):
            chol[0, 0] = 0.0


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

    def test_channels_match_single_channel_bitwise(self):
        # every channel goes through the one sparse matrix on its own
        op3 = ops.make_ct_radon(7, (3, 13, 13))
        op1 = ops.make_ct_radon(7, (1, 13, 13))
        rng = np.random.default_rng(12)
        x = rng.standard_normal(op3.domain_shape)
        y = rng.standard_normal(op3.range_shape)
        assert np.array_equal(op3.apply(x), np.concatenate([op1.apply(x[i:i + 1]) for i in range(3)]))
        assert np.array_equal(op3.adjoint(y),
                              np.concatenate([op1.adjoint(y[i:i + 1]) for i in range(3)]))


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


@settings(max_examples=60, deadline=None)
@given(n_out=st.integers(1, 48), rem=st.integers(0, 3), factor=st.sampled_from([2, 4]),
       filt=st.sampled_from(["bicubic", "bilinear"]))
def test_decimation_rows_sum_to_one_inside_support(n_out, rem, factor, filt):
    n = n_out * factor + rem % factor
    mat = ops._decimation_matrix(n, factor, filt)
    centers = (np.arange(n_out) + 0.5) * factor - 0.5
    t = np.abs(np.arange(n) - centers[:, None]) / factor
    assert mat.shape == (n_out, n)
    assert np.allclose(mat.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    assert np.all(mat[t >= (2 if filt == "bicubic" else 1)] == 0)


@settings(max_examples=60, deadline=None)
@given(n_coarse=st.integers(1, 40), factor=st.sampled_from([2, 4, 8]),
       beta=st.sampled_from([5.0, 8.0]), taps=st.sampled_from([4, 6, 8]))
def test_upsample_rows_sum_to_one_inside_window(n_coarse, factor, beta, taps):
    mat = ops._upsample_matrix(n_coarse, factor, beta, taps)
    t = np.arange(n_coarse * factor)[:, None] / factor - np.arange(n_coarse)
    assert mat.shape == (n_coarse * factor, n_coarse)
    assert np.allclose(mat.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    assert np.all(mat[np.abs(t) > taps / 2] == 0)


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


# ---------------------------------------------------------------------------
# loop references: the array expressions in operators.py replace per-item
# loops with the same arithmetic in the same order, so they must agree bit
# for bit with these loops
# ---------------------------------------------------------------------------


def loop_motion_kernel(length_scale, amplitude, size, seed, num_points=1000):
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 1.0, num_points)
    traj = np.zeros((num_points, 2))
    if amplitude > 0:
        cov = amplitude ** 2 * np.exp(-0.5 * (t[:, None] - t[None, :]) ** 2
                                      / max(length_scale, 1e-6) ** 2)
        cov[np.diag_indices_from(cov)] += 1e-10
        traj = np.linalg.cholesky(cov) @ rng.standard_normal((num_points, 2))
    px = (traj - traj.mean(axis=0)) * (size // 2)
    k = np.zeros((size, size))
    for dx, dy in px:
        u = np.clip(size // 2 + dx, 0, size - 1 - 1e-9)
        v = np.clip(size // 2 + dy, 0, size - 1 - 1e-9)
        i0, j0 = int(u), int(v)
        fu, fv = u - i0, v - j0
        k[i0, j0] += (1 - fu) * (1 - fv)
        k[i0 + 1, j0] += fu * (1 - fv)
        k[i0, j0 + 1] += (1 - fu) * fv
        k[i0 + 1, j0 + 1] += fu * fv
    return k / k.sum()


def loop_sensitivity_maps(num_coils, h, w, seed):
    rng = np.random.default_rng(seed)
    yy, xx = np.meshgrid(np.linspace(-1, 1, h), np.linspace(-1, 1, w), indexing="ij")
    maps = np.zeros((num_coils, h, w), dtype=np.complex128)
    for ell in range(num_coils):
        ang = 2 * np.pi * ell / num_coils
        cy, cx = 0.6 * np.sin(ang), 0.6 * np.cos(ang)
        mag = np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * 0.7 ** 2))
        phase = rng.uniform(-0.5, 0.5) * xx + rng.uniform(-0.5, 0.5) * yy
        maps[ell] = mag * np.exp(1j * phase)
    maps /= np.sqrt((np.abs(maps) ** 2).sum(axis=0))
    return np.stack([np.stack([m.real, m.imag]) for m in maps])


def loop_multicoil(mask, smaps, x, y):
    """(apply x, adjoint y, row-mask norm) of multi-coil MRI, coil by coil
    and column by column."""
    s = smaps[:, 0] + 1j * smaps[:, 1]
    num_coils, h, w = s.shape
    z = x[0] + 1j * x[1]
    out = np.empty((2 * num_coils, h, w))
    acc = np.zeros((h, w), dtype=np.complex128)
    for ell in range(num_coils):
        k = mask * np.fft.fft2(s[ell] * z, norm="ortho")
        out[2 * ell], out[2 * ell + 1] = k.real, k.imag
        acc += np.conj(s[ell]) * np.fft.ifft2(mask * (y[2 * ell] + 1j * y[2 * ell + 1]),
                                              norm="ortho")
    f = ops._dft_matrix(h)
    p = f.conj().T @ ((mask[:, 0] ** 2)[:, None] * f)
    top = 0.0
    for j in range(w):
        sj = s[:, :, j]
        top = max(top, np.linalg.eigvalsh(np.einsum("lh,hk,lk->hk", sj.conj(), p, sj))[-1])
    return out, np.stack([acc.real, acc.imag]), float(np.sqrt(max(top, 0.0)))


def loop_ct(num_angles, c, n, x, y):
    det = int(np.ceil(np.sqrt(2.0) * n))
    jj, ii = np.meshgrid(np.arange(n), np.arange(n))
    uc = (jj - (n - 1) / 2.0).ravel()
    vc = (ii - (n - 1) / 2.0).ravel()
    rows, cols, vals = [], [], []
    for a, th in enumerate(np.arange(num_angles) * np.pi / num_angles):
        s = np.clip(uc * np.cos(th) + vc * np.sin(th) + (det - 1) / 2.0, 0, det - 1 - 1e-9)
        b0 = s.astype(int)
        for rows_a, vals_a in ((a * det + b0, 1.0 - (s - b0)), (a * det + b0 + 1, s - b0)):
            rows.append(rows_a)
            cols.append(np.arange(n * n))
            vals.append(vals_a)
    mat = scipy.sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(num_angles * det, n * n))
    mat_t = mat.T.tocsr()
    apply = np.stack([(mat @ x[ch].ravel()).reshape(num_angles, det) for ch in range(c)])
    adjoint = np.stack([(mat_t @ y[ch].ravel()).reshape(n, n) for ch in range(c)])
    return apply, adjoint


def loop_decimation(n, factor, filt):
    kern, support = (ops._bicubic_kernel, 2) if filt == "bicubic" else (ops._bilinear_kernel, 1)
    mat = np.zeros((n // factor, n))
    for i in range(n // factor):
        center = (i + 0.5) * factor - 0.5
        js = np.arange(max(int(np.floor(center - support * factor)) - 1, 0),
                       min(int(np.ceil(center + support * factor)) + 1, n - 1) + 1)
        mat[i, js] = kern((js - center) / factor)
    return mat / mat.sum(axis=1, keepdims=True)


def loop_upsample(n_coarse, factor, beta=8.0, taps=8):
    half = taps / 2.0
    mat = np.zeros((n_coarse * factor, n_coarse))
    for i in range(n_coarse * factor):
        pos = i / factor
        js = np.arange(max(int(np.ceil(pos - half)), 0),
                       min(int(np.floor(pos + half)), n_coarse - 1) + 1)
        t = pos - js
        window = np.i0(beta * np.sqrt(np.clip(1 - (t / half) ** 2, 0, None))) / np.i0(beta)
        mat[i, js] = np.sinc(t) * window
    return mat / mat.sum(axis=1, keepdims=True)


def bitwise_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestLoopReferences:
    @pytest.mark.parametrize("size", [7, 31])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_motion_kernel(self, size, seed):
        for ls, amp in ((0.6, 0.5), (0.1, 1.5), (0.3, 0.0)):
            assert bitwise_equal(ops.make_motion_kernel(ls, amp, size, seed=seed).array,
                                 loop_motion_kernel(ls, amp, size, seed))

    @pytest.mark.parametrize("num_coils", [1, 2, 4, 8])
    def test_sensitivity_maps(self, num_coils):
        for h, w in ((8, 8), (16, 12), (33, 33)):
            assert bitwise_equal(ops.make_sensitivity_maps(num_coils, (2, h, w), seed=num_coils),
                                 loop_sensitivity_maps(num_coils, h, w, num_coils))

    @pytest.mark.parametrize("num_coils", [1, 4])
    @pytest.mark.parametrize("row_mask", [True, False])
    def test_multicoil(self, num_coils, row_mask):
        shape = (2, 16, 12)
        smaps = ops.make_sensitivity_maps(num_coils, shape, seed=5)
        mask = (ops.make_mri_mask(shape, 4, seed=2) if row_mask
                else ops.make_bernoulli_mask(shape, 0.4, seed=5)[0])
        op = ops.make_multicoil_mri(mask, smaps, shape)
        rng = np.random.default_rng(6)
        x = rng.standard_normal(op.domain_shape)
        y = rng.standard_normal(op.range_shape)
        apply, adjoint, norm = loop_multicoil(mask, smaps, x, y)
        assert bitwise_equal(op.apply(x), apply)
        assert bitwise_equal(op.adjoint(y), adjoint)
        assert (op.exact_norm is not None) == row_mask
        if row_mask:
            assert op.exact_norm() == norm

    @pytest.mark.parametrize("c", [1, 3])
    @pytest.mark.parametrize("n", [16, 33])
    def test_ct(self, c, n):
        op = ops.make_ct_radon(n // 4, (c, n, n))
        rng = np.random.default_rng(n)
        x = rng.standard_normal(op.domain_shape)
        y = rng.standard_normal(op.range_shape)
        apply, adjoint = loop_ct(n // 4, c, n, x, y)
        assert bitwise_equal(op.apply(x), apply)
        assert bitwise_equal(op.adjoint(y), adjoint)

    def test_decimation_matrices(self):
        for n in [*range(8, 65), 127, 128, 255, 256]:
            for factor in (2, 4):
                for filt in ("bicubic", "bilinear"):
                    assert bitwise_equal(ops._decimation_matrix(n, factor, filt),
                                         loop_decimation(n, factor, filt)), (n, factor, filt)

    def test_upsample_matrices(self):
        for n_coarse in [*range(1, 17), 31, 32, 33, 64]:
            for factor in (2, 4, 8):
                assert bitwise_equal(ops._upsample_matrix(n_coarse, factor),
                                     loop_upsample(n_coarse, factor)), (n_coarse, factor)
