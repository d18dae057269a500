import gc
import tracemalloc

import numpy as np
import pytest

from reconkit import operators as ops
from reconkit import solvers
from reconkit import tensor as T
from reconkit.model import RamConfig, RamModel
from reconkit.noise import NoiseParams


SMALL = RamConfig(num_scales=2, base_width=8, blocks=1, krylov_depth=2,
                  head_channels=(1, 2, 3), seed=0)
TINY = RamConfig(num_scales=1, base_width=4, blocks=1, krylov_depth=1,
                 head_channels=(1,), seed=1)


def randomize(model, seed=0, scale=0.05):
    """Give every parameter (including the zero-initialized output conv)
    nonzero values so tests exercise the full network."""
    rng = np.random.default_rng(seed)
    for p in model.parameters():
        p.data = rng.standard_normal(p.data.shape) * scale
    return model


def make_problem(shape, seed=0, sigma=0.05):
    op = ops.make_inpainting(ops.make_bernoulli_mask(shape, 0.6, seed=seed))
    rng = np.random.default_rng(seed + 100)
    x = rng.random(shape)
    y = op.apply(x) + sigma * rng.standard_normal(shape)
    return op, y, NoiseParams(sigma=sigma)


class TestConfig:
    def test_entry_round_trip(self):
        cfg = RamConfig(num_scales=2, base_width=16, krylov_depth=4,
                        head_channels=(1, 3), cg_tol=1e-7, seed=5)
        assert RamConfig.from_entries(cfg.to_entries()) == cfg

    def test_invalid(self):
        with pytest.raises(ValueError):
            RamConfig(num_scales=0)
        with pytest.raises(ValueError):
            RamConfig(ksm_kernel_size=2)


class TestArchitecture:
    def test_no_bias_parameters(self):
        model = RamModel(SMALL)
        assert not any("bias" in p.name for p in model.parameters())

    def test_output_conv_zero_initialized(self):
        model = RamModel(SMALL)
        for c in SMALL.head_channels:
            assert np.all(model.param(f"head{c}.conv_out").data == 0)

    def test_select_head(self):
        model = RamModel(SMALL)
        assert model.select_head(2) == 2
        with pytest.raises(ValueError):
            model.select_head(4)

    def test_parameter_names_unique_and_sorted(self):
        model = RamModel(SMALL)
        names = [p.name for p in model.parameters()]
        assert names == sorted(names)
        assert len(names) == len(set(names))


class TestForwardShapes:
    def test_denoising_shape(self):
        model = RamModel(SMALL)
        op, y, nz = make_problem((1, 16, 16), seed=0)
        out = model.forward(y, op, nz)
        assert out.shape == (1, 16, 16)

    def test_mri_shape(self):
        model = RamModel(SMALL)
        shape = (2, 16, 16)
        op = ops.make_mri(ops.make_mri_mask(shape, 2, seed=1), shape)
        y = op.apply(np.random.default_rng(2).standard_normal(shape))
        out = model.forward(y, op, NoiseParams(sigma=0.01))
        assert out.shape == (2, 16, 16)

    def test_sr_shape_with_padding(self):
        # odd-ish extents exercise the pad-then-crop path
        model = RamModel(SMALL)
        shape = (3, 12, 12)
        op = ops.make_downsampling(2, "bicubic", shape)
        y = op.apply(np.random.default_rng(3).random(shape))
        out = model.forward(y, op, NoiseParams(sigma=0.02))
        assert out.shape == (3, 12, 12)

    def test_blur_shape(self):
        model = RamModel(SMALL)
        shape = (1, 18, 18)
        op = ops.make_blur(ops.make_gaussian_kernel(1.0, 5), shape)
        y = op.apply(np.random.default_rng(4).random(shape))
        out = model.forward(y, op, NoiseParams(sigma=0.03))
        assert out.shape == (1, 18, 18)

    @pytest.mark.parametrize("shape", [(1, 16, 16), (2, 16, 16), (3, 12, 12)])
    def test_forward_returns_domain_shape(self, shape):
        # the tape holds images as (C, H, W), the operators' layout: no
        # batch axis is added or taken off between an operator and the model
        ops_for = {1: lambda: ops.make_ct_radon(6, shape),
                   2: lambda: ops.make_mri(ops.make_mri_mask(shape, 2, seed=1), shape),
                   3: lambda: ops.make_downsampling(2, "bicubic", shape)}
        op = ops_for[shape[0]]()
        y = op.apply(np.random.default_rng(5).random(shape))
        out = RamModel(SMALL).forward(y, op, NoiseParams(sigma=0.02))
        assert out.shape == op.domain_shape

    def test_measurement_shape_checked(self):
        model = RamModel(SMALL)
        op, _, nz = make_problem((1, 16, 16))
        with pytest.raises(ValueError):
            model.forward(np.zeros((1, 8, 8)), op, nz)

    def test_eval_counter(self):
        model = RamModel(SMALL)
        op, y, nz = make_problem((1, 16, 16))
        assert model.eval_count == 0
        model.reconstruct(y, op, nz)
        model.reconstruct(y, op, nz)
        assert model.eval_count == 2


class TestUntrainedExactness:
    def test_output_equals_prox_estimate(self):
        # zero-initialized output conv: the untrained network is exactly
        # the proximal estimate of the measurement
        model = RamModel(SMALL)
        op, y, nz = make_problem((1, 16, 16), seed=5, sigma=0.1)
        out = model.reconstruct(y, op, nz)
        nrm = op.norm()
        opn = ops.normalize(op)
        y_hat = y / nrm
        lam = (nz.sigma / nrm) * SMALL.eta_init / np.abs(y_hat).sum()
        ref = solvers.prox_estimate(opn, y_hat, lam,
                                    cg_iters=SMALL.cg_iters, cg_tol=SMALL.cg_tol)
        assert np.array_equal(out, ref)

    def test_noiseless_inpainting_is_adjoint(self):
        model = RamModel(SMALL)
        op = ops.make_inpainting(ops.make_bernoulli_mask((1, 16, 16), 0.5, seed=6))
        x = np.random.default_rng(7).random((1, 16, 16))
        y = op.apply(x)
        out = model.reconstruct(y, op, NoiseParams())
        # sigma == 0 gives lam == 0, so the estimate is A^T y exactly
        # (inpainting has unit norm, so no rescaling enters)
        assert np.allclose(out, op.adjoint(y), atol=1e-12)


class TestScaleEquivariance:
    @pytest.mark.parametrize("alpha", [0.5, 2.0, 37.0])
    def test_equivariant(self, alpha):
        model = randomize(RamModel(SMALL), seed=8)
        op, y, nz = make_problem((1, 16, 16), seed=9, sigma=0.08)
        base = model.reconstruct(y, op, nz)
        scaled = model.reconstruct(
            alpha * y, op, NoiseParams(sigma=alpha * nz.sigma, gamma=alpha * nz.gamma))
        rel = np.max(np.abs(scaled - alpha * base)) / np.max(np.abs(alpha * base))
        assert rel < 1e-8

    def test_equivariant_with_poisson_level(self):
        model = randomize(RamModel(SMALL), seed=10)
        op, y, _ = make_problem((1, 16, 16), seed=11)
        nz = NoiseParams(sigma=0.05, gamma=0.2)
        a = 3.0
        base = model.reconstruct(y, op, nz)
        scaled = model.reconstruct(a * y, op, NoiseParams(sigma=a * 0.05, gamma=a * 0.2))
        rel = np.max(np.abs(scaled - a * base)) / np.max(np.abs(a * base))
        assert rel < 1e-8


class TestKrylovModule:
    def test_stack_recurrence_bit_exact(self):
        model = RamModel(SMALL)
        op = ops.make_inpainting(ops.make_bernoulli_mask((1, 16, 16), 0.5, seed=12))
        cop = ops.make_coarse(op, 1, fine_shape=(1, 16, 16))
        rng = np.random.default_rng(13)
        x = T.constant(rng.standard_normal((1, 8, 8)))
        aty = T.constant(rng.standard_normal((1, 8, 8)))
        stack = model.build_ksm_stack(x, aty, cop).data
        k1 = SMALL.krylov_depth + 1
        # channels interleave as [u_0, v_0, u_1, v_1, ...]
        for k in range(1, k1):
            u_prev = stack[2 * (k - 1):2 * (k - 1) + 1]
            v_prev = stack[2 * (k - 1) + 1:2 * (k - 1) + 2]
            assert np.array_equal(stack[2 * k], cop.normal(u_prev)[0])
            assert np.array_equal(stack[2 * k + 1], cop.normal(v_prev)[0])

    def test_diagnostic_output_in_krylov_span(self):
        cfg = RamConfig(num_scales=1, base_width=4, blocks=1, krylov_depth=2,
                        head_channels=(1,), ksm_kernel_size=1, seed=2)
        model = randomize(RamModel(cfg), seed=14)
        op = ops.make_inpainting(ops.make_bernoulli_mask((1, 8, 8), 0.6, seed=15))
        cop = ops.make_coarse(op, 0)
        rng = np.random.default_rng(16)
        f = T.constant(rng.standard_normal((4, 8, 8)))
        aty = T.constant(rng.standard_normal((1, 8, 8)))
        out = model._ksm(0, 1, f, aty, cop)
        g = out.data - f.data  # the module's residual contribution
        # rebuild the span the 1x1 combine mixes over
        x_img = T.conv2d(f, model.param("head1.ksm0.decode"))
        stack = model.build_ksm_stack(x_img, aty, cop).data.reshape(6, -1)
        enc = model.param("head1.ksm0.encode").data  # (4, 1, 1, 1)
        for ch in range(4):
            v = g[ch].ravel()
            coef, *_ = np.linalg.lstsq(stack.T, v, rcond=None)
            resid = np.linalg.norm(stack.T @ coef - v) / max(np.linalg.norm(v), 1e-30)
            assert resid < 1e-8


class TestGradients:
    def test_head_isolation(self):
        model = RamModel(SMALL)
        op, y, nz = make_problem((1, 16, 16), seed=17)
        loss = T.sum_all(T.square(model.forward(y, op, nz)))
        loss.backward()
        assert model.param("head1.conv_in").grad is not None
        assert model.param("head3.conv_in").grad is None
        assert model.param("head2.ksm0.combine").grad is None

    def test_end_to_end_gradcheck(self):
        model = randomize(RamModel(TINY), seed=18)
        # blur, not inpainting: the inpainting prox is lam-independent,
        # which would leave eta with a vanishing gradient
        op = ops.make_blur(ops.make_gaussian_kernel(1.0, 3), (1, 8, 8))
        rng = np.random.default_rng(19)
        nz = NoiseParams(sigma=0.1)
        y = op.apply(rng.random((1, 8, 8))) + nz.sigma * rng.standard_normal(op.range_shape)
        target = np.random.default_rng(20).random((1, 8, 8))

        def loss_value():
            out = model.forward(y, op, nz)
            return T.sum_all(T.square(out - T.constant(target)))

        model.zero_grad()
        loss_value().backward()
        eps = 1e-6
        for name in ("head1.conv_in", "enc0.block0.conv", "head1.ksm0.combine",
                     "head1.conv_out", "eta"):
            p = model.param(name)
            # the largest entry: a weight feeding a dead ReLU has gradient
            # 0 and so does its finite difference, which tests nothing
            idx = np.unravel_index(np.argmax(np.abs(p.grad)), p.grad.shape)
            assert p.grad[idx] != 0
            orig = p.data[idx]
            p.data[idx] = orig + eps
            lp = loss_value().item()
            p.data[idx] = orig - eps
            lm = loss_value().item()
            p.data[idx] = orig
            fd = (lp - lm) / (2 * eps)
            rel = abs(p.grad[idx] - fd) / max(abs(fd), 1e-8)
            assert rel < 1e-4, f"{name}{idx}: autodiff {p.grad[idx]} vs fd {fd}"

    def test_gradient_flows_to_measurement(self):
        # EI-style losses differentiate through y
        model = randomize(RamModel(TINY), seed=21)
        op, y, nz = make_problem((1, 8, 8), seed=22, sigma=0.05)
        yt = T.Tensor(y, requires_grad=True)
        loss = T.sum_all(T.square(model.forward(yt, op, nz)))
        loss.backward()
        assert yt.grad is not None
        assert np.any(yt.grad != 0)


def _prox_kinds(n):
    """One operator per model-reachable kind at n x n, as the training and
    reconstruction tasks draw them."""
    shape = (1, n, n)
    sign, keep = ops.make_cs_pattern(shape, 4, seed=2)
    return {
        "inpainting": ops.make_inpainting(ops.make_bernoulli_mask(shape, 0.5, seed=1)),
        "blur": ops.make_blur(ops.make_gaussian_kernel(1.0, 7), shape),
        "downsampling": ops.make_downsampling(2, "bicubic", shape),
        "compressed_sensing": ops.make_compressed_sensing(sign, keep, shape),
        "ct": ops.make_ct_radon(n // 4, shape),
        "mri": ops.make_mri(ops.make_mri_mask((2, n, n), 4, seed=3), (2, n, n)),
    }


class TestProxConvergence:
    # the prox backward is the exact gradient only when its CG solves
    # converge; pin that for the default cg_iters/cg_tol on every kind
    KINDS = _prox_kinds(32)

    @pytest.mark.parametrize("kind", sorted(KINDS))
    @pytest.mark.parametrize("sigma", [0.0, 0.05, 0.2])
    def test_default_cg_converges(self, kind, sigma, monkeypatch):
        reports = []
        cg = solvers.conjugate_gradient

        def recording_cg(*args, **kwargs):
            x, rep = cg(*args, **kwargs)
            reports.append(rep)
            return x, rep

        monkeypatch.setattr(solvers, "conjugate_gradient", recording_cg)
        cfg = RamConfig(num_scales=1, base_width=4, blocks=1, krylov_depth=1,
                        head_channels=(1, 2), seed=1)
        model = randomize(RamModel(cfg), seed=24)
        op = self.KINDS[kind]
        rng = np.random.default_rng(25)
        y = op.apply(rng.random(op.domain_shape)) + sigma * rng.standard_normal(op.range_shape)
        out = model.forward(y, op, NoiseParams(sigma=sigma))
        T.sum_all(T.square(out)).backward()
        # sigma = 0 gives lam = 0 and no solve; otherwise one forward and
        # one backward solve
        assert len(reports) == (0 if sigma == 0 else 2)
        for rep in reports:
            assert rep.converged and rep.iterations <= cfg.cg_iters


class TestNoEinsum:
    # convolutions and operator applies run on fixed-layout matmuls; an
    # einsum call would re-plan its contraction every time.  Fresh
    # operator definitions so their norms and coarse grids are built
    # under the patch.  Multi-coil MRI's one-time cached norm is exempt.
    @staticmethod
    def _fresh_kinds():
        shape = (1, 32, 32)
        return {
            "blur": ops.make_blur(ops.make_gaussian_kernel(1.3, 7), shape),
            "inpainting": ops.make_inpainting(ops.make_bernoulli_mask(shape, 0.5, seed=91)),
            "downsampling": ops.make_downsampling(2, "bicubic", shape),
        }

    @staticmethod
    def _forbid_einsum(monkeypatch):
        def einsum(*args, **kwargs):
            raise AssertionError("np.einsum called on the model's hot path")

        monkeypatch.setattr(np, "einsum", einsum)

    @pytest.mark.parametrize("kind", ["blur", "inpainting", "downsampling"])
    def test_forward_backward(self, kind, monkeypatch):
        self._forbid_einsum(monkeypatch)
        op = self._fresh_kinds()[kind]
        model = randomize(RamModel(TINY), seed=26)
        rng = np.random.default_rng(27)
        y = op.apply(rng.random(op.domain_shape)) + 0.05 * rng.standard_normal(op.range_shape)
        model.zero_grad()
        T.sum_all(T.square(model.forward(y, op, NoiseParams(sigma=0.05)))).backward()
        assert model.param("head1.conv_in").grad is not None

    def test_default_config_reconstruct(self, monkeypatch):
        self._forbid_einsum(monkeypatch)
        op = ops.make_blur(ops.make_gaussian_kernel(0.9, 5), (1, 32, 32))
        model = randomize(RamModel(RamConfig()), seed=28)
        y = op.apply(np.random.default_rng(29).random(op.domain_shape))
        out = model.reconstruct(y, op, NoiseParams(sigma=0.05))
        assert out.shape == op.domain_shape and np.all(np.isfinite(out))


class TestReconstructNoTape:
    @pytest.mark.parametrize("kind", ["inpainting", "blur", "downsampling"])
    def test_bitwise_equal_to_forward(self, kind):
        op = _prox_kinds(16)[kind]
        model = randomize(RamModel(SMALL), seed=30)
        rng = np.random.default_rng(31)
        y = op.apply(rng.random(op.domain_shape)) + 0.05 * rng.standard_normal(op.range_shape)
        nz = NoiseParams(sigma=0.05)
        out = model.reconstruct(y, op, nz)
        assert np.array_equal(out, model.forward(y, op, nz).data)

    def test_memory_default_config_64(self):
        op = ops.make_blur(ops.make_gaussian_kernel(1.0, 7), (1, 64, 64))
        model = randomize(RamModel(RamConfig()), seed=32)
        y = op.apply(np.random.default_rng(33).random(op.domain_shape))
        nz = NoiseParams(sigma=0.05)
        model.reconstruct(y, op, nz)  # norm and coarse operators cached

        def traced(fn):
            gc.collect()
            tracemalloc.start()
            try:
                out = fn()
                kept, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return out, kept / 2 ** 20, peak / 2 ** 20

        out, kept, peak = traced(lambda: model.reconstruct(y, op, nz))
        taped, fwd_kept, fwd_peak = traced(lambda: model.forward(y, op, nz))
        assert np.array_equal(out, taped.data)
        assert kept < 1.0, f"reconstruct keeps {kept:.1f} MB"
        assert peak <= 0.5 * fwd_peak, f"peaks {peak:.1f} MB vs forward {fwd_peak:.1f} MB"


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        model = randomize(RamModel(SMALL), seed=23)
        path = tmp_path / "model.tnsr"
        model.save_checkpoint(path)
        loaded = RamModel.load_checkpoint(path)
        assert loaded.config == model.config
        for a, b in zip(model.parameters(), loaded.parameters()):
            assert a.name == b.name
            assert np.array_equal(a.data, b.data)
        op, y, nz = make_problem((1, 16, 16), seed=24)
        assert np.array_equal(model.reconstruct(y, op, nz),
                              loaded.reconstruct(y, op, nz))

    def test_load_draws_no_weights(self, tmp_path, monkeypatch):
        model = randomize(RamModel(SMALL), seed=25)
        path, again = tmp_path / "model.tnsr", tmp_path / "again.tnsr"
        model.save_checkpoint(path)

        def no_draw(rng, shape):
            raise AssertionError("load_checkpoint drew an initial weight")

        monkeypatch.setattr("reconkit.model._he_init", no_draw)
        loaded = RamModel.load_checkpoint(path)
        assert loaded.eval_count == 0
        loaded.save_checkpoint(again)
        assert again.read_bytes() == path.read_bytes()

    def test_mismatched_names_rejected(self, tmp_path):
        model = RamModel(TINY)
        path = tmp_path / "model.tnsr"
        model.save_checkpoint(path)
        from reconkit import tnsr
        entries = tnsr.load_tensors(path)
        del entries["eta"]
        tnsr.save_tensors(path, entries)
        with pytest.raises(ValueError):
            RamModel.load_checkpoint(path)
