"""Acceptance suite: one test per criterion, each printing a single
PASS/FAIL line."""

import time

import numpy as np
import pytest

from reconkit import operators as ops
from reconkit import cli, tnsr
from reconkit import tensor as T
from reconkit import train as tr
from reconkit.metrics import psnr
from reconkit.model import RamConfig, RamModel
from reconkit.noise import NoiseParams, sample_noise
from reconkit.problem import ProblemInstance
from reconkit.selfsup import (FinetuneConfig, TransformGroup, finetune,
                              mc_divergence, sure_loss)
from reconkit.solvers import (conjugate_gradient, prox_estimate,
                              pseudo_inverse_apply)
from reconkit.uq import BootstrapSample, coverage_curve, equivariant_bootstrap, \
    pixelwise_errors


def report(num, desc, ok):
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {desc}"
    print(line)
    assert ok, line


def all_operator_cases(shape=(1, 16, 16)):
    h = shape[-2]
    mri_shape = (2, h, h)
    sign, keep = ops.make_cs_pattern(shape, 4, seed=3)
    base_blur = ops.make_blur(ops.make_gaussian_kernel(1.0, 7), shape)
    return {
        "blur-valid": base_blur,
        "inpainting": ops.make_inpainting(ops.make_bernoulli_mask(shape, 0.6, seed=1)),
        "mri": ops.make_mri(ops.make_mri_mask(mri_shape, 4, seed=2), mri_shape),
        "multicoil-mri": ops.make_multicoil_mri(
            ops.make_mri_mask(mri_shape, 4, seed=2),
            ops.make_sensitivity_maps(4, mri_shape, seed=2), mri_shape),
        "radon": ops.make_ct_radon(12, shape),
        "sr2": ops.make_downsampling(2, "bicubic", shape),
        "sr4": ops.make_downsampling(4, "bilinear", shape),
        "compressed-sensing": ops.make_compressed_sensing(sign, keep, shape),
        "demosaic": ops.make_demosaic((3, h, h)),
        "upsampler": ops.make_upsampler(2, (1, h // 2, h // 2)),
        "coarse": ops.make_coarse(base_blur, 1),
    }


class TestCriterion01:
    def test_adjoint_suite(self):
        t0 = time.time()
        rng = np.random.default_rng(0)
        worst = 0.0
        for name, op in all_operator_cases().items():
            for _ in range(100):
                u = rng.standard_normal(op.domain_shape)
                v = rng.standard_normal(op.range_shape)
                lhs = float(np.sum(op.apply(u) * v))
                rhs = float(np.sum(u * op.adjoint(v)))
                rel = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
                worst = max(worst, rel)
        elapsed = time.time() - t0
        report(1, f"adjoint suite worst rel err {worst:.2e} in {elapsed:.1f}s",
               worst < 1e-10 and elapsed < 30)


class TestCriterion02:
    def test_dense_oracles(self):
        rng = np.random.default_rng(1)
        ok = True
        msgs = []
        for name in ("blur-valid", "inpainting", "mri", "radon", "sr2",
                     "compressed-sensing"):
            op = all_operator_cases()[name]
            a = ops.dense_matrix(op)
            sv = np.linalg.svd(a, compute_uv=False)[0]
            norm_gap = abs(sv - ops.operator_norm(op, iters=3000, tol=1e-12))
            ok &= norm_gap < 1e-4
            # prox vs dense solve
            x = rng.standard_normal(op.domain_shape)
            y = op.apply(x)
            lam = 0.3
            n = a.shape[1]
            dense_prox = np.linalg.solve(lam * a.T @ a + np.eye(n),
                                         (1 + lam) * a.T @ y.reshape(-1))
            cg_prox = prox_estimate(op, y, lam, cg_iters=400, cg_tol=1e-14)
            prox_gap = np.max(np.abs(cg_prox.reshape(-1) - dense_prox))
            ok &= prox_gap < 1e-5
            # pseudo-inverse vs dense ridge solve; the ridge scales with
            # ||A||^2 so the CG system stays well conditioned for radon
            ridge = 1e-4 * sv ** 2
            dense_pinv = np.linalg.solve(a.T @ a + ridge * np.eye(n),
                                         a.T @ y.reshape(-1))
            cg_pinv = pseudo_inverse_apply(op, y, ridge=ridge,
                                           cg_iters=2000, cg_tol=1e-16)
            pinv_gap = np.max(np.abs(cg_pinv.reshape(-1) - dense_pinv))
            ok &= pinv_gap < 1e-5
            msgs.append(f"{name}:{norm_gap:.1e}/{prox_gap:.1e}/{pinv_gap:.1e}")
        report(2, "dense-oracle norm/prox/pinv gaps " + " ".join(msgs), ok)


class TestCriterion03:
    def test_prox_closed_forms(self):
        rng = np.random.default_rng(2)
        shape = (1, 12, 12)
        mask = ops.make_bernoulli_mask(shape, 0.7, seed=3)
        op = ops.make_inpainting(mask)
        y = mask * rng.standard_normal(shape)
        lam = 0.4
        closed = (1 + lam) * mask * y / (lam * mask + 1.0)
        u = prox_estimate(op, y, lam, cg_iters=300, cg_tol=1e-14)
        gap = np.max(np.abs(u - closed))

        zero_exact = np.array_equal(prox_estimate(op, y, 0.0, cg_iters=10, cg_tol=1e-10),
                                    op.adjoint(y))

        # unitary operator: prox of any lam returns A^T y exactly up to CG tol
        uni = ops.make_mri(np.ones((16, 16)), (2, 16, 16))
        yu = uni.apply(rng.standard_normal((2, 16, 16)))
        fp_gap = np.max(np.abs(prox_estimate(uni, yu, 0.7, cg_iters=100,
                                             cg_tol=1e-15) - uni.adjoint(yu)))
        report(3, f"prox closed form gap {gap:.1e}, lam=0 exact {zero_exact}, "
                  f"unitary fixed point gap {fp_gap:.1e}",
               gap < 1e-8 and zero_exact and fp_gap < 1e-8)


def _fd_check(params, loss_fn, eps=1e-6, picks=2, seed=0):
    """Max relative error between tape gradients and central differences on
    a few entries of each parameter."""
    rng = np.random.default_rng(seed)
    for p in params:
        p.grad = None
    loss_fn().backward()
    worst = 0.0
    for p in params:
        flat = p.data.reshape(-1)
        # a parameter the loss never reaches (another head's weights, say)
        # carries no grad; finite differences must then agree it is zero
        gflat = (p.grad if p.grad is not None else np.zeros_like(p.data)).reshape(-1)
        for idx in rng.choice(flat.size, size=min(picks, flat.size), replace=False):
            keep = flat[idx]
            flat[idx] = keep + eps
            up = loss_fn().item()
            flat[idx] = keep - eps
            dn = loss_fn().item()
            flat[idx] = keep
            fd = (up - dn) / (2 * eps)
            scale = max(abs(fd), abs(gflat[idx]), 1e-4)
            worst = max(worst, abs(fd - gflat[idx]) / scale)
    return worst


class TestCriterion04:
    def test_gradient_checks(self):
        t0 = time.time()
        rng = np.random.default_rng(4)

        # every trainable tensor op, probed through a scalar loss
        w33 = T.Parameter("w33", rng.standard_normal((3, 2, 3, 3)) * 0.3)
        w22 = T.Parameter("w22", rng.standard_normal((2, 3, 2, 2)) * 0.3)
        wt = T.Parameter("wt", rng.standard_normal((3, 2, 3, 3)) * 0.3)
        x = T.Parameter("x", rng.standard_normal((2, 8, 8)) * 0.5 + 1.0)

        def composite():
            f = T.conv2d(x, w33, padding="reflect", pad=1)
            f = T.relu(f + T.constant(0.1))
            f = T.downsample2(f, w22)
            f = T.upsample2(f, w22)
            f = T.conv_transpose2d(f, wt)
            f = T.crop2d(f, 1, 1, 8, 8)
            f = T.concat_channels([f, T.square(f)])
            a, _ = T.slice_channels(f, 0, 2), None
            g = T.pad_zero(a, (1, 1, 1, 1))
            g = g * T.constant(0.5) + T.abs_val(g)
            return T.sum_all(g) + T.mean_all(T.square(a)) + T.dot(a, a)

        op_worst = _fd_check([w33, w22, wt, x], composite, seed=5)

        # end-to-end tiny model
        model = RamModel(RamConfig(num_scales=1, base_width=4, blocks=1,
                                   krylov_depth=1, head_channels=(1,), seed=6))
        for p in model.parameters():
            p.data = rng.standard_normal(p.data.shape) * 0.05
        blur = ops.make_blur(ops.make_gaussian_kernel(0.8, 3), (1, 8, 8))
        y = blur.apply(rng.random((1, 8, 8)))
        noise = NoiseParams(sigma=0.1)
        target = rng.random((1, 8, 8))

        def model_loss():
            out = model.forward(y, blur, noise)
            return T.sum_all(T.square(out - T.constant(target)))

        model_worst = _fd_check(model.parameters(), model_loss, picks=1, seed=7)
        elapsed = time.time() - t0
        report(4, f"gradient checks: ops {op_worst:.1e}, model {model_worst:.1e}, "
                  f"{elapsed:.0f}s",
               op_worst < 1e-4 and model_worst < 1e-4 and elapsed < 120)


def _equivariance_gap(model, op, y, noise, alphas=(0.5, 2.0, 10.0)):
    worst = 0.0
    base = model.reconstruct(y, op, noise)
    for a in alphas:
        scaled = model.reconstruct(
            a * y, op, NoiseParams(sigma=a * noise.sigma, gamma=a * noise.gamma))
        worst = max(worst, np.linalg.norm(scaled - a * base)
                    / max(np.linalg.norm(scaled), 1e-300))
    return worst


class TestCriterion05:
    def test_scale_equivariance(self):
        rng = np.random.default_rng(8)
        cfg = RamConfig(num_scales=2, base_width=4, blocks=1, krylov_depth=1,
                        head_channels=(1,), seed=9)
        shape = (1, 16, 16)
        cases = {
            "identity": ops.identity_operator(shape),
            "inpainting": ops.make_inpainting(ops.make_bernoulli_mask(shape, 0.6, seed=10)),
            "blur": ops.make_blur(ops.make_gaussian_kernel(1.0, 5), shape),
        }

        random_model = RamModel(cfg)
        for p in random_model.parameters():
            p.data = rng.standard_normal(p.data.shape) * 0.1

        trained_model = RamModel(cfg)
        task = tr.TaskSpec("den", "identity", sigma_range=0.1)
        data = tr.make_synthetic_dataset("piecewise-constant", 8, shape, seed=11)
        tr.train(trained_model, [task],
                 tr.TrainConfig(steps=20, batch_size=1, patch_size=16, lr=1e-3,
                                lr_decay_step=19, log_every=20, seed=12),
                 {"den": data})

        worst = 0.0
        for op in cases.values():
            x = rng.random(op.domain_shape)
            y, _ = sample_noise(op.apply(x), NoiseParams(sigma=0.08), seed=13)
            for model in (random_model, trained_model):
                worst = max(worst, _equivariance_gap(model, op, y,
                                                     NoiseParams(sigma=0.08)))
        report(5, f"scale equivariance worst rel gap {worst:.1e}", worst < 1e-8)


class TestCriterion06:
    def test_ksm(self):
        rng = np.random.default_rng(14)
        op = ops.make_blur(ops.make_gaussian_kernel(1.0, 5), (1, 12, 12))
        opn = ops.normalize(op)

        # recurrence equals independent recomputation bit-exactly
        model = RamModel(RamConfig(num_scales=1, base_width=4, blocks=1,
                                   krylov_depth=3, head_channels=(1,), seed=15))
        x_img = T.constant(rng.standard_normal((1, 12, 12)))
        aty = T.constant(rng.standard_normal((1, 12, 12)))
        stack = model.build_ksm_stack(x_img, aty, opn).data
        exact = True
        for k in range(4):
            u = x_img.data.copy()
            v = aty.data.copy()
            for _ in range(k):
                u = opn.normal(u)
                v = opn.normal(v)
            exact &= np.array_equal(stack[2 * k], u[0])
            exact &= np.array_equal(stack[2 * k + 1], v[0])

        # 1x1 diagnostic mode: each channel of the module's residual output
        # lies in the span of the Krylov features
        diag = RamModel(RamConfig(num_scales=1, base_width=4, blocks=1,
                                  krylov_depth=3, head_channels=(1,),
                                  ksm_kernel_size=1, seed=16))
        for p in diag.parameters():
            p.data = rng.standard_normal(p.data.shape) * 0.2
        f = T.constant(rng.standard_normal((4, 12, 12)))
        out = diag._ksm(0, 1, f, aty, opn)
        g = out.data - f.data
        x_img = T.conv2d(f, diag.param("head1.ksm0.decode"))
        feats = diag.build_ksm_stack(x_img, aty, opn).data.reshape(8, -1)
        resid = 0.0
        for ch in range(4):
            v = g[ch].ravel()
            coef, *_ = np.linalg.lstsq(feats.T, v, rcond=None)
            resid = max(resid, np.linalg.norm(feats.T @ coef - v)
                        / max(np.linalg.norm(v), 1e-300))
        report(6, f"ksm recurrence bit-exact {exact}, span residual {resid:.1e}",
               exact and resid < 1e-8)


class TestCriterion07:
    def test_sure_validity(self):
        n = 64
        rng = np.random.default_rng(17)
        w = np.eye(n) + rng.standard_normal((n, n)) / np.sqrt(n)
        img = rng.standard_normal((1, 8, 8))

        def fn(yv):
            flat = w @ yv.reshape(-1)
            return T.constant(flat.reshape(1, 8, 8))

        div = mc_divergence(fn, img, fn(img), probes=300, seed=18).item()
        trace = float(np.trace(w))
        div_rel = abs(div - trace) / abs(trace)

        # expected SURE (plus m sigma^2) vs true risk of linear shrinkage
        sigma, c, m = 0.2, 0.7, 64
        x = rng.standard_normal((1, 8, 8))

        class Shrink:
            def forward(self, yv, op, noise):
                return T.constant(c * yv)

        op = ops.identity_operator((1, 8, 8))
        draws = 10 ** 4
        sure_vals = np.zeros(draws)
        risk_vals = np.zeros(draws)
        model = Shrink()
        for i in range(draws):
            yv = x + sigma * np.random.default_rng(1000 + i).standard_normal(x.shape)
            inst = ProblemInstance(op=op, y=yv, noise=NoiseParams(sigma=sigma), x=x)
            xhat = model.forward(inst.y, inst.op, inst.noise)
            sure_vals[i] = sure_loss(model, inst, xhat, seed=i).item() - m * sigma ** 2
            risk_vals[i] = np.sum((c * yv - x) ** 2)
        risk_rel = abs(sure_vals.mean() - risk_vals.mean()) / risk_vals.mean()

        # SURE-minimizing shrinkage vs the Wiener value
        s2 = float(np.mean(x ** 2))
        wiener = s2 / (s2 + sigma ** 2)
        grid = np.arange(0.3, 1.0, 0.005)
        avg = np.zeros_like(grid)
        for i in range(200):
            yv = x + sigma * np.random.default_rng(5000 + i).standard_normal(x.shape)
            y2 = float(np.sum(yv ** 2))
            # closed-form SURE for R(y) = c y: (c-1)^2||y||^2 + 2 sigma^2 c m
            avg += (grid - 1) ** 2 * y2 + 2 * sigma ** 2 * grid * m
        c_star = float(grid[np.argmin(avg)])
        c_gap = abs(c_star - wiener)
        report(7, f"sure: divergence rel {div_rel:.3f}, risk rel {risk_rel:.3f}, "
                  f"c* gap {c_gap:.3f}",
               div_rel < 0.03 and risk_rel < 0.05 and c_gap < 0.02)


class TestCriterion08:
    def test_selfsup_finetune_gain(self):
        t0 = time.time()
        shape = (1, 32, 32)
        sign, keep = ops.make_cs_pattern(shape, 4, seed=19)
        op = ops.make_compressed_sensing(sign, keep, shape)
        noise = NoiseParams(sigma=0.05)
        imgs = tr.make_synthetic_dataset("piecewise-constant", 9, shape, seed=20)
        insts = []
        for i, x in enumerate(imgs):
            y, _ = sample_noise(op.apply(x), noise, seed=100 + i)
            insts.append(ProblemInstance(op=op, y=y, noise=noise, x=x))
        train_inst, test = insts[0], insts[1:]

        model = RamModel(RamConfig(num_scales=1, base_width=8, blocks=1,
                                   krylov_depth=2, head_channels=(1,), seed=21))

        def test_psnr():
            return float(np.mean([psnr(t.x, model.reconstruct(t.y, t.op, t.noise))
                                  for t in test]))

        zero_shot = test_psnr()
        finetune(model, [train_inst],
                 FinetuneConfig(mc_loss="sure", null_loss="ei", omega=0.1,
                                steps=150, lr=2e-3, seed=22))
        gain = test_psnr() - zero_shot
        elapsed = time.time() - t0
        report(8, f"cs x4 sure+ei single-measurement gain {gain:.2f} dB in "
                  f"{elapsed:.0f}s", gain >= 1.0 and elapsed < 600)


class TestCriterion09:
    class Shrinkage:
        def __init__(self, c):
            self.c = c
            self.eval_count = 0

        def reconstruct(self, y, op, noise):
            self.eval_count += 1
            return self.c * op.adjoint(y)

    def test_uq(self):
        group = TransformGroup("shifts", max_shift_frac=0.0)

        # exactly N+1 evaluations
        inst = ProblemInstance(op=ops.identity_operator((1, 16, 16)),
                               y=np.random.default_rng(23).random((1, 16, 16)),
                               noise=NoiseParams(sigma=0.1))
        counter = self.Shrinkage(0.9)
        equivariant_bootstrap(counter, inst, group, n=50, seed=24)
        evals_ok = counter.eval_count == 51

        # coverage on the linear-Gaussian toy
        s2, sigma = 1.0, 0.2
        c_star = s2 / (s2 + sigma ** 2)
        rng = np.random.default_rng(25)
        insts = []
        for _ in range(200):
            x = rng.standard_normal((1, 16, 16))
            y = x + sigma * rng.standard_normal((1, 16, 16))
            insts.append(ProblemInstance(op=ops.identity_operator((1, 16, 16)),
                                         y=y, noise=NoiseParams(sigma=sigma), x=x))
        curve = coverage_curve(self.Shrinkage(c_star), insts, group, n=200,
                               levels=np.round(np.arange(0.1, 0.95, 0.1), 2), seed=26)
        cov_gap = max(abs(emp - nom) for nom, emp in curve)

        # error map vs the analytic replicate variance
        c = 0.9
        inst0 = ProblemInstance(op=ops.identity_operator((1, 24, 24)),
                                y=0.5 * rng.standard_normal((1, 24, 24)),
                                noise=NoiseParams(sigma=0.5),
                                x=np.zeros((1, 24, 24)))
        sample = equivariant_bootstrap(self.Shrinkage(c), inst0, group,
                                       n=500, seed=27)
        err = pixelwise_errors(sample)
        expect = c ** 2 * 0.5 ** 2 + (c - 1) ** 2 * sample.base[0] ** 2
        var_gap = abs(err.mean() - expect.mean()) / expect.mean()
        report(9, f"uq: N+1 evals {evals_ok}, coverage gap {cov_gap:.3f}, "
                  f"error-map gap {var_gap:.3f}",
               evals_ok and cov_gap <= 0.10 and var_gap <= 0.10)


class TestCriterion10:
    def test_noise_moments(self):
        clean = np.full((10, 10), 2.0)
        draws = 10 ** 5
        params = NoiseParams(sigma=0.3, gamma=0.05)
        # 1000 fields x 100 pixels = 1e5 draws of the same marginal
        samples = np.stack([sample_noise(clean[None], params, seed=[28, i])[0][0]
                            for i in range(1000)])
        flat = samples.reshape(-1)
        mean_rel = abs(flat.mean() - 2.0) / 2.0
        var_true = 0.05 * 2.0 + 0.3 ** 2
        var_rel = abs(flat.var() - var_true) / var_true
        report(10, f"noise moments: mean rel {mean_rel:.4f}, var rel {var_rel:.4f}",
               mean_rel < 0.05 and var_rel < 0.05)


class TestCriterion11:
    def test_end_to_end_training(self):
        t0 = time.time()
        model = RamModel(RamConfig(num_scales=2, base_width=8, blocks=1,
                                   krylov_depth=2, head_channels=(1,), seed=29))
        tasks = [
            tr.TaskSpec("inpainting", "inpainting", sigma_range=(0.01, 0.1),
                        params={"p_range": [0.3, 0.9]}),
            tr.TaskSpec("blur", "blur", sigma_range=(0.01, 0.05),
                        params={"sigma_blur": 1.0, "kernel_size": 7}),
            tr.TaskSpec("denoising", "identity", sigma_range=0.1),
        ]
        data = {t.name: tr.make_synthetic_dataset("piecewise-constant", 200,
                                                  (1, 32, 32), seed=30)
                for t in tasks}
        cfg = tr.TrainConfig(steps=500, batch_size=2, patch_size=32, lr=2e-3,
                             lr_decay_step=450, log_every=250, seed=31)
        rep = tr.train(model, tasks, cfg, data)
        elapsed = time.time() - t0
        gains = {name: rep["task_psnr"][name] - rep["baseline_psnr"][name]
                 for name in rep["task_psnr"]}
        ok = all(g >= 3.0 for g in gains.values()) and elapsed < 1800
        gain_txt = " ".join(f"{k}:+{v:.2f}dB" for k, v in gains.items())
        report(11, f"3-task training {gain_txt} in {elapsed:.0f}s", ok)


class TestCriterion12:
    def test_formats_and_pipeline(self, tmp_path):
        # TNSR bit-exact round trip
        rng = np.random.default_rng(32)
        entries = {}
        for d in (1, 2, 3, 4):
            entries[f"f32.{d}"] = rng.standard_normal(tuple([3] * d)).astype(np.float32)
            entries[f"f64.{d}"] = rng.standard_normal(tuple([3] * d))
        tnsr.save_tensors(tmp_path / "t.tnsr", entries)
        back = tnsr.load_tensors(tmp_path / "t.tnsr")
        tnsr_ok = all(back[k].dtype == entries[k].dtype
                      and np.array_equal(back[k].view(np.uint8),
                                         entries[k].view(np.uint8))
                      for k in entries)

        # full CLI pipeline, twice, byte-compared
        x = rng.random((1, 16, 16))
        import json
        train_cfg = {"model": {"num_scales": 1, "base_width": 4, "blocks": 1,
                               "krylov_depth": 1, "head_channels": [1], "seed": 1},
                     "tasks": [{"name": "den", "kind": "identity",
                                "sigma_range": 0.1}],
                     "train": {"steps": 3, "batch_size": 1, "patch_size": 16,
                               "lr_decay_step": 2, "log_every": 3, "seed": 2},
                     "dataset": {"kind": "piecewise-constant", "count": 4,
                                 "shape": [1, 16, 16], "seed": 3}}
        (tmp_path / "train.json").write_text(json.dumps(train_cfg))

        outputs = []
        codes = []
        for run in ("r1", "r2"):
            d = tmp_path / run
            d.mkdir()
            tnsr.save_tensors(d / "x.tnsr", {"x": x})
            codes.append(cli.main(["train", "--config", str(tmp_path / "train.json"),
                                   "--out", str(d / "ckpt.tnsr")]))
            codes.append(cli.main(["simulate", "--task", "denoising",
                                   "--in", str(d / "x.tnsr"),
                                   "--out", str(d / "inst.json"), "--seed", "9"]))
            codes.append(cli.main(["reconstruct", "--model", str(d / "ckpt.tnsr"),
                                   "--instance", str(d / "inst.json"),
                                   "--out", str(d / "xhat.tnsr")]))
            codes.append(cli.main(["eval", "--pred", str(d / "xhat.tnsr"),
                                   "--ref", str(d / "x.tnsr"),
                                   "--metrics", "psnr,ssim"]))
            codes.append(cli.main(["uq", "--model", str(d / "ckpt.tnsr"),
                                   "--instance", str(d / "inst.json"),
                                   "--samples", "4", "--out", str(d / "err.tnsr"),
                                   "--seed", "10"]))
            outputs.append({f: (d / f).read_bytes() for f in
                            ("ckpt.tnsr", "inst.json", "inst.tnsr",
                             "xhat.tnsr", "err.tnsr")})
        exit_ok = all(c == 0 for c in codes)
        repro_ok = outputs[0] == outputs[1]
        report(12, f"tnsr round trip {tnsr_ok}, pipeline exit codes ok {exit_ok}, "
                   f"byte-reproducible {repro_ok}",
               tnsr_ok and exit_ok and repro_ok)
