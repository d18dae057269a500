import numpy as np
import pytest
import scipy.ndimage

from reconkit import operators as ops
from reconkit import selfsup as ss
from reconkit import tensor as T
from reconkit.config import config_dict, read_config
from reconkit.model import RamConfig, RamModel
from reconkit.noise import NoiseParams
from reconkit.problem import ProblemInstance


TINY = RamConfig(num_scales=1, base_width=4, blocks=1, krylov_depth=1,
                 head_channels=(1,), seed=5)


class LinearModel:
    """R(y) = c * (input mapped to image domain); pointwise stub."""

    def __init__(self, c):
        self.c = c

    def forward(self, y, op, noise):
        yt = y if isinstance(y, T.Tensor) else T.constant(np.asarray(y, dtype=np.float64))
        img = T.apply_linear(yt, op.adjoint, op.apply)
        return img * T.constant(self.c)

    def reconstruct(self, y, op, noise):
        return self.forward(y, op, noise).data


class ZeroModel:
    def forward(self, y, op, noise):
        return T.constant(np.zeros(op.domain_shape))


class TestTransforms:
    @pytest.mark.parametrize("kind", ["shifts", "rotations90", "flips", "composite"])
    def test_exact_inverse(self, kind):
        group = ss.TransformGroup(kind)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((1, 2, 20, 20))
        for seed in range(10):
            t = group.sample((2, 20, 20), seed)
            assert np.array_equal(t.inverse_np(t.forward_np(x)), x)

    def test_shift_bound(self):
        group = ss.TransformGroup("shifts", max_shift_frac=0.1)
        for seed in range(50):
            t = group.sample((1, 20, 20), seed)
            assert abs(t.shift[0]) <= 2 and abs(t.shift[1]) <= 2

    def test_tensor_apply_adjoint_is_inverse(self):
        t = ss.Transform(shift=(2, -1), rot=1, flip_h=True)
        rng = np.random.default_rng(1)
        x = T.constant(rng.standard_normal((1, 8, 8)))
        y = t.apply(x)
        assert np.array_equal(t.invert(y).data, x.data)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ss.TransformGroup("projective")


class TestMcDivergence:
    def test_identity_exact(self):
        y = np.random.default_rng(2).standard_normal((1, 10, 10))
        div = ss.mc_divergence(lambda v: T.constant(v), y, probes=3, seed=3)
        assert div.item() == pytest.approx(100.0, abs=1e-9)

    def test_constant_map_zero(self):
        y = np.random.default_rng(3).standard_normal((1, 8, 8))
        c = np.ones((1, 8, 8))
        div = ss.mc_divergence(lambda v: T.constant(c), y, probes=5, seed=4)
        assert div.item() == 0.0

    def test_linear_trace_oracle(self):
        rng = np.random.default_rng(5)
        n = 50
        # diagonally dominant: the estimator variance comes only from the
        # off-diagonal part, so a 3% relative bound needs trace >> noise
        w = 2.0 * np.eye(n) + rng.standard_normal((n, n)) / n
        y = rng.standard_normal(n)

        def fn(v):
            return T.constant(w @ v)

        div = ss.mc_divergence(fn, y, probes=2000, seed=6)
        tr = np.trace(w)
        assert abs(div.item() - tr) / abs(tr) < 0.03

    def test_unbiased_over_repetitions(self):
        rng = np.random.default_rng(7)
        n = 30
        w = rng.standard_normal((n, n)) / np.sqrt(n)
        y = rng.standard_normal(n)
        ests = [ss.mc_divergence(lambda v: T.constant(w @ v), y, probes=20, seed=s).item()
                for s in range(50)]
        se = np.std(ests, ddof=1) / np.sqrt(len(ests))
        assert abs(np.mean(ests) - np.trace(w)) < 3 * se + 1e-12

    def test_differentiable_through_fn(self):
        c = T.Parameter("c", np.array(1.5))
        y = np.random.default_rng(8).standard_normal((1, 6, 6))
        div = ss.mc_divergence(lambda v: T.constant(v) * c, y, probes=2, seed=9)
        div.backward()
        # div == 36 c, so d div / d c == 36
        assert c.grad.item() == pytest.approx(36.0, abs=1e-9)

    def test_precomputed_base(self):
        c = T.Parameter("c", np.array(1.5))
        y = np.random.default_rng(10).standard_normal((1, 6, 6))
        calls = []

        def fn(v):
            calls.append(v)
            return T.constant(np.sin(v)) * c

        own = ss.mc_divergence(fn, y, probes=3, seed=11)
        base = fn(y)
        calls.clear()
        given = ss.mc_divergence(fn, y, probes=3, seed=11, base=base)
        assert given.item() == own.item()
        assert len(calls) == 3  # one per probe, none for the base


class TestSure:
    def make_inst(self, sigma=0.2, shape=(1, 8, 8), seed=0):
        rng = np.random.default_rng(seed)
        op = ops.identity_operator(shape)
        x = rng.random(shape)
        y = x + sigma * rng.standard_normal(shape)
        return ProblemInstance(op=op, y=y, noise=NoiseParams(sigma=sigma), x=x)

    def test_zero_model_gives_measurement_norm(self):
        inst = self.make_inst(seed=10)
        loss = ss.sure_loss(ZeroModel(), inst, probes=1, seed=11)
        assert loss.item() == pytest.approx(np.sum(inst.y ** 2), abs=1e-10)

    def test_gamma_rejected(self):
        inst = self.make_inst(seed=12)
        inst.noise = NoiseParams(sigma=0.1, gamma=0.5)
        with pytest.raises(ValueError):
            ss.sure_loss(ZeroModel(), inst)

    def test_matches_true_risk_for_linear_shrinkage(self):
        # E[SURE] - m sigma^2 == E || c y - x ||^2 for R = c I
        rng = np.random.default_rng(13)
        shape = (1, 8, 8)
        m = 64
        sigma, c = 0.3, 0.7
        x = rng.random(shape)
        op = ops.identity_operator(shape)
        model = LinearModel(c)
        sure_vals, risk_vals = [], []
        for s in range(10000):
            n = rng.standard_normal(shape)
            y = x + sigma * n
            inst = ProblemInstance(op=op, y=y, noise=NoiseParams(sigma=sigma))
            sure_vals.append(ss.sure_loss(model, inst, probes=1, seed=s).item())
            risk_vals.append(np.sum((c * y - x) ** 2))
        lhs = np.mean(sure_vals) - m * sigma ** 2
        rhs = np.mean(risk_vals)
        assert abs(lhs - rhs) / rhs < 0.05

    def test_minimizer_matches_wiener_shrinkage(self):
        rng = np.random.default_rng(14)
        shape = (1, 64, 64)
        sigma = 0.4
        x = rng.standard_normal(shape)  # zero-mean signal
        s2 = float(np.mean(x ** 2))
        y = x + sigma * rng.standard_normal(shape)
        op = ops.identity_operator(shape)
        inst = ProblemInstance(op=op, y=y, noise=NoiseParams(sigma=sigma))
        cs = np.arange(0.2, 1.2, 0.005)
        losses = [ss.sure_loss(LinearModel(c), inst, probes=4, seed=15).item() for c in cs]
        c_star = cs[int(np.argmin(losses))]
        wiener = s2 / (s2 + sigma ** 2)
        assert abs(c_star - wiener) < 0.02


class SmoothingModel:
    """c * mean over the 8 kept-scaled neighbors (center excluded, so the
    predictor never reads the pixel it predicts)."""

    _kernel = np.array([[1.0, 1, 1], [1, 0, 1], [1, 1, 1]]) / 8.0

    def __init__(self, c, keep_prob):
        self.c = c
        self.keep_prob = keep_prob

    def forward(self, y, op, noise):
        arr = y.data if isinstance(y, T.Tensor) else np.asarray(y, dtype=np.float64)
        sm = np.stack([scipy.ndimage.correlate(ch, self._kernel, mode="wrap")
                       for ch in arr]) / self.keep_prob
        return T.constant(self.c * sm)


class TestSplit:
    def make_inst(self, sigma=0.5, shape=(1, 16, 16), seed=16):
        rng = np.random.default_rng(seed)
        op = ops.identity_operator(shape)
        x = np.ones(shape)
        y = x + sigma * rng.standard_normal(shape)
        return ProblemInstance(op=op, y=y, noise=NoiseParams(sigma=sigma), x=x)

    def test_keep_all_gives_zero(self):
        inst = self.make_inst()
        loss = ss.split_loss(ZeroModel(), inst, keep_prob=1.0, seed=17)
        assert loss.item() == 0.0

    def test_nonnegative(self):
        inst = self.make_inst(seed=18)
        assert ss.split_loss(ZeroModel(), inst, keep_prob=0.7, seed=19).item() >= 0

    def test_input_never_contains_held_out_entries(self):
        inst = self.make_inst(seed=20)
        seen = {}

        class AuditModel(ZeroModel):
            def forward(self, y, op, noise):
                seen["y"] = np.asarray(y, dtype=np.float64).copy()
                seen["op"] = op
                return super().forward(y, op, noise)

        ss.split_loss(AuditModel(), inst, keep_prob=0.6, seed=21)
        # reconstruct the mask from the masked operator and audit the input
        mask = seen["op"].apply(np.ones(inst.op.domain_shape))
        assert np.all(seen["y"][mask == 0] == 0)

    def test_optimal_shrinkage_below_one(self):
        # noise2self: predicting held-out pixels from kept neighbors
        # favors shrinking toward the smooth estimate
        keep = 0.8
        cs = np.arange(0.5, 1.4, 0.01)
        losses = np.zeros_like(cs)
        for seed in range(30):
            inst = self.make_inst(seed=100 + seed)
            for i, c in enumerate(cs):
                losses[i] += ss.split_loss(SmoothingModel(c, keep), inst,
                                           keep_prob=keep, seed=seed).item()
        c_star = cs[int(np.argmin(losses))]
        assert c_star < 1.0

    def test_invalid_keep_prob(self):
        inst = self.make_inst()
        with pytest.raises(ValueError):
            ss.split_loss(ZeroModel(), inst, keep_prob=0.0)


class TestEi:
    def test_identity_reconstructor_zero_loss(self):
        op = ops.identity_operator((1, 12, 12))
        y = np.random.default_rng(22).random((1, 12, 12))
        inst = ProblemInstance(op=op, y=y, noise=NoiseParams())
        group = ss.TransformGroup("composite")
        for seed in range(5):
            loss = ss.ei_loss(LinearModel(1.0), inst, group, seed=seed)
            assert loss.item() == pytest.approx(0.0, abs=1e-20)

    def test_nonnegative(self):
        op = ops.make_inpainting(ops.make_bernoulli_mask((1, 12, 12), 0.5, seed=23))
        y = op.apply(np.random.default_rng(24).random((1, 12, 12)))
        inst = ProblemInstance(op=op, y=y, noise=NoiseParams(sigma=0.05))
        loss = ss.ei_loss(LinearModel(0.5), inst, ss.TransformGroup("shifts"), seed=25)
        assert loss.item() >= 0

    def test_trajectory_decreases_on_single_measurement(self):
        rng = np.random.default_rng(26)
        op = ops.make_inpainting(ops.make_bernoulli_mask((1, 16, 16), 0.6, seed=27))
        x = rng.random((1, 16, 16))
        y = op.apply(x)
        inst = ProblemInstance(op=op, y=y, noise=NoiseParams(sigma=0.01))
        model = RamModel(TINY)
        opt = T.AdamOptimizer(model.parameters(), lr=1e-3)
        group = ss.TransformGroup("shifts")
        history = []
        for step in range(60):
            opt.zero_grad()
            loss = ss.ei_loss(model, inst, group, seed=step)
            loss.backward()
            opt.step()
            history.append(loss.item())
        assert np.mean(history[-10:]) < np.mean(history[:10])


class TestMoi:
    def test_invertible_fixed_point(self):
        op = ops.identity_operator((1, 10, 10))
        y = np.random.default_rng(28).random((1, 10, 10))
        inst = ProblemInstance(op=op, y=y, noise=NoiseParams())
        loss = ss.moi_loss(LinearModel(1.0), inst, [op], seed=29)
        assert loss.item() == pytest.approx(0.0, abs=1e-20)

    def test_empty_family(self):
        op = ops.identity_operator((1, 4, 4))
        inst = ProblemInstance(op=op, y=np.zeros((1, 4, 4)), noise=NoiseParams())
        with pytest.raises(ValueError):
            ss.moi_loss(LinearModel(1.0), inst, [], seed=0)

    def test_nonnegative(self):
        op = ops.make_inpainting(ops.make_bernoulli_mask((1, 10, 10), 0.5, seed=30))
        op2 = ops.make_inpainting(1.0 - op.arrays["mask"])
        y = op.apply(np.random.default_rng(31).random((1, 10, 10)))
        inst = ProblemInstance(op=op, y=y, noise=NoiseParams(sigma=0.02))
        assert ss.moi_loss(LinearModel(0.7), inst, [op2], seed=32).item() >= 0


class TestSharedReconstruction:
    """finetune hands one x_hat = R(y) to every loss of an instance."""

    def make(self):
        rng = np.random.default_rng(40)
        op = ops.make_inpainting(ops.make_bernoulli_mask((1, 16, 16), 0.6, seed=41))
        y = op.apply(rng.random((1, 16, 16))) + 0.05 * rng.standard_normal((1, 16, 16))
        return RamModel(TINY), ProblemInstance(op=op, y=y, noise=NoiseParams(sigma=0.05))

    @staticmethod
    def loss_and_grads(model, make_loss):
        model.zero_grad()
        loss = make_loss()
        loss.backward()
        return loss.item(), {p.name: p.grad.copy() for p in model.parameters()}

    @staticmethod
    def assert_grads_close(got, ref):
        for name, g in ref.items():
            assert np.max(np.abs(got[name] - g)) <= 1e-12 * np.max(np.abs(g)), name

    def losses(self, model, inst):
        group = ss.TransformGroup("composite")
        return {"sure": lambda **kw: ss.sure_loss(model, inst, probes=2, seed=42, **kw),
                "ei": lambda **kw: ss.ei_loss(model, inst, group, seed=43, **kw),
                "moi": lambda **kw: ss.moi_loss(model, inst, [inst.op], seed=44, **kw)}

    @pytest.mark.parametrize("name", ["sure", "ei", "moi"])
    def test_given_xhat_matches_own(self, name):
        model, inst = self.make()
        loss = self.losses(model, inst)[name]
        ref, ref_g = self.loss_and_grads(model, loss)
        got, got_g = self.loss_and_grads(
            model, lambda: loss(xhat=model.forward(inst.y, inst.op, inst.noise)))
        assert got == ref
        self.assert_grads_close(got_g, ref_g)

    @pytest.mark.parametrize("null", ["ei", "moi"])
    def test_shared_sum_matches_separate(self, null):
        # one backward through the shared x_hat node against the sum of
        # the losses each running their own forwards
        model, inst = self.make()
        losses = self.losses(model, inst)
        omega = T.constant(0.1)
        ref, ref_g = self.loss_and_grads(model, lambda: losses["sure"]() + omega * losses[null]())

        def shared():
            xhat = model.forward(inst.y, inst.op, inst.noise)
            return losses["sure"](xhat=xhat) + omega * losses[null](xhat=xhat)

        evals = model.eval_count
        got, got_g = self.loss_and_grads(model, shared)
        assert model.eval_count - evals == 4  # x_hat, two probes, one null-space pass
        assert got == ref
        self.assert_grads_close(got_g, ref_g)


class TestFinetune:
    def make_instances(self, n=1, sigma=0.05, seed=33):
        rng = np.random.default_rng(seed)
        out = []
        for i in range(n):
            op = ops.make_inpainting(ops.make_bernoulli_mask((1, 16, 16), 0.6, seed=seed + i))
            x = rng.random((1, 16, 16))
            y = op.apply(x) + sigma * rng.standard_normal((1, 16, 16))
            out.append(ProblemInstance(op=op, y=y, noise=NoiseParams(sigma=sigma), x=x))
        return out

    def test_omega_zero_matches_pure_mc(self):
        insts = self.make_instances()
        cfg_a = ss.FinetuneConfig(mc_loss="sure", null_loss="ei", omega=0.0, steps=5, seed=2)
        cfg_b = ss.FinetuneConfig(mc_loss="sure", null_loss="none", steps=5, seed=2)
        ra = ss.finetune(RamModel(TINY), insts, cfg_a)
        rb = ss.finetune(RamModel(TINY), insts, cfg_b)
        assert np.allclose(ra["loss_history"], rb["loss_history"], atol=1e-12)

    def test_deterministic(self):
        insts = self.make_instances()
        cfg = ss.FinetuneConfig(mc_loss="split", null_loss="ei", steps=5, seed=3)
        ra = ss.finetune(RamModel(TINY), insts, cfg)
        rb = ss.finetune(RamModel(TINY), insts, cfg)
        assert ra["loss_history"] == rb["loss_history"]

    def test_sure_with_poisson_rejected(self):
        # refused before any forward, whichever instance carries gamma > 0
        cfg = ss.FinetuneConfig(mc_loss="sure", steps=2)
        for bad in range(2):
            insts = self.make_instances(n=2)
            insts[bad].noise = NoiseParams(sigma=0.05, gamma=0.1)
            model = RamModel(TINY)
            with pytest.raises(ValueError):
                ss.finetune(model, insts, cfg)
            assert model.eval_count == 0

    @pytest.mark.parametrize("mc_loss,null_loss,forwards", [
        ("sure", "ei", 3), ("sure", "moi", 3), ("sure", "none", 2),
        ("split", "ei", 3), ("split", "moi", 3), ("split", "none", 1)])
    def test_forwards_per_step(self, mc_loss, null_loss, forwards):
        model = RamModel(TINY)
        cfg = ss.FinetuneConfig(mc_loss=mc_loss, null_loss=null_loss, steps=2, seed=7)
        report = ss.finetune(model, self.make_instances(), cfg)
        assert report["forwards_per_step"] == forwards
        assert model.eval_count == forwards * cfg.steps

    def test_best_checkpoint_restored(self):
        insts = self.make_instances()
        cfg = ss.FinetuneConfig(mc_loss="split", null_loss="none", steps=8, seed=4)
        model = RamModel(TINY)
        report = ss.finetune(model, insts, cfg)
        assert 0 <= report["best_step"] < cfg.steps
        assert report["best_score"] == min(report["loss_history"])

    def test_best_checkpoint_is_the_scored_one(self):
        # a step scores the parameters before its update; with one step,
        # the restored best checkpoint is the initial model
        model = RamModel(TINY)
        initial = {p.name: p.data.copy() for p in model.parameters()}
        cfg = ss.FinetuneConfig(mc_loss="split", null_loss="none", steps=1, lr=1e-2, seed=4)
        report = ss.finetune(model, self.make_instances(), cfg)
        assert report["best_step"] == 0
        for p in model.parameters():
            assert np.array_equal(p.data, initial[p.name]), p.name

    @pytest.mark.parametrize("mc_loss,null_loss", [("sure", "ei"), ("split", "moi")])
    def test_reads_no_ground_truth(self, mc_loss, null_loss):
        insts = self.make_instances(n=2)
        for inst in insts:
            inst.x = None
        cfg = ss.FinetuneConfig(mc_loss=mc_loss, null_loss=null_loss, steps=3, seed=6)
        report = ss.finetune(RamModel(TINY), insts, cfg)
        assert len(report["loss_history"]) == cfg.steps
        assert np.all(np.isfinite(report["loss_history"]))
        assert 0 <= report["best_step"] < cfg.steps

    def test_config_round_trip(self):
        cfg = ss.FinetuneConfig(mc_loss="split", null_loss="moi", omega=0.3, steps=11)
        assert read_config(ss.FinetuneConfig, config_dict(cfg), "finetune config") == cfg
