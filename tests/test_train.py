import functools
import gc
import tracemalloc

import numpy as np
import pytest

from reconkit import operators as ops
from reconkit import tensor as T
from reconkit import train as tr
from reconkit.config import config_dict, read_config
from reconkit.model import RamConfig, RamModel
from reconkit.noise import NoiseParams
from reconkit.problem import ProblemInstance, load_instance, save_instance


TINY = RamConfig(num_scales=1, base_width=4, blocks=1, krylov_depth=1,
                 head_channels=(1,), seed=3)


class StubModel:
    """Reconstructor that always returns a fixed image."""

    def __init__(self, out):
        self.out = out

    def forward(self, y, op, noise):
        return T.constant(self.out)


class TestSyntheticData:
    @pytest.mark.parametrize("kind", ["piecewise-constant", "smooth-bumps", "text-like"])
    def test_range_and_determinism(self, kind):
        a = tr.make_synthetic_dataset(kind, 5, (1, 16, 16), seed=4)
        b = tr.make_synthetic_dataset(kind, 5, (1, 16, 16), seed=4)
        assert len(a) == 5
        for img_a, img_b in zip(a, b):
            assert img_a.shape == (1, 16, 16)
            assert np.array_equal(img_a, img_b)
            assert img_a.min() >= 0 and img_a.max() <= 1

    def test_piecewise_sparse_gradients(self):
        for img in tr.make_synthetic_dataset("piecewise-constant", 10, (1, 32, 32), seed=5):
            gy = np.diff(img[0], axis=0, prepend=img[0][:1])
            gx = np.diff(img[0], axis=1, prepend=img[0][:, :1])
            flat = (gy == 0) & (gx == 0)
            assert flat.mean() >= 0.8

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            tr.make_synthetic_dataset("checkerboard", 1, (1, 8, 8), seed=0)
        with pytest.raises(ValueError, match="unknown dataset kind"):  # before any draw
            tr.make_synthetic_dataset("checkerboard", 0, (1, 8, 8), seed=0)


class TestSampleBatch:
    def test_deterministic(self):
        task = tr.TaskSpec("inp", "inpainting", sigma_range=(0.01, 0.1))
        data = tr.make_synthetic_dataset("piecewise-constant", 8, (1, 40, 40), seed=6)
        a = tr.sample_batch(task, data, 4, 32, seed=5)
        b = tr.sample_batch(task, data, 4, 32, seed=5)
        for i1, i2 in zip(a, b):
            assert np.array_equal(i1.y, i2.y)
            assert np.array_equal(i1.x, i2.x)
            assert i1.noise == i2.noise

    def test_patch_shape(self):
        task = tr.TaskSpec("den", "identity", sigma_range=0.1)
        data = tr.make_synthetic_dataset("smooth-bumps", 4, (1, 48, 48), seed=7)
        for inst in tr.sample_batch(task, data, 3, 32, seed=8):
            assert inst.x.shape == (1, 32, 32)

    def test_small_image_reflect_padded(self):
        task = tr.TaskSpec("den", "identity")
        data = [np.random.default_rng(9).random((1, 20, 20))]
        inst = tr.sample_batch(task, data, 1, 32, seed=9)[0]
        assert inst.x.shape == (1, 32, 32)

    def test_inpainting_probability_bounds(self):
        task = tr.TaskSpec("inp", "inpainting", params={"p_range": (0.3, 0.9)})
        data = tr.make_synthetic_dataset("piecewise-constant", 2, (1, 32, 32), seed=10)
        fracs = []
        for s in range(200):
            inst = tr.sample_batch(task, data, 1, 32, seed=s)[0]
            fracs.append(inst.op.arrays["mask"].mean())
        # keep fractions concentrate inside the p range (binomial spread)
        assert min(fracs) > 0.2 and max(fracs) < 0.97
        assert 0.45 < np.mean(fracs) < 0.75

    def test_fresh_mask_per_element(self):
        task = tr.TaskSpec("inp", "inpainting")
        data = tr.make_synthetic_dataset("piecewise-constant", 2, (1, 32, 32), seed=11)
        batch = tr.sample_batch(task, data, 2, 32, seed=12)
        assert not np.array_equal(batch[0].op.arrays["mask"], batch[1].op.arrays["mask"])

    def test_blur_kernel_fixed_per_task(self):
        task = tr.TaskSpec("blur", "blur", params={"sigma_blur": 1.0, "kernel_size": 7})
        data = tr.make_synthetic_dataset("piecewise-constant", 2, (1, 32, 32), seed=13)
        a = tr.sample_batch(task, data, 1, 32, seed=14)[0]
        b = tr.sample_batch(task, data, 1, 32, seed=15)[0]
        assert np.array_equal(a.op.arrays["kernel"], b.op.arrays["kernel"])

    def test_empty_dataset(self):
        task = tr.TaskSpec("den", "identity")
        with pytest.raises(ValueError):
            tr.sample_batch(task, [], 1, 32, seed=0)

    def test_simulate_is_the_batch_draw(self):
        # a batch element is its patch simulated with the rest of the stream
        task = tr.TaskSpec("inp", "inpainting", sigma_range=(0.01, 0.1), gamma_range=0.02)
        data = [np.random.default_rng(16).random((1, 24, 24))]
        inst = tr.sample_batch(task, data, 1, 24, seed=17)[0]
        rng = np.random.default_rng(17)
        rng.integers(1), rng.integers(0, 1), rng.integers(0, 1)  # image index, patch corner
        again = task.simulate(data[0], rng, 17)
        assert np.array_equal(again.y, inst.y) and np.array_equal(again.x, inst.x)
        assert again.noise == inst.noise and again.seed == 17
        assert np.array_equal(again.op.arrays["mask"], inst.op.arrays["mask"])

    @pytest.mark.parametrize("kind", sorted(tr.TASK_KINDS))
    def test_simulated_instance_is_the_loaded_manifest(self, kind, tmp_path):
        # the operator reconstruct loads is the one that made y, bit for bit
        task = tr.TaskSpec("t", kind, sigma_range=0.05)
        x = np.random.default_rng(18).random((1, 32, 32))
        for seed in range(20):
            inst = task.simulate(x, np.random.default_rng(seed), seed)
            save_instance(tmp_path / "inst.json", inst)
            loaded = load_instance(tmp_path / "inst.json")
            assert loaded.op.key == inst.op.key, seed
            assert np.array_equal(loaded.op.apply(x), inst.op.apply(x)), seed


class TestTaskLoss:
    def test_perfect_reconstruction_zero(self):
        x = np.random.default_rng(16).random((1, 8, 8))
        op = ops.identity_operator((1, 8, 8))
        inst = ProblemInstance(op=op, y=x.copy(), noise=NoiseParams(sigma=0.1), x=x)
        loss = tr.task_loss(StubModel(x), inst)
        assert loss.item() == 0.0

    def test_weight_halves_when_sigma_doubles(self):
        op = ops.identity_operator((1, 4, 4))
        y = np.ones((1, 4, 4))
        w1 = tr.snr_weight(op, y, 0.1)
        w2 = tr.snr_weight(op, y, 0.2)
        assert w1 == pytest.approx(2 * w2)

    def test_weight_arithmetic(self):
        # ||A^T y|| = 10, sigma = 0.1 -> omega = 100
        op = ops.identity_operator((1, 10, 10))
        y = np.full((1, 10, 10), 1.0)  # norm 10
        assert tr.snr_weight(op, y, 0.1) == pytest.approx(100.0)

    def test_sigma_floor(self):
        op = ops.identity_operator((1, 4, 4))
        y = np.ones((1, 4, 4))
        assert tr.snr_weight(op, y, 0.0) == pytest.approx(np.linalg.norm(y) / 1e-3)

    def test_missing_ground_truth(self):
        op = ops.identity_operator((1, 4, 4))
        inst = ProblemInstance(op=op, y=np.zeros((1, 4, 4)), noise=NoiseParams())
        with pytest.raises(ValueError):
            tr.task_loss(StubModel(np.zeros((1, 4, 4))), inst)

    def test_nonnegative(self):
        rng = np.random.default_rng(17)
        x = rng.random((1, 8, 8))
        op = ops.identity_operator((1, 8, 8))
        inst = ProblemInstance(op=op, y=x + 0.1, noise=NoiseParams(sigma=0.1), x=x)
        assert tr.task_loss(StubModel(rng.random((1, 8, 8))), inst).item() >= 0


class TestTrainLoop:
    def make_setup(self, steps=3, batch_size=1, **kw):
        tasks = [tr.TaskSpec("den", "identity", sigma_range=0.1),
                 tr.TaskSpec("inp", "inpainting", sigma_range=0.05)]
        datasets = {t.name: tr.make_synthetic_dataset("piecewise-constant", 4, (1, 16, 16), seed=18)
                    for t in tasks}
        cfg = tr.TrainConfig(steps=steps, batch_size=batch_size, patch_size=16, lr=1e-4,
                             lr_decay_step=max(steps - 1, 1), log_every=steps, seed=1, **kw)
        return tasks, datasets, cfg

    def test_loop_runs_and_reports(self):
        tasks, datasets, cfg = self.make_setup()
        model = RamModel(TINY)
        report = tr.train(model, tasks, cfg, datasets)
        assert len(report["loss_history"]) == cfg.steps
        assert np.all(np.isfinite(report["loss_history"]))
        assert set(report["task_psnr"]) == {"den", "inp"}
        assert set(report["baseline_psnr"]) == {"den", "inp"}

    def test_reproducible_trajectory(self):
        tasks, datasets, cfg = self.make_setup()
        r1 = tr.train(RamModel(TINY), tasks, cfg, datasets)
        r2 = tr.train(RamModel(TINY), tasks, cfg, datasets)
        assert np.allclose(r1["loss_history"], r2["loss_history"], rtol=0, atol=1e-12)

    def test_lr_zero_like_behavior(self):
        # one step with a vanishing lr leaves parameters essentially fixed
        tasks, datasets, cfg = self.make_setup(steps=1)
        cfg.lr = 1e-300
        model = RamModel(TINY)
        before = [p.data.copy() for p in model.parameters()]
        tr.train(model, tasks, cfg, datasets)
        for p, b in zip(model.parameters(), before):
            assert np.allclose(p.data, b, atol=1e-250)

    def test_gradient_flow_from_both_tasks(self):
        tasks, datasets, cfg = self.make_setup()
        model = RamModel(TINY)
        # the zero-initialized output conv blocks trunk gradients at init;
        # give it nonzero weights so the audit sees the full path
        rng = np.random.default_rng(19)
        for p in model.parameters():
            p.data = rng.standard_normal(p.data.shape) * 0.05
        trunk = model.param("enc0.block0.conv")
        for task in tasks:
            model.zero_grad()
            inst = tr.sample_batch(task, datasets[task.name], 1, 16, seed=3)[0]
            tr.task_loss(model, inst).backward()
            assert trunk.grad is not None and np.any(trunk.grad != 0)

    def test_divergence_guard(self):
        tasks, datasets, cfg = self.make_setup()

        class ExplodingModel(RamModel):
            def forward(self, y, op, noise):
                out = super().forward(y, op, noise)
                return out * T.constant(1e308) * T.constant(1e10)

        with pytest.warns(RuntimeWarning), pytest.raises((RuntimeError, ValueError)):
            tr.train(ExplodingModel(TINY), tasks, cfg, datasets)

    def test_loss_additivity(self):
        tasks, datasets, cfg = self.make_setup(steps=1)
        model = RamModel(TINY)
        report = tr.train(model, tasks, cfg, datasets)
        per_task = [row["loss"] for row in report["log"]]
        assert report["loss_history"][0] == pytest.approx(sum(per_task), rel=1e-12)

    def test_csv_log_written(self, tmp_path):
        tasks, datasets, cfg = self.make_setup()
        cfg.log_path = tmp_path / "log.csv"
        tr.train(RamModel(TINY), tasks, cfg, datasets)
        lines = open(cfg.log_path).read().strip().splitlines()
        assert lines[0] == "step,task,loss,psnr"
        assert len(lines) > 1

    def test_checkpoint_written_and_round_trips(self, tmp_path):
        tasks, datasets, cfg = self.make_setup()
        cfg.checkpoint_path = tmp_path / "ckpt.tnsr"
        model = RamModel(TINY)
        tr.train(model, tasks, cfg, datasets)
        loaded = RamModel.load_checkpoint(cfg.checkpoint_path)
        inst = tr.sample_batch(tasks[0], datasets["den"], 1, 16, seed=4)[0]
        assert np.array_equal(model.reconstruct(inst.y, inst.op, inst.noise),
                              loaded.reconstruct(inst.y, inst.op, inst.noise))

    @pytest.mark.parametrize("batch", [2, 3])
    def test_bit_equal_to_one_backward_per_task(self, batch, adam_steps):
        # train backwards each instance's loss as it builds it and adds each
        # task's gradients once: every step's gradients and total equal those
        # of one backward of each task's summed loss, added task by task
        tasks, datasets, cfg = self.make_setup(steps=3, batch_size=batch)
        cfg.lr = 1e-3

        def model():
            m = RamModel(TINY)
            rng = np.random.default_rng(20)
            p = m.param("head1.conv_out")
            p.data = T.conv_weight(0.05 * rng.standard_normal(p.shape), 1)
            return m

        report = tr.train(model(), tasks, cfg, datasets)
        recorded = adam_steps[:]  # the reference's steps are recorded after these
        ref = model()
        adam = T.AdamOptimizer(ref.parameters(), lr=cfg.lr)
        for k in range(cfg.steps):
            if k == cfg.lr_decay_step:
                adam.lr = cfg.lr / 10.0
            grads, total = None, 0.0
            for ti, task in enumerate(tasks):
                insts = tr.sample_batch(task, datasets[task.name], batch, cfg.patch_size,
                                        seed=cfg.seed * 1000003 + k * 131 + ti)
                ref.zero_grad()
                loss = functools.reduce(T.add, [tr.task_loss(ref, inst) for inst in insts])
                loss.backward()
                total += loss.item()
                g = [p.grad for p in ref.parameters()]
                grads = g if grads is None else [a + b for a, b in zip(grads, g)]
            assert report["loss_history"][k] == total, k
            for p, g, got in zip(ref.parameters(), grads, recorded[k]):
                assert np.array_equal(got, g), (k, p.name)
                p.grad = g
            adam.step()
        assert all(np.any(g != 0) for g in recorded[0])  # every weight gets a gradient

    def test_default_config_step_peak(self):
        # each instance's tape dies before the next instance's forward
        task = tr.TaskSpec("inp", "inpainting", sigma_range=0.05)
        datasets = {"inp": tr.make_synthetic_dataset("piecewise-constant", 4, (1, 64, 64), seed=0)}
        cfg = tr.TrainConfig(steps=1, batch_size=4, patch_size=64, log_every=1)
        model = RamModel(RamConfig())
        gc.collect()
        tracemalloc.start()
        try:
            tr.train(model, [task], cfg, datasets)
            peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
        finally:
            tracemalloc.stop()
        assert peak <= 38.0, f"a 64x64 batch-4 train step peaks at {peak:.1f} MB"

    def test_task_round_trip_dicts(self):
        task = tr.TaskSpec("inp", "inpainting", channels=3, sigma_range=(0.01, 0.2),
                           params={"p_range": [0.3, 0.9]})
        assert tr.TaskSpec.from_dict(config_dict(task)) == task
        cfg = tr.TrainConfig(steps=7, lr=3e-4)
        assert read_config(tr.TrainConfig, config_dict(cfg), "train config") == \
            tr.TrainConfig(steps=7, lr=3e-4)

    @pytest.mark.parametrize("name", ["sigma_range", "gamma_range"])
    @pytest.mark.parametrize("value", [-0.1, [-0.1, 0.1], [0.05, 0.01], [0.1, 0.2, 0.3], [0.1]])
    def test_bad_noise_range_refused_when_read(self, name, value):
        # not at the first training step that happens to draw a bad level
        with pytest.raises(ValueError, match=f"^{name} must be a number >= 0 or a pair"):
            tr.TaskSpec("den", "identity", **{name: value})

    @pytest.mark.parametrize("value", [[0.1, 0.2, 0.3], [0.5], [0.9, 0.3], [1.5, 2.0],
                                       [-0.5, 0.2]])
    def test_bad_p_range_refused_when_read(self, value):
        with pytest.raises(ValueError, match=r"^p_range must be a pair 0 <= lo <= hi <= 1$"):
            tr.TaskSpec("inp", "inpainting", params={"p_range": value})

    def test_checkpoint_every_round_trips(self):
        assert read_config(tr.TrainConfig, {"checkpoint_every": 7},
                           "train config").checkpoint_every == 7
        cfg = tr.TrainConfig(steps=9, checkpoint_every=3)
        assert read_config(tr.TrainConfig, config_dict(cfg), "train config") == cfg
