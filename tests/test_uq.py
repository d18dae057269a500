import numpy as np
import pytest

from reconkit import operators as ops
from reconkit import uq
from reconkit.model import RamConfig, RamModel
from reconkit.noise import NoiseParams
from reconkit.problem import ProblemInstance
from reconkit.selfsup import TransformGroup


IDENTITY_GROUP = TransformGroup("shifts", max_shift_frac=0.0)


class ShrinkageModel:
    """R(y) = c A^T y with an evaluation counter."""

    def __init__(self, c=1.0):
        self.c = c
        self.eval_count = 0

    def reconstruct(self, y, op, noise):
        self.eval_count += 1
        return self.c * op.adjoint(y)


def make_inst(shape=(1, 16, 16), sigma=0.2, seed=0, x=None):
    rng = np.random.default_rng(seed)
    op = ops.identity_operator(shape)
    if x is None:
        x = rng.standard_normal(shape)
    y = x + sigma * rng.standard_normal(shape)
    return ProblemInstance(op=op, y=y, noise=NoiseParams(sigma=sigma), x=x)


class TestBootstrap:
    def test_noiseless_identity_fixed_point(self):
        inst = make_inst(sigma=0.0, seed=1)
        inst.noise = NoiseParams()
        model = ShrinkageModel(1.0)
        sample = uq.equivariant_bootstrap(model, inst, IDENTITY_GROUP, n=5, seed=2)
        for rep in sample.replicates:
            assert np.array_equal(rep, sample.base)

    def test_eval_count_contract(self):
        inst = make_inst(seed=3)
        model = ShrinkageModel(0.9)
        uq.equivariant_bootstrap(model, inst, IDENTITY_GROUP, n=100, seed=4)
        assert model.eval_count == 101

    def test_deterministic(self):
        inst = make_inst(seed=5)
        group = TransformGroup("composite")
        a = uq.equivariant_bootstrap(ShrinkageModel(0.8), inst, group, n=10, seed=6)
        b = uq.equivariant_bootstrap(ShrinkageModel(0.8), inst, group, n=10, seed=6)
        assert np.array_equal(a.replicates, b.replicates)

    def test_replicates_indexed_by_seed(self):
        # replicate i depends only on (seed, i): a longer run extends a
        # shorter one without changing its prefix
        inst = make_inst(seed=7)
        group = TransformGroup("composite")
        short = uq.equivariant_bootstrap(ShrinkageModel(0.8), inst, group, n=4, seed=8)
        long = uq.equivariant_bootstrap(ShrinkageModel(0.8), inst, group, n=8, seed=8)
        assert np.array_equal(short.replicates, long.replicates[:4])

    def test_ram_model_repeat_is_bitwise(self):
        # a kernel no other test draws: the first run starts from a handle
        # whose norm and coarse operators are not yet cached, the second
        # reads them from the caches
        kernel = ops.make_motion_kernel(0.4, 0.3, 5, seed=8080)
        shape = (1, 16, 16)
        rng = np.random.default_rng(13)
        x = rng.random(shape)
        group = TransformGroup("composite")
        model = RamModel(RamConfig(num_scales=2, base_width=4, blocks=1, krylov_depth=1,
                                   head_channels=(1,), seed=14))

        def instance():
            op = ops.make_blur(kernel, shape)
            y = op.apply(x) + 0.05 * np.random.default_rng(15).standard_normal(op.range_shape)
            return ProblemInstance(op=op, y=y, noise=NoiseParams(sigma=0.05), x=x)

        cold = uq.equivariant_bootstrap(model, instance(), group, n=6, seed=16)
        assert model.eval_count == 7
        warm = uq.equivariant_bootstrap(model, instance(), group, n=6, seed=16)
        assert model.eval_count == 14
        assert np.array_equal(cold.base, warm.base)
        assert np.array_equal(cold.replicates, warm.replicates)

    def test_invalid_n(self):
        inst = make_inst(seed=11)
        with pytest.raises(ValueError):
            uq.equivariant_bootstrap(ShrinkageModel(), inst, IDENTITY_GROUP, n=0)


class TestPixelwiseErrors:
    def test_identical_replicates_zero_map(self):
        base = np.random.default_rng(12).random((1, 8, 8))
        sample = uq.BootstrapSample(replicates=np.stack([base] * 3), base=base)
        assert np.all(uq.pixelwise_errors(sample) == 0)

    def test_symmetric_pair_gives_delta_squared(self):
        base = np.zeros((1, 4, 4))
        delta = 0.3
        r1, r2 = base.copy(), base.copy()
        r1[0, 1, 2] += delta
        r2[0, 1, 2] -= delta
        sample = uq.BootstrapSample(replicates=np.stack([r1, r2]), base=base)
        err = uq.pixelwise_errors(sample)
        assert err[1, 2] == pytest.approx(delta ** 2)
        assert err[0, 0] == 0

    def test_linear_gaussian_variance(self):
        # A = I, R = c I, x = 0: replicate deviations are (c-1) x_hat +
        # c sigma n', dominated by the c^2 sigma^2 noise term
        sigma, c = 0.5, 0.9
        inst = make_inst(shape=(1, 24, 24), sigma=sigma, seed=13,
                         x=np.zeros((1, 24, 24)))
        sample = uq.equivariant_bootstrap(ShrinkageModel(c), inst, IDENTITY_GROUP,
                                          n=500, seed=14)
        err = uq.pixelwise_errors(sample)
        expect = c ** 2 * sigma ** 2 + (c - 1) ** 2 * sample.base[0] ** 2
        assert np.abs(err.mean() - expect.mean()) / expect.mean() < 0.1

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            uq.BootstrapSample(replicates=np.zeros((2, 1, 4, 4)), base=np.zeros((1, 5, 5)))


class TestCoverage:
    def test_extreme_levels(self):
        insts = [make_inst(seed=s) for s in range(3)]
        curve = uq.coverage_curve(ShrinkageModel(0.9), insts, IDENTITY_GROUP,
                                  n=20, levels=[0.0, 1.0], seed=15)
        assert curve[0] == (0.0, 0.0)
        assert 0.0 <= curve[1][1] <= 1.0

    def test_monotone(self):
        insts = [make_inst(seed=20 + s) for s in range(5)]
        curve = uq.coverage_curve(ShrinkageModel(0.9), insts, IDENTITY_GROUP,
                                  n=50, levels=np.linspace(0.1, 0.9, 9), seed=16)
        emp = [c[1] for c in curve]
        assert all(b >= a for a, b in zip(emp, emp[1:]))

    def test_deterministic(self):
        insts = [make_inst(seed=30 + s) for s in range(3)]
        a = uq.coverage_curve(ShrinkageModel(0.9), insts, TransformGroup("composite"),
                              n=20, levels=[0.2, 0.5, 0.8], seed=17)
        b = uq.coverage_curve(ShrinkageModel(0.9), insts, TransformGroup("composite"),
                              n=20, levels=[0.2, 0.5, 0.8], seed=17)
        assert a == b

    def test_calibrated_on_posterior_mean_toy(self):
        # x ~ N(0, s^2), y = x + sigma n, R the posterior mean c* y with
        # c* = s^2 / (s^2 + sigma^2); bootstrap replicates then have
        # (nearly) the same deviation distribution as the true error
        s2, sigma = 1.0, 0.2
        c_star = s2 / (s2 + sigma ** 2)
        rng = np.random.default_rng(18)
        insts = []
        for _ in range(200):
            x = np.sqrt(s2) * rng.standard_normal((1, 16, 16))
            y = x + sigma * rng.standard_normal((1, 16, 16))
            insts.append(ProblemInstance(op=ops.identity_operator((1, 16, 16)),
                                         y=y, noise=NoiseParams(sigma=sigma), x=x))
        levels = np.round(np.arange(0.1, 0.95, 0.1), 2)
        curve = uq.coverage_curve(ShrinkageModel(c_star), insts, IDENTITY_GROUP,
                                  n=200, levels=levels, seed=19)
        for nominal, empirical in curve:
            assert abs(empirical - nominal) <= 0.10, (nominal, empirical)

    def test_requires_ground_truth(self):
        inst = make_inst(seed=40)
        inst.x = None
        with pytest.raises(ValueError):
            uq.coverage_curve(ShrinkageModel(), [inst], IDENTITY_GROUP, n=5, levels=[0.5])

    def test_empty_instances(self):
        with pytest.raises(ValueError):
            uq.coverage_curve(ShrinkageModel(), [], IDENTITY_GROUP, n=5, levels=[0.5])
