import numpy as np
import pytest

from reconkit import operators as ops
from reconkit import solvers
from reconkit import tensor as T


class TestConjugateGradient:
    def test_identity_converges_in_one_iteration(self):
        rhs = np.random.default_rng(0).standard_normal(16)
        x, rep = solvers.conjugate_gradient(lambda v: v, rhs, tol=1e-12)
        assert rep.iterations == 1
        assert rep.converged
        assert np.allclose(x, rhs, atol=1e-12)

    def test_zero_rhs(self):
        x, rep = solvers.conjugate_gradient(lambda v: 2 * v, np.zeros(8))
        assert rep.converged
        assert np.all(x == 0)

    def test_dense_spd_oracle(self):
        rng = np.random.default_rng(1)
        b = rng.standard_normal((12, 12))
        m = b @ b.T + 12 * np.eye(12)
        rhs = rng.standard_normal(12)
        ref = np.linalg.solve(m, rhs)
        x, rep = solvers.conjugate_gradient(lambda v: m @ v, rhs, max_iters=200, tol=1e-14)
        assert np.linalg.norm(x - ref) < 1e-8

    def test_finite_termination(self):
        # exact arithmetic CG finishes in n steps; allow tiny slack
        rng = np.random.default_rng(2)
        b = rng.standard_normal((8, 8))
        m = b @ b.T + 8 * np.eye(8)
        rhs = rng.standard_normal(8)
        x, rep = solvers.conjugate_gradient(lambda v: m @ v, rhs, max_iters=20, tol=1e-12)
        assert rep.converged
        assert rep.iterations <= 9

    def test_history_monotone(self):
        rng = np.random.default_rng(3)
        b = rng.standard_normal((20, 20))
        m = b @ b.T + 0.1 * np.eye(20)
        rhs = rng.standard_normal(20)
        _, rep = solvers.conjugate_gradient(lambda v: m @ v, rhs, max_iters=50, tol=1e-14)
        h = rep.residual_history
        assert all(h[i + 1] <= h[i] + 1e-15 for i in range(len(h) - 1))

    def test_nd_rhs(self):
        rhs = np.random.default_rng(4).standard_normal((1, 6, 6))
        x, rep = solvers.conjugate_gradient(lambda v: 3 * v, rhs, tol=1e-12)
        assert x.shape == rhs.shape
        assert np.allclose(x, rhs / 3, atol=1e-10)


class TestLambdaSchedule:
    def test_formula(self):
        y = np.array([1.0, -2.0, 3.0])
        assert solvers.lambda_schedule(0.5, 2.0, y) == pytest.approx(0.5 * 2.0 / 6.0)

    def test_zero_measurement(self):
        assert solvers.lambda_schedule(0.5, 2.0, np.zeros(4)) == 0.0

    def test_tensor_eta(self):
        eta = T.constant(1.5)
        y = np.ones(4)
        assert solvers.lambda_schedule(0.2, eta, y) == pytest.approx(0.2 * 1.5 / 4.0)

    def test_scale_invariance(self):
        # lambda(alpha sigma, alpha y) == lambda(sigma, y)
        y = np.random.default_rng(5).standard_normal(10)
        a = solvers.lambda_schedule(0.3, 1.0, y)
        b = solvers.lambda_schedule(0.3 * 7.0, 1.0, 7.0 * y)
        assert a == pytest.approx(b)


class TestProxEstimate:
    def test_lambda_zero_is_adjoint(self):
        op = ops.make_inpainting(ops.make_bernoulli_mask((1, 8, 8), 0.6, seed=0))
        y = np.random.default_rng(6).standard_normal((1, 8, 8))
        assert np.array_equal(solvers.prox_estimate(op, y, 0.0), op.adjoint(y))

    def test_negative_lambda_rejected(self):
        op = ops.identity_operator((1, 4, 4))
        with pytest.raises(ValueError):
            solvers.prox_estimate(op, np.zeros((1, 4, 4)), -1.0)

    def test_inpainting_closed_form(self):
        # diagonal system: u_i = (1 + lam) m_i y_i / (lam m_i + 1)
        mask = ops.make_bernoulli_mask((1, 10, 10), 0.5, seed=1)
        op = ops.make_inpainting(mask)
        y = np.random.default_rng(7).standard_normal((1, 10, 10))
        lam = 0.7
        u = solvers.prox_estimate(op, y, lam, cg_iters=50, cg_tol=1e-14)
        ref = (1 + lam) * mask * y / (lam * mask + 1)
        assert np.max(np.abs(u - ref)) < 1e-8

    def test_unitary_fixed_point(self):
        # A unitary: (lam + 1) u = (1 + lam) A^T y, so u == A^T y for any lam
        op = ops.make_mri(np.ones((8, 8)), (2, 8, 8))
        y = np.random.default_rng(8).standard_normal((2, 8, 8))
        for lam in (0.1, 1.0, 10.0):
            u = solvers.prox_estimate(op, y, lam, cg_iters=30, cg_tol=1e-14)
            assert np.max(np.abs(u - op.adjoint(y))) < 1e-8

    def test_monotone_interpolation(self):
        # on kept inpainting pixels the estimate moves from 0 toward y as
        # lam grows the measurement-consistency pull
        mask = np.ones((1, 6, 6))
        op = ops.make_inpainting(mask)
        y = np.abs(np.random.default_rng(9).standard_normal((1, 6, 6))) + 0.1
        prev = solvers.prox_estimate(op, y, 0.0)
        for lam in (0.5, 2.0, 8.0):
            u = solvers.prox_estimate(op, y, lam, cg_iters=50, cg_tol=1e-14)
            # identity operator: u == y exactly for any lam
            assert np.max(np.abs(u - y)) < 1e-8
            prev = u

    def test_blur_matches_dense_solve(self):
        op = ops.make_blur(ops.make_gaussian_kernel(1.0, 3), (1, 8, 8))
        mat = ops.dense_matrix(op)
        y = np.random.default_rng(10).standard_normal(op.range_shape)
        lam = 0.4
        ref = np.linalg.solve(lam * mat.T @ mat + np.eye(64), (1 + lam) * mat.T @ y.ravel())
        u = solvers.prox_estimate(op, y, lam, cg_iters=200, cg_tol=1e-14)
        assert np.max(np.abs(u.ravel() - ref)) < 1e-8


class TestGraphSolvers:
    def test_graph_matches_numpy(self):
        mask = ops.make_bernoulli_mask((1, 8, 8), 0.5, seed=2)
        op = ops.make_inpainting(mask)
        y = np.random.default_rng(11).standard_normal((1, 8, 8))
        lam = 0.9
        ref = solvers.prox_estimate(op, y, lam, cg_iters=40, cg_tol=1e-12)
        aty = T.constant(op.adjoint(y))
        u = solvers.prox_estimate_graph(op, aty, T.constant(lam), cg_iters=40, cg_tol=1e-12)
        assert np.array_equal(u.data, ref)

    def test_single_node_on_inputs(self):
        op = ops.make_blur(ops.make_gaussian_kernel(1.0, 3), (1, 8, 8))
        aty = T.constant(op.adjoint(np.ones(op.range_shape)))
        lam = T.constant(0.4)
        u = solvers.prox_estimate_graph(op, aty, lam)
        assert len(u._parents) == 2
        assert u._parents[0] is aty and u._parents[1] is lam

    @staticmethod
    def _dense_vjp(lam_val, seed):
        """A 3x3 blur on 8x8, a random A^T y and cotangent g, and the
        closed forms: with M = lam A^T A + I and u = (1 + lam) M^-1 A^T y,
        the gradients are (1 + lam) M^-1 g for A^T y and
        g^T M^-1 (A^T y - A^T A u) for lam."""
        op = ops.make_blur(ops.make_gaussian_kernel(1.0, 3), (1, 8, 8))
        a = ops.dense_matrix(op)
        rng = np.random.default_rng(seed)
        b = op.adjoint(rng.standard_normal(op.range_shape)).ravel()
        g = rng.standard_normal(64)
        m = lam_val * a.T @ a + np.eye(64)
        u_ref = np.linalg.solve(m, (1 + lam_val) * b)
        g_aty_ref = (1 + lam_val) * np.linalg.solve(m, g)
        g_lam_ref = g @ np.linalg.solve(m, b - a.T @ a @ u_ref)
        return op, b.reshape(1, 8, 8), g.reshape(1, 8, 8), u_ref, g_aty_ref, g_lam_ref

    def test_implicit_vjp_matches_dense_closed_form(self):
        op, b, g, u_ref, g_aty_ref, g_lam_ref = self._dense_vjp(0.4, seed=16)
        aty = T.Parameter("aty", b)
        lam = T.Parameter("lam", np.array(0.4))
        u = solvers.prox_estimate_graph(op, aty, lam, cg_iters=200, cg_tol=1e-14)
        T.sum_all(T.mul(u, T.constant(g))).backward()
        assert np.max(np.abs(u.data.ravel() - u_ref)) < 1e-10
        assert np.max(np.abs(aty.grad.ravel() - g_aty_ref)) < 1e-10
        assert abs(lam.grad.item() - g_lam_ref) < 1e-10

    def test_lambda_gradient_at_model_scale(self):
        # the model's lambda is ~1e-4 and its CG stops at a 1e-6 relative
        # residual; the backward must not divide that residual by lambda
        # (as the shortcut (u - A^T y) / lambda for A^T y - A^T A u would)
        op, b, g, _, _, g_lam_ref = self._dense_vjp(1e-4, seed=17)
        lam = T.Parameter("lam", np.array(1e-4))
        u = solvers.prox_estimate_graph(op, T.constant(b), lam)
        T.sum_all(T.mul(u, T.constant(g))).backward()
        assert abs(lam.grad.item() - g_lam_ref) / abs(g_lam_ref) < 1e-8

    def test_gradient_through_lambda(self):
        # finite-difference check of d loss / d lam through the implicit
        # backward; blur makes the solution genuinely depend on lam
        # (inpainting would not: its prox is lam-independent on kept pixels)
        op = ops.make_blur(ops.make_gaussian_kernel(1.0, 3), (1, 6, 6))
        y = np.random.default_rng(12).standard_normal(op.range_shape)
        aty_np = op.adjoint(y)

        def loss_at(lam_val):
            u = solvers.prox_estimate_graph(
                op, T.constant(aty_np), T.constant(lam_val), cg_iters=30, cg_tol=1e-13)
            return T.sum_all(T.square(u))

        lam = T.Parameter("lam", np.array(0.8))
        u = solvers.prox_estimate_graph(op, T.constant(aty_np), lam, cg_iters=30, cg_tol=1e-13)
        T.sum_all(T.square(u)).backward()
        eps = 1e-6
        fd = (loss_at(0.8 + eps).item() - loss_at(0.8 - eps).item()) / (2 * eps)
        assert abs(lam.grad.item() - fd) / max(abs(fd), 1e-12) < 1e-5

    def test_gradient_through_input(self):
        op = ops.make_inpainting(ops.make_bernoulli_mask((1, 5, 5), 0.6, seed=4))
        rng = np.random.default_rng(13)
        aty_np = rng.standard_normal((1, 5, 5))
        w = T.Parameter("w", np.ones((1, 5, 5)))

        def forward(wdata):
            aty = T.mul(T.constant(aty_np), T.constant(wdata))
            u = solvers.prox_estimate_graph(op, aty, T.constant(0.5), cg_iters=25, cg_tol=1e-13)
            return T.sum_all(T.square(u))

        aty = T.mul(T.constant(aty_np), w)
        u = solvers.prox_estimate_graph(op, aty, T.constant(0.5), cg_iters=25, cg_tol=1e-13)
        T.sum_all(T.square(u)).backward()
        eps = 1e-6
        g = np.zeros_like(aty_np)
        for idx in [(0, 0, 0), (0, 2, 3), (0, 4, 4)]:
            wp = np.ones_like(aty_np)
            wp[idx] += eps
            wm = np.ones_like(aty_np)
            wm[idx] -= eps
            fd = (forward(wp).item() - forward(wm).item()) / (2 * eps)
            assert abs(w.grad[idx] - fd) / max(abs(fd), 1e-10) < 1e-5


class TestPseudoInverse:
    def test_least_squares_oracle(self):
        op = ops.make_blur(ops.make_gaussian_kernel(0.9, 3), (1, 8, 8))
        mat = ops.dense_matrix(op)
        y = np.random.default_rng(14).standard_normal(op.range_shape)
        ridge = 1e-4
        ref = np.linalg.solve(mat.T @ mat + ridge * np.eye(64), mat.T @ y.ravel())
        x = solvers.pseudo_inverse_apply(op, y, ridge=ridge, cg_iters=500, cg_tol=1e-14)
        assert np.max(np.abs(x.ravel() - ref)) < 1e-8

    def test_identity_recovers_input(self):
        op = ops.identity_operator((1, 6, 6))
        y = np.random.default_rng(15).standard_normal((1, 6, 6))
        x = solvers.pseudo_inverse_apply(op, y, ridge=1e-10, cg_iters=200, cg_tol=1e-14)
        assert np.max(np.abs(x - y)) < 1e-8

    def test_bad_ridge(self):
        op = ops.identity_operator((1, 4, 4))
        with pytest.raises(ValueError):
            solvers.pseudo_inverse_apply(op, np.zeros((1, 4, 4)), ridge=0.0)
