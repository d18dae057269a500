"""Classical linear solvers: conjugate gradient, the proximal input
estimate, and a ridge-regularized pseudo-inverse.

There is one solver, ``conjugate_gradient`` on plain numpy arrays, and
one prox body.  ``prox_estimate_graph`` puts the prox solve on the
autodiff tape as a single node whose backward differentiates the linear
system implicitly: one more CG solve with the same symmetric matrix gives
the gradients with respect to A^T y and lambda, so no CG iteration is
unrolled onto the tape.  ``prox_estimate`` runs the same node without a
tape.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .operators import OperatorHandle

__all__ = [
    "CGReport",
    "conjugate_gradient",
    "prox_estimate",
    "prox_estimate_graph",
    "lambda_schedule",
    "pseudo_inverse_apply",
]


@dataclass
class CGReport:
    """Outcome of one ``conjugate_gradient`` call.  ``residual_norm`` is the
    recursive residual ||r_k|| the iteration carries, not a recomputed
    ||rhs - M x||, so reporting it costs no extra M apply."""

    iterations: int = 0
    residual_norm: float = 0.0
    converged: bool = False
    # best-so-far residual norm after each iteration (monotone by
    # construction; raw CG 2-norm residuals may oscillate transiently)
    residual_history: list = field(default_factory=list)


def conjugate_gradient(spd_apply, rhs: np.ndarray, max_iters: int = 100, tol: float = 1e-10):
    """Solve M x = rhs for symmetric positive (semi)definite M, zero
    initial guess.  Returns (x, CGReport)."""
    rhs = np.asarray(rhs, dtype=np.float64)
    b_norm = np.linalg.norm(rhs)
    report = CGReport()
    if b_norm == 0:
        report.converged = True
        return np.zeros_like(rhs), report
    x = np.zeros_like(rhs)
    r = rhs.copy()
    p = r.copy()
    rs = np.vdot(r, r)
    best = np.sqrt(rs)
    report.residual_norm = float(best)
    for it in range(max_iters):
        mp = spd_apply(p)
        denom = np.vdot(p, mp)
        if denom <= 0:
            break
        alpha = rs / denom
        x = x + alpha * p
        r = r - alpha * mp
        rs_new = np.vdot(r, r)
        report.residual_norm = float(np.sqrt(rs_new))
        best = min(best, report.residual_norm)
        report.iterations = it + 1
        report.residual_history.append(float(best))
        if np.sqrt(rs_new) <= tol * b_norm:
            report.converged = True
            break
        p = r + (rs_new / rs) * p
        rs = rs_new
    return x, report


def lambda_schedule(sigma: float, eta: float, y) -> float:
    """lambda = sigma * eta / ||y||_1 (zero when the measurement is empty)."""
    y = np.asarray(y, dtype=np.float64)
    l1 = float(np.abs(y).sum())
    if l1 == 0:
        return 0.0
    return sigma * eta / l1


def prox_estimate(op: OperatorHandle, y: np.ndarray, lam: float, *,
                  cg_iters: int, cg_tol: float) -> np.ndarray:
    """Data-fidelity prox of A^T y: solves (lam A^T A + I) u = (1 + lam) A^T y.

    lam = 0 short-circuits to A^T y.
    """
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    with T.no_grad():
        return prox_estimate_graph(op, T.constant(op.adjoint(y)), T.constant(lam),
                                   cg_iters=cg_iters, cg_tol=cg_tol).data


def prox_estimate_graph(op: OperatorHandle, aty: "T.Tensor", lam: "T.Tensor", *,
                        cg_iters: int, cg_tol: float) -> "T.Tensor":
    """Differentiable prox estimate on tensors of ``op.domain_shape``.

    ``aty`` is A^T y already in the graph; ``lam`` is a scalar tensor.  The
    result is one tape node: with M = lam A^T A + I symmetric and
    u = (1 + lam) M^-1 A^T y, the backward solves w = M^-1 g once and
    returns (1 + lam) w for A^T y and <w, A^T y - A^T A u> for lam.  Both
    are exact to the CG tolerance.
    """
    lam_val = lam.item()
    if lam_val == 0:
        return aty
    b, lam_shape = aty.data, lam.shape

    def system(v):  # M v = lam A^T A v + v, symmetric positive definite
        return lam_val * op.normal(v) + v

    u, _ = conjugate_gradient(system, (1.0 + lam_val) * b, max_iters=cg_iters, tol=cg_tol)

    def bw(g):
        w, _ = conjugate_gradient(system, g, max_iters=cg_iters, tol=cg_tol)
        # one normal apply, not (u - A^T y) / lam: that would divide the CG
        # residual by the model's ~1e-4 lam
        g_lam = np.vdot(w, b - op.normal(u))
        return (1.0 + lam_val) * w, np.full(lam_shape, g_lam)

    return T.Tensor(u, (aty, lam), bw)


def pseudo_inverse_apply(op: OperatorHandle, y: np.ndarray, ridge: float = 1e-6,
                         cg_iters: int = 200, cg_tol: float = 1e-10) -> np.ndarray:
    """Tikhonov-regularized pseudo-inverse: (A^T A + ridge I) x = A^T y."""
    if ridge <= 0:
        raise ValueError("ridge must be positive")

    def system(x):
        return op.normal(x) + ridge * x

    x, _ = conjugate_gradient(system, op.adjoint(y), max_iters=cg_iters, tol=cg_tol)
    return x
