"""Self-supervised finetuning: SURE, measurement splitting, equivariant
imaging, multi-operator consistency, and the combined objective
L = L_MC + omega * L_NULL driven over measurement-only data."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .operators import compose, make_inpainting
from .problem import ProblemInstance

__all__ = ["Transform", "TransformGroup", "FinetuneConfig", "mc_divergence",
           "sure_loss", "split_loss", "ei_loss", "moi_loss", "finetune"]


# ---------------------------------------------------------------------------
# exact-inverse image transforms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Transform:
    """Composite of circular shift, quarter rotation, and flips; all index
    permutations, so the inverse is exact and equals the adjoint."""

    shift: tuple = (0, 0)
    rot: int = 0
    flip_h: bool = False
    flip_v: bool = False

    def forward_np(self, x: np.ndarray) -> np.ndarray:
        out = np.roll(x, self.shift, axis=(-2, -1))
        out = np.rot90(out, self.rot, axes=(-2, -1))
        if self.flip_h:
            out = np.flip(out, axis=-1)
        if self.flip_v:
            out = np.flip(out, axis=-2)
        return np.ascontiguousarray(out)

    def inverse_np(self, x: np.ndarray) -> np.ndarray:
        out = x
        if self.flip_v:
            out = np.flip(out, axis=-2)
        if self.flip_h:
            out = np.flip(out, axis=-1)
        out = np.rot90(out, -self.rot, axes=(-2, -1))
        out = np.roll(out, (-self.shift[0], -self.shift[1]), axis=(-2, -1))
        return np.ascontiguousarray(out)

    # permutation matrices are orthogonal: adjoint == inverse
    def apply(self, x: T.Tensor) -> T.Tensor:
        return T.apply_linear(x, self.forward_np, self.inverse_np)


@dataclass(frozen=True)
class TransformGroup:
    kind: str = "composite"  # shifts | rotations90 | flips | composite
    max_shift_frac: float = 0.1

    def __post_init__(self):
        if self.kind not in ("shifts", "rotations90", "flips", "composite"):
            raise ValueError(f"unknown transform group {self.kind!r}")
        if not 0 <= self.max_shift_frac <= 1:
            raise ValueError("max_shift_frac must be in [0, 1]")

    def sample(self, shape, seed) -> Transform:
        """Draw one random group element for (C, H, W) images."""
        rng = np.random.default_rng(seed)
        h, w = shape[-2], shape[-1]
        shift = (0, 0)
        rot = 0
        fh = fv = False
        if self.kind in ("shifts", "composite"):
            mh = int(self.max_shift_frac * h)
            mw = int(self.max_shift_frac * w)
            shift = (int(rng.integers(-mh, mh + 1)), int(rng.integers(-mw, mw + 1)))
        if self.kind in ("rotations90", "composite"):
            if h == w:  # quarter turns change the shape otherwise
                rot = int(rng.integers(0, 4))
        if self.kind in ("flips", "composite"):
            fh = bool(rng.integers(0, 2))
            fv = bool(rng.integers(0, 2))
        return Transform(shift=shift, rot=rot, flip_h=fh, flip_v=fv)


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def _divergence_terms(fn, y, base, probes, seed, weight):
    """``mc_divergence`` as a loss body (see ``tensor.whole``): each probe's
    term, with the gradient a loss of ``weight`` times the estimate sends
    it, and the estimate."""
    if probes < 1:
        raise ValueError("need at least one probe")
    eps = max(1e-3 * float(np.max(np.abs(y))), 1e-6)
    rng = np.random.default_rng(seed)
    grad = np.full(1, weight * (1.0 / probes))
    total = None
    for _ in range(probes):
        b = rng.choice([-1.0, 1.0], size=y.shape)
        term = T.dot(fn(y + eps * b) - base, T.constant(b)) * T.constant(1.0 / eps)
        yield term, grad
        total = term if total is None else total + term
    return total * T.constant(1.0 / probes)


def mc_divergence(fn, y: np.ndarray, base: T.Tensor, probes: int = 1,
                  seed: int = 0) -> T.Tensor:
    """Monte-Carlo divergence of ``fn`` (a numpy array to a graph tensor of
    its shape) at ``y``: (1/N) sum b^T (fn(y + eps b) - base) / eps over
    Rademacher probes b, with ``base`` = fn(y) and eps = 1e-3 max|y| (at
    least 1e-6); one ``fn`` call per probe, differentiable through each."""
    return T.whole(_divergence_terms(fn, y, base, probes, seed, 1.0))


def _require_gaussian(noise) -> None:
    if noise.gamma > 0:
        raise ValueError("SURE here assumes pure Gaussian noise (gamma == 0)")


def _sure_terms(model, inst: ProblemInstance, axhat: T.Tensor, probes: int, seed: int):
    """``sure_loss`` as a loss body (see ``tensor.whole``) from ``axhat`` =
    A R(y): the residual term, then each probe's divergence term."""
    op, sigma = inst.op, inst.noise.sigma

    def ar(yv):
        return T.apply_linear(model.forward(yv, op, inst.noise), op.apply, op.adjoint)

    loss = T.sum_all(T.square(axhat - T.constant(inst.y)))
    yield loss, None
    if sigma > 0:
        weight = 2.0 * sigma ** 2
        div = yield from _divergence_terms(ar, inst.y, axhat, probes, seed, weight)
        loss = loss + T.constant(weight) * div
    return loss


def sure_loss(model, inst: ProblemInstance, xhat: T.Tensor, probes: int = 1,
              seed: int = 0) -> T.Tensor:
    """Stein estimate of the measurement-consistency risk for Gaussian
    noise: ||A R(y) - y||^2 + 2 sigma^2 div(A o R)(y).  The residual and
    the divergence base share ``xhat`` = R(y), i.e. ``model.forward(inst.y,
    inst.op, inst.noise)``."""
    _require_gaussian(inst.noise)
    axhat = T.apply_linear(xhat, inst.op.apply, inst.op.adjoint)
    return T.whole(_sure_terms(model, inst, axhat, probes, seed))


def split_loss(model, inst: ProblemInstance, keep_prob: float = 0.9,
               seed: int = 0) -> T.Tensor:
    """Measurement splitting: reconstruct from a random kept subset and
    penalize the residual only on the held-out entries."""
    if not 0 < keep_prob <= 1:
        raise ValueError("keep_prob must be in (0, 1]")
    rng = np.random.default_rng(seed)
    m = (rng.random(inst.op.range_shape) < keep_prob).astype(np.float64)
    while m.sum() == 0:  # keep at least one measurement
        m = (rng.random(inst.op.range_shape) < keep_prob).astype(np.float64)
    op = inst.op
    xhat = model.forward(m * inst.y, compose(make_inpainting(m), op), inst.noise)
    resid = T.apply_linear(xhat, op.apply, op.adjoint) - T.constant(inst.y)
    held_out = T.mul(resid, T.constant(1.0 - m))
    return T.sum_all(T.square(held_out))


def _consistency(model, z: T.Tensor, op, noise) -> T.Tensor:
    """|| z - R(A z, A) ||^2, differentiable through ``z`` and the second
    pass: the term EI and MOI share."""
    y2 = T.apply_linear(z, op.apply, op.adjoint)
    x2 = model.forward(y2, op, noise)
    return T.sum_all(T.square(z - x2))


def ei_loss(model, inst: ProblemInstance, xhat: T.Tensor, group: TransformGroup,
            seed: int = 0) -> T.Tensor:
    """Equivariant imaging: || T x_hat - R(A T x_hat, A) ||^2 for one sampled
    group element T, with ``xhat`` = R(y)."""
    t = group.sample(inst.op.domain_shape, seed)
    return _consistency(model, t.apply(xhat), inst.op, inst.noise)


def moi_loss(model, inst: ProblemInstance, xhat: T.Tensor, operator_family: list,
             seed: int = 0) -> T.Tensor:
    """Multi-operator consistency: || x_hat - R(A_r x_hat, A_r) ||^2 for one
    operator sampled from the family, with ``xhat`` = R(y)."""
    if not operator_family:
        raise ValueError("operator family is empty")
    rng = np.random.default_rng(seed)
    other = operator_family[int(rng.integers(len(operator_family)))]
    return _consistency(model, xhat, other, inst.noise)


# ---------------------------------------------------------------------------
# finetuning loop
# ---------------------------------------------------------------------------


@dataclass
class FinetuneConfig:
    mc_loss: str = "sure"       # sure | split
    null_loss: str = "ei"       # ei | moi | none
    omega: float = 0.1
    probes: int = 1
    keep_prob: float = 0.9
    max_shift_frac: float = 0.1
    steps: int = 200
    lr: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        if self.steps < 1 or self.lr <= 0:
            raise ValueError("steps and lr must be positive")
        if self.probes < 1 or not 0 < self.keep_prob <= 1 or not 0 <= self.max_shift_frac <= 1:
            raise ValueError("need probes >= 1, keep_prob in (0, 1] and max_shift_frac in [0, 1]")
        if self.omega < 0:
            raise ValueError("omega must be nonnegative")
        if self.mc_loss not in ("sure", "split"):
            raise ValueError(f"unknown mc_loss {self.mc_loss!r}")
        if self.null_loss not in ("ei", "moi", "none"):
            raise ValueError(f"unknown null_loss {self.null_loss!r}")


def finetune(model, instances: list, cfg: FinetuneConfig) -> dict:
    """Adapt the model on measurements alone: per step, L_MC + omega
    L_NULL summed over the instances, one Adam step, and best-checkpoint
    tracking by the self-supervised loss.  MOI draws its operators from
    the instances'; ground truths are never read.

    Each instance's reconstruction x_hat = R(y) is computed once per step
    and shared by the SURE residual, its divergence base and the EI or
    MOI term, so a SURE+EI step with one probe is 3 model forwards per
    instance (x_hat, the probe, the EI pass).  Split keeps its own
    forward, from the masked measurement.  The terms read x_hat through
    two leaves holding values, A x_hat (the residual and each probe's
    base) and x_hat (EI or MOI); each term is backwarded as it is built,
    residual, probes, then EI or MOI, so one other forward's tape is
    alive beside x_hat's, and a closing backward carries the leaves'
    gradient, A^T (A x_hat's) + x_hat's, through x_hat's tape.  The
    gradients and the loss are those of one backward of the instance's
    loss, bit for bit.  The returned ``forwards_per_step`` is the model's
    ``eval_count`` over the call divided by the steps."""
    if not instances:
        raise ValueError("no finetuning measurements")
    if cfg.mc_loss == "sure":
        for inst in instances:
            _require_gaussian(inst.noise)
    group = TransformGroup("composite", cfg.max_shift_frac)
    operator_family = [inst.op for inst in instances]
    opt = T.AdamOptimizer(model.parameters(), lr=cfg.lr)

    def instance_loss(inst, sd):  # L_MC + omega L_NULL as a loss body (see tensor.whole)
        xhat = grad = None
        if cfg.mc_loss == "sure" or cfg.null_loss != "none":
            xhat = model.forward(inst.y, inst.op, inst.noise)
        if cfg.mc_loss == "sure":
            axhat = T.leaf(inst.op.apply(xhat.data))
            loss = yield from _sure_terms(model, inst, axhat, cfg.probes, sd)
            # one backward adds this to x_hat's gradient before the null term's
            grad = inst.op.adjoint(axhat.grad)
        else:
            loss = split_loss(model, inst, keep_prob=cfg.keep_prob, seed=sd)
            yield loss, None
        if cfg.null_loss != "none":
            x = T.leaf(xhat.data)
            x.grad = grad
            if cfg.null_loss == "ei":
                null = ei_loss(model, inst, x, group, seed=sd + 7)
            else:
                null = moi_loss(model, inst, x, operator_family, seed=sd + 7)
            term = T.constant(cfg.omega) * null
            yield term, None
            loss = loss + term
            grad = x.grad
        if xhat is not None:
            yield xhat, grad
        return loss

    def losses(step):
        for i, inst in enumerate(instances):
            yield instance_loss(inst, cfg.seed * 1000003 + step * 131 + i)

    history = []
    best_score, best_step = np.inf, -1
    evals = model.eval_count
    for step in range(cfg.steps):
        held = [p.data for p in opt.params]  # Adam rebinds each p.data, never writes to it
        history.append(opt.descend(losses(step), "finetuning"))
        if history[-1] < best_score:  # the parameters that scored it, before the update
            best_score, best_step, best = history[-1], step, held
    for p, data in zip(opt.params, best):
        p.data = data
    return {"steps": cfg.steps, "loss_history": history,
            "best_step": best_step, "best_score": best_score,
            "forwards_per_step": (model.eval_count - evals) / cfg.steps}
