"""Supervised multi-task training: task registry, SNR-balanced L1 loss,
patch sampling, the training loop, and synthetic desk-scale datasets."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, fields

import numpy as np

from . import operators as ops
from . import tensor as T
from .config import read_fields, typed
from .metrics import psnr
from .noise import sample_noise, sample_params
from .problem import ProblemInstance

__all__ = ["TASK_KINDS", "TaskSpec", "TrainConfig", "DatasetConfig",
           "make_synthetic_dataset", "sample_batch", "task_loss", "train"]


def _draw_inpainting(shape, rng, p_range):
    lo, hi = p_range
    p = float(rng.uniform(lo, hi))
    return ops.make_inpainting(ops.make_bernoulli_mask(shape, p, seed=int(rng.integers(2 ** 31))))


# task kind -> (its operator parameters with their defaults,
#               draw(shape, rng, **params), which draws one operator from rng)
TASK_KINDS = {
    "identity": ({}, lambda shape, rng: ops.identity_operator(shape)),
    "inpainting": ({"p_range": (0.3, 0.9)}, _draw_inpainting),
    "blur": ({"sigma_blur": 1.0, "kernel_size": 7},
             lambda shape, rng, sigma_blur, kernel_size: ops.make_blur(
                 ops.make_gaussian_kernel(sigma_blur, kernel_size), shape)),
    "motion_blur": ({"length_scale": 0.6, "amplitude": 0.5, "kernel_size": 7},
                    lambda shape, rng, length_scale, amplitude, kernel_size: ops.make_blur(
                        ops.make_motion_kernel(length_scale, amplitude, kernel_size,
                                               seed=int(rng.integers(2 ** 31))), shape)),
    "downsampling": ({"factor": 2, "filter": "bicubic"},
                     lambda shape, rng, factor, filter: ops.make_downsampling(factor, filter, shape)),
}


@dataclass
class TaskSpec:
    """One training task: how to draw operators, noise levels, and data.
    ``params`` may set any of the kind's parameters (see
    :data:`TASK_KINDS`); the others keep their defaults."""

    name: str
    kind: str
    channels: int = 1
    sigma_range: object = 0.0
    gamma_range: object = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise ValueError(f"task name must be a string, got {self.name!r}")
        if not (isinstance(self.kind, str) and self.kind in TASK_KINDS):
            raise ValueError(f"unknown task kind {self.kind!r}; known kinds {sorted(TASK_KINDS)}")
        if type(self.channels) is not int or self.channels not in (1, 2, 3):
            raise ValueError("channel count must be 1, 2, or 3")
        for name in ("sigma_range", "gamma_range"):  # None, a number or a [lo, hi] pair
            v = getattr(self, name)
            if v is not None:
                setattr(self, name, typed(v, (0.0,) if isinstance(v, (list, tuple)) else 0.0, name))
        self.params = read_fields(self.params, TASK_KINDS[self.kind][0], f"{self.kind} task params")

    @classmethod
    def from_dict(cls, d) -> "TaskSpec":
        """A task from an object with a ``name``, a ``kind`` and any other
        field; the constructor checks the values."""
        known = {f.name for f in fields(cls)}
        if not (isinstance(d, dict) and {"name", "kind"} <= set(d) <= known):
            raise ValueError(f"a task must be an object with a name, a kind and "
                             f"optionally the other keys of {sorted(known)}, got {d!r}")
        return cls(**d)

    def draw_operator(self, shape, rng) -> ops.OperatorHandle:
        defaults, draw = TASK_KINDS[self.kind]
        params = {**defaults, **self.params}
        if params.get("kernel_size", 0) >= min(shape[1:]):  # refused before the kernel is built
            raise ValueError("kernel must be smaller than the image")
        return draw(shape, rng, **params)

    def simulate(self, x: np.ndarray, rng, seed: int) -> ProblemInstance:
        """A problem instance for clean image ``x``: an operator, noise
        levels and noise drawn from ``rng``, in that order."""
        op = self.draw_operator(x.shape, rng)
        noise = sample_params(self.sigma_range, self.gamma_range, seed=int(rng.integers(2 ** 31)))
        y, _ = sample_noise(op.apply(x), noise, seed=int(rng.integers(2 ** 31)))
        return ProblemInstance(op=op, y=y, noise=noise, x=x, seed=seed)


@dataclass
class TrainConfig:
    steps: int = 2000
    batch_size: int = 4
    lr: float = 1e-4
    lr_decay_step: int = 1800
    patch_size: int = 32
    seed: int = 0
    log_every: int = 50
    # output paths: set by the caller, never read from a config file
    log_path: object = field(default=None, init=False)
    checkpoint_path: object = field(default=None, init=False)
    checkpoint_every: int = 500

    def __post_init__(self):
        if min(self.steps, self.batch_size, self.patch_size,
               self.lr_decay_step, self.log_every, self.checkpoint_every) < 1 or self.lr <= 0:
            raise ValueError("config values must be positive")


# ---------------------------------------------------------------------------
# synthetic data
# ---------------------------------------------------------------------------


@dataclass
class DatasetConfig:
    """Synthetic images per task: ``count`` of ``kind``, ``shape`` with the task's channels."""

    kind: str = "piecewise-constant"
    count: int = 50
    shape: tuple = (1, 32, 32)
    seed: int = 0

    def __post_init__(self):
        if len(self.shape) != 3 or min(self.shape) < 1 or self.count < 1:
            raise ValueError("dataset shape must be three positive integers and count positive")


def make_synthetic_dataset(kind: str, count: int, shape, seed: int = 0) -> list:
    """Deterministic synthetic images in [0, 1]; shape is (C, H, W)."""
    c, h, w = shape
    rng = np.random.default_rng(seed)
    images = []
    for _ in range(count):
        if kind == "piecewise-constant":
            img = np.full((h, w), rng.uniform(0.1, 0.4))
            for _ in range(rng.integers(2, 6)):
                t, l = rng.integers(0, h - 2), rng.integers(0, w - 2)
                bh = int(rng.integers(2, max(3, h // 2)))
                bw = int(rng.integers(2, max(3, w // 2)))
                img[t:t + bh, l:l + bw] = rng.uniform(0, 1)
        elif kind == "smooth-bumps":
            yy, xx = np.meshgrid(np.linspace(0, 1, h), np.linspace(0, 1, w), indexing="ij")
            img = np.zeros((h, w))
            for _ in range(rng.integers(2, 5)):
                cy, cx = rng.uniform(0, 1, 2)
                s = rng.uniform(0.08, 0.25)
                img += rng.uniform(0.3, 1.0) * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * s ** 2))
            img /= max(img.max(), 1e-9)
        elif kind == "text-like":
            img = np.full((h, w), 0.95)
            for _ in range(rng.integers(4, 10)):
                r0, c0 = rng.integers(1, h - 1), rng.integers(1, w - 1)
                length = int(rng.integers(2, max(3, w // 3)))
                if rng.random() < 0.5:
                    img[r0, c0:c0 + length] = rng.uniform(0, 0.2)
                else:
                    img[r0:r0 + length, c0] = rng.uniform(0, 0.2)
        else:
            raise ValueError(f"unknown dataset kind {kind!r}")
        images.append(np.broadcast_to(np.clip(img, 0, 1), (c, h, w)).copy())
    return images


def _random_patch(img: np.ndarray, size: int, rng) -> np.ndarray:
    c, h, w = img.shape
    if h < size or w < size:
        ph, pw = max(0, size - h), max(0, size - w)
        img = np.pad(img, ((0, 0), (0, ph), (0, pw)), mode="reflect")
        c, h, w = img.shape
    t = int(rng.integers(0, h - size + 1))
    l = int(rng.integers(0, w - size + 1))
    return img[:, t:t + size, l:l + size].copy()


def sample_batch(task: TaskSpec, dataset: list, batch: int, patch: int,
                 seed: int = 0) -> list:
    """Draw ``batch`` problem instances: random patch, fresh operator (per
    task policy), noise parameters, and a simulated measurement."""
    if not dataset:
        raise ValueError("dataset is empty")
    rng = np.random.default_rng(seed)
    return [task.simulate(_random_patch(dataset[int(rng.integers(len(dataset)))], patch, rng),
                          rng, seed) for _ in range(batch)]


# ---------------------------------------------------------------------------
# loss and loop
# ---------------------------------------------------------------------------


# the noise level below which the SNR weight stops growing
_SIGMA_FLOOR = 1e-3


def snr_weight(op, y, sigma) -> float:
    """omega = ||A^T y||_2 / max(sigma, 1e-3), balancing tasks and noise
    levels."""
    return float(np.linalg.norm(op.adjoint(y))) / max(sigma, _SIGMA_FLOOR)


def task_loss(model, inst: ProblemInstance) -> T.Tensor:
    """Weighted L1 reconstruction loss, differentiable in the model."""
    if inst.x is None:
        raise ValueError("supervised loss needs a ground truth")
    out = model.forward(inst.y, inst.op, inst.noise)
    omega = snr_weight(inst.op, inst.y, inst.noise.sigma)
    return T.constant(omega) * T.sum_all(T.abs_val(out - T.constant(inst.x)))


def train(model, tasks: list, cfg: TrainConfig, datasets: dict) -> dict:
    """Joint multi-task loop: per step one batch per task, losses summed,
    one Adam step; lr is divided by 10 at the decay step.

    ``datasets`` maps task name -> image list.  Returns a report with the
    loss trajectory and final per-task train PSNR next to the A^T y
    baseline.
    """
    if not tasks:
        raise ValueError("need at least one task")
    opt = T.AdamOptimizer(model.parameters(), lr=cfg.lr)
    log_rows = []
    loss_history = []
    for step in range(cfg.steps):
        if step == cfg.lr_decay_step:
            opt.lr = cfg.lr / 10.0
        opt.zero_grad()
        total = 0.0
        per_task = {}
        for ti, task in enumerate(tasks):
            batch = sample_batch(task, datasets[task.name], cfg.batch_size,
                                 cfg.patch_size, seed=cfg.seed * 1000003 + step * 131 + ti)
            task_total = None
            for inst in batch:
                loss = task_loss(model, inst)
                task_total = loss if task_total is None else task_total + loss
            task_total.backward()
            per_task[task.name] = task_total.item()
            total += task_total.item()
        if not np.isfinite(total):
            raise RuntimeError(f"training diverged at step {step}: loss {total}")
        opt.step()
        loss_history.append(total)
        if (step + 1) % cfg.log_every == 0 or step == cfg.steps - 1:
            for task in tasks:
                log_rows.append({"step": step + 1, "task": task.name,
                                 "loss": per_task[task.name],
                                 "psnr": _eval_task(model, task, datasets[task.name], cfg, 4)[0]})
        if cfg.checkpoint_path and ((step + 1) % cfg.checkpoint_every == 0
                                    or step == cfg.steps - 1):
            model.save_checkpoint(cfg.checkpoint_path)
    if cfg.log_path:
        with open(cfg.log_path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=["step", "task", "loss", "psnr"])
            writer.writeheader()
            writer.writerows(log_rows)
    report = {"steps": cfg.steps, "loss_history": loss_history, "log": log_rows,
              "task_psnr": {}, "baseline_psnr": {}}
    for task in tasks:
        model_db, base_db = _eval_task(model, task, datasets[task.name], cfg, 16)
        report["task_psnr"][task.name] = model_db
        report["baseline_psnr"][task.name] = base_db
    return report


def _eval_task(model, task: TaskSpec, dataset, cfg: TrainConfig, n: int):
    """Mean PSNR of the model's reconstructions and of A^T y on the first
    ``n`` instances of a fixed draw of ``task``."""
    model_vals, base_vals = [], []
    for inst in sample_batch(task, dataset, n, cfg.patch_size, seed=cfg.seed * 7 + 999331):
        model_vals.append(psnr(inst.x, model.reconstruct(inst.y, inst.op, inst.noise)))
        base_vals.append(psnr(inst.x, inst.op.adjoint(inst.y)))
    return float(np.mean(model_vals)), float(np.mean(base_vals))
