"""Equivariant bootstrap uncertainty quantification.

Replicates re-measure a transformed reconstruction, reconstruct again,
and undo the transform; their spread around the base reconstruction
estimates the reconstruction error without ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .noise import sample_noise
from .problem import ProblemInstance
from .selfsup import TransformGroup

__all__ = ["BootstrapSample", "equivariant_bootstrap", "pixelwise_errors",
           "coverage_curve"]


@dataclass
class BootstrapSample:
    replicates: np.ndarray          # (N, C, H, W)
    base: np.ndarray                # (C, H, W)
    seed: int = 0

    def __post_init__(self):
        if self.replicates.ndim != 4 or self.replicates.shape[0] < 1:
            raise ValueError("need at least one replicate")
        if self.replicates.shape[1:] != self.base.shape:
            raise ValueError("replicates must share the base reconstruction's shape")


def equivariant_bootstrap(model, inst: ProblemInstance, group: TransformGroup,
                          n: int, seed: int = 0) -> BootstrapSample:
    """Draw ``n`` bootstrap replicates with exactly n + 1 model
    evaluations.  Replicate i depends only on (seed, i)."""
    if n < 1:
        raise ValueError("need at least one replicate")
    base = model.reconstruct(inst.y, inst.op, inst.noise)
    reps = []
    for i in range(n):
        t = group.sample(inst.op.domain_shape, seed=[seed, i, 0])
        clean = inst.op.apply(t.forward_np(base))
        y_boot, _ = sample_noise(clean, inst.noise, seed=[seed, i, 1])
        reps.append(t.inverse_np(model.reconstruct(y_boot, inst.op, inst.noise)))
    return BootstrapSample(replicates=np.stack(reps), base=base, seed=seed)


def pixelwise_errors(sample: BootstrapSample) -> np.ndarray:
    """Channel-averaged mean squared replicate deviation, shape (H, W)."""
    sq = (sample.replicates - sample.base[None]) ** 2
    return sq.mean(axis=(0, 1))


def _quantile(deviations: np.ndarray, level: float) -> float:
    """Order-statistic quantile: the floor(level * N)-th smallest
    deviation, 0 when the index is below 1."""
    if not 0 <= level <= 1:
        raise ValueError("levels must lie in [0, 1]")
    n = len(deviations)
    k = int(np.floor(level * n))
    if k < 1:
        return 0.0
    return float(np.sort(deviations)[k - 1])


def coverage_curve(model, instances: list, group: TransformGroup, n: int,
                   levels, seed: int = 0) -> list:
    """Empirical coverage of the l2-ball confidence regions.

    For each instance the region at level a is {x : ||x - base|| <= q_a}
    with q_a the a-quantile of replicate deviations; coverage is the
    fraction of ground truths inside.  Returns [(nominal, empirical)].
    """
    if not instances:
        raise ValueError("no instances")
    for inst in instances:
        if inst.x is None:
            raise ValueError("coverage needs ground truths")
    levels = list(levels)
    inside = np.zeros(len(levels))
    for j, inst in enumerate(instances):
        sample = equivariant_bootstrap(model, inst, group, n, seed=seed * 1000003 + j)
        devs = np.linalg.norm(
            (sample.replicates - sample.base[None]).reshape(n, -1), axis=1)
        err = np.linalg.norm(inst.x - sample.base)
        for li, level in enumerate(levels):
            if err <= _quantile(devs, level):
                inside[li] += 1
    return [(level, inside[li] / len(instances)) for li, level in enumerate(levels)]
