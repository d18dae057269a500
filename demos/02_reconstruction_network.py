"""
The reconstruction network from the inside: proximal input estimate,
noise-level conditioning, and the scale-equivariance property.
"""

import numpy as np

from reconkit import operators as ops
from reconkit.model import RamConfig, RamModel
from reconkit.noise import NoiseParams, sample_noise
from reconkit.solvers import lambda_schedule, prox_estimate

rng = np.random.default_rng(0)
shape = (1, 32, 32)

## A blurry, noisy measurement
x = np.clip(rng.random(shape) + 0.3, 0, 1)
op = ops.make_blur(ops.make_gaussian_kernel(1.2, 7), shape)
noise = NoiseParams(sigma=0.05)
y, _ = sample_noise(op.apply(x), noise, seed=1)

## The network's input is a cheap data-fidelity prox, not A'y alone,
## solved as far as a small model's configuration asks
cfg = RamConfig(num_scales=2, base_width=8, blocks=1, krylov_depth=2,
                head_channels=(1,), seed=2)
lam = lambda_schedule(noise.sigma, 1.0, y)
x0 = prox_estimate(op, y, lam, cg_iters=cfg.cg_iters, cg_tol=cfg.cg_tol)
print("lambda =", lam)
print("||A'y - x||  =", np.linalg.norm(op.adjoint(y) - x))
print("||prox - x|| =", np.linalg.norm(x0 - x))

## The model; the output conv starts at zero, so an untrained model
## passes its internal prox estimate straight through
model = RamModel(cfg)
out = model.reconstruct(y, op, noise)
print("untrained residual norm:",
      np.linalg.norm(out - x0), "(small: same prox, learnable eta)")

## Scale equivariance: doubling (y, sigma) doubles the reconstruction
alpha = 2.0
out2 = model.reconstruct(alpha * y, op, NoiseParams(sigma=alpha * noise.sigma))
gap = np.linalg.norm(out2 - alpha * out) / np.linalg.norm(out2)
print(f"equivariance gap at alpha={alpha}: {gap:.2e}")

## The same weights serve any image size
op_odd = ops.make_blur(ops.make_gaussian_kernel(1.2, 7), (1, 27, 27))
y_odd, _ = sample_noise(op_odd.apply(rng.random((1, 27, 27))), noise, seed=3)
print("odd-size reconstruction shape:",
      model.reconstruct(y_odd, op_odd, noise).shape)
