"""
A tour of the forward operators: building them, checking adjoints, and
looking at operator norms and coarse-grid versions.
"""

import numpy as np

from reconkit import operators as ops

rng = np.random.default_rng(0)
shape = (1, 32, 32)

## Build a few operators
blur = ops.make_blur(ops.make_gaussian_kernel(1.5, 9), shape)
inpaint = ops.make_inpainting(ops.make_bernoulli_mask(shape, 0.5, seed=1))
radon = ops.make_ct_radon(24, shape)
sr2 = ops.make_downsampling(2, "bicubic", shape)

## Every operator passes the adjoint dot-product test
for name, op in [("blur", blur), ("inpainting", inpaint),
                 ("radon", radon), ("sr x2", sr2)]:
    u = rng.standard_normal(op.domain_shape)
    v = rng.standard_normal(op.range_shape)
    lhs = np.sum(op.apply(u) * v)
    rhs = np.sum(u * op.adjoint(v))
    print(f"{name:12s} <Au, v> = {lhs:+.12f}   <u, A'v> = {rhs:+.12f}")

## Operator norms: Lanczos on A^T A (blur, CT), closed form (downsampling)
for name, op in [("blur", blur), ("radon", radon), ("sr x2", sr2)]:
    print(f"{name:12s} ||A|| = {op.norm():.6f}")

## Coarse-grid operators: A composed with a sinc upsampler
coarse = ops.make_coarse(blur, 1)
print("coarse domain", coarse.domain_shape, "range", coarse.range_shape)

## Handles built from the same definition share a content key, so a
## redrawn blur reuses the cached norm and coarse operators
redrawn = ops.make_blur(ops.make_gaussian_kernel(1.5, 9), shape)
print("same key:", redrawn.key == blur.key,
      "same coarse operator:", ops.make_coarse(redrawn, 1) is coarse)
print("cache stats:", ops.cache_stats())

## The measurement of a simple scene
x = np.zeros(shape)
x[0, 8:24, 8:24] = 1.0
print("blur preserves mass:", np.isclose(blur.apply(x).sum(), x.sum(), rtol=1e-3))
print("sinogram shape:", radon.apply(x).shape)
