"""Physics-conditioned reconstruction network.

A single bias-free U-Net trunk shared across imaging tasks, with
per-channel-count input/output heads, noise-level conditioning maps, a
differentiable proximal input estimate, and Krylov subspace modules that
inject coarse-grid operator information at every encoder scale.

Bias-free convolutions plus ReLU make the whole network positively
homogeneous, so reconstructions are scale equivariant:
R(a y, A, a sigma, a gamma) == a R(y, A, sigma, gamma) for a > 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from . import tnsr
from .config import config_dict, read_config
from .noise import NoiseParams
from .operators import OperatorHandle, make_coarse, normalize
from .solvers import lambda_schedule, prox_estimate_graph

__all__ = ["RamConfig", "RamModel"]


@dataclass(frozen=True)
class RamConfig:
    num_scales: int = 3
    base_width: int = 32
    blocks: int = 2
    krylov_depth: int = 3
    head_channels: tuple = (1, 2, 3)
    cg_iters: int = 10
    cg_tol: float = 1e-6
    eta_init: float = 1.0
    # 1x1 combine restricts each module output to the pixelwise span of
    # its Krylov stack (diagnostic mode); 3x3 is the working default
    ksm_kernel_size: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.num_scales < 1 or self.base_width < 1 or self.blocks < 1:
            raise ValueError("invalid architecture sizes")
        if self.krylov_depth < 0:
            raise ValueError("krylov_depth must be >= 0")
        if self.ksm_kernel_size not in (1, 3):
            raise ValueError("ksm_kernel_size must be 1 or 3")
        if self.cg_iters < 1 or self.cg_tol <= 0:
            raise ValueError("cg_iters and cg_tol must be positive")

    def to_entries(self) -> dict:
        return {f"config.{k}": np.array(v, dtype=np.float64) for k, v in config_dict(self).items()}

    @classmethod
    def from_entries(cls, entries: dict) -> "RamConfig":
        def value(name, default):
            arr = np.asarray(entries[f"config.{name}"]).reshape(-1)
            if isinstance(default, float):
                return float(arr[0])
            ints = tuple(int(v) for v in arr)
            return ints if isinstance(default, tuple) else ints[0]

        return read_config(cls, {k: value(k, v) for k, v in config_dict(cls()).items()},
                           "checkpoint config")


def _he_init(rng, shape):
    fan_in = shape[1] * shape[2] * shape[3]
    return rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)


class RamModel:
    """Reconstructor for linear inverse problems y = A x + noise.

    ``forward`` returns a (1, C, H, W) graph tensor for training, SURE/EI
    losses and gradient checks; ``reconstruct`` returns the same values
    as a plain (C, H, W) array, runs ``forward`` under ``tensor.no_grad``
    so no tape is kept, and is the entry point used by the bootstrap and
    the evaluation tools.
    """

    def __init__(self, config: RamConfig = RamConfig()):
        self.config = config
        self.eval_count = 0
        self._params: dict[str, T.Parameter] = {}
        rng = np.random.default_rng(config.seed)
        w0 = config.base_width
        kk = config.ksm_kernel_size
        nk = 2 * (config.krylov_depth + 1)

        def par(name, shape, zero=False):
            data = np.zeros(shape) if zero else _he_init(rng, shape)
            p = T.Parameter(name, data)
            self._params[name] = p
            return p

        for c in config.head_channels:
            par(f"head{c}.conv_in", (w0, c + 2, 3, 3))
            par(f"head{c}.conv_out", (c, w0, 3, 3), zero=True)
            for s in range(config.num_scales):
                ws = w0 * 2 ** s
                par(f"head{c}.ksm{s}.decode", (c, ws, 1, 1))
                par(f"head{c}.ksm{s}.combine", (c, nk * c, kk, kk))
                par(f"head{c}.ksm{s}.encode", (ws, c, 1, 1))
        for s in range(config.num_scales):
            ws = w0 * 2 ** s
            for b in range(config.blocks):
                par(f"enc{s}.block{b}.conv", (ws, ws, 3, 3))
                par(f"dec{s}.block{b}.conv", (ws, ws, 3, 3))
            if s < config.num_scales - 1:
                wd = w0 * 2 ** (s + 1)
                par(f"down{s}.conv", (wd, ws, 2, 2))
                par(f"up{s}.conv", (wd, ws, 2, 2))
        self._params["eta"] = T.Parameter("eta", np.array(config.eta_init))

    # -- parameter access ------------------------------------------------
    def parameters(self) -> list:
        return [self._params[k] for k in sorted(self._params)]

    def param(self, name: str) -> T.Parameter:
        return self._params[name]

    def zero_grad(self):
        for p in self._params.values():
            p.zero_grad()

    def select_head(self, channels: int) -> int:
        if channels not in self.config.head_channels:
            raise ValueError(f"no head for {channels}-channel images")
        return channels

    # -- building blocks -------------------------------------------------
    def _conv3(self, x, name):
        return T.conv2d(x, self._params[name], padding="reflect", pad=1)

    def _conv1(self, x, name):
        return T.conv2d(x, self._params[name])

    def build_ksm_stack(self, x_img, aty, cop: OperatorHandle):
        """Interleaved Krylov features {(A^T A)^k x, (A^T A)^k A^T y}."""

        def normal4(a):
            return cop.normal(a[0])[None]

        feats = []
        u, v = x_img, aty
        for k in range(self.config.krylov_depth + 1):
            if k > 0:
                u = T.apply_linear(u, normal4, normal4)
                v = T.apply_linear(v, normal4, normal4)
            feats.extend([u, v])
        return T.concat_channels(feats)

    def _ksm(self, s, c, f, aty_s, cop):
        pad = self.config.ksm_kernel_size // 2
        x_img = self._conv1(f, f"head{c}.ksm{s}.decode")
        stack = self.build_ksm_stack(x_img, aty_s, cop)
        mixed = T.conv2d(stack, self._params[f"head{c}.ksm{s}.combine"],
                         padding="reflect" if pad else "valid", pad=pad)
        return f + self._conv1(mixed, f"head{c}.ksm{s}.encode")

    def _blocks(self, f, prefix):
        for b in range(self.config.blocks):
            f = T.relu(self._conv3(f, f"{prefix}.block{b}.conv"))
        return f

    # -- forward ---------------------------------------------------------
    def _padding(self, h, w):
        m = 2 ** (self.config.num_scales - 1)
        hp = ((h + m - 1) // m) * m
        wp = ((w + m - 1) // m) * m
        pt = (hp - h) // 2
        pl = (wp - w) // 2
        return (pt, hp - h - pt, pl, wp - w - pl), (hp, wp)

    def forward(self, y, op: OperatorHandle, noise: NoiseParams) -> T.Tensor:
        """Reconstruct from measurement ``y`` (array or graph tensor)."""
        self.eval_count += 1
        cfg = self.config
        c, h, w = op.domain_shape
        self.select_head(c)
        yt = y if isinstance(y, T.Tensor) else T.constant(np.asarray(y, dtype=np.float64))
        if yt.shape != op.range_shape:
            raise ValueError(f"measurement shape {yt.shape} != {op.range_shape}")

        # work with the unit-norm operator; rescale y and the noise levels
        # accordingly so the physics stays consistent
        nrm = op.norm()
        opn = normalize(op)
        yt = yt * T.constant(1.0 / nrm)
        sigma = noise.sigma / nrm
        gamma = noise.gamma / nrm

        # proximal input estimate with a learnable SNR weight
        lam = self._params["eta"] * T.constant(lambda_schedule(sigma, 1.0, yt.data))
        aty = T.apply_linear(yt, lambda a: opn.adjoint(a)[None], lambda g: opn.apply(g[0]))
        x0 = prox_estimate_graph(opn, aty, lam, cg_iters=cfg.cg_iters, cg_tol=cfg.cg_tol)

        pads, (hp, wp) = self._padding(h, w)
        xin = T.pad_reflect(x0, pads) if (hp, wp) != (h, w) else x0
        smap = T.constant(np.full((1, 1, hp, wp), sigma))
        gmap = T.constant(np.full((1, 1, hp, wp), gamma))

        coarse = []
        aty_s = []
        for s in range(cfg.num_scales):
            cop = make_coarse(op, s, fine_shape=(c, hp, wp))
            coarse.append(cop)
            aty_s.append(T.apply_linear(yt, lambda a, o=cop: o.adjoint(a)[None],
                                        lambda g, o=cop: o.apply(g[0])))

        f = T.relu(self._conv3(T.concat_channels([xin, smap, gmap]), f"head{c}.conv_in"))
        skips = []
        for s in range(cfg.num_scales):
            f = self._blocks(f, f"enc{s}")
            f = self._ksm(s, c, f, aty_s[s], coarse[s])
            skips.append(f)
            if s < cfg.num_scales - 1:
                f = T.downsample2(f, self._params[f"down{s}.conv"])
        for s in range(cfg.num_scales - 2, -1, -1):
            f = T.upsample2(f, self._params[f"up{s}.conv"]) + skips[s]
            f = self._blocks(f, f"dec{s}")
        res = self._conv3(f, f"head{c}.conv_out")
        if (hp, wp) != (h, w):
            res = T.crop2d(res, pads[0], pads[2], h, w)
        return x0 + res

    def reconstruct(self, y, op: OperatorHandle, noise: NoiseParams) -> np.ndarray:
        """``forward(y, op, noise).data[0]``, computed without a tape: use
        ``forward`` when gradients are needed."""
        with T.no_grad():
            return self.forward(y, op, noise).data[0]

    # -- persistence -----------------------------------------------------
    def save_checkpoint(self, path) -> None:
        entries = {name: p.data for name, p in self._params.items()}
        entries.update(self.config.to_entries())
        tnsr.save_tensors(path, entries)

    @classmethod
    def load_checkpoint(cls, path) -> "RamModel":
        entries = tnsr.load_tensors(path)
        config = RamConfig.from_entries(entries)
        model = cls(config)
        stored = {k: v for k, v in entries.items() if not k.startswith("config.")}
        if set(stored) != set(model._params):
            raise ValueError("checkpoint parameter names do not match the architecture")
        for name, p in model._params.items():
            arr = stored[name].reshape(p.data.shape)
            p.data = np.asarray(arr, dtype=np.float64)
        return model
