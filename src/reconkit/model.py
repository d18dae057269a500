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

import math
import re
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from . import tnsr
from .config import config_dict, read_config
from .noise import NoiseParams
from .operators import OperatorHandle, make_coarse
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
    cg_tol: float = 1e-10
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
        """The stored config, each entry read as JSON would give it (integral
        values as ints, one element as a scalar unless the field is a tuple)."""
        def value(name, default):
            vals = np.asarray(entries[f"config.{name}"], dtype=np.float64).ravel().tolist()
            vals = [int(v) if v.is_integer() else v for v in vals]
            return vals[0] if len(vals) == 1 and not isinstance(default, tuple) else vals

        return read_config(cls, {k: value(k, v) for k, v in config_dict(cls()).items()},
                           "checkpoint config")


def _he_init(rng, shape):
    fan_in = shape[1] * shape[2] * shape[3]
    return rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)


def _layout(config: RamConfig):
    """Each convolution weight's name, shape, the stride it runs at and
    whether it starts at zero, in the order the model draws them."""
    w0, kk, nk = config.base_width, config.ksm_kernel_size, 2 * (config.krylov_depth + 1)
    for c in config.head_channels:
        yield f"head{c}.conv_in", (w0, c + 2, 3, 3), 1, False
        yield f"head{c}.conv_out", (c, w0, 3, 3), 1, True
        for s in range(config.num_scales):
            ws = w0 * 2 ** s
            yield f"head{c}.ksm{s}.decode", (c, ws, 1, 1), 1, False
            yield f"head{c}.ksm{s}.combine", (c, nk * c, kk, kk), 1, False
            yield f"head{c}.ksm{s}.encode", (ws, c, 1, 1), 1, False
    for s in range(config.num_scales):
        ws = w0 * 2 ** s
        decoded = s < config.num_scales - 1  # the decoder skips the coarsest scale
        for b in range(config.blocks):
            yield f"enc{s}.block{b}.conv", (ws, ws, 3, 3), 1, False
            if decoded:
                yield f"dec{s}.block{b}.conv", (ws, ws, 3, 3), 1, False
        if decoded:
            yield f"down{s}.conv", (2 * ws, ws, 2, 2), 2, False
            yield f"up{s}.conv", (2 * ws, ws, 2, 2), 2, False


def _unread_decoder_weight(name: str, config: RamConfig) -> bool:
    """Whether ``name`` is ``dec{S-1}.block{b}.conv`` with ``b < blocks``,
    a coarsest-scale decoder weight that earlier checkpoints hold and no
    forward reads.  Decided from the name alone, as the stored
    ``config.blocks`` may claim any size."""
    m = re.fullmatch(rf"dec{config.num_scales - 1}\.block(0|[1-9]\d{{0,17}})\.conv", name)
    return m is not None and int(m[1]) < config.blocks


class RamModel:
    """Reconstructor for linear inverse problems y = A x + noise.

    ``forward`` returns a graph tensor of ``op.domain_shape`` (C, H, W)
    for training, SURE/EI losses and gradient checks; ``reconstruct``
    returns its array, runs ``forward`` under ``tensor.no_grad`` so no
    tape is kept, and is the entry point used by the bootstrap and the
    evaluation tools.

    Every convolution weight is stored through ``tensor.conv_weight`` at
    the stride it runs at: the 3x3 weights kernel-row major, so their
    forward copies nothing, and the 2x2 stride-2 and 1x1 weights in C
    order.  Gradients and Adam steps keep
    that order; a weight assigned in another order gives the same bits
    and pays one reorder per forward.
    """

    def __init__(self, config: RamConfig = RamConfig()):
        self.config = config
        self.eval_count = 0
        rng = np.random.default_rng(config.seed)
        self._params = {}
        for name, shape, stride, zero in _layout(config):
            data = np.zeros(shape) if zero else _he_init(rng, shape)
            self._params[name] = T.Parameter(name, T.conv_weight(data, stride))
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
        feats = []
        u, v = x_img, aty
        for k in range(self.config.krylov_depth + 1):
            if k > 0:
                u = T.apply_linear(u, cop.normal, cop.normal)
                v = T.apply_linear(v, cop.normal, cop.normal)
            feats.extend([u, v])
        return T.concat_channels(feats)

    def _ksm(self, s, c, f, aty_s, cop):
        stack = self.build_ksm_stack(self._conv1(f, f"head{c}.ksm{s}.decode"), aty_s, cop)
        mixed = T.conv2d(stack, self._params[f"head{c}.ksm{s}.combine"], padding="reflect",
                         pad=self.config.ksm_kernel_size // 2)
        del stack
        return f + self._conv1(mixed, f"head{c}.ksm{s}.encode")

    # -- forward ---------------------------------------------------------
    def _padding(self, h, w):
        m = 2 ** (self.config.num_scales - 1)
        hp = ((h + m - 1) // m) * m
        wp = ((w + m - 1) // m) * m
        pt = (hp - h) // 2
        pl = (wp - w) // 2
        return (pt, hp - h - pt, pl, wp - w - pl), (hp, wp)

    def forward(self, y, op: OperatorHandle, noise: NoiseParams) -> T.Tensor:
        """Reconstruct from measurement ``y`` (array or graph tensor).

        No name holds a feature map after its last reader: each block,
        upsampling and skip add rebinds ``f``, and a Krylov module drops
        its stack once the combine has read it.  The encoder keeps a skip
        of each scale but the coarsest, and the decoder pops each one into
        its add.  So without a tape a map is freed as soon as it is read
        for the last time; on the tape each operation keeps what its
        backward reads (the downsampling convolution keeps the skip as its
        input), and the tape is the same."""
        self.eval_count += 1
        cfg = self.config
        c, h, w = op.domain_shape
        self.select_head(c)
        yt = y if isinstance(y, T.Tensor) else T.constant(np.asarray(y, dtype=np.float64))
        if yt.shape != op.range_shape:
            raise ValueError(f"measurement shape {yt.shape} != {op.range_shape}")

        # work with the unit-norm operator (make_coarse's scale-0 handle, cached
        # per definition); rescale y and the noise levels to keep the physics consistent
        nrm = op.norm()
        opn = make_coarse(op, 0)
        yt = yt * T.constant(1.0 / nrm)
        sigma = noise.sigma / nrm
        gamma = noise.gamma / nrm

        # proximal input estimate with a learnable SNR weight; y was checked
        # where it entered, so a fed-back non-finite y reaches the loss guard
        rate = lambda_schedule(sigma, 1.0, yt.data)
        lam = T.apply_linear(self._params["eta"], lambda e: e * rate, lambda g: g * rate)
        aty = T.apply_linear(yt, opn.adjoint, opn.apply)
        x0 = prox_estimate_graph(opn, aty, lam, cg_iters=cfg.cg_iters, cg_tol=cfg.cg_tol)

        pads, (hp, wp) = self._padding(h, w)
        xin = T.pad_reflect(x0, pads)
        smap = T.constant(np.full((1, hp, wp), sigma))
        gmap = T.constant(np.full((1, hp, wp), gamma))

        coarse = []
        aty_s = []
        for s in range(cfg.num_scales):
            cop = make_coarse(op, s, fine_shape=(c, hp, wp))
            coarse.append(cop)
            aty_s.append(T.apply_linear(yt, cop.adjoint, cop.apply))

        f = T.relu(self._conv3(T.concat_channels([xin, smap, gmap]), f"head{c}.conv_in"))
        skips = []
        for s in range(cfg.num_scales):
            for b in range(cfg.blocks):
                f = T.relu(self._conv3(f, f"enc{s}.block{b}.conv"))
            f = self._ksm(s, c, f, aty_s[s], coarse[s])
            if s < cfg.num_scales - 1:
                skips.append(f)
                f = T.downsample2(f, self._params[f"down{s}.conv"])
        for s in range(cfg.num_scales - 2, -1, -1):
            f = T.upsample2(f, self._params[f"up{s}.conv"])
            f = f + skips.pop()
            for b in range(cfg.blocks):
                f = T.relu(self._conv3(f, f"dec{s}.block{b}.conv"))
        res = self._conv3(f, f"head{c}.conv_out")
        return x0 + T.crop2d(res, pads[0], pads[2], h, w)

    def reconstruct(self, y, op: OperatorHandle, noise: NoiseParams) -> np.ndarray:
        """``forward(y, op, noise).data``, computed without a tape: use
        ``forward`` when gradients are needed."""
        with T.no_grad():
            return self.forward(y, op, noise).data

    # -- persistence -----------------------------------------------------
    def save_checkpoint(self, path) -> None:
        entries = {name: p.data for name, p in self._params.items()}
        entries.update(self.config.to_entries())
        tnsr.save_tensors(path, entries)

    @classmethod
    def load_checkpoint(cls, path) -> "RamModel":
        entries = tnsr.load_tensors(path)
        config = RamConfig.from_entries(entries)
        stored = {k: v for k, v in entries.items()
                  if not k.startswith("config.") and not _unread_decoder_weight(k, config)}
        # match the stored weights before allocating any: a config may claim
        # any size, and the walk stops at the first weight the file lacks
        shapes = {}
        for name, shape, stride, _ in _layout(config):
            if name not in stored or stored[name].size != math.prod(shape):
                raise ValueError(f"checkpoint weight {name} does not match its config's {shape}")
            shapes[name] = shape, stride
        shapes["eta"] = (1,), None
        if set(stored) != set(shapes):
            raise ValueError("checkpoint parameter names do not match the architecture")
        # wrap the stored arrays in __init__'s order and memory layout,
        # drawing no initial weights; a non-finite weight is left for the
        # output check to report
        model = cls.__new__(cls)
        model.config, model.eval_count, model._params = config, 0, {}
        for name, (shape, stride) in shapes.items():
            p = model._params[name] = T.Parameter(name, 0.0)
            data = stored[name].reshape(shape)
            p.data = np.asarray(data, dtype=np.float64) if stride is None else T.conv_weight(data, stride)
        return model
