"""Minimal dense-tensor engine with reverse-mode automatic differentiation.

Tensors hold float64 numpy arrays with up to 4 axes: images are (C, H, W)
like the operators' arrays, with no batch axis, and convolution weights
4-D.  Every differentiable operation records its parents and a backward
closure on a dynamic tape; ``backward`` walks the tape in reverse
topological order and accumulates gradients into leaves.  Gradients of
:class:`Parameter` leaves persist across backward calls until explicitly
zeroed, so repeated backward passes accumulate additively.

Inside a :func:`no_grad` block the calling thread builds no tape: every
operation returns a tensor with no parents and no backward closure, so
the arrays an operation keeps for its backward are freed when it
returns.  Values are computed exactly as with the tape.

All convolutions are bias-free by construction: there is no bias term
anywhere in this module.  Each convolution lowers its padded input along
the width only (MEC; Cho & Brand, ICML 2017): the column patches hold
every input row with its KW horizontally shifted copies, so each pixel
is copied KW times, not KH*KW times as in im2col.  Kernel row ``i``
reads rows i, i + stride, ... of them (at stride 1 a view) and is one
BLAS ``matmul`` accumulated into the output; kernel rows that do not
overlap (kernel height <= stride) read disjoint rows, held side by side,
and are one ``matmul`` together.  The work runs in output row strips
whose column patches and accumulation temporary together stay below
``_PATCH_BYTES``.  The transposed convolution (also the input
gradient of a convolution) has no loop over kernel taps: when taps do
not overlap (kernel equal to the stride) it is one ``matmul`` for all
taps and a depth-to-space reshape; otherwise it is the forward
convolution of the zero-inserted, (k - 1)-padded input with the flipped
kernel.

Every single-input linear op (padding, cropping, channel slicing, sum and
mean) is one :func:`apply_linear` node: its backward applies the op's
adjoint; an operator enters as ``apply_linear(x, op.apply, op.adjoint)``.
Each padding mode's map and adjoint are written once, in
``_padding_maps``; ``conv2d`` pads with them too and stays one node.
Reflect padding is one gather through a memoised index map.  A window or
width that leaves the input raises ``ValueError``; none is clamped.
"""

from __future__ import annotations

import contextlib
import functools
import threading

import numpy as np

__all__ = [
    "Tensor",
    "no_grad",
    "Parameter",
    "constant",
    "add",
    "sub",
    "mul",
    "div",
    "relu",
    "abs_val",
    "square",
    "sum_all",
    "mean_all",
    "dot",
    "conv2d",
    "conv_transpose2d",
    "downsample2",
    "upsample2",
    "concat_channels",
    "slice_channels",
    "pad_reflect",
    "pad_zero",
    "crop2d",
    "apply_linear",
    "AdamOptimizer",
]


def _as_array(data) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim > 4:
        raise ValueError(f"tensors support at most 4 axes, got {arr.ndim}")
    if arr.size == 0 or min(arr.shape) < 1:
        raise ValueError(f"all extents must be >= 1, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("non-finite values rejected at tensor boundary")
    return arr


class _TapeState(threading.local):
    off = False


_TAPE = _TapeState()


@contextlib.contextmanager
def no_grad():
    """Build no tape in the calling thread for the duration of the block.

    Nests, restores the previous state on exit (also on an exception) and
    leaves other threads untouched."""
    previous = _TAPE.off
    _TAPE.off = True
    try:
        yield
    finally:
        _TAPE.off = previous


class Tensor:
    """A node of the dynamic computation graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, parents=(), backward_fn=None, requires_grad=False):
        if parents:
            # Internal nodes trust their producers; only validate at the
            # boundary (leaf construction goes through _as_array).
            self.data = data
        else:
            self.data = _as_array(data)
        if parents and _TAPE.off:
            parents, backward_fn = (), None
        self._parents = tuple(parents)
        self._backward = backward_fn
        self.requires_grad = requires_grad or any(p.requires_grad for p in self._parents)
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError("item() requires a scalar tensor")
        return float(self.data.reshape(-1)[0])

    # -- arithmetic sugar ------------------------------------------------
    def __add__(self, other):
        return add(self, _wrap(other))

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, _wrap(other))

    def __rsub__(self, other):
        return sub(_wrap(other), self)

    def __mul__(self, other):
        return mul(self, _wrap(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, _wrap(other))

    def __neg__(self):
        return mul(self, constant(-1.0))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- autodiff --------------------------------------------------------
    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into every reachable leaf gradient.

        ``self`` must be scalar.  Each node is visited exactly once, in
        reverse topological order of the (acyclic) tape.
        """
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar loss")
        order: list[Tensor] = []
        state: dict[int, int] = {}  # id -> 0 visiting / 1 done
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            nid = id(node)
            if processed:
                state[nid] = 1
                order.append(node)
                continue
            if state.get(nid) is not None:
                # already visited or in progress; duplicate parent edges
                # (e.g. add(x, x)) land here.  Cycles cannot arise because
                # tensors are immutable once constructed.
                continue
            state[nid] = 0
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and state.get(id(p)) != 1:
                    stack.append((p, False))

        grads: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        for node in reversed(order):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node._backward is not None:
                parent_grads = node._backward(g)
                for p, pg in zip(node._parents, parent_grads):
                    if pg is None or not p.requires_grad:
                        continue
                    nid = id(p)
                    if nid in grads:
                        grads[nid] = grads[nid] + pg
                    else:
                        grads[nid] = pg
            else:
                # leaf: accumulate into persistent grad
                if node.grad is None:
                    node.grad = np.zeros_like(node.data)
                node.grad += g


class Parameter(Tensor):
    """Named trainable leaf with a persistent gradient accumulator."""

    __slots__ = ("name",)

    def __init__(self, name: str, data):
        super().__init__(data, requires_grad=True)
        self.name = name

    def zero_grad(self):
        self.grad = np.zeros_like(self.data)

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.shape})"


def constant(data) -> Tensor:
    return Tensor(data)


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else constant(x)


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """The gradient of an operand of ``shape``: a broadcast size-1 operand
    gets the sum of ``grad``."""
    return grad if grad.shape == shape else np.array([grad.sum()]).reshape(shape)


def _binary_shapes(a: Tensor, b: Tensor):
    if a.shape == b.shape:
        return
    if a.size == 1 or b.size == 1:
        return
    raise ValueError(f"shape mismatch {a.shape} vs {b.shape} (only scalar broadcast supported)")


def add(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes(a, b)

    def bw(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return Tensor(a.data + b.data, (a, b), bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes(a, b)

    def bw(g):
        return _unbroadcast(g, a.shape), -_unbroadcast(g, b.shape)

    return Tensor(a.data - b.data, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes(a, b)

    def bw(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return Tensor(a.data * b.data, (a, b), bw)


def div(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes(a, b)

    def bw(g):
        return (_unbroadcast(g / b.data, a.shape),
                _unbroadcast(-g * a.data / (b.data * b.data), b.shape))

    return Tensor(a.data / b.data, (a, b), bw)


def relu(x: Tensor) -> Tensor:
    out = np.maximum(x.data, 0.0)

    def bw(g):
        return (g * (x.data > 0),)

    return Tensor(out, (x,), bw)


def abs_val(x: Tensor) -> Tensor:
    out = np.abs(x.data)
    sign = np.sign(x.data)  # subgradient 0 at 0

    def bw(g):
        return (g * sign,)

    return Tensor(out, (x,), bw)


def square(x: Tensor) -> Tensor:
    out = x.data * x.data

    def bw(g):
        return (2.0 * g * x.data,)

    return Tensor(out, (x,), bw)


def sum_all(x: Tensor) -> Tensor:
    return apply_linear(x, lambda a: np.array([a.sum()]), lambda g: np.full_like(x.data, g[0]))


def mean_all(x: Tensor) -> Tensor:
    n = x.data.size
    return apply_linear(x, lambda a: np.array([a.mean()]), lambda g: np.full_like(x.data, g[0] / n))


def dot(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ValueError(f"dot shape mismatch {a.shape} vs {b.shape}")
    out = np.array([np.vdot(a.data, b.data)])

    def bw(g):
        s = g.reshape(-1)[0]
        return s * b.data, s * a.data

    return Tensor(out, (a, b), bw)


# ---------------------------------------------------------------------------
# spatial padding / cropping
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=64)
def _reflect_index_map(h, w, pads):
    """Flat source index of every pixel of an (h, w) image reflect-padded
    by ``pads`` = (top, bottom, left, right).  Memoised, so the result is
    read-only.  The edge is not repeated, and any pad width is covered."""
    pt, pb, pl, pr = pads
    rows = np.pad(np.arange(h), (pt, pb), mode="reflect")
    cols = np.pad(np.arange(w), (pl, pr), mode="reflect")
    out = (rows[:, None] * w + cols[None, :]).ravel()
    out.setflags(write=False)
    return out


def _scatter_adjoint(g: np.ndarray, idx_flat: np.ndarray, h: int, w: int) -> np.ndarray:
    """Adjoint of an index-gather pad: accumulate padded grads onto sources."""
    c = g.shape[0]
    bins = (np.arange(c)[:, None] * (h * w) + idx_flat[None, :]).ravel()
    out = np.bincount(bins, weights=g.ravel(), minlength=c * h * w)
    return out.reshape(c, h, w)


def _padding_maps(padding: str, pad, h: int, w: int):
    """``(pad, unpad)``: the map padding the (h, w) axes of a (C, h, w)
    array in ``padding`` mode by ``pad``, an int (the same on all sides) or
    (top, bottom, left, right), and its adjoint.  Zero widths pad nothing;
    "valid" takes no width."""
    if padding not in ("valid", "zero", "reflect"):
        raise ValueError(f"unknown padding mode {padding!r}")
    pt, pb, pl, pr = pads = (pad,) * 4 if isinstance(pad, int) else tuple(pad)
    if min(pads) < 0 or (padding == "valid" and any(pads)):
        raise ValueError(f"invalid pad widths {pads} for {padding!r} padding")
    if not any(pads):
        return (lambda a: a), (lambda g: g)
    if padding == "zero":
        return (lambda a: np.pad(a, ((0, 0), (pt, pb), (pl, pr))),
                lambda g: g[:, pt:pt + h, pl:pl + w])
    idx_flat = _reflect_index_map(h, w, pads)
    hw = (h + pt + pb, w + pl + pr)
    return (lambda a: np.take(a.reshape(a.shape[0], -1), idx_flat, axis=1).reshape((a.shape[0],) + hw),
            lambda g: _scatter_adjoint(g, idx_flat, h, w))


def _chw(x: Tensor, name: str):
    """The (C, H, W) shape of image tensor ``x``; any other layout is refused."""
    if x.data.ndim != 3:
        raise ValueError(f"{name} expects a (C, H, W) image, got shape {x.shape}")
    return x.shape


def pad_reflect(x: Tensor, pad) -> Tensor:
    """Reflect-pad the spatial axes of a (C, H, W) tensor; ``pad`` is an
    int (same on all sides) or (top, bottom, left, right), each >= 0."""
    return apply_linear(x, *_padding_maps("reflect", pad, *_chw(x, "pad_reflect")[1:]))


def pad_zero(x: Tensor, pad) -> Tensor:
    return apply_linear(x, *_padding_maps("zero", pad, *_chw(x, "pad_zero")[1:]))


def crop2d(x: Tensor, top: int, left: int, height: int, width: int) -> Tensor:
    """The ``height`` x ``width`` window at (top, left), which must lie in the image."""
    _, h, w = _chw(x, "crop2d")
    if min(top, left) < 0 or min(height, width) < 1 or top + height > h or left + width > w:
        raise ValueError(f"crop window {(top, left, height, width)} leaves the {h}x{w} image")
    index = np.s_[:, top:top + height, left:left + width]
    return apply_linear(x, lambda a: a[index].copy(), _embed(x.data, index))


def _embed(like: np.ndarray, index):
    """Adjoint of reading ``like[index]``: the gradient put back at
    ``index`` in zeros shaped as ``like``."""
    def embed(g):
        gx = np.zeros_like(like)
        gx[index] = g
        return gx

    return embed


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------


# Bytes one row strip's transients may take: its column patches, halo rows
# included, plus the accumulation temporary of its output.  Larger inputs
# are convolved in output row strips.  glibc maps a block at or above its
# dynamic mmap threshold (at most 32 MB) afresh on every call and faults
# every page in again; at 8 MB the strips of a 128x128 default-config
# forward come from the heap.
_PATCH_BYTES = 8 << 20


def _row_strips(xp: np.ndarray, kh: int, kw: int, stride: int, o: int):
    """Yield ``(positions, patches)`` for each strip of output rows of a
    padded (C, H, W) input convolved with ``o`` output channels: the slice
    of flattened output positions the strip covers, and its column
    patches, a (K, extent, WO) array of input rows, each with its KW
    horizontally shifted (strided) copies.

    When kernel rows overlap (kh > stride) the patches hold every input
    row the strip reads once, K = C*KW, and kernel row ``i`` reads rows i,
    i + stride, ... of them.  Otherwise every input row belongs to at most
    one kernel row, and K = C*KH*KW holds each kernel row's rows.  A
    strip's patches and an (O, rows*WO) temporary take at most
    ``_PATCH_BYTES`` together (one output row at least).  Callers drop
    each strip's patches before asking for the next, so one strip's
    patches are alive at a time."""
    c, hp, wp = xp.shape
    ho = (hp - kh) // stride + 1
    wo = (wp - kw) // stride + 1
    if kh > stride:
        # kernel rows held side by side in K, the input-row step between
        # patch rows, patch rows per output row, extra patch rows per strip
        phases, row_step, per_row, halo = 1, 1, stride, kh - stride
    else:
        phases, row_step, per_row, halo = kh, stride, 1, 0
    k = c * phases * kw
    row_budget = _PATCH_BYTES // (wo * xp.itemsize) - k * halo
    strips = -(-ho // max(1, row_budget // (k * per_row + o)))
    rows = -(-ho // strips)
    sc, sh, sw = xp.strides
    for r0 in range(0, ho, rows):
        r1 = min(r0 + rows, ho)
        extent = (r1 - r0) * per_row + halo
        win = np.lib.stride_tricks.as_strided(
            xp[:, r0 * stride:], (c, phases, kw, extent, wo),
            (sc, sh, sw, sh * row_step, sw * stride), writeable=False)
        yield slice(r0 * wo, r1 * wo), win.reshape(k, extent, wo)


def _row_groups(kh: int, stride: int):
    """``(groups, step)``: the kernel rows that share one product and the
    patch-row step between a group's rows.  Overlapping kernel rows are a
    group each, read every ``stride`` patch rows (at stride 1 a contiguous
    slice, so a view); otherwise one group holds them all."""
    return (kh, stride) if kh > stride else (1, 1)


def _group_patches(patches: np.ndarray, g: int, step: int, rows: int) -> np.ndarray:
    """(K, rows*WO) patch matrix of row group ``g``."""
    k, _, wo = patches.shape
    return patches[:, g:g + (rows - 1) * step + 1:step].reshape(k, rows * wo)


def _conv_forward(xp: np.ndarray, w: np.ndarray, stride: int) -> np.ndarray:
    """Valid cross-correlation of a padded (C, H, W) input with OIKK
    weights: one (O, K) @ (K, rows*WO) product per row group and strip."""
    o, c, kh, kw = w.shape
    ho = (xp.shape[1] - kh) // stride + 1
    wo = (xp.shape[2] - kw) // stride + 1
    groups, step = _row_groups(kh, stride)
    # (groups, O, K), K ordered as the patches: (channel, column) of each
    # kernel row, or (channel, kernel row, column) for a single group
    w_groups = (w.transpose(2, 0, 1, 3) if groups > 1 else w).reshape(groups, o, -1)
    out = np.empty((o, ho * wo))
    for pos, patches in _row_strips(xp, kh, kw, stride, o):
        rows = (pos.stop - pos.start) // wo
        acc = out[:, pos]
        np.matmul(w_groups[0], _group_patches(patches, 0, step, rows), out=acc)
        for g in range(1, groups):
            acc += w_groups[g] @ _group_patches(patches, g, step, rows)
        del patches
    return out.reshape(o, ho, wo)


def _conv_weight_grad(xp: np.ndarray, g: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    """Gradient of ``_conv_forward(xp, w, stride)`` in ``w`` for output
    gradient ``g``, shaped (O, C, KH, KW): one product per row group and
    strip against the column patches the forward reads."""
    o, _, wo = g.shape
    c = xp.shape[0]
    g = g.reshape(o, -1)
    groups, step = _row_groups(kh, stride)
    gw = np.zeros((groups, o, c * kh * kw // groups))
    for pos, patches in _row_strips(xp, kh, kw, stride, o):
        rows = (pos.stop - pos.start) // wo
        for r in range(groups):
            gw[r] += g[:, pos] @ _group_patches(patches, r, step, rows).T
        del patches
    if groups > 1:
        return gw.reshape(kh, o, c, kw).transpose(1, 2, 0, 3)
    return gw.reshape(o, c, kh, kw)


def _conv_transpose(x: np.ndarray, w: np.ndarray, stride: int, out_hw) -> np.ndarray:
    """Adjoint of ``_conv_forward`` in its input: every pixel of ``x``
    spread through the (in, out, kh, kw) taps of ``w`` onto an ``out_hw``
    canvas."""
    c, h, w_ = x.shape
    _, o, kh, kw = w.shape
    oh, ow = out_hw
    if kh == kw == stride:
        # Taps do not overlap: every tap's contribution in one product,
        # (O*KH*KW, C) @ (C, H*W), then depth-to-space.
        taps = (w.reshape(c, -1).T @ x.reshape(c, -1)).reshape(o, kh, kw, h, w_)
        tiles = taps.transpose(0, 3, 1, 4, 2).reshape(o, h * kh, w_ * kw)
        if tiles.shape[1:] == (oh, ow):
            return tiles
        out = np.zeros((o, oh, ow))
        out[:, :h * kh, :w_ * kw] = tiles
        return out
    # Overlapping taps (Dumoulin & Visin, arXiv 1603.07285): insert
    # stride - 1 zeros between pixels, pad by k - 1 and correlate at stride
    # 1 with the flipped, in/out-swapped kernel.
    canvas = np.zeros((c, oh + kh - 1, ow + kw - 1))
    canvas[:, kh - 1:kh - 1 + stride * h:stride, kw - 1:kw - 1 + stride * w_:stride] = x
    return _conv_forward(canvas, w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3), 1)


def conv2d(x: Tensor, weight: Tensor, stride: int = 1, padding: str = "valid", pad: int = 0) -> Tensor:
    """Bias-free 2-D cross-correlation, differentiable in input and weight.

    ``x`` is (C, H, W) and ``weight`` (O, C, KH, KW).  ``padding`` is one
    of "valid", "zero", "reflect"; ``pad`` gives the border width for the
    two padded modes (an int or (top, bottom, left, right)) and must be 0
    for "valid".
    """
    if stride < 1:
        raise ValueError("stride must be >= 1")
    c, h, w_ = _chw(x, "conv2d")
    if weight.data.ndim != 4:
        raise ValueError("conv2d expects an OIKK weight")
    oc, ic, kh, kw = weight.shape
    if ic != c:
        raise ValueError(f"channel mismatch: input has {c}, weight expects {ic}")
    pad_map, unpad = _padding_maps(padding, pad, h, w_)
    xp = pad_map(x.data)
    if kh > xp.shape[1] or kw > xp.shape[2]:
        raise ValueError("kernel larger than (padded) input")
    out = _conv_forward(xp, weight.data, stride)

    def bw(g):
        gw = _conv_weight_grad(xp, g, kh, kw, stride)
        return unpad(_conv_transpose(g, weight.data, stride, xp.shape[1:])), gw

    return Tensor(out, (x, weight), bw)


def conv_transpose2d(x: Tensor, weight: Tensor, stride: int = 2) -> Tensor:
    """Transposed convolution (exact adjoint of a valid strided conv2d).

    ``x`` is (C, H, W) and ``weight`` (C, out_ch, kh, kw); output spatial
    size is ``stride * (n - 1) + k``.
    """
    c, h, w_ = _chw(x, "conv_transpose2d")
    if weight.data.ndim != 4:
        raise ValueError("conv_transpose2d expects an IOKK weight")
    ic, _, kh, kw = weight.shape
    if ic != c:
        raise ValueError(f"channel mismatch: input has {c}, weight expects {ic}")
    wdat = weight.data
    out = _conv_transpose(x.data, wdat, stride, (stride * (h - 1) + kh, stride * (w_ - 1) + kw))

    def bw(g):
        return _conv_forward(g, wdat, stride), _conv_weight_grad(g, x.data, kh, kw, stride)

    return Tensor(out, (x, weight), bw)


def downsample2(x: Tensor, weight: Tensor) -> Tensor:
    """Learned stride-2 downsampling; spatial extents must be even."""
    _, h, w = _chw(x, "downsample2")
    if h % 2 or w % 2:
        raise ValueError("downsample2 requires even spatial extents (pad first)")
    if weight.shape[2] != 2 or weight.shape[3] != 2:
        raise ValueError("downsample2 uses a 2x2 kernel")
    return conv2d(x, weight, stride=2, padding="valid")


def upsample2(x: Tensor, weight: Tensor) -> Tensor:
    """Learned stride-2 transposed-conv upsampling (2x2 kernel)."""
    if weight.shape[2] != 2 or weight.shape[3] != 2:
        raise ValueError("upsample2 uses a 2x2 kernel")
    return conv_transpose2d(x, weight, stride=2)


def concat_channels(inputs) -> Tensor:
    inputs = list(inputs)
    if not inputs:
        raise ValueError("concat_channels needs at least one input")
    if len({_chw(t, "concat_channels")[1:] for t in inputs}) > 1:
        raise ValueError("concat_channels: spatial extents must match")
    out = np.concatenate([t.data for t in inputs], axis=0)
    splits = np.cumsum([t.shape[0] for t in inputs])[:-1]

    def bw(g):
        return tuple(np.split(g, splits, axis=0))

    return Tensor(out, tuple(inputs), bw)


def slice_channels(x: Tensor, start: int, stop: int) -> Tensor:
    """Channels ``start`` to ``stop`` - 1, which must exist."""
    c = _chw(x, "slice_channels")[0]
    if not 0 <= start < stop <= c:
        raise ValueError(f"channel slice [{start}, {stop}) leaves the {c} channels")
    index = np.s_[start:stop]
    return apply_linear(x, lambda a: a[index].copy(), _embed(x.data, index))


def apply_linear(x: Tensor, forward_fn, adjoint_fn) -> Tensor:
    """Insert an arbitrary linear map (numpy -> numpy) into the graph.

    The backward pass applies ``adjoint_fn`` to the output gradient, which
    is exact whenever ``adjoint_fn`` is the true transpose of
    ``forward_fn``.
    """
    out = np.asarray(forward_fn(x.data), dtype=np.float64)

    def bw(g):
        return (np.asarray(adjoint_fn(g), dtype=np.float64),)

    return Tensor(out, (x,), bw)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


class AdamOptimizer:
    """Adam with bias correction; per-parameter moments persist on the
    optimizer."""

    def __init__(self, params, lr=1e-4):
        self.params = list(params)
        names = [p.name for p in self.params]
        if len(set(names)) != len(names):
            raise ValueError("duplicate parameter names")
        self.lr = lr
        self.t = 0
        self._m = {p.name: np.zeros_like(p.data) for p in self.params}
        self._v = {p.name: np.zeros_like(p.data) for p in self.params}

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()

    def step(self):
        self.t += 1
        b1, b2 = 0.9, 0.999
        for p in self.params:
            if p.grad is None:
                raise ValueError(f"missing gradient for parameter {p.name!r}")
            g = p.grad
            m = self._m[p.name]
            v = self._v[p.name]
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            mhat = m / (1 - b1 ** self.t)
            vhat = v / (1 - b2 ** self.t)
            p.data = p.data - self.lr * mhat / (np.sqrt(vhat) + 1e-8)
