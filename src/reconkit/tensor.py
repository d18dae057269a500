"""Minimal dense-tensor engine with reverse-mode automatic differentiation.

Tensors hold float64 numpy arrays with up to 4 axes: images are (C, H, W)
like the operators' arrays, with no batch axis, and convolution weights
4-D.  A tensor holds its value, its gradient and, unless it is a
constant or made from constants only, its node on a dynamic tape: its
parents' nodes, a backward closure and, for a leaf, the tensor whose
gradient it accumulates, never a value.  Each closure captures only what
its backward formula reads (shapes for adds, sums, crops and channel
slices; the operands of a product; a convolution's input and weight;
a relu's own output, since ``out > 0`` equals ``x > 0`` bit for bit), so
a value no backward reads, such as a convolution's output once its relu
has read it, dies with its tensor.  ``backward`` walks the nodes in
reverse topological order from a loss, or from any tensor given the
loss's gradient there, and each leaf adds every gradient it is sent to
its ``grad`` as it arrives.  Gradients of :class:`Parameter` leaves
persist across backward calls until explicitly zeroed, so repeated
backward passes accumulate additively.

A loss can also be built term by term by a loss body (:func:`whole`), a
generator that yields each term with the loss's gradient there.  Under
:meth:`AdamOptimizer.descend` each term is backwarded as it is yielded
and its tape dropped before the next term is built; a value that several
terms read enters them through a :func:`leaf`, and a last term carries
the leaf's gradient through the value's own tape.  Run in the order one
backward of the whole loss reaches them, the terms give its gradients
and its value bit for bit, as every leaf adds its gradients one at a
time in that order, and each loss adds into zeroed buffers.

Inside a :func:`no_grad` block the calling thread builds no tape: every
operation returns a tensor with no node, so the arrays an operation
keeps for its backward are freed when it returns.  Values are computed
exactly as with the tape.

All convolutions are bias-free by construction: there is no bias term
anywhere in this module.  Every convolution, forward, weight gradient
and transposed, follows one rule.  A kernel that tiles its input
(KH = KW = stride: the 2x2 stride-2 resampling and every 1x1 conv) is
one BLAS ``matmul`` for all taps, against the space-to-depth tiles of
the input (a view for 1x1) or, transposed, whose tap planes are written
into the tiles of the output.  Any other kernel overlaps or skips rows and
runs kernel-row strips: the input is lowered along the width only (MEC;
Cho & Brand, ICML 2017), its column patches holding every padded input
row with its KW horizontally shifted copies, so each pixel is copied KW
times, not KH*KW times as in im2col.  The patches are slice copies of
the unpadded input: a border row or column is copied from the one the
padding repeats (zeros for zero padding), so no padded input is made
and a taped convolution keeps none.  Kernel row ``i`` reads rows i,
i + stride, ... of them (at stride 1 a view) and is one ``matmul``
accumulated into the output, in output row strips whose column patches
and accumulation temporary together stay below ``_PATCH_BYTES``.  The
transposed convolution of such a kernel (also the input gradient of a
convolution) is the forward convolution of the (k - 1)-zero-padded
input with the flipped kernel, zero-inserted first at stride > 1.

A weight is OIKK whatever its memory order, and every order gives the
same bits.  The kernel-row product reads the weight as (KH, O, C*KW)
matrices, so a weight stored kernel-row major (:func:`conv_weight`: the
(KH, O, C, KW) array, C-contiguous, seen through an OIKK transpose) is
read where it lies; a C-order weight is copied into that order on every
call.  A tiling kernel reads C order.  Gradients of a kernel-row weight
come back in its order, and numpy's elementwise ops and ``zeros_like``
keep it, so an Adam step keeps it too.

Every single-input linear op (padding, cropping, channel slicing, sum and
mean) is one :func:`apply_linear` node: its backward applies the op's
adjoint; an operator enters as ``apply_linear(x, op.apply, op.adjoint)``.
Each padding mode's map and adjoint are written once, in
``_padding_maps``; ``conv2d`` takes its adjoint from there and stays one
node.  Reflect padding and the patches copy the same row and column
runs (``_axis_runs``), and the reflect adjoint adds them back in padded
raster order.  A window or width that leaves the input raises
``ValueError``; none is clamped.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import threading
import weakref

import numpy as np

__all__ = [
    "Tensor",
    "no_grad",
    "Parameter",
    "constant",
    "add",
    "sub",
    "mul",
    "relu",
    "abs_val",
    "square",
    "sum_all",
    "mean_all",
    "dot",
    "conv2d",
    "conv_weight",
    "conv_transpose2d",
    "downsample2",
    "upsample2",
    "concat_channels",
    "slice_channels",
    "pad_reflect",
    "pad_zero",
    "crop2d",
    "apply_linear",
    "leaf",
    "whole",
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


class _Node:
    """A tensor's entry on the tape: its parents' nodes (None where a
    parent needs no gradient), the backward closure and, for a leaf, a
    weak reference to the tensor whose ``grad`` it accumulates, so a
    dropped parameter is freed at once."""

    __slots__ = ("parents", "backward", "leaf")

    def __init__(self, parents, backward, leaf=None):
        self.parents = parents
        self.backward = backward
        self.leaf = leaf


class Tensor:
    """A value and, when it needs a gradient, its node on the tape."""

    __slots__ = ("data", "grad", "node", "__weakref__")

    def __init__(self, data, parents=(), backward_fn=None, requires_grad=False):
        self.grad = None
        if not parents:
            self.data = _as_array(data)
            self.node = _Node((), None, weakref.ref(self)) if requires_grad else None
            return
        # Internal nodes trust their producers; only validate at the
        # boundary (leaf construction goes through _as_array).
        self.data = data
        nodes = tuple(p.node for p in parents)
        if _TAPE.off or not any(nodes):
            self.node = None
        else:
            self.node = _Node(nodes, backward_fn)

    @property
    def requires_grad(self) -> bool:
        return self.node is not None

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

    def __mul__(self, other):
        return mul(self, _wrap(other))

    __rmul__ = __mul__

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- autodiff --------------------------------------------------------
    def backward(self, grad=None) -> None:
        """Accumulate d(loss)/d(leaf) into every reachable leaf gradient,
        given ``grad`` = d(loss)/d(self), an array of self's shape; by
        default self is the loss and must be scalar.

        Each node is visited exactly once, in reverse topological order of
        the (acyclic) tape, and sums its consumers' gradients in that order.
        A leaf adds each one to its ``grad`` as it arrives, so backwards
        that split a loss into terms, run in the order one backward of the
        loss reaches them, add in that backward's order.
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() requires a scalar loss")
            grad = np.ones_like(self.data)
        elif grad.shape != self.data.shape:
            raise ValueError(f"gradient shape {grad.shape} != tensor shape {self.data.shape}")
        if self.node is None:
            return
        order: list[_Node] = []
        state: dict[int, int] = {}  # id -> 0 visiting / 1 done
        stack: list[tuple[_Node, bool]] = [(self.node, False)]
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
            for p in node.parents:
                if p is not None and state.get(id(p)) != 1:
                    stack.append((p, False))

        grads: dict[int, np.ndarray] = {id(self.node): grad}
        for node in reversed(order):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node.backward is None:  # only the start can be a leaf here
                _accumulate(node, g)
                continue
            for p, pg in zip(node.parents, node.backward(g)):
                if pg is None or p is None:
                    continue
                if p.backward is None:
                    _accumulate(p, pg)
                    continue
                nid = id(p)
                if nid in grads:
                    grads[nid] = grads[nid] + pg
                else:
                    grads[nid] = pg


def _accumulate(node: _Node, g: np.ndarray) -> None:
    """Add ``g`` to the gradient of a leaf's tensor, if it is alive."""
    leaf = node.leaf()
    if leaf is None:
        return
    if leaf.grad is None:
        leaf.grad = np.zeros_like(leaf.data)
    leaf.grad += g


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


def leaf(data: np.ndarray) -> Tensor:
    """A requires-grad leaf holding the array ``data``, unchecked: where a
    tensor's value enters later terms of a loss without its tape, the
    leaf's ``grad`` collects their gradient, for one backward through that
    tape to carry on."""
    out = Tensor.__new__(Tensor)
    out.data, out.grad = data, None
    out.node = _Node((), None, weakref.ref(out))
    return out


def whole(body) -> Tensor:
    """The loss a term-by-term loss body builds, each term on its tape.

    A body is a generator that yields each term of its loss as a pair
    (term, grad), ``grad`` being d(loss)/d(term) as
    :meth:`Tensor.backward` takes it (None for a scalar term the loss
    adds), and returns the loss built from its terms.
    :meth:`AdamOptimizer.descend` runs each term's backward as it is
    yielded and drops its tape, so the body then builds the loss's value
    with no tape, in the same order."""
    try:
        while True:
            next(body)
    except StopIteration as done:
        return done.value


def _streamed(body) -> Tensor:
    """Run a loss body (see :func:`whole`) one term's tape at a time:
    backward each term as it is yielded, then drop its node.  Returns the
    loss, which holds its value only."""
    try:
        while True:
            term, grad = next(body)
            term.backward(grad)
            term.node = None
    except StopIteration as done:
        return done.value


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
    sa, sb = a.shape, b.shape

    def bw(g):
        return _unbroadcast(g, sa), _unbroadcast(g, sb)

    return Tensor(a.data + b.data, (a, b), bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes(a, b)
    sa, sb = a.shape, b.shape

    def bw(g):
        return _unbroadcast(g, sa), -_unbroadcast(g, sb)

    return Tensor(a.data - b.data, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes(a, b)
    ad, bd = a.data, b.data

    def bw(g):
        return _unbroadcast(g * bd, ad.shape), _unbroadcast(g * ad, bd.shape)

    return Tensor(ad * bd, (a, b), bw)


def relu(x: Tensor) -> Tensor:
    out = np.maximum(x.data, 0.0)

    def bw(g):  # out > 0 is x > 0, bit for bit, so the input may die
        return (g * (out > 0),)

    return Tensor(out, (x,), bw)


def abs_val(x: Tensor) -> Tensor:
    out = np.abs(x.data)
    sign = np.sign(x.data)  # subgradient 0 at 0

    def bw(g):
        return (g * sign,)

    return Tensor(out, (x,), bw)


def square(x: Tensor) -> Tensor:
    xd = x.data
    out = xd * xd

    def bw(g):
        return (2.0 * g * xd,)

    return Tensor(out, (x,), bw)


def sum_all(x: Tensor) -> Tensor:
    shape = x.shape
    return apply_linear(x, lambda a: np.array([a.sum()]), lambda g: np.full(shape, g[0]))


def mean_all(x: Tensor) -> Tensor:
    shape, n = x.shape, x.size
    return apply_linear(x, lambda a: np.array([a.mean()]), lambda g: np.full(shape, g[0] / n))


def dot(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ValueError(f"dot shape mismatch {a.shape} vs {b.shape}")
    ad, bd = a.data, b.data
    out = np.array([np.vdot(ad, bd)])

    def bw(g):
        s = g.reshape(-1)[0]
        return s * bd, s * ad

    return Tensor(out, (a, b), bw)


# ---------------------------------------------------------------------------
# spatial padding / cropping
# ---------------------------------------------------------------------------


def _pad_widths(padding: str, pad):
    """(top, bottom, left, right) of ``pad``, an int (the same on all
    sides) or a 4-tuple, checked against ``padding``: zero widths pad
    nothing, and "valid" takes no width."""
    if padding not in ("valid", "zero", "reflect"):
        raise ValueError(f"unknown padding mode {padding!r}")
    pads = (pad,) * 4 if isinstance(pad, int) else tuple(pad)
    if min(pads) < 0 or (padding == "valid" and any(pads)):
        raise ValueError(f"invalid pad widths {pads} for {padding!r} padding")
    return pads


def _axis_runs(padding: str, n: int, first: int, count: int, step: int) -> tuple:
    """``(dst, src)`` slice pairs covering the ``count`` positions first,
    first + step, ... of an axis of length ``n`` padded in ``padding``
    mode (positions below 0 or from ``n`` on lie in the padding): ``dst``
    a run of [0, count), in order, and ``src`` the axis positions its
    values come from, a slice of constant step, or None where the padding
    is zeros.  Positions in [0, n) are one run.  Reflection is periodic in
    2(n - 1), as ``np.pad`` reflects pads wider than the axis; a 1-long
    axis repeats its pixel, one run per position."""
    if padding != "reflect":
        lo = min(count, max(0, -(first // step)))
        hi = min(count, max(lo, (n - 1 - first) // step + 1))
        runs = ((slice(0, lo), None),
                (slice(lo, hi), slice(first + lo * step, first + (hi - 1) * step + 1, step)),
                (slice(hi, count), None))
        return tuple(run for run in runs if run[0].start < run[0].stop)
    if n == 1:
        return tuple((slice(q, q + 1), slice(0, 1)) for q in range(count))
    period = 2 * (n - 1)
    runs = []
    q = 0
    while q < count:
        t = first + q * step
        u = t % period
        if u < n:  # rising to n - 1
            src, last, sign = u, t - u + n - 1, 1
        else:  # falling to 1
            src, last, sign = period - u, t - u + period - 1, -1
        run = min(count - q, (last - t) // step + 1)
        stop = src + sign * step * run
        runs.append((slice(q, q + run), slice(src, stop if stop >= 0 else None, sign * step)))
        q += run
    return tuple(runs)


def _one(run):
    """``run``'s (dst, src) pair, a 1-long run as int indices: its views
    lose that axis, and numpy sets up copies and adds on them faster."""
    dst, src = run
    if dst.stop - dst.start > 1:
        return run
    return dst.start, (None if src is None else src.start)


@functools.lru_cache(maxsize=256)
def _reflect_blocks(h: int, w: int, pads) -> tuple:
    """``(padded, source)`` index pairs of a (C, h, w) image reflect-padded
    by ``pads``, one per row run and column run, in padded raster order."""
    pt, pb, pl, pr = pads
    rows = [_one(run) for run in _axis_runs("reflect", h, -pt, h + pt + pb, 1)]
    cols = [_one(run) for run in _axis_runs("reflect", w, -pl, w + pl + pr, 1)]
    return tuple(((slice(None), rd, cd), (slice(None), rs, cs)) for rd, rs in rows for cd, cs in cols)


def _padding_maps(padding: str, pad, h: int, w: int):
    """``(pad, unpad)``: the map padding the (h, w) axes of a (C, h, w)
    array in ``padding`` mode by ``pad``, an int (the same on all sides) or
    (top, bottom, left, right), and its adjoint.  Zero widths pad nothing;
    "valid" takes no width.  Reflect padding copies, and its adjoint adds,
    one block per pair of row and column runs (``_axis_runs``); the adds
    start from zeros in padded raster order, so every sum, signed zeros
    included, is the one accumulating the padded gradient pixel by pixel."""
    pt, pb, pl, pr = pads = _pad_widths(padding, pad)
    if not any(pads):
        return (lambda a: a), (lambda g: g)
    if padding == "zero":
        return (lambda a: np.pad(a, ((0, 0), (pt, pb), (pl, pr))),
                lambda g: g[:, pt:pt + h, pl:pl + w])
    blocks = _reflect_blocks(h, w, pads)

    def reflect(a):
        out = np.empty((a.shape[0], h + pt + pb, w + pl + pr))
        for padded, source in blocks:
            out[padded] = a[source]
        return out

    def adjoint(g):
        out = np.zeros((g.shape[0], h, w))
        for padded, source in blocks:
            acc = out[source]
            np.add(acc, g[padded], out=acc)
        return out

    return reflect, adjoint


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
    return apply_linear(x, lambda a: a[index].copy(), _embed(x.shape, index))


def _embed(shape, index):
    """Adjoint of reading ``index`` of an array of ``shape``: the gradient
    put back at ``index`` in zeros of that shape."""
    def embed(g):
        gx = np.zeros(shape)
        gx[index] = g
        return gx

    return embed


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------


# Bytes one row strip's transients may take: its column patches, halo rows
# included, plus the accumulation temporary of its output.  Larger inputs
# are convolved in output row strips; a tiling kernel copies its input
# once (1x1: not at all) and runs no strips.  glibc maps a block at or
# above its dynamic mmap threshold (at most 32 MB) afresh on every call
# and faults every page in again; at 8 MB the strips of a 128x128
# default-config forward come from the heap.  Smaller strips would bound
# the working set further but split a 64x64 default-config convolution
# into more, smaller GEMMs (2 MB: ~18% slower), and a weight gradient,
# which sums over the strips, would change in its last bits.
_PATCH_BYTES = 8 << 20


def _row_strips(x: np.ndarray, kh: int, kw: int, stride: int, o: int, padding: str, pads):
    """Yield ``(positions, patches)`` for each strip of output rows of a
    (C, H, W) input, padded in ``padding`` mode by ``pads`` = (top, bottom,
    left, right), convolved with ``o`` output channels: the slice of
    flattened output positions the strip covers, and its column patches,
    a (C*KW, extent, WO) array holding every padded input row the strip
    reads, each with its KW horizontally shifted (strided) copies, built
    by ``_lowering``'s slice copies of ``x``, so no padded input is made.
    Kernel row ``i`` reads patch rows i, i + stride, ...
    (``_kernel_row``).  A strip's patches and an (O, rows*WO) temporary
    take at most ``_PATCH_BYTES`` together (one output row at least).
    Callers drop each strip's patches before asking for the next, so one
    strip's patches are alive at a time."""
    c, h, w = x.shape
    pt, pb, pl, pr = pads
    ho = (h + pt + pb - kh) // stride + 1
    wo = (w + pl + pr - kw) // stride + 1
    k = c * kw
    row_budget = _PATCH_BYTES // (wo * x.itemsize) - k * (kh - stride)
    strips = -(-ho // max(1, row_budget // (k * stride + o)))
    rows = -(-ho // strips)
    for r0, r1, extent, copies in _lowering(h, w, kh, kw, stride, padding, pads, rows):
        yield slice(r0 * wo, r1 * wo), _lower(x, (c, kw, extent, wo), copies).reshape(k, extent, wo)


def _lower(x: np.ndarray, shape, copies) -> np.ndarray:
    """A (C, KW, extent, WO) strip of column patches filled by ``copies``,
    ``(dst, src, own)`` index triples: zeros where ``src`` is None, else
    ``x[src]``, or the patches' own ``src`` rows when ``own``.  No name
    holds the patches once returned, so the caller's del frees them."""
    patches = np.empty(shape)
    for dst, src, own in copies:
        patches[dst] = 0.0 if src is None else (patches if own else x)[src]
    return patches


@functools.lru_cache(maxsize=256)
def _lowering(h: int, w: int, kh: int, kw: int, stride: int, padding: str, pads, rows: int) -> tuple:
    """``(r0, r1, extent, copies)`` for each strip of ``rows`` output rows
    (r0 to r1 - 1) of an (h, w) input padded in ``padding`` mode by
    ``pads`` and convolved at ``stride``: the strip reads ``extent``
    padded rows, and ``copies`` fill its patches (``_lower``).  Source
    rows are copied with each column shift, one copy per column run
    (``_axis_runs``); a border row that repeats a row the strip holds
    copies it, all column shifts at once."""
    pt, pb, pl, pr = pads
    ho = (h + pt + pb - kh) // stride + 1
    wo = (w + pl + pr - kw) // stride + 1
    # column j of the patches reads padded columns j, j + stride, ...
    cols = [[_one(run) for run in _axis_runs(padding, w, j - pl, wo, stride)] for j in range(kw)]

    def lower(copies, run):
        rd, rs = _one(run)
        copies.extend(((slice(None), j, rd, cd), None if cs is None else (slice(None), rs, cs), False)
                      for j in range(kw) for cd, cs in cols[j])

    plan = []
    for r0 in range(0, ho, rows):
        r1 = min(r0 + rows, ho)
        extent = (r1 - r0 - 1) * stride + kh
        first = r0 * stride - pt  # source row of patch row 0
        copies = []
        # patch rows holding source rows straight
        inner = range(max(0, -first), min(extent, h - first))
        if inner:
            lower(copies, (slice(inner.start, inner.stop), slice(inner.start + first, inner.stop + first)))
        for rd, rs in _axis_runs(padding, h, first, extent, 1):
            if rs is None:
                rd, _ = _one((rd, rs))
                copies.append(((slice(None), slice(None), rd), None, False))
                continue
            src = range(h)[rs]
            held = src.start - first
            if held == rd.start:  # the straight rows, lowered above
                continue
            if held in inner and src[-1] - first in inner:
                stop = src.stop - first
                rd, rs = _one((rd, slice(held, stop if stop >= 0 else None, src.step)))
                copies.append(((slice(None), slice(None), rd), (slice(None), slice(None), rs), True))
            else:
                lower(copies, (rd, rs))
        plan.append((r0, r1, extent, tuple(copies)))
    return tuple(plan)


def _kernel_row(patches: np.ndarray, i: int, stride: int, rows: int) -> np.ndarray:
    """(C*KW, rows*WO) patch matrix of kernel row ``i``: a view at stride 1."""
    return patches[:, i:i + (rows - 1) * stride + 1:stride].reshape(patches.shape[0], -1)


def _tiles(x: np.ndarray, s: int) -> np.ndarray:
    """(C*s*s, HO*WO) space-to-depth matrix of a (C, H, W) input cut into
    s x s tiles (trailing rows and columns that fill no tile dropped), K
    ordered (channel, row, column) like ``w.reshape(O, -1)`` of an OIKK
    weight; a view when s = 1 and ``x`` is contiguous."""
    c, h, w = x.shape
    ho, wo = h // s, w // s
    tiles = x[:, :ho * s, :wo * s].reshape(c, ho, s, wo, s)
    return tiles.transpose(0, 2, 4, 1, 3).reshape(c * s * s, ho * wo)


def _conv_forward(x: np.ndarray, w: np.ndarray, stride: int,
                  padding: str = "valid", pads=(0, 0, 0, 0)) -> np.ndarray:
    """Cross-correlation of a (C, H, W) input, padded in ``padding`` mode
    by ``pads`` = (top, bottom, left, right), with OIKK weights.  Tiling
    kernels (KH = KW = stride) are one (O, C*KH*KW) product with the tiles
    of the padded input; any other kernel is one (O, C*KW) product per
    kernel row and row strip, accumulated."""
    o, c, kh, kw = w.shape
    pt, pb, pl, pr = pads
    ho = (x.shape[1] + pt + pb - kh) // stride + 1
    wo = (x.shape[2] + pl + pr - kw) // stride + 1
    if kh == kw == stride:
        xp = _padding_maps(padding, pads, *x.shape[1:])[0](x)
        return (w.reshape(o, -1) @ _tiles(xp, stride)).reshape(o, ho, wo)
    # (KH, O, C*KW), K ordered (channel, column) as the patches: a view
    # of a conv_weight layout, a copy of any other
    w_rows = w.transpose(2, 0, 1, 3).reshape(kh, o, -1)
    out = np.empty((o, ho * wo))
    for pos, patches in _row_strips(x, kh, kw, stride, o, padding, pads):
        rows = (pos.stop - pos.start) // wo
        acc = out[:, pos]
        np.matmul(w_rows[0], _kernel_row(patches, 0, stride, rows), out=acc)
        for i in range(1, kh):
            acc += w_rows[i] @ _kernel_row(patches, i, stride, rows)
        del patches
    return out.reshape(o, ho, wo)


def _conv_weight_grad(x: np.ndarray, g: np.ndarray, kh: int, kw: int, stride: int,
                      padding: str = "valid", pads=(0, 0, 0, 0)) -> np.ndarray:
    """Gradient of ``_conv_forward(x, w, stride, padding, pads)`` in ``w``
    for output gradient ``g``, shaped (O, C, KH, KW): the forward's
    products against the same tiles or kernel-row patches."""
    o, _, wo = g.shape
    c = x.shape[0]
    g = g.reshape(o, -1)
    if kh == kw == stride:
        xp = _padding_maps(padding, pads, *x.shape[1:])[0](x)
        return (g @ _tiles(xp, stride).T).reshape(o, c, kh, kw)
    gw = np.zeros((kh, o, c * kw))
    for pos, patches in _row_strips(x, kh, kw, stride, o, padding, pads):
        rows = (pos.stop - pos.start) // wo
        for i in range(kh):
            gw[i] += g[:, pos] @ _kernel_row(patches, i, stride, rows).T
        del patches
    return gw.reshape(kh, o, c, kw).transpose(1, 2, 0, 3)


def _conv_transpose(x: np.ndarray, w: np.ndarray, stride: int, out_hw) -> np.ndarray:
    """Adjoint of ``_conv_forward`` in its (padded) input: every pixel of
    ``x`` spread through the (in, out, kh, kw) taps of ``w`` onto an
    ``out_hw`` canvas."""
    c, h, w_ = x.shape
    _, o, kh, kw = w.shape
    oh, ow = out_hw
    if kh == kw == stride:
        # Taps do not overlap: every tap's contribution in one product,
        # (O*KH*KW, C) @ (C, H*W), whose KH*KW planes are written through
        # a tile view of a zeroed output (1x1: the product is the output).
        taps = (w.reshape(c, -1).T @ x.reshape(c, -1)).reshape(o, kh, kw, h, w_)
        if kh == 1 and (h, w_) == (oh, ow):
            return taps.reshape(o, oh, ow)
        out = np.zeros((o, oh, ow))
        tiles = out[:, :h * kh, :w_ * kw].reshape(o, h, kh, w_, kw)
        for i, j in np.ndindex(kh, kw):
            tiles[:, :, i, :, j] = taps[:, i, j]
        return out
    # Any other kernel (Dumoulin & Visin, arXiv 1603.07285): insert
    # stride - 1 zeros between pixels, pad by k - 1 and correlate at stride
    # 1 with the flipped, in/out-swapped kernel.  At stride 1 nothing is
    # inserted, and the patches take the zero padding themselves.
    flipped = w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
    if stride == 1:
        return _conv_forward(x, flipped, 1, "zero", (kh - 1, oh - h, kw - 1, ow - w_))
    canvas = np.zeros((c, oh + kh - 1, ow + kw - 1))
    canvas[:, kh - 1:kh - 1 + stride * h:stride, kw - 1:kw - 1 + stride * w_:stride] = x
    return _conv_forward(canvas, flipped, 1)


def conv_weight(data, stride: int = 1) -> np.ndarray:
    """The OIKK float64 array ``data``, same shape and values, in the
    memory order ``conv2d`` reads at ``stride``: C order for a kernel that
    tiles (KH = KW = stride), else kernel-row major, a C-contiguous
    (KH, O, C, KW) array transposed back to OIKK."""
    w = np.asarray(data, dtype=np.float64)
    if w.ndim != 4:
        raise ValueError(f"conv_weight expects an OIKK weight, got shape {w.shape}")
    if w.shape[2] == w.shape[3] == stride:
        return np.ascontiguousarray(w)
    return np.ascontiguousarray(w.transpose(2, 0, 1, 3)).transpose(1, 2, 0, 3)


def conv2d(x: Tensor, weight: Tensor, stride: int = 1, padding: str = "valid", pad: int = 0) -> Tensor:
    """Bias-free 2-D cross-correlation, differentiable in input and weight.

    ``x`` is (C, H, W) and ``weight`` (O, C, KH, KW).  ``padding`` is one
    of "valid", "zero", "reflect"; ``pad`` gives the border width for the
    two padded modes (an int or (top, bottom, left, right)) and must be 0
    for "valid".  Any memory order of ``weight`` gives the same bits; one
    laid out by ``conv_weight(w, stride)`` is read without a copy, and its
    gradient comes back in that order.
    """
    if stride < 1:
        raise ValueError("stride must be >= 1")
    c, h, w_ = _chw(x, "conv2d")
    if weight.data.ndim != 4:
        raise ValueError("conv2d expects an OIKK weight")
    oc, ic, kh, kw = weight.shape
    if ic != c:
        raise ValueError(f"channel mismatch: input has {c}, weight expects {ic}")
    pads = _pad_widths(padding, pad)
    hp, wp = h + pads[0] + pads[1], w_ + pads[2] + pads[3]
    if kh > hp or kw > wp:
        raise ValueError("kernel larger than (padded) input")
    xd, wd = x.data, weight.data
    out = _conv_forward(xd, wd, stride, padding, pads)

    def bw(g):
        gw = _conv_weight_grad(xd, g, kh, kw, stride, padding, pads)
        unpad = _padding_maps(padding, pads, h, w_)[1]
        return unpad(_conv_transpose(g, wd, stride, (hp, wp))), gw

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
    xd, wd = x.data, weight.data
    out = _conv_transpose(xd, wd, stride, (stride * (h - 1) + kh, stride * (w_ - 1) + kw))

    def bw(g):
        return _conv_forward(g, wd, stride), _conv_weight_grad(g, xd, kh, kw, stride)

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
    ends = list(itertools.accumulate(t.shape[0] for t in inputs))
    channels = [slice(end - t.shape[0], end) for t, end in zip(inputs, ends)]

    def bw(g):
        return tuple(g[index] for index in channels)

    return Tensor(out, tuple(inputs), bw)


def slice_channels(x: Tensor, start: int, stop: int) -> Tensor:
    """Channels ``start`` to ``stop`` - 1, which must exist."""
    c = _chw(x, "slice_channels")[0]
    if not 0 <= start < stop <= c:
        raise ValueError(f"channel slice [{start}, {stop}) leaves the {c} channels")
    index = np.s_[start:stop]
    return apply_linear(x, lambda a: a[index].copy(), _embed(x.shape, index))


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
    optimizer, in lists parallel to ``params``."""

    def __init__(self, params, lr=1e-4):
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def descend(self, losses, what: str) -> float:
        """Zero the gradients, run each loss's backward as ``losses`` builds
        it, refuse a non-finite total before any update, then ``step``.
        Returns the total loss.

        A loss is a scalar tensor or a loss body (see :func:`whole`), whose
        terms are backwarded one at a time as it yields them.  Each loss's
        gradients sum in zeroed buffers, added to the parameters'
        gradients once, so every sum keeps the order of one backward of
        that loss."""
        for p in self.params:
            p.zero_grad()
        total, sums = 0.0, None
        for loss in losses:
            if sums is not None:  # a later loss's buffers
                for p in self.params:
                    p.zero_grad()
            if isinstance(loss, Tensor):
                loss.backward()
            else:
                loss = _streamed(loss)
            total += loss.item()
            del loss  # its tape dies before the next loss is built
            if sums is None:
                sums = [p.grad for p in self.params]
            else:
                for s, p in zip(sums, self.params):
                    s += p.grad
        for p, s in zip(self.params, sums or ()):
            p.grad = s
        if not np.isfinite(total):
            raise RuntimeError(f"{what} diverged at step {self.t}: loss {total}")
        self.step()
        return total

    def step(self):
        self.t += 1
        b1, b2 = 0.9, 0.999
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                raise ValueError(f"missing gradient for parameter {p.name!r}")
            g = p.grad
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            mhat = m / (1 - b1 ** self.t)
            vhat = v / (1 - b2 ** self.t)
            p.data = p.data - self.lr * mhat / (np.sqrt(vhat) + 1e-8)
