"""Linear forward-operator algebra for imaging inverse problems.

Every operator is an :class:`OperatorHandle` bundling a forward map, its
exact adjoint (the transpose of the same discretization, never an
independent one), domain/range shapes and its spectral norm.  Images are
numpy arrays of shape (C, H, W); complex images use 2 channels (real,
imaginary).

Operator identity.  A handle built by one of the factories in
:data:`KINDS` carries a content ``key``: its kind, domain and range
shapes, its scalar spec fields and a digest of its defining arrays, so two
handles built from equal definitions share a key, and a handle's own
definition rebuilds it, bit for bit, with its key.  Handles derived from
others (``compose``, ``normalize``, crops, coarse operators) have
``key = None``: they are not what their base defines.

Checks.  Only the public ``apply`` and ``adjoint`` check an input's shape
and cast it to float64 (``normal`` checks once, through ``apply``).  A raw
map (``_apply``/``_adjoint``) returns float64 of its declared shape, so a
derived handle runs its parts' raw maps directly.

Norms.  ``OperatorHandle.norm`` returns the spectral norm in closed form
where one exists: 1 for the identity and demosaicing; the largest mask
value for inpainting and single-coil MRI, and 1 for compressed sensing
that keeps any coefficient (0 for empty selections); ``||M_h|| * ||M_w||``
for a separable map ``X -> M_h X M_w^T`` per channel (downsampling and
the upsampler, both :func:`_separable` handles of their two per-axis
matrices, crops, blur with a rank-1 kernel and compositions of these,
such as downsampling after upsampling); the largest of W small Hermitian
eigenproblems for multi-coil MRI with a row mask.  Single-coil MRI with
a row mask is separable too, with complex factors ``(diag(m_h) F_h, F_w)``
acting on the (real, imag) pair as one complex image, so its coarse
operators, crops included, are closed-form as well.  Any other operator
runs Lanczos on ``A^T A`` (full reorthogonalisation, done twice; a
seeded start vector).  It stops when the top Ritz pair's residual ``r``
falls below a relative tolerance, ``r <= tol * theta_1``, or when the
gap-aware error bound ``r^2 / (theta_1 - theta_2)`` (Parlett, *The
Symmetric Eigenvalue Problem*) falls below ``1e-13 * theta_1``.  The
tridiagonal eigenproblem is solved on a geometric schedule: at step 8,
then at ``max(k + 4, 1.25 k)``, at the step cap and on breakdown.

Caches.  Norms of keyed handles live in a bounded process-wide LRU cache
keyed by ``key``, and ``make_coarse`` keeps coarse operators in another,
keyed by ``(key, scale, fine_shape)``; both are guarded by one lock, so
redrawing the same blur kernel, identity or downsampler costs no normal
applies.  Derived handles cache nothing across objects.  CT handles of
one angle count and image size share one CSR matrix, three arrays that
scipy's compiled kernels read as CSR for the adjoint and as CSC for the
forward, through a weak-value map, so it lives exactly as long as some
handle, or a coarse operator cached from one, uses it.
:func:`cache_stats` reports hits, misses and sizes of both caches and
the Lanczos runs and the normal applies they have made.
"""

from __future__ import annotations

import functools
import hashlib
import importlib.machinery
import importlib.util
import os
import sys
import threading
import weakref
from collections import OrderedDict
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "OperatorHandle",
    "BlurKernel",
    "OperatorKind",
    "KINDS",
    "identity_operator",
    "compose",
    "operator_norm",
    "normalize",
    "cache_stats",
    "dft2",
    "idft2",
    "make_blur",
    "make_gaussian_kernel",
    "make_motion_kernel",
    "make_inpainting",
    "make_bernoulli_mask",
    "make_mri",
    "make_mri_mask",
    "make_multicoil_mri",
    "make_sensitivity_maps",
    "make_ct_radon",
    "make_downsampling",
    "make_compressed_sensing",
    "make_demosaic",
    "make_upsampler",
    "make_coarse",
    "dense_matrix",
]


class OperatorHandle:
    """A linear map with paired forward/adjoint application.

    ``exact_norm``, when the builder knows the spectral norm in closed
    form, is a zero-argument function computing it.  ``factors``, when the
    map is separable, ``X -> M_h X M_w^T`` on each channel, is a
    zero-argument function returning ``(M_h, M_w)``; it builds them on
    demand, so a handle keeps no dense matrix alive that only its norm
    needs.  Complex factors act on the (real, imag) channel pair as one
    complex image; real factors act on every channel alike, which is the
    same map on a complex image.  ``key`` is set only by the factories in
    :data:`KINDS`.
    """

    def __init__(self, domain_shape, range_shape, apply_fn, adjoint_fn,
                 kind="generic", spec=None, arrays=None, exact_norm=None, factors=None):
        self.domain_shape = tuple(domain_shape)
        self.range_shape = tuple(range_shape)
        self._apply = apply_fn
        self._adjoint = adjoint_fn
        self.kind = kind
        self.spec = dict(spec) if spec else {"kind": kind}
        self.arrays = dict(arrays) if arrays else {}
        self.exact_norm = exact_norm
        self.factors = factors
        self.key = None
        self.norm_estimate = None

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != self.domain_shape:
            raise ValueError(f"domain shape mismatch: {x.shape} != {self.domain_shape}")
        return np.asarray(self._apply(x), dtype=np.float64)

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=np.float64)
        if y.shape != self.range_shape:
            raise ValueError(f"range shape mismatch: {y.shape} != {self.range_shape}")
        return np.asarray(self._adjoint(y), dtype=np.float64)

    def normal(self, x: np.ndarray) -> np.ndarray:
        """A^T A x."""
        return self._adjoint(self.apply(x))

    def norm(self) -> float:
        """Spectral norm, computed once per handle and, for a keyed handle,
        once per definition."""
        if self.norm_estimate is None and self.key is not None:
            self.norm_estimate = _NORMS.get(self.key)
        if self.norm_estimate is None:
            # computed outside the lock: threads that miss together compute
            # the same deterministic value
            self.norm_estimate = operator_norm(self, iters=_NORM_STEPS, tol=_NORM_TOL)
            if self.key is not None:
                _NORMS.put(self.key, self.norm_estimate)
        return self.norm_estimate

    def __repr__(self):
        return f"OperatorHandle({self.kind}, {self.domain_shape} -> {self.range_shape})"


class BlurKernel:
    """Odd-sized nonnegative 2-D kernel summing to one, kept as given if it does up to rounding."""

    def __init__(self, array: np.ndarray):
        arr = np.array(array, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("blur kernel must be square")
        if arr.shape[0] % 2 == 0:
            raise ValueError("blur kernel side length must be odd")
        if np.any(arr < 0):
            raise ValueError("blur kernel must be nonnegative")
        s = arr.sum()
        if s <= 0:
            raise ValueError("blur kernel must have positive mass")
        self.array = arr if abs(s - 1) <= arr.shape[0] * np.finfo(float).eps else arr / s

    @property
    def size(self) -> int:
        return self.array.shape[0]


# ---------------------------------------------------------------------------
# operator registry and content keys
# ---------------------------------------------------------------------------


class OperatorKind(NamedTuple):
    """How one factory-built kind is defined: its scalar spec fields, each
    with a default of its JSON type, and its defining arrays (serialized,
    and read by the content key), a builder ``(domain_shape, spec, arrays)
    -> OperatorHandle``, and ``range_shape`` with the same arguments, the
    builder's range computed without building anything (a ValueError for
    a spec it cannot take)."""

    spec_fields: dict
    array_names: tuple
    build: Callable
    range_shape: Callable


def _owned(a) -> np.ndarray:
    """A read-only float64 copy: the arrays behind a content key must not
    change after the key is taken."""
    out = np.array(a, dtype=np.float64)
    out.setflags(write=False)
    return out


def _keyed(op: OperatorHandle) -> OperatorHandle:
    """Give a factory-built handle its content key."""
    kind = KINDS[op.kind]
    digest = hashlib.blake2b(digest_size=16)
    for name in kind.array_names:
        arr = op.arrays[name]  # contiguous float64, from _owned
        digest.update(f"{name}{arr.shape}".encode())
        digest.update(arr.data)
    op.key = (op.kind, op.domain_shape, op.range_shape,
              tuple(op.spec[f] for f in kind.spec_fields), digest.hexdigest())
    return op


# ---------------------------------------------------------------------------
# process-wide caches
# ---------------------------------------------------------------------------


_LOCK = threading.Lock()


class _LRUCache:
    """Bounded least-recently-used map; every access holds ``_LOCK``."""

    def __init__(self, size: int):
        self.size = size
        self._data = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key):
        with _LOCK:
            value = self._data.get(key)
            if value is None:
                self.misses += 1
            else:
                self.hits += 1
                self._data.move_to_end(key)
            return value

    def put(self, key, value):
        """Store ``value`` unless another thread stored one first; return
        the stored value, so every caller shares one object."""
        with _LOCK:
            value = self._data.setdefault(key, value)
            self._data.move_to_end(key)
            while len(self._data) > self.size:
                self._data.popitem(last=False)
            return value

    def stats(self) -> dict:
        return {"hits": self.hits, "misses": self.misses, "size": len(self._data)}


# a norm entry is a float; a coarse entry holds its base operator's arrays
_NORMS = _LRUCache(1024)
_COARSE = _LRUCache(128)
_lanczos_runs = 0
_lanczos_applies = 0


def cache_stats() -> dict:
    """Hits, misses and entries of the norm and coarse-operator caches,
    and the Lanczos runs and the normal applies they made, since the
    process started."""
    with _LOCK:
        return {"norm": _NORMS.stats(), "coarse": _COARSE.stats(),
                "lanczos_runs": _lanczos_runs, "lanczos_applies": _lanczos_applies}


# ---------------------------------------------------------------------------
# algebra
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=64)
def _eye(n: int) -> np.ndarray:
    out = np.eye(n)
    out.setflags(write=False)
    return out


def identity_operator(shape) -> OperatorHandle:
    _, h, w = shape
    return _keyed(OperatorHandle(shape, shape, lambda x: x, lambda y: y, kind="identity",
                                 exact_norm=lambda: 1.0, factors=lambda: (_eye(h), _eye(w))))


def _separable(domain_shape, range_shape, m_h, m_w, **kw) -> OperatorHandle:
    """``X -> M_h X M_w^T`` on every channel, its adjoint ``Y -> M_h^T Y
    M_w`` and ``factors`` ``(M_h, M_w)``, which its closed-form norm and
    every composite's read; ``kw`` (kind, spec) goes to the handle."""
    return OperatorHandle(domain_shape, range_shape,
                          lambda x: m_h @ x @ m_w.T, lambda y: m_h.T @ y @ m_w,
                          factors=lambda: (m_h, m_w), **kw)


def compose(a: OperatorHandle, b: OperatorHandle) -> OperatorHandle:
    """a after b (x -> a(b(x)))."""
    if b.range_shape != a.domain_shape:
        raise ValueError(f"compose shape mismatch: {b.range_shape} vs {a.domain_shape}")
    factors = None
    if a.factors is not None and b.factors is not None:
        def factors():
            return tuple(p @ q for p, q in zip(a.factors(), b.factors()))
    return OperatorHandle(
        b.domain_shape, a.range_shape,
        lambda x: a._apply(b._apply(x)),
        lambda y: b._adjoint(a._adjoint(y)),
        kind=f"{a.kind}*{b.kind}", factors=factors,
    )


# Lanczos settings behind ``OperatorHandle.norm``: a relative residual of
# 1e-10 bounds the eigenvalue error by residual^2 / gap, far below the
# 1e-12 unit-norm target unless the top two eigenvalues of A^T A nearly
# coincide; the step cap ends such clusters.
_NORM_STEPS = 300
_NORM_TOL = 1e-10
# every Lanczos run also stops once residual^2 / (theta_1 - theta_2), the
# gap-aware bound on the top Ritz value's error, is this small relative to
# it: the Ritz value converges well before its residual does
_GAP_TOL = 1e-13


def operator_norm(op: OperatorHandle, iters: int = 100, tol: float = 1e-6, seed: int = 0) -> float:
    """Spectral norm: the closed form when the handle has one, otherwise
    Lanczos on A^T A from a start vector drawn with ``seed``, stopped once
    the top Ritz pair's residual is at most ``tol`` times its Ritz value,
    or after ``iters`` steps.  Computed afresh on every call."""
    if op.exact_norm is not None:
        return float(op.exact_norm())
    if op.factors is not None:
        m_h, m_w = op.factors()
        return float(np.linalg.norm(m_h, 2) * np.linalg.norm(m_w, 2))
    return _lanczos_norm(op, iters, tol, seed)


def _lanczos_norm(op: OperatorHandle, iters: int, tol: float, seed: int) -> float:
    global _lanczos_runs, _lanczos_applies
    q = np.random.default_rng(seed).standard_normal(op.domain_shape).ravel()
    q /= np.linalg.norm(q)
    steps = max(1, min(iters, q.size))
    basis = np.empty((steps, q.size))
    alpha = np.empty(steps)
    beta = np.empty(steps)
    theta = 0.0
    solve_at = 8
    for k in range(steps):
        basis[k] = q
        w = op.normal(q.reshape(op.domain_shape)).ravel()
        alpha[k] = q @ w
        # full reorthogonalisation against the whole basis, twice: one
        # pass leaves rounding-level components that let clustered top
        # eigenvalues reappear as spurious copies
        v = basis[:k + 1]
        for _ in range(2):
            w -= v.T @ (v @ w)
        beta[k] = np.linalg.norm(w)
        # the tridiagonal eigenproblem costs O(k^3): solve it on a
        # geometric schedule, so a long run spends little on it and a
        # run overshoots its stop by at most max(4, k / 4) steps
        if k + 1 == solve_at or k == steps - 1 or beta[k] == 0:
            solve_at = max(k + 5, int(1.25 * (k + 1)))
            t = np.diag(alpha[:k + 1]) + np.diag(beta[:k], 1) + np.diag(beta[:k], -1)
            evals, evecs = np.linalg.eigh(t)
            theta = evals[-1]
            res = beta[k] * abs(evecs[-1, -1])
            gap = theta - evals[-2] if k else 0.0
            if res <= tol * theta or res * res <= _GAP_TOL * theta * gap:
                break
        q = w / beta[k]
    with _LOCK:
        _lanczos_runs += 1
        _lanczos_applies += k + 1
    return float(np.sqrt(max(theta, 0.0)))


def normalize(op: OperatorHandle) -> OperatorHandle:
    """Rescale an operator to unit spectral norm.  The result keeps ``op``'s
    kind but no key, spec or arrays: it is neither cached nor serialized."""
    c = op.norm()
    if c == 0:
        raise ValueError("cannot normalize the zero operator")
    s = 1.0 / c
    out = OperatorHandle(op.domain_shape, op.range_shape,
                         lambda x: s * op._apply(x), lambda y: s * op._adjoint(y), kind=op.kind)
    out.norm_estimate = 1.0
    return out


# ---------------------------------------------------------------------------
# complex helpers and Fourier transforms
# ---------------------------------------------------------------------------


def _to_complex(x: np.ndarray) -> np.ndarray:
    return x[0] + 1j * x[1]


def _from_complex(z: np.ndarray) -> np.ndarray:
    return np.stack([z.real, z.imag])


def dft2(x: np.ndarray) -> np.ndarray:
    """Orthonormal 2-D DFT of a 2-channel (real, imag) image."""
    return _from_complex(np.fft.fft2(_to_complex(x), norm="ortho"))


def idft2(x: np.ndarray) -> np.ndarray:
    return _from_complex(np.fft.ifft2(_to_complex(x), norm="ortho"))


# ---------------------------------------------------------------------------
# blur
# ---------------------------------------------------------------------------


def make_gaussian_kernel(sigma_blur: float, size: int = 31) -> BlurKernel:
    """Sampled isotropic Gaussian, normalized to unit mass."""
    if sigma_blur <= 0:
        raise ValueError("sigma_blur must be positive")
    r = np.arange(size) - size // 2
    g = np.exp(-0.5 * (r / sigma_blur) ** 2)
    k = np.outer(g, g)
    return BlurKernel(k)


@functools.lru_cache(maxsize=16)
def _gp_factor(length_scale: float, amplitude: float, num_points: int) -> np.ndarray:
    """Cholesky factor of the RBF covariance of ``num_points`` trajectory
    samples on [0, 1], with 1e-10 added to the diagonal.  Memoised, so
    the result is read-only."""
    t = np.linspace(0.0, 1.0, num_points)
    d2 = (t[:, None] - t[None, :]) ** 2
    cov = amplitude ** 2 * np.exp(-0.5 * d2 / max(length_scale, 1e-6) ** 2)
    cov[np.diag_indices_from(cov)] += 1e-10
    chol = np.linalg.cholesky(cov)
    chol.setflags(write=False)
    return chol


def make_motion_kernel(length_scale: float, amplitude: float, size: int = 31,
                       seed: int = 0) -> BlurKernel:
    """Random motion kernel: a smooth Gaussian-process trajectory of 1000
    points (RBF covariance, length scale ``length_scale``, amplitude
    ``amplitude``) rasterized with bilinear splatting, which needs at
    least 3 pixels a side."""
    if size < 3:
        raise ValueError("motion kernel size must be at least 3")
    rng = np.random.default_rng(seed)
    if amplitude <= 0:
        traj = np.zeros((1000, 2))
    else:
        traj = _gp_factor(length_scale, amplitude, 1000) @ rng.standard_normal((1000, 2))
    # center the trajectory and map GP units to pixels
    traj = traj - traj.mean(axis=0)
    uv = np.clip(size // 2 + traj * (size // 2), 0, size - 1 - 1e-9)
    ij = uv.astype(int)
    (fu, fv), (i0, j0) = (uv - ij).T, ij.T
    # point-major, then the four corners: np.add.at adds in index order, so
    # every pixel sums its contributions in the order of the trajectory
    rows = np.stack([i0, i0 + 1, i0, i0 + 1], axis=1).ravel()
    cols = np.stack([j0, j0, j0 + 1, j0 + 1], axis=1).ravel()
    wts = np.stack([(1 - fu) * (1 - fv), fu * (1 - fv), (1 - fu) * fv, fu * fv], axis=1)
    k = np.zeros((size, size))
    np.add.at(k, (rows, cols), wts.ravel())
    return BlurKernel(k)


def _band_matrices(vecs: np.ndarray, n: int) -> np.ndarray:
    """(R, n - ks + 1, n) stack of 1-D valid-correlation matrices: row a of
    slice r holds ``vecs[r]`` at columns a .. a + ks - 1."""
    r, ks = vecs.shape
    nout = n - ks + 1
    out = np.zeros((r, nout, n))
    s0, s1, s2 = out.strides
    # the band is a (nout, ks) view stepping one row and one column per row
    np.lib.stride_tricks.as_strided(out, (r, nout, ks), (s0, s1 + s2, s2))[:] = vecs[:, None]
    return out


def _valid_range(image_shape, ks: int) -> tuple:
    """(C, H - ks + 1, W - ks + 1): the valid part of a ks x ks correlation."""
    c, h, w = image_shape
    return c, h - ks + 1, w - ks + 1


def make_blur(kernel: BlurKernel, image_shape) -> OperatorHandle:
    """Per-channel valid cross-correlation with the kernel (no padding).

    With the kernel's SVD k = sum_r s_r u_r v_r^T, truncated to its
    numerical rank R, the blur of each channel X is sum_r B_r X C_r^T and
    its adjoint sum_r B_r^T Y C_r, where B_r (rows, holding s_r u_r) and
    C_r (columns, holding v_r) are 1-D valid-correlation matrices.  A
    rank-1 kernel (every Gaussian) is separable and carries
    ``factors = (B_0, C_0)``, so its norm is closed-form."""
    c, h, w = image_shape
    k = _owned(kernel.array)
    ks = k.shape[0]
    if ks >= h or ks >= w:
        raise ValueError("kernel must be smaller than the image")
    _, hout, wout = range_shape = _valid_range(image_shape, ks)
    u, sv, vt = np.linalg.svd(k)
    rank = int(np.sum(sv > ks * np.finfo(float).eps * sv[0]))
    bh = _band_matrices((u[:, :rank] * sv[:rank]).T, h)  # (R, HO, H)
    cw = _band_matrices(vt[:rank], w)  # (R, WO, W)
    # the sum over r folds into the second product: (HO, R*H) and (H, R*HO)
    b_wide = np.ascontiguousarray(bh.transpose(1, 0, 2).reshape(hout, rank * h))
    b_tall_t = np.ascontiguousarray(bh.reshape(rank * hout, h).T)
    cw_t = np.ascontiguousarray(cw.transpose(0, 2, 1))

    def apply_fn(x):
        t = x[:, None] @ cw_t  # (C, R, H, WO)
        return b_wide @ t.reshape(c, rank * h, wout)

    def adjoint_fn(y):
        t = y[:, None] @ cw  # (C, R, HO, W)
        return b_tall_t @ t.reshape(c, rank * hout, w)

    return _keyed(OperatorHandle(
        image_shape, range_shape, apply_fn, adjoint_fn,
        kind="blur", arrays={"kernel": k},
        factors=(lambda: (b_tall_t.T, cw[0])) if rank == 1 else None,
    ))


# ---------------------------------------------------------------------------
# inpainting / demosaicing
# ---------------------------------------------------------------------------


def make_bernoulli_mask(shape, p: float, seed: int = 0) -> np.ndarray:
    """Binary keep-mask with keep probability p, one per pixel, shared
    across channels."""
    rng = np.random.default_rng(seed)
    c, h, w = shape
    m = (rng.random((h, w)) < p).astype(np.float64)
    return np.broadcast_to(m, (c, h, w)).copy()


def make_inpainting(mask: np.ndarray) -> OperatorHandle:
    mask = _owned(mask)
    if not np.all((mask == 0) | (mask == 1)):
        raise ValueError("inpainting mask must be binary")
    shape = mask.shape
    return _keyed(OperatorHandle(
        shape, shape,
        lambda x: mask * x, lambda y: mask * y,
        kind="inpainting", arrays={"mask": mask}, exact_norm=lambda: float(mask.any()),
    ))


def _mosaic_range(image_shape) -> tuple:
    """(1, H, W): one colour sample per pixel."""
    return (1,) + tuple(image_shape[1:])


def make_demosaic(image_shape) -> OperatorHandle:
    """RGGB Bayer selection: one color channel kept per pixel."""
    c, h, w = image_shape
    if c != 3:
        raise ValueError("demosaicing expects a 3-channel image")
    if h % 2 or w % 2:
        raise ValueError("demosaicing expects even spatial extents")
    sel = np.zeros((3, h, w))
    sel[0, 0::2, 0::2] = 1  # R
    sel[1, 0::2, 1::2] = 1  # G
    sel[1, 1::2, 0::2] = 1  # G
    sel[2, 1::2, 1::2] = 1  # B
    sel.setflags(write=False)

    def apply_fn(x):
        return (sel * x).sum(axis=0, keepdims=True)

    def adjoint_fn(y):
        return sel * y

    # each pixel keeps exactly one channel, so A A^T = I
    return _keyed(OperatorHandle(
        image_shape, _mosaic_range(image_shape), apply_fn, adjoint_fn,
        kind="demosaic", arrays={"selector": sel}, exact_norm=lambda: 1.0,
    ))


# ---------------------------------------------------------------------------
# MRI
# ---------------------------------------------------------------------------


def make_mri_mask(image_shape, acceleration: int, seed: int = 0) -> np.ndarray:
    """Cartesian line mask (rows of k-space): the central 8% of lines are
    always kept, plus uniformly random lines up to ``H / acceleration`` in
    total."""
    h = image_shape[-2]
    w = image_shape[-1]
    n_keep = int(round(h / acceleration))
    n_center = max(1, int(round(0.08 * h)))
    n_center = min(n_center, n_keep)
    lines = np.zeros(h, dtype=bool)
    start = (h - n_center) // 2
    lines[start:start + n_center] = True
    rng = np.random.default_rng(seed)
    rest = np.flatnonzero(~lines)
    extra = n_keep - n_center
    if extra > 0:
        lines[rng.choice(rest, size=extra, replace=False)] = True
    return np.broadcast_to(lines[:, None], (h, w)).astype(np.float64).copy()


@functools.lru_cache(maxsize=64)
def _dft_matrix(n: int) -> np.ndarray:
    """Orthonormal DFT matrix of size n, exp(-2 pi i k j / n) / sqrt(n),
    the phase reduced modulo n in integers so large n keeps full
    precision.  Memoised, so the result is read-only."""
    k = np.arange(n)
    mat = np.exp(-2j * np.pi / n * (np.outer(k, k) % n)) / np.sqrt(n)
    mat.setflags(write=False)
    return mat


def make_mri(mask: np.ndarray, image_shape) -> OperatorHandle:
    """Single-coil MRI: y = diag(m) F x with unitary F, on 2-channel
    (real, imag) images.  A row mask (every column equal, as
    :func:`make_mri_mask` draws) makes the map separable on the complex
    image, ``Z -> diag(m_h) F_h Z F_w^T``, and the handle carries those
    complex factors."""
    c, h, w = image_shape
    if c != 2:
        raise ValueError("MRI expects a 2-channel (real, imag) image")
    mask = _owned(mask)
    if mask.shape != (h, w):
        raise ValueError("mask shape must match spatial extents")

    def apply_fn(x):
        return _from_complex(mask * np.fft.fft2(_to_complex(x), norm="ortho"))

    def adjoint_fn(y):
        return _from_complex(np.fft.ifft2(mask * _to_complex(y), norm="ortho"))

    def factors():
        return mask[:, :1] * _dft_matrix(h), _dft_matrix(w)

    return _keyed(OperatorHandle(
        image_shape, image_shape, apply_fn, adjoint_fn,
        kind="mri", arrays={"mask": mask}, exact_norm=lambda: float(np.abs(mask).max()),
        factors=factors if np.all(mask == mask[:, :1]) else None,
    ))


def make_sensitivity_maps(num_coils: int, image_shape, seed: int = 0) -> np.ndarray:
    """Synthetic coil sensitivities: Gaussian bumps at equiangular
    positions with a mild per-coil phase ramp, normalized pointwise so that
    sum_l |s_l|^2 == 1.  Returns (L, 2, H, W)."""
    _, h, w = image_shape
    yy, xx = np.meshgrid(np.linspace(-1, 1, h), np.linspace(-1, 1, w), indexing="ij")
    ang = (2 * np.pi * np.arange(num_coils) / num_coils)[:, None, None]
    cy, cx = 0.6 * np.sin(ang), 0.6 * np.cos(ang)
    mag = np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * 0.7 ** 2))
    # row ell holds the (x, y) ramp slopes of coil ell, drawn in that order
    ramp = np.random.default_rng(seed).uniform(-0.5, 0.5, (num_coils, 2))[:, :, None, None]
    maps = mag * np.exp(1j * (ramp[:, 0] * xx + ramp[:, 1] * yy))
    maps /= np.sqrt((np.abs(maps) ** 2).sum(axis=0))
    return np.stack([maps.real, maps.imag], axis=1)


def _multicoil_range(smaps_shape, image_shape) -> tuple:
    """(2 * coils, H, W): each coil's (real, imag) k-space."""
    _, h, w = image_shape
    if len(smaps_shape) != 4 or tuple(smaps_shape[1:]) != (2, h, w):
        raise ValueError(f"sensitivity maps must be (coils, 2, {h}, {w}), got {tuple(smaps_shape)}")
    return 2 * smaps_shape[0], h, w


def make_multicoil_mri(mask: np.ndarray, smaps: np.ndarray, image_shape) -> OperatorHandle:
    """Multi-coil MRI: y_l = diag(m) F diag(s_l) x, stacked per coil."""
    c, h, w = image_shape
    if c != 2:
        raise ValueError("multi-coil MRI expects a 2-channel image")
    smaps = _owned(smaps)
    range_shape = _multicoil_range(smaps.shape, image_shape)
    num_coils = smaps.shape[0]
    smaps_c = smaps[:, 0] + 1j * smaps[:, 1]
    ssq = (np.abs(smaps_c) ** 2).sum(axis=0)
    if np.max(np.abs(ssq - 1)) > 1e-6:
        raise ValueError("sensitivity maps must satisfy sum |s_l|^2 == 1")
    mask = _owned(mask)
    if mask.shape != (h, w):
        raise ValueError("mask shape must match spatial extents")

    def apply_fn(x):
        k = mask * np.fft.fft2(smaps_c * _to_complex(x), norm="ortho")  # (L, H, W)
        return np.stack([k.real, k.imag], axis=1).reshape(2 * num_coils, h, w)

    def adjoint_fn(y):
        z = y.reshape(num_coils, 2, h, w)
        # a sum over the leading axis adds the coils one after another
        return _from_complex((np.conj(smaps_c) * np.fft.ifft2(
            mask * (z[:, 0] + 1j * z[:, 1]), norm="ortho")).sum(axis=0))

    line_mask = bool(np.all(mask == mask[:, :1]))
    return _keyed(OperatorHandle(
        image_shape, range_shape, apply_fn, adjoint_fn,
        kind="multicoil_mri", arrays={"mask": mask, "smaps": smaps},
        exact_norm=(lambda: _line_mask_multicoil_norm(mask[:, 0], smaps_c)) if line_mask else None,
    ))


def _line_mask_multicoil_norm(lines: np.ndarray, smaps_c: np.ndarray) -> float:
    """Norm of multi-coil MRI whose mask keeps whole k-space rows.

    With ``P = F_h^* diag(lines^2) F_h`` along H, A^T A maps each image
    column j on its own: ``B_j = sum_l diag(conj s_lj) P diag(s_lj)``, so
    the norm is the largest top eigenvalue over W small Hermitian blocks.
    Lanczos needs hundreds of steps here: the columns' top eigenvalues
    cluster within 1e-7 of each other."""
    f = _dft_matrix(lines.size)
    p = f.conj().T @ ((lines ** 2)[:, None] * f)
    blocks = np.einsum("lhj,hk,lkj->jhk", smaps_c.conj(), p, smaps_c)  # (W, H, H)
    return float(np.sqrt(max(np.linalg.eigvalsh(blocks)[:, -1].max(), 0.0)))


# ---------------------------------------------------------------------------
# computed tomography
# ---------------------------------------------------------------------------


def _ct_range(num_angles: int, image_shape) -> tuple:
    """(C, angles, detector bins) of CT on ``image_shape``: the detector
    spans the image diagonal."""
    if num_angles < 1:
        raise ValueError("need at least one projection angle")
    c, h, _ = image_shape
    return c, num_angles, int(np.ceil(np.sqrt(2.0) * h))


_SPARSETOOLS = "scipy.sparse._sparsetools"


def _sparse_kernels():
    """scipy's compiled sparse kernels, the one extension module
    ``scipy.sparse._sparsetools``, loaded from its file.  Importing the
    ``scipy.sparse`` package for them costs 0.13-0.2 s and 15 MB RSS
    (2-core Xeon, scipy 1.17: its array-API shim copies numpy's namespace
    and imports numpy.f2py); the file alone loads in under 1 ms and
    0.2 MB.  A module scipy.sparse has already loaded is reused, and one
    loaded here is what a later ``import scipy.sparse`` finds."""
    with _LOCK:
        module = sys.modules.get(_SPARSETOOLS)
        if module is None:
            scipy_spec = importlib.util.find_spec("scipy")  # locates scipy, runs none of it
            roots = (scipy_spec and scipy_spec.submodule_search_locations) or []
            paths = [os.path.join(root, "sparse", "_sparsetools" + suffix)
                     for root in roots for suffix in importlib.machinery.EXTENSION_SUFFIXES]
            path = next((p for p in paths if os.path.isfile(p)), None)
            if path is None:
                raise ImportError(f"CT operators need scipy's compiled sparse kernels, "
                                  f"{_SPARSETOOLS}; no such extension file is installed",
                                  name=_SPARSETOOLS)
            spec = importlib.util.spec_from_file_location(_SPARSETOOLS, path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules[_SPARSETOOLS] = module
        return module


class _CSR:
    """A sparse matrix as its three CSR arrays, in the layout scipy's
    kernels read: ``indptr`` and ``indices`` share one integer dtype."""

    __slots__ = ("indptr", "indices", "data", "__weakref__")

    def __init__(self, indptr, indices, data):
        self.indptr, self.indices, self.data = indptr, indices, data


# every live CT handle of a (num_angles, H, W), and the coarse operators
# cached from it, share one system matrix; it is freed with the last of them
_PROJECTORS = weakref.WeakValueDictionary()


def _ct_projector(num_angles: int, h: int, w: int, det: int) -> _CSR:
    """The CSR back-projection, sinograms to pixels, of one (angles, H, W)
    grid; read as CSC, the same arrays are the forward.  Pixel ``j`` has
    exactly two entries per angle ``a``, at sinogram columns ``a*det + b``
    and ``a*det + b + 1`` with weights ``1 - f`` and ``f``, so the rows
    come sorted with ``2 * num_angles`` entries each: no triplets, no sort.
    Weights and columns are computed inside the (pixels, angles, 2) arrays
    the matrix keeps, so the build holds little beyond them.  The indices
    are int32 while the entry count fits, int64 otherwise, as scipy's
    ``csr_matrix`` would store them."""
    nnz = 2 * num_angles * h * w
    idx = np.int32 if nnz <= np.iinfo(np.int32).max else np.int64
    angles = np.arange(num_angles) * np.pi / num_angles
    jj, ii = np.meshgrid(np.arange(w), np.arange(h))
    uc = (jj - (w - 1) / 2.0).ravel()
    vc = (ii - (h - 1) / 2.0).ravel()
    data = np.empty((h * w, num_angles, 2))
    cols = np.empty((h * w, num_angles, 2), dtype=idx)
    # the (pixels, angles) detector positions s, clipped, in the far weights
    s, bins = data[..., 1], cols[..., 0]
    np.multiply.outer(uc, np.cos(angles), out=s)
    s += np.multiply.outer(vc, np.sin(angles), out=data[..., 0])
    s += (det - 1) / 2.0
    np.clip(s, 0, det - 1 - 1e-9, out=s)
    bins[...] = s  # truncated
    s -= bins  # the far weight f
    np.subtract(1.0, s, out=data[..., 0])
    bins += det * np.arange(num_angles, dtype=idx)
    np.add(bins, 1, out=cols[..., 1])
    indptr = 2 * num_angles * np.arange(h * w + 1, dtype=idx)
    return _CSR(indptr, cols.ravel(), data.ravel())


def make_ct_radon(num_angles: int, image_shape) -> OperatorHandle:
    """Parallel-beam Radon transform with pixel-driven linear splatting.

    Each pixel center is projected onto the detector axis at every angle
    and its value is split linearly between the two nearest detector bins,
    so each projection conserves the total image mass exactly.  One CSR
    matrix is the adjoint; read as CSC, its arrays, not a copy, are the
    forward.  Both run scipy's compiled kernels (:func:`_sparse_kernels`;
    building a CT operator loads that one extension file, not the
    ``scipy.sparse`` package), dispatched as scipy's ``@`` does.
    Handles of one ``(num_angles, H, W)`` share the matrix for as long as
    any of them, or a coarse operator cached from one, is alive: a
    repeated definition builds nothing.
    """
    c, h, w = image_shape
    if h != w:
        raise ValueError("CT expects a square image")
    range_shape = _ct_range(num_angles, image_shape)
    det = range_shape[2]
    n, bins = h * w, num_angles * det
    kernels = _sparse_kernels()
    back = _PROJECTORS.get((num_angles, h, w))
    if back is None:
        # threads that miss together build equal matrices; the last one
        # stored is shared from then on
        back = _PROJECTORS[num_angles, h, w] = _ct_projector(num_angles, h, w, det)

    def product(matvec, matvecs, rows, cols, x):
        # the (C, rows) product with the (C, cols) x: the one-vector kernel
        # for one channel, else the many-vector kernel on (cols, C) columns;
        # reading ``back`` here keeps it alive in ``_PROJECTORS``
        arrays = back.indptr, back.indices, back.data
        if c == 1:
            out = np.zeros(rows)
            matvec(rows, cols, *arrays, x.ravel(), out)
            return out
        out = np.zeros((rows, c))
        matvecs(rows, cols, c, *arrays, np.ascontiguousarray(x.reshape(c, cols).T), out.ravel())
        return out.T

    def apply_fn(x):
        # as CSC, each bin adds its terms in pixel order
        return product(kernels.csc_matvec, kernels.csc_matvecs, bins, n, x).reshape(range_shape)

    def adjoint_fn(y):
        return product(kernels.csr_matvec, kernels.csr_matvecs, n, bins, y).reshape(c, h, w)

    return _keyed(OperatorHandle(
        image_shape, range_shape, apply_fn, adjoint_fn,
        kind="ct", spec={"kind": "ct", "num_angles": num_angles},
    ))


# ---------------------------------------------------------------------------
# super-resolution downsampling
# ---------------------------------------------------------------------------


def _bicubic_kernel(t: np.ndarray, a: float = -0.5) -> np.ndarray:
    t = np.abs(t)
    return np.where(t <= 1, (a + 2) * t ** 3 - (a + 3) * t ** 2 + 1,
                    np.where(t < 2, a * t ** 3 - 5 * a * t ** 2 + 8 * a * t - 4 * a, 0.0))


def _bilinear_kernel(t: np.ndarray) -> np.ndarray:
    return np.clip(1 - np.abs(t), 0, None)


@functools.lru_cache(maxsize=64)
def _decimation_matrix(n: int, factor: int, filt: str) -> np.ndarray:
    """Rows are antialias filters centered on output samples; rows are
    normalized to sum to one (partition of unity on constants).  Memoised,
    so the result is read-only."""
    kern = _bicubic_kernel if filt == "bicubic" else _bilinear_kernel
    centers = (np.arange(n // factor) + 0.5) * factor - 0.5
    # both kernels are exactly zero outside their support, so every column
    # may be evaluated
    mat = kern((np.arange(n) - centers[:, None]) / factor)
    mat /= mat.sum(axis=1, keepdims=True)
    mat.setflags(write=False)
    return mat


def _downsampled(factor: int, image_shape) -> tuple:
    """(C, H / factor, W / factor)."""
    if factor not in (2, 4):
        raise ValueError("downsampling factor must be 2 or 4")
    c, h, w = image_shape
    return c, h // factor, w // factor


def make_downsampling(factor: int, filt: str, image_shape) -> OperatorHandle:
    range_shape = _downsampled(factor, image_shape)
    if filt not in ("bicubic", "bilinear"):
        raise ValueError("filter must be 'bicubic' or 'bilinear'")
    _, h, w = image_shape
    if h % factor or w % factor:
        raise ValueError("spatial extents must be divisible by the factor")
    return _keyed(_separable(
        image_shape, range_shape,
        _decimation_matrix(h, factor, filt), _decimation_matrix(w, factor, filt),
        kind="downsampling", spec={"kind": "downsampling", "factor": int(factor), "filter": filt},
    ))


# ---------------------------------------------------------------------------
# compressed sensing (signed orthonormal sine transform, subsampled)
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=64)
def _dst_matrix(n: int) -> np.ndarray:
    """Orthonormal DST-II matrix of size n: row k samples
    sin(pi (k + 1) (2j + 1) / 2n), the phase reduced modulo 4n in integers
    so large n keeps full precision.  Memoised, so the result is
    read-only."""
    k = np.arange(1, n + 1)[:, None]
    j = np.arange(n)[None, :]
    mat = np.sqrt(2.0 / n) * np.sin(np.pi / (2 * n) * ((k * (2 * j + 1)) % (4 * n)))
    mat[-1] /= np.sqrt(2.0)
    mat.setflags(write=False)
    return mat


def _cs_range(image_shape, keep_indices) -> tuple:
    """(C, kept coefficients)."""
    return image_shape[0], np.size(keep_indices)


def make_compressed_sensing(sign_mask: np.ndarray, keep_indices: np.ndarray,
                            image_shape) -> OperatorHandle:
    """A = S diag(m): orthonormal DST-II of the sign-flipped image, with
    the flattened coefficients subsampled at ``keep_indices``.  The
    transform is separable, D_h (m * X) D_w^T, and applied to every
    channel in one batched product."""
    c, h, w = image_shape
    sign_mask = _owned(sign_mask)
    if sign_mask.shape != (h, w) or not np.all(np.abs(sign_mask) == 1):
        raise ValueError("sign mask must be (H, W) with values in {-1, +1}")
    keep = np.asarray(keep_indices)
    if keep.ndim != 1:
        raise ValueError("keep indices must be a 1-D list")
    # a manifest stores them as floats: 0.5 is refused, never cast to 0
    if keep.dtype.kind not in "iu" and not (
            keep.dtype.kind == "f" and np.all(np.isfinite(keep) & (keep == np.round(keep)))):
        raise ValueError("keep indices must be integers")
    keep = keep.astype(np.int64)
    ordered = np.sort(keep)  # np.unique would import numpy.ma
    if np.any(ordered[1:] == ordered[:-1]):
        raise ValueError("keep indices must be distinct")
    if keep.size and (keep.min() < 0 or keep.max() >= h * w):
        raise ValueError(f"keep indices must lie in [0, {h * w})")
    m = len(keep)
    dh = _dst_matrix(h)
    dw = _dst_matrix(w)

    def apply_fn(x):
        return (dh @ (sign_mask * x) @ dw.T).reshape(c, h * w)[:, keep]

    def adjoint_fn(y):
        coeffs = np.zeros((c, h * w))
        coeffs[:, keep] = y
        return (dh.T @ coeffs.reshape(c, h, w) @ dw) * sign_mask

    # S has orthonormal rows and diag(m) is orthogonal
    return _keyed(OperatorHandle(
        image_shape, _cs_range(image_shape, keep), apply_fn, adjoint_fn,
        kind="compressed_sensing",
        arrays={"sign_mask": sign_mask, "keep_indices": _owned(keep)},
        exact_norm=lambda: float(m > 0),
    ))


def make_cs_pattern(image_shape, subsample: int = 4, seed: int = 0):
    """Random sign mask and keep-index set for compressed sensing."""
    _, h, w = image_shape
    rng = np.random.default_rng(seed)
    sign = rng.choice([-1.0, 1.0], size=(h, w))
    keep = rng.choice(h * w, size=(h * w) // subsample, replace=False)
    return sign, np.sort(keep)


# ---------------------------------------------------------------------------
# Kaiser-sinc upsampler and coarse operators
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=64)
def _upsample_matrix(n_coarse: int, factor: int, beta: float = 8.0, taps: int = 8) -> np.ndarray:
    """1-D sinc interpolation matrix (fine = factor * coarse) with a Kaiser
    window of ``taps`` coarse samples total support; rows normalized to
    preserve constants exactly.  Memoised, so the result is read-only."""
    half = taps / 2.0
    # t: fine position minus coarse sample, in coarse sample units; the
    # Kaiser window does not vanish at its edge, so the columns with
    # |t| > half are zeroed explicitly
    t = np.arange(n_coarse * factor)[:, None] / factor - np.arange(n_coarse)
    window = np.i0(beta * np.sqrt(np.clip(1 - (t / half) ** 2, 0, None))) / np.i0(beta)
    mat = np.where(np.abs(t) <= half, np.sinc(t) * window, 0.0)
    mat /= mat.sum(axis=1, keepdims=True)
    mat.setflags(write=False)
    return mat


def make_upsampler(scale: int, coarse_shape) -> OperatorHandle:
    """U_s: 2^s separable Kaiser-windowed sinc upsampling (beta 8, 8 taps)."""
    if scale < 1:
        raise ValueError("scale must be >= 1")
    f = 2 ** scale
    c, h, w = coarse_shape
    return _separable(coarse_shape, (c, h * f, w * f),
                      _upsample_matrix(h, f), _upsample_matrix(w, f), kind="upsampler")


def make_coarse(op: OperatorHandle, scale: int, fine_shape=None) -> OperatorHandle:
    """Coarse-grid variant of ``op`` at dyadic scale ``scale``: op composed
    with a Kaiser-sinc upsampler (cropping if the working fine grid is
    padded beyond the operator's domain), normalized to unit norm.  For a
    keyed ``op`` the result is shared by every handle of its definition."""
    c = op.domain_shape[0]
    if fine_shape is None:
        fine_shape = op.domain_shape
    fine_shape = tuple(fine_shape)
    fc, fh, fw = fine_shape
    if fc != c:
        raise ValueError("channel mismatch between fine shape and operator domain")
    f = 2 ** scale
    if fh % f or fw % f:
        raise ValueError("fine extents must be divisible by 2^scale")
    key = None if op.key is None else (op.key, scale, fine_shape)
    if key is not None:
        cached = _COARSE.get(key)
        if cached is not None:
            return cached

    inner = op if fine_shape == op.domain_shape else compose(op, _crop_op(fine_shape, op.domain_shape))
    if scale > 0:
        inner = compose(inner, make_upsampler(scale, (c, fh // f, fw // f)))
    out = normalize(inner)
    out.kind = f"coarse[{op.kind}]"
    return out if key is None else _COARSE.put(key, out)


def _crop_op(fine_shape, target_shape) -> OperatorHandle:
    """Center crop (adjoint: zero-pad) from a padded working grid down to
    an operator's native domain."""
    fc, fh, fw = fine_shape
    tc, th, tw = target_shape
    if fc != tc or th > fh or tw > fw:
        raise ValueError("invalid crop shapes")
    t0 = (fh - th) // 2
    l0 = (fw - tw) // 2

    def apply_fn(x):
        return x[:, t0:t0 + th, l0:l0 + tw].copy()

    def adjoint_fn(y):
        out = np.zeros(fine_shape)
        out[:, t0:t0 + th, l0:l0 + tw] = y
        return out

    return OperatorHandle(fine_shape, target_shape, apply_fn, adjoint_fn, kind="crop",
                          factors=lambda: (_eye(fh)[t0:t0 + th], _eye(fw)[l0:l0 + tw]))


# ---------------------------------------------------------------------------
# registry of factory-built kinds
# ---------------------------------------------------------------------------


def _domain_range(shape, spec, arrays) -> tuple:
    """The range of identity, inpainting and MRI: the image's own shape."""
    return shape


KINDS = {
    "identity": OperatorKind(
        {}, (), lambda shape, spec, arrays: identity_operator(shape), _domain_range),
    "blur": OperatorKind(
        {}, ("kernel",),
        lambda shape, spec, arrays: make_blur(BlurKernel(arrays["kernel"]), shape),
        lambda shape, spec, arrays: _valid_range(shape, BlurKernel(arrays["kernel"]).size)),
    "inpainting": OperatorKind(
        {}, ("mask",), lambda shape, spec, arrays: make_inpainting(arrays["mask"]),
        _domain_range),
    "mri": OperatorKind(
        {}, ("mask",), lambda shape, spec, arrays: make_mri(arrays["mask"], shape),
        _domain_range),
    "multicoil_mri": OperatorKind(
        {}, ("mask", "smaps"),
        lambda shape, spec, arrays: make_multicoil_mri(arrays["mask"], arrays["smaps"], shape),
        lambda shape, spec, arrays: _multicoil_range(np.shape(arrays["smaps"]), shape)),
    "ct": OperatorKind(
        {"num_angles": 0}, (),
        lambda shape, spec, arrays: make_ct_radon(spec["num_angles"], shape),
        lambda shape, spec, arrays: _ct_range(spec["num_angles"], shape)),
    "downsampling": OperatorKind(
        {"factor": 0, "filter": ""}, (),
        lambda shape, spec, arrays: make_downsampling(spec["factor"], spec["filter"], shape),
        lambda shape, spec, arrays: _downsampled(spec["factor"], shape)),
    "compressed_sensing": OperatorKind(
        {}, ("sign_mask", "keep_indices"),
        lambda shape, spec, arrays: make_compressed_sensing(
            arrays["sign_mask"], arrays["keep_indices"], shape),
        lambda shape, spec, arrays: _cs_range(shape, arrays["keep_indices"])),
    "demosaic": OperatorKind(
        {}, (), lambda shape, spec, arrays: make_demosaic(shape),
        lambda shape, spec, arrays: _mosaic_range(shape)),
}


# ---------------------------------------------------------------------------
# dense oracle support
# ---------------------------------------------------------------------------


def dense_matrix(op: OperatorHandle) -> np.ndarray:
    """Materialize the operator by probing with basis vectors (test/oracle
    use; O(n) applies)."""
    n = int(np.prod(op.domain_shape))
    m = int(np.prod(op.range_shape))
    mat = np.empty((m, n))
    e = np.zeros(n)
    for j in range(n):
        e[j] = 1.0
        mat[:, j] = op.apply(e.reshape(op.domain_shape)).ravel()
        e[j] = 0.0
    return mat
