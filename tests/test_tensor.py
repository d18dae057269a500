import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reconkit import tensor as T


def finite_diff_grad(f, x, h=1e-6):
    """Central finite differences of a scalar function of a numpy array."""
    g = np.zeros_like(x)
    flat = x.ravel()
    gf = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * h)
    return g


def rel_err(a, b):
    denom = max(np.linalg.norm(b), 1e-30)
    return np.linalg.norm(a - b) / denom


class TestBasics:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            T.constant([1.0, np.nan])

    def test_rejects_5d(self):
        with pytest.raises(ValueError):
            T.constant(np.zeros((1, 1, 1, 1, 1)))

    def test_sum_of_weighted_grad_is_input(self):
        x = np.random.default_rng(0).standard_normal((2, 3))
        w = T.Parameter("w", np.ones((2, 3)))
        loss = T.sum_all(T.mul(w, T.constant(x)))
        loss.backward()
        assert np.allclose(w.grad, x)

    def test_backward_accumulates(self):
        w = T.Parameter("w", [1.0, 2.0])
        x = T.constant([3.0, 4.0])
        g1 = None
        for _ in range(2):
            loss = T.sum_all(T.mul(w, x))
            loss.backward()
            if g1 is None:
                g1 = w.grad.copy()
        assert np.allclose(w.grad, 2 * g1)

    def test_non_scalar_loss_rejected(self):
        w = T.Parameter("w", [1.0, 2.0])
        with pytest.raises(ValueError):
            T.mul(w, w).backward()

    def test_duplicate_parent(self):
        w = T.Parameter("w", [2.0])
        loss = T.mul(w, w)
        loss.backward()
        assert np.allclose(w.grad, [4.0])

    def test_backward_from_a_given_gradient(self):
        # backward from x given d(loss)/dx is the backward of loss = <x, g>
        rng = np.random.default_rng(7)
        g, c = rng.standard_normal((2, 2, 3))
        grads = []
        for seeded in (True, False):
            w = T.Parameter("w", np.arange(6.0).reshape(2, 3))
            x = T.mul(T.square(w), T.constant(c))
            x.backward(g) if seeded else T.dot(x, T.constant(g)).backward()
            grads.append(w.grad)
        assert np.array_equal(grads[0], grads[1])
        with pytest.raises(ValueError):
            x.backward(g[:1])
        with pytest.raises(ValueError):
            x.backward()

    def test_dropped_parameter_freed_at_once(self):
        # a leaf's node refers to its tensor weakly: no cycle outlives the
        # parameter, and a loss that does only skips its gradient
        w = T.Parameter("w", [2.0])
        loss, dropped = T.mul(w, w), weakref.ref(w)
        del w
        assert dropped() is None
        loss.backward()


def _small_graph(w):
    """A loss summed over two images, one graph each."""
    losses = []
    for x in np.linspace(-1.0, 1.0, 2 * 3 * 5 * 5).reshape(2, 3, 5, 5):
        h = T.relu(T.conv2d(T.constant(x), w, padding="reflect", pad=1))
        losses.append(T.sum_all(T.square(T.pad_reflect(h, (1, 0, 2, 1)))))
    return losses[0] + losses[1]


class TestNoGrad:
    def test_no_parents_and_same_values(self):
        w = T.Parameter("w", np.random.default_rng(1).standard_normal((4, 3, 3, 3)))
        taped = _small_graph(w)
        with T.no_grad():
            free = _small_graph(w)
            h = T.relu(T.mul(w, w))
        assert taped.node is not None and taped.node.backward is not None
        for t in (free, h):
            assert t.node is None and not t.requires_grad
        assert np.array_equal(free.data, taped.data)

    def test_backward_leaves_parameters_untouched(self):
        w = T.Parameter("w", np.random.default_rng(2).standard_normal((4, 3, 3, 3)))
        with T.no_grad():
            loss = _small_graph(w)
        loss.backward()
        assert w.grad is None
        w.zero_grad()
        with T.no_grad():
            loss = _small_graph(w)
        loss.backward()
        assert not np.any(w.grad)

    def test_thread_local(self):
        w = T.Parameter("w", np.ones((4, 3, 3, 3)))
        inside, release = threading.Event(), threading.Event()
        seen = {}

        def hold():
            with T.no_grad():
                seen["held"] = _small_graph(w).node
                inside.set()
                release.wait(10)

        worker = threading.Thread(target=hold)
        worker.start()
        try:
            assert inside.wait(10)
            seen["other"] = _small_graph(w).node
        finally:
            release.set()
            worker.join()
        assert seen["held"] is None and seen["other"] is not None

    def test_restored_after_exception_and_nesting(self):
        w = T.Parameter("w", np.ones((1,)))
        with pytest.raises(RuntimeError):
            with T.no_grad():
                raise RuntimeError("inside")
        assert T.mul(w, w).node is not None
        with T.no_grad():
            with T.no_grad():
                pass
            assert T.mul(w, w).node is None
        assert T.mul(w, w).node is not None


class TestRelu:
    def test_values(self):
        out = T.relu(T.constant([-1.0, 0.0, 2.0]))
        assert np.allclose(out.data, [0.0, 0.0, 2.0])

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(50)
        a = T.relu(T.constant(3.5 * x)).data
        b = 3.5 * T.relu(T.constant(x)).data
        assert np.allclose(a, b)

    def test_gradient_mask(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(30)
        xt = T.Parameter("x", x)
        T.sum_all(T.relu(xt)).backward()
        fd = finite_diff_grad(lambda a: np.maximum(a, 0).sum(), x.copy())
        assert rel_err(xt.grad, fd) < 1e-6
        assert np.allclose(xt.grad, (x > 0).astype(float))

    def test_zeros_and_kept_state(self):
        x = np.array([-2.0, -0.0, 0.0, 1e-300, -1e-300, 3.0])
        xt = T.Parameter("x", x)
        out = T.relu(xt)
        assert np.array_equal(out.data, np.where(x > 0, x, 0.0))
        assert not np.signbit(out.data).any()
        # the backward reads the output; no mask, and not the input, is kept
        (cell,) = out.node.backward.__closure__
        assert cell.cell_contents is out.data
        T.sum_all(out).backward()
        assert np.array_equal(xt.grad, [0.0, 0.0, 0.0, 1.0, 0.0, 1.0])


class TestConv2d:
    def test_scalar_kernel(self):
        x = T.constant(np.ones((1, 3, 3)))
        w = T.constant(np.full((1, 1, 1, 1), 2.0))
        out = T.conv2d(x, w)
        assert out.shape == (1, 3, 3)
        assert np.allclose(out.data, 2.0)

    def test_impulse_response(self):
        rng = np.random.default_rng(3)
        k = rng.standard_normal((1, 1, 3, 3))
        x = np.zeros((1, 7, 7))
        x[0, 3, 3] = 1.0
        out = T.conv2d(T.constant(x), T.constant(k), padding="zero", pad=1)
        # cross-correlation of a delta reproduces the flipped... no: the
        # window sliding over a delta reproduces the kernel itself, flipped
        # by the correlation convention
        assert np.allclose(out.data[0, 2:5, 2:5], k[0, 0, ::-1, ::-1])

    @pytest.mark.parametrize("padding,pad,stride", [
        ("valid", 0, 1), ("zero", 1, 1), ("reflect", 1, 1), ("zero", 1, 2),
    ])
    def test_gradients_match_finite_differences(self, padding, pad, stride):
        rng = np.random.default_rng(4)
        images = rng.standard_normal((2, 4, 8, 8))
        w = rng.standard_normal((4, 4, 3, 3)) * 0.3

        def loss_np(xa, wa):
            out = T.conv2d(T.constant(xa), T.constant(wa), stride=stride,
                           padding=padding, pad=pad)
            return float((out.data ** 2).sum())

        for x in images:
            xt = T.Parameter("x", x)
            wt = T.Parameter("w", w)
            out = T.conv2d(xt, wt, stride=stride, padding=padding, pad=pad)
            T.sum_all(T.square(out)).backward()

            fd_x = finite_diff_grad(lambda a: loss_np(a, w), x.copy())
            fd_w = finite_diff_grad(lambda a: loss_np(x, a), w.copy())
            assert rel_err(xt.grad, fd_x) < 1e-6
            assert rel_err(wt.grad, fd_w) < 1e-6

    def test_channel_mismatch(self):
        with pytest.raises(ValueError):
            T.conv2d(T.constant(np.zeros((2, 4, 4))), T.constant(np.zeros((1, 3, 3, 3))))

    @pytest.mark.parametrize("pad", [0, 1])
    def test_unknown_padding_mode_refused(self, pad):
        # refused whatever the pad width, also where nothing would be padded
        with pytest.raises(ValueError, match="unknown padding mode"):
            T.conv2d(T.constant(np.zeros((1, 4, 4))), T.constant(np.zeros((1, 1, 3, 3))),
                     padding="same", pad=pad)

    def test_kernel_too_large(self):
        with pytest.raises(ValueError):
            T.conv2d(T.constant(np.zeros((1, 4, 4))), T.constant(np.zeros((1, 1, 5, 5))))


def _naive_pad(x, padding, pad):
    """``np.pad`` of the spatial axes by ``pad``, an int or (top, bottom,
    left, right)."""
    if padding == "valid":
        return x
    pt, pb, pl, pr = (pad,) * 4 if isinstance(pad, int) else pad
    mode = "constant" if padding == "zero" else "reflect"
    return np.pad(x, ((0, 0), (pt, pb), (pl, pr)), mode=mode)


def _naive_unpad(gxp, padding, pad, h, w):
    """Adjoint of ``_naive_pad``: every padded pixel's gradient goes back to
    the source pixel it was copied from."""
    if padding == "valid":
        return gxp
    src = _naive_pad(np.arange(h * w, dtype=float).reshape(1, h, w), padding, pad)[0]
    valid = _naive_pad(np.ones((1, h, w)), padding, pad)[0]
    gx = np.zeros(gxp.shape[:1] + (h * w,))
    for i in range(src.shape[0]):
        for j in range(src.shape[1]):
            if valid[i, j]:
                gx[:, int(src[i, j])] += gxp[:, i, j]
    return gx.reshape(gxp.shape[:1] + (h, w))


def naive_conv2d(x, w, g, stride, padding, pad):
    """Loop reference for conv2d of a (C, H, W) image: output and, for
    output gradient ``g``, the input and weight gradients."""
    _, h, w_ = x.shape
    o, _, kh, kw = w.shape
    xp = _naive_pad(x, padding, pad)
    ho = (xp.shape[1] - kh) // stride + 1
    wo = (xp.shape[2] - kw) // stride + 1
    out = np.zeros((o, ho, wo))
    gxp = np.zeros_like(xp)
    gw = np.zeros_like(w)
    for oc in range(o):
        for i in range(ho):
            for j in range(wo):
                win = (slice(None), slice(i * stride, i * stride + kh),
                       slice(j * stride, j * stride + kw))
                out[oc, i, j] = (xp[win] * w[oc]).sum()
                gxp[win] += g[oc, i, j] * w[oc]
                gw[oc] += g[oc, i, j] * xp[win]
    return out, _naive_unpad(gxp, padding, pad, h, w_), gw


def naive_conv_transpose2d(x, w, g, stride):
    """Loop reference for conv_transpose2d of a (C, H, W) image (IOKK weights)."""
    c, h, w_ = x.shape
    _, o, kh, kw = w.shape
    out = np.zeros((o, stride * (h - 1) + kh, stride * (w_ - 1) + kw))
    gx = np.zeros_like(x)
    gw = np.zeros_like(w)
    for ic in range(c):
        for i in range(h):
            for j in range(w_):
                tgt = (slice(None), slice(i * stride, i * stride + kh),
                       slice(j * stride, j * stride + kw))
                out[tgt] += x[ic, i, j] * w[ic]
                gx[ic, i, j] = (g[tgt] * w[ic]).sum()
                gw[ic] += x[ic, i, j] * g[tgt]
    return out, gx, gw


def _assert_conv2d_matches_loops(x, w, rng, stride, padding, pad):
    xt = T.Parameter("x", x)
    wt = T.Parameter("w", w)
    out = T.conv2d(xt, wt, stride=stride, padding=padding, pad=pad)
    g = rng.standard_normal(out.shape)
    T.sum_all(T.mul(out, T.constant(g))).backward()
    ref, ref_gx, ref_gw = naive_conv2d(x, w, g, stride, padding, pad)
    assert out.shape == ref.shape
    assert rel_err(out.data, ref) < 1e-12
    assert rel_err(xt.grad, ref_gx) < 1e-12
    assert rel_err(wt.grad, ref_gw) < 1e-12


class TestConvParity:
    """conv2d and conv_transpose2d against nested-loop references.  Each
    case convolves the two images of one draw in turn."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("padding,pad", [("valid", 0), ("zero", 1), ("reflect", 1), ("reflect", 2)])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_conv2d_matches_loops(self, stride, padding, pad, k):
        rng = np.random.default_rng(100 + 10 * stride + k)
        images = rng.standard_normal((2, 3, 7, 10))
        w = rng.standard_normal((5, 3, k, k))
        for x in images:
            _assert_conv2d_matches_loops(x, w, rng, stride, padding, pad)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_conv_transpose2d_matches_loops(self, k):
        rng = np.random.default_rng(200 + k)
        for stride in (1, 2, 3):
            images = rng.standard_normal((2, 3, 4, 5))
            w = rng.standard_normal((3, 4, k, k))
            for x in images:
                xt = T.Parameter("x", x)
                wt = T.Parameter("w", w)
                out = T.conv_transpose2d(xt, wt, stride=stride)
                g = rng.standard_normal(out.shape)
                T.sum_all(T.mul(out, T.constant(g))).backward()
                ref, ref_gx, ref_gw = naive_conv_transpose2d(x, w, g, stride)
                assert out.shape == ref.shape
                assert rel_err(out.data, ref) < 1e-12
                assert rel_err(xt.grad, ref_gx) < 1e-12
                assert rel_err(wt.grad, ref_gw) < 1e-12

    @pytest.mark.parametrize("cap", [1, 10000])
    @pytest.mark.parametrize("stride,padding,pad,k", [
        (1, "reflect", 1, 3), (2, "zero", 1, 3), (3, "valid", 0, 2), (1, "valid", 0, 1),
    ])
    def test_row_strips_match_loops(self, monkeypatch, stride, padding, pad, k, cap):
        # a 1-byte cap builds every patch matrix one output row at a time;
        # 10000 bytes leaves a shorter last strip for the 3x3 stride-1 case.
        # The 2x2 stride-3 kernel skips input rows; the 1x1 kernel tiles
        # its input and runs no strips, whatever the cap.  The cap was set
        # for two images at once: one image gets half of it, so its strips
        # are those the pair had.  A padded mode also runs uneven pads up
        # to 3x the image, which reflect more than once, and 1-pixel rows
        # and columns
        monkeypatch.setattr(T, "_PATCH_BYTES", cap // 2)
        rng = np.random.default_rng(400 + 10 * stride + k)
        images = rng.standard_normal((2, 3, 9, 8))
        w = rng.standard_normal((4, 3, k, k))
        for x in images:
            _assert_conv2d_matches_loops(x, w, rng, stride, padding, pad)
        if padding == "valid":
            return
        for shape, pads in [((3, 9, 8), (27, 0, 5, 24)), ((3, 1, 6), (3, 1, 2, 0)),
                            ((3, 5, 1), (0, 15, 3, 3)), ((3, 1, 1), (2, 3, 1, 3))]:
            _assert_conv2d_matches_loops(rng.standard_normal(shape), w, rng, stride, padding, pads)

    @pytest.mark.parametrize("cap", [1, 2000])
    @pytest.mark.parametrize("stride,k", [(1, 1), (1, 3), (2, 2), (2, 3), (3, 2)])
    def test_row_group_patches(self, monkeypatch, stride, k, cap):
        # each strip holds the padded input rows it reads, each with its k
        # column shifts, built straight from the unpadded input: equal to
        # slicing np.pad's output, in every padding mode, for pads up to 3x
        # the image and 1-pixel inputs; each kernel-row matrix is the rows
        # that kernel row reads, a view of the strip's patches at stride 1.
        # Half the cap per image, as in test_row_strips_match_loops
        monkeypatch.setattr(T, "_PATCH_BYTES", cap // 2)
        rng = np.random.default_rng(500)
        cases = [("valid", (0, 0, 0, 0))] + [
            (padding, pads) for padding in ("zero", "reflect")
            for pads in [(1, 1, 1, 1), (2, 0, 1, 3), (10, 33, 27, 9)]]
        for shape in [(3, 11, 9), (2, 1, 1), (2, 1, 7), (2, 6, 1)]:
            x = rng.standard_normal(shape)
            for padding, pads in cases:
                xp = _naive_pad(x, padding, pads)
                if min(xp.shape[1:]) < k:
                    continue
                ho = (xp.shape[1] - k) // stride + 1
                wo = (xp.shape[2] - k) // stride + 1
                strips = 0
                for pos, patches in T._row_strips(x, k, k, stride, 4, padding, pads):
                    strips += 1
                    rows = (pos.stop - pos.start) // wo
                    r0 = pos.start // wo
                    ref = np.empty(patches.shape)
                    for j in range(k):
                        for r in range(patches.shape[1]):
                            ref[j::k, r] = xp[:, r0 * stride + r, j:j + (wo - 1) * stride + 1:stride]
                    assert np.array_equal(patches, ref)
                    for i in range(k):
                        mat = T._kernel_row(patches, i, stride, rows)
                        if stride == 1:
                            assert np.shares_memory(mat, patches)
                        assert np.array_equal(mat, ref[:, i::stride][:, :rows].reshape(mat.shape))
                assert pos.stop == ho * wo
                # a 1-byte cap gives each output row a strip; 1000 bytes
                # split the 11x9 image too
                assert strips == ho if cap == 1 else strips > 1 or shape != (3, 11, 9)

    @pytest.mark.parametrize("c,h,w,s", [(3, 6, 8, 2), (2, 7, 9, 2), (2, 9, 7, 3), (3, 5, 4, 1)])
    def test_tiles(self, c, h, w, s):
        # the space-to-depth matrix of a tiling kernel: K ordered as an OIKK
        # weight's reshape(O, -1), trailing rows and columns that fill no
        # tile dropped, and a view of a contiguous input at s = 1
        x = np.random.default_rng(502).standard_normal((c, h, w))
        tiles = T._tiles(x, s)
        ho, wo = h // s, w // s
        ref = np.empty((c, s, s, ho, wo))
        for i in range(s):
            for j in range(s):
                for r in range(ho):
                    for q in range(wo):
                        ref[:, i, j, r, q] = x[:, r * s + i, q * s + j]
        assert np.array_equal(tiles, ref.reshape(c * s * s, ho * wo))
        assert np.shares_memory(tiles, x) == (s == 1)
        wt = np.random.default_rng(503).standard_normal((4, c, s, s))
        out = np.einsum("ocij,cijrq->orq", wt, ref)
        assert rel_err((wt.reshape(4, -1) @ tiles).reshape(out.shape), out) < 1e-12

    @pytest.mark.parametrize("cap", [None, 2 << 20])
    def test_forward_transients_within_patch_bytes(self, monkeypatch, cap):
        # beyond the output, which the tape node keeps, one forward
        # allocates at most _PATCH_BYTES: the patches read the unpadded
        # input, so no padded copy is made
        if cap is not None:
            monkeypatch.setattr(T, "_PATCH_BYTES", cap)
        rng = np.random.default_rng(501)
        x = T.constant(rng.standard_normal((32, 128, 128)))
        w = T.constant(rng.standard_normal((32, 32, 3, 3)))
        T.conv2d(x, w, padding="reflect", pad=1)  # the memoised copy plan is made once
        tracemalloc.start()
        try:
            out = T.conv2d(x, w, padding="reflect", pad=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - out.data.nbytes <= T._PATCH_BYTES

    @pytest.mark.parametrize("padding,pad", [("zero", 1), ("reflect", 1), ("reflect", (2, 0, 7, 1))])
    def test_backward_keeps_no_padded_input(self, padding, pad):
        # the node's backward closure reaches its parents and the widths,
        # not a padded copy of the input
        x = T.Parameter("x", np.random.default_rng(502).standard_normal((3, 6, 5)))
        w = T.Parameter("w", np.ones((2, 3, 3, 3)))
        out = T.conv2d(x, w, padding=padding, pad=pad)
        pt, pb, pl, pr = (pad,) * 4 if isinstance(pad, int) else pad
        padded = (3, 6 + pt + pb, 5 + pl + pr)
        seen, todo = [], [out.node.backward]
        while todo:
            obj = todo.pop()
            if isinstance(obj, T.Tensor):
                seen.append(obj.data)
            elif isinstance(obj, np.ndarray):
                seen.append(obj)
            elif callable(obj) and getattr(obj, "__closure__", None):
                todo.extend(cell.cell_contents for cell in obj.__closure__)
        assert any(a is x.data for a in seen)
        assert all(a.shape != padded for a in seen)
        g = np.ones(out.shape)
        T.sum_all(T.mul(out, T.constant(g))).backward()
        assert np.array_equal(x.grad, naive_conv2d(x.data, w.data, g, 1, padding, pad)[1])

    def test_scatter_adjoint_matches_add_at(self):
        # the reflect adjoint adds every padded pixel onto its source in
        # padded raster order starting from zeros, as np.add.at does: equal
        # bits, signed zeros included, for pads reflecting more than once
        rng = np.random.default_rng(300)
        for h, w in [(4, 5), (1, 3), (2, 1), (5, 5)]:
            for pads in [(1, 1, 1, 1), (0, 3, 2, 0), (3 * h, 2 * h, 3 * w, w + 1)]:
                pt, pb, pl, pr = pads
                src = _naive_pad(np.arange(h * w).reshape(1, h, w), "reflect", pads)[0]
                unpad = T._padding_maps("reflect", pads, h, w)[1]
                for g in rng.standard_normal((2, 3, h + pt + pb, w + pl + pr)):
                    g[rng.random(g.shape) < 0.3] = -0.0
                    g[0] = -0.0
                    ref = np.zeros((3, h * w))
                    np.add.at(ref, (np.arange(3)[:, None], src.ravel()[None, :]), g.reshape(3, -1))
                    out = unpad(g)
                    assert np.array_equal(out, ref.reshape(3, h, w))
                    assert np.array_equal(np.signbit(out), np.signbit(ref.reshape(3, h, w)))


def _assert_adjoint(op, *args):
    """<op(*args), y> equals <arg, d/d arg> for every argument and a random
    y, to 1e-12 relative to the norms of both sides; op is linear in each
    argument."""
    leaves = [T.Parameter(f"a{i}", a) for i, a in enumerate(args)]
    out = op(*leaves)
    y = np.random.default_rng(sum(a.size for a in args)).standard_normal(out.shape)
    T.sum_all(T.mul(out, T.constant(y))).backward()
    lhs = np.vdot(out.data, y)
    for arg, grad in zip(args, [leaf.grad for leaf in leaves]):
        scale = np.linalg.norm(out.data) * np.linalg.norm(y) + np.linalg.norm(arg) * np.linalg.norm(grad)
        assert abs(lhs - np.vdot(arg, grad)) <= 1e-12 * scale


def kernel_row_major(w):
    return np.ascontiguousarray(w.transpose(2, 0, 1, 3)).transpose(1, 2, 0, 3)


class TestConvWeightLayout:
    """``conv_weight`` changes a weight's memory order only, and conv2d
    gives the same bits in every order."""

    @pytest.mark.parametrize("k,stride", [(1, 1), (2, 2), (3, 1), (3, 2), (2, 1), (1, 3)])
    def test_same_shape_and_values(self, k, stride):
        w = np.random.default_rng(k).standard_normal((4, 3, k, k))
        lw = T.conv_weight(w, stride)
        assert lw.shape == w.shape and np.array_equal(lw, w)
        if k == stride:  # tiles: C order
            assert lw.flags.c_contiguous
        else:  # kernel-row major: the forward's (KH, O, C*KW) matrices are a view
            assert lw.transpose(2, 0, 1, 3).flags.c_contiguous
            assert np.shares_memory(lw.transpose(2, 0, 1, 3).reshape(k, 4, -1), lw)

    def test_refuses_other_ranks(self):
        with pytest.raises(ValueError):
            T.conv_weight(np.zeros((3, 3)))

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("padding,pad", [("valid", 0), ("zero", 1), ("reflect", 1)])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_bitwise_equal_in_every_order(self, stride, padding, pad, k):
        rng = np.random.default_rng(300 + 10 * stride + k)
        x = rng.standard_normal((3, 9, 11))
        w = rng.standard_normal((5, 3, k, k))
        results = []
        for lw in (w, kernel_row_major(w), T.conv_weight(w, stride)):
            xt, wt = T.Parameter("x", x), T.Parameter("w", lw)
            out = T.conv2d(xt, wt, stride=stride, padding=padding, pad=pad)
            if not results:
                g = rng.standard_normal(out.shape)
            T.sum_all(T.mul(out, T.constant(g))).backward()
            results.append((out.data, xt.grad, wt.grad))
        for got in results[1:]:
            for a, b in zip(results[0], got):
                assert np.array_equal(a, b)


class TestConvProperties:
    """Adjoint identities of the convolutions and the single-input linear
    nodes on random shapes."""

    @settings(max_examples=150, deadline=None)
    @given(c=st.integers(1, 3), o=st.integers(1, 3),
           h=st.integers(1, 9), w=st.integers(1, 9), k=st.integers(1, 4),
           stride=st.integers(1, 3), padding=st.sampled_from(["valid", "zero", "reflect"]),
           pad=st.integers(0, 8), seed=st.integers(0, 2 ** 16))
    def test_conv2d_adjoint(self, c, o, h, w, k, stride, padding, pad, seed):
        pad = 0 if padding == "valid" else pad
        assume(pad < min(h, w) and k <= h + 2 * pad and k <= w + 2 * pad)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((c, h, w))
        wt = rng.standard_normal((o, c, k, k))
        _assert_adjoint(lambda a, b: T.conv2d(a, b, stride=stride, padding=padding, pad=pad), x, wt)

    @settings(max_examples=100, deadline=None)
    @given(c=st.integers(1, 3), o=st.integers(1, 3),
           h=st.integers(1, 9), w=st.integers(1, 9), k=st.integers(1, 4),
           stride=st.integers(1, 3), seed=st.integers(0, 2 ** 16))
    def test_conv_transpose2d_adjoint(self, c, o, h, w, k, stride, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((c, h, w))
        wt = rng.standard_normal((c, o, k, k))
        _assert_adjoint(lambda a, b: T.conv_transpose2d(a, b, stride=stride), x, wt)

    @settings(max_examples=150, deadline=None)
    @given(h=st.integers(1, 9), w=st.integers(1, 9), data=st.data())
    def test_pad_reflect_contiguous_and_equal_to_numpy(self, h, w, data):
        images = np.random.default_rng(h * 10 + w).standard_normal((2, 3, h, w))
        drawn = tuple(data.draw(st.integers(0, ext - 1)) for ext in (h, h, w, w))
        largest = (h - 1, h - 1, w - 1, w - 1)
        # wider pads reflect more than once, as np.pad does
        wide = tuple(data.draw(st.integers(0, 3 * ext)) for ext in (h, h, w, w))
        for pads in (drawn, largest, wide):
            for x in images:
                out = T.pad_reflect(T.constant(x), pads).data
                ref = np.pad(x, ((0, 0), pads[:2], pads[2:]), mode="reflect")
                assert out.flags.c_contiguous
                assert np.array_equal(out, ref)

    @settings(max_examples=150, deadline=None)
    @given(c=st.integers(1, 4), h=st.integers(1, 9), w=st.integers(1, 9), data=st.data())
    def test_single_input_linear_nodes_adjoint(self, c, h, w, data):
        x = np.random.default_rng(data.draw(st.integers(0, 2 ** 16))).standard_normal((c, h, w))
        # reflect pad widths up to and past the image size
        reflect = tuple(data.draw(st.integers(0, 3 * ext)) for ext in (h, h, w, w))
        width = data.draw(st.integers(0, 3 * min(h, w)))
        zero = tuple(data.draw(st.integers(0, 4)) for _ in range(4))
        top, left = data.draw(st.integers(0, h - 1)), data.draw(st.integers(0, w - 1))
        rows, cols = data.draw(st.integers(1, h - top)), data.draw(st.integers(1, w - left))
        start = data.draw(st.integers(0, c - 1))
        stop = data.draw(st.integers(start + 1, c))
        for op in (lambda a: T.pad_reflect(a, reflect), lambda a: T.pad_reflect(a, width),
                   lambda a: T.pad_zero(a, zero), lambda a: T.crop2d(a, top, left, rows, cols),
                   lambda a: T.slice_channels(a, start, stop), T.sum_all, T.mean_all):
            _assert_adjoint(op, x)


class TestWindows:
    """Ops that take a window or pad widths: an argument that leaves the
    input raises ValueError, never returns a clamped result."""

    def test_crop_past_the_edge_refused(self):
        x = T.constant(np.zeros((1, 4, 4)))
        with pytest.raises(ValueError, match="leaves"):
            T.crop2d(x, 3, 0, 2, 4)

    def test_slice_past_the_channels_refused(self):
        x = T.constant(np.zeros((1, 4, 4)))
        with pytest.raises(ValueError, match="leaves"):
            T.slice_channels(x, 0, 5)

    def test_valid_padding_with_a_width_refused(self):
        x = T.constant(np.zeros((1, 4, 4)))
        with pytest.raises(ValueError, match="pad widths"):
            T.conv2d(x, T.constant(np.zeros((1, 1, 3, 3))), padding="valid", pad=1)

    def test_batched_image_refused(self):
        # images are (C, H, W); a leading batch axis is not read as one
        with pytest.raises(ValueError, match=r"\(C, H, W\)"):
            T.conv2d(T.constant(np.zeros((1, 1, 4, 4))), T.constant(np.zeros((1, 1, 3, 3))))

    @settings(max_examples=300, deadline=None)
    @given(c=st.integers(1, 3), h=st.integers(1, 6), w=st.integers(1, 6), data=st.data())
    def test_refused_or_equal_to_numpy(self, c, h, w, data):
        x = np.random.default_rng(100 * c + 10 * h + w).standard_normal((c, h, w))
        xt = T.constant(x)
        top, left, rows, cols = (data.draw(st.integers(-2, 7)) for _ in range(4))
        start, stop = data.draw(st.integers(-2, 4)), data.draw(st.integers(-2, 4))
        pads = tuple(data.draw(st.integers(-2, 4)) for _ in range(4))
        width = data.draw(st.integers(-2, 4))
        padding = data.draw(st.sampled_from(["valid", "zero", "reflect"]))
        np_pads = ((0, 0), pads[:2], pads[2:])
        # a 1x1 identity kernel makes conv2d return its padded input
        eye = T.constant(np.eye(c).reshape(c, c, 1, 1))
        cases = [
            (lambda: T.crop2d(xt, top, left, rows, cols),
             min(top, left) >= 0 and min(rows, cols) >= 1 and top + rows <= h and left + cols <= w,
             lambda: x[:, top:top + rows, left:left + cols]),
            (lambda: T.slice_channels(xt, start, stop), 0 <= start < stop <= c,
             lambda: x[start:stop]),
            (lambda: T.pad_reflect(xt, pads), min(pads) >= 0,
             lambda: np.pad(x, np_pads, mode="reflect")),
            (lambda: T.pad_zero(xt, width), width >= 0,
             lambda: np.pad(x, ((0, 0), (width, width), (width, width)))),
            (lambda: T.conv2d(xt, eye, padding=padding, pad=pads),
             min(pads) >= 0 and (padding != "valid" or not any(pads)),
             lambda: np.pad(x, np_pads, mode="reflect" if padding == "reflect" else "constant")),
        ]
        for op, in_range, ref in cases:
            if in_range:
                assert np.array_equal(op().data, ref())
            else:
                with pytest.raises(ValueError):
                    op()


class TestConcat:
    def test_shapes(self):
        a = T.constant(np.zeros((2, 4, 4)))
        b = T.constant(np.zeros((3, 4, 4)))
        assert T.concat_channels([a, b]).shape == (5, 4, 4)

    def test_round_trip(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((2, 4, 4))
        b = rng.standard_normal((3, 4, 4))
        cat = T.concat_channels([T.constant(a), T.constant(b)])
        assert np.array_equal(T.slice_channels(cat, 0, 2).data, a)
        assert np.array_equal(T.slice_channels(cat, 2, 5).data, b)

    def test_spatial_mismatch(self):
        with pytest.raises(ValueError):
            T.concat_channels([T.constant(np.zeros((1, 4, 4))),
                               T.constant(np.zeros((1, 5, 4)))])

    def test_gradient_routing(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((2, 3, 3))
        b = rng.standard_normal((1, 3, 3))
        at = T.Parameter("a", a)
        bt = T.Parameter("b", b)
        cat = T.concat_channels([at, bt])
        wsel = np.zeros((3, 3, 3))
        wsel[2] = 1.0  # weight only the b slice
        T.sum_all(T.mul(cat, T.constant(wsel))).backward()
        assert np.allclose(at.grad, 0)
        assert np.allclose(bt.grad, 1)

    def test_backward_slices_at_channel_offsets(self):
        rng = np.random.default_rng(7)
        inputs = [T.Parameter(f"p{i}", rng.standard_normal((c, 3, 2))) for i, c in enumerate((2, 1, 3))]
        cat = T.concat_channels(inputs)
        g = rng.standard_normal(cat.shape)
        grads = cat.node.backward(g)
        assert [gr.shape[0] for gr in grads] == [2, 1, 3]
        for gr, lo in zip(grads, (0, 2, 3)):
            assert np.shares_memory(gr, g) and np.array_equal(gr, g[lo:lo + gr.shape[0]])
        assert cat.shape == (6, 3, 2)
        (one,) = T.concat_channels(inputs[:1]).node.backward(g[:2])
        assert np.array_equal(one, g[:2])


class TestResample:
    def test_downsample_shape(self):
        x = T.constant(np.random.default_rng(7).standard_normal((3, 8, 8)))
        w = T.constant(np.random.default_rng(8).standard_normal((6, 3, 2, 2)))
        assert T.downsample2(x, w).shape == (6, 4, 4)

    def test_round_trip_shape(self):
        rng = np.random.default_rng(9)
        x = T.constant(rng.standard_normal((4, 8, 8)))
        wd = T.constant(rng.standard_normal((8, 4, 2, 2)))
        wu = T.constant(rng.standard_normal((8, 4, 2, 2)))
        down = T.downsample2(x, wd)
        up = T.upsample2(down, wu)
        assert up.shape == x.shape

    def test_odd_extent_rejected(self):
        x = T.constant(np.zeros((1, 7, 8)))
        w = T.constant(np.zeros((2, 1, 2, 2)))
        with pytest.raises(ValueError):
            T.downsample2(x, w)

    def test_linearity(self):
        rng = np.random.default_rng(10)
        w = T.constant(rng.standard_normal((4, 2, 2, 2)))
        x = rng.standard_normal((2, 8, 8))
        y = rng.standard_normal((2, 8, 8))
        a, b = 1.7, -0.3
        lhs = T.downsample2(T.constant(a * x + b * y), w).data
        rhs = a * T.downsample2(T.constant(x), w).data + b * T.downsample2(T.constant(y), w).data
        assert np.allclose(lhs, rhs, atol=1e-12)
        wu = T.constant(rng.standard_normal((2, 4, 2, 2)))
        lhs = T.upsample2(T.constant(a * x + b * y), wu).data
        rhs = a * T.upsample2(T.constant(x), wu).data + b * T.upsample2(T.constant(y), wu).data
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_transpose_is_exact_adjoint(self):
        rng = np.random.default_rng(11)
        w = T.constant(rng.standard_normal((3, 2, 2, 2)))
        x = rng.standard_normal((3, 4, 4))
        y = rng.standard_normal((2, 8, 8))
        ax = T.conv_transpose2d(T.constant(x), w, stride=2).data
        # adjoint of transposed conv is the strided conv with the same weights
        aty = T.conv2d(T.constant(y), T.constant(w.data), stride=2).data
        assert abs(np.vdot(ax, y) - np.vdot(x, aty)) < 1e-10 * abs(np.vdot(ax, y))


class TestPad:
    def test_reflect_grad(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((2, 5, 6))
        wsum = rng.standard_normal((2, 9, 10))
        xt = T.Parameter("x", x)
        T.sum_all(T.mul(T.pad_reflect(xt, 2), T.constant(wsum))).backward()
        fd = finite_diff_grad(
            lambda a: float((np.pad(a, ((0, 0), (2, 2), (2, 2)), mode="reflect") * wsum).sum()),
            x.copy())
        assert rel_err(xt.grad, fd) < 1e-6

    def test_crop_inverse_of_zero_pad(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((1, 4, 5))
        padded = T.pad_zero(T.constant(x), (1, 2, 3, 0))
        back = T.crop2d(padded, 1, 3, 4, 5)
        assert np.array_equal(back.data, x)


class TestAdam:
    def test_first_step_analytic(self):
        p = T.Parameter("p", [0.0])
        p.grad = np.array([1.0])
        opt = T.AdamOptimizer([p], lr=0.1)
        opt.step()
        assert abs(p.data[0] + 0.1) < 1e-6

    def test_zero_grad_no_motion(self):
        p = T.Parameter("p", [1.5])
        p.zero_grad()
        opt = T.AdamOptimizer([p], lr=0.1)
        opt.step()
        assert p.data[0] == 1.5

    def test_missing_grad_raises(self):
        p = T.Parameter("p", [1.5])
        opt = T.AdamOptimizer([p], lr=0.1)
        with pytest.raises(ValueError):
            opt.step()

    def test_converges_on_quadratic(self):
        p = T.Parameter("theta", [0.0])
        opt = T.AdamOptimizer([p], lr=0.1)
        for _ in range(200):
            opt.descend([T.square(p - T.constant(3.0))], "a quadratic")
        assert abs(p.data[0] - 3.0) < 1e-2

    @staticmethod
    def two_losses(p, refs):
        """Two scalar losses of ``p``, each built only when asked for: a
        weak reference to each one's inner node lands in ``refs``, and
        building one asserts that every earlier tape is gone."""
        for c in (1.5, -0.5):
            assert all(r() is None for r in refs)
            inner = p * T.constant(c)
            refs.append(weakref.ref(inner.data))
            yield T.sum_all(T.square(inner))
            del inner

    def test_descend_is_the_written_out_step(self):
        ps = [T.Parameter("p", [2.0, -1.0]) for _ in range(2)]
        opts = [T.AdamOptimizer([p], lr=0.1) for p in ps]
        total = 0.0
        ps[0].zero_grad()
        for loss in self.two_losses(ps[0], []):
            loss.backward()
            total += loss.item()
            del loss
        opts[0].step()
        assert opts[1].descend(self.two_losses(ps[1], []), "two losses") == total
        assert np.array_equal(ps[1].data, ps[0].data) and np.array_equal(ps[1].grad, ps[0].grad)

    def test_descend_frees_each_tape_before_the_next(self):
        p = T.Parameter("p", [2.0, -1.0])
        refs = []
        T.AdamOptimizer([p], lr=0.1).descend(self.two_losses(p, refs), "two losses")
        assert len(refs) == 2 and refs[-1]() is None

    def test_descend_refuses_a_non_finite_total_before_any_update(self):
        p = T.Parameter("p", [1.5])
        opt = T.AdamOptimizer([p], lr=0.1)
        opt.descend([T.square(p)], "a square")
        held, before = p.data, p.data.copy()
        with pytest.warns(RuntimeWarning), \
                pytest.raises(RuntimeError, match="^a product diverged at step 1: loss inf$"):
            opt.descend([T.square(p), p * T.constant(1e308) * T.constant(1e10)], "a product")
        assert p.data is held and np.array_equal(held, before) and opt.t == 1

    def test_step_never_writes_a_held_array(self):
        # finetune's best snapshot holds the arrays themselves, not copies
        p = T.Parameter("p", [1.5, -2.0])
        p.grad = np.array([1.0, -3.0])
        held, before = p.data, p.data.copy()
        T.AdamOptimizer([p], lr=0.1).step()
        assert p.data is not held and np.array_equal(held, before)
        assert not np.array_equal(p.data, before)


class TestProperties:
    def test_homogeneity_of_conv_relu_stack(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((2, 8, 8))
        w1 = T.constant(rng.standard_normal((4, 2, 3, 3)))
        w2 = T.constant(rng.standard_normal((2, 4, 3, 3)))

        def net(arr):
            h = T.conv2d(T.constant(arr), w1, padding="zero", pad=1)
            h = T.relu(h)
            return T.conv2d(h, w2, padding="zero", pad=1).data

        for alpha in (0.5, 2.0, 10.0):
            out = net(alpha * x)
            ref = alpha * net(x)
            assert rel_err(out, ref) < 1e-10

    @pytest.mark.parametrize("trial", range(5))
    def test_random_op_gradcheck(self, trial):
        rng = np.random.default_rng(100 + trial)
        x = rng.standard_normal((2, 6, 6))
        w = rng.standard_normal((3, 2, 3, 3))
        xt = T.Parameter("x", x)
        wt = T.Parameter("w", w)
        h = T.conv2d(xt, wt, padding="reflect", pad=1)
        h = T.relu(h)
        loss = T.sum_all(T.abs_val(h))
        loss.backward()

        def f(xa):
            hh = T.conv2d(T.constant(xa), T.constant(w), padding="reflect", pad=1)
            return float(np.abs(np.maximum(hh.data, 0)).sum())

        fd = finite_diff_grad(f, x.copy())
        assert rel_err(xt.grad, fd) < 1e-4
