import warnings

import numpy as np
import pytest

from reconkit import cli
from reconkit import operators as ops
from reconkit import tnsr
from reconkit.metrics import psnr, ssim
from reconkit.noise import NoiseParams
from reconkit.problem import (ProblemInstance, load_instance, operator_from_spec,
                              operator_to_spec, save_instance)


class TestTnsrContainer:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(5,), (3, 4), (2, 3, 4), (1, 2, 3, 4)])
    def test_round_trip_bit_exact(self, tmp_path, dtype, shape):
        rng = np.random.default_rng(0)
        arr = rng.standard_normal(shape).astype(dtype)
        p = tmp_path / "a.tnsr"
        tnsr.save_tensors(p, {"w": arr})
        back = tnsr.load_tensors(p)["w"]
        assert back.dtype == arr.dtype
        assert np.array_equal(back.view(np.uint8), arr.view(np.uint8))

    def test_multiple_entries_and_names(self, tmp_path):
        entries = {"conv.weight": np.ones((2, 2)), "eta": np.array(0.5),
                   "config.num_scales": np.array(3.0)}
        p = tmp_path / "b.tnsr"
        tnsr.save_tensors(p, entries)
        back = tnsr.load_tensors(p)
        assert set(back) == set(entries)
        for k in entries:
            assert np.array_equal(back[k], np.asarray(entries[k], dtype=np.float64))

    def test_byte_reproducible(self, tmp_path):
        rng = np.random.default_rng(1)
        entries = {"b": rng.random((3, 3)), "a": rng.random(4)}
        p1, p2 = tmp_path / "x.tnsr", tmp_path / "y.tnsr"
        tnsr.save_tensors(p1, entries)
        tnsr.save_tensors(p2, dict(reversed(list(entries.items()))))
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_at_every_byte_raises_value_error(self, tmp_path):
        p = tmp_path / "full.tnsr"
        tnsr.save_tensors(p, {"a": np.arange(6.0).reshape(2, 3), "eta": np.array(0.5),
                              "b": np.ones(3, dtype=np.float32)})
        raw = p.read_bytes()
        cut = tmp_path / "cut.tnsr"
        for end in range(len(raw)):
            cut.write_bytes(raw[:end])
            with pytest.raises(ValueError):
                tnsr.load_tensors(cut)

    def test_inflated_extent_raises_before_allocating(self, tmp_path):
        p = tmp_path / "big.tnsr"
        tnsr.save_tensors(p, {"x": np.zeros((1, 4, 4))})
        raw = bytearray(p.read_bytes())
        # entry header: magic, version, count, name length, "x", dtype, ndim
        extent = 4 + 1 + 4 + 2 + 1 + 2
        raw[extent:extent + 4] = (0xFFFFFFFF).to_bytes(4, "little")
        p.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="truncated"):
            tnsr.load_tensors(p)

    def test_cli_truncated_file_exit_2(self, tmp_path, capsys):
        p = tmp_path / "x.tnsr"
        tnsr.save_tensors(p, {"x": np.zeros((1, 8, 8))})
        p.write_bytes(p.read_bytes()[:10])
        assert cli.main(["eval", "--pred", str(p), "--ref", str(p)]) == 2
        assert "error: truncated file" in capsys.readouterr().err

    def test_header_layout(self, tmp_path):
        p = tmp_path / "h.tnsr"
        tnsr.save_tensors(p, {"q": np.zeros(2)})
        raw = p.read_bytes()
        assert raw[:4] == b"TNSR"
        assert raw[4] == 1
        assert int.from_bytes(raw[5:9], "little") == 1
        assert int.from_bytes(raw[9:11], "little") == 1
        assert raw[11:12] == b"q"

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.tnsr"
        p.write_bytes(b"NOPE" + bytes(16))
        with pytest.raises(ValueError):
            tnsr.load_tensors(p)

    def test_bad_version(self, tmp_path):
        p = tmp_path / "v.tnsr"
        tnsr.save_tensors(p, {"a": np.zeros(1)})
        raw = bytearray(p.read_bytes())
        raw[4] = 9
        p.write_bytes(bytes(raw))
        with pytest.raises(ValueError):
            tnsr.load_tensors(p)

    def test_truncated(self, tmp_path):
        p = tmp_path / "t.tnsr"
        tnsr.save_tensors(p, {"a": np.arange(8.0)})
        p.write_bytes(p.read_bytes()[:-5])
        with pytest.raises(ValueError):
            tnsr.load_tensors(p)


class TestImageExport:
    def test_pgm_bytes(self, tmp_path):
        img = np.array([[0.0, 0.5], [1.0, 2.0]])  # 2.0 clips to 255
        p = tmp_path / "i.pgm"
        tnsr.write_pgm(p, img)
        raw = p.read_bytes()
        assert raw == b"P5\n2 2\n255\n" + bytes([0, 128, 255, 255])

    def test_pgm_accepts_single_channel_3d(self, tmp_path):
        p = tmp_path / "c.pgm"
        tnsr.write_pgm(p, np.zeros((1, 3, 4)))
        assert p.read_bytes().startswith(b"P5\n4 3\n255\n")

    def test_ppm_bytes(self, tmp_path):
        img = np.zeros((3, 1, 2))
        img[0, 0, 0] = 1.0  # red pixel first
        p = tmp_path / "i.ppm"
        tnsr.write_ppm(p, img)
        assert p.read_bytes() == b"P6\n2 1\n255\n" + bytes([255, 0, 0, 0, 0, 0])

    def test_wrong_channel_counts(self, tmp_path):
        with pytest.raises(ValueError):
            tnsr.write_pgm(tmp_path / "x.pgm", np.zeros((2, 4, 4)))
        with pytest.raises(ValueError):
            tnsr.write_ppm(tmp_path / "x.ppm", np.zeros((2, 4, 4)))


class TestPsnr:
    def test_identical_capped(self):
        a = np.random.default_rng(2).random((1, 8, 8))
        assert psnr(a, a) == 99.0

    def test_twenty_db_arithmetic(self):
        # uniform offset 0.1 on unit range: mse = 0.01 -> 20 dB
        a = np.full((4, 4), 0.5)
        assert psnr(a, a + 0.1) == pytest.approx(20.0, abs=1e-10)

    def test_data_range(self):
        a = np.full((4, 4), 0.5)
        assert psnr(a, a + 0.1, data_range=2.0) == pytest.approx(
            20.0 + 20.0 * np.log10(2.0), abs=1e-10)

    def test_ordering(self):
        rng = np.random.default_rng(3)
        a = rng.random((1, 16, 16))
        assert psnr(a, a + 0.01) > psnr(a, a + 0.1)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            psnr(np.zeros((2, 2)), np.zeros((3, 3)))

    def test_overflowing_squares_stay_finite(self):
        # 1e200 squared overflows; the scaled difference gives what 1e100
        # gives, 2000 dB lower for each 1e100 of error
        a = np.zeros((1, 4, 4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert psnr(a, np.full_like(a, 1e200)) == pytest.approx(-4000.0, abs=1e-9)
        assert psnr(a, np.full_like(a, 1e100)) == -2000.0


class TestSsim:
    def test_identical_is_one(self):
        a = np.random.default_rng(4).random((1, 20, 20))
        assert ssim(a, a) == pytest.approx(1.0)

    def test_range_and_ordering(self):
        rng = np.random.default_rng(5)
        a = rng.random((1, 32, 32))
        small = ssim(a, a + 0.01 * rng.standard_normal(a.shape))
        big = ssim(a, a + 0.3 * rng.standard_normal(a.shape))
        assert -1.0 <= big < small <= 1.0

    def test_direct_formula_oracle(self):
        # recompute one interior pixel's SSIM value from the definition
        rng = np.random.default_rng(6)
        x = rng.random((24, 24))
        y = rng.random((24, 24))
        r = np.arange(11) - 5
        g = np.exp(-0.5 * (r / 1.5) ** 2)
        win = np.outer(g, g)
        win /= win.sum()
        c1, c2 = 0.01 ** 2, 0.03 ** 2
        vals = np.zeros((24, 24))
        for i in range(5, 19):
            for j in range(5, 19):
                px = x[i - 5:i + 6, j - 5:j + 6]
                py = y[i - 5:i + 6, j - 5:j + 6]
                mx, my = (win * px).sum(), (win * py).sum()
                vx = (win * px * px).sum() - mx ** 2
                vy = (win * py * py).sum() - my ** 2
                cv = (win * px * py).sum() - mx * my
                vals[i, j] = ((2 * mx * my + c1) * (2 * cv + c2) /
                              ((mx ** 2 + my ** 2 + c1) * (vx + vy + c2)))
        # compare against the library's per-pixel map via a localized probe:
        # the interior average of our brute-force map must match the interior
        # average extracted from the implementation's windowed statistics
        import scipy.ndimage as ndi

        def ssim_map(x, y):
            mu_x = ndi.correlate(x, win, mode="reflect")
            mu_y = ndi.correlate(y, win, mode="reflect")
            var_x = ndi.correlate(x * x, win, mode="reflect") - mu_x ** 2
            var_y = ndi.correlate(y * y, win, mode="reflect") - mu_y ** 2
            cov = ndi.correlate(x * y, win, mode="reflect") - mu_x * mu_y
            return ((2 * mu_x * mu_y + c1) * (2 * cov + c2) /
                    ((mu_x ** 2 + mu_y ** 2 + c1) * (var_x + var_y + c2)))

        impl_map = ssim_map(x, y)
        assert np.allclose(vals[5:19, 5:19], impl_map[5:19, 5:19], atol=1e-10)
        assert ssim(x, y) == pytest.approx(float(impl_map.mean()), abs=1e-12)
        # images smaller than the window are where border conventions part
        for shape in [(1, 5, 7), (1, 3, 3), (1, 1, 9), (2, 16, 16)]:
            a = rng.random(shape)
            b = np.clip(a + 0.2 * rng.standard_normal(shape), 0, 1)
            ref = np.mean([ssim_map(ca, cb).mean() for ca, cb in zip(a, b)])
            assert ssim(a, b) == pytest.approx(float(ref), abs=1e-12), shape

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            ssim(np.zeros((2, 8, 8)), np.zeros((1, 8, 8)))


class TestOperatorSpecs:
    SHAPE = (1, 16, 16)

    def roundtrip(self, op):
        spec, arrays = operator_to_spec(op)
        return operator_from_spec(spec, arrays, op.range_shape)

    def check_same_action(self, a, b):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(a.domain_shape)
        assert np.allclose(a.apply(x), b.apply(x), atol=1e-12)
        assert a.range_shape == b.range_shape

    def test_identity(self):
        self.check_same_action(*2 * (self.roundtrip(ops.identity_operator(self.SHAPE)),))

    def test_blur(self):
        op = ops.make_blur(ops.make_gaussian_kernel(1.2, size=7), self.SHAPE)
        self.check_same_action(op, self.roundtrip(op))

    def test_inpainting(self):
        op = ops.make_inpainting(ops.make_bernoulli_mask(self.SHAPE, 0.6, seed=8))
        self.check_same_action(op, self.roundtrip(op))

    def test_mri(self):
        shape = (2, 16, 16)
        op = ops.make_mri(ops.make_mri_mask(shape, 4, seed=9), shape)
        self.check_same_action(op, self.roundtrip(op))

    def test_multicoil_mri(self):
        shape = (2, 16, 16)
        smaps = ops.make_sensitivity_maps(3, shape, seed=10)
        op = ops.make_multicoil_mri(ops.make_mri_mask(shape, 4, seed=11),
                                    smaps, shape)
        self.check_same_action(op, self.roundtrip(op))

    def test_ct(self):
        op = ops.make_ct_radon(10, self.SHAPE)
        self.check_same_action(op, self.roundtrip(op))

    def test_downsampling(self):
        op = ops.make_downsampling(2, "bicubic", self.SHAPE)
        self.check_same_action(op, self.roundtrip(op))

    def test_compressed_sensing(self):
        sign, keep = ops.make_cs_pattern(self.SHAPE, 4, seed=12)
        op = ops.make_compressed_sensing(sign, keep, self.SHAPE)
        self.check_same_action(op, self.roundtrip(op))

    def test_demosaic(self):
        op = ops.make_demosaic((3, 16, 16))
        self.check_same_action(op, self.roundtrip(op))

    def test_registry_range_shapes(self):
        # each kind's range_shape, which load_instance checks before it
        # builds anything, is the range of the operator it builds
        sign, keep = ops.make_cs_pattern((2, 9, 7), 3, seed=14)
        for op in (ops.identity_operator((2, 9, 7)),
                   ops.make_blur(ops.make_gaussian_kernel(1.0, size=5), (3, 13, 11)),
                   ops.make_inpainting(ops.make_bernoulli_mask((1, 9, 7), 0.5, seed=15)),
                   ops.make_mri(ops.make_mri_mask((2, 9, 7), 3, seed=16), (2, 9, 7)),
                   ops.make_multicoil_mri(ops.make_mri_mask((2, 9, 7), 3, seed=17),
                                          ops.make_sensitivity_maps(3, (2, 9, 7), seed=18),
                                          (2, 9, 7)),
                   ops.make_ct_radon(5, (2, 9, 9)),
                   ops.make_downsampling(4, "bilinear", (1, 12, 8)),
                   ops.make_compressed_sensing(sign, keep, (2, 9, 7)),
                   ops.make_demosaic((3, 10, 8))):
            spec, arrays = operator_to_spec(op)
            kind = ops.KINDS[op.kind]
            assert kind.range_shape(op.domain_shape, op.spec, op.arrays) == op.range_shape, op.kind
            assert operator_from_spec(spec, arrays, op.range_shape).key == op.key
            wrong = op.range_shape[:-1] + (op.range_shape[-1] + 1,)
            with pytest.raises(ValueError, match="measurement shape"):
                operator_from_spec(spec, arrays, wrong)

    @pytest.mark.parametrize("kind,shape,arrays", [
        ("multicoil_mri", [2, 8, 8], {"op.mask": np.ones((8, 8)), "op.smaps": np.array(1.0)}),
        ("multicoil_mri", [2, 8, 8], {"op.mask": np.ones((8, 8)),
                                      "op.smaps": np.ones((2, 2, 8, 6))}),
        ("compressed_sensing", [1, 8, 8], {"op.sign_mask": np.ones((8, 8)),
                                           "op.keep_indices": np.array(3.0)}),
        ("compressed_sensing", [1, 8, 8], {"op.sign_mask": np.ones((8, 8)),
                                           "op.keep_indices": np.arange(4.0).reshape(2, 2)}),
    ], ids=["smaps_scalar", "smaps_shape", "keep_scalar", "keep_2d"])
    def test_malformed_arrays_refused(self, kind, shape, arrays):
        # whether the measurement's shape fails the range check or passes it
        # and reaches the builder, a ValueError, which the CLI reports as
        # exit 2, not an IndexError or TypeError traceback
        for range_shape in ((1, 1), (1, 4)):
            with pytest.raises(ValueError):
                operator_from_spec({"kind": kind, "domain_shape": shape}, arrays, range_shape)

    def test_keep_indices_cast_only_when_integral(self):
        # a manifest stores keep indices as floats: integral ones load as
        # the handle they came from, and 0.5 is refused, not read as 0
        sign = np.ones((8, 8))
        op = ops.make_compressed_sensing(sign, [0, 1, 2], (1, 8, 8))
        spec = {"kind": "compressed_sensing", "domain_shape": [1, 8, 8]}
        arrays = {"op.sign_mask": sign, "op.keep_indices": np.array([0.0, 1.0, 2.0])}
        assert operator_from_spec(spec, arrays, (1, 3)).key == op.key
        for keep in ([0.5, 1.7, 2.2], [0.0, 1.0, np.nan], [True, False, True]):
            arrays["op.keep_indices"] = np.array(keep)
            with pytest.raises(ValueError, match="integers|non-finite"):
                operator_from_spec(spec, arrays, (1, 3))

    def test_duplicate_keep_indices_refused(self):
        # a manifest's keep indices go through the builder's check: a
        # repeated coefficient is refused wherever it sits in the list
        spec = {"kind": "compressed_sensing", "domain_shape": [1, 8, 8]}
        for keep in ([0.0, 1.0, 0.0], [63.0, 2.0, 63.0], [4.0, 4.0, 5.0]):
            arrays = {"op.sign_mask": np.ones((8, 8)), "op.keep_indices": np.array(keep)}
            with pytest.raises(ValueError, match="keep indices must be distinct"):
                operator_from_spec(spec, arrays, (1, 3))

    @pytest.mark.parametrize("name", ["kernel", "mask", "smaps", "sign_mask"])
    def test_non_finite_array_named(self, name):
        op = {"kernel": ops.make_blur(ops.make_gaussian_kernel(1.0, size=5), (1, 8, 8)),
              "mask": ops.make_inpainting(ops.make_bernoulli_mask((1, 8, 8), 0.5, seed=1)),
              "smaps": ops.make_multicoil_mri(ops.make_mri_mask((2, 8, 8), 2, seed=2),
                                              ops.make_sensitivity_maps(2, (2, 8, 8), seed=3),
                                              (2, 8, 8)),
              "sign_mask": ops.make_compressed_sensing(*ops.make_cs_pattern((1, 8, 8), 4, seed=4),
                                                       (1, 8, 8))}[name]
        spec, arrays = operator_to_spec(op)
        arrays[f"op.{name}"] = np.array(arrays[f"op.{name}"])
        arrays[f"op.{name}"].flat[1] = np.nan
        with pytest.raises(ValueError, match=f"'{name}' holds non-finite"):
            operator_from_spec(spec, arrays, op.range_shape)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            operator_from_spec({"kind": "warp", "domain_shape": [1, 8, 8]}, {}, (1, 8, 8))

    def test_round_trip_keeps_key(self):
        sign, keep = ops.make_cs_pattern(self.SHAPE, 4, seed=12)
        for op in (ops.identity_operator(self.SHAPE), ops.make_ct_radon(10, self.SHAPE),
                   ops.make_downsampling(2, "bilinear", self.SHAPE),
                   ops.make_compressed_sensing(sign, keep, self.SHAPE),
                   # normalized kernels whose sum is 1 only up to rounding
                   ops.make_blur(ops.make_gaussian_kernel(1.5, 5), self.SHAPE),
                   ops.make_blur(ops.make_motion_kernel(0.6, 0.5, 7, seed=3), self.SHAPE)):
            assert self.roundtrip(op).key == op.key

    def test_derived_operators_refused(self):
        # a normalized handle must not serialize as its unscaled base
        blur = ops.make_blur(ops.make_gaussian_kernel(1.2, size=7), self.SHAPE)
        for op in (ops.normalize(blur), ops.make_coarse(blur, 0),
                   ops.compose(blur, ops.identity_operator(self.SHAPE))):
            assert op.key is None
            with pytest.raises(ValueError):
                operator_to_spec(op)


class TestInstanceFiles:
    def make_inst(self, with_gt=True):
        rng = np.random.default_rng(13)
        op = ops.make_inpainting(ops.make_bernoulli_mask((1, 12, 12), 0.7, seed=14))
        x = rng.random((1, 12, 12))
        y = op.apply(x) + 0.05 * rng.standard_normal(op.range_shape)
        return ProblemInstance(op=op, y=y, noise=NoiseParams(sigma=0.05),
                               x=x if with_gt else None, seed=42)

    def test_round_trip(self, tmp_path):
        inst = self.make_inst()
        p = tmp_path / "inst.json"
        save_instance(p, inst)
        back = load_instance(p)
        assert np.array_equal(back.y, inst.y)
        assert np.array_equal(back.x, inst.x)
        assert back.noise == inst.noise
        assert back.seed == 42
        self_check = np.random.default_rng(15).standard_normal(inst.op.domain_shape)
        assert np.allclose(back.op.apply(self_check), inst.op.apply(self_check))

    def test_no_ground_truth(self, tmp_path):
        inst = self.make_inst(with_gt=False)
        p = tmp_path / "blind.json"
        save_instance(p, inst)
        back = load_instance(p)
        assert back.x is None
        import json
        assert json.load(open(p))["has_ground_truth"] is False

    def test_byte_reproducible_manifest(self, tmp_path):
        inst = self.make_inst()
        d1, d2 = tmp_path / "run1", tmp_path / "run2"
        d1.mkdir()
        d2.mkdir()
        save_instance(d1 / "inst.json", inst)
        save_instance(d2 / "inst.json", inst)
        assert (d1 / "inst.json").read_bytes() == (d2 / "inst.json").read_bytes()
        assert (d1 / "inst.tnsr").read_bytes() == (d2 / "inst.tnsr").read_bytes()

    def test_shape_inconsistency_detected(self, tmp_path):
        inst = self.make_inst()
        p = tmp_path / "inst.json"
        save_instance(p, inst)
        entries = tnsr.load_tensors(tmp_path / "inst.tnsr")
        entries["y"] = entries["y"][:, :6, :]
        tnsr.save_tensors(tmp_path / "inst.tnsr", entries)
        with pytest.raises(ValueError):
            load_instance(p)
