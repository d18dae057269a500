import contextlib
import hashlib
import io
import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import reconkit
from reconkit import cli, tnsr
from reconkit import operators as ops
from reconkit import train as tr
from reconkit.model import RamConfig, RamModel
from reconkit.noise import NoiseParams
from reconkit.problem import ProblemInstance, load_instance, save_instance

GOLDEN = pathlib.Path(__file__).parent / "data"

# a manifest value that marks its key for deletion
DELETE = object()

TINY = RamConfig(num_scales=1, base_width=4, blocks=1, krylov_depth=1,
                 head_channels=(1,), seed=0)


@pytest.fixture
def clean_image(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.random((1, 16, 16))
    p = tmp_path / "x.tnsr"
    tnsr.save_tensors(p, {"x": x})
    return p, x


@pytest.fixture
def tiny_ckpt(tmp_path):
    p = tmp_path / "model.tnsr"
    RamModel(TINY).save_checkpoint(p)
    return p


class TestEval:
    def test_identical_files(self, tmp_path, capsys):
        a = np.random.default_rng(1).random((1, 16, 16))
        pa, pb = tmp_path / "a.tnsr", tmp_path / "b.tnsr"
        tnsr.save_tensors(pa, {"xhat": a})
        tnsr.save_tensors(pb, {"x": a})
        code = cli.main(["eval", "--pred", str(pa), "--ref", str(pb),
                         "--metrics", "psnr,ssim"])
        out = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        assert out[0] == "metric,value"
        assert out[1] == "psnr,99.0"
        assert out[2] == "ssim,1.0"

    def test_single_entry_container(self, tmp_path, capsys):
        # no preferred entry name: the only entry is the image
        a = np.random.default_rng(1).random((1, 16, 16))
        pa, pb = tmp_path / "a.tnsr", tmp_path / "b.tnsr"
        tnsr.save_tensors(pa, {"recon": a})
        tnsr.save_tensors(pb, {"x": a})
        assert cli.main(["eval", "--pred", str(pa), "--ref", str(pb), "--metrics", "psnr"]) == 0
        assert capsys.readouterr().out.strip().splitlines()[1] == "psnr,99.0"

    def test_ambiguous_container_exit_2(self, tmp_path, capsys):
        a = np.zeros((1, 8, 8))
        tnsr.save_tensors(tmp_path / "a.tnsr", {"recon": a, "ref": a})
        tnsr.save_tensors(tmp_path / "b.tnsr", {"x": a})
        assert cli.main(["eval", "--pred", str(tmp_path / "a.tnsr"),
                         "--ref", str(tmp_path / "b.tnsr")]) == 2
        assert "ambiguous container" in capsys.readouterr().err

    def test_shape_mismatch_exit_2(self, tmp_path):
        tnsr.save_tensors(tmp_path / "a.tnsr", {"x": np.zeros((1, 8, 8))})
        tnsr.save_tensors(tmp_path / "b.tnsr", {"x": np.zeros((1, 9, 9))})
        assert cli.main(["eval", "--pred", str(tmp_path / "a.tnsr"),
                         "--ref", str(tmp_path / "b.tnsr")]) == 2

    def test_unknown_metric_exit_2(self, tmp_path):
        tnsr.save_tensors(tmp_path / "a.tnsr", {"x": np.zeros((1, 8, 8))})
        assert cli.main(["eval", "--pred", str(tmp_path / "a.tnsr"),
                         "--ref", str(tmp_path / "a.tnsr"),
                         "--metrics", "vmaf"]) == 2

    def test_missing_file_exit_2(self, tmp_path):
        assert cli.main(["eval", "--pred", str(tmp_path / "no.tnsr"),
                         "--ref", str(tmp_path / "no.tnsr")]) == 2

    def test_directory_path_exit_2(self, tmp_path):
        assert cli.main(["eval", "--pred", str(tmp_path), "--ref", str(tmp_path)]) == 2


class TestUsageErrors:
    def test_unknown_subcommand(self):
        assert cli.main(["transmogrify"]) == 1

    def test_missing_required_flag(self):
        assert cli.main(["simulate", "--task", "denoising"]) == 1


class TestSimulate:
    def test_deterministic_files(self, tmp_path, clean_image):
        p, _ = clean_image
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        d1.mkdir()
        d2.mkdir()
        for d in (d1, d2):
            assert cli.main(["simulate", "--task", "inpainting", "--in", str(p),
                             "--out", str(d / "inst.json"), "--seed", "7"]) == 0
        assert (d1 / "inst.json").read_bytes() == (d2 / "inst.json").read_bytes()
        assert (d1 / "inst.tnsr").read_bytes() == (d2 / "inst.tnsr").read_bytes()

    def test_seed_changes_output(self, tmp_path, clean_image):
        p, _ = clean_image
        cli.main(["simulate", "--task", "denoising", "--in", str(p),
                  "--out", str(tmp_path / "a.json"), "--seed", "1"])
        cli.main(["simulate", "--task", "denoising", "--in", str(p),
                  "--out", str(tmp_path / "b.json"), "--seed", "2"])
        ya = load_instance(tmp_path / "a.json").y
        yb = load_instance(tmp_path / "b.json").y
        assert not np.array_equal(ya, yb)

    def test_task_spec_file(self, tmp_path, clean_image):
        p, x = clean_image
        spec = tmp_path / "task.json"
        spec.write_text(json.dumps({"kind": "blur", "sigma_range": 0.02,
                                    "params": {"sigma_blur": 0.8, "kernel_size": 5}}))
        assert cli.main(["simulate", "--task", str(spec), "--in", str(p),
                         "--out", str(tmp_path / "inst.json")]) == 0
        inst = load_instance(tmp_path / "inst.json")
        assert inst.op.kind == "blur"
        assert np.array_equal(inst.x, x)

    @pytest.mark.parametrize("doc", [[1], "blur", None,
                                     {"kind": "blur", "params": {"kernel_size": 1001}},
                                     {"kind": "identity", "sigma_range": [-0.1, 0.1]},
                                     {"kind": "identity", "sigma_range": [0.05, 0.01]},
                                     {"kind": "identity", "gamma_range": [0.1, 0.2, 0.3]}],
                             ids=["list", "string", "null", "kernel_too_large",
                                  "negative_sigma", "reversed_sigma", "three_gammas"])
    def test_malformed_task_file_exit_2(self, tmp_path, clean_image, capsys, doc):
        p, _ = clean_image
        task = tmp_path / "task.json"
        task.write_text(json.dumps(doc))
        capsys.readouterr()
        assert cli.main(["simulate", "--task", str(task), "--in", str(p),
                         "--out", str(tmp_path / "inst.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_unknown_task_exit_2(self, tmp_path, clean_image):
        p, _ = clean_image
        assert cli.main(["simulate", "--task", "hologram", "--in", str(p),
                         "--out", str(tmp_path / "o.json")]) == 2


class TestReconstructAndUq:
    def simulate(self, tmp_path, clean_image, task="inpainting"):
        p, _ = clean_image
        inst = tmp_path / "inst.json"
        assert cli.main(["simulate", "--task", task, "--in", str(p),
                         "--out", str(inst), "--seed", "3"]) == 0
        return inst

    def test_reconstruct_outputs(self, tmp_path, clean_image, tiny_ckpt):
        inst = self.simulate(tmp_path, clean_image)
        out = tmp_path / "xhat.tnsr"
        pgm = tmp_path / "xhat.pgm"
        assert cli.main(["reconstruct", "--model", str(tiny_ckpt),
                         "--instance", str(inst), "--out", str(out),
                         "--export-pgm", str(pgm)]) == 0
        xhat = tnsr.load_tensors(out)["xhat"]
        assert xhat.shape == (1, 16, 16)
        assert np.all(np.isfinite(xhat))
        assert pgm.read_bytes().startswith(b"P5\n16 16\n255\n")

    def test_reconstruct_byte_reproducible(self, tmp_path, clean_image, tiny_ckpt):
        inst = self.simulate(tmp_path, clean_image)
        o1, o2 = tmp_path / "a.tnsr", tmp_path / "b.tnsr"
        for o in (o1, o2):
            assert cli.main(["reconstruct", "--model", str(tiny_ckpt),
                             "--instance", str(inst), "--out", str(o)]) == 0
        assert o1.read_bytes() == o2.read_bytes()

    def test_nan_model_exit_3(self, tmp_path, clean_image):
        inst = self.simulate(tmp_path, clean_image)
        model = RamModel(TINY)
        model.param("head1.conv_out").data[:] = np.nan
        bad = tmp_path / "bad.tnsr"
        model.save_checkpoint(bad)
        assert cli.main(["reconstruct", "--model", str(bad),
                         "--instance", str(inst),
                         "--out", str(tmp_path / "x.tnsr")]) == 3

    def instance(self, tmp_path, clean_image, task):
        """A simulated instance, or for CT (no built-in task) one saved
        directly."""
        if task != "ct":
            return self.simulate(tmp_path, clean_image, task)
        _, x = clean_image
        op = ops.make_ct_radon(4, x.shape)
        inst = tmp_path / "inst.json"
        save_instance(inst, ProblemInstance(op=op, y=op.apply(x), noise=NoiseParams(0.01), x=x))
        return inst

    @pytest.mark.parametrize("task,path,value", [
        ("inpainting", ("operator", "domain_shape"), [1, 16]),
        ("inpainting", ("operator", "domain_shape"), [1, 16.5, 16]),
        ("inpainting", ("operator", "domain_shape"), [2, 16, 16]),
        ("inpainting", ("seed",), -1),
        ("inpainting", ("seed",), None),
        ("inpainting", ("operator", "domain_shape"), None),
        ("inpainting", ("noise", "sigma"), None),
        ("ct", ("operator", "num_angles"), None),
        ("ct", ("operator", "num_angles"), "4"),
        ("ct", ("operator", "num_angles"), 0),
        ("downsampling", ("operator", "factor"), None),
        ("downsampling", ("operator", "filter"), 2),
        ("inpainting", ("operator", "kind"), ["x"]),
        ("inpainting", ("operator", "extra"), 1),
        ("inpainting", ("operator",), "blur"),
        ("inpainting", ("data",), None),
        ("inpainting", ("data",), ""),
        ("inpainting", ("noise",), None),
        ("inpainting", (), ["inst.tnsr"]),
        ("inpainting", ("noise", "sigma"), 10 ** 400),
        ("inpainting", ("noise", "extra"), 0.1),
        ("inpainting", ("extra",), 1),
        ("inpainting", ("has_ground_truth",), "x"),
        ("inpainting", ("noise", "gamma"), DELETE),
        ("inpainting", ("noise", "sigma"), DELETE),
        ("inpainting", ("operator",), DELETE),
        ("inpainting", ("data",), DELETE),
        ("ct", ("operator", "num_angles"), DELETE),
    ], ids=["shape_rank2", "shape_float", "shape_mismatch", "seed_negative", "seed_null",
            "shape_null", "sigma_null", "angles_null", "angles_string", "angles_zero",
            "factor_null", "filter_int", "kind_list", "extra_field", "operator_string",
            "data_null", "data_empty", "noise_null", "top_level_list", "sigma_huge",
            "noise_unknown_key", "top_level_unknown_key", "ground_truth_string",
            "gamma_missing", "sigma_missing", "operator_missing", "data_missing",
            "angles_missing"])
    def test_malformed_manifest_exit_2(self, tmp_path, clean_image, tiny_ckpt, capsys,
                                       task, path, value):
        inst = self.instance(tmp_path, clean_image, task)
        manifest = json.loads(inst.read_text())
        if path:
            node = manifest
            for key in path[:-1]:
                node = node[key]
            if value is DELETE:
                del node[path[-1]]
            else:
                node[path[-1]] = value
        else:
            manifest = value
        inst.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert cli.main(["reconstruct", "--model", str(tiny_ckpt), "--instance", str(inst),
                         "--out", str(tmp_path / "x.tnsr")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_large_domain_claim_refused_before_build(self, tmp_path, clean_image, tiny_ckpt,
                                                     capsys):
        # a 16x16 downsampling instance whose manifest claims a 4096x4096
        # domain is refused on its measurement's shape before any
        # decimation matrix is built (tracemalloc, not ru_maxrss: a
        # process's high-water mark may already lie above what a build adds)
        inst = self.simulate(tmp_path, clean_image, "downsampling")
        manifest = json.loads(inst.read_text())
        manifest["operator"]["domain_shape"] = [1, 4096, 4096]
        inst.write_text(json.dumps(manifest))
        capsys.readouterr()
        tracemalloc.start()
        try:
            code = cli.main(["reconstruct", "--model", str(tiny_ckpt), "--instance", str(inst),
                             "--out", str(tmp_path / "x.tnsr")])
            peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
        finally:
            tracemalloc.stop()
        assert code == 2 and "measurement shape" in capsys.readouterr().err
        assert peak < 5, f"refusing the claim allocated {peak:.1f} MB"

    @pytest.mark.parametrize("name,value", [
        ("kernel", np.nan), ("mask", np.nan), ("keep_indices", [0.5, 1.7, 2.2]),
    ], ids=["kernel_nan", "mask_nan", "keep_fraction"])
    def test_bad_operator_array_exit_2(self, tmp_path, clean_image, capsys, name, value):
        # refused where the operator is built, with the array named; a
        # fractional keep index is not read as the integer below it
        _, x = clean_image
        op = {"kernel": lambda: ops.make_blur(ops.make_gaussian_kernel(1.0, 5), x.shape),
              "mask": lambda: ops.make_mri(ops.make_mri_mask((2, 16, 16), 4, seed=0), (2, 16, 16)),
              "keep_indices": lambda: ops.make_compressed_sensing(np.ones((16, 16)), [0, 1, 2],
                                                                  x.shape)}[name]()
        ckpt, inst = tmp_path / "model.tnsr", tmp_path / "inst.json"
        RamModel(RamConfig(num_scales=1, base_width=4, blocks=1, krylov_depth=1,
                           head_channels=(1, 2), seed=0)).save_checkpoint(ckpt)
        save_instance(inst, ProblemInstance(op=op, y=op.apply(np.resize(x, op.domain_shape)),
                                            noise=NoiseParams(0.01)))
        data = tmp_path / "inst.tnsr"
        entries = tnsr.load_tensors(data)
        if np.ndim(value):
            entries[f"op.{name}"] = np.array(value)
        else:
            entries[f"op.{name}"].flat[0] = value
        tnsr.save_tensors(data, entries)
        capsys.readouterr()
        assert cli.main(["reconstruct", "--model", str(ckpt), "--instance", str(inst),
                         "--out", str(tmp_path / "x.tnsr")]) == 2
        err = capsys.readouterr().err.replace("_", " ")
        assert name.replace("_", " ") in err and "Traceback" not in err, err

    # larger_model: a 2^20-wide config is refused from the stored weights,
    # before the model is allocated
    @pytest.mark.parametrize("name,value", [
        ("blocks", np.inf), ("blocks", np.array([])), ("blocks", 1.7), ("blocks", np.nan),
        ("base_width", 2.0 ** 20),
    ], ids=["inf", "empty", "fraction", "nan", "larger_model"])
    def test_malformed_checkpoint_config_exit_2(self, tmp_path, clean_image, tiny_ckpt,
                                                capsys, name, value):
        inst = self.simulate(tmp_path, clean_image)
        entries = tnsr.load_tensors(tiny_ckpt)
        entries[f"config.{name}"] = np.asarray(value, dtype=np.float64)
        tnsr.save_tensors(tiny_ckpt, entries)
        capsys.readouterr()
        assert cli.main(["reconstruct", "--model", str(tiny_ckpt), "--instance", str(inst),
                         "--out", str(tmp_path / "x.tnsr")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def export(self, tmp_path, op, x):
        """Exit code, reconstruction and image file of ``reconstruct
        --export-pgm`` on a noiseless instance of ``op`` for ``x``."""
        ckpt, inst = tmp_path / "heads.tnsr", tmp_path / "inst.json"
        RamModel(RamConfig(num_scales=1, base_width=4, blocks=1, krylov_depth=1,
                           head_channels=(2, 3, 4), seed=0)).save_checkpoint(ckpt)
        save_instance(inst, ProblemInstance(op=op, y=op.apply(x), noise=NoiseParams(0.01)))
        out, img = tmp_path / "xhat.tnsr", tmp_path / "xhat.pgm"
        code = cli.main(["reconstruct", "--model", str(ckpt), "--instance", str(inst),
                         "--out", str(out), "--export-pgm", str(img)])
        return code, tnsr.load_tensors(out)["xhat"], img

    def test_export_complex_magnitude(self, tmp_path):
        # a (real, imag) pair exports its magnitude, clipped once it is
        # taken, so negative parts count: (-0.5, 0) is 128, not 0
        x = np.random.default_rng(0).random((2, 16, 16)) - 0.5
        op = ops.make_mri(ops.make_mri_mask((2, 16, 16), 4, seed=0), (2, 16, 16))
        code, xhat, pgm = self.export(tmp_path, op, x)
        assert code == 0
        want = np.round(np.clip(np.hypot(xhat[0], xhat[1]), 0, 1) * 255).astype(np.uint8)
        assert pgm.read_bytes() == b"P5\n16 16\n255\n" + want.tobytes()
        # clipping each part first would lose the negative ones
        clipped = np.clip(xhat, 0, 1)
        assert not np.array_equal(want, np.round(np.hypot(*clipped) * 255).astype(np.uint8))

    def test_export_three_channels_as_ppm(self, tmp_path):
        x = np.random.default_rng(1).random((3, 16, 16))
        op = ops.make_inpainting(ops.make_bernoulli_mask((3, 16, 16), 0.7, seed=1))
        code, xhat, ppm = self.export(tmp_path, op, x)
        assert code == 0
        want = np.round(np.clip(np.moveaxis(xhat, 0, 2), 0, 1) * 255).astype(np.uint8)
        assert ppm.read_bytes() == b"P6\n16 16\n255\n" + want.tobytes()

    def test_export_other_channel_counts_exit_2(self, tmp_path, capsys):
        x = np.random.default_rng(2).random((4, 16, 16))
        op = ops.make_inpainting(ops.make_bernoulli_mask((4, 16, 16), 0.7, seed=2))
        code, _, img = self.export(tmp_path, op, x)
        assert code == 2 and not img.exists()
        assert "cannot export a 4-channel image" in capsys.readouterr().err

    def test_golden_files_load(self, tmp_path, golden_python):
        """A checkpoint, manifest and data file written by an earlier
        version still load, and reconstruct to the same bytes."""
        out = tmp_path / "xhat.tnsr"
        golden_python("-m", "reconkit.cli", "reconstruct", "--model", GOLDEN / "tiny_model.tnsr",
                      "--instance", GOLDEN / "blur_instance.json", "--out", out)
        want = (GOLDEN / "blur_reconstruct.sha256").read_text().strip()
        assert hashlib.sha256(out.read_bytes()).hexdigest() == want

    def test_golden_trunk(self, tmp_path, golden_python):
        """A 2-scale checkpoint with a nonzero output head reconstructs to
        the bytes an earlier version wrote, so the golden pins the network
        trunk, not only the prox estimate (tiny_model.tnsr's head is zero).
        tiny_model_head.tnsr is RamModel(RamConfig(num_scales=2,
        base_width=4, blocks=1, krylov_depth=1, head_channels=(1,),
        seed=11)) with head1.conv_out drawn as 0.1 * sqrt(2 / 36) *
        default_rng(12).standard_normal."""
        out = tmp_path / "xhat.tnsr"
        golden_python("-m", "reconkit.cli", "reconstruct", "--model", GOLDEN / "tiny_model_head.tnsr",
                      "--instance", GOLDEN / "blur_instance.json", "--out", out)
        want = (GOLDEN / "blur_reconstruct_head.sha256").read_text().strip()
        assert hashlib.sha256(out.read_bytes()).hexdigest() == want

    def test_train_golden(self, tmp_path, golden_python):
        """Two training steps (2 scales; a blur task, so the prox and its
        implicit backward run; 17x17 patches, so the model reflect-pads and
        crops) give the checkpoint and log bytes an earlier version wrote."""
        cfg = {"model": {"num_scales": 2, "base_width": 4, "blocks": 1, "krylov_depth": 1,
                         "head_channels": [1], "seed": 3},
               "tasks": [{"name": "blur", "kind": "blur", "sigma_range": 0.05}],
               "train": {"steps": 2, "batch_size": 2, "patch_size": 17, "log_every": 1, "seed": 4},
               "dataset": {"kind": "piecewise-constant", "count": 3, "shape": [1, 20, 20],
                           "seed": 5}}
        (tmp_path / "train.json").write_text(json.dumps(cfg))
        golden_python("-m", "reconkit.cli", "train", "--config", tmp_path / "train.json",
                      "--out", tmp_path / "model.tnsr", "--log", tmp_path / "log.csv")
        for line in (GOLDEN / "blur_train.sha256").read_text().splitlines():
            want, name = line.split()
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == want, name

    def test_uq_error_map(self, tmp_path, clean_image, tiny_ckpt):
        inst = self.simulate(tmp_path, clean_image)
        out = tmp_path / "err.tnsr"
        pgm = tmp_path / "err.pgm"
        assert cli.main(["uq", "--model", str(tiny_ckpt), "--instance", str(inst),
                         "--samples", "4", "--out", str(out), "--seed", "5",
                         "--export-pgm", str(pgm)]) == 0
        err = tnsr.load_tensors(out)["error_map"]
        assert err.shape == (16, 16)
        assert np.all(err >= 0)
        assert pgm.exists()


class TestTrainFinetunePipeline:
    def test_full_pipeline(self, tmp_path, clean_image, capsys):
        p, x = clean_image
        cfg = {"model": {"num_scales": 1, "base_width": 4, "blocks": 1,
                         "krylov_depth": 1, "head_channels": [1], "seed": 1},
               "tasks": [{"name": "den", "kind": "identity", "sigma_range": 0.1}],
               "train": {"steps": 3, "batch_size": 1, "patch_size": 16,
                         "lr_decay_step": 2, "log_every": 3, "seed": 2},
               "dataset": {"kind": "piecewise-constant", "count": 4,
                           "shape": [1, 16, 16], "seed": 3}}
        cfg_path = tmp_path / "train.json"
        cfg_path.write_text(json.dumps(cfg))
        ckpt = tmp_path / "ckpt.tnsr"
        assert cli.main(["train", "--config", str(cfg_path), "--out", str(ckpt)]) == 0
        assert ckpt.exists()
        capsys.readouterr()

        inst = tmp_path / "inst.json"
        assert cli.main(["simulate", "--task", "denoising", "--in", str(p),
                         "--out", str(inst), "--seed", "4"]) == 0

        data_dir = tmp_path / "meas"
        data_dir.mkdir()
        assert cli.main(["simulate", "--task", "denoising", "--in", str(p),
                         "--out", str(data_dir / "m0.json"), "--seed", "5"]) == 0
        ft_cfg = tmp_path / "ft.json"
        ft_cfg.write_text(json.dumps({"mc_loss": "sure", "null_loss": "ei",
                                      "steps": 2, "seed": 6}))
        ckpt2 = tmp_path / "ckpt2.tnsr"
        assert cli.main(["finetune", "--config", str(ft_cfg), "--model", str(ckpt),
                         "--data", str(data_dir), "--out", str(ckpt2)]) == 0

        xhat = tmp_path / "xhat.tnsr"
        assert cli.main(["reconstruct", "--model", str(ckpt2),
                         "--instance", str(inst), "--out", str(xhat)]) == 0
        assert cli.main(["eval", "--pred", str(xhat), "--ref", str(p),
                         "--metrics", "psnr"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        val = float(rows[-1].split(",")[1])
        assert np.isfinite(val) and val > 0

        err = tmp_path / "err.tnsr"
        assert cli.main(["uq", "--model", str(ckpt2), "--instance", str(inst),
                         "--samples", "3", "--out", str(err)]) == 0
        assert err.exists()

    def test_finetune_divergence_exit_3(self, tmp_path, clean_image):
        # a NaN weight makes every loss NaN: the guard refuses the first
        # step, and no checkpoint is written; EI and MOI feed the NaN
        # reconstruction back to the model, and end at the guard too
        p, _ = clean_image
        data_dir = tmp_path / "meas"
        data_dir.mkdir()
        assert cli.main(["simulate", "--task", "denoising", "--in", str(p),
                         "--out", str(data_dir / "m0.json"), "--seed", "5"]) == 0
        model = RamModel(TINY)
        model.param("head1.conv_out").data[:] = np.nan
        bad = tmp_path / "bad.tnsr"
        model.save_checkpoint(bad)
        ft_cfg = tmp_path / "ft.json"
        out = tmp_path / "o.tnsr"
        for null_loss in ("none", "ei", "moi"):
            ft_cfg.write_text(json.dumps({"mc_loss": "sure", "null_loss": null_loss, "steps": 2}))
            assert cli.main(["finetune", "--config", str(ft_cfg), "--model", str(bad),
                             "--data", str(data_dir), "--out", str(out)]) == 3, null_loss
            assert not out.exists()

    def test_finetune_empty_dir_exit_2(self, tmp_path, tiny_ckpt):
        data_dir = tmp_path / "empty"
        data_dir.mkdir()
        ft_cfg = tmp_path / "ft.json"
        ft_cfg.write_text(json.dumps({"mc_loss": "split", "steps": 1}))
        assert cli.main(["finetune", "--config", str(ft_cfg), "--model", str(tiny_ckpt),
                         "--data", str(data_dir), "--out", str(tmp_path / "o.tnsr")]) == 2


TRAIN_DOC = {"model": {"num_scales": 1, "base_width": 4, "blocks": 1, "krylov_depth": 1,
                       "head_channels": [1], "seed": 1},
             "tasks": [{"name": "den", "kind": "identity", "sigma_range": 0.1}],
             "train": {"steps": 1, "batch_size": 1, "patch_size": 16, "lr_decay_step": 1,
                       "log_every": 1, "seed": 2},
             "dataset": {"kind": "piecewise-constant", "count": 2, "shape": [1, 16, 16],
                         "seed": 3}}


class TestConfigFiles:
    """A malformed config file exits 2 with an error line: no traceback, and
    no key silently dropped."""

    @pytest.mark.parametrize("doc", [
        ["steps", 1],
        {"steps": 1, "omgea": 0.2},
        {"steps": "2"},
        {"steps": 1, "omega": None},
        {"steps": 1, "oracle_selection": 1},
        {"steps": 0},
        {"steps": -3},
        {"steps": 1, "lr": -1.0},
        {"steps": 1, "lr": 0.0},
    ], ids=["list", "misspelled_key", "steps_string", "omega_null", "flag_int",
            "steps_zero", "steps_negative", "lr_negative", "lr_zero"])
    def test_malformed_finetune_config_exit_2(self, tmp_path, clean_image, tiny_ckpt,
                                              capsys, doc):
        p, _ = clean_image
        data_dir = tmp_path / "meas"
        data_dir.mkdir()
        assert cli.main(["simulate", "--task", "denoising", "--in", str(p),
                         "--out", str(data_dir / "m0.json"), "--seed", "5"]) == 0
        ft_cfg = tmp_path / "ft.json"
        ft_cfg.write_text(json.dumps(doc))
        capsys.readouterr()
        assert cli.main(["finetune", "--config", str(ft_cfg), "--model", str(tiny_ckpt),
                         "--data", str(data_dir), "--out", str(tmp_path / "o.tnsr")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("section,key,value", [
        ("model", "widht", 4),
        ("model", "num_scales", "2"),
        ("model", "head_channels", [1, True]),
        ("model", "cg_tol", 10 ** 400),
        ("model", "cg_iters", 0),
        ("model", "cg_tol", -1.0),
        ("train", "steps", "1"),
        ("train", "lr", True),
        ("train", "log_path", "log.csv"),
        ("train", "sigma_floor", 1e-3),
        (None, None, [TRAIN_DOC]),
        ("datset", None, {}),
        ("tasks", None, [1]),
        ("tasks", None, {"a": 1}),
        ("tasks", None, [{"name": "b", "kind": "blur", "params": {"sigma_blurr": 1.0}}]),
        ("task", "params", []),
        ("task", "sigmarange", 0.1),
        ("task", "kind", "deblur"),
        ("task", "channels", 1.7),
        ("task", "name", 3),
        ("task", "sigma_range", [0.1, "a"]),
        ("dataset", None, []),
        ("dataset", "shape", "abc"),
        ("dataset", "shape", [16, 16]),
        ("dataset", "sead", 3),
    ], ids=["model_unknown_key", "model_scales_string", "model_head_bool", "model_tol_huge",
            "model_cg_iters_zero", "model_cg_tol_negative",
            "train_steps_string", "train_lr_bool", "train_log_path", "train_sigma_floor",
            "top_level_list",
            "unknown_section", "tasks_number", "tasks_object", "task_params_typo",
            "task_params_list", "task_unknown_key", "task_unknown_kind", "task_channels_float",
            "task_name_number", "task_range_string", "dataset_list", "dataset_shape_string",
            "dataset_shape_2d", "dataset_unknown_key"])
    def test_malformed_train_config_exit_2(self, tmp_path, capsys, section, key, value):
        # section "task" is the first task; a key of None replaces the section
        doc = json.loads(json.dumps(TRAIN_DOC))
        if section is None:
            doc = value
        elif key is None:
            doc[section] = value
        else:
            (doc["tasks"][0] if section == "task" else doc[section])[key] = value
        cfg_path = tmp_path / "train.json"
        cfg_path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert cli.main(["train", "--config", str(cfg_path),
                         "--out", str(tmp_path / "ckpt.tnsr")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


class TestSelftest:
    def test_runs_clean(self, capsys):
        assert cli.main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "adjoint-blur: ok" in out


def test_cli_import_leaves_scipy_linalg_out():
    # importing scipy.linalg adds about a quarter second to every command's
    # start-up, and scipy.sparse and scipy.ndimage some 0.2 s each; only a CT
    # operator needs scipy, and it loads one extension file of scipy.sparse
    # when it is built
    src = os.path.dirname(os.path.dirname(os.path.abspath(reconkit.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", "import sys, reconkit.cli; print('scipy.linalg' in sys.modules); "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env=env, capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.split("\n")[:2] == ["False", "[]"]


def test_cli_commands_leave_scipy_out(tmp_path, clean_image):
    # without a CT operator, no command imports scipy on its way
    src = os.path.dirname(os.path.dirname(os.path.abspath(reconkit.__file__)))
    (tmp_path / "train.json").write_text(json.dumps(TRAIN_DOC))
    (tmp_path / "ft.json").write_text(json.dumps({"mc_loss": "sure", "null_loss": "ei",
                                                  "steps": 1}))
    (tmp_path / "meas").mkdir()
    commands = [
        ["simulate", "--task", "inpainting", "--in", "x.tnsr", "--out", "meas/m.json"],
        ["train", "--config", "train.json", "--out", "ckpt.tnsr"],
        ["finetune", "--config", "ft.json", "--model", "ckpt.tnsr", "--data", "meas",
         "--out", "ft.tnsr"],
        ["reconstruct", "--model", "ft.tnsr", "--instance", "meas/m.json", "--out", "xhat.tnsr"],
        ["uq", "--model", "ft.tnsr", "--instance", "meas/m.json", "--samples", "2",
         "--out", "err.tnsr"],
        ["eval", "--pred", "xhat.tnsr", "--ref", "x.tnsr"]]
    script = ("import json, sys; from reconkit import cli\n"
              "for argv in json.loads(sys.argv[1]):\n"
              "    assert cli.main(argv) == 0, argv\n"
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", script, json.dumps(commands)], cwd=tmp_path,
                         env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.splitlines()[-1] == "[]"


def test_ct_commands_load_only_the_sparse_kernels(tmp_path):
    # a CT measurement, its reconstruction and bootstrap, and the self-test
    # (which builds CT) load scipy's compiled sparse kernels alone: the
    # scipy.sparse package would cost 0.13-0.2 s and 15 MB more
    src = os.path.dirname(os.path.dirname(os.path.abspath(reconkit.__file__)))
    script = ("import sys; import numpy as np; from reconkit import cli, operators as ops\n"
              "from reconkit.model import RamConfig, RamModel\n"
              "from reconkit.noise import NoiseParams\n"
              "from reconkit.problem import ProblemInstance, save_instance\n"
              "RamModel(RamConfig(num_scales=1, base_width=4, blocks=1, krylov_depth=1,\n"
              "                   head_channels=(1,))).save_checkpoint('model.tnsr')\n"
              "x = np.random.default_rng(0).random((1, 16, 16))\n"
              "op = ops.make_ct_radon(8, x.shape)\n"
              "save_instance('m.json', ProblemInstance(op=op, y=op.apply(x), x=x,\n"
              "                                        noise=NoiseParams(sigma=0.01)))\n"
              "for argv in (['reconstruct', '--model', 'model.tnsr', '--instance', 'm.json',\n"
              "              '--out', 'xhat.tnsr'],\n"
              "             ['uq', '--model', 'model.tnsr', '--instance', 'm.json',\n"
              "              '--samples', '2', '--out', 'err.tnsr'], ['selftest']):\n"
              "    assert cli.main(argv) == 0, argv\n"
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                         env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.splitlines()[-1] == "['scipy.sparse._sparsetools']"


def test_cs_operators_leave_numpy_ma_out(tmp_path):
    # checking that keep indices are distinct sorts them: np.unique would
    # import numpy.ma (11-16 ms and 0.37 MB) when the first CS operator is
    # built or loaded, in every finetune and reconstruct set-up
    src = os.path.dirname(os.path.dirname(os.path.abspath(reconkit.__file__)))
    script = ("import sys; import numpy as np; import reconkit.cli\n"
              "from reconkit import operators as ops\n"
              "from reconkit.noise import NoiseParams\n"
              "from reconkit.problem import ProblemInstance, load_instance, save_instance\n"
              "x = np.random.default_rng(0).random((1, 16, 16))\n"
              "op = ops.make_compressed_sensing(*ops.make_cs_pattern(x.shape, 4, seed=0), x.shape)\n"
              "save_instance('m.json', ProblemInstance(op=op, y=op.apply(x), x=x,\n"
              "                                        noise=NoiseParams(sigma=0.01)))\n"
              "assert load_instance('m.json').op.key == op.key\n"
              "print('numpy.ma' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                         env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.splitlines()[-1] == "False"


# ---------------------------------------------------------------------------
# fuzzed inputs at the command-line boundary
# ---------------------------------------------------------------------------

FUZZ_TASKS = ("inpainting", "blur", "downsampling")

# data file names that resolve to a directory or to another file of the example
FILE_NAMES = st.sampled_from(["", ".", "..", "x.tnsr", "model.tnsr", "s.json"])
# integers from 2**1024 on have no float64 value
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2 ** 40, 2 ** 40) | st.integers(2 ** 1024, 2 ** 1100)
    | st.floats() | st.text(max_size=4) | FILE_NAMES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=6)


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """A tiny checkpoint, a clean 16x16 image and one simulated instance
    per task, written once; each example mutates copies of them."""
    d = tmp_path_factory.mktemp("fuzz")
    RamModel(TINY).save_checkpoint(d / "model.tnsr")
    tnsr.save_tensors(d / "x.tnsr", {"x": np.random.default_rng(0).random((1, 16, 16))})
    for task in FUZZ_TASKS:
        assert cli.main(["simulate", "--task", task, "--in", str(d / "x.tnsr"),
                         "--out", str(d / f"{task}.json"), "--seed", "3"]) == 0
    return d


def _json_paths(node, prefix=()):
    """Every position in a JSON document, the root included."""
    yield prefix
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for k, v in items:
        yield from _json_paths(v, prefix + (k,))


def _mutate_json(path, data):
    doc = json.loads(path.read_text())
    where = data.draw(st.sampled_from(list(_json_paths(doc))))
    if not where:
        doc = data.draw(JSON_VALUES)
    else:
        parent = doc
        for k in where[:-1]:
            parent = parent[k]
        if data.draw(st.booleans()):
            parent[where[-1]] = data.draw(JSON_VALUES)
        else:
            del parent[where[-1]]
    path.write_text(json.dumps(doc))


def _mutate_bytes(path, data):
    """Truncate the file or flip one byte, most often in the leading header."""
    raw = bytearray(path.read_bytes())
    pos = data.draw(st.integers(0, 63) | st.integers(0, len(raw) - 1))
    if data.draw(st.booleans()):
        del raw[pos:]
    else:
        raw[pos] ^= data.draw(st.integers(1, 255))
    path.write_bytes(bytes(raw))


@settings(max_examples=200, deadline=None)
@given(task=st.sampled_from(FUZZ_TASKS),
       target=st.sampled_from(["manifest", "data_name", "data", "image", "task_file",
                               "checkpoint"]), data=st.data())
def test_fuzzed_inputs_exit_cleanly(fuzz_inputs, task, target, data):
    """simulate, reconstruct, eval and uq on a mutated manifest (any field,
    or the data file name), TNSR data file, image, task file (simulate
    ``--task``) or checkpoint config entry exit 0, 2 or 3, and every failure
    prints an error line; an exception escaping ``cli.main`` fails the test."""
    with tempfile.TemporaryDirectory() as tmp:
        work = os.path.join(tmp, "w")
        shutil.copytree(fuzz_inputs, work)
        image = os.path.join(work, "x.tnsr")
        inst = os.path.join(work, f"{task}.json")
        task_arg = task
        if target == "manifest":
            _mutate_json(pathlib.Path(inst), data)
        elif target == "task_file":
            task_arg = os.path.join(work, "task.json")
            params = dict(tr.TASK_KINDS[task][0])
            pathlib.Path(task_arg).write_text(json.dumps(
                {"kind": task, "sigma_range": [0.01, 0.05], "gamma_range": 0.01, "params": params}))
            _mutate_json(pathlib.Path(task_arg), data)
        elif target == "checkpoint":
            entries = tnsr.load_tensors(os.path.join(work, "model.tnsr"))
            name = data.draw(st.sampled_from(sorted(k for k in entries if k.startswith("config."))))
            entries[name] = data.draw(hnp.arrays(np.float64, hnp.array_shapes(
                min_dims=0, max_dims=2, min_side=0, max_side=3)))
            tnsr.save_tensors(os.path.join(work, "model.tnsr"), entries)
        elif target == "data_name":
            doc = json.loads(pathlib.Path(inst).read_text())
            doc["data"] = data.draw(FILE_NAMES)
            pathlib.Path(inst).write_text(json.dumps(doc))
        else:
            _mutate_bytes(pathlib.Path(work, f"{task}.tnsr" if target == "data" else "x.tnsr"), data)
        xhat = os.path.join(work, "xhat.tnsr")
        commands = [
            ["simulate", "--task", task_arg, "--in", image, "--out", os.path.join(work, "s.json")],
            ["reconstruct", "--model", os.path.join(work, "model.tnsr"), "--instance", inst,
             "--out", xhat],
            ["eval", "--pred", xhat, "--ref", image],
            ["uq", "--model", os.path.join(work, "model.tnsr"), "--instance", inst,
             "--samples", "2", "--out", os.path.join(work, "err.tnsr")],
        ]
        for argv in commands:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            assert code in (0, 2, 3), (argv[0], code)
            assert code == 0 or err.getvalue().startswith("error: "), (argv[0], err.getvalue())
