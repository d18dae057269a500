import contextlib
import io
import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reconkit
from reconkit import cli, tnsr
from reconkit import operators as ops
from reconkit.model import RamConfig, RamModel
from reconkit.noise import NoiseParams
from reconkit.problem import ProblemInstance, load_instance, save_instance

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
    ], ids=["shape_rank2", "shape_float", "shape_mismatch", "seed_negative", "seed_null",
            "shape_null", "sigma_null", "angles_null", "angles_string", "angles_zero",
            "factor_null", "filter_int", "kind_list", "extra_field", "operator_string",
            "data_null", "data_empty", "noise_null", "top_level_list"])
    def test_malformed_manifest_exit_2(self, tmp_path, clean_image, tiny_ckpt, capsys,
                                       task, path, value):
        inst = self.instance(tmp_path, clean_image, task)
        manifest = json.loads(inst.read_text())
        if path:
            node = manifest
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
        else:
            manifest = value
        inst.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert cli.main(["reconstruct", "--model", str(tiny_ckpt), "--instance", str(inst),
                         "--out", str(tmp_path / "x.tnsr")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

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
            "train_steps_string", "train_lr_bool", "train_log_path", "top_level_list",
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
    # start-up; nothing the CLI reaches needs it
    src = os.path.dirname(os.path.dirname(os.path.abspath(reconkit.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", "import sys, reconkit.cli; print('scipy.linalg' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# fuzzed inputs at the command-line boundary
# ---------------------------------------------------------------------------

FUZZ_TASKS = ("inpainting", "blur", "downsampling")

# data file names that resolve to a directory or to another file of the example
FILE_NAMES = st.sampled_from(["", ".", "..", "x.tnsr", "model.tnsr", "s.json"])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2 ** 40, 2 ** 40) | st.floats() | st.text(max_size=4)
    | FILE_NAMES,
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


def _mutate_manifest(path, data):
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


@settings(max_examples=40, deadline=None)
@given(task=st.sampled_from(FUZZ_TASKS),
       target=st.sampled_from(["manifest", "data_name", "data", "image"]), data=st.data())
def test_fuzzed_inputs_exit_cleanly(fuzz_inputs, task, target, data):
    """simulate, reconstruct, eval and uq on a mutated manifest (any field,
    or the data file name), TNSR data file or image exit 0, 2 or 3, and every failure prints an error line;
    an exception escaping ``cli.main`` fails the test."""
    with tempfile.TemporaryDirectory() as tmp:
        work = os.path.join(tmp, "w")
        shutil.copytree(fuzz_inputs, work)
        image = os.path.join(work, "x.tnsr")
        inst = os.path.join(work, f"{task}.json")
        if target == "manifest":
            _mutate_manifest(pathlib.Path(inst), data)
        elif target == "data_name":
            doc = json.loads(pathlib.Path(inst).read_text())
            doc["data"] = data.draw(FILE_NAMES)
            pathlib.Path(inst).write_text(json.dumps(doc))
        else:
            _mutate_bytes(pathlib.Path(work, f"{task}.tnsr" if target == "data" else "x.tnsr"), data)
        xhat = os.path.join(work, "xhat.tnsr")
        commands = [
            ["simulate", "--task", task, "--in", image, "--out", os.path.join(work, "s.json")],
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
