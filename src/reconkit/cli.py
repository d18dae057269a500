"""Command-line front end: simulation, training, finetuning,
reconstruction, evaluation, uncertainty maps, and a self-test suite.

Exit codes: 0 success, 1 usage error, 2 data or shape error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys

import numpy as np

from . import operators as ops
from . import tnsr
from . import train as tr
from .config import read_config, read_fields
from .metrics import psnr, ssim
from .model import RamConfig, RamModel
from .noise import NoiseParams
from .problem import load_instance, save_instance
from .selfsup import FinetuneConfig, TransformGroup, finetune
from .solvers import conjugate_gradient, lambda_schedule, prox_estimate
from .uq import equivariant_bootstrap, pixelwise_errors

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class DataError(Exception):
    pass


class NumericError(Exception):
    pass


def _load_single(path, preferred=("x", "xhat", "y")) -> np.ndarray:
    """Pull the image out of a tensor container: a preferred entry name if
    present, otherwise the only entry."""
    entries = tnsr.load_tensors(path)
    for name in preferred:
        if name in entries:
            return entries[name]
    if len(entries) == 1:
        return next(iter(entries.values()))
    raise DataError(f"{path}: ambiguous container, entries {sorted(entries)}")


def _export_image(path, img: np.ndarray) -> None:
    if img.ndim == 2:
        img = img[None]
    if img.shape[0] == 2:  # complex-valued pair: export the magnitude
        img = np.sqrt(img[0] ** 2 + img[1] ** 2)[None]
    img = np.clip(img, 0.0, 1.0)
    if img.shape[0] == 1:
        tnsr.write_pgm(path, img)
    elif img.shape[0] == 3:
        tnsr.write_ppm(path, img)
    else:
        raise DataError(f"cannot export a {img.shape[0]}-channel image")


_BUILTIN_TASKS = {
    "denoising": {"kind": "identity", "sigma_range": 0.1},
    "inpainting": {"kind": "inpainting", "sigma_range": 0.05},
    "blur": {"kind": "blur", "sigma_range": 0.05},
    "motion_blur": {"kind": "motion_blur", "sigma_range": 0.05},
    "downsampling": {"kind": "downsampling", "sigma_range": 0.02},
}


def _resolve_task(spec: str) -> tr.TaskSpec:
    if spec.endswith(".json"):
        with open(spec) as fh:
            d = json.load(fh)
        name = os.path.splitext(os.path.basename(spec))[0]
        return tr.TaskSpec.from_dict({"name": name, **d} if isinstance(d, dict) else d)
    if spec in _BUILTIN_TASKS:
        return tr.TaskSpec.from_dict({"name": spec, **_BUILTIN_TASKS[spec]})
    raise DataError(f"unknown task {spec!r}; builtins: {sorted(_BUILTIN_TASKS)}")


def _check_finite(arr, what):
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"non-finite values in {what}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    task = _resolve_task(args.task)
    x = _load_single(args.infile, preferred=("x",))
    if x.ndim == 2:
        x = x[None]
    if x.ndim != 3:
        raise DataError("input image must be (C, H, W)")
    inst = task.simulate(x, np.random.default_rng(args.seed), args.seed)
    _check_finite(inst.y, "simulated measurement")
    save_instance(args.out, inst)
    return EXIT_OK


def cmd_train(args) -> int:
    with open(args.config) as fh:
        doc = read_fields(json.load(fh), {"model": {}, "tasks": [], "train": {}, "dataset": {}},
                          "train config")
    model = RamModel(read_config(RamConfig, doc.get("model", {}), "model config"))
    tasks = [tr.TaskSpec.from_dict(d) for d in doc.get("tasks", [])]
    train_cfg = read_config(tr.TrainConfig, doc.get("train", {}), "train config")
    ds = read_config(tr.DatasetConfig, doc.get("dataset", {}), "dataset config")
    datasets = {task.name: tr.make_synthetic_dataset(
        ds.kind, ds.count, (task.channels, *ds.shape[1:]), seed=ds.seed) for task in tasks}
    train_cfg.checkpoint_path = args.out  # train() writes the final model here
    if args.log:
        train_cfg.log_path = args.log
    report = tr.train(model, tasks, train_cfg, datasets)
    for name in sorted(report["task_psnr"]):
        print(f"{name},psnr,{report['task_psnr'][name]:.4f},"
              f"baseline,{report['baseline_psnr'][name]:.4f}")
    return EXIT_OK


def cmd_finetune(args) -> int:
    model = RamModel.load_checkpoint(args.model)
    with open(args.config) as fh:
        cfg = read_config(FinetuneConfig, json.load(fh), "finetune config")
    manifests = sorted(glob.glob(os.path.join(args.data, "*.json")))
    if not manifests:
        raise DataError(f"no instance manifests in {args.data}")
    instances = [load_instance(p) for p in manifests]
    finetune(model, instances, cfg)
    model.save_checkpoint(args.out)
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    model = RamModel.load_checkpoint(args.model)
    inst = load_instance(args.instance)
    xhat = model.reconstruct(inst.y, inst.op, inst.noise)
    _check_finite(xhat, "reconstruction")
    tnsr.save_tensors(args.out, {"xhat": xhat})
    if args.export_pgm:
        _export_image(args.export_pgm, xhat)
    return EXIT_OK


def cmd_eval(args) -> int:
    pred = _load_single(args.pred, preferred=("xhat", "x"))
    ref = _load_single(args.ref, preferred=("x", "xhat"))
    if pred.shape != ref.shape:
        raise DataError(f"shape mismatch: pred {pred.shape} vs ref {ref.shape}")
    wanted = [m.strip() for m in args.metrics.split(",") if m.strip()]
    metrics = {"psnr": psnr, "ssim": ssim}
    print("metric,value")
    for m in wanted:
        if m not in metrics:
            raise DataError(f"unknown metric {m!r}")
        val = metrics[m](ref, pred)
        if not np.isfinite(val):
            raise NumericError(f"{m} is not finite")
        print(f"{m},{val}")
    return EXIT_OK


def cmd_uq(args) -> int:
    model = RamModel.load_checkpoint(args.model)
    inst = load_instance(args.instance)
    group = TransformGroup(args.group)
    sample = equivariant_bootstrap(model, inst, group, n=args.samples,
                                   seed=args.seed)
    err = pixelwise_errors(sample)
    _check_finite(err, "error map")
    tnsr.save_tensors(args.out, {"error_map": err})
    if args.export_pgm:
        peak = float(err.max())
        tnsr.write_pgm(args.export_pgm, err / peak if peak > 0 else err)
    return EXIT_OK


def cmd_selftest(args) -> int:
    rng = np.random.default_rng(0)
    failures = []

    def check(name, ok):
        print(f"{name}: {'ok' if ok else 'FAIL'}")
        if not ok:
            failures.append(name)

    # adjoint identities on representative operators
    shape = (1, 16, 16)
    cases = {
        "adjoint-blur": ops.make_blur(ops.make_gaussian_kernel(1.0, 7), shape),
        "adjoint-inpainting": ops.make_inpainting(
            ops.make_bernoulli_mask(shape, 0.6, seed=1)),
        "adjoint-ct": ops.make_ct_radon(8, shape),
        "adjoint-downsampling": ops.make_downsampling(2, "bicubic", shape),
    }
    for name, op in cases.items():
        worst = 0.0
        for _ in range(20):
            u = rng.standard_normal(op.domain_shape)
            v = rng.standard_normal(op.range_shape)
            lhs = float(np.sum(op.apply(u) * v))
            rhs = float(np.sum(u * op.adjoint(v)))
            worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1e-12))
        check(name, worst < 1e-10)

    # prox estimate against the dense closed form
    op = cases["adjoint-blur"]
    y = op.apply(rng.random(shape))
    lam = lambda_schedule(1.0, 0.1, y)
    xp = prox_estimate(op, y, lam, cg_iters=400, cg_tol=1e-14)
    a = ops.dense_matrix(op)
    n = int(np.prod(shape))
    direct = np.linalg.solve(lam * a.T @ a + np.eye(n),
                             (1 + lam) * a.T @ y.reshape(-1))
    check("prox-closed-form", np.allclose(xp.reshape(-1), direct, atol=1e-6))

    # conjugate gradient solves a small SPD system
    m = rng.standard_normal((n, n)) / n
    spd = m @ m.T + np.eye(n)

    def spd_apply(v):
        return (spd @ v.reshape(-1)).reshape(shape)

    b = rng.standard_normal(shape)
    sol, _ = conjugate_gradient(spd_apply, b, max_iters=400, tol=1e-12)
    check("cg-spd-solve",
          np.allclose(spd_apply(sol), b, atol=1e-6))

    # finite-difference gradient through the model on a tiny config; blur
    # makes the prox depend on lambda, so eta probes the prox backward
    from . import tensor as T

    model = RamModel(RamConfig(num_scales=1, base_width=4, blocks=1,
                               krylov_depth=1, head_channels=(1,), seed=2))
    for p in model.parameters():
        p.data = rng.standard_normal(p.data.shape) * 0.05
    inst_op = ops.make_blur(ops.make_gaussian_kernel(1.0, 3), (1, 8, 8))
    yv = rng.random(inst_op.range_shape)
    noise = NoiseParams(sigma=0.1)
    target = rng.random((1, 8, 8))

    def loss_value():
        out = model.forward(yv, inst_op, noise)
        return T.sum_all(T.square(out - T.constant(target)))

    model.zero_grad()
    loss_value().backward()
    eps = 1e-6
    worst = 0.0
    for name in ("head1.conv_in", "eta"):
        p = model.param(name)
        # the largest entry: a weight feeding a dead ReLU has gradient 0
        idx = np.unravel_index(np.argmax(np.abs(p.grad)), p.grad.shape)
        g = p.grad[idx]
        orig = p.data[idx]
        p.data[idx] = orig + eps
        up = loss_value().item()
        p.data[idx] = orig - eps
        dn = loss_value().item()
        p.data[idx] = orig  # exactly: x + eps - 2 eps + eps need not be x
        fd = (up - dn) / (2 * eps)
        worst = max(worst, abs(g - fd) / max(abs(fd), 1e-8))
    check("gradient-check", worst < 1e-4)

    # scale equivariance of the full reconstruction
    base = model.reconstruct(yv, inst_op, noise)
    alpha = 3.0
    scaled = model.reconstruct(alpha * yv, inst_op,
                               NoiseParams(sigma=alpha * noise.sigma))
    rel = np.linalg.norm(scaled - alpha * base) / np.linalg.norm(scaled)
    check("scale-equivariance", rel < 1e-8)

    if failures:
        raise NumericError("selftest failures: " + ", ".join(failures))
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="reconkit", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("simulate", help="simulate a measurement from a clean image")
    s.add_argument("--task", required=True)
    s.add_argument("--in", dest="infile", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(func=cmd_simulate)

    s = sub.add_parser("train", help="supervised multi-task training")
    s.add_argument("--config", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--log", default=None)
    s.set_defaults(func=cmd_train)

    s = sub.add_parser("finetune", help="self-supervised adaptation on measurements")
    s.add_argument("--config", required=True)
    s.add_argument("--model", required=True)
    s.add_argument("--data", required=True)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_finetune)

    s = sub.add_parser("reconstruct", help="run the model on a problem instance")
    s.add_argument("--model", required=True)
    s.add_argument("--instance", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--export-pgm", default=None)
    s.set_defaults(func=cmd_reconstruct)

    s = sub.add_parser("eval", help="compare a reconstruction to a reference")
    s.add_argument("--pred", required=True)
    s.add_argument("--ref", required=True)
    s.add_argument("--metrics", default="psnr,ssim")
    s.set_defaults(func=cmd_eval)

    s = sub.add_parser("uq", help="bootstrap pixelwise error map")
    s.add_argument("--model", required=True)
    s.add_argument("--instance", required=True)
    s.add_argument("--samples", type=int, required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--group", default="composite")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--export-pgm", default=None)
    s.set_defaults(func=cmd_uq)

    s = sub.add_parser("selftest", help="run the invariant suite")
    s.set_defaults(func=cmd_selftest)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, OSError, ValueError, KeyError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    except (NumericError, FloatingPointError, np.linalg.LinAlgError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
