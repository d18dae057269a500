"""The four benchmark workloads.

Each workload builds its inputs from the workload seed in ``setup`` and
hands the library only those inputs.  ``run(i)`` performs operation
``i`` of a closed loop with one caller and times it; ``check`` verifies
the outputs outside the timed region.  With ``--inject-bad`` (the smoke
check) the stream starts with two bad operations: ``MALFORMED``, a
request the library must refuse, and ``CORRUPTED``, operation 0 with
one output value overwritten by NaN, which the output check must catch.

Models are built from a fixed seed, and the zero-initialised output
convolutions ``head*.conv_out`` are drawn from a fixed generator as well;
otherwise an untrained model returns its prox input exactly and the
trunk's work never reaches the result.

Ground-truth images come from fixed banks (``BANK_SEED``); the workload
seed draws everything else: operators, masks, noise, patches and order.
PSNR then varies little from seed to seed and stays a quality guard.
"""

from __future__ import annotations

import itertools
import os
import time

import numpy as np

from reconkit import operators as ops
from reconkit import tensor as T
from reconkit import train as tr
from reconkit.metrics import psnr
from reconkit.model import RamConfig, RamModel
from reconkit.noise import NoiseParams, sample_noise
from reconkit.problem import ProblemInstance, load_instance, save_instance
from reconkit.selfsup import FinetuneConfig, TransformGroup, finetune
from reconkit.uq import equivariant_bootstrap, pixelwise_errors

from tracer import operator_key

TINY = dict(num_scales=2, base_width=8, blocks=1, krylov_depth=2, head_channels=(1,))
MODEL_SEED = 29
HEAD_SEED = 1234
HEAD_SCALE = 0.1
BANK_SEED = 2025
# a p75 latency needs ten samples beyond it
MIN_SAMPLES = 40
MALFORMED, CORRUPTED = -2, -1


def image_bank(count, shape, kind="piecewise-constant", offset=0) -> list:
    return tr.make_synthetic_dataset(kind, count, shape, seed=BANK_SEED + offset)


def build_model(**cfg) -> RamModel:
    model = RamModel(RamConfig(**cfg, seed=MODEL_SEED))
    rng = np.random.default_rng(HEAD_SEED)
    for c in model.config.head_channels:
        p = model.param(f"head{c}.conv_out")
        fan_in = int(np.prod(p.data.shape[1:]))
        p.data = HEAD_SCALE * np.sqrt(2.0 / fan_in) * rng.standard_normal(p.data.shape)
    return model


def snapshot(model) -> dict:
    return {p.name: p.data.copy() for p in model.parameters()}


def restore(model, snap: dict) -> None:
    for p in model.parameters():
        p.data = snap[p.name].copy()


def _finite(arr) -> bool:
    return bool(np.all(np.isfinite(np.asarray(arr, dtype=np.float64))))


def _draw_seed(rng) -> int:
    return int(rng.integers(2 ** 31))


class StepClock:
    """Reads the clock after every Adam step.  Training and finetuning run
    their step loops inside the library, so step latency is taken from
    step ends, in untraced and traced runs alike.  With a ``SpeedLog`` it
    also takes host-speed samples between steps; their time is left out of
    the step intervals and summed in ``probe_s``, which the caller
    subtracts.  This is the only hook an untraced run installs."""

    def __init__(self, speed=None):
        self.speed = speed

    def __enter__(self):
        self.ends, self.resumes, self.probe_s = [], [], 0.0
        self._orig = T.AdamOptimizer.step
        orig, clock = self._orig, self

        def step(opt):
            orig(opt)
            clock.ends.append(time.perf_counter())
            if clock.speed is not None:
                clock.probe_s += clock.speed.maybe()
            clock.resumes.append(time.perf_counter())

        T.AdamOptimizer.step = step
        return self

    def __exit__(self, *exc):
        T.AdamOptimizer.step = self._orig
        return False

    def intervals(self, t0) -> list:
        """(start, end) of each step from ``t0``, without the probes
        between steps."""
        return list(zip([t0] + self.resumes, self.ends))

    def latencies(self, t0) -> list:
        return [e - s for s, e in self.intervals(t0)]


class Workload:
    name = ""
    why = ""
    work_unit = ""
    latency_unit = ""
    # the quality metric averages the first ``quality_ops`` operations;
    # every full run completes them
    quality_ops = 1
    # a run ends only after a whole cycle of ``granule`` operations, so
    # every run sees the same mix
    granule = 1
    # the traced half runs exactly this many operations, so its per-layer
    # counts and seconds do not grow with the program's speed
    trace_ops = 1
    # a hostspeed.SpeedLog while a phase takes host-speed samples
    speed = None

    def setup(self, seed: int, workdir: str, inject_bad: bool) -> None:
        raise NotImplementedError

    def begin(self) -> None:
        """Called before each measured phase."""

    def has(self, i: int) -> bool:
        return True

    def run(self, i: int) -> dict:
        if i == MALFORMED:
            return self.run_malformed()
        res = self.run_op(max(i, 0))
        if i == CORRUPTED:
            self.corrupt(res)
        return res

    def run_op(self, i: int) -> dict:
        raise NotImplementedError

    def check(self, i: int, res: dict) -> list:
        raise NotImplementedError

    def run_malformed(self) -> dict:
        raise NotImplementedError

    def corrupt(self, res: dict) -> None:
        raise NotImplementedError

    def probe(self, i: int) -> list:
        """(y, op, noise) forwards representative of operation ``i``, on
        freshly built operators; the traced run measures the memory each
        keeps."""
        raise NotImplementedError

    def quality(self, results: list) -> float:
        """Mean PSNR over the first ``quality_ops`` operations, which every
        full run completes, so the value does not depend on speed.  A
        phase that starts later (the traced half) averages what it has."""
        vals = [r["psnr"] for r in results if r["index"] < self.quality_ops]
        vals = vals or [r["psnr"] for r in results]
        return float(np.mean(vals)) if vals else float("nan")

    def describe(self) -> dict:
        return {"why": self.why, "work_unit": self.work_unit,
                "latency_unit": self.latency_unit}


# ---------------------------------------------------------------------------


class TrainWorkload(Workload):
    name = "train"
    why = ("every sample gets a new operator handle, so operator set-up and the "
           "forward+backward tape share each step")
    work_unit = "training sample"
    latency_unit = "training step"
    # one call outlasts a 20 s run (about 25 s on a 2-core Xeon); the
    # longer call also averages over more of the host's speed drift
    STEPS = 50
    BATCH = 2
    PATCH = 32
    EVAL_PER_TASK = 8

    def setup(self, seed, workdir, inject_bad):
        self.model = build_model(**TINY)
        self.init = snapshot(self.model)
        self.tasks = [
            tr.TaskSpec("inpainting", "inpainting", sigma_range=(0.01, 0.1),
                        params={"p_range": [0.3, 0.9]}),
            tr.TaskSpec("blur", "blur", sigma_range=(0.01, 0.05),
                        params={"sigma_blur": 1.0, "kernel_size": 7}),
            tr.TaskSpec("denoising", "identity", sigma_range=0.1),
        ]
        shape = (1, self.PATCH, self.PATCH)
        self.data = {t.name: image_bank(200, shape, offset=k) for k, t in enumerate(self.tasks)}
        # the same held-out patches for every seed: PSNR then moves only
        # with what training learned
        self.eval_set = [inst for k, t in enumerate(self.tasks)
                         for inst in tr.sample_batch(t, self.data[t.name], self.EVAL_PER_TASK,
                                                     self.PATCH, seed=BANK_SEED + k)]
        self.cfg = tr.TrainConfig(steps=self.STEPS, batch_size=self.BATCH,
                                  patch_size=self.PATCH, lr=2e-3,
                                  lr_decay_step=self.STEPS, log_every=self.STEPS,
                                  seed=seed)
        # warm-up: one supervised forward+backward on a separate draw
        warm_task = tr.TaskSpec("warm", "blur", sigma_range=0.05)
        inst = tr.sample_batch(warm_task, self.data["blur"], 1, self.PATCH, seed=seed + 1)[0]
        tr.task_loss(self.model, inst).backward()
        self.model.zero_grad()

    def run_op(self, i):
        restore(self.model, self.init)
        with StepClock(self.speed) as clock:
            t0 = time.perf_counter()
            rep = tr.train(self.model, self.tasks, self.cfg, self.data)
            t1 = time.perf_counter()
        return {"busy": t1 - t0 - clock.probe_s,
                "work": self.STEPS * self.BATCH * len(self.tasks),
                "lat": clock.latencies(t0), "steps": clock.intervals(t0), "report": rep}

    def check(self, i, res):
        rep = res.pop("report")
        bad = []
        if len(rep["loss_history"]) != self.STEPS or not _finite(rep["loss_history"]):
            bad.append("training losses missing or not finite")
        if len(res["lat"]) != self.STEPS:
            bad.append(f"{len(res['lat'])} optimizer steps, expected {self.STEPS}")
        if not _finite(list(rep["task_psnr"].values())):
            bad.append("final evaluation PSNR not finite")
        outs = [self.model.reconstruct(inst.y, inst.op, inst.noise) for inst in self.eval_set]
        if not all(o.shape == inst.x.shape and _finite(o) for o, inst in zip(outs, self.eval_set)):
            bad.append("evaluation reconstruction has the wrong shape or is not finite")
        else:
            res["psnr"] = float(np.mean([psnr(inst.x, o) for o, inst in zip(outs, self.eval_set)]))
        res["extra"] = {"report_task_psnr_db": rep["task_psnr"],
                        "report_baseline_psnr_db": rep["baseline_psnr"]}
        return bad

    def run_malformed(self):
        task = tr.TaskSpec("empty", "identity", sigma_range=0.1)
        tr.train(self.model, [task], self.cfg, {"empty": []})
        return {}

    def corrupt(self, res):
        res["report"]["loss_history"] = [*res["report"]["loss_history"][:-1], float("nan")]

    def probe(self, i):
        insts = [tr.sample_batch(t, self.data[t.name], 1, self.PATCH, seed=self.cfg.seed + 17)[0]
                 for t in self.tasks]
        return [(inst.y, inst.op, inst.noise) for inst in insts]

    def describe(self):
        return {**super().describe(),
                "mix": "3 tasks x batch 2 at 32x32: inpainting (fresh Bernoulli mask), "
                       "7x7 Gaussian blur (fixed kernel), denoising (identity)",
                "steps_per_call": self.STEPS}


# ---------------------------------------------------------------------------


class FinetuneWorkload(Workload):
    name = "finetune"
    why = ("the operator handle is fixed within a call, so after step 1 operator "
           "set-up is cached and each step is 4 forwards plus one backward")
    work_unit = "finetune step"
    latency_unit = "finetune step"
    STEPS = 10
    MEASUREMENTS = 8
    quality_ops = trace_ops = MEASUREMENTS
    SHAPE = (1, 32, 32)

    def setup(self, seed, workdir, inject_bad):
        self.seed = seed
        self.model = build_model(**TINY)
        self.init = snapshot(self.model)
        rng = np.random.default_rng(seed)
        self.sign, self.keep = ops.make_cs_pattern(self.SHAPE, 4, seed=_draw_seed(rng))
        op = ops.make_compressed_sensing(self.sign, self.keep, self.SHAPE)
        self.noise = NoiseParams(sigma=0.05)
        self.meas = []
        for x in image_bank(self.MEASUREMENTS, self.SHAPE):
            y, _ = sample_noise(op.apply(x), self.noise, seed=_draw_seed(rng))
            self.meas.append((y, x))
        self.model.reconstruct(self.meas[0][0], op, self.noise)  # warm-up

    def _finetune(self, op, y, noise, k):
        cfg = FinetuneConfig(mc_loss="sure", null_loss="ei", omega=0.1, probes=1,
                             steps=self.STEPS, lr=2e-3, seed=self.seed * 1000 + k)
        return finetune(self.model, [ProblemInstance(op=op, y=y, noise=noise)], cfg)

    def run_op(self, i):
        k = i % self.MEASUREMENTS
        y, x = self.meas[k]
        restore(self.model, self.init)
        with StepClock(self.speed) as clock:
            t0 = time.perf_counter()
            op = ops.make_compressed_sensing(self.sign, self.keep, self.SHAPE)
            rep = self._finetune(op, y, self.noise, k)
            t1 = time.perf_counter()
        return {"busy": t1 - t0 - clock.probe_s, "work": self.STEPS,
                "lat": clock.latencies(t0), "steps": clock.intervals(t0),
                "history": rep["loss_history"], "op": op, "k": k}

    def check(self, i, res):
        y, x = self.meas[res.pop("k")]
        xhat = self.model.reconstruct(y, res.pop("op"), self.noise)
        history = res.pop("history")
        bad = []
        if len(history) != self.STEPS or not _finite(history):
            bad.append("finetuning losses missing or not finite")
        if xhat.shape != self.SHAPE or not _finite(xhat):
            bad.append("finetuned reconstruction has the wrong shape or is not finite")
        else:
            res["psnr"] = psnr(x, xhat)
        return bad

    def probe(self, i):
        y, _ = self.meas[i % self.MEASUREMENTS]
        return [(y, ops.make_compressed_sensing(self.sign, self.keep, self.SHAPE), self.noise)]

    def run_malformed(self):
        # SURE is defined for Gaussian noise only; gamma > 0 must be refused
        op = ops.make_compressed_sensing(self.sign, self.keep, self.SHAPE)
        self._finetune(op, self.meas[0][0], NoiseParams(sigma=0.05, gamma=0.01), 0)
        return {}

    def corrupt(self, res):
        res["history"] = [*res["history"][:-1], float("nan")]

    def describe(self):
        return {**super().describe(),
                "mix": "compressed sensing x4 at 32x32, one sign/keep pattern per seed, "
                       f"{self.MEASUREMENTS} measurements used in turn, SURE (1 probe) + "
                       "EI (omega 0.1)",
                "steps_per_call": self.STEPS}


# ---------------------------------------------------------------------------


class ReconstructWorkload(Workload):
    name = "reconstruct"
    why = ("every request loads a new handle, so per-request operator set-up and the "
           "tape's memory dominate; only the repeated half can profit from caching")
    work_unit = "request"
    latency_unit = "request (load_instance + reconstruct)"
    KINDS = ("blur", "inpainting", "downsampling", "compressed_sensing", "ct", "mri")
    # 32x32 and 64x64 are the main sizes: each kind 3 times at 32x32 and
    # twice at 64x64 per block.  128x128 is a minority by count and by busy
    # time: one bicubic downsampling (a repeated definition) and one MRI
    # (a fresh mask, the largest tape) per block.  Blur, the slowest kind
    # at 128x128, stays at the main sizes.
    TEMPLATES = (tuple(itertools.product(KINDS, (32, 32, 32, 64, 64)))
                 + (("downsampling", 128), ("mri", 128)))
    SIZES = tuple(sorted({n for _, n in TEMPLATES}))
    # PSNR over the first block, which holds every template once
    quality_ops = granule = trace_ops = len(TEMPLATES)
    BLOCKS = 10
    EQUIVARIANCE_SAMPLE = 3

    def _instance(self, kind, n, rng, image):
        shape = (1, n, n)
        x = self.bank[n][image]
        if kind == "blur":
            op = ops.make_blur(self.kernel, shape)
        elif kind == "inpainting":
            op = ops.make_inpainting(ops.make_bernoulli_mask(shape, 0.5, seed=_draw_seed(rng)))
        elif kind == "downsampling":
            op = ops.make_downsampling(2, "bicubic", shape)
        elif kind == "compressed_sensing":
            sign, keep = ops.make_cs_pattern(shape, 4, seed=_draw_seed(rng))
            op = ops.make_compressed_sensing(sign, keep, shape)
        elif kind == "ct":
            if n not in self.ct:
                self.ct[n] = ops.make_ct_radon(n // 4, shape)
            op = self.ct[n]
        else:  # single-coil MRI on a (real, imaginary) image
            x = np.concatenate([x, 0.3 * self.phase_bank[n][image]])
            op = ops.make_mri(ops.make_mri_mask(x.shape, 4, seed=_draw_seed(rng)), x.shape)
        noise = NoiseParams(sigma=0.05)
        y, _ = sample_noise(op.apply(x), noise, seed=_draw_seed(rng))
        return ProblemInstance(op=op, y=y, noise=noise, x=x)

    def setup(self, seed, workdir, inject_bad):
        self.model = build_model()
        self.kernel = ops.make_gaussian_kernel(1.0, 7)
        self.ct = {}
        nt = len(self.TEMPLATES)
        self.bank = {n: image_bank(nt, (1, n, n), offset=n) for n in self.SIZES}
        self.phase_bank = {n: image_bank(nt, (1, n, n), "smooth-bumps", offset=n + 1)
                           for n in self.SIZES}
        rng = np.random.default_rng(seed)
        self.stream = []
        seen = set()
        for b in range(self.BLOCKS):
            for t in rng.permutation(nt):
                kind, n = self.TEMPLATES[t]
                inst = self._instance(kind, n, rng, (t + b) % nt)
                path = os.path.join(workdir, f"req{len(self.stream):04d}.json")
                save_instance(path, inst)
                key = operator_key(inst.op)
                self.stream.append({"path": path, "kind": kind, "size": n,
                                    "repeat": key in seen})
                seen.add(key)
        small = [i for i in range(MIN_SAMPLES) if self.stream[i]["size"] == 32]
        self.equivariance = set(rng.choice(small, size=self.EQUIVARIANCE_SAMPLE,
                                           replace=False).tolist())
        warm = self._instance("blur", 32, np.random.default_rng(seed + 1), 0)
        warm_path = os.path.join(workdir, "warm.json")
        save_instance(warm_path, warm)
        inst = load_instance(warm_path)
        self.model.reconstruct(inst.y, inst.op, inst.noise)
        if inject_bad:
            bad = self._instance("inpainting", 32, np.random.default_rng(seed + 2), 0)
            bad.y = bad.y[:, :-1]  # measurement no longer matches the operator
            self.bad_path = os.path.join(workdir, "bad.json")
            save_instance(self.bad_path, bad)

    def has(self, i):
        return i < len(self.stream)

    def run_op(self, i):
        req = self.stream[i]
        t0 = time.perf_counter()
        inst = load_instance(req["path"])
        xhat = self.model.reconstruct(inst.y, inst.op, inst.noise)
        t1 = time.perf_counter()
        return {"busy": t1 - t0, "work": 1, "lat": [t1 - t0], "inst": inst, "xhat": xhat,
                "kind": req["kind"], "size": req["size"], "repeat": req["repeat"]}

    def check(self, i, res):
        inst, xhat = res.pop("inst"), res.pop("xhat")
        if xhat.shape != inst.op.domain_shape or not _finite(xhat):
            return ["reconstruction has the wrong shape or is not finite"]
        res["psnr"] = psnr(inst.x, xhat)
        if i in self.equivariance:
            # the same handle again: its norm and coarse operators are cached
            a = 2.0
            t0 = time.perf_counter()
            scaled = self.model.reconstruct(
                a * inst.y, inst.op, NoiseParams(sigma=a * inst.noise.sigma,
                                                 gamma=a * inst.noise.gamma))
            res["warm_s"] = time.perf_counter() - t0
            gap = float(np.linalg.norm(scaled - a * xhat) / max(np.linalg.norm(scaled), 1e-300))
            res["equivariance_gap"] = gap
            if not gap < 1e-8:
                return [f"scale equivariance gap {gap:.2e} >= 1e-8"]
        return []

    def probe(self, i):
        # the next request of each size
        out = []
        for n in self.SIZES:
            j = next((j for j in range(i, len(self.stream)) if self.stream[j]["size"] == n), None)
            if j is not None:
                inst = load_instance(self.stream[j]["path"])
                out.append((inst.y, inst.op, inst.noise))
        return out

    def run_malformed(self):
        inst = load_instance(self.bad_path)
        return {"xhat": self.model.reconstruct(inst.y, inst.op, inst.noise)}

    def corrupt(self, res):
        res["xhat"] = res["xhat"].copy()
        res["xhat"].flat[0] = np.nan

    def describe(self):
        n = len(self.stream)
        return {**super().describe(),
                "mix": "blur 7x7 (fixed kernel), inpainting (fresh mask), bicubic x2 "
                       "downsampling, compressed sensing x4 (fresh pattern), sparse-view CT "
                       "(H/4 angles), single-coil MRI x4 (fresh mask, 2-channel head); per "
                       "block of 32 shuffled requests each kind 3 times at 32x32 and twice "
                       "at 64x64, plus downsampling and MRI once each at 128x128",
                "stream_requests": n,
                "stream_repeat_share": sum(r["repeat"] for r in self.stream) / n,
                "equivariance_checked": sorted(self.equivariance)}


# ---------------------------------------------------------------------------


class UqWorkload(Workload):
    name = "uq"
    why = ("one operator serves 21 forwards, so set-up is amortised and forward-only "
           "network compute dominates; the only workload that reaches reconkit.uq")
    work_unit = "bootstrap call"
    latency_unit = "bootstrap call (n=20) + pixelwise_errors"
    # (kind, inpainting keep probability)
    INSTANCES = (("inpainting", 0.5), ("inpainting", 0.7), ("blur", None))
    quality_ops = granule = len(INSTANCES)
    # two cycles: the first call on each instance pays its operator set-up
    trace_ops = 2 * granule
    REPLICATES = 20
    SHAPE = (1, 64, 64)

    def setup(self, seed, workdir, inject_bad):
        self.seed = seed
        self.model = build_model(**TINY)
        self.group = TransformGroup("composite")
        rng = np.random.default_rng(seed)
        self.paths = []
        bank = image_bank(len(self.INSTANCES), self.SHAPE)
        for k, ((kind, keep), x) in enumerate(zip(self.INSTANCES, bank)):
            if kind == "blur":
                op = ops.make_blur(ops.make_gaussian_kernel(1.0, 7), self.SHAPE)
            else:
                op = ops.make_inpainting(ops.make_bernoulli_mask(
                    self.SHAPE, keep, seed=_draw_seed(rng)))
            noise = NoiseParams(sigma=0.05)
            y, _ = sample_noise(op.apply(x), noise, seed=_draw_seed(rng))
            path = os.path.join(workdir, f"uq{k}.json")
            save_instance(path, ProblemInstance(op=op, y=y, noise=noise, x=x))
            self.paths.append(path)
        warm_shape = (1, 32, 32)
        warm_op = ops.make_inpainting(ops.make_bernoulli_mask(warm_shape, 0.5, seed=seed + 1))
        self.model.reconstruct(np.zeros(warm_shape), warm_op, NoiseParams(sigma=0.05))
        self.begin()
        if inject_bad:
            good = self.insts[0]
            self.bad = ProblemInstance(op=good.op, y=good.y[:, :-1], noise=good.noise, x=good.x)

    def begin(self):
        # each measured phase loads the instances once, so its first call
        # on each pays the operator set-up
        self.insts = [load_instance(p) for p in self.paths]

    def _call(self, inst, i):
        return equivariant_bootstrap(self.model, inst, self.group, n=self.REPLICATES,
                                     seed=self.seed * 1000003 + i)

    def run_op(self, i):
        inst = self.insts[i % len(self.insts)]
        evals = self.model.eval_count
        t0 = time.perf_counter()
        sample = self._call(inst, i)
        err = pixelwise_errors(sample)
        t1 = time.perf_counter()
        return {"busy": t1 - t0, "work": 1, "lat": [t1 - t0], "inst": inst, "sample": sample,
                "err": err, "evals": self.model.eval_count - evals}

    def check(self, i, res):
        inst, sample, err = res.pop("inst"), res.pop("sample"), res.pop("err")
        c, h, w = inst.op.domain_shape
        bad = []
        if res["evals"] != self.REPLICATES + 1:
            bad.append(f"{res['evals']} model evaluations, expected {self.REPLICATES + 1}")
        if sample.replicates.shape != (self.REPLICATES, c, h, w) or not _finite(sample.replicates):
            bad.append("replicates have the wrong shape or are not finite")
        if sample.base.shape != (c, h, w) or not _finite(sample.base):
            bad.append("base reconstruction has the wrong shape or is not finite")
        if err.shape != (h, w) or not _finite(err):
            bad.append("error map has the wrong shape or is not finite")
        if not bad:
            res["psnr"] = psnr(inst.x, sample.base)
        return bad

    def probe(self, i):
        return [(inst.y, inst.op, inst.noise) for inst in map(load_instance, self.paths)]

    def run_malformed(self):
        return {"sample": self._call(self.bad, MALFORMED)}

    def corrupt(self, res):
        res["sample"].replicates = res["sample"].replicates.copy()
        res["sample"].replicates.flat[0] = np.nan

    def describe(self):
        return {**super().describe(),
                "mix": "64x64 instances loaded once and used in turn: inpainting, "
                       "inpainting, 7x7 Gaussian blur; composite group, n=20, new seed "
                       "per call"}


WORKLOADS = {w.name: w for w in (TrainWorkload, FinetuneWorkload, ReconstructWorkload,
                                 UqWorkload)}
