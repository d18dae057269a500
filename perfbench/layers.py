"""Per-layer metrics derived from the spans of a traced run.

The traced half runs a fixed number of operations, so counts and
seconds are totals over the same work whatever the program's speed.
``.s`` is busy seconds (the union of a name's spans, so a span nested in
one of the same name adds nothing); ``.self_s`` subtracts the time
covered by child spans.  FLOPs are computed from tensor shapes, not
counted by hardware.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from tracer import LAYERS

_NS = 1e-9


def _percentile_ms(values, q):
    return float(np.percentile(values, q)) * 1e3


def _starts_inside(starts, intervals):
    s, e = intervals
    if len(s) == 0 or len(starts) == 0:
        return np.zeros(len(starts), dtype=bool)
    pos = np.searchsorted(s, starts, side="right") - 1
    ok = pos >= 0
    ok[ok] = starts[ok] < e[pos[ok]]
    return ok


def _busy_inside(sp, pred, regions) -> float:
    """Busy seconds of ``pred`` spans that start inside ``regions``."""
    s, e = sp.union(pred)
    keep = _starts_inside(s, regions)
    return float((e[keep] - s[keep]).sum()) * _NS


def _calls_inside(sp, pred, regions) -> int:
    return int(_starts_inside(sp.start[sp.select(pred)], regions).sum())


def repeat_share(keys) -> float:
    """Share of forwards whose operator definition an earlier forward used."""
    seen, repeats = set(), 0
    for k in keys:
        repeats += k in seen
        seen.add(k)
    return repeats / len(keys) if keys else float("nan")


def per_layer(sp, tracer, step_s) -> dict:
    """``step_s``: the training step latencies of the traced operations,
    read by the workload's step clock."""
    out = {}

    def put(name, value, unit):
        out[name] = {"value": float(value), "unit": unit}

    def starts(prefix):
        return lambda n: n.startswith(prefix)

    # -- operators --------------------------------------------------------
    norm = sp.union("operators.norm")
    normals = sp.start[sp.select("operators.normal")]
    put("operators.norm.calls", sp.calls("operators.norm"), "count")
    put("operators.norm.estimates", sp.calls("operators.operator_norm"), "count")
    put("operators.norm.s", sp.busy_s("operators.norm"), "s")
    put("operators.norm.normal_applies", _starts_inside(normals, norm).sum(), "count")
    put("operators.make_coarse.calls", sp.calls("operators.make_coarse"), "count")
    put("operators.make_coarse.s", sp.busy_s("operators.make_coarse"), "s")
    put("operators.make_coarse.hit_ratio",
        tracer.coarse_hits / tracer.coarse_calls if tracer.coarse_calls else 0.0, "ratio")
    put("operators.make_upsampler.calls", sp.calls("operators.make_upsampler"), "count")
    put("operators.make_upsampler.s", sp.busy_s("operators.make_upsampler"), "s")
    for verb in ("apply", "adjoint"):
        prefix = f"operators.{verb}."
        put(f"operators.{verb}.self_s", sp.self_s(starts(prefix)), "s")
        for name in sorted({n for n in sp.names if n.startswith(prefix)}):
            put(f"{name}.self_s", sp.self_s(name), "s")

    # -- tensor -----------------------------------------------------------
    conv_s = sp.busy_s("tensor.conv2d")
    conv_gflop = tracer.flops.get("tensor.conv2d", 0.0) / 1e9
    put("tensor.conv2d.calls", sp.calls("tensor.conv2d"), "count")
    put("tensor.conv2d.s", conv_s, "s")
    put("tensor.conv2d.gflop", conv_gflop, "GFLOP")
    put("tensor.conv2d.gflop_per_s", conv_gflop / conv_s if conv_s else 0.0, "GFLOP/s")
    put("tensor.conv_transpose2d.s", sp.busy_s("tensor.conv_transpose2d"), "s")
    put("tensor.pad_reflect.s", sp.busy_s("tensor.pad_reflect"), "s")
    put("tensor.apply_linear.self_s", sp.self_s("tensor.apply_linear"), "s")
    put("tensor.backward.calls", sp.calls("tensor.backward"), "count")
    put("tensor.backward.s", sp.busy_s("tensor.backward"), "s")
    put("tensor.backward.self_s", sp.self_s("tensor.backward"), "s")
    put("tensor.adam_step.calls", sp.calls("tensor.adam_step"), "count")
    put("tensor.adam_step.s", sp.busy_s("tensor.adam_step"), "s")
    put("numpy.einsum_path.calls", sp.calls("numpy.einsum_path"), "count")
    put("numpy.einsum_path.s", sp.busy_s("numpy.einsum_path"), "s")

    # -- solvers ----------------------------------------------------------
    prox = sp.union("solvers.prox_graph")
    prox_calls = sp.calls("solvers.prox_graph")
    prox_normals = int(_starts_inside(normals, prox).sum())
    put("solvers.prox_graph.calls", prox_calls, "count")
    put("solvers.prox_graph.s", sp.busy_s("solvers.prox_graph"), "s")
    put("solvers.prox_graph.normal_applies", prox_normals, "count")
    put("solvers.prox_graph.cg_iters_per_call",
        prox_normals / prox_calls if prox_calls else 0.0, "count")

    # -- model ------------------------------------------------------------
    fwd = sp.union("model.forward")
    fwd_s = sp.busy_s("model.forward")
    setup_s = _busy_inside(sp, lambda n: n in ("operators.norm", "operators.make_coarse"), fwd)
    kept = tracer.forward_kept
    put("model.forward.calls", sp.calls("model.forward"), "count")
    put("model.forward.s", fwd_s, "s")
    put("model.forward.self_s", sp.self_s("model.forward"), "s")
    put("model.forward.setup_share", setup_s / fwd_s if fwd_s else 0.0, "share")
    put("model.forward.kept_mb", float(np.mean(kept)) / 2 ** 20 if kept else 0.0, "MB")
    put("model.forward.repeat_share", repeat_share(tracer.forward_keys), "share")
    put("model.reconstruct.calls", sp.calls("model.reconstruct"), "count")

    for layer in LAYERS + ("numpy",):
        put(f"{layer}.self_s", sp.self_s(starts(layer + ".")), "s")

    # -- train ------------------------------------------------------------
    calls = sp.select("train.train")
    adam_ends = sp.end[sp.select("tensor.adam_step")]
    eval_s, regions = 0.0, ([], [])
    for c in calls:
        # a call's steps end with its last optimizer step; evaluation follows
        ends = adam_ends[(adam_ends > sp.start[c]) & (adam_ends <= sp.end[c])]
        if len(ends):
            eval_s += (sp.end[c] - ends[-1]) * _NS
            regions[0].append(sp.start[c])
            regions[1].append(ends[-1])
    put("train.calls", len(calls), "count")
    put("train.steps", len(step_s), "count")
    if step_s:
        put("train.step_ms_p50", _percentile_ms(step_s, 50), "ms")
        put("train.step_ms_p90", _percentile_ms(step_s, 90), "ms")
    put("train.sample_batch.s", sp.busy_s("train.sample_batch"), "s")
    put("train.task_loss.s", sp.busy_s("train.task_loss"), "s")
    put("train.eval.s", eval_s, "s")
    regions = (np.asarray(regions[0], dtype=np.int64), np.asarray(regions[1], dtype=np.int64))
    region_s = float((regions[1] - regions[0]).sum()) * _NS
    if region_s > 0:
        # one training step's time split by layer (self time), and the
        # shares of the costs the baseline names
        mask = _starts_inside(sp.start, regions)
        by_layer = Counter()
        for name, ns in zip(np.asarray(sp.names, dtype=object)[mask], sp.self_ns[mask]):
            by_layer[name.split(".", 1)[0]] += int(ns)
        for layer in LAYERS + ("numpy",):
            put(f"train.step_split.{layer}", by_layer[layer] * _NS / region_s, "share")
        adj_blur = sp.select("operators.adjoint.blur")
        put("train.step_share.norm",
            _busy_inside(sp, "operators.norm", regions) / region_s, "share")
        put("train.step_share.einsum_path",
            _busy_inside(sp, "numpy.einsum_path", regions) / region_s, "share")
        put("train.step_share.blur_adjoint",
            float(sp.self_ns[adj_blur][_starts_inside(sp.start[adj_blur], regions)].sum())
            * _NS / region_s, "share")
        put("train.step_share.make_upsampler",
            _busy_inside(sp, "operators.make_upsampler", regions) / region_s, "share")

    # -- selfsup ----------------------------------------------------------
    ft = sp.union("selfsup.finetune")
    ft_steps = _calls_inside(sp, "tensor.adam_step", ft)
    put("selfsup.finetune.s", sp.busy_s("selfsup.finetune"), "s")
    put("selfsup.sure_loss.s", sp.busy_s("selfsup.sure_loss"), "s")
    put("selfsup.ei_loss.s", sp.busy_s("selfsup.ei_loss"), "s")
    put("selfsup.forwards_per_step",
        _calls_inside(sp, "model.forward", ft) / ft_steps if ft_steps else 0.0, "count")

    # -- uq ---------------------------------------------------------------
    boot = sp.union("uq.bootstrap")
    boot_calls = sp.calls("uq.bootstrap")
    put("uq.bootstrap.calls", boot_calls, "count")
    put("uq.bootstrap.s", sp.busy_s("uq.bootstrap"), "s")
    put("uq.forwards_per_call",
        _calls_inside(sp, "model.forward", boot) / boot_calls if boot_calls else 0.0, "count")
    put("uq.pixelwise_errors.s", sp.busy_s("uq.pixelwise_errors"), "s")

    # -- noise, problem ---------------------------------------------------
    put("noise.sample_noise.calls", sp.calls("noise.sample_noise"), "count")
    put("noise.sample_noise.s", sp.busy_s("noise.sample_noise"), "s")
    put("problem.load_instance.calls", sp.calls("problem.load_instance"), "count")
    put("problem.load_instance.s", sp.busy_s("problem.load_instance"), "s")
    put("trace.spans", len(sp), "count")
    return out
