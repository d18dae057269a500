"""Outside-in span tracing of the reconkit layers.

The tracer replaces the public functions of each layer module, and a few
class methods, with wrappers that record a span (name, start, end,
parent, request id) in memory.  Nothing under ``src/`` changes: names
that other modules imported (``reconkit.model.make_coarse`` and the
like) are rebound too, and ``uninstall`` puts every original back.

Spans are single-threaded: the parent of a span is the innermost span
open when it started.  Work done inside autodiff tape closures (the
backward pass of each convolution) therefore stays inside
``tensor.backward``'s self time.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import re
import sys
import time
import tracemalloc
import weakref

import numpy as np

LAYERS = ("tensor", "operators", "solvers", "model", "train", "selfsup", "uq",
          "noise", "problem")

# span names the benchmark reports under a shorter name
ALIASES = {
    "solvers.prox_estimate_graph": "solvers.prox_graph",
    "uq.equivariant_bootstrap": "uq.bootstrap",
}

_NS = 1e-9


def _sanitize(kind: str) -> str:
    """Operator kinds such as ``coarse[blur]`` or ``blur*upsampler`` as
    metric-name segments (``coarse-blur``, ``blur-upsampler``)."""
    return re.sub(r"[^A-Za-z0-9_]+", "-", kind).strip("-") or "unnamed"


def operator_key(op) -> str:
    """Content key of an operator definition: kind, shapes, scalar spec
    and a digest of its defining arrays."""
    h = hashlib.sha1()
    h.update(repr((op.kind, op.domain_shape, op.range_shape,
                   sorted((k, repr(v)) for k, v in op.spec.items()))).encode())
    for name in sorted(op.arrays):
        arr = np.ascontiguousarray(op.arrays[name])
        h.update(name.encode())
        h.update(arr.tobytes())
    return h.hexdigest()


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.requests: list[int] = []
        self.request_id = -1
        # spans are recorded while ``recording``; while ``memory`` is set
        # (and tracemalloc runs) forwards record the bytes they keep
        self.recording = True
        self.memory = False
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self.flops: dict[str, float] = {}
        self.forward_kept: list[int] = []
        self.forward_keys: list[str] = []
        self.coarse_calls = 0
        self.coarse_hits = 0
        self._coarse_seen = weakref.WeakSet()

    # -- span recording ---------------------------------------------------
    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.requests.append(self.request_id)
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, fn, name):
        tr = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tr.recording:
                return fn(*args, **kwargs)
            i = tr._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tr._close(i)

        return traced

    def _wrap_kind(self, fn, prefix):
        """Method wrapper whose span name carries the operator kind."""
        tr = self
        names: dict[str, str] = {}

        @functools.wraps(fn)
        def traced(op, *args, **kwargs):
            if not tr.recording:
                return fn(op, *args, **kwargs)
            name = names.get(op.kind)
            if name is None:
                name = names[op.kind] = f"{prefix}.{_sanitize(op.kind)}"
            i = tr._open(name)
            try:
                return fn(op, *args, **kwargs)
            finally:
                tr._close(i)

        return traced

    def _wrap_flops(self, fn, name, flops_of):
        """Wrapper that also adds the computed FLOPs of each call."""
        tr = self
        inner = self._wrap(fn, name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            out = inner(*args, **kwargs)
            if not tr.recording:
                return out
            weight = args[1] if len(args) > 1 else kwargs["weight"]
            tr.flops[name] = tr.flops.get(name, 0.0) + flops_of(args[0], weight, out)
            return out

        return traced

    def _wrap_forward(self, fn):
        """``RamModel.forward``: also records the operator's content key
        or, in memory mode, the traced bytes still held once it returns."""
        tr = self
        inner = self._wrap(fn, "model.forward")

        @functools.wraps(fn)
        def traced(model, y, op, noise):
            if tr.memory:
                before = tracemalloc.get_traced_memory()[0]
                out = fn(model, y, op, noise)
                tr.forward_kept.append(tracemalloc.get_traced_memory()[0] - before)
                return out
            if tr.recording:
                tr.forward_keys.append(operator_key(op))
            return inner(model, y, op, noise)

        return traced

    def _wrap_coarse(self, fn, name):
        """``make_coarse``: a hit is a returned object seen before."""
        tr = self
        inner = self._wrap(fn, name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            out = inner(*args, **kwargs)
            if not tr.recording:
                return out
            tr.coarse_calls += 1
            if out in tr._coarse_seen:
                tr.coarse_hits += 1
            else:
                tr._coarse_seen.add(out)
            return out

        return traced

    # -- installation -----------------------------------------------------
    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, extra_modules=()) -> None:
        """Wrap the layers.  ``extra_modules`` (the benchmark's own) get
        their imported library functions rebound as well."""
        from reconkit import model as model_mod
        from reconkit import operators as ops_mod
        from reconkit import tensor as tensor_mod

        replaced = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"reconkit.{layer}")
            for fname in getattr(mod, "__all__", ()):
                fn = getattr(mod, fname, None)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = ALIASES.get(f"{layer}.{fname}", f"{layer}.{fname}")
                if fn is ops_mod.make_coarse:
                    replaced[fn] = self._wrap_coarse(fn, name)
                elif fn is tensor_mod.conv2d:
                    # out.size output pixels, each a dot over IC*KH*KW taps
                    replaced[fn] = self._wrap_flops(
                        fn, name, lambda x, w, out: 2.0 * out.data.size * np.prod(w.shape[1:]))
                elif fn is tensor_mod.conv_transpose2d:
                    # every input pixel scatters OC*KH*KW products
                    replaced[fn] = self._wrap_flops(
                        fn, name, lambda x, w, out: 2.0 * x.data.size * np.prod(w.shape[1:]))
                else:
                    replaced[fn] = self._wrap(fn, name)
        # rebind every module-level reference, including ``from x import y``
        mods = [m for m in list(sys.modules.values())
                if getattr(m, "__name__", "").startswith("reconkit")]
        for mod in mods + list(extra_modules):
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in replaced:
                    self._set(mod, attr, replaced[val])

        handle = ops_mod.OperatorHandle
        for meth in ("apply", "adjoint"):
            self._set(handle, meth, self._wrap_kind(getattr(handle, meth), f"operators.{meth}"))
        self._set(handle, "normal", self._wrap(handle.normal, "operators.normal"))
        self._set(handle, "norm", self._wrap(handle.norm, "operators.norm"))
        ram = model_mod.RamModel
        self._set(ram, "forward", self._wrap_forward(ram.forward))
        self._set(ram, "reconstruct", self._wrap(ram.reconstruct, "model.reconstruct"))
        self._set(tensor_mod.Tensor, "backward",
                  self._wrap(tensor_mod.Tensor.backward, "tensor.backward"))
        self._set(tensor_mod.AdamOptimizer, "step",
                  self._wrap(tensor_mod.AdamOptimizer.step, "tensor.adam_step"))
        # numpy re-plans every einsum(optimize=True) contraction
        einsumfunc = sys.modules.get("numpy._core.einsumfunc") or importlib.import_module(
            "numpy.core.einsumfunc")
        self._set(einsumfunc, "einsum_path", self._wrap(einsumfunc.einsum_path, "numpy.einsum_path"))

    def start_memory(self) -> None:
        """Stop recording spans; measure kept bytes per forward instead.
        tracemalloc slows allocation-heavy Python several times over, so
        it runs only in this mode."""
        self.recording = False
        self.memory = True
        tracemalloc.start()

    def stop_memory(self) -> None:
        tracemalloc.stop()
        self.memory = False

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- analysis ---------------------------------------------------------
    def spans(self) -> "Spans":
        if self._stack:
            raise RuntimeError("spans still open")
        return Spans(self.names, self.starts, self.ends, self.parents, self.requests)


class Spans:
    """Closed spans as arrays, with self time and interval queries."""

    def __init__(self, names, starts, ends, parents, requests):
        self.names = list(names)
        self.start = np.asarray(starts, dtype=np.int64)
        self.end = np.asarray(ends, dtype=np.int64)
        self.parent = np.asarray(parents, dtype=np.int64)
        self.request = np.asarray(requests, dtype=np.int64)
        self.dur = self.end - self.start
        child = np.zeros(len(self.names), dtype=np.int64)
        has_parent = self.parent >= 0
        np.add.at(child, self.parent[has_parent], self.dur[has_parent])
        self.self_ns = self.dur - child
        self._by_name: dict[str, np.ndarray] = {}
        for i, n in enumerate(self.names):
            self._by_name.setdefault(n, []).append(i)
        self._by_name = {n: np.asarray(ix) for n, ix in self._by_name.items()}

    def __len__(self):
        return len(self.names)

    def select(self, pred) -> np.ndarray:
        """Indices of spans whose name satisfies ``pred`` (or equals it)."""
        if isinstance(pred, str):
            return self._by_name.get(pred, np.zeros(0, dtype=np.int64))
        parts = [ix for n, ix in self._by_name.items() if pred(n)]
        return np.sort(np.concatenate(parts)) if parts else np.zeros(0, dtype=np.int64)

    def calls(self, pred) -> int:
        return int(len(self.select(pred)))

    def self_s(self, pred) -> float:
        return float(self.self_ns[self.select(pred)].sum()) * _NS

    def union(self, pred):
        """Disjoint (start, end) arrays covering the selected spans; a span
        nested in another selected span adds nothing."""
        ix = self.select(pred)
        if len(ix) == 0:
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        s, e = self.start[ix], self.end[ix]
        reach = np.maximum.accumulate(e)
        top = np.ones(len(ix), dtype=bool)
        top[1:] = s[1:] >= reach[:-1]
        return s[top], e[top]

    def busy_s(self, pred) -> float:
        s, e = self.union(pred)
        return float((e - s).sum()) * _NS

    def check_nesting(self) -> list[str]:
        """Violations of: children inside parents, self time >= 0."""
        bad = []
        has_parent = self.parent >= 0
        p = self.parent[has_parent]
        kids = np.flatnonzero(has_parent)
        outside = (self.start[kids] < self.start[p]) | (self.end[kids] > self.end[p])
        for k in kids[outside][:5]:
            bad.append(f"span {k} ({self.names[k]}) leaves its parent {self.parent[k]}")
        for k in np.flatnonzero(self.self_ns < 0)[:5]:
            bad.append(f"span {k} ({self.names[k]}) has negative self time")
        for k in np.flatnonzero(self.dur < 0)[:5]:
            bad.append(f"span {k} ({self.names[k]}) ends before it starts")
        return bad

    def write_chrome(self, path) -> None:
        """Chrome trace-event JSON ("X" complete events, microseconds),
        written event by event: a train trace holds some 400k spans."""
        t0 = int(self.start.min()) if len(self) else 0
        with open(path, "w") as fh:
            fh.write('{"displayTimeUnit": "ms", "traceEvents": [\n')
            for i, name in enumerate(self.names):
                if i:
                    fh.write(",\n")
                fh.write(json.dumps({
                    "name": name, "cat": name.split(".", 1)[0], "ph": "X",
                    "ts": (int(self.start[i]) - t0) / 1000.0,
                    "dur": int(self.dur[i]) / 1000.0, "pid": 1, "tid": 1,
                    "args": {"self_us": int(self.self_ns[i]) / 1000.0,
                             "parent": int(self.parent[i]),
                             "request": int(self.request[i])}}))
            fh.write("\n]}\n")
