"""reconkit benchmark: one workload per process, closed loop, one caller.

    python3 perfbench/run.py --workload train --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20

Run from the root of a source checkout; the library is imported from
``src/``.  With ``--trace 0`` the last line of standard output is a JSON
object whose metrics are the ``end_to_end`` metrics of BENCHMARK.json;
with ``--trace 1`` the run measures half its time untraced, then a fixed
number of operations traced, and the metrics are the ``per_layer`` ones.  The full report
(metadata, every per-layer metric, checks, failures) goes to
``perfbench/out/`` next to a Chrome trace-event file of the traced half.
``--workload all`` runs the four workloads, each in its own process, and
prints the named end-to-end metrics of each.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# set-up samples from fresh child interpreters, before and after the
# measured phases: a shared machine's speed can drift in phases of tens of
# seconds, and samples on both sides of a run blend them
SETUP_PROBES_BEFORE = 1
SETUP_PROBES_AFTER = 2
HELD_OUT_SEED = 7919
WORKLOAD_NAMES = ("train", "finetune", "reconstruct", "uq")
# the named end-to-end metric of each (workload, metric) pair
NAMED = {
    ("train", "work_per_s"): "train_samples_per_s",
    ("train", "psnr_db"): "train_psnr_db",
    ("finetune", "work_per_s"): "finetune_steps_per_s",
    ("finetune", "psnr_db"): "finetune_psnr_db",
    ("reconstruct", "latency_ms_p50"): "reconstruct_ms_p50",
    ("reconstruct", "latency_ms_p75"): "reconstruct_ms_p75",
    ("uq", "latency_ms_p50"): "uq_ms_p50",
    ("uq", "latency_ms_p75"): "uq_ms_p75",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject-bad", action="store_true",
                    help="start with a malformed request and a corrupted output (smoke check)")
    ap.add_argument("--setup-probe", action="store_true",
                    help="only import and set up once, print the times as JSON")
    return ap.parse_args(argv)


def import_library():
    """Import reconkit from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "reconkit" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no reconkit sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    t0 = time.perf_counter()
    import reconkit.cli  # noqa: F401  (imports every library module)
    import workloads  # noqa: F401
    import_s = time.perf_counter() - t0
    import reconkit
    if Path(reconkit.__file__).resolve().parent != (src / "reconkit").resolve():
        raise SystemExit(f"benchmark: reconkit imported from {reconkit.__file__}")
    return import_s


# ---------------------------------------------------------------------------
# metadata
# ---------------------------------------------------------------------------


def _read(path) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def blas_threads():
    """OpenBLAS thread count as numpy's bundled library reports it."""
    import ctypes

    libs = {line.split()[-1] for line in _read("/proc/self/maps").splitlines()
            if "openblas" in line.lower() and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return {"library": os.path.basename(path), "threads": int(fn())}
    return {"library": None, "threads": None}


def machine() -> dict:
    import scipy

    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(idx / "level"), _read(idx / "type")
        caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = _read(idx / "size")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu, "caches": caches,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "RECONKIT_THREADS": os.environ.get("RECONKIT_THREADS"),
        "thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                  "MKL_NUM_THREADS") if k in os.environ},
    }


def source_state() -> dict:
    commit = None
    if (ROOT / ".git").exists():  # never a repository above the checkout
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    lines = sum(len(p.read_text().splitlines())
                for p in sorted((ROOT / "src" / "reconkit").glob("*.py")))
    return {"git_commit": commit or "unknown (not a git checkout)", "src_lines": lines}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def setup(args, workdir):
    """Import the library and set the workload up once; returns the
    workload and the set-up sample: import and set-up seconds, and the
    median of six host-speed probe samples taken around them."""
    before = [hostspeed.kernel_s() for _ in range(3)]
    import_s = import_library()
    from workloads import WORKLOADS

    workdir.mkdir(parents=True)
    wl = WORKLOADS[args.workload]()
    t0 = time.perf_counter()
    wl.setup(args.seed, str(workdir), args.inject_bad)
    setup_s = time.perf_counter() - t0
    host_s = float(np.median(before + [hostspeed.kernel_s() for _ in range(3)]))
    return wl, {"import_s": import_s, "setup_s": setup_s, "host_s": host_s}


def setup_probes(args, n) -> list:
    """``n`` set-up samples, each from a fresh interpreter, one after another."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    return [json.loads(subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                      timeout=120, check=True).stdout.splitlines()[-1])
            for _ in range(n)]


def setup_probe(args) -> int:
    workdir = OUT / f"probe-{os.getpid()}"
    try:
        _, sample = setup(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(sample))
    return 0


def attempt(wl, i, tracer=None):
    """Operation ``i`` and its output check, which is not traced.  Returns
    (result, None), or (None, error) when either raises or the check
    fails: a failed operation is counted, not fatal."""
    if tracer is not None:
        tracer.request_id = i
    try:
        res = wl.run(i)
    except Exception:
        return None, traceback.format_exc(limit=4)
    finally:
        if tracer is not None:
            tracer.request_id = -1
    if tracer is not None:
        recording, tracer.recording = tracer.recording, False
    try:
        problems = wl.check(i, res)
    except Exception:
        problems = [traceback.format_exc(limit=4)]
    finally:
        if tracer is not None:
            tracer.recording = recording
    return (None, "; ".join(problems)) if problems else (res, None)


def measure(wl, first, seconds=None, count=None, min_ok=1, min_samples=0, tracer=None):
    """Closed loop from operation ``first``.  With ``count`` it runs exactly
    that many operations.  Otherwise it ends at the boundary of a cycle of
    ``wl.granule`` operations (counted from operation 0) that lies nearest
    to ``seconds``, once ``min_ok`` operations have succeeded with
    ``min_samples`` latency samples.  An untraced phase takes host-speed
    samples between operations; returns them as a ``SpeedLog`` (None when
    traced)."""
    ok, failures = [], []
    n_lat = 0
    i = first
    speed = wl.speed = None if tracer is not None else hostspeed.SpeedLog()
    wl.begin()
    start = time.perf_counter()
    while wl.has(i):
        if count is not None:
            if i - first == count:
                break
        elif (i > 0 and i % wl.granule == 0 and len(ok) >= min_ok
              and n_lat >= min_samples):
            elapsed = time.perf_counter() - start
            if elapsed + 0.5 * elapsed * wl.granule / (i - first) >= seconds:
                break
        if len(failures) >= 10 and not ok:
            break
        if speed is not None:
            speed.maybe()
        t0 = time.perf_counter()
        res, error = attempt(wl, i, tracer)
        if error:
            failures.append({"op": i, "error": error})
        else:
            res["index"] = i
            res["span"] = (t0, time.perf_counter())
            ok.append(res)
            n_lat += len(res["lat"])
        i += 1
    wall = time.perf_counter() - start
    wl.speed = None
    return ok, failures, i, wall, speed


def ref_time(r, speed) -> float:
    """Operation ``r``'s time rescaled to the reference host speed: each
    optimizer step by the probe samples around it, the rest of the
    operation by those around the whole operation."""
    steps = r.get("steps", [])
    stepped = sum(e - s for s, e in steps)
    return (sum((e - s) * speed.scale(s, e) for s, e in steps)
            + (r["busy"] - stepped) * speed.scale(*r["span"]))


def end_to_end(wl, ok, speed=None) -> dict:
    """The end-to-end metrics of a phase, but ``setup_s``, which the run
    adds once its last set-up sample is in.  ``work_per_ref_s`` rescales
    each operation's time to the reference host speed (hostspeed.py); it
    needs the phase's ``SpeedLog``."""
    lat = np.asarray([v for r in ok for v in r["lat"]])
    busy = sum(r["busy"] for r in ok)
    work = sum(r["work"] for r in ok)
    ref_busy = sum(ref_time(r, speed) for r in ok) if speed else 0.0

    def pct(q):
        return float(np.percentile(lat, q)) * 1e3 if len(lat) else float("nan")

    ref = {"work_per_ref_s": {"value": work / ref_busy if ref_busy else float("nan"),
                              "unit": "1/s"}} if speed else {}
    return {
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"},
        **ref,
        "work_per_s": {"value": work / busy if busy else float("nan"), "unit": "1/s"},
        "latency_ms_p50": {"value": pct(50), "unit": "ms"},
        "latency_ms_p75": {"value": pct(75), "unit": "ms"},
        "psnr_db": {"value": wl.quality(ok), "unit": "dB"},
    }


def phase_summary(ok, failures, wall) -> dict:
    lat = sum(len(r["lat"]) for r in ok)
    summary = {"ops_ok": len(ok), "ops_failed": len(failures), "wall_s": wall,
               "latency_samples": lat,
               "samples_beyond_p75": lat - int(0.75 * (lat - 1)) - 1 if lat else 0}
    if ok and "repeat" in ok[0]:
        summary["operator_repeat_share"] = sum(r["repeat"] for r in ok) / len(ok)
        groups = {}
        for r in ok:
            groups.setdefault(f"{r['size']}px", []).append(r["busy"])
            groups.setdefault("repeated" if r["repeat"] else "fresh", []).append(r["busy"])
        busy = sum(r["busy"] for r in ok)
        summary["latency_ms_p50_by_group"] = {
            g: {"ms": float(np.median(v)) * 1e3, "n": len(v), "busy_share": sum(v) / busy}
            for g, v in sorted(groups.items())}
    if ok and "extra" in ok[0]:
        summary["first_op"] = ok[0]["extra"]
    gaps = [r["equivariance_gap"] for r in ok if "equivariance_gap" in r]
    if gaps:
        summary["equivariance_gap_max"] = max(gaps)
        summary["equivariance_checks"] = len(gaps)
        # the same requests: as timed (new handle) and again on the cached one
        summary["fresh_vs_warm_ms"] = [
            {"kind": r["kind"], "size": r["size"], "fresh": r["busy"] * 1e3,
             "warm": r["warm_s"] * 1e3} for r in ok if "warm_s" in r]
    return summary


def run_one(args) -> int:
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    try:
        wl, first = setup(args, workdir)
        report, report_path = measure_all(args, wl, first, tag)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print_summary(report, report_path)
    print(json.dumps({k: report["result"][k] for k in ("correct", "attempted", "failed",
                                                       "metrics")}))
    return 0


def measure_all(args, wl, first_setup, tag):
    """The measured phases, with the set-up probes around them; returns
    the report and its path."""
    import workloads

    if args.trace and int(os.environ.get("RECONKIT_THREADS", "1") or 1) > 1:
        raise SystemExit("benchmark: the tracer records one thread; unset RECONKIT_THREADS")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    samples = [first_setup] + setup_probes(args, SETUP_PROBES_BEFORE)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "held_out_seed": HELD_OUT_SEED,
              "workload_info": wl.describe(), "machine": machine(),
              "source": source_state(), "trace_ops": wl.trace_ops}
    if args.trace:
        seconds, min_ok, min_samples = args.seconds / 2, 1, 0
    else:
        seconds, min_ok, min_samples = args.seconds, wl.quality_ops, workloads.MIN_SAMPLES
    ok, failures, nxt, wall, speed = measure(wl, workloads.MALFORMED if args.inject_bad else 0,
                                             seconds, min_ok=min_ok, min_samples=min_samples)
    attempted = len(ok) + len(failures)
    report["untraced"] = {"metrics": end_to_end(wl, ok, speed),
                          **phase_summary(ok, failures, wall),
                          "host_speed": {**speed.summary(), "samples_s": speed.samples},
                          "ops": [{"index": r["index"], "busy_s": r["busy"], "work": r["work"],
                                   "ref_s": ref_time(r, speed),
                                   **{k: r[k] for k in ("kind", "size") if k in r}} for r in ok]}
    if args.trace:
        import layers
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(extra_modules=[workloads])
        try:
            tok, tfails, nxt, twall, _ = measure(wl, nxt, count=wl.trace_ops, tracer=tracer)
            # untimed probe forwards for the bytes each forward keeps
            tracer.start_memory()
            try:
                for y, op, noise in wl.probe(nxt):
                    wl.model.forward(y, op, noise)
            finally:
                tracer.stop_memory()
        finally:
            tracer.uninstall()
        attempted += len(tok) + len(tfails)
        failures += tfails
        spans = tracer.spans()
        report["traced"] = {"metrics": end_to_end(wl, tok), **phase_summary(tok, tfails, twall)}
        un, tr_ = report["untraced"]["metrics"], report["traced"]["metrics"]
        report["tracing_overhead"] = {
            "work_per_s_ratio": un["work_per_s"]["value"] / tr_["work_per_s"]["value"],
            "latency_ms_p50_ratio": tr_["latency_ms_p50"]["value"]
            / un["latency_ms_p50"]["value"]}
        step_s = [v for r in tok for v in r["lat"]] if wl.name == "train" else []
        report["per_layer"] = layers.per_layer(spans, tracer, step_s)
        report["span_nesting_violations"] = spans.check_nesting()
        # one Chrome trace per workload (the latest run): a train trace
        # takes some 80 MB
        trace_path = OUT / f"{args.workload}.trace.json"
        spans.write_chrome(trace_path)
        report["chrome_trace"] = str(trace_path.relative_to(ROOT))
    samples += setup_probes(args, SETUP_PROBES_AFTER)
    # each sample rescaled to the reference host speed by the probe its
    # own process took around it (hostspeed.py); the wall-time median is
    # kept in the report
    setup_s = float(np.median([(x["import_s"] + x["setup_s"]) * hostspeed.REF_S / x["host_s"]
                               for x in samples]))
    report["setup_samples"] = samples
    report["setup_wall_s"] = float(np.median([x["import_s"] + x["setup_s"] for x in samples]))
    for phase in ("untraced", "traced"):
        if phase in report:
            report[phase]["metrics"] = {"setup_s": {"value": setup_s, "unit": "s"},
                                        **report[phase]["metrics"]}
    if args.trace:
        wanted, source = spec["per_layer"], report["per_layer"]
    else:
        wanted, source = spec["end_to_end"], report["untraced"]["metrics"]
    report["failures"] = failures
    metrics = {m["name"]: {"value": source[m["name"]]["value"], "unit": m["unit"]}
               for m in wanted}
    correct = not failures and all(np.isfinite(v["value"]) for v in metrics.values())
    if args.trace:
        correct = correct and not report["span_nesting_violations"]
    report["result"] = {"correct": bool(correct), "attempted": attempted,
                        "failed": len(failures),
                        "failed_ops_frac": len(failures) / max(attempted, 1),
                        "metrics": metrics}
    report_path = OUT / f"{tag}.json"
    report_path.write_text(json.dumps(report, indent=1, default=str) + "\n")
    return report, report_path


def print_summary(report, path):
    res = report["result"]
    print(f"workload {report['workload']}  seed {report['seed']}  trace {report['trace']}  "
          f"report {path.relative_to(ROOT)}")
    for phase in ("untraced", "traced"):
        if phase in report:
            ph = report[phase]
            print(f"  {phase}: {ph['ops_ok']} ops ok, {ph['ops_failed']} failed, "
                  f"{ph['latency_samples']} latency samples in {ph['wall_s']:.1f} s")
            for name, m in ph["metrics"].items():
                print(f"    {name:<16} {m['value']:>12.4f} {m['unit']}")
    if "tracing_overhead" in report:
        ov = report["tracing_overhead"]
        print(f"  tracing overhead: work/s untraced/traced {ov['work_per_s_ratio']:.2f}x")
    print(f"  failed_ops_frac {res['failed_ops_frac']:.4f} "
          f"({res['failed']} of {res['attempted']})")
    for f in report["failures"][:3]:
        print(f"  failure at op {f['op']}: {f['error'].strip().splitlines()[-1]}")


def run_all(args) -> int:
    """Each workload in its own process; print the named metrics."""
    named, bad = {}, 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.inject_bad:
            cmd.append("--inject-bad")
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n" if proc.stdout else "")
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        tag = f"{name}-seed{args.seed}-trace{args.trace}"
        report = json.loads((OUT / f"{tag}.json").read_text())
        res = report["result"]
        bad += res["failed"]
        e2e = report["untraced"]["metrics"]
        for metric in ("setup_s", "peak_rss_mb", "work_per_ref_s"):
            named[f"{name}.{metric}"] = e2e[metric]
        named[f"{name}.failed_ops_frac"] = {"value": res["failed_ops_frac"], "unit": "share"}
        for (wname, metric), label in NAMED.items():
            if wname == name:
                named[label] = e2e[metric]
    print("named end-to-end metrics:")
    for label, m in named.items():
        print(f"  {label:<32} {m['value']:>12.4f} {m['unit']}")
    print(json.dumps({"correct": bad == 0, "metrics": named}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        raise SystemExit("benchmark: --seconds must be positive")
    if args.setup_probe:
        return setup_probe(args)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
