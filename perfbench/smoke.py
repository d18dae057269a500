"""Smoke check of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at minimal length and asserts that
  * every metric BENCHMARK.json names is emitted with its unit, untraced
    (end_to_end) and traced (per_layer);
  * spans nest: each child lies inside its parent, self time >= 0;
  * the two injected bad operations show up in failed_ops_frac: a
    malformed request the library refuses, and an operation whose output
    was corrupted, which the output check must catch with its message;
  * in a directory holding only BENCHMARK.json and the benchmark's own
    files, the benchmark exits non-zero without printing a result.
Exits 0 when every assertion holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# operation indices of the injected operations (workloads.MALFORMED, CORRUPTED)
MALFORMED, CORRUPTED = -2, -1
# what each workload's output check reports for the corrupted output
CHECK_MESSAGE = {
    "train": "training losses missing or not finite",
    "finetune": "finetuning losses missing or not finite",
    "reconstruct": "reconstruction has the wrong shape or is not finite",
    "uq": "replicates have the wrong shape or are not finite",
}


def run(args, cwd=ROOT, timeout=300):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def expect(cond, msg, errors):
    if not cond:
        errors.append(msg)


def check_metrics(res, wanted, what, errors):
    got = res["metrics"]
    expect(set(res) == RESULT_KEYS, f"{what}: result keys {sorted(res)}", errors)
    expect([m["name"] for m in wanted] == list(got), f"{what}: metric names differ", errors)
    for m in wanted:
        v = got.get(m["name"])
        expect(v is not None and v["unit"] == m["unit"] and isinstance(v["value"], float),
               f"{what}: {m['name']} missing or without unit {m['unit']}", errors)


def check_trace(path, errors, what):
    events = json.loads(path.read_text())["traceEvents"]
    expect(len(events) > 0, f"{what}: empty trace", errors)
    eps = 1e-3  # microsecond values are rounded to nanoseconds
    for ev in events:
        expect(ev["args"]["self_us"] >= 0, f"{what}: negative self time in {ev['name']}", errors)
        p = ev["args"]["parent"]
        if p >= 0:
            par = events[p]
            inside = (ev["ts"] >= par["ts"] - eps
                      and ev["ts"] + ev["dur"] <= par["ts"] + par["dur"] + eps)
            expect(inside, f"{what}: {ev['name']} leaves its parent {par['name']}", errors)
        if len(errors) > 20:
            return


def main() -> int:
    errors = []
    for w in [w["name"] for w in SPEC["workloads"]]:
        proc = run(["--workload", w, "--seed", "0", "--seconds", "1", "--trace", "0",
                    "--inject-bad"])
        expect(proc.returncode == 0, f"{w}: exit {proc.returncode}: {proc.stderr[-500:]}",
               errors)
        if proc.returncode == 0:
            res = last_json(proc)
            check_metrics(res, SPEC["end_to_end"], f"{w} untraced", errors)
            report = json.loads((HERE / "out" / f"{w}-seed0-trace0.json").read_text())
            errs = {f["op"]: f["error"] for f in report["failures"]}
            expect("Error" in errs.get(MALFORMED, ""),
                   f"{w}: the malformed request was not refused", errors)
            expect(errs.get(CORRUPTED) == CHECK_MESSAGE[w],
                   f"{w}: the corrupted output was not caught by its check: "
                   f"{errs.get(CORRUPTED)!r}", errors)
            expect(res["failed"] == 2 and report["result"]["failed_ops_frac"]
                   == 2 / res["attempted"], f"{w}: failed {res['failed']}, expected the 2 "
                   "injected operations", errors)
            expect(res["correct"] is False, f"{w}: run with a failure reported correct", errors)

        proc = run(["--workload", w, "--seed", "0", "--seconds", "1", "--trace", "1"])
        expect(proc.returncode == 0, f"{w}: traced exit {proc.returncode}: {proc.stderr[-500:]}",
               errors)
        if proc.returncode == 0:
            res = last_json(proc)
            check_metrics(res, SPEC["per_layer"], f"{w} traced", errors)
            expect(res["correct"] and res["failed"] == 0, f"{w}: traced run not correct", errors)
            report = json.loads((HERE / "out" / f"{w}-seed0-trace1.json").read_text())
            expect(not report["span_nesting_violations"], f"{w}: span nesting violations",
                   errors)
            expect("tracing_overhead" in report, f"{w}: no tracing overhead", errors)
            check_trace(ROOT / report["chrome_trace"], errors, w)
        print(f"{w}: {'ok' if not errors else 'FAILED'}", flush=True)

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in HERE.glob("*.py"):
        shutil.copy(f, bare / "perfbench")
    proc = run(["--workload", "train", "--seed", "0", "--seconds", "1", "--trace", "0"],
               cwd=bare, timeout=180)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "without the library sources the benchmark must fail without a result", errors)
    shutil.rmtree(bare, ignore_errors=True)

    for e in errors:
        print("FAIL:", e)
    print("smoke check", "passed" if not errors else "FAILED")
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
