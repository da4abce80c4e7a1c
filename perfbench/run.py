"""annulab benchmark: one CLI experiment per fresh process, checked outputs.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30

Each measured call starts a new Python process that imports ``annulab.cli``
and calls ``main(argv)`` once (``child.py``); calls run one after another (a
closed loop with one client) until the next one would overrun
``--seconds``.  Set-up is also measured in import-only processes: one before
each call, and more in the time the last call leaves.  With ``--trace 1``
untraced and traced calls alternate and the per-layer metrics come from the
traced ones.

The last line of stdout is the JSON result
``{"correct", "attempted", "failed", "metrics"}``; the lines before it are a
readable table and a ``detail`` JSON record with the resolved argv of every
call, per-call numbers and machine metadata, which is also appended to
``.bench_results/runs.jsonl``.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
WORK = os.path.join(ROOT, ".bench_work")
RESULTS = os.path.join(ROOT, ".bench_results")

SETUP_PROBES = 3  # least import-only processes per run, besides each call's own
CALL_TIMEOUT_S = 170.0

# the calling thread's traced time (the cli.main span) may fall short of the
# call's measured wall_s by no more than the cost of one wrapper call
TRACE_COVER_ATOL = 1e-3


def declared() -> tuple[dict, dict]:
    """``{name: unit}`` of the end-to-end and per-layer metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def spawn(spec: dict, timeout: float) -> dict:
    """Run ``child.py`` once; a crash or timeout becomes a failed record."""
    t = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, repr(t), ROOT, json.dumps(spec)],
            cwd=ROOT, capture_output=True, text=True, timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        return {"ok": False, "problems": [f"timed out after {timeout:.0f} s"]}
    lines = proc.stdout.strip().splitlines()
    tail = proc.stderr.strip().splitlines()[-3:]
    try:
        out = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"ok": False, "problems": [f"child exited {proc.returncode}: {tail}"]}
    if not out.get("ok", True):
        out["problems"].append(f"stderr: {tail}")
    return out


def metadata(seed: int, versions: dict) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    return {"seed": seed, "nproc": os.cpu_count(), "cpu_model": cpu,
            "git_commit": git_commit(), **versions}


def git_commit() -> str | None:
    """HEAD of the checkout, or None outside a git tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def median(xs):
    return statistics.median(xs) if xs else None


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """All calls of one run, summarized."""
    argv, value = workloads.resolve(name, seed)
    n = 0

    def call(mode, traced=False):
        nonlocal n
        n += 1
        out_dir = os.path.join(WORK, f"{name}-{os.getpid()}-{n}")
        shutil.rmtree(out_dir, ignore_errors=True)
        os.makedirs(out_dir)
        spec = {"mode": mode, "trace": traced, "workload": name, "value": value,
                "argv": argv + ["--out-dir", out_dir], "out_dir": out_dir,
                "spans_file": os.path.join(RESULTS, f"spans-{name}-seed{seed}.json")}
        try:
            rec = spawn(spec, CALL_TIMEOUT_S)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        rec["traced"] = traced
        return rec

    # users do not pay for byte-compiling on every run
    compileall.compile_dir(os.path.join(ROOT, "src"), quiet=1)
    probes, calls = [], []

    def probe():
        t = time.perf_counter()
        probes.append(call("setup"))
        return time.perf_counter() - t

    # an import-only probe before each call, and more in the time the last
    # call leaves, so that set-up is sampled over the whole run
    t0 = time.perf_counter()
    while True:
        per_probe = probe()
        unit = [call("call")] + ([call("call", traced=True)] if trace else [])
        calls += unit
        spent = time.perf_counter() - t0
        per_unit = spent / len(probes)
        if not all(c["ok"] for c in unit) or spent + per_unit > seconds:
            break
    while len(probes) < SETUP_PROBES or spent + per_probe <= seconds:
        per_probe = probe()
        spent = time.perf_counter() - t0
    return {"workload": name, "seed": seed, "param": {workloads.WORKLOADS[name].param: value},
            "argv": argv + ["--out-dir", "<fresh dir per call>"],
            "probes": probes, "calls": calls}


def summarize(run: dict, trace: bool, units: tuple[dict, dict]) -> tuple[dict, dict]:
    """(result line, detail record) of one run."""
    calls, probes = run["calls"], run["probes"]
    good = [c for c in calls if c["ok"]]
    failed = len(calls) - len(good)
    # a failed call still has its timings; the run is marked incorrect anyway
    plain = [c for c in calls if "wall_s" in c and not c["traced"]]
    traced = [c for c in calls if "layers" in c]
    setups = [c["setup_s"] for c in probes + calls if "setup_s" in c]
    e2e = {
        "wall_s": median([c["wall_s"] for c in plain]),
        "setup_s": median(setups),
        "peak_rss_mb": median([c["peak_rss_mb"] for c in plain]),
    }
    samples = {"wall_s": len(plain), "setup_s": len(setups), "peak_rss_mb": len(plain)}
    detail = {
        "workload": run["workload"], "argv": run["argv"], "param": run["param"],
        "attempted": len(calls), "failed": failed,
        "failed_share": failed / len(calls),
        "end_to_end": e2e, "samples": samples,
        "accuracy": {k: median([c["values"][k] for c in good])
                     for k in (good[0]["values"] if good else {})},
        "problems": sorted({p for c in calls for p in c.get("problems", [])}),
        "metadata": metadata(run["seed"], next(
            (c["versions"] for c in probes + calls if "versions" in c), {})),
        "calls": [{k: c.get(k) for k in ("traced", "setup_s", "wall_s", "peak_rss_mb",
                                          "exit_code", "ok", "out_bytes")}
                  for c in calls],
        "setup_probes_s": [p.get("setup_s") for p in probes],
    }
    if trace:
        # one whole call, so that its layer times stay consistent
        pick = sorted(traced, key=lambda c: c["wall_s"])[(len(traced) - 1) // 2:]
        layers = dict(pick[0]["layers"]) if pick else {}
        if pick and plain:
            layers["trace.overhead_s"] = pick[0]["wall_s"] - e2e["wall_s"]
        threads = [t for c in traced for t in c["threads"]]
        if any(not 0 <= c["wall_s"] - c["traced_s"] <= TRACE_COVER_ATOL for c in traced):
            detail["problems"].append("the cli.main span does not cover the timed call")
        detail["threads"] = threads
        detail["per_layer"] = layers
    values = detail.get("per_layer", e2e)
    metrics = {k: {"value": values.get(k), "unit": u} for k, u in units[trace].items()}
    complete = all(m["value"] is not None for m in metrics.values())
    result = {"correct": failed == 0 and complete and not detail["problems"],
              "attempted": len(calls),
              "failed": failed, "metrics": metrics}
    return result, detail


def table(detail: dict, units: tuple[dict, dict]) -> str:
    rows = [f"workload {detail['workload']}  argv: annulab {' '.join(detail['argv'])}",
            f"  output check: {'pass' if not detail['problems'] else 'FAIL'}"
            f"  attempted {detail['attempted']}  failed {detail['failed']}"
            f"  failed_share {detail['failed_share']:.3g}"]
    rows += [f"  {p}" for p in detail["problems"]]
    for k, u in units[0].items():
        v = detail["end_to_end"][k]
        rows.append(f"  {k:<30} {v if v is None else f'{v:.6g}':>14} {u:<6}"
                    f" n={detail['samples'][k]}")
    for k, v in detail["accuracy"].items():
        rows.append(f"  {k:<30} {v if v is None else f'{v:.6g}':>14} {'1':<6}")
    if "per_layer" in detail:
        for k, u in units[1].items():
            v = detail["per_layer"].get(k)
            rows.append(f"  {k:<30} {v if v is None else f'{v:.6g}':>14} {u}")
    return "\n".join(rows)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "annulab", "cli.py")):
        print(f"error: no annulab sources under {ROOT}/src", file=sys.stderr)
        return 2
    units = declared()
    os.makedirs(RESULTS, exist_ok=True)
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        run = measure(name, args.seed, args.seconds, bool(args.trace))
        results[name], detail = summarize(run, bool(args.trace), units)
        print(table(detail, units))
        line = json.dumps({"detail": detail, "result": results[name]})
        print(line)
        with open(os.path.join(RESULTS, "runs.jsonl"), "a") as fh:
            fh.write(line + "\n")
    shutil.rmtree(WORK, ignore_errors=True)
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}.{k}": m for n, r in results.items()
                             for k, m in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
