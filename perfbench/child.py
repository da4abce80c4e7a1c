"""One measured ``annulab.cli.main(argv)`` call in a fresh interpreter.

Usage (from ``run.py``): ``child.py <spawn-time> <repo-root> <spec-json>``.
``spawn-time`` is the parent's ``time.perf_counter()`` just before it
started this process; on Linux that clock is CLOCK_MONOTONIC, shared by all
processes, so ``setup_s`` is the time from process start until
``annulab.cli`` is imported.  Only ``os``, ``sys`` and ``time`` are imported
before that point.

The last line of stdout is one JSON object with the call's numbers; the
CLI's own output comes before it.
"""

import os
import sys
import time


def run(setup_s: float, spec: dict, cli) -> dict:
    import json
    import platform
    import resource
    import traceback

    import numpy
    import scipy

    import spans
    import workloads

    out = {
        "setup_s": setup_s,
        "versions": {"python": platform.python_version(),
                     "numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if spec["mode"] == "setup":
        return out
    tracer = spans.Tracer().install() if spec["trace"] else None
    main = tracer.wrap(cli.main, "cli.main", "cli") if tracer else cli.main
    code, error = None, None
    t0 = time.perf_counter()
    try:
        code = main(spec["argv"])
    except Exception:  # the benchmark records a crash as a failed call
        error = traceback.format_exc(limit=4)
    wall = time.perf_counter() - t0
    if tracer:
        tracer.uninstall()
    out["wall_s"] = wall
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["exit_code"] = code
    if code == 0:
        chk = workloads.check(spec["workload"], spec["out_dir"], spec["value"])
        out.update(ok=chk.ok, problems=chk.problems, values=chk.values)
    else:
        out.update(ok=False, problems=[error or f"exit code {code}"], values={})
    out["out_bytes"] = workloads.directory_bytes(spec["out_dir"])
    if tracer:
        out["layers"] = spans.layer_metrics(tracer.spans)
        out["layers"]["export.bytes"] = out["out_bytes"]
        out["threads"] = list(spans.thread_totals(tracer.spans).values())
        root = next(s for s in tracer.spans if s.name == "cli.main")
        out["traced_s"] = root.end - root.start
        with open(spec["spans_file"], "w") as fh:
            json.dump([vars(s) for s in tracer.spans], fh)
    return out


if __name__ == "__main__":
    t_spawn = float(sys.argv[1])
    sys.path.insert(0, os.path.join(sys.argv[2], "src"))
    import annulab.cli

    setup = time.perf_counter() - t_spawn
    import json

    result = run(setup, json.loads(sys.argv[3]), annulab.cli)
    print(json.dumps(result), flush=True)
