"""Benchmark child process: runs the passes of one workload in-process.

    python3 worker.py PLAN.json RESULT.json

The plan lists the CLI argument vectors of one pass, with ``{pass}`` in the
output prefixes.  The worker runs one warm-up pass, then timed passes until
both ``min_passes`` and ``seconds`` are reached; only the
``elastoscat.cli.main`` calls are timed.  With ``trace`` set it afterwards installs
the outside-in tracer and repeats the same number of traced passes.  Output
checks run in the parent, so this process holds only the workload, and its
peak resident set size is the workload's.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import sys
import time


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def run_pass(main, argvs: list, number: int, log: list) -> float:
    """Run one pass; returns the seconds spent inside the CLI calls."""
    total = 0.0
    for index, argv in enumerate(argvs):
        argv = [a.replace("{pass}", str(number)) for a in argv]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                rc = main(argv)
            except Exception as exc:  # a crash is a failed invocation
                rc = 1
                err.write(f"{type(exc).__name__}: {exc}")
            seconds = time.perf_counter() - start
        total += seconds
        log.append({"pass": number, "index": index, "rc": rc, "seconds": seconds,
                    "stderr": err.getvalue()[-2000:]})
    return total


def run_passes(main, plan: dict, first: int, log: list, take=None) -> tuple:
    times, layers = [], []
    started = time.perf_counter()
    while (len(times) < plan["min_passes"]
           or time.perf_counter() - started < plan["seconds"]):
        times.append(run_pass(main, plan["argvs"], first + len(times), log))
        if take is not None:
            layers.append(take())
    return times, layers


def main() -> None:
    plan_path, result_path = sys.argv[1], sys.argv[2]
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    from elastoscat import cli

    log = []
    run_pass(cli.main, plan["argvs"], 0, log)
    times, _ = run_passes(cli.main, plan, 1, log)
    result = {"environment": environment(), "untraced_s": times,
              "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if plan["trace"]:
        import tracer
        tr = tracer.Tracer()
        tr.install()
        plan = dict(plan, min_passes=len(times))
        traced, layers = run_passes(cli.main, plan, 1 + len(times), log,
                                    take=tr.take_pass)
        result.update(traced_s=traced, layers=layers, absent=sorted(tr.absent))
    result["invocations"] = log
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
