"""elastoscat benchmark harness.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  One run is closed-loop: a single
child process (one client, ``--workers 1``, one BLAS thread) calls ``elastoscat.cli.main`` on the configs that
``workloads.generate`` makes from the seed.  After one warm-up pass it
repeats the workload's pass for ``--seconds`` (at least three passes) and
every invocation's outputs are checked (``check.py``).

``--trace 0`` reports the end-to-end metrics:

* ``wall_s``: median seconds per pass;
* ``setup_s``: median cold start of a fresh interpreter up to the first
  runner call (import, argument parsing, ``load_config``), over 11 starts;
* ``peak_rss_mb``: peak resident memory of the workload's child process.

``--trace 1`` splits ``--seconds`` between untraced passes and then at least
as many passes under the outside-in tracer (``tracer.py``), and reports the
per-layer metrics plus ``trace.overhead_s``, the traced minus the untraced
median pass time.

The last line of standard output is the result as one JSON object.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import check  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

COLD_STARTS = 11
MIN_PASSES = 3
TRACE_MIN_PASSES = 2
RUN_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """The harness could not measure; no result is printed."""


def child_env(work: Path) -> dict:
    """Absolute ``src`` first on PYTHONPATH, so any working directory works.

    One BLAS thread: on a shared two-core machine the run-to-run spread of
    ``wall_s`` on medium-fine was half that with two threads.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update({var: "1" for var in THREAD_VARS})
    env["TMPDIR"] = str(work)
    return env


def source_id() -> str:
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
            if proc.returncode == 0:
                return f"git {proc.stdout.strip()}"
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return f"src-sha256 {digest.hexdigest()[:16]}"


def cold_start(argv: list, env: dict, work: Path, deadline: float) -> float:
    started = time.monotonic_ns()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "coldstart.py"), *argv],
                              env=env, cwd=work, capture_output=True, text=True,
                              timeout=max(5.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("cold start exceeded the run time limit") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"cold start failed ({proc.returncode}): "
                         f"{proc.stderr.strip()[-500:]}")
    return (int(proc.stdout.split()[-1]) - started) / 1e9


def quartiles(values: list) -> str:
    if len(values) < 2:
        return f"{values[0]:.4f}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (f"{q2:.4f} (q1 {q1:.4f}, q3 {q3:.4f}, n={len(values)}: "
            + " ".join(f"{v:.4f}" for v in values) + ")")


def run(args, work: Path) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    reference = json.loads(
        (HERE / "reference.json").read_text(encoding="utf-8"))[args.workload]
    configs = workloads.generate(args.workload, args.seed)
    argvs = []
    for i, cfg in enumerate(configs):
        exp = cfg["experiment"]
        cfg_path = work / f"{i}-{exp}.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        argvs.append([exp, "--config", str(cfg_path),
                      "--out", str(work / "p{pass}" / f"{i}-{exp}"),
                      "--workers", "1"])
        print(f"config {i}: {json.dumps(cfg, sort_keys=True)}")
    env = child_env(work)
    print(f"source: {source_id()}")
    print(f"child PYTHONPATH={env['PYTHONPATH']} "
          + " ".join(f"{v}={env[v]}" for v in THREAD_VARS))

    trace = bool(args.trace)
    plan = {"argvs": argvs, "trace": trace,
            "seconds": args.seconds / 2 if trace else args.seconds,
            "min_passes": TRACE_MIN_PASSES if trace else MIN_PASSES}
    plan_path, result_path = work / "plan.json", work / "result.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(plan_path), str(result_path)],
            env=env, cwd=work, capture_output=True, text=True,
            timeout=max(10.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("workload child exceeded the run time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"workload child exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    res = json.loads(result_path.read_text(encoding="utf-8"))
    print(f"environment: {json.dumps(res['environment'], sort_keys=True)}")

    setup = []
    if not trace:
        # after the workload child, which filled the bytecode cache
        cold_argv = [a.replace("{pass}", "cold") for a in argvs[0]]
        setup = [cold_start(cold_argv, env, work, deadline)
                 for _ in range(COLD_STARTS)]
        print(f"setup_s: {quartiles(setup)}")

    keys = [workloads.row_keys(cfg) for cfg in configs]
    failed = 0
    for inv in res["invocations"]:
        i = inv["index"]
        if inv["rc"] != 0:
            problems = [f"exit code {inv['rc']}: {inv['stderr'].strip()[-300:]}"]
        else:
            prefix = work / f"p{inv['pass']}" / f"{i}-{configs[i]['experiment']}"
            problems = check.check_invocation(prefix, configs[i], keys[i], reference)
        if problems:
            failed += 1
            print(f"FAILED pass {inv['pass']} {configs[i]['experiment']}: "
                  + "; ".join(problems[:5]))
    attempted = len(res["invocations"])
    print(f"invocations: {attempted} attempted, {failed} failed, "
          f"failed_frac {failed / attempted:.4f}")

    untraced = res["untraced_s"]
    print(f"wall_s: {quartiles(untraced)}")
    correct = failed == 0
    if not trace:
        metrics = {
            "wall_s": {"value": statistics.median(untraced), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_kb"] / 1024.0, "unit": "MiB"},
        }
    else:
        traced = res["traced_s"]
        print(f"traced wall_s: {quartiles(traced)}")
        for n, (layers, wall) in enumerate(zip(res["layers"], traced)):
            if layers["self_total_s"] > wall:
                correct = False
                print(f"FAILED traced pass {n}: span self times "
                      f"{layers['self_total_s']:.4f} s exceed the pass {wall:.4f} s")
        if res["absent"]:
            print(f"absent: {', '.join(res['absent'])}")
        metrics = tracer.per_layer_metrics(
            res["layers"], set(res["absent"]),
            statistics.median(traced) - statistics.median(untraced))
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "elastoscat" / "cli.py").is_file():
        print(f"no elastoscat source tree at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    work = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = run(args, work)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
