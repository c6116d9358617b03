"""Benchmark for carnot: run one workload and print its metrics.

    python3 perfbench/run.py --workload W --seed N --seconds T --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a carnot checkout.  The workload runs in a fresh
single-threaded interpreter (perfbench/worker.py) that imports carnot from
``src/``.  Set-up is timed from the spawn of a fresh interpreter to the
worker's ``ready`` line, SETUP_SAMPLES times per run, and the median is
reported.  Metadata goes to stdout first; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The full result (and, traced, the span file) is written under
``.perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
OUT_DIR = os.path.join(ROOT, ".perfbench")
SETUP_SAMPLES = 7      # fresh interpreters timed to `ready`, per run
RUN_LIMIT_S = 170      # a run is abandoned past this, whatever --seconds says


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    """sha256 of carnot's sources: identifies the code without git."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "carnot")
    for dirpath, dirnames, files in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def commit():
    """HEAD of the checkout, or "unknown" outside a git work tree of its own."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode or len(lines) != 2 or \
            os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown"
    return lines[1]


def worker_env():
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def spawn(args, deadline):
    """Run a worker to its end; return its set-up seconds.

    Set-up runs from the spawn to the worker's ``ready`` line.  A worker still
    running at ``deadline`` is killed.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"),
                             *args], stdout=subprocess.PIPE, text=True,
                            env=worker_env(), cwd=ROOT)
    try:
        ready, _, _ = select.select([proc.stdout], [], [],
                                    max(0.0, deadline - time.perf_counter()))
        first = proc.stdout.readline() if ready else ""
        setup_s = time.perf_counter() - t0
        rc = proc.wait(timeout=max(0.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise RuntimeError("worker ran past the run limit")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if rc != 0 or first.strip() != "ready":
        raise RuntimeError(f"worker {' '.join(args)} exited with {rc}")
    return setup_s


def run(args, spec):
    deadline = time.perf_counter() + RUN_LIMIT_S
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # set-up probes straddle the measured run, so a host that speeds up or
    # slows down during the run weighs on both sides of the median
    probe = common + ["--setup-only"]
    setups = [spawn(probe, deadline) for _ in range(SETUP_SAMPLES // 2)]
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(
        OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    if os.path.exists(path):
        os.remove(path)
    setups.append(spawn(common + ["--result", path], deadline))
    setups += [spawn(probe, deadline)
               for _ in range(SETUP_SAMPLES - len(setups))]
    with open(path) as fh:
        result = json.load(fh)

    section = "per_layer" if args.trace else "end_to_end"
    metrics = dict(result["metrics"])
    metrics["setup_s"] = median(setups)
    listed = {m["name"]: m["unit"] for m in spec[section]}
    missing = sorted(set(listed) - set(metrics))
    if args.trace:
        # a layer the workload never enters reads 0
        metrics.update({k: 0 for k in missing})
    elif missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    result["setup_s"] = setups
    result["metadata"] = {
        "python": platform.python_version(), "commit": commit(),
        "source_sha256": source_digest(),
        "host.calibration_ms": result["calibration_ms"],
    }
    with open(path, "w") as fh:
        json.dump({**result, "all_metrics": metrics}, fh, indent=1)

    for key, value in result["metadata"].items():
        print(f"{key}: {value}")
    print(f"passes: {result['passes']}; setup samples: {len(setups)}")
    for problem in result["problems"]:
        print(f"problem: {problem}")
    if args.trace:
        print(f"trace: {result['trace_file']}; tracing overhead "
              f"{metrics['trace.overhead']:.2f}x the untraced pass")
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in listed.items()}}))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true",
                   help="check that the output checks catch wrong outputs")
    args = p.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "carnot", "__init__.py")):
        fail("run from the root of a carnot checkout (no src/carnot here)")
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")
    if args.self_test:
        sys.exit(subprocess.run([sys.executable,
                                 os.path.join(HERE, "selftest.py")],
                                env=worker_env(), cwd=ROOT).returncode)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"--workload must be one of {names}")
    try:
        run(args, spec)
    except (RuntimeError, OSError, ValueError, KeyError) as exc:
        fail(str(exc))


if __name__ == "__main__":
    main()
