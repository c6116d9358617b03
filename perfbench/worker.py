"""One workload in a fresh interpreter, started by run.py.

    python3 perfbench/worker.py --workload W --seed N --seconds T --trace 0|1
                                [--setup-only]

The worker imports carnot from ``src/`` of the current directory, sets the
workload up and prints ``ready``; run.py times set-up from the spawn to that
line.  With ``--setup-only`` it stops there.  Otherwise it runs whole passes
of the workload, as many as fit in ``--seconds`` at the median pass time so
far (at least one), checks every output against ``references``, and writes
one JSON object with the operations' latencies, the failures and (traced)
the per-layer metrics to ``--result``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
import resource
import sys
import time
import traceback
from fractions import Fraction
from statistics import median, quantiles

import references as ref
import tracer as tr

ROOT = os.getcwd()
OUT_DIR = os.path.join(ROOT, ".perfbench")


def calibrate_ms() -> float:
    """A fixed pure-Python loop: a control no change to carnot can move."""
    t0 = time.perf_counter()
    s = Fraction(0)
    for i in range(1, 20001):
        s += Fraction(1, i % 97 + 1)
    return (time.perf_counter() - t0) * 1e3


def import_carnot():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import carnot
    import carnot.cli
    if not os.path.abspath(carnot.__file__).startswith(src + os.sep):
        raise SystemExit(f"carnot imported from {carnot.__file__}, not {src}")
    return carnot


class Op:
    """One timed operation: a CLI call, or a verify pass over some groups."""

    def __init__(self, kind, name):
        self.kind = kind
        self.name = name
        self.latency = 0.0
        self.parts: dict = {}
        self.problems: list = []


def cli_call(carnot, argv):
    """Run carnot.cli.main(argv) in-process; returns (exit code, stdout, s)."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        rc = carnot.cli.main(list(argv))
    return rc, buf.getvalue(), time.perf_counter() - t0


def checked_call(carnot, argv, check, op, hooks, label):
    """Time one CLI call into ``op`` under ``label`` and record its problems."""
    try:
        rc, out, dt = cli_call(carnot, argv)
    except Exception as exc:  # an internal error is a failed operation
        traceback.print_exc()
        hooks.after_op()
        op.problems.append(f"{' '.join(argv)}: raised {exc!r}")
        return
    hooks.after_op()
    op.latency += dt
    op.parts[label] = dt
    if rc != 0:
        op.problems.append(f"{' '.join(argv)}: exit code {rc}")
        return
    try:
        problems = check(json.loads(out))
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        problems = [f"output is not the expected JSON ({exc!r})"]
    op.problems += [f"{' '.join(argv)}: {p}" for p in problems]


# -- workloads -----------------------------------------------------------------

class CartanVerify:
    """`carnot verify` on the built-in group: the paper, entrywise."""

    def setup(self, carnot, seed):
        self.seed = seed
        carnot.liealg.cartan_group()
        path = os.path.join(ROOT, "src", "carnot", "golden", "section4.json")
        with open(path) as fh:
            self.reference_problems = ref.check_golden(json.load(fh))

    def run_pass(self, carnot, hooks):
        op = Op("verify", "verify builtin:cartan")
        argv = ["verify", "--group", "builtin:cartan", "--format", "json",
                "--seed", str(self.seed)]
        checked_call(carnot, argv, lambda r: ref.check_verify_report(
            r, ref.CARTAN, cartan=True), op, hooks, "cartan")
        return [op]


def query_catalogue(h3):
    """(weight, argv) pairs; one round holds each argv `weight` times.

    ``h3`` is the path of the Heisenberg group file.  A round has 164
    queries, so p90 is the 17th slowest.  Above it sit the 10 queries of
    0.1-1 s (cold G and R Laplacians in degrees 1-4, `build` on free:4,2,
    `dc` 3-5 on free:2,4); the 10 G Laplacians in degrees 0 and 5, alike in
    cost, come next and hold p90, so neither p90 nor p75 nor p50 (the light
    queries) falls on a jump in latency.
    """
    cat = "builtin:cartan"
    light = [["build", "--group", cat]]
    light += [["dc", "--group", cat, "--degree", str(h)] for h in range(5)]
    light += [["deltac", "--group", cat, "--degree", str(h)]
              for h in range(1, 6)]
    light += [["laplacian", "--group", cat, "--family", f, "--degree", str(h)]
              for f, hs in (("R", (0, 1, 4, 5)), ("A", range(6))) for h in hs]
    light += [["pi-e", "--group", cat, "--degree", str(h), "--index", "1"]
              for h in range(6)]
    light += [["exponents", "--group", cat, "--theorem", t]
              for t in ("H2", "C2", "H2cor", "H2sum")]
    light += [["tensors", "--group", cat, "--convention", c]
              for c in ("cvs", "pierre")]
    light += [["build", "--group", "free:3,2"]]
    light += [["dc", "--group", "free:3,2", "--degree", str(h)]
              for h in range(6)]
    light += [["dc", "--group", "free:2,4", "--degree", str(h)]
              for h in (0, 1, 6, 7)]
    single = [["build", "--group", h3]]
    single += [["dc", "--group", h3, "--degree", str(h)] for h in range(7)]
    at_p90 = [["laplacian", "--group", cat, "--family", "G", "--degree", h]
              for h in ("0", "5")]
    middle = [["build", "--group", "free:2,4"],
              ["dc", "--group", "free:2,4", "--degree", "2"]]
    heavy = [["dc", "--group", "free:2,4", "--degree", str(h)]
             for h in (3, 4, 5)]
    heavy += [["laplacian", "--group", cat, "--family", f, "--degree", str(h)]
              for f, hs in (("G", (1, 2, 3, 4)), ("R", (2, 3))) for h in hs]
    heavy += [["build", "--group", "free:4,2"]]
    return ([(3, a) for a in light] + [(5, a) for a in at_p90]
            + [(2, a) for a in middle] + [(1, a) for a in single + heavy])


class ColdQueries:
    """A seeded stream of CLI queries, each building its group from nothing."""

    def setup(self, carnot, seed):
        os.makedirs(OUT_DIR, exist_ok=True)
        h3 = os.path.join(OUT_DIR, "H3.json")
        with open(h3, "w") as fh:
            json.dump(ref.heisenberg_json(3), fh, sort_keys=True)
        self.refs = {"builtin:cartan": ref.CARTAN,
                     "free:3,2": ref.GroupRef.free(3, 2),
                     "free:2,4": ref.GroupRef.free(2, 4),
                     "free:4,2": ref.GroupRef.free(4, 2),
                     h3: ref.GroupRef.heisenberg(3)}
        for spec in self.refs:
            carnot.cli.load_group(spec)
        self.round = [argv + ["--format", "json"]
                      for weight, argv in query_catalogue(h3)
                      for _ in range(weight)]
        self.reference_problems = []
        self.rng = random.Random(seed)

    def run_pass(self, carnot, hooks):
        order = list(self.round)
        self.rng.shuffle(order)
        ops = []
        for argv in order:
            op = Op(argv[0], " ".join(argv[:-2]))
            gref = self.refs[argv[2]]
            checked_call(carnot, argv,
                         lambda d, a=argv, g=gref: ref.check_query(g, a, d),
                         op, hooks, argv[0])
            ops.append(op)
        return ops


WORKLOADS = {"cartan-verify": CartanVerify, "cold-queries": ColdQueries}


class NoHooks:
    def after_op(self):
        # A CLI call starts with an empty heap: collect the garbage one
        # operation leaves, untimed, so the next does not pay for it.
        gc.collect()


class TraceHooks:
    def __init__(self, tracer):
        self.tracer = tracer

    def after_op(self):
        self.tracer.end_operation()
        with self.tracer.gc_paused():
            gc.collect()


def upper_quartile(values):
    if len(values) < 2:
        return values[0]
    return quantiles(values, n=4, method="inclusive")[2]


def e2e_metrics(ops, round_names):
    """Upper-quartile latency, and throughput of a round made at it.

    The shared 2-vCPU virtual machine this was tuned on keeps its usual
    speed most of the time, with episodes of 20-30 s up to 1.4x faster.  A
    run's median moved with the share of the run such an episode covered;
    its upper quartile reads the usual speed unless an episode covers three
    quarters of the run (README, Steadiness).  ``round_names`` are the
    operations of one pass; throughput divides their number by the sum of
    each one's upper-quartile latency.
    """
    lat = [op.latency for op in ops if not op.problems]
    by_name: dict = {}
    for op in ops:
        if not op.problems:
            by_name.setdefault(op.name, []).append(op.latency)
    timed = [n for n in round_names if n in by_name]
    round_s = sum(upper_quartile(by_name[n]) for n in timed)
    # op_p50_ms and op_p90_ms go to the result file only
    out = {"op_p75_ms": upper_quartile(lat) * 1e3,
           "ops_per_s": len(timed) / round_s,
           "op_p50_ms": median(lat) * 1e3}
    if len(lat) >= 100:
        out["op_p90_ms"] = quantiles(lat, n=10)[8] * 1e3
    return out


def traced_metrics(pass_metrics, traced_ops, untraced_s):
    """Median per-layer metrics over the traced passes, plus CLI latencies."""
    out = tr.median_metrics(pass_metrics)
    by_cmd: dict = {}
    for op in traced_ops:
        by_cmd.setdefault(op.kind, []).extend(op.parts.values())
    for cmd, dts in by_cmd.items():
        out[f"cli.{cmd}_p50_ms"] = median(dts) * 1e3
    out["trace.overhead"] = out["pass_s"] / untraced_s
    return out


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--result", help="file the JSON result is written to")
    args = p.parse_args(argv)

    carnot = import_carnot()
    workload = WORKLOADS[args.workload]()
    workload.setup(carnot, args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    gc.collect()
    gc.freeze()

    calibration = [calibrate_ms() for _ in range(5)]
    hooks = NoHooks()
    tracer = None
    ops, traced_ops, pass_metrics, pass_times = [], [], [], []
    untraced_s = None
    deadline = time.perf_counter() + args.seconds
    if args.trace:
        t0 = time.perf_counter()
        ops += workload.run_pass(carnot, hooks)
        untraced_s = time.perf_counter() - t0
        tracer = tr.Tracer()
        tracer.install(carnot)
        hooks = TraceHooks(tracer)
    while True:
        if tracer:
            tracer.begin_pass()
        t0 = time.perf_counter()
        done = workload.run_pass(carnot, hooks)
        pass_times.append(time.perf_counter() - t0)
        round_names = [op.name for op in done]
        ops += done
        if tracer:
            extra = {f"verify.group.{label}_s": dt
                     for op in done if op.kind == "verify"
                     for label, dt in op.parts.items()}
            pass_metrics.append(tracer.end_pass(extra))
            traced_ops += done
        # whole passes only, and none that would end past the deadline
        if time.perf_counter() + median(pass_times) > deadline:
            break
    if tracer:
        tracer.uninstall()
    calibration += [calibrate_ms() for _ in range(5)]

    problems = list(workload.reference_problems)
    failed = [op for op in ops if op.problems]
    result = {
        "workload": args.workload, "seed": args.seed,
        "attempted": len(ops), "failed": len(failed),
        "correct": not problems,
        "problems": problems + [p for op in failed[:5] for p in op.problems],
        "passes": len(pass_times), "pass_s": pass_times,
        "op_s": [[op.name, op.latency] for op in ops],
        "calibration_ms": median(calibration),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        metrics = traced_metrics(pass_metrics, traced_ops, untraced_s)
        metrics["host.calibration_ms"] = result["calibration_ms"]
        result["metrics"] = metrics
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(
            OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        tracer.write(path, {"workload": args.workload, "seed": args.seed,
                            "untraced_pass_s": untraced_s,
                            "traced_pass_s": pass_times,
                            "overhead": metrics["trace.overhead"]})
        result["trace_file"] = os.path.relpath(path, ROOT)
    else:
        metrics = (e2e_metrics(ops, round_names) if len(failed) < len(ops)
                   else {})
        metrics["peak_rss_mb"] = result["peak_rss_mb"]
        result["metrics"] = metrics
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
