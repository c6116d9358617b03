"""Self-test of the benchmark's output checks: wrong outputs must be caught.

    python3 perfbench/run.py --self-test

Runs `carnot verify` against a copy of the golden listings with one entry
altered and requires that verify to count as a failed operation; then feeds
the reference checks outputs altered by hand (a dimension, Q, a matrix shape,
a Laplacian order, a tensor finding) and requires each to be flagged, while
the unaltered outputs pass.  Prints one line per case; exits 1 if any case
is not caught.
"""

from __future__ import annotations

import copy
import json
import os
import sys

import references as ref
import worker

CASES = []


def case(name, ok):
    CASES.append(ok)
    print(f"{'PASS' if ok else 'FAIL'}  {name}")


def verify_op(carnot, group_arg, gref, cartan, extra=()):
    op = worker.Op("verify", group_arg)
    argv = ["verify", "--group", group_arg, "--format", "json", *extra]
    worker.checked_call(carnot, argv, lambda r: ref.check_verify_report(
        r, gref, cartan), op, worker.NoHooks(), group_arg)
    return op


def main():
    carnot = worker.import_carnot()
    os.makedirs(worker.OUT_DIR, exist_ok=True)

    case("Witt numbers on two letters are 2,1,2,3,6,9",
         [ref.witt(2, k) for k in range(1, 7)] == [2, 1, 2, 3, 6, 9])
    case("free:2,3 formulas give the paper's Cartan dims",
         ref.CARTAN.known == dict(enumerate(ref.PAPER_CARTAN_DIMS)))

    golden_path = os.path.join(worker.ROOT, "src", "carnot", "golden",
                               "section4.json")
    with open(golden_path) as fh:
        golden = json.load(fh)
    case("committed golden listings agree with the paper constants",
         ref.check_golden(golden) == [])
    altered = copy.deepcopy(golden)
    altered["dc"]["1"][0][0] += " + X5"
    bad_path = os.path.join(worker.OUT_DIR, "selftest-golden.json")
    with open(bad_path, "w") as fh:
        json.dump(altered, fh)
    op = verify_op(carnot, "builtin:cartan", ref.CARTAN, True,
                   ["--golden", bad_path])
    case("verify against a golden file with one dc entry altered fails",
         bool(op.problems))

    op = verify_op(carnot, "free:3,2", ref.GroupRef.free(3, 2), False)
    case("verify on free:3,2 passes the reference checks", not op.problems)
    rc, out, _ = worker.cli_call(carnot, ["verify", "--group", "free:3,2",
                                          "--format", "json"])
    report = json.loads(out)
    gref = ref.GroupRef.free(3, 2)
    for what, edit in (
            ("a dimension", lambda t: t.update(dims=[1, 3, 8, 13, 8, 3, 1])),
            ("Q", lambda t: t.update(Q=t["Q"] + 1)),
            ("the degree-4 dimension",
             lambda t: t.update(dims=[1, 3, 8, 12, 9, 3, 1]))):
        bad = copy.deepcopy(report)
        edit(next(c for c in bad["checks"] if c["name"] == "dimension-table"))
        case(f"a free:3,2 report with {what} altered is flagged",
             bool(ref.check_verify_report(bad, gref, False)))
    bad = copy.deepcopy(report)
    bad["checks"] = [c for c in bad["checks"] if c["name"] != "dc-squared-zero"]
    case("a report missing a check is flagged",
         bool(ref.check_verify_report(bad, gref, False)))

    def query(argv, gref, edit):
        argv = argv + ["--format", "json"]
        _, out, _ = worker.cli_call(carnot, argv)
        data = json.loads(out)
        good = ref.check_query(gref, argv, data) == []
        edit(data)
        return good and bool(ref.check_query(gref, argv, data))

    case("a dc matrix with a row dropped is flagged",
         query(["dc", "--group", "builtin:cartan", "--degree", "1"],
               ref.CARTAN,
               lambda d: d.update(rows=d["rows"] - 1,
                                  entries=d["entries"][:-1])))
    case("a dc shape off the free:2,4 dimension table is flagged",
         query(["dc", "--group", "free:2,4", "--degree", "3"],
               ref.GroupRef.free(2, 4),
               lambda d: d.update(rows=d["rows"] + 1,
                                  entries=d["entries"] + [d["entries"][0]])))
    case("a Laplacian with the wrong order is flagged",
         query(["laplacian", "--group", "builtin:cartan", "--family", "A",
                "--degree", "2"], ref.CARTAN,
               lambda d: d.update(order=12)))
    case("a tensor finding neither certified nor repaired is flagged",
         query(["tensors", "--group", "builtin:cartan"], ref.CARTAN,
               lambda d: d["findings"][0].update(
                   status="uncertified", corrected_roundtrip_exact=False)))
    case("a build with a wrong layer table is flagged",
         query(["build", "--group", "free:4,2"], ref.GroupRef.free(4, 2),
               lambda d: d.update(layers=[4, 5])))
    failed = CASES.count(False)
    print(f"self-test: {len(CASES) - failed} of {len(CASES)} cases pass")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
