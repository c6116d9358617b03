"""Command-line front end.

Subcommands: build, dc, deltac, laplacian, pi-e, exponents, tensors, verify.
Exit codes: 0 success, 1 verification failure, 2 usage or input error,
3 capacity limit, 4 internal error (see ``exit_code``).
Output is deterministic for a fixed invocation.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import estimates, laplacians
from .env import AlgebraMismatch
from .exterior import OperatorForm
from .liealg import ResourceLimit, load_group
from .linalg import reciprocal
from .rumin import RuminComplex, SpanMismatch, StarAdjointMismatch
from .scalars import TowerInsufficient
from .verify import run_verify


class UsageError(ValueError):
    pass


def cmd_build(cx, args) -> int:
    alg = cx.algebra
    dims = cx.dims()
    if args.format == "json":
        print(json.dumps({
            "n": alg.n, "layers": list(alg.layer_dims),
            "weights": list(alg.weights),
            "Q": alg.homogeneous_dimension,
            "dims": list(dims),
            "group": alg.to_json(),
        }, sort_keys=True))
    else:
        print(f"n = {alg.n}; layers = {','.join(map(str, alg.layer_dims))}; "
              f"weights = {','.join(map(str, alg.weights))}")
        print(f"dims E0 = {','.join(map(str, dims))}; "
              f"Q = {alg.homogeneous_dimension}")
    return 0


def cmd_dc(cx, args) -> int:
    h, n = args.degree, cx.algebra.n
    if not 0 <= h < n:
        raise UsageError(f"dc degree must be in 0..{n - 1}")
    print(cx.orthonormal(cx.dc_matrix(h), h + 1, h).render(args.format))
    return 0


def cmd_deltac(cx, args) -> int:
    h, n = args.degree, cx.algebra.n
    if not 1 <= h <= n:
        raise UsageError(f"deltac degree must be in 1..{n}")
    print(cx.orthonormal(cx.deltac_matrix(h), h - 1, h).render(args.format))
    return 0


def cmd_laplacian(cx, args) -> int:
    h = args.degree
    m = laplacians.laplacian(cx, args.family, h)
    view = cx.orthonormal(m, h, h)
    if args.format == "json":
        rep = laplacians.verify_self_adjoint(cx, m, h)
        print(json.dumps({
            "family": args.family, "degree": h,
            "order": m.homogeneous_order(),
            "self_adjoint": bool(rep.get("self_adjoint")),
            "matrix": view.to_json(),
        }, sort_keys=True))
    else:
        print(view.render(args.format))
    return 0


def cmd_pi_e(cx, args) -> int:
    h, k = args.degree, args.index - 1
    cx.check_capacity(h)
    basis = cx.E0(h)
    if not 0 <= k < len(basis):
        raise UsageError(f"index must be in 1..{len(basis)}")
    # Pi_E is linear: lift the rational w_k, then divide by sqrt(N_k) once
    lifted = cx.pi_E(OperatorForm.from_form(basis[k])).scale(
        reciprocal(cx.roots(h)[k]))
    if args.format == "json":
        print(json.dumps(lifted.to_json(), sort_keys=True))
    else:
        print(lifted.render())
    return 0


def cmd_exponents(cx, args) -> int:
    rows = estimates.theorem_table(cx, args.theorem)
    if args.format == "json":
        payload = {"theorem": args.theorem,
                   "rows": [r.to_json() for r in rows]}
        if args.theorem == "H2sum":
            payload["sum_pairs"] = {
                str(h): v for h, v in sorted(
                    estimates.sum_space_pairs(cx).items())}
        print(json.dumps(payload, sort_keys=True))
    else:
        for r in rows:
            part = f"/{r.part}" if r.part else ""
            flag = "agree" if r.agree else "DIFFERS"
            extra = "  [documented discrepancy]" if r.discrepancy else ""
            print(f"h={r.h} {r.term}{part}: |{r.rhs}|_{r.norm} "
                  f"paper {r.paper_display} derived {r.derived} "
                  f"({flag}){extra}")
    return 0


def cmd_tensors(cx, args) -> int:
    findings = estimates.tensor_findings(cx, args.convention)
    if args.format == "json":
        print(json.dumps({"convention": args.convention,
                          "findings": findings}, sort_keys=True))
    else:
        for f in findings:
            print(f"{f['check']}: {f['status']}")
            print(f"  divergence: {f['display_divergence']}")
            print(f"  certificate: {f['certificate']}")
            if f.get("corrected_tensor") is not None:
                print(f"  corrected tensor: {f['corrected_tensor']}")
    return 0


def cmd_verify(args) -> int:
    report = run_verify(args.group, golden_path=args.golden, seed=args.seed)
    if args.format == "json":
        print(json.dumps(report.to_json(), sort_keys=True, default=str))
    else:
        for c in report.checks:
            print(f"{c['status'].upper():5} {c['name']}")
        print("result:", "ok" if report.ok else "FAILED")
        for f in report.failures():
            detail = {k: v for k, v in f.items()
                      if k not in ("name", "status", "rows")}
            print(f"  failed: {f['name']} {detail}")
    return 0 if report.ok else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--group", default="builtin:cartan",
                        help="builtin:cartan | free:m,k | path to a JSON file")
    common.add_argument("--format", default="text",
                        choices=("text", "latex", "json"))

    parser = argparse.ArgumentParser(
        prog="carnot",
        description="Exact calculus for the intrinsic complex on Carnot groups")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("build", parents=[common],
                   help="validate a group and print its summary")

    p = sub.add_parser("dc", parents=[common],
                       help="intrinsic differential matrix")
    p.add_argument("--degree", type=int, required=True)
    p = sub.add_parser("deltac", parents=[common],
                       help="intrinsic codifferential matrix")
    p.add_argument("--degree", type=int, required=True)

    p = sub.add_parser("laplacian", parents=[common],
                       help="Hodge-Laplacian matrix")
    p.add_argument("--family", required=True, choices=laplacians.FAMILIES)
    p.add_argument("--degree", type=int, required=True)

    p = sub.add_parser("pi-e", parents=[common],
                       help="lift of a basis form to the subcomplex")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--index", type=int, default=1)

    p = sub.add_parser("exponents", parents=[common],
                       help="limiting-exponent tables")
    p.add_argument("--theorem", required=True,
                   choices=tuple(estimates.THEOREM_TABLES))

    p = sub.add_parser("tensors", parents=[common],
                       help="divergence-free tensor findings")
    p.add_argument("--convention", default="cvs", choices=("cvs", "pierre"))

    p = sub.add_parser("verify", parents=[common],
                       help="run the full verification suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--golden", default=None,
                   help="override the committed reference file")
    return parser


# the subcommands that render LaTeX; the others refuse --format latex
LATEX = {"dc", "deltac", "laplacian"}

COMMANDS = {
    "build": cmd_build,
    "dc": cmd_dc,
    "deltac": cmd_deltac,
    "laplacian": cmd_laplacian,
    "pi-e": cmd_pi_e,
    "exponents": cmd_exponents,
    "tensors": cmd_tensors,
}


def exit_code(exc: Exception) -> int:
    """3 for a capacity limit, 4 for an internal bug, 2 for bad input."""
    if isinstance(exc, (TowerInsufficient, ResourceLimit)):
        return 3
    if isinstance(exc, (StarAdjointMismatch, SpanMismatch, AlgebraMismatch,
                        AssertionError)):
        return 4
    return 2


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.format == "latex" and args.command not in LATEX:
            raise UsageError(f"{args.command} has no latex format; "
                             "use text or json")
        if args.command == "verify":
            return cmd_verify(args)
        cx = RuminComplex(load_group(args.group))
        return COMMANDS[args.command](cx, args)
    except (ValueError, OSError, AssertionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
