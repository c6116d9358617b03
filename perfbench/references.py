"""References the benchmark checks carnot's outputs against.

Nothing here calls carnot.  The Cartan constants transcribe the paper; the
dimension facts for other groups are computed from classical formulas:

* ``dim E0^h = C(2n, h) - C(2n, h - 2)`` on the Heisenberg group H_n, h <= n
  (Rumin 1994);
* ``dim E0^1 = dim V1`` on every stratified group;
* ``dim E0^2`` equals Witt's count of degree-(k+1) Lie words on the free
  nilpotent group ``free:m,k`` (E0^2 is H^2 of the Lie algebra, which the
  degree-(k+1) relations span);
* Poincare duality ``dim E0^h = dim E0^(n-h)``;
* Euler characteristic 0.

Layer dimensions of ``free:m,k`` are Witt numbers too, so a group's shape is
known here before carnot builds it.
"""

from __future__ import annotations

from math import comb

# dims of E0^h on the Cartan group, Section 4 of the paper
PAPER_CARTAN_DIMS = [1, 2, 3, 3, 2, 1]

# homogeneous orders of the three Laplacian families, degrees 0..5
PAPER_LAPLACIAN_ORDERS = {
    "G": [12, 12, 12, 12, 12, 12],
    "R": [2, 6, 12, 12, 6, 2],
    "A": [2, 6, 6, 6, 6, 2],
}

# pass/fail checks every `carnot verify` report must carry and pass
STRUCTURAL_CHECKS = (
    "dimension-table", "dc-squared-zero", "de-rham-d-squared-zero",
    "deltac-star-vs-adjoint", "chain-map-d-piE-equals-piE-dc",
    "projection-piE-piE0-piE", "d0-pseudoinverse-identities",
    "hodge-star-isometry-involution", "d0-delta0-adjointness",
    "weight-split-orthogonal-decomposition",
)

# further pass/fail checks a report on the built-in Cartan group carries
CARTAN_CHECKS = (
    "golden-dims", "golden-basis-span-match", "golden-dc-matrices",
    "golden-deltac-matrices", "golden-star-matrices", "golden-dc-orders",
    "d0-range-weight-profile", "laplacian-order-tables",
    "laplacian-self-adjoint", "A3-is-star-conjugate-of-A2",
    "A-equals-R-away-from-middle-degrees", "laplacian-star-duality",
    "exponent-table-H2", "exponent-table-C2", "exponent-table-H2cor",
    "exponent-table-H2sum", "sum-space-pairs", "kernel-window-bookkeeping",
    "cartan-formula-two-routes", "pierre-h1-tensor-adjudicated",
    "pierre-h2-tensor-adjudicated", "pierre-h3-tensor-adjudicated",
    "pierre-h4-tensor", "proof-tensors-h3-h4-certified",
    "pbw-coordinate-oracle", "free-nilpotent-2-3-matches-builtin",
)


def mobius(n: int) -> int:
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


def witt(m: int, k: int) -> int:
    """Dimension of the degree-k part of the free Lie algebra on m letters."""
    total = sum(mobius(d) * m ** (k // d) for d in range(1, k + 1) if k % d == 0)
    return total // k


def heisenberg_json(n: int) -> dict:
    """H_n as a carnot group file: [X_i, X_{i+n}] = T for i = 1..n."""
    t = str(2 * n + 1)
    return {"layers": [2 * n, 1],
            "brackets": {f"{i},{i + n}": {t: "1"} for i in range(1, n + 1)}}


class GroupRef:
    """What the benchmark knows about a group without asking carnot."""

    def __init__(self, layers, known: dict):
        self.layers = list(layers)
        self.n = sum(self.layers)
        self.Q = sum((i + 1) * d for i, d in enumerate(self.layers))
        known = {0: 1, 1: self.layers[0], **known}
        self.known = {**known, **{self.n - h: v for h, v in known.items()}}

    @classmethod
    def free(cls, m: int, k: int):
        return cls([witt(m, i) for i in range(1, k + 1)], {2: witt(m, k + 1)})

    @classmethod
    def heisenberg(cls, n: int):
        return cls([2 * n, 1],
                   {h: comb(2 * n, h) - (comb(2 * n, h - 2) if h >= 2 else 0)
                    for h in range(n + 1)})

    def dim_problems(self, dims: dict) -> list:
        """Disagreements of a partial table {degree: dim} with the formulas."""
        out = []
        for h, v in dims.items():
            if not 0 <= h <= self.n:
                out.append(f"degree {h} outside 0..{self.n}")
            elif h in self.known and self.known[h] != v:
                out.append(f"dim E0^{h} = {v}, expected {self.known[h]}")
            elif self.n - h in dims and dims[self.n - h] != v:
                out.append(f"Poincare duality fails at degree {h}")
        full = {**self.known, **dims,
                **{self.n - h: v for h, v in dims.items()}}
        if len(full) == self.n + 1:
            euler = sum((-1) ** h * v for h, v in full.items())
            if euler:
                out.append(f"Euler characteristic {euler}, expected 0")
        return out


CARTAN = GroupRef.free(2, 3)  # builtin:cartan is free:2,3


def check_golden(golden: dict) -> list:
    """The committed listings must agree with the paper constants above."""
    out = []
    if golden.get("dims") != PAPER_CARTAN_DIMS:
        out.append("golden dims differ from the paper")
    if golden.get("laplacian_orders") != PAPER_LAPLACIAN_ORDERS:
        out.append("golden Laplacian orders differ from the paper")
    return out


def check_verify_report(report: dict, group: GroupRef, cartan: bool) -> list:
    """Problems with one `carnot verify --format json` report."""
    out = []
    if not report.get("ok"):
        out.append("report not ok: " + ", ".join(
            c["name"] for c in report.get("checks", ())
            if c.get("status") == "fail"))
    checks = {c["name"]: c for c in report.get("checks", ())}
    wanted = STRUCTURAL_CHECKS + (CARTAN_CHECKS if cartan else ())
    for name in wanted:
        if checks.get(name, {}).get("status") != "pass":
            out.append(f"check {name} missing or not passed")
    table = checks.get("dimension-table", {})
    dims = table.get("dims") or []
    if len(dims) != group.n + 1:
        out.append(f"{len(dims)} dims listed, expected {group.n + 1}")
    out += group.dim_problems(dict(enumerate(dims)))
    if table.get("Q") != group.Q:
        out.append(f"Q = {table.get('Q')}, expected {group.Q}")
    if cartan:
        if checks.get("golden-dims", {}).get("computed") != PAPER_CARTAN_DIMS:
            out.append("golden-dims computed value differs from the paper")
        orders = checks.get("laplacian-order-tables", {}).get("computed")
        if orders != PAPER_LAPLACIAN_ORDERS:
            out.append(f"Laplacian orders {orders} differ from the paper")
        if checks.get("laplacian-self-adjoint", {}).get("bad") != []:
            out.append("a Laplacian is not self-adjoint")
    return out


def _shape_problems(group: GroupRef, data: dict, row_h: int, col_h: int):
    rows, cols = data["rows"], data["cols"]
    out = group.dim_problems({row_h: rows, col_h: cols}
                             if row_h != col_h else {row_h: rows})
    if row_h == col_h and rows != cols:
        out.append(f"{rows}x{cols} matrix on E0^{row_h} is not square")
    entries = data["entries"]
    if len(entries) != rows or any(len(r) != cols for r in entries):
        out.append("entries do not match the stated shape")
    return out


def check_query(group: GroupRef, argv, data: dict) -> list:
    """Problems with the parsed JSON output of one CLI query."""
    cmd = argv[0]
    opt = dict(zip(argv[1::2], argv[2::2]))
    h = int(opt.get("--degree", 0))
    if cmd == "build":
        out = group.dim_problems(dict(enumerate(data["dims"])))
        if len(data["dims"]) != group.n + 1:
            out.append("dims table has the wrong length")
        if data["layers"] != group.layers or data["Q"] != group.Q:
            out.append("layers or Q differ from the group's definition")
        return out
    if cmd == "dc":
        return _shape_problems(group, data, h + 1, h)
    if cmd == "deltac":
        return _shape_problems(group, data, h - 1, h)
    if cmd == "laplacian":
        fam = opt["--family"]
        out = _shape_problems(group, data["matrix"], h, h)
        if data["order"] != PAPER_LAPLACIAN_ORDERS[fam][h]:
            out.append(f"{fam} order {data['order']} at degree {h}, expected "
                       f"{PAPER_LAPLACIAN_ORDERS[fam][h]}")
        if data["self_adjoint"] is not True:
            out.append("Laplacian not self-adjoint")
        return out
    if cmd == "pi-e":
        ok = data["degree"] == h and data["terms"]
        return [] if ok else ["lift has the wrong degree or is zero"]
    if cmd == "exponents":
        rows = data["rows"]
        bad = [r for r in rows
               if r.get("discrepancy") is None and not r["agree"]]
        if not rows or data["theorem"] != opt["--theorem"]:
            return ["empty or mislabelled exponent table"]
        return [f"{len(bad)} exponent rows disagree"] if bad else []
    if cmd == "tensors":
        findings = data["findings"]
        bad = [f["check"] for f in findings
               if f["status"] != "certified"
               and not (f.get("corrected_tensor") is not None
                        and f.get("corrected_roundtrip_exact") is True)]
        if not findings:
            return ["no tensor findings"]
        return [f"tensor {b} neither certified nor repaired" for b in bad]
    return [f"no reference for command {cmd}"]
