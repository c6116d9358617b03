"""Hodge-Laplacian families on the intrinsic complex of the Cartan group.

Three families act on E0^h, written with the intrinsic differential d = d_c
and codifferential delta = delta_c (both zero maps past the boundary
degrees):

* ``G``: (delta d)^6 at h=0, (d delta)^6+(delta d)^2 at h=1,
  (d delta)^2+(delta d)^3 at h=2, the mirrored recipes above, all of
  homogeneous order 12;
* ``R``: (d delta)^3 + delta d at h=0,1 (so minus the sub-Laplacian on
  functions), (d delta)^2+(delta d)^3 at h=2 and mirrored, of orders
  (2, 6, 12, 12, 6, 2);
* ``A``: like ``R`` except at h=2,3 where the auxiliary diagonal operator
  A = -(X1^2+X2^2) I_3 is inserted to flatten the order to 6:
  d delta + delta A d at h=2 and d A delta + delta d at h=3, giving
  orders (2, 6, 6, 6, 6, 2).

The recipes are specific to the five-dimensional step-3 group; other
groups are rejected.

Each Laplacian is built once per complex and cached on it by (family, h);
the group, family and degree are checked on every call, cached or not.
Every recipe at degree h is a sum of powers of the blocks delta d and
d delta of that degree (or the A sandwich), so the block powers are
memoized too, P^p as P^(p-1) @ P, and the families share them: G and R
have the same recipes at h=2,3, A equals R away from h=2,3, and G1's
(d delta)^6 passes through R1's (d delta)^3.  No recipe uses a block of
another degree, so the power memo holds only the degree requested last;
keeping every degree's powers would raise the peak memory for no reuse.
"""

from __future__ import annotations

from .env import EnvElement
from .rumin import OperatorMatrix, RuminComplex


class UnsupportedGroup(ValueError):
    pass


FAMILIES = ("G", "R", "A")

EXPECTED_ORDERS = {
    "G": (12, 12, 12, 12, 12, 12),
    "R": (2, 6, 12, 12, 6, 2),
    "A": (2, 6, 6, 6, 6, 2),
}


def _require_cartan(cx: RuminComplex):
    if not cx.algebra.is_cartan_table():
        raise UnsupportedGroup(
            "the Laplacian families are defined for the Cartan group only")


def a_delta(cx: RuminComplex, h: int) -> OperatorMatrix:
    """The auxiliary operator -(X1^2 + X2^2) I_3 acting on E0^h, h in {2,3}."""
    _require_cartan(cx)
    if h not in (2, 3):
        raise ValueError("the auxiliary diagonal operator acts on 2- and 3-forms")
    alg = cx.algebra
    sub = EnvElement.parse(alg, "-X1^2 - X2^2")
    zero = EnvElement.zero(alg)
    n = len(cx.E0(h))
    entries = [[sub if i == j else zero for j in range(n)] for i in range(n)]
    w = cx.E0(h).weights
    return OperatorMatrix(alg, entries, w, w)


# Each recipe is a sum of block powers (kind, p) at its degree h: "dd" is
# delta_{h+1} d_h, "ddl" is d_{h-1} delta_h, and "dAd" is the sandwich with
# the auxiliary operator, delta A d at h=2 and d A delta at h=3.
RECIPES = {
    "G": ((("dd", 6),),
          (("ddl", 6), ("dd", 2)),
          (("ddl", 2), ("dd", 3)),
          (("ddl", 3), ("dd", 2)),
          (("dd", 6), ("ddl", 2)),
          (("ddl", 6),)),
    "R": ((("ddl", 3), ("dd", 1)),
          (("ddl", 3), ("dd", 1)),
          (("ddl", 2), ("dd", 3)),
          (("ddl", 3), ("dd", 2)),
          (("ddl", 1), ("dd", 3)),
          (("ddl", 1), ("dd", 3))),
    "A": ((("ddl", 3), ("dd", 1)),
          (("ddl", 3), ("dd", 1)),
          (("ddl", 1), ("dAd", 1)),
          (("dAd", 1), ("dd", 1)),
          (("ddl", 1), ("dd", 3)),
          (("ddl", 1), ("dd", 3))),
}


def laplacian(cx: RuminComplex, family: str, h: int) -> OperatorMatrix:
    """Fully expanded, PBW-normalized Laplacian matrix of the family at h."""
    _require_cartan(cx)
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if not 0 <= h <= 5:
        raise ValueError(f"degree {h} out of range")
    key = (family, h)
    if key not in cx._laplacians:
        cx._laplacians[key] = _build(cx, family, h)
    return cx._laplacians[key]


def _build(cx: RuminComplex, family: str, h: int) -> OperatorMatrix:
    terms = [_block_power(cx, h, kind, p) for kind, p in RECIPES[family][h]]
    return sum(terms[1:], terms[0])


def _block_power(cx: RuminComplex, h: int, kind: str, p: int):
    """P^p = P^(p-1) @ P for the block P of that kind, memoized at degree h.

    The memo holds the degree asked for last and is dropped on a change of
    degree: no recipe uses a block of another degree.
    """
    degree, memo = cx._block_powers
    if degree != h:
        memo = {}
        cx._block_powers = (h, memo)
    key = (kind, p)
    if key not in memo:
        memo[key] = (_block_power(cx, h, kind, p - 1)
                     @ _block_power(cx, h, kind, 1)
                     if p > 1 else _block(cx, h, kind))
    return memo[key]


def _block(cx: RuminComplex, h: int, kind: str) -> OperatorMatrix:
    d, dl = cx.dc_matrix, cx.deltac_matrix
    if kind == "dAd":
        if h == 2:
            return dl(3) @ a_delta(cx, 3) @ d(2)
        return d(2) @ a_delta(cx, 2) @ dl(3)
    if kind == "dd" and h < cx.algebra.n:
        return dl(h + 1) @ d(h)
    if kind == "ddl" and h > 0:
        return d(h - 1) @ dl(h)
    # delta d past the top degree and d delta on functions are zero
    w = cx.E0(h).weights
    return OperatorMatrix.zeros(cx.algebra, len(w), len(w), w, w)


def laplacian_table(cx: RuminComplex) -> dict:
    """Every family's Laplacians as {family: [degree 0..5]}.

    Built degree by degree, so each degree's block powers are computed once
    and shared by the three families.
    """
    laps = {fam: [None] * 6 for fam in FAMILIES}
    for h in range(6):
        for fam in FAMILIES:
            laps[fam][h] = laplacian(cx, fam, h)
    return laps


def order_table(cx: RuminComplex, family: str):
    return tuple(laplacian(cx, family, h).homogeneous_order()
                 for h in range(6))


def verify_self_adjoint(m: OperatorMatrix) -> dict:
    """Formal-adjoint transpose equals the matrix entrywise after PBW."""
    rows, cols = m.shape
    if rows != cols:
        return {"applicable": False,
                "reason": f"matrix is {rows}x{cols}, not square"}
    adj = m.transpose_adjoint()
    adj.row_weights, adj.col_weights = m.row_weights, m.col_weights
    ok = adj == m
    out = {"applicable": True, "self_adjoint": ok}
    if not ok:
        out["bad_entries"] = [
            (i, j) for i in range(rows) for j in range(cols)
            if m.entries[i][j] != adj.entries[i][j]]
    return out


def verify_homogeneous_order(m: OperatorMatrix, expected: int) -> dict:
    degs = m.orders()
    ok = degs == {expected} or not degs
    out = {"expected": expected, "orders": sorted(degs), "homogeneous": ok}
    return out


def hodge_conjugate(cx: RuminComplex, m: OperatorMatrix, h: int) -> OperatorMatrix:
    """Conjugate an E0^h endomorphism by the star into degree n-h."""
    alg = cx.algebra
    n = alg.n
    s_out = OperatorMatrix.from_scalar_matrix(alg, cx.star_matrix(h))
    s_in = OperatorMatrix.from_scalar_matrix(alg, cx.star_matrix(n - h))
    out = s_out @ m @ s_in
    out.row_weights = out.col_weights = cx.E0(n - h).weights
    return out


def star_duality_sign(cx: RuminComplex, family: str, h: int):
    """Sign s with laplacian(family, n-h) = s * conj(laplacian(family, h))."""
    lap_h = laplacian(cx, family, h)
    lap_dual = laplacian(cx, family, cx.algebra.n - h)
    conj = hodge_conjugate(cx, lap_h, h)
    if lap_dual == conj:
        return 1
    if lap_dual == conj.scale(-1):
        return -1
    return None
