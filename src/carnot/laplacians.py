"""Hodge-Laplacian families on the intrinsic complex, derived from d_c.

The families act on E0^h, written with d = d_c and delta = delta_c, on any
group where d_c has one homogeneous order a_h in each degree h < n.  At
degree h the blocks are d delta, of order 2 a_{h-1} (h > 0), and delta d,
of order 2 a_h (h < n); each family sums them, brought to a target order:

* ``R``: the lcm of the degree's block orders;
* ``G``: the lcm of the block orders over all degrees;
* ``A``: the largest block order of the degree.

A block whose order divides the target is raised to the quotient power;
otherwise A = -(sum_{X_i in V1} X_i^2) I is inserted k = (target - order)/2
times in its middle, as delta A^k d or d A^k delta.  On the Heisenberg
group H_m this makes R Rumin's Laplacian.  A group whose d_c mixes orders
in some degree raises UnsupportedGroup.

Each Laplacian is built once per complex and kept in the complex's memo
by (family, h); the family and degree are checked on every call, cached or
not.  The block powers P^p = P^(p-1) @ P go to the same memo, and the
families share them: G's powers pass through R's where the orders divide.
No recipe uses a block of another degree, so the memo keeps the powers of
the degree requested last only; keeping every degree's powers would raise
the peak memory for no reuse.
"""

from __future__ import annotations

from math import lcm

from .env import EnvElement
from .rumin import OperatorMatrix, RuminComplex, cached


class UnsupportedGroup(ValueError):
    pass


FAMILIES = ("G", "R", "A")


def homogeneous_dc_orders(cx: RuminComplex) -> tuple:
    """The order a_h of d_c on E0^h for each h < n, if each is one order."""
    orders = cx.dc_orders()
    for h, a in enumerate(orders):
        if not isinstance(a, int):    # Mixed, or None for a zero matrix
            raise UnsupportedGroup(
                f"d_c at degree {h} is not globally homogeneous: "
                f"{sorted(getattr(a, 'degrees', ()))}")
    return orders


def _block_orders(orders, h: int) -> dict:
    """Orders of the blocks at degree h: "ddl" is d delta, "dd" delta d."""
    out = {}
    if h > 0:
        out["ddl"] = 2 * orders[h - 1]
    if h < len(orders):
        out["dd"] = 2 * orders[h]
    return out


def target_order(orders, family: str, h: int) -> int:
    """Homogeneous order of the family's Laplacian at degree h."""
    if family == "G":
        return 2 * lcm(*orders)
    blocks = _block_orders(orders, h).values()
    return lcm(*blocks) if family == "R" else max(blocks)


def recipe(orders, family: str, h: int) -> list:
    """The terms (kind, p, k) at degree h: a block to the power p, or the
    block padded in its middle by A^k."""
    target = target_order(orders, family, h)
    return [(kind, target // o, 0) if target % o == 0
            else (kind, 1, (target - o) // 2)
            for kind, o in _block_orders(orders, h).items()]


def a_delta(cx: RuminComplex, h: int) -> OperatorMatrix:
    """The auxiliary operator -(sum of X_i^2 over V1) I acting on E0^h."""
    alg = cx.algebra
    if not 0 <= h <= alg.n:
        raise ValueError(f"degree {h} out of range")
    sub = EnvElement.zero(alg)
    for i in alg.layer(1):
        sub = sub + EnvElement.from_word(alg, (i, i), -1)
    zero = EnvElement.zero(alg)
    n = len(cx.E0(h))
    entries = [[sub if i == j else zero for j in range(n)] for i in range(n)]
    return OperatorMatrix(alg, entries, cols=n)


def laplacian(cx: RuminComplex, family: str, h: int) -> OperatorMatrix:
    """Fully expanded, PBW-normalized Laplacian matrix of the family at h."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if not 0 <= h <= cx.algebra.n:
        raise ValueError(f"degree {h} out of range")
    return _cached_build(cx, family, h)


@cached()
def _cached_build(cx: RuminComplex, family: str, h: int) -> OperatorMatrix:
    return _build(cx, family, h)


def _build(cx: RuminComplex, family: str, h: int) -> OperatorMatrix:
    terms = [_block(cx, h, kind, k) if k else _block_power(cx, h, kind, p)
             for kind, p, k in recipe(homogeneous_dc_orders(cx), family, h)]
    return sum(terms[1:], terms[0])


@cached(last_degree=True)
def _block_power(cx: RuminComplex, h: int, kind: str, p: int):
    """P^p = P^(p-1) @ P for the block P of that kind, at degree h.

    Only the degree asked for last is kept: no recipe uses a block of
    another degree.
    """
    if p == 1:
        return _block(cx, h, kind)
    return _block_power(cx, h, kind, p - 1) @ _block_power(cx, h, kind, 1)


def _block(cx: RuminComplex, h: int, kind: str, k: int = 0) -> OperatorMatrix:
    """delta A^k d (kind "dd") or d A^k delta (kind "ddl") at degree h."""
    d, dl = cx.dc_matrix, cx.deltac_matrix
    outer, inner, mid = ((dl(h + 1), d(h), h + 1) if kind == "dd"
                         else (d(h - 1), dl(h), h - 1))
    for _ in range(k):
        outer = outer @ a_delta(cx, mid)
    return outer @ inner


def laplacian_table(cx: RuminComplex) -> dict:
    """Every family's Laplacians as {family: [degree 0..n]}.

    Built degree by degree, so each degree's block powers are computed once
    and shared by the three families.
    """
    degrees = range(cx.algebra.n + 1)
    laps = {fam: [None] * len(degrees) for fam in FAMILIES}
    for h in degrees:
        for fam in FAMILIES:
            laps[fam][h] = laplacian(cx, fam, h)
    return laps


def order_table(cx: RuminComplex, family: str):
    return tuple(laplacian(cx, family, h).homogeneous_order()
                 for h in range(cx.algebra.n + 1))


def verify_self_adjoint(m: OperatorMatrix) -> dict:
    """Formal-adjoint transpose equals the matrix entrywise after PBW."""
    rows, cols = m.shape
    if rows != cols:
        return {"applicable": False,
                "reason": f"matrix is {rows}x{cols}, not square"}
    adj = m.transpose_adjoint()
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
    n = cx.algebra.n
    return m.conjugate(cx.star_matrix(h), cx.star_matrix(n - h),
                       len(cx.E0(n - h)))


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
