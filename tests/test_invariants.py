"""Dimension tables of the intrinsic complex from outside the engine.

E0^h is the Lie-algebra cohomology H^h of the group, graded by weight, so
its dimension in each (degree, weight) is known from classical results:
Sigg's table for the free two-step groups, Witt's count for E0^2 of the free
groups, Rumin's count on the Heisenberg groups, and Poincare duality with
Euler characteristic 0 on every group.  The engine's side is read off the
public d0 ranks alone:

    dim E0^h_w = |dom d0_{h,w}| - rank d0_{h,w} - rank d0_{h-1,w}.
"""

import functools
from fractions import Fraction
from math import comb

import pytest

from carnot.liealg import load_group
from carnot.rumin import RuminComplex
from test_liealg import _witt_dimension


@functools.cache
def weight_dims(spec: str) -> dict:
    """{(h, w): dim E0^h in weight w}, the nonzero ones, from the d0 ranks."""
    cx = RuminComplex(load_group(spec))
    alg = cx.algebra
    out = {}
    for h in range(alg.n + 1):
        for w in range(alg.homogeneous_dimension + 1):
            dim = (len(cx.d0_matrix_block(h, w)[1]) - cx.d0_rank(h, w)
                   - (cx.d0_rank(h - 1, w) if h else 0))
            if dim:
                out[h, w] = dim
    return out


# -- Sigg's table on the free two-step groups --------------------------------

def _partitions(rows: int, largest: int):
    """Partitions with at most ``rows`` parts, each at most ``largest``."""
    yield ()
    if rows:
        for first in range(1, largest + 1):
            for rest in _partitions(rows - 1, first):
                yield (first,) + rest


def _conjugate(lam: tuple) -> tuple:
    return tuple(sum(1 for p in lam if p > j) for j in range(lam[0])) \
        if lam else ()


def _schur_dim(lam: tuple, m: int) -> int:
    """dim of the Schur module S_lam(C^m), by the hook-content formula."""
    conj, out = _conjugate(lam), Fraction(1)
    for i, row in enumerate(lam):
        for j in range(row):
            out *= Fraction(m + j - i, row - j + conj[j] - i - 1)
    return int(out)


def sigg_table(m: int) -> dict:
    """H^* of the free two-step algebra on m generators (Sigg, J. Algebra
    185, 1996): the sum of S_lam(C^m) over the self-conjugate partitions
    lam, each in weight |lam| and degree (|lam| + r) / 2, r the side of its
    Durfee square."""
    out: dict = {}
    for lam in _partitions(m, m):
        if lam == _conjugate(lam):
            r = sum(1 for i, p in enumerate(lam) if p > i)
            key = ((sum(lam) + r) // 2, sum(lam))
            out[key] = out.get(key, 0) + _schur_dim(lam, m)
    return out


@pytest.mark.parametrize("m", [2, 3, 4])
def test_free_two_step_is_siggs_table(m):
    assert weight_dims(f"free:{m},2") == sigg_table(m)


# -- E0^2 of the free groups: the relations of degree k + 1 -----------------

@pytest.mark.parametrize("m, k", [(2, 3), (2, 4), (4, 2)])
def test_free_E0_2_is_witts_count_in_weight_k_plus_1(m, k):
    got = {w: d for (h, w), d in weight_dims(f"free:{m},{k}").items()
           if h == 2}
    assert got == {k + 1: _witt_dimension(m, k + 1)}


# -- Rumin's count on the Heisenberg groups ----------------------------------

def rumin_table(n: int) -> dict:
    """dim E0^h of H_n: C(2n, h) - C(2n, h - 2) in weight h for h <= n, and
    the dual dimension in weight h + 1 above n (Rumin 1994)."""
    def low(h):
        return comb(2 * n, h) - (comb(2 * n, h - 2) if h >= 2 else 0)
    top = 2 * n + 1
    return {**{(h, h): low(h) for h in range(n + 1)},
            **{(h, h + 1): low(top - h) for h in range(n + 1, top + 1)}}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_heisenberg_is_rumins_table(n):
    assert weight_dims(f"heisenberg:{n}") == rumin_table(n)


# -- duality and Euler characteristic on every spec family --------------------

@pytest.mark.parametrize("spec", [
    "builtin:cartan", "free:2,2", "free:3,2", "free:2,3", "free:2,4",
    "free:4,2", "heisenberg:1", "heisenberg:2", "heisenberg:3",
    "heisenberg:4", "filiform:4", "filiform:5", "filiform:6"])
def test_duality_and_euler_characteristic(spec):
    """dim E0^h_w = dim E0^(n-h)_(Q-w), and sum_h (-1)^h dim E0^h = 0.

    The Euler sum holds for any ranks, since each rank enters two adjacent
    degrees; a wrong rank shows in the duality."""
    alg = load_group(spec)
    n, Q = alg.n, alg.homogeneous_dimension
    dims = weight_dims(spec)
    assert dims == {(n - h, Q - w): d for (h, w), d in dims.items()}
    assert sum((-1) ** h * d for (h, _), d in dims.items()) == 0
