"""Exact dense linear algebra over a ScalarField.

Matrices are plain lists of lists of Scalars.  Everything here is small
(at most the size of an exterior-algebra graded piece), so the routines
favour clarity over asymptotics: fraction-free tricks are unnecessary.
"""

from __future__ import annotations

from .scalars import ScalarField


def zeros(field: ScalarField, m: int, n: int):
    z = field.zero()
    return [[z] * n for _ in range(m)]


def identity(field: ScalarField, n: int):
    out = zeros(field, n, n)
    one = field.one()
    for i in range(n):
        out[i][i] = one
    return out


def transpose(a):
    return [list(col) for col in zip(*a)] if a else []


def mat_mul(field, a, b):
    """Row-by-row product that skips zero entries of both factors."""
    if not a or not b:
        return zeros(field, len(a), len(b[0]) if b else 0)
    out = zeros(field, len(a), len(b[0]))
    for row, out_row in zip(a, out):
        for t, x in enumerate(row):
            if x:
                for j, y in enumerate(b[t]):
                    if y:
                        out_row[j] = out_row[j] + x * y
    return out


def mat_vec(field, a, v):
    out = []
    for row in a:
        s = field.zero()
        for c, x in zip(row, v):
            if c and x:
                s = s + c * x
        out.append(s)
    return out


def rref(field, a):
    """Reduced row-echelon form; returns (rows, pivot_columns)."""
    rows = [list(r) for r in a]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rank(field, a):
    return len(rref(field, a)[1])


def nullspace(field, a, ncols=None):
    """Canonical RREF nullspace basis (free variable set to 1)."""
    if ncols is None:
        if not a:
            raise ValueError("ncols required for an empty matrix")
        ncols = len(a[0])
    if not a:
        return [[field.one() if j == i else field.zero() for j in range(ncols)]
                for i in range(ncols)]
    rows, pivots = rref(field, a)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [field.zero()] * ncols
        v[free] = field.one()
        for r, c in enumerate(pivots):
            v[c] = -rows[r][free]
        basis.append(v)
    return basis


def solve(field, a, b):
    """One exact solution of A x = b, or None if inconsistent."""
    if not a:
        return None if any(x for x in b) else []
    aug = [list(row) + [bv] for row, bv in zip(a, b)]
    rows, pivots = rref(field, aug)
    ncols = len(a[0])
    if ncols in pivots:
        return None
    x = [field.zero()] * ncols
    for r, c in enumerate(pivots):
        x[c] = rows[r][ncols]
    return x


def inverse(field, a):
    n = len(a)
    aug = [list(row) + identity(field, n)[i] for i, row in enumerate(a)]
    rows, pivots = rref(field, aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in rows]


def pseudoinverse(field, a):
    """Moore-Penrose pseudoinverse via a full-rank factorization A = C F."""
    m = len(a)
    n = len(a[0]) if a else 0
    if m == 0 or n == 0:
        return zeros(field, n, m)
    rows, pivots = rref(field, a)
    r = len(pivots)
    if r == 0:
        return zeros(field, n, m)
    c = [[a[i][j] for j in pivots] for i in range(m)]        # m x r
    f = [rows[i] for i in range(r)]                          # r x n
    ct, ft = transpose(c), transpose(f)
    left = inverse(field, mat_mul(field, ct, c))             # (C^T C)^-1
    right = inverse(field, mat_mul(field, f, ft))            # (F F^T)^-1
    out = mat_mul(field, ft, right)
    out = mat_mul(field, out, left)
    out = mat_mul(field, out, ct)                            # n x m
    return out


def dot(field, u, v):
    s = field.zero()
    for x, y in zip(u, v):
        s = s + x * y
    return s


def gram_schmidt(field, vectors):
    """Orthonormalize over the field; extends the scalar tower for norms."""
    ortho = []
    for v in vectors:
        w = list(v)
        for e in ortho:
            c = dot(field, w, e)
            if c:
                w = [wi - c * ei for wi, ei in zip(w, e)]
        norm2 = dot(field, w, w)
        if not norm2:
            continue
        inv_norm = field.sqrt(norm2).inverse()
        ortho.append([wi * inv_norm for wi in w])
    return ortho
