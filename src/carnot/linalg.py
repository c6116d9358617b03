"""Exact sparse linear algebra over a field of exact values.

A matrix is a list of rows, and a row is a ``{column: value}`` dict of its
nonzero entries, so the work grows with the nonzeros, not with the block
size: a d0 weight block has up to a hundred or more columns and about two
nonzeros per row.  Rows do not show how many columns a matrix has, so
``nullspace``, ``pseudoinverse`` and ``transpose`` take ``ncols``.  The
entries are Scalars (``Scalar.inverse`` also runs ``_rref`` on Fractions);
``solve`` takes ``{key: value}`` columns and target over any keys.  Every
result is unique (the reduced row-echelon form, the canonical nullspace,
Gram-Schmidt of an ordered input, the Moore-Penrose inverse) and scalars
are canonical, so the elimination order does not show in the output.

``mat_mul`` alone works on lists of lists: it is the independent dense
check of the pseudoinverse identities, and the benchmark's tracer
(``perfbench/tracer.py``) counts its products by indexing dense operands.
"""

from __future__ import annotations


def identity(field, n: int):
    one = field.one()
    return [{i: one} for i in range(n)]


def transpose(rows, ncols: int):
    out = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j, x in row.items():
            out[j][i] = x
    return out


def mat_mul(field, a, b):
    """Dense row-by-row product that skips zero entries of both factors."""
    z = field.zero()
    out = [[z] * (len(b[0]) if b else 0) for _ in a]
    for row, out_row in zip(a, out):
        for t, x in enumerate(row):
            if x:
                for j, y in enumerate(b[t]):
                    if y:
                        out_row[j] = out_row[j] + x * y
    return out


# -- kernels -----------------------------------------------------------------

def _add_into(row, f, other):
    """row += f * other, in place, dropping entries that cancel."""
    for j, y in other.items():
        s = row.get(j)
        s = f * y if s is None else s + f * y
        if s:
            row[j] = s
        else:
            del row[j]


def _dot(u, v):
    """Dot product of sparse vectors, over the smaller support."""
    if len(v) < len(u):
        u, v = v, u
    return sum(x * v[j] for j, x in u.items() if j in v)


def _mul(a, b):
    """Product of sparse row lists; ``b`` has one row per column of ``a``."""
    out = []
    for row in a:
        acc: dict = {}
        for t, x in row.items():
            _add_into(acc, x, b[t])
        out.append(acc)
    return out


def _rref(rows):
    """Gauss-Jordan on sparse rows: (pivot rows, pivot columns), by column.

    Rows enter one at a time and the pivot rows stay fully reduced, so a new
    row is cleared of each pivot column by one subtraction, and a new pivot
    is cleared from the rows that hold its column.
    """
    piv: dict = {}
    for row in rows:
        row = dict(row)
        for c in [c for c in row if c in piv]:
            _add_into(row, -row[c], piv[c])
        if not row:
            continue
        c = min(row)
        inv = 1 / row[c]
        row = {j: x * inv for j, x in row.items()}
        for other in piv.values():
            f = other.get(c)
            if f is not None:
                _add_into(other, -f, row)
        piv[c] = row
    pivots = sorted(piv)
    return [piv[c] for c in pivots], pivots


def _inverse(field, rows, n):
    one = field.one()
    aug, pivots = _rref([{**row, n + i: one} for i, row in enumerate(rows)])
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [{j - n: x for j, x in row.items() if j >= n} for row in aug]


# -- public routines ---------------------------------------------------------

def rref(field, rows):
    """Reduced row-echelon form; returns (rows, pivot_columns).

    The zero rows come last, as empty dicts, so the row count is kept.
    """
    red, pivots = _rref(rows)
    return red + [{} for _ in range(len(rows) - len(red))], pivots


def rank(field, rows):
    return len(_rref(rows)[1])


def nullspace(field, rows, ncols: int):
    """Canonical RREF nullspace basis (free variable set to 1)."""
    red, pivots = _rref(rows)
    pivot_set = set(pivots)
    basis = {free: {free: field.one()} for free in range(ncols)
             if free not in pivot_set}
    for row, c in zip(red, pivots):
        for j, x in row.items():
            if j != c:
                basis[j][c] = -x
    return list(basis.values())


def solve(field, columns, target):
    """One exact x with sum_c x[c] * columns[c] = target, or None.

    The columns and the target are sparse ``{key: value}`` vectors over any
    hashable keys.  Free variables are 0; the reduced row-echelon form is
    unique, so the solution does not depend on the order of the keys.
    """
    n = len(columns)
    rows: dict = {}
    for c, vec in enumerate(columns + [target]):
        for key, x in vec.items():
            if x:
                rows.setdefault(key, {})[c] = x
    red, pivots = _rref(rows.values())
    if n in pivots:
        return None
    x = [field.zero()] * n
    for row, c in zip(red, pivots):
        x[c] = row.get(n, x[c])
    return x


def inverse(field, rows):
    return _inverse(field, rows, len(rows))


def pseudoinverse(field, rows, ncols: int):
    """Moore-Penrose pseudoinverse, ``ncols`` rows, via A = C F.

    A^+ = F^T (F F^T)^-1 (C^T C)^-1 C^T, with C the pivot columns of A and F
    the nonzero rows of its reduced row-echelon form.
    """
    f, pivots = _rref(rows)
    r = len(pivots)
    if r == 0:
        return [{} for _ in range(ncols)]
    columns = transpose(rows, ncols)
    ct = [columns[p] for p in pivots]  # r x m
    ft, c = transpose(f, ncols), transpose(ct, len(rows))
    middle = _mul(_inverse(field, _mul(f, ft), r),
                  _inverse(field, _mul(ct, c), r))
    return _mul(ft, _mul(middle, ct))


def gram_schmidt(field, vectors):
    """Orthonormalize over the field; extends the scalar tower for norms.

    In exact arithmetic <w, e_k> = <v, e_k> for the partially reduced w, so
    each vector is projected only onto the earlier orthonormal vectors whose
    support meets its own.  ``field.sqrt`` is called once per kept vector,
    in input order.
    """
    ortho: list = []
    by_col: dict = {}   # column -> indices of the ortho vectors using it
    for v in vectors:
        w = dict(v)
        for k in sorted({k for j in v for k in by_col.get(j, ())}):
            c = _dot(v, ortho[k])
            if c:
                _add_into(w, -c, ortho[k])
        if not w:
            continue
        inv_norm = field.sqrt(_dot(w, w)).inverse()
        for j in w:
            by_col.setdefault(j, []).append(len(ortho))
        ortho.append({j: x * inv_norm for j, x in w.items()})
    return ortho
