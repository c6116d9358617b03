"""Exact sparse sums and sparse linear algebra over a field of exact values.

This is the bottom layer, and the one home of the exact sparse sum: a
``{key: value}`` map of exact values stays canonical when every sum into
it goes through ``accumulate`` (one term) or ``add_scaled`` (a scaled
map), which drop a key whose sum is zero and keep a rational sum in its
one form.  The scalars, the bracket table, the polynomial oracle and
the constant forms all sum through these two; only the operator kernel
of :mod:`carnot.env` keeps a loop of its own, over integer numerators.

A matrix is a list of rows, and a row is a ``{column: value}`` dict of its
nonzero entries, so the work grows with the nonzeros, not with the block
size: a d0 weight block has up to a hundred or more columns and about two
nonzeros per row.  Rows do not show how many columns a matrix has, so
``nullspace``, ``pseudoinverse`` and ``transpose`` take ``ncols``.  An
entry is an exact value in its one form (:mod:`carnot.scalars`): an
``int`` when integral, a ``Fraction`` when otherwise rational, a
``Scalar`` only when irrational.  Plain ``+ - *`` serve every form, but a
rational result needs ``canonical`` (``Fraction(1, 2) * 2`` is an integral
``Fraction``) and a quotient needs ``reciprocal`` (``1 / 2`` is a float).
``solve`` takes ``{key: value}`` columns and target over any keys.  Every
result is unique (the reduced row-echelon form, the canonical nullspace,
the orthogonal Gram-Schmidt vectors of an ordered input, the Moore-Penrose
inverse) and values are canonical, so the elimination order does not show
in the output.
The one square inverse, ``_inverse``, is private: it forms the two middle
factors of ``pseudoinverse``.

``mat_mul`` alone works on lists of lists: it is the independent dense
check of the pseudoinverse identities, and the benchmark's tracer
(``perfbench/tracer.py``) counts its products by indexing dense operands.
Its zero is ``0``.
"""

from __future__ import annotations

from fractions import Fraction


def transpose(rows, ncols: int):
    out = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j, x in row.items():
            out[j][i] = x
    return out


def canonical(x):
    """x in its one form: an integral Fraction as its int, else x itself."""
    return x.numerator if type(x) is Fraction and x.denominator == 1 else x


def reciprocal(x):
    """1 / x as an exact value, never a float."""
    if isinstance(x, (int, Fraction)):
        return canonical(Fraction(1, x))
    return x.inverse()


def mat_mul(field, a, b):
    """Dense row-by-row product that skips zero entries of both factors;
    ``field`` is unused, kept for the tracer's positional wrapper."""
    out = [[0] * (len(b[0]) if b else 0) for _ in a]
    for row, out_row in zip(a, out):
        for t, x in enumerate(row):
            if x:
                for j, y in enumerate(b[t]):
                    if y:
                        out_row[j] = out_row[j] + x * y
    return out


# -- the exact sparse sum ----------------------------------------------------

def accumulate(terms: dict, key, value):
    """terms[key] += value, in place: a zero sum drops the key, and a
    rational sum is kept in its one form."""
    s = terms.get(key)
    s = value if s is None else s + value
    if s:
        terms[key] = canonical(s)
    else:
        terms.pop(key, None)


def add_scaled(row, f, other):
    """row += f * other, in place, by the rule of ``accumulate``; a zero
    ``f`` leaves ``row`` as it is."""
    for j, y in other.items():
        s = row.get(j)
        s = f * y if s is None else s + f * y
        if s:
            row[j] = canonical(s)
        else:
            row.pop(j, None)


# -- kernels -----------------------------------------------------------------

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
            add_scaled(acc, x, b[t])
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
            add_scaled(row, -row[c], piv[c])
        if not row:
            continue
        c = min(row)
        x = row[c]
        if x != 1:
            inv = reciprocal(x)
            row = {j: canonical(y * inv) for j, y in row.items()}
        for other in piv.values():
            f = other.get(c)
            if f is not None:
                add_scaled(other, -f, row)
        piv[c] = row
    pivots = sorted(piv)
    return [piv[c] for c in pivots], pivots


def _inverse(rows, n):
    aug, pivots = _rref([{**row, n + i: 1} for i, row in enumerate(rows)])
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [{j - n: x for j, x in row.items() if j >= n} for row in aug]


# -- public routines ---------------------------------------------------------

def rref(rows):
    """Reduced row-echelon form; returns (rows, pivot_columns).

    The zero rows come last, as empty dicts, so the row count is kept.
    """
    red, pivots = _rref(rows)
    return red + [{} for _ in range(len(rows) - len(red))], pivots


def rank(rows):
    return len(_rref(rows)[1])


def nullspace(rows, ncols: int):
    """Canonical RREF nullspace basis (free variable set to 1)."""
    red, pivots = _rref(rows)
    pivot_set = set(pivots)
    basis = {free: {free: 1} for free in range(ncols)
             if free not in pivot_set}
    for row, c in zip(red, pivots):
        for j, x in row.items():
            if j != c:
                basis[j][c] = -x
    return list(basis.values())


def solve(columns, target):
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
    x = [0] * n
    for row, c in zip(red, pivots):
        x[c] = row.get(n, x[c])
    return x


def pseudoinverse(rows, ncols: int):
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
    middle = _mul(_inverse(_mul(f, ft), r), _inverse(_mul(ct, c), r))
    return _mul(ft, _mul(middle, ct))


def gram_schmidt(vectors):
    """Orthogonalize in order, with no normalization: the lists of the w_k
    and of their norms N_k = <w_k, w_k>, in the field of the inputs.

    w_k = v - sum_j <v, w_j> / N_j w_j, and each vector is projected only
    onto the earlier w_j whose support meets its own.
    """
    ortho, norms = [], []
    by_col: dict = {}   # column -> indices of the ortho vectors using it
    for v in vectors:
        w = dict(v)
        for k in sorted({k for j in v for k in by_col.get(j, ())}):
            c = _dot(v, ortho[k])
            if c:
                add_scaled(w, -c * reciprocal(norms[k]), ortho[k])
        if not w:
            continue
        for j in w:
            by_col.setdefault(j, []).append(len(ortho))
        ortho.append(w)
        norms.append(canonical(_dot(w, w)))
    return ortho, norms
