import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carnot import linalg
from carnot.scalars import ScalarField


def _mat(field, rows):
    return [[field(Fraction(v)) for v in row] for row in rows]


# linalg takes and returns sparse rows; the tests state their matrices, and
# compare results, as dense lists of lists


def _sparse(rows):
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


def _dense(field, rows, ncols):
    return [[row.get(j, field.zero()) for j in range(ncols)] for row in rows]


def test_rref_and_rank():
    f = ScalarField()
    a = _sparse(_mat(f, [[1, 2, 3], [2, 4, 6], [1, 0, 1]]))
    rows, pivots = linalg.rref(f, a)
    assert pivots == [0, 1]
    assert linalg.rank(f, a) == 2


def test_nullspace_canonical():
    f = ScalarField()
    a = _mat(f, [[1, 2, 0], [0, 0, 1]])
    ns = linalg.nullspace(f, _sparse(a), 3)
    assert len(ns) == 1
    v = _dense(f, ns, 3)[0]
    assert [str(x) for x in v] == ["-2", "1", "0"]
    assert linalg.mat_mul(f, a, _dense(f, linalg.transpose(ns, 3), 1)) \
        == [[f.zero()]] * 2


def test_solve_and_inverse():
    f = ScalarField()
    a = _mat(f, [[2, 1], [1, 1]])
    b = [f(3), f(2)]
    columns = linalg.transpose(_sparse(a), 2)
    x = linalg.solve(f, columns, dict(enumerate(b)))
    assert linalg.mat_mul(f, a, [[v] for v in x]) == [[v] for v in b]
    inv = linalg.inverse(f, _sparse(a))
    assert linalg.mat_mul(f, a, _dense(f, inv, 2)) == \
        _dense(f, linalg.identity(f, 2), 2)
    # inconsistent system
    ones = {"p": f(1), "q": f(1)}
    assert linalg.solve(f, [ones, ones], {"q": f(1)}) is None


def test_pseudoinverse_moore_penrose_identities():
    f = ScalarField()
    rng = random.Random(7)
    for _ in range(15):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        a = _mat(f, [[rng.randint(-2, 2) for _ in range(n)]
                     for _ in range(m)])
        p = _dense(f, linalg.pseudoinverse(f, _sparse(a), n), m)
        apa = linalg.mat_mul(f, linalg.mat_mul(f, a, p), a)
        pap = linalg.mat_mul(f, linalg.mat_mul(f, p, a), p)
        ap = linalg.mat_mul(f, a, p)
        pa = linalg.mat_mul(f, p, a)
        assert apa == a
        assert pap == p
        assert _dense(f, linalg.transpose(_sparse(ap), m), m) == ap
        assert _dense(f, linalg.transpose(_sparse(pa), n), n) == pa


def test_gram_schmidt_orthonormal_with_tower_extension():
    f = ScalarField()
    vecs = _sparse(_mat(f, [[1, 1, 0], [1, 0, 1]]))
    ortho = linalg.gram_schmidt(f, vecs)
    assert len(ortho) == 2
    gram = linalg.mat_mul(f, _dense(f, ortho, 3),
                          _dense(f, linalg.transpose(ortho, 3), 2))
    assert gram == _dense(f, linalg.identity(f, 2), 2)
    assert 2 in f.radicands  # norm sqrt(2) forced an extension


def test_empty_row_list_keeps_its_column_count():
    f = ScalarField()
    assert linalg.rref(f, []) == ([], [])
    assert linalg.rank(f, []) == 0
    assert linalg.nullspace(f, [], 3) == linalg.identity(f, 3)
    assert linalg.pseudoinverse(f, [], 3) == [{}, {}, {}]  # 3 x 0
    assert linalg.transpose([], 2) == [{}, {}]
    assert linalg.gram_schmidt(f, []) == []


def test_zero_block_pseudoinverse_keeps_its_shape():
    f = ScalarField()
    zero = [{}, {}]  # 2 x 3
    assert linalg.pseudoinverse(f, zero, 3) == [{}, {}, {}]  # 3 x 2
    assert linalg.rref(f, zero) == ([{}, {}], [])
    assert linalg.nullspace(f, zero, 3) == linalg.identity(f, 3)


# -- properties against the dense routines linalg had before its rows became
# -- sparse dicts, kept here as the reference with their own dense helpers

def _ref_zeros(field, m, n):
    return [[field.zero()] * n for _ in range(m)]


def _ref_identity(field, n):
    return [[field.one() if j == i else field.zero() for j in range(n)]
            for i in range(n)]


def _ref_transpose(a):
    return [list(col) for col in zip(*a)] if a else []


def _ref_mul(field, a, b):
    out = _ref_zeros(field, len(a), len(b[0]) if b else 0)
    for row, out_row in zip(a, out):
        for t, x in enumerate(row):
            if x:
                for j, y in enumerate(b[t]):
                    if y:
                        out_row[j] = out_row[j] + x * y
    return out


def _ref_rref(field, a):
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


def _ref_nullspace(field, a, ncols):
    if not a:
        return [[field.one() if j == i else field.zero() for j in range(ncols)]
                for i in range(ncols)]
    rows, pivots = _ref_rref(field, a)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [field.zero()] * ncols
        v[free] = field.one()
        for r, c in enumerate(pivots):
            v[c] = -rows[r][free]
        basis.append(v)
    return basis


def _ref_solve(field, a, b):
    ncols = len(a[0])
    rows, pivots = _ref_rref(field, [row + [bv] for row, bv in zip(a, b)])
    if ncols in pivots:
        return None
    x = [field.zero()] * ncols
    for r, c in enumerate(pivots):
        x[c] = rows[r][ncols]
    return x


def _ref_inverse(field, a):
    n = len(a)
    aug = [list(row) + _ref_identity(field, n)[i] for i, row in enumerate(a)]
    rows, pivots = _ref_rref(field, aug)
    assert pivots == list(range(n))
    return [row[n:] for row in rows]


def _ref_pseudoinverse(field, a, n):
    m = len(a)
    if m == 0 or n == 0:
        return _ref_zeros(field, n, m)
    rows, pivots = _ref_rref(field, a)
    r = len(pivots)
    if r == 0:
        return _ref_zeros(field, n, m)
    c = [[a[i][j] for j in pivots] for i in range(m)]
    f = [rows[i] for i in range(r)]
    ct, ft = _ref_transpose(c), _ref_transpose(f)
    left = _ref_inverse(field, _ref_mul(field, ct, c))
    right = _ref_inverse(field, _ref_mul(field, f, ft))
    out = _ref_mul(field, ft, right)
    out = _ref_mul(field, out, left)
    return _ref_mul(field, out, ct)


def _ref_dot(field, u, v):
    s = field.zero()
    for x, y in zip(u, v):
        s = s + x * y
    return s


def _ref_gram_schmidt(field, vectors):
    ortho = []
    for v in vectors:
        w = list(v)
        for e in ortho:
            c = _ref_dot(field, w, e)
            if c:
                w = [wi - c * ei for wi, ei in zip(w, e)]
        norm2 = _ref_dot(field, w, w)
        if not norm2:
            continue
        inv_norm = field.sqrt(norm2).inverse()
        ortho.append([wi * inv_norm for wi in w])
    return ortho


PROPERTY = settings(max_examples=60, derandomize=True, database=None,
                    deadline=None)

_rationals = {
    "integer": st.integers(-3, 3).map(Fraction),
    "fraction": st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)),
}
# an entry is (a, b) for a + b*sqrt(2); two entries in three are zero
_entries = {
    "integer": st.tuples(_rationals["integer"], st.just(Fraction(0))),
    "fraction": st.tuples(_rationals["fraction"], st.just(Fraction(0))),
    "sqrt2": st.tuples(_rationals["fraction"], _rationals["integer"]),
}


@st.composite
def _specs(draw, kind, min_rows=0):
    m, n = draw(st.integers(min_rows, 6)), draw(st.integers(1, 7))
    entry = st.tuples(st.integers(0, 2), _entries[kind]).map(
        lambda t: t[1] if t[0] == 0 else (Fraction(0), Fraction(0)))
    return draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                         min_size=m, max_size=m)), n


def _materialize(field, spec):
    root = field.sqrt(2)
    return [[field(a) + field(b) * root if b else field(a) for a, b in row]
            for row in spec]


def _terms(rows):
    return [[x.terms for x in row] for row in rows]


def _outcome(fn):
    """fn()'s result as plain terms, or the exception it raised."""
    try:
        return _terms(fn())
    except Exception as exc:  # the tower cap and irrational norms alike
        return type(exc), str(exc)


@pytest.mark.parametrize("kind", sorted(_entries))
@PROPERTY
@given(data=st.data())
def test_sparse_routines_match_dense_reference(kind, data):
    spec, n = data.draw(_specs(kind))
    f, g = ScalarField(), ScalarField()
    a, b = _sparse(_materialize(f, spec)), _materialize(g, spec)
    rows, pivots = linalg.rref(f, a)
    ref_rows, ref_pivots = _ref_rref(g, b)
    assert (_terms(_dense(f, rows, n)), pivots) == \
        (_terms(ref_rows), ref_pivots)
    assert linalg.rank(f, a) == len(ref_pivots)
    assert _terms(_dense(f, linalg.nullspace(f, a, n), n)) == \
        _terms(_ref_nullspace(g, b, n))
    assert _terms(_dense(f, linalg.pseudoinverse(f, a, n), len(a))) == \
        _terms(_ref_pseudoinverse(g, b, n))
    # the same radicands, adjoined in the same order, or the same failure
    assert _outcome(lambda: _dense(f, linalg.gram_schmidt(f, a), n)) == \
        _outcome(lambda: _ref_gram_schmidt(g, b))
    assert f.radicands == g.radicands


@pytest.mark.parametrize("kind", sorted(_entries))
@PROPERTY
@given(data=st.data())
def test_sparse_solve_matches_dense_reference(kind, data):
    """The last column is the target; the keys run against the row order,
    and the solution, free variables at 0, does not depend on them."""
    spec, n = data.draw(_specs(kind, min_rows=1))
    f, g = ScalarField(), ScalarField()
    a, b = _materialize(f, spec), _materialize(g, spec)
    keyed = [{("row", -i): x for i, x in col.items()}
             for col in linalg.transpose(_sparse(a), n)]
    got = linalg.solve(f, keyed[:-1], keyed[-1])
    want = _ref_solve(g, [row[:-1] for row in b], [row[-1] for row in b]) \
        if n > 1 else (None if any(row[-1] for row in b) else [])
    assert (got if got is None else [x.terms for x in got]) \
        == (want if want is None else [x.terms for x in want])


@pytest.mark.parametrize("kind", ["integer", "fraction"])
@PROPERTY
@given(data=st.data())
def test_rational_routines_match_sympy(kind, data):
    sympy = pytest.importorskip("sympy")
    spec, n = data.draw(_specs(kind, min_rows=1))
    f = ScalarField()
    a = _materialize(f, spec)
    s = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                       for x, _ in row] for row in spec])

    def rational(rows):
        return [[x.as_rational() for x in row] for row in rows]

    def from_sympy(rows):
        return [[Fraction(int(x.p), int(x.q)) for x in row] for row in rows]

    rows = _sparse(a)
    assert linalg.rank(f, rows) == s.rank()
    assert rational(_dense(f, linalg.nullspace(f, rows, n), n)) == \
        from_sympy([list(v) for v in s.nullspace()])
    assert rational(_dense(f, linalg.pseudoinverse(f, rows, n), len(a))) == \
        from_sympy(s.pinv().tolist())
