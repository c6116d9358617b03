import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from carnot import linalg
from carnot.scalars import Scalar, exact, sqrt


def _mat(rows):
    return [[exact(Fraction(v)) for v in row] for row in rows]


# linalg takes and returns sparse rows; the tests state their matrices, and
# compare results, as dense lists of lists


def _sparse(rows):
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


def _dense(rows, ncols):
    return [[row.get(j, 0) for j in range(ncols)] for row in rows]


def _identity(n):
    return [{i: 1} for i in range(n)]


def test_rref_and_rank():
    a = _sparse(_mat([[1, 2, 3], [2, 4, 6], [1, 0, 1]]))
    rows, pivots = linalg._rref(a)
    assert pivots == [0, 1]
    assert linalg.rank(a) == 2


def test_nullspace_canonical():
    a = _mat([[1, 2, 0], [0, 0, 1]])
    ns = linalg.nullspace(_sparse(a), 3)
    assert len(ns) == 1
    v = _dense(ns, 3)[0]
    assert [str(x) for x in v] == ["-2", "1", "0"]
    assert linalg.mat_mul(None, a, _dense(linalg.transpose(ns, 3), 1)) \
        == [[0]] * 2


def test_solve_and_inverse():
    a = _mat([[2, 1], [1, 1]])
    b = [3, 2]
    columns = linalg.transpose(_sparse(a), 2)
    x = linalg.solve(columns, dict(enumerate(b)))
    assert linalg.mat_mul(None, a, [[v] for v in x]) == [[v] for v in b]
    # the pseudoinverse of an invertible matrix is its inverse
    inv = linalg.pseudoinverse(_sparse(a), 2)
    assert linalg.mat_mul(None, a, _dense(inv, 2)) == \
        _dense(_identity(2), 2)
    # inconsistent system
    ones = {"p": 1, "q": 1}
    assert linalg.solve([ones, ones], {"q": 1}) is None


def test_pseudoinverse_moore_penrose_identities():
    rng = random.Random(7)
    for _ in range(15):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        a = _mat([[rng.randint(-2, 2) for _ in range(n)]
                     for _ in range(m)])
        p = _dense(linalg.pseudoinverse(_sparse(a), n), m)
        apa = linalg.mat_mul(None, linalg.mat_mul(None, a, p), a)
        pap = linalg.mat_mul(None, linalg.mat_mul(None, p, a), p)
        ap = linalg.mat_mul(None, a, p)
        pa = linalg.mat_mul(None, p, a)
        assert apa == a
        assert pap == p
        assert _dense(linalg.transpose(_sparse(ap), m), m) == ap
        assert _dense(linalg.transpose(_sparse(pa), n), n) == pa


def test_gram_schmidt_orthonormal_with_tower_extension():
    """Gram-Schmidt keeps the orthogonal vectors in Q with their norms;
    dividing by the square roots of the norms, sqrt(2) and
    sqrt(3/2) = sqrt(6)/2, makes them orthonormal."""
    vecs = _sparse(_mat([[1, 1, 0], [1, 0, 1]]))
    ortho, norms = linalg.gram_schmidt(vecs)
    assert _dense(ortho, 3) == [[1, 1, 0],
                                [Fraction(1, 2), Fraction(-1, 2), 1]]
    assert norms == [2, Fraction(3, 2)]
    gram = linalg.mat_mul(None, _dense(ortho, 3),
                          _dense(linalg.transpose(ortho, 3), 2))
    assert gram == [[2, 0], [0, Fraction(3, 2)]]
    unit = [{j: x * linalg.reciprocal(sqrt(n)) for j, x in w.items()}
            for w, n in zip(ortho, norms)]
    gram = linalg.mat_mul(None, _dense(unit, 3),
                          _dense(linalg.transpose(unit, 3), 2))
    assert gram == _dense(_identity(2), 2)
    assert [{r for x in w.values() for r in x.terms} for w in unit] \
        == [{2}, {6}]


def test_empty_row_list_keeps_its_column_count():
    assert linalg._rref([]) == ([], [])
    assert linalg.rank([]) == 0
    assert linalg.nullspace([], 3) == _identity(3)
    assert linalg.pseudoinverse([], 3) == [{}, {}, {}]  # 3 x 0
    assert linalg.transpose([], 2) == [{}, {}]
    assert linalg.gram_schmidt([]) == ([], [])


def test_zero_block_pseudoinverse_keeps_its_shape():
    zero = [{}, {}]  # 2 x 3
    assert linalg.pseudoinverse(zero, 3) == [{}, {}, {}]  # 3 x 2
    assert linalg.rank(zero) == 0
    assert linalg.nullspace(zero, 3) == _identity(3)


# -- properties against the dense routines linalg had before its rows became
# -- sparse dicts, kept here as the reference with their own dense helpers

def _ref_zeros(m, n):
    return [[0] * n for _ in range(m)]


def _ref_identity(n):
    return [[1 if j == i else 0 for j in range(n)]
            for i in range(n)]


def _ref_transpose(a):
    return [list(col) for col in zip(*a)] if a else []


def _ref_mul(a, b):
    out = _ref_zeros(len(a), len(b[0]) if b else 0)
    for row, out_row in zip(a, out):
        for t, x in enumerate(row):
            if x:
                for j, y in enumerate(b[t]):
                    if y:
                        out_row[j] = out_row[j] + x * y
    return out


def _ref_rref(a):
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
        inv = Fraction(1) / rows[r][c]
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


def _ref_nullspace(a, ncols):
    if not a:
        return [[1 if j == i else 0 for j in range(ncols)]
                for i in range(ncols)]
    rows, pivots = _ref_rref(a)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [0] * ncols
        v[free] = 1
        for r, c in enumerate(pivots):
            v[c] = -rows[r][free]
        basis.append(v)
    return basis


def _ref_solve(a, b):
    ncols = len(a[0])
    rows, pivots = _ref_rref([row + [bv] for row, bv in zip(a, b)])
    if ncols in pivots:
        return None
    x = [0] * ncols
    for r, c in enumerate(pivots):
        x[c] = rows[r][ncols]
    return x


def _ref_inverse(a):
    n = len(a)
    aug = [list(row) + _ref_identity(n)[i] for i, row in enumerate(a)]
    rows, pivots = _ref_rref(aug)
    assert pivots == list(range(n))
    return [row[n:] for row in rows]


def _ref_pseudoinverse(a, n):
    m = len(a)
    if m == 0 or n == 0:
        return _ref_zeros(n, m)
    rows, pivots = _ref_rref(a)
    r = len(pivots)
    if r == 0:
        return _ref_zeros(n, m)
    c = [[a[i][j] for j in pivots] for i in range(m)]
    f = [rows[i] for i in range(r)]
    ct, ft = _ref_transpose(c), _ref_transpose(f)
    left = _ref_inverse(_ref_mul(ct, c))
    right = _ref_inverse(_ref_mul(f, ft))
    out = _ref_mul(ft, right)
    out = _ref_mul(out, left)
    return _ref_mul(out, ct)


def _ref_dot(u, v):
    s = 0
    for x, y in zip(u, v):
        s = s + x * y
    return s


def _ref_gram_schmidt(vectors):
    """The orthogonal vectors and their norms, with no normalization."""
    ortho, norms = [], []
    for v in vectors:
        w = list(v)
        for e, norm2 in zip(ortho, norms):
            c = _ref_dot(w, e)
            if c:
                c = c * (Fraction(1) / norm2)
                w = [wi - c * ei for wi, ei in zip(w, e)]
        norm2 = _ref_dot(w, w)
        if not norm2:
            continue
        ortho.append(w)
        norms.append(norm2)
    return ortho, norms


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


def _materialize(spec):
    root = sqrt(2)
    return [[exact(a) + exact(b) * root if b else exact(a) for a, b in row]
            for row in spec]


def _exact(x):
    """The {radicand: coeff} terms of a result value: a Scalar, or the int
    or Fraction that linalg returns for a rational one."""
    return x.terms if isinstance(x, Scalar) else {1: x} if x else {}


def _terms(rows):
    return [[_exact(x) for x in row] for row in rows]


@pytest.mark.parametrize("kind", sorted(_entries))
@PROPERTY
@given(data=st.data())
def test_sparse_routines_match_dense_reference(kind, data):
    spec, n = data.draw(_specs(kind))
    a, b = _sparse(_materialize(spec)), _materialize(spec)
    rows, pivots = linalg._rref(a)
    ref_rows, ref_pivots = _ref_rref(b)
    assert (_terms(_dense(rows, n)), pivots) == \
        (_terms(ref_rows[:len(ref_pivots)]), ref_pivots)
    assert linalg.rank(a) == len(ref_pivots)
    assert _terms(_dense(linalg.nullspace(a, n), n)) == \
        _terms(_ref_nullspace(b, n))
    assert _terms(_dense(linalg.pseudoinverse(a, n), len(a))) == \
        _terms(_ref_pseudoinverse(b, n))
    # the same orthogonal vectors and norms
    ortho, norms = linalg.gram_schmidt(a)
    ref_ortho, ref_norms = _ref_gram_schmidt(b)
    assert _terms(_dense(ortho, n)) == _terms(ref_ortho)
    assert _terms([norms]) == _terms([ref_norms])


@pytest.mark.parametrize("kind", sorted(_entries))
@PROPERTY
@given(data=st.data())
def test_sparse_solve_matches_dense_reference(kind, data):
    """The last column is the target; the keys run against the row order,
    and the solution, free variables at 0, does not depend on them."""
    spec, n = data.draw(_specs(kind, min_rows=1))
    a = b = _materialize(spec)
    keyed = [{("row", -i): x for i, x in col.items()}
             for col in linalg.transpose(_sparse(a), n)]
    got = linalg.solve(keyed[:-1], keyed[-1])
    want = _ref_solve([row[:-1] for row in b], [row[-1] for row in b]) \
        if n > 1 else (None if any(row[-1] for row in b) else [])
    assert (got if got is None else [_exact(x) for x in got]) \
        == (want if want is None else [_exact(x) for x in want])


@pytest.mark.parametrize("kind", ["integer", "fraction"])
@PROPERTY
@given(data=st.data())
def test_rational_routines_match_sympy(kind, data):
    sympy = pytest.importorskip("sympy")
    spec, n = data.draw(_specs(kind, min_rows=1))
    a = _materialize(spec)
    s = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                       for x, _ in row] for row in spec])

    def rational(rows):
        assert all(type(x) in (int, Fraction) for row in rows for x in row)
        return [[Fraction(x) for x in row] for row in rows]

    def from_sympy(rows):
        return [[Fraction(int(x.p), int(x.q)) for x in row] for row in rows]

    rows = _sparse(a)
    assert linalg.rank(rows) == s.rank()
    assert rational(_dense(linalg.nullspace(rows, n), n)) == \
        from_sympy([list(v) for v in s.nullspace()])
    assert rational(_dense(linalg.pseudoinverse(rows, n), len(a))) == \
        from_sympy(s.pinv().tolist())
    # the same matrix as raw ints and Fractions: canonical results, equal
    raw = _sparse([[x.numerator if x.denominator == 1 else x for x, _ in row]
                   for row in spec])
    assert linalg.rank(raw) == s.rank()
    for routine in (linalg.nullspace, linalg.pseudoinverse):
        got = routine(raw, n)
        assert all(type(x) is int or type(x) is Fraction and x.denominator != 1
                   for row in got for x in row.values())
        assert got == routine(rows, n)


# -- the exact sparse sum ----------------------------------------------------
#
# A value of Q(sqrt(2)) is drawn as a pair (a, b) for a + b*sqrt(2); the
# reference adds and multiplies the pairs as Fractions.

_pairs = st.tuples(_rationals["fraction"],
                   st.one_of(st.just(Fraction(0)), _rationals["integer"]))
_maps = st.dictionaries(st.integers(0, 5), _pairs, max_size=5)


def _value(pair, raw):
    """a + b*sqrt(2) as an int, a Fraction or a Scalar; ``raw`` keeps a
    rational a Fraction, an integral or zero one too."""
    a, b = pair
    if b:
        return exact(a) + exact(b) * sqrt(2)
    return a if raw else exact(a)


def _pair(x):
    terms = _exact(x)
    return Fraction(terms.get(1, 0)), Fraction(terms.get(2, 0))


def _ref_add_scaled(row, f, other):
    out = dict(row)
    for k, (a, b) in other.items():
        c, d = out.get(k, (0, 0))
        out[k] = (c + f[0] * a + 2 * f[1] * b, d + f[0] * b + f[1] * a)
    return {k: p for k, p in out.items() if any(p)}


def _assert_canonical_map(terms):
    """No zero value, no integral Fraction, a Scalar only when irrational."""
    for x in terms.values():
        assert x
        if isinstance(x, Scalar):
            assert x.terms.keys() - {1}
        for c in _exact(x).values():
            assert type(c) is int or \
                type(c) is Fraction and c.denominator != 1, repr(c)


@PROPERTY
@example(row={0: (Fraction(1, 2), Fraction(1))}, other={0: (Fraction(3), 0)},
         f=(Fraction(0), Fraction(0)), raw=True)
@example(row={}, other={1: (Fraction(0), Fraction(0))},
         f=(Fraction(2), Fraction(0)), raw=True)
@given(_maps, _maps, _pairs, st.booleans())
def test_exact_sparse_sum_matches_reference(row, other, f, raw):
    """``add_scaled`` and ``accumulate`` give the reference sum with every
    value canonical, for raw operands (integral Fractions, zero entries, a
    zero factor) too; adding the same terms back with the opposite sign
    restores the map, and cancelling every entry leaves it empty."""
    start = {k: _value(p, False) for k, p in row.items() if any(p)}
    terms = {k: _value(p, raw) for k, p in other.items()}
    factor = _value(f, raw)
    want = _ref_add_scaled({k: _pair(x) for k, x in start.items()}, f,
                           other)

    got = dict(start)
    linalg.add_scaled(got, factor, terms)
    assert {k: _pair(x) for k, x in got.items()} == want
    _assert_canonical_map(got)
    linalg.add_scaled(got, -factor, terms)
    assert got == start

    summed = dict(start)
    for k, x in terms.items():
        linalg.accumulate(summed, k, factor * x)
    assert {k: _pair(x) for k, x in summed.items()} == want
    _assert_canonical_map(summed)
    for k, x in list(summed.items()):
        linalg.accumulate(summed, k, -x)
    assert summed == {}
