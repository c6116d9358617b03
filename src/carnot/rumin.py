r"""The intrinsic complex of a stratified group: spaces, projections, matrices.

For each degree h the intrinsic space E0^h = ker d0 /\ ker delta0 is computed
exactly, one weight block at a time, as the nullspace of d0 stacked on the
transpose of the incoming d0, followed by Gram-Schmidt without the final
division: the basis is the orthogonal w_k, kept with their norms
N_k = <w_k, w_k>, ordered by increasing weight and, inside a weight block,
by the canonical reduced-row-echelon nullspace order.  Every exact value is
an int or a Fraction until it is irrational (:mod:`carnot.scalars`), so on a
group with rational structure constants the d0 blocks, E0, d0^{-1}, the
lifts, d_c, delta_c, the star matrices and the Laplacians are rational.
``dims`` is read off the ranks of the d0 blocks, with no basis.  Every
constant scalar matrix (a d0 block and its pseudoinverse, a star matrix) is
a list of sparse ``{column: value}`` rows, the format of :mod:`carnot.linalg`.

Square roots appear only in the orthonormal view, where output is printed
or compared with the paper.  The published bases are e_k = w_k / sqrt(N_k),
so a matrix M from degree p to degree q prints as ``orthonormal(M, q, p)``:
entry (i, j) times sqrt(N^q_i) / sqrt(N^p_j), from ``roots``, the one
place a root is taken.  ``lift`` refuses a degree of more than
``MAX_LIFT_COVECTORS`` covectors, and ``dims`` one of more than
``MAX_DIMS_COVECTORS``, with ``ResourceLimit``, before any is enumerated.

The projection Pi_E on the complement of the acyclic part is evaluated by the
weight-ascending recursion

    (Pi_E a)_p       = a
    (Pi_E a)_{p+k+1} = -d0^{-1} ( sum_{1<=l<=k+1} d_l (Pi_E a)_{p+k+1-l} )

where d0^{-1} is the exact Moore-Penrose pseudoinverse of d0 per weight
block; each layer sum is computed only on the covectors where d0^{-1} has a
column.  Each degree's lift, Pi_E applied to the symbolic basis form
sum_i alpha_i w_i with one function slot per basis element, is computed
once.  The intrinsic differential is the operator matrix
d_c = Pi_{E0} d Pi_E, Pi_{E0} taking the coefficients <w_k, x> / N_k:
d(lift) is computed only on the covectors of the E0^{h+1} basis, and d_c
has one row per basis element of E0^{h+1} and one entry per slot.  The
builders sum in the flat accumulators of :mod:`carnot.env`.  The
codifferential is delta_c = (-1)^{n(h+1)+1} * d_c *, a formula the diagonal
scalings of the view leave unchanged, cross-checked once per degree against
the adjoint, which takes the norms: entry (i, j) of the adjoint of m is
(N^q_j / N^p_i) m_ji*.  A product with star matrices on both sides is
``OperatorMatrix.conjugate``: a sum of scaled entries, no PBW product.

Every derived object lives in one dict, ``RuminComplex.memo``, filled by the
``cached`` decorator, which :mod:`carnot.laplacians` uses too.  Each degree
keeps its weight blocks, d0 blocks with their ranks and pseudoinverses, its
basis with norms, the roots, d0^{-1}, lift, d_c, star and delta_c; only the
degree of the Laplacian built last keeps its block powers, which are large
and read by that degree alone.
"""

from __future__ import annotations

import functools
import json
import math
import re
from collections import Counter, defaultdict

from . import linalg
from .env import (Accumulator, AlgebraMismatch, EnvElement, add_into,
                  collect, matrix_product)
from .exterior import (CovectorMap, Form, OperatorForm, covectors,
                       d0_covector, d_terms, terms_of, tuple_weight)
from .liealg import ResourceLimit
from .linalg import reciprocal
from .scalars import TowerInsufficient

# 455 covectors (free:5,2, degree 3) fit; 1,001 (n = 14, degree 4) do not
MAX_LIFT_COVECTORS = 500
# dims() takes about 10 s on H8 (n = 17, 24,310 covectors in degree 8) and
# does not finish on free:2,6 (n = 23, 1,352,078 in degree 11)
MAX_DIMS_COVECTORS = 25_000


def _covector_counts(weights, h: int) -> Counter:
    """{weight: number of degree-h covectors of that weight}, counted over
    the basis weights with no covector enumerated."""
    counts = [Counter({0: 1})] + [Counter() for _ in range(h)]
    for a in weights:
        for k in range(h, 0, -1):
            counts[k].update({w + a: c for w, c in counts[k - 1].items()})
    return counts[h]


class SpanMismatch(ValueError):
    pass


class StarAdjointMismatch(ValueError):
    pass


class OperatorMatrix:
    """Rectangular array of EnvElements between fixed intrinsic bases."""

    __slots__ = ("algebra", "entries", "_cols")

    def __init__(self, algebra, entries, cols=None):
        self.algebra = algebra
        self.entries = entries
        self._cols = len(entries[0]) if entries else (cols or 0)

    @property
    def shape(self):
        return (len(self.entries), self._cols)

    @classmethod
    def zeros(cls, alg, rows, cols):
        z = EnvElement.zero(alg)
        return cls(alg, [[z] * cols for _ in range(rows)], cols=cols)

    def __eq__(self, other):
        if not isinstance(other, OperatorMatrix):
            return NotImplemented
        return (self.algebra is other.algebra and self.shape == other.shape
                and self.entries == other.entries)

    def __add__(self, other):
        m, n = self.shape
        if other.shape != (m, n):
            raise ValueError(f"shape mismatch {self.shape} + {other.shape}")
        return OperatorMatrix(
            self.algebra,
            [[self.entries[i][j] + other.entries[i][j] for j in range(n)]
             for i in range(m)], cols=n)

    def __neg__(self):
        return OperatorMatrix(self.algebra,
                              [[-e for e in row] for row in self.entries],
                              cols=self._cols)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        return OperatorMatrix(self.algebra,
                              [[e.scale(c) for e in row] for row in self.entries],
                              cols=self._cols)

    def conjugate(self, left, right, ncols: int):
        """left @ self @ right, for two sparse-row scalar matrices; right
        has ``ncols`` columns.

        Each nonzero entry M[s][t] is added into output entry (i, j),
        scaled by each nonzero left[i][s] * right[t][j]: no PBW product is
        formed.
        """
        alg = self.algebra
        accs = [[Accumulator() for _ in range(ncols)] for _ in left]
        left_cols = linalg.transpose(left, len(self.entries))
        for s, row in enumerate(self.entries):
            lefts = [(accs[i], c) for i, c in left_cols[s].items()]
            for t, u in enumerate(row):
                if u:
                    for j, r in right[t].items():
                        for acc_row, c in lefts:
                            add_into(acc_row[j], u, c * r)
        return OperatorMatrix(alg, [[collect(alg, acc) for acc in row]
                                    for row in accs], cols=ncols)

    def __matmul__(self, other):
        """Matrix product, by ``env.matrix_product``: each entry A_ik is
        folded through the words of row k of ``other`` as a prefix trie,
        one generator at a time; each partial product A_ik * X^w is added
        into every output column whose entry holds X^w, in ``int``
        arithmetic over the two factors' denominators.
        """
        if other.algebra is not self.algebra:
            raise AlgebraMismatch("operands live over different algebras")
        k = self.shape[1]
        k2, n = other.shape
        if k != k2:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        out = matrix_product(self.algebra, self.entries, other.entries, n)
        return OperatorMatrix(self.algebra, out, cols=n)

    def is_zero(self):
        return all(not e for row in self.entries for e in row)

    def degrees(self) -> frozenset:
        """The weighted degrees of the entries; empty for zero."""
        return frozenset().union(*(e.degrees() for row in self.entries
                                   for e in row))

    def order(self) -> int:
        """The one degree of the entries, or ValueError naming them."""
        degs = self.degrees()
        if len(degs) != 1:
            raise ValueError(f"matrix has degrees {sorted(degs)}, not one order")
        return min(degs)

    def render(self, fmt: str = "text") -> str:
        if fmt == "text":
            cells = [[e.render() for e in row] for row in self.entries]
            width = max((len(c) for row in cells for c in row), default=1)
            return "\n".join(
                "[ " + "   ".join(c.ljust(width) for c in row) + " ]"
                for row in cells)
        if fmt == "latex":
            body = " \\\\\n".join(
                " & ".join(_latex_env(e) for e in row) for row in self.entries)
            return "\\begin{pmatrix}\n" + body + "\n\\end{pmatrix}"
        if fmt == "json":
            return json.dumps(self.to_json(), sort_keys=True)
        raise ValueError(f"unknown format {fmt!r}")

    def to_json(self):
        m, n = self.shape
        return {"rows": m, "cols": n,
                "entries": [[e.render() for e in row] for row in self.entries]}

    def __repr__(self):
        m, n = self.shape
        return f"OperatorMatrix({m}x{n})"


def _latex_env(e: EnvElement) -> str:
    s = re.sub(r"sqrt\((\d+)\)", r"\\sqrt{\1}", e.render())
    s = re.sub(r"X(\d+)", lambda m: f"X_{m[1]}" if len(m[1]) == 1
               else f"X_{{{m[1]}}}", s)
    s = re.sub(r"\^(\d{2,})", r"^{\1}", s)
    return s.replace("*", " ")


def cached(fn):
    """Memoize a function of a complex, called as fn(cx, *args), in cx.memo.

    ``cx.memo[name]`` maps the positional arguments after ``cx`` to the
    value, under the function's qualified name.
    """
    name = fn.__qualname__

    @functools.wraps(fn)
    def memoized(cx, *args):
        table = cx.memo[name]
        if args not in table:
            table[args] = fn(cx, *args)
        return table[args]
    return memoized


class RuminComplex:
    """All per-group constructions, cached in ``memo``; immutable once built."""

    def __init__(self, algebra):
        self.algebra = algebra
        self.memo: defaultdict = defaultdict(dict)

    # -- graded pieces ---------------------------------------------------

    @cached
    def _weight_blocks(self, h: int) -> dict:
        """Degree-h covectors grouped by weight, in ascending weight."""
        out: dict = {}
        for j in covectors(self.algebra, h):
            out.setdefault(tuple_weight(self.algebra, j), []).append(j)
        return dict(sorted(out.items()))

    @cached
    def d0_matrix_block(self, h: int, weight: int):
        """Sparse rows of d0 on the weight block of degree h, plus its bases.

        Callers must not modify the rows.
        """
        alg = self.algebra
        dom = self._weight_blocks(h).get(weight, [])
        cod = self._weight_blocks(h + 1).get(weight, [])
        pos = {j: i for i, j in enumerate(cod)}
        rows = [{} for _ in cod]
        for c, j in enumerate(dom):
            for out_j, x in d0_covector(alg, j).items():
                rows[pos[out_j]][c] = x
        return rows, dom, cod

    def d0_blocks(self, h: int) -> dict:
        """{weight: (rows, dom, cod)} for the nonempty d0 blocks of degree h."""
        blocks = {w: self.d0_matrix_block(h, w)
                  for w in self._weight_blocks(h + 1)}
        return {w: b for w, b in blocks.items() if b[1] and b[2]}

    @cached
    def _basis(self, h: int) -> tuple:
        """(w_k, N_k) of E0^h, one tuple each, weight ascending."""
        alg = self.algebra
        if not 0 <= h <= alg.n:
            raise ValueError(f"degree {h} out of range")
        elements, norms = [], []
        for w in self._weight_blocks(h):
            rows, dom, _ = self.d0_matrix_block(h, w)
            if h >= 1:
                # transpose of the incoming d0: one constraint per (h-1)-covector
                incoming, before, _ = self.d0_matrix_block(h - 1, w)
                rows = rows + linalg.transpose(incoming, len(before))
            ortho, block_norms = linalg.gram_schmidt(
                linalg.nullspace(rows, len(dom)))
            norms.extend(block_norms)
            elements.extend(Form(alg, h, {dom[i]: vec[i]
                                          for i in sorted(vec)})
                            for vec in ortho)
        return tuple(elements), tuple(norms)

    def E0(self, h: int) -> tuple:
        """Orthogonal basis w_k of E0^h: pure-weight Forms, weight ascending."""
        return self._basis(h)[0]

    def norms(self, h: int) -> tuple:
        """The squared norms N_k = <w_k, w_k> of the E0^h basis."""
        return self._basis(h)[1]

    @cached
    def roots(self, h: int) -> tuple:
        """sqrt(N_k) for the E0^h basis, the one place a root is taken; a
        refusal names the degree and the weight of the element."""
        out = []
        try:
            for x in self.norms(h):
                out.append(self.algebra.field.sqrt(x))
        except TowerInsufficient as exc:
            exc.args = (f"{exc}, in the E0 block of degree {h}, weight "
                        f"{self.E0(h)[len(out)].weight()}",)
            raise
        return tuple(out)

    def orthonormal_basis(self, h: int) -> tuple:
        """The published orthonormal basis of E0^h: e_k = w_k / sqrt(N_k)."""
        return tuple(xi.scale(reciprocal(s))
                     for xi, s in zip(self.E0(h), self.roots(h)))

    def orthonormal(self, m, q: int, p: int):
        """A matrix from E0^p to E0^q in the orthonormal bases.

        ``m`` holds the coefficients over the orthogonal bases, as an
        OperatorMatrix or as dense rows of values or operators; entry (i, j)
        is scaled by sqrt(N^q_i) / sqrt(N^p_j), and the result has the type
        of ``m``.
        An empty matrix, at either end of the complex, is returned as it is.
        """
        rows = m.entries if isinstance(m, OperatorMatrix) else m
        if not rows or not rows[0]:
            return m
        inv = [reciprocal(s) for s in self.roots(p)]
        out = [[x if not x else x.scale(r * c) if type(x) is EnvElement
                else linalg.canonical(x * (r * c)) for x, c in zip(row, inv)]
               for row, r in zip(rows, self.roots(q))]
        if isinstance(m, OperatorMatrix):
            return OperatorMatrix(self.algebra, out, cols=len(inv))
        return out

    def adjoint(self, m: OperatorMatrix, q: int, p: int) -> OperatorMatrix:
        """The adjoint E0^q -> E0^p of m: E0^p -> E0^q, in the orthogonal
        bases: entry (i, j) is (N^q_j / N^p_i) * formal adjoint of m_ji."""
        nq, inv = self.norms(q), [reciprocal(x) for x in self.norms(p)]
        rows, cols = m.shape
        return OperatorMatrix(
            self.algebra,
            [[(u := m.entries[j][i]) and u.formal_adjoint().scale(
                nq[j] * inv[i]) for j in range(rows)]
             for i in range(cols)], cols=rows)

    @cached
    def d0_rank(self, h: int, weight: int) -> int:
        """Rank of d0 on the weight block of degree h."""
        return linalg.rank(self.d0_matrix_block(h, weight)[0])

    def dims(self):
        """dim E0^h = sum_w |dom_w| - rank d0_{h,w} - rank d0_{h-1,w}.

        E0^h is ker d0 intersected with the orthogonal complement of
        im d0_{h-1}, and im d0_{h-1} lies in ker d0_h, so no basis is built.
        """
        for h in range(self.algebra.n + 1):
            self.check_capacity(h, MAX_DIMS_COVECTORS,
                                "the dims are counted over")
        return tuple(
            sum(len(dom) - self.d0_rank(h, w)
                - (self.d0_rank(h - 1, w) if h else 0)
                for w, dom in self._weight_blocks(h).items())
            for h in range(self.algebra.n + 1))

    # -- d0 pseudoinverse ---------------------------------------------------

    @cached
    def d0_pinv_block(self, h: int, weight: int):
        """Sparse rows of the Moore-Penrose inverse of a d0 block (dom x cod)."""
        rows, dom, _ = self.d0_matrix_block(h, weight)
        return linalg.pseudoinverse(rows, len(dom))

    @cached
    def d0_pinv_map(self, h: int) -> CovectorMap:
        """Moore-Penrose inverse of d0 on degree h, as a map of (h+1)-forms."""
        columns: dict = {}
        for w, (_, dom, cod) in self.d0_blocks(h).items():
            pinv = linalg.transpose(self.d0_pinv_block(h, w), len(cod))
            for j_in, col in zip(cod, pinv):
                if col:
                    columns[j_in] = {dom[r]: x for r, x in col.items()}
        return CovectorMap(self.algebra, h + 1, h, columns)

    # -- projections ---------------------------------------------------------

    def pi_E(self, form: OperatorForm) -> OperatorForm:
        """Weight-ascending recursion for the projection onto the subcomplex.

        The input must have all its pure-weight components in E0 (true for
        anything expanded over an intrinsic basis).
        """
        alg = self.algebra
        h = form.degree
        weights = sorted(self._weight_blocks(h))
        if not weights or form.is_zero():
            return form
        top = weights[-1]
        # d0^{-1} in the recursion maps (h+1)-forms back to h-forms
        pinv = self.d0_pinv_map(h)
        result = form.weight_split()
        min_w = min(result)
        for w in range(min_w + 1, top + 1):
            # minus the layer sum, so that d0^{-1} of it is the correction;
            # only the covectors where d0^{-1} has a column are computed
            neg_d = d_terms(alg, [(result[w - ell], (ell,)) for ell in range(
                1, min(alg.kappa, w - min_w) + 1) if w - ell in result],
                pinv.columns, -1)
            if not neg_d:
                continue
            accs: defaultdict = defaultdict(Accumulator)
            for k, u in (result[w].terms if w in result else {}).items():
                add_into(accs[k], u)
            pinv.apply_into(accs, neg_d)
            result[w] = OperatorForm(alg, h, form.slots, terms_of(alg, accs))
        # the weight components have disjoint terms, so they join by union
        return OperatorForm(alg, h, form.slots,
                            {k: u for w in sorted(result)
                             for k, u in result[w].terms.items()})

    def pi_E0(self, form: OperatorForm) -> list:
        """Orthogonal projection coefficients <w_k, form> / N_k over the E0
        basis of the form's degree: one row of EnvElements per basis
        element, one entry per slot."""
        basis, norms = self._basis(form.degree)
        return form.pair_multivectors([xi.scale(reciprocal(x)).terms
                                       for xi, x in zip(basis, norms)])

    # -- intrinsic differential ----------------------------------------------

    def check_capacity(self, h: int, limit: int = MAX_LIFT_COVECTORS,
                       work: str = "a lift is built over"):
        """Refuse degree h before any of its covectors is enumerated:
        ValueError when it is out of range, ResourceLimit when it has more
        than ``limit`` covectors ("more than the {limit} {work}"), naming
        its largest weight block."""
        n = self.algebra.n
        if not 0 <= h <= n:
            raise ValueError(f"degree {h} out of range")
        count = math.comb(n, h)
        if count > limit:
            sizes = _covector_counts(self.algebra.weights, h)
            w = max(sorted(sizes), key=sizes.get)
            raise ResourceLimit(
                f"degree {h} has {count} covectors, more than the {limit} "
                f"{work}; its largest weight block, weight {w}, has "
                f"{sizes[w]}")

    @cached
    def lift(self, h: int) -> OperatorForm:
        """Pi_E of the symbolic basis form of degree h, kept for every degree."""
        self.check_capacity(h)
        return self.pi_E(self.symbolic_basis_form(h))

    @cached
    def dc_matrix(self, h: int) -> OperatorMatrix:
        """Pi_{E0} of d(lift(h)): row i, slot j is entry (i, j).

        d(lift) is computed only on the covectors of the E0^{h+1} basis,
        the only ones Pi_{E0} reads.
        """
        alg = self.algebra
        if not 0 <= h < alg.n:
            return OperatorMatrix.zeros(alg, 0, len(self.E0(h)))
        lifted = self.lift(h)
        src = self.E0(h)
        support = {t for xi in self.E0(h + 1) for t in xi.terms}
        d_lift = OperatorForm(alg, h + 1, lifted.slots, d_terms(
            alg, [(lifted, range(alg.kappa + 1))], support))
        out = OperatorMatrix(alg, self.pi_E0(d_lift), cols=len(src))
        self._check_homogeneity(out, [xi.weight() for xi in self.E0(h + 1)],
                                [xi.weight() for xi in src])
        return out

    @staticmethod
    def _check_homogeneity(m: OperatorMatrix, row_weights, col_weights):
        """Entries at block (q, p) must be homogeneous of degree q - p."""
        for i, row in enumerate(m.entries):
            for j, e in enumerate(row):
                if not e:
                    continue
                expected = row_weights[i] - col_weights[j]
                if e.degrees() != {expected}:
                    raise AssertionError(
                        f"entry ({i},{j}) not homogeneous of degree {expected}: {e}")

    @cached
    def star_matrix(self, h: int):
        """Sparse rows of the Hodge star E0^h -> E0^{n-h} (columns act),
        over the orthogonal bases: entry (i, j) is <w'_i, *w_j> / N'_i.

        SpanMismatch when a star is not rebuilt exactly from its
        coefficients over E0^{n-h}.
        """
        alg = self.algebra
        target = self.E0(alg.n - h)
        inv = [reciprocal(x) for x in self.norms(alg.n - h)]
        cols = []
        for xi in self.E0(h):
            star = xi.star()
            col = {i: linalg.canonical(c * r) for i, (c, r) in enumerate(
                zip((eta.inner(star) for eta in target), inv)) if c}
            if sum((target[i].scale(c) for i, c in col.items()),
                   Form.zero(alg, alg.n - h)) != star:
                raise SpanMismatch(
                    f"star of E0^{h} leaves the span of E0^{alg.n - h}")
            cols.append(col)
        return linalg.transpose(cols, len(target))

    @cached
    def _deltac(self, h: int):
        """(delta_c from the star formula, its sign against the adjoint)."""
        alg = self.algebra
        n = alg.n
        if not 0 < h <= n:
            return OperatorMatrix.zeros(alg, 0, len(self.E0(h))), 1
        sign = -1 if (n * (h + 1) + 1) % 2 else 1
        out = self.dc_matrix(n - h).conjugate(
            self.star_matrix(n - h + 1), self.star_matrix(h),
            len(self.E0(h))).scale(sign)
        alt = self.adjoint(self.dc_matrix(h - 1), h, h - 1)
        return out, 1 if out == alt else -1 if out == -alt else None

    def deltac_star_adjoint_sign(self, h: int):
        """Sign s with delta_c = s * (adjoint of d_c(h-1)), or None.

        delta_c and s are memoized together, so the comparison runs once per
        degree, whichever of this and deltac_matrix is asked first.
        """
        return self._deltac(h)[1]

    def deltac_matrix(self, h: int) -> OperatorMatrix:
        """Codifferential on E0^h via delta_c = (-1)^{n(h+1)+1} * d_c *.

        Raises StarAdjointMismatch unless it equals the adjoint of
        d_c(h-1).
        """
        out, s = self._deltac(h)
        if s != 1:
            alt = self.adjoint(self.dc_matrix(h - 1), h, h - 1)
            diffs = [(i, j) for i, row in enumerate(out.entries)
                     for j, e in enumerate(row) if e != alt.entries[i][j]]
            raise StarAdjointMismatch(
                f"degree {h}: star formula and adjoint transpose "
                f"disagree at entries {diffs}")
        return out

    # -- assembled verification -------------------------------------------------

    def symbolic_basis_form(self, h: int) -> OperatorForm:
        """sum_i alpha_i xi_i^h with one slot per basis element."""
        basis = self.E0(h)
        one = EnvElement.one(self.algebra)
        return OperatorForm(self.algebra, h, len(basis),
                            {(t, i): one.scale(c)
                             for i, xi in enumerate(basis)
                             for t, c in xi.terms.items()})

    def opform_from_rows(self, rows, h: int, slots: int) -> OperatorForm:
        """sum_i (rows[i] applied to slots) xi_i^h."""
        alg = self.algebra
        accs: defaultdict = defaultdict(Accumulator)
        for row, xi in zip(rows, self.E0(h)):
            for slot, u in enumerate(row[:slots]):
                for t, c in xi.terms.items():
                    add_into(accs[t, slot], u, c)
        return OperatorForm(alg, h, slots, terms_of(alg, accs))

    @cached
    def dc_orders(self):
        """The degrees of d_c's entries per degree h < n, a frozenset each:
        one degree where d_c is homogeneous, empty where it is zero."""
        return tuple(m.degrees()
                     for m in map(self.dc_matrix, range(self.algebra.n)))
