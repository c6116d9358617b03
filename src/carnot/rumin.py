r"""The intrinsic complex of a stratified group: spaces, projections, matrices.

For each degree h the intrinsic space E0^h = ker d0 /\ ker delta0 is computed
exactly, one weight block at a time, as the nullspace of d0 stacked on the
transpose of the incoming d0, followed by Gram-Schmidt orthonormalization in
the scalar tower.  Basis elements are ordered by increasing weight and, inside
a weight block, by the canonical reduced-row-echelon nullspace order, so the
construction is deterministic.  ``dims`` needs no basis: it is read off the
ranks of the d0 blocks, each computed once.  Every constant scalar matrix (a
d0 block and its pseudoinverse, coordinates, a star matrix, a change of
basis) is a list of sparse ``{column: value}`` rows, the one format of
:mod:`carnot.linalg`, so it is stored and walked by its nonzeros.

The projection Pi_E on the complement of the acyclic part is evaluated by the
weight-ascending recursion

    (Pi_E a)_p       = a
    (Pi_E a)_{p+k+1} = -d0^{-1} ( sum_{1<=l<=k+1} d_l (Pi_E a)_{p+k+1-l} )

where d0^{-1} is the exact Moore-Penrose pseudoinverse of d0 per weight
block; each layer sum is computed only on the covectors where d0^{-1} has a
column.  Each degree's lift, Pi_E applied to the symbolic basis form
sum_i alpha_i xi_i with one function slot per basis element, is computed
once.  The intrinsic differential in the chosen bases is the operator matrix
d_c = Pi_{E0} d Pi_E: d(lift) is computed only on the covectors of the
E0^{h+1} basis, and its projection onto E0^{h+1} has one row per basis
element of E0^{h+1} and one entry per slot.  Pi_E, Pi_{E0} and
the form builders sum in the flat accumulators of :mod:`carnot.env`.  The
codifferential is obtained from the star formula
delta_c = (-1)^{n(h+1)+1} * d_c *, cross-checked once per degree against the
entrywise formal-adjoint transpose.  ``coordinates`` (coefficients over E0^h)
and ``OperatorMatrix.conjugate`` are the one change-of-basis path; a product
with constant matrices on both sides (a star or a change of basis) is a sum
of scaled entries there, with no PBW product.

Every derived object lives in one dict, ``RuminComplex.memo``, filled by the
``cached`` decorator, which :mod:`carnot.laplacians` uses too.  Each degree
keeps its weight blocks, d0 blocks with their ranks and pseudoinverses, E0,
d0^{-1}, lift, d_c, star and delta_c; the Laplacian block powers are large
and read at one degree at a time, so only the degree asked for last keeps
them.
"""

from __future__ import annotations

import functools
import json
import re
from collections import defaultdict

from . import linalg
from .env import (EnvElement, Mixed, ZeroElement, add_into, collect,
                  homogeneity_degrees, matrix_product)
from .exterior import (CovectorMap, Form, OperatorForm, accumulate,
                       covectors, d0_covector, d_terms, terms_of,
                       tuple_weight)
from .scalars import TowerInsufficient


class SpanMismatch(ValueError):
    pass


class StarAdjointMismatch(ValueError):
    pass


class RuminBasis:
    """Orthonormal weight-ordered basis of E0^h."""

    __slots__ = ("degree", "elements", "weights")

    def __init__(self, degree, elements, weights):
        self.degree = degree
        self.elements = elements
        self.weights = weights

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __getitem__(self, i):
        return self.elements[i]

    def __repr__(self):
        return f"RuminBasis(h={self.degree}, dim={len(self)}, weights={self.weights})"


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
        accs = [[{} for _ in range(ncols)] for _ in left]
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
        into every output column whose entry holds X^w.  Both factors are
        scaled exactly to integer coefficients first, and each output
        coefficient is divided by the product of the two denominators once.
        """
        k = self.shape[1]
        k2, n = other.shape
        if k != k2:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        out = matrix_product(self.algebra, self.entries, other.entries, n)
        return OperatorMatrix(self.algebra, out, cols=n)

    def transpose_adjoint(self):
        m, n = self.shape
        return OperatorMatrix(
            self.algebra,
            [[self.entries[j][i].formal_adjoint() for j in range(m)]
             for i in range(n)], cols=m)

    def is_zero(self):
        return all(not e for row in self.entries for e in row)

    def orders(self):
        """Set of homogeneity degrees over the nonzero entries."""
        return homogeneity_degrees(e for row in self.entries for e in row)

    def homogeneous_order(self):
        degs = self.orders()
        if len(degs) == 1:
            return degs.pop()
        if not degs:
            raise ZeroElement("zero matrix has no order")
        return Mixed(degs)

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


def cached(last_degree=False):
    """Memoize a function of a complex, called as fn(cx, *args), in cx.memo.

    ``cx.memo[name]`` maps the positional arguments after ``cx`` to the
    value, under the function's qualified name.  With ``last_degree`` the
    first argument is a degree and only the degree asked for last is kept: a
    call at another degree empties the table before it computes.
    """
    def wrap(fn):
        name = fn.__qualname__

        @functools.wraps(fn)
        def memoized(cx, *args):
            table = cx.memo[name]
            if args not in table:
                if last_degree and table and next(iter(table))[0] != args[0]:
                    table.clear()
                table[args] = fn(cx, *args)
            return table[args]
        return memoized
    return wrap


class RuminComplex:
    """All per-group constructions, cached in ``memo``; immutable once built."""

    def __init__(self, algebra):
        self.algebra = algebra
        self.memo: defaultdict = defaultdict(dict)

    # -- graded pieces ---------------------------------------------------

    @cached()
    def _weight_blocks(self, h: int) -> dict:
        """Degree-h covectors grouped by weight, in ascending weight."""
        out: dict = {}
        for j in covectors(self.algebra, h):
            out.setdefault(tuple_weight(self.algebra, j), []).append(j)
        return dict(sorted(out.items()))

    @cached()
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

    @cached()
    def E0(self, h: int) -> RuminBasis:
        alg = self.algebra
        if not 0 <= h <= alg.n:
            raise ValueError(f"degree {h} out of range")
        elements, weights = [], []
        for w in self._weight_blocks(h):
            rows, dom, _ = self.d0_matrix_block(h, w)
            if h >= 1:
                # transpose of the incoming d0: one constraint per (h-1)-covector
                incoming, before, _ = self.d0_matrix_block(h - 1, w)
                rows = rows + linalg.transpose(incoming, len(before))
            kernel = linalg.nullspace(alg.field, rows, len(dom))
            try:
                ortho = linalg.gram_schmidt(alg.field, kernel)
            except TowerInsufficient as exc:
                exc.args = (f"{exc}, in the E0 block of degree {h}, "
                            f"weight {w}",)
                raise
            for vec in ortho:
                elements.append(Form(alg, h, {dom[i]: vec[i]
                                              for i in sorted(vec)}))
                weights.append(w)
        return RuminBasis(h, elements, tuple(weights))

    @cached()
    def d0_rank(self, h: int, weight: int) -> int:
        """Rank of d0 on the weight block of degree h."""
        return linalg.rank(self.algebra.field,
                           self.d0_matrix_block(h, weight)[0])

    def dims(self):
        """dim E0^h = sum_w |dom_w| - rank d0_{h,w} - rank d0_{h-1,w}.

        E0^h is ker d0 intersected with the orthogonal complement of
        im d0_{h-1}, and im d0_{h-1} lies in ker d0_h, so no basis is built.
        """
        return tuple(
            sum(len(dom) - self.d0_rank(h, w)
                - (self.d0_rank(h - 1, w) if h else 0)
                for w, dom in self._weight_blocks(h).items())
            for h in range(self.algebra.n + 1))

    # -- d0 pseudoinverse ---------------------------------------------------

    @cached()
    def d0_pinv_block(self, h: int, weight: int):
        """Sparse rows of the Moore-Penrose inverse of a d0 block (dom x cod)."""
        rows, dom, _ = self.d0_matrix_block(h, weight)
        return linalg.pseudoinverse(self.algebra.field, rows, len(dom))

    @cached()
    def d0_pinv_map(self, h: int) -> CovectorMap:
        """Moore-Penrose inverse of d0 on degree h, as a map of (h+1)-forms."""
        columns: dict = {}
        for w, (_, dom, cod) in self.d0_blocks(h).items():
            pinv = linalg.transpose(self.d0_pinv_block(h, w), len(cod))
            for j_in, col in zip(cod, pinv):
                if col:
                    columns[j_in] = {dom[r]: x for r, x in col.items()}
        return CovectorMap(self.algebra, h + 1, h, columns)

    def d0_pinv(self, form):
        """Apply d0^{-1}; the input degree selects the block (h+1 -> h)."""
        return self.d0_pinv_map(form.degree - 1).apply(form)

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
            accs: dict = {}
            for k, u in (result[w].terms if w in result else {}).items():
                add_into(accs.setdefault(k, {}), u)
            pinv.apply_into(accs, neg_d)
            result[w] = OperatorForm(alg, h, form.slots, terms_of(alg, accs))
        # the weight components have disjoint terms, so they join by union
        return OperatorForm(alg, h, form.slots,
                            {k: u for w in sorted(result)
                             for k, u in result[w].terms.items()})

    def pi_E0(self, form, h: int | None = None):
        """Orthogonal projection coefficients over the E0 basis.

        Returns a list of Scalars for a Form, or a list of rows of
        EnvElements (one row per basis element, one entry per slot) for an
        OperatorForm.
        """
        if h is None:
            h = form.degree
        basis = self.E0(h)
        if isinstance(form, OperatorForm):
            return form.pair_multivectors([xi.terms for xi in basis])
        return [xi.inner(form) for xi in basis]

    # -- intrinsic differential ----------------------------------------------

    @cached()
    def lift(self, h: int) -> OperatorForm:
        """Pi_E of the symbolic basis form of degree h, kept for every degree."""
        return self.pi_E(self.symbolic_basis_form(h))

    @cached()
    def dc_matrix(self, h: int) -> OperatorMatrix:
        """Pi_{E0} of d(lift(h)): row i, slot j is entry (i, j).

        d(lift) is computed only on the covectors of the E0^{h+1} basis,
        the only ones Pi_{E0} reads.
        """
        alg = self.algebra
        src = self.E0(h)
        if h >= alg.n:
            return OperatorMatrix.zeros(alg, 0, len(src))
        lifted = self.lift(h)
        support = {t for xi in self.E0(h + 1) for t in xi.terms}
        d_lift = OperatorForm(alg, h + 1, lifted.slots, d_terms(
            alg, [(lifted, range(alg.kappa + 1))], support))
        out = OperatorMatrix(alg, self.pi_E0(d_lift, h + 1), cols=len(src))
        self._check_homogeneity(out, self.E0(h + 1).weights, src.weights)
        return out

    @staticmethod
    def _check_homogeneity(m: OperatorMatrix, row_weights, col_weights):
        """Entries at block (q, p) must be homogeneous of degree q - p."""
        for i, row in enumerate(m.entries):
            for j, e in enumerate(row):
                if not e:
                    continue
                expected = row_weights[i] - col_weights[j]
                if e.homogeneity() != expected:
                    raise AssertionError(
                        f"entry ({i},{j}) not homogeneous of degree {expected}: {e}")

    def coordinates(self, h: int, forms) -> list:
        """Exact coefficients of each form over the orthonormal E0^h.

        Sparse row k holds the coefficients of forms[k]; SpanMismatch names
        the first form that the coefficients do not rebuild exactly.
        """
        basis = self.E0(h)
        out = []
        for k, form in enumerate(forms):
            row = {i: c for i, c in enumerate(self.pi_E0(form, h)) if c}
            recon: dict = {}
            for i, c in row.items():
                for t, v in basis[i].terms.items():
                    accumulate(recon, t, c * v)
            if recon != form.terms:
                raise SpanMismatch(f"element {k} is outside the computed span")
            out.append(row)
        return out

    @cached()
    def star_matrix(self, h: int):
        """Sparse rows of the Hodge star E0^h -> E0^{n-h} (columns act)."""
        n = self.algebra.n
        try:
            coords = self.coordinates(n - h, [xi.star() for xi in self.E0(h)])
        except SpanMismatch:
            raise SpanMismatch(
                f"star of E0^{h} leaves the span of E0^{n - h}") from None
        return linalg.transpose(coords, len(self.E0(n - h)))

    @cached()
    def _deltac(self, h: int):
        """(delta_c from the star formula, its sign against the adjoint)."""
        alg = self.algebra
        n, src = alg.n, self.E0(h)
        if h == 0:
            return OperatorMatrix.zeros(alg, 0, len(src)), 1
        sign = -1 if (n * (h + 1) + 1) % 2 else 1
        out = self.dc_matrix(n - h).conjugate(
            self.star_matrix(n - h + 1), self.star_matrix(h),
            len(src)).scale(alg.field(sign))
        alt = self.dc_matrix(h - 1).transpose_adjoint()
        return out, 1 if out == alt else -1 if out == -alt else None

    def deltac_star_adjoint_sign(self, h: int):
        """Sign s with delta_c = s * (adjoint transpose of d_c(h-1)), or None.

        delta_c and s are memoized together, so the comparison runs once per
        degree, whichever of this and deltac_matrix is asked first.
        """
        return self._deltac(h)[1]

    def deltac_matrix(self, h: int) -> OperatorMatrix:
        """Codifferential on E0^h via delta_c = (-1)^{n(h+1)+1} * d_c *.

        Raises StarAdjointMismatch unless it equals the adjoint transpose
        of d_c(h-1).
        """
        out, s = self._deltac(h)
        if s != 1:
            alt = self.dc_matrix(h - 1).transpose_adjoint()
            diffs = [(i, j)
                     for i in range(out.shape[0])
                     for j in range(out.shape[1])
                     if out.entries[i][j] != alt.entries[i][j]]
            raise StarAdjointMismatch(
                f"degree {h}: star formula and adjoint transpose "
                f"disagree at entries {diffs}")
        return out

    # -- basis alignment -------------------------------------------------------

    def align_basis(self, h: int, expected) -> list:
        """Exact orthogonal T with E0(h) . T = expected (column j), as
        sparse rows; T is orthogonal when its inverse is its transpose."""
        size = len(self.E0(h))
        if len(expected) != size:
            raise SpanMismatch(f"{len(expected)} expected vs {size} computed")
        coords = self.coordinates(h, expected)
        t = linalg.transpose(coords, size)
        try:
            orthogonal = linalg.inverse(self.algebra.field, coords) == t
        except ValueError:  # singular
            orthogonal = False
        if not orthogonal:
            raise SpanMismatch("change of basis is not orthogonal")
        return t

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
        accs: dict = {}
        for row, xi in zip(rows, self.E0(h)):
            for slot, u in enumerate(row[:slots]):
                for t, c in xi.terms.items():
                    add_into(accs.setdefault((t, slot), {}), u, c)
        return OperatorForm(alg, h, slots, terms_of(alg, accs))

    def dc_orders(self):
        """Order of d_c per degree h < n: an int, Mixed, or None if zero."""
        return tuple(None if m.is_zero() else m.homogeneous_order()
                     for m in map(self.dc_matrix, range(self.algebra.n)))
