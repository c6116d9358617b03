"""Kernel-order bookkeeping, limiting-exponent tables and divergence tensors.

The analytic content of the div-curl inequalities reduces, at the symbolic
level, to three ingredients that can be machine-checked:

* the calculus of homogeneous kernel types: an inverse of a homogeneous
  operator of order ``a`` is a kernel of type ``a``, horizontal derivatives
  lower the type by their homogeneity, and convolution with a type-``mu``
  kernel shifts Lebesgue exponents by ``mu/Q`` inside the window
  ``0 < mu < Q``;

* the exponent tables of the four estimate families (the ``A``-Laplacian
  table, the ``R``/``G`` table, the closed/co-closed table, and the
  sum-space table), where every derived exponent is recomputed from the
  homogeneity orders of the actual operator matrices;

* the horizontal tensors attached to closed intrinsic forms, their
  generalized divergences under the two index-ordering conventions, exact
  membership certificates against the rows of the intrinsic differential,
  and a small solver that reconstructs a tensor with a prescribed ordered
  divergence.

Published tensor/exponent claims are stored verbatim and adjudicated; when
a stored object fails its identity the report carries the engine's own row
and a corrected tensor instead of silently patching the input.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .env import EnvElement, homogeneity_degrees
from .exterior import OperatorForm, multivector
from .laplacians import UnsupportedGroup, homogeneous_dc_orders, target_order
from .rumin import OperatorMatrix, RuminComplex


class OutOfRange(ValueError):
    pass


class DegreeMismatch(ValueError):
    pass


# -- kernel calculus ---------------------------------------------------------


@dataclass(frozen=True)
class KernelType:
    mu: int
    Q: int

    @property
    def is_l1loc(self) -> bool:
        return self.mu > 0

    @property
    def log_regime(self) -> bool:
        return self.mu >= self.Q

    @property
    def in_folland_window(self) -> bool:
        return 0 < self.mu < self.Q

    def __str__(self):
        tag = " (log-regime)" if self.log_regime else ""
        return f"type {self.mu} on Q={self.Q}{tag}"


def kernel_type_of_inverse(order: int, Q: int) -> KernelType:
    if order <= 0:
        raise OutOfRange(f"operator order must be positive, got {order}")
    return KernelType(order, Q)


def differentiate_type(t: KernelType, d_i: int) -> KernelType:
    return KernelType(t.mu - d_i, t.Q)


def folland_map(p, t: KernelType) -> Fraction:
    """q with 1/q = 1/p - mu/Q, valid for 0 < mu < Q and 1 < p < Q/mu."""
    p = Fraction(p)
    if not t.in_folland_window:
        raise OutOfRange(f"kernel {t} outside the window 0 < mu < Q")
    if not 1 < p < Fraction(t.Q, t.mu):
        raise OutOfRange(f"p={p} outside (1, Q/mu)")
    return 1 / (1 / p - Fraction(t.mu, t.Q))


def sobolev_dual_exponent(a: int, c: int, Q: int) -> Fraction:
    """Q/(Q-(a-c)): the dual of the pairing exponent L^{Q/(a-c)}."""
    k = a - c
    if not 0 < k < Q:
        raise OutOfRange(f"a-c={k} outside (0, Q)")
    return Fraction(Q, Q - k)


# -- exponent tables -----------------------------------------------------------


@dataclass
class ExponentRecord:
    theorem: str
    h: int
    term: str                      # 'f' or 'g'
    part: str | None               # 'closed'/'coclosed' for the corollary table
    rhs: str                       # operator applied to the datum in the norm
    norm: str                      # 'L1' or 'H1'
    family: str
    laplacian_order: int
    chain: tuple                   # ((label, order), ...), gradient included
    uses_gradient: bool
    method: str                    # 'cvs' | 'hardy' | 'folland'
    chain_order: int               # excluding the gradient
    kernel: KernelType
    derived: Fraction
    paper: Fraction
    paper_display: str
    agree: bool
    window_ok: bool
    folland_cited: bool
    discrepancy: dict | None = None

    def to_json(self) -> dict:
        out = {
            "theorem": self.theorem, "h": self.h, "term": self.term,
            "rhs": self.rhs, "norm": self.norm, "family": self.family,
            "laplacian_order": self.laplacian_order,
            "chain": [[label, order] for label, order in self.chain],
            "method": self.method, "chain_order": self.chain_order,
            "kernel_type": self.kernel.mu,
            "derived": str(self.derived), "paper": self.paper_display,
            "agree": self.agree, "window_ok": self.window_ok,
        }
        if self.part:
            out["part"] = self.part
        if self.discrepancy:
            out["discrepancy"] = self.discrepancy
        return out


def _exp(Q: int, k: int) -> Fraction:
    return Fraction(Q, Q - k)


def theorem_table(cx: RuminComplex, tag: str) -> list:
    """Exponent records for one of the tables H2, C2, H2cor, H2sum."""
    if not cx.algebra.is_cartan_table():
        raise UnsupportedGroup("exponent tables are Cartan-specific")
    if tag not in ("H2", "C2", "H2cor", "H2sum"):
        raise ValueError(f"unknown table {tag!r}")
    Q = cx.algebra.homogeneous_dimension
    d_ord = homogeneous_dc_orders(cx)

    def dl_ord(k):     # delta_c on E0^k
        return d_ord[k - 1]

    def resolve(token):
        kind = token[0]
        if kind == "d":
            return (f"d_c^{token[1]}", d_ord[token[1]])
        if kind == "dl":
            return (f"delta_c^{token[1]}", dl_ord(token[1]))
        if kind == "A":
            return ("A_Delta", 2)
        if kind == "grad":
            return ("grad", 1)
        raise ValueError(token)

    def row(theorem, h, term, rhs, norm, family, tokens, method,
            paper_k, part=None, folland_cited=True, discrepancy=None):
        chain = tuple(resolve(t) for t in tokens)
        uses_grad = any(lbl == "grad" for lbl, _ in chain)
        total = sum(o for _, o in chain)
        c = total - (1 if uses_grad else 0)
        a = target_order(d_ord, family, h)
        kernel = differentiate_type(kernel_type_of_inverse(a, Q), total)
        derived = sobolev_dual_exponent(a, c, Q)
        paper = _exp(Q, paper_k)
        return ExponentRecord(
            theorem=theorem, h=h, term=term, part=part, rhs=rhs, norm=norm,
            family=family, laplacian_order=a, chain=chain,
            uses_gradient=uses_grad, method=method, chain_order=c,
            kernel=kernel, derived=derived, paper=paper,
            paper_display=f"Q/(Q-{paper_k})", agree=derived == paper,
            window_ok=kernel.in_folland_window, folland_cited=folland_cited,
            discrepancy=discrepancy)

    def delta3_discrepancy(chain_tokens):
        """Both candidate derivations for the degree-2/3 rows of table C2.

        The displayed matrix of delta_c on 3-forms is homogeneous of
        degree 2, which gives a total chain order d(I) = 7, a type-5
        kernel, and the displayed exponent Q/(Q-6).  Reading that
        codifferential as third order instead (as the accompanying prose
        does) makes the order sum 8, the kernel type 4, and the exponent
        Q/(Q-5).  Both values are reported; the engine's matrices support
        the first.
        """
        total = sum(resolve(t)[1] for t in chain_tokens)
        return {
            "kind": "documented-discrepancy",
            "topic": "order of delta_c on 3-forms (2 from the matrix, "
                     "3 in the prose)",
            "engine_chain_total": total,
            "engine_kernel_type": 12 - total,
            "engine_exponent": str(_exp(Q, 12 - total + 1)),
            "prose_chain_total": total + 1,
            "prose_kernel_type": 12 - total - 1,
            "prose_ordersum_exponent": str(_exp(Q, 12 - total)),
        }

    rows: list = []
    if tag == "H2":
        rows = [
            row("H2", 0, "f", "f", "L1", "A", [("d", 0)], "folland", 1),
            row("H2", 1, "f", "f", "L1", "A",
                [("d", 1), ("grad",)], "cvs", 3),
            row("H2", 1, "g", "delta_c d_c g", "H1", "A",
                [("dl", 1), ("d", 0), ("dl", 1)], "hardy", 3),
            row("H2", 2, "f", "grad f", "L1", "A",
                [("d", 2), ("d", 0), ("grad",)], "cvs", 3),
            row("H2", 2, "g", "g", "L1", "A",
                [("dl", 2), ("grad",)], "cvs", 3),
            row("H2", 3, "f", "f", "L1", "A",
                [("d", 3), ("grad",)], "cvs", 3),
            row("H2", 3, "g", "grad g", "L1", "A",
                [("dl", 3), ("d", 0), ("grad",)], "cvs", 3),
            row("H2", 4, "f", "d_c delta_c f", "H1", "A",
                [("d", 4), ("dl", 5), ("d", 4)], "hardy", 3),
            row("H2", 4, "g", "g", "L1", "A",
                [("dl", 4), ("grad",)], "cvs", 3),
            row("H2", 5, "g", "g", "L1", "A", [("dl", 5)], "folland", 1),
        ]
    elif tag == "C2":
        c2f2 = [("d", 2), ("dl", 3), ("d", 2), ("grad",)]
        c2g3 = [("dl", 3), ("d", 2), ("dl", 3), ("grad",)]
        rows = [
            row("C2", 0, "f", "f", "L1", "R", [("d", 0)], "folland", 1),
            row("C2", 1, "f", "f", "L1", "R",
                [("d", 1), ("grad",)], "cvs", 3),
            row("C2", 1, "g", "delta_c d_c g", "H1", "R",
                [("dl", 1), ("d", 0), ("dl", 1)], "hardy", 3),
            row("C2", 2, "f", "d_c delta_c f", "L1", "R", c2f2, "cvs", 6,
                discrepancy=delta3_discrepancy(c2f2)),
            row("C2", 2, "g", "d_c g", "L1", "R",
                [("d", 1), ("dl", 2), ("grad",)], "cvs", 6),
            row("C2", 3, "f", "delta_c f", "L1", "R",
                [("d", 3), ("dl", 4), ("grad",)], "cvs", 6),
            row("C2", 3, "g", "delta_c d_c g", "L1", "R", c2g3, "cvs", 6,
                discrepancy=delta3_discrepancy(c2g3)),
            row("C2", 4, "f", "d_c delta_c f", "H1", "R",
                [("d", 4), ("dl", 5), ("d", 4)], "hardy", 3),
            row("C2", 4, "g", "g", "L1", "R",
                [("dl", 4), ("grad",)], "cvs", 3),
            row("C2", 5, "g", "g", "L1", "R", [("dl", 5)], "folland", 1),
        ]
    elif tag == "H2cor":
        rows = [
            row("H2cor", 0, "f", "f", "L1", "A", [("d", 0)],
                "folland", 1, part="coclosed"),
            row("H2cor", 1, "f", "f", "L1", "A",
                [("d", 1), ("grad",)], "cvs", 3, part="coclosed"),
            row("H2cor", 2, "f", "f", "L1", "A",
                [("A",), ("d", 2), ("grad",)], "cvs", 2, part="coclosed"),
            row("H2cor", 3, "f", "f", "L1", "A",
                [("d", 3), ("grad",)], "cvs", 3, part="coclosed"),
            row("H2cor", 4, "f", "f", "L1", "A",
                [("d", 4), ("dl", 5), ("d", 4), ("dl", 5), ("d", 4),
                 ("grad",)], "cvs", 1, part="coclosed", folland_cited=False),
            row("H2cor", 1, "g", "g", "L1", "A",
                [("dl", 1), ("d", 0), ("dl", 1), ("d", 0), ("dl", 1),
                 ("grad",)], "cvs", 1, part="closed", folland_cited=False),
            row("H2cor", 2, "g", "g", "L1", "A",
                [("dl", 2), ("grad",)], "cvs", 3, part="closed"),
            row("H2cor", 3, "g", "g", "L1", "A",
                [("A",), ("dl", 3), ("grad",)], "cvs", 2, part="closed"),
            row("H2cor", 4, "g", "g", "L1", "A",
                [("dl", 4), ("grad",)], "cvs", 3, part="closed"),
            row("H2cor", 5, "g", "g", "L1", "A", [("dl", 5)],
                "folland", 1, part="closed"),
        ]
    else:  # H2sum
        rows = [
            row("H2sum", 1, "f", "f", "L1", "R",
                [("d", 1), ("grad",)], "cvs", 3),
            row("H2sum", 1, "g", "g", "H1", "R",
                [("dl", 1), ("d", 0), ("dl", 1), ("d", 0), ("dl", 1)],
                "hardy", 1),
            row("H2sum", 2, "f", "f", "L1", "R",
                [("d", 2), ("dl", 3), ("d", 2), ("dl", 3), ("d", 2),
                 ("grad",)], "cvs", 2),
            row("H2sum", 2, "g", "g", "L1", "R",
                [("dl", 2), ("d", 1), ("dl", 2), ("grad",)], "cvs", 3),
            row("H2sum", 3, "f", "f", "L1", "R",
                [("d", 3), ("dl", 4), ("d", 3), ("grad",)], "cvs", 3),
            row("H2sum", 3, "g", "g", "L1", "R",
                [("dl", 3), ("d", 2), ("dl", 3), ("d", 2), ("dl", 3),
                 ("grad",)], "cvs", 2),
            row("H2sum", 4, "f", "f", "H1", "R",
                [("d", 4), ("dl", 5), ("d", 4), ("dl", 5), ("d", 4)],
                "hardy", 1),
            row("H2sum", 4, "g", "g", "L1", "R",
                [("dl", 4), ("grad",)], "cvs", 3),
        ]
    return rows


SUM_SPACE_PAIRS = {1: (3, 1), 2: (3, 2), 3: (3, 2), 4: (3, 1)}
SUM_SPACE_DUALITY_NOTE = "(L^{p,q})* = L^{p'} + L^{q'}"


def sum_space_pairs(cx: RuminComplex) -> dict:
    """Sum-space exponent pairs per degree, derived and stated."""
    Q = cx.algebra.homogeneous_dimension
    rows = theorem_table(cx, "H2sum")
    out = {}
    for h, (k1, k2) in SUM_SPACE_PAIRS.items():
        derived = {r.derived for r in rows if r.h == h}
        paper = {_exp(Q, k1), _exp(Q, k2)}
        out[h] = {
            "paper_display": f"L^{{Q/(Q-{k1})}}+L^{{Q/(Q-{k2})}}",
            "paper": [str(x) for x in sorted(paper)],
            "derived": [str(x) for x in sorted(derived)],
            "agree": derived == paper,
            "duality_note": SUM_SPACE_DUALITY_NOTE,
        }
    return out


# -- horizontal tensors and generalized divergence ------------------------------


class HorizontalTensor:
    """Order-k tensor over the horizontal layer with operator-row entries.

    entries: {index tuple in {1..m1}^k: tuple of EnvElements, one per slot}.
    """

    __slots__ = ("algebra", "order", "slots", "entries")

    def __init__(self, algebra, order: int, slots: int, entries: dict):
        self.algebra = algebra
        self.order = order
        self.slots = slots
        m1 = algebra.layer_dims[0]
        clean = {}
        for idx, row in entries.items():
            idx = tuple(idx)
            if len(idx) != order or any(not 1 <= i <= m1 for i in idx):
                raise DegreeMismatch(f"bad horizontal index {idx}")
            row = tuple(row)
            if len(row) != slots:
                raise DegreeMismatch(f"row for {idx} has {len(row)} slots")
            if any(row):
                clean[idx] = row
        self.entries = clean

    @classmethod
    def from_scalar_components(cls, alg, order, slots, components: dict):
        """components: {index tuple: {slot: scalar-like}}."""
        unit = EnvElement.one(alg)
        zero = EnvElement.zero(alg)
        entries = {}
        for idx, per_slot in components.items():
            row = [zero] * slots
            for slot, c in per_slot.items():
                row[slot] = unit.scale(alg.field(c))
            entries[idx] = row
        return cls(alg, order, slots, entries)

    def is_symmetric(self) -> bool:
        from itertools import permutations
        for idx, row in self.entries.items():
            for perm in permutations(idx):
                other = self.entries.get(tuple(perm))
                if other is None or any(a != b for a, b in zip(row, other)):
                    return False
        return True

    def __eq__(self, other):
        if not isinstance(other, HorizontalTensor):
            return NotImplemented
        return self.order == other.order and self.entries == other.entries

    def render(self) -> str:
        if not self.entries:
            return "0"
        parts = []
        for idx in sorted(self.entries):
            row = self.entries[idx]
            name = "(x)".join(f"X{i}" for i in idx)
            coeffs = ", ".join(f"a{j + 1}: {u.render()}"
                               for j, u in enumerate(row) if u)
            parts.append(f"{name}[{coeffs}]")
        return " + ".join(parts)

    def to_json(self) -> dict:
        return {"order": self.order, "slots": self.slots,
                "entries": [{"index": list(idx),
                             "coeffs": [u.render() for u in row]}
                            for idx, row in sorted(self.entries.items())]}

    def __repr__(self):
        return f"HorizontalTensor(order={self.order}, {self.render()})"


def generalized_divergence(tensor: HorizontalTensor,
                           convention: str = "cvs") -> list:
    """The ordered horizontal divergence as an operator row over the slots.

    'cvs' applies the derivatives in reversed index order
    (X_{i_k} ... X_{i_1} F_{i_1...i_k}); 'pierre' applies them in index
    order.  The two differ on noncommutative groups.
    """
    if convention not in ("cvs", "pierre"):
        raise ValueError(f"unknown convention {convention!r}")
    alg = tensor.algebra
    row = [EnvElement.zero(alg) for _ in range(tensor.slots)]
    for idx, per_slot in tensor.entries.items():
        word = tuple(reversed(idx)) if convention == "cvs" else idx
        w = EnvElement.from_word(alg, word)
        for j, u in enumerate(per_slot):
            if u:
                row[j] = row[j] + w * u
    return row


def _exponents_of_degree(alg, degree: int):
    """All exponent vectors with weighted degree exactly `degree`."""
    weights = alg.weights
    out = []

    def rec(pos, remaining, acc):
        if pos == alg.n:
            if remaining == 0:
                out.append(tuple(acc))
            return
        w = weights[pos]
        for e in range(remaining // w + 1):
            rec(pos + 1, remaining - e * w, acc + [e])

    rec(0, degree, [])
    return out


def check_row_membership(row, dcm: OperatorMatrix,
                         coeff_degree_bound: int | None = None):
    """Certificate R with row = R . dc (left module, bounded degree), or None.

    Homogeneity pins the degree of each coefficient: deg(R_i) = deg(row) -
    deg(dc row i).  A negative required degree excludes that row; if every
    row is excluded a DegreeMismatch is raised.
    """
    alg = dcm.algebra
    nrows, ncols = dcm.shape
    if len(row) != ncols:
        raise DegreeMismatch(f"row has {len(row)} slots, dc has {ncols}")
    degs = homogeneity_degrees(row)
    if not degs:
        zero = EnvElement.zero(alg)
        return [zero] * nrows
    if len(degs) > 1:
        raise DegreeMismatch(f"row is not homogeneous: degrees {sorted(degs)}")
    row_deg = degs.pop()

    unknowns = []   # (dc row index, exponent vector)
    for i in range(nrows):
        rdegs = homogeneity_degrees(dcm.entries[i])
        if not rdegs:
            continue
        if len(rdegs) > 1:
            raise DegreeMismatch(f"dc row {i} is not homogeneous")
        need = row_deg - rdegs.pop()
        if need < 0:
            continue
        if coeff_degree_bound is not None and need > coeff_degree_bound:
            continue
        for exp in _exponents_of_degree(alg, need):
            unknowns.append((i, exp))
    if not unknowns:
        raise DegreeMismatch("no admissible coefficient degrees")

    def flat(elements):
        """{(slot, monomial): coeff} of a row of EnvElements."""
        return {(j, mono): c for j, u in enumerate(elements)
                for mono, c in u.terms.items()}

    columns = [flat(EnvElement.monomial(alg, exp) * u for u in dcm.entries[i])
               for i, exp in unknowns]
    sol = linalg.solve(alg.field, columns, flat(row))
    if sol is None:
        return None
    cert = [EnvElement.zero(alg) for _ in range(nrows)]
    for (i, exp), lam in zip(unknowns, sol):
        if lam:
            cert[i] = cert[i] + EnvElement.monomial(alg, exp, lam)
    return cert


def solve_divergence_tensor(alg, target_row, order: int,
                            convention: str = "cvs"):
    """Tensor with scalar slot coefficients whose ordered divergence is
    `target_row`, or None.  Solves the 2^k-unknown exact linear system
    slot by slot."""
    m1 = alg.layer_dims[0]
    from itertools import product as iproduct

    indices = list(iproduct(range(1, m1 + 1), repeat=order))
    # normal forms of the divergence words, one per index
    columns = [EnvElement.from_word(
        alg, tuple(reversed(idx)) if convention == "cvs" else idx).terms
        for idx in indices]
    slots = len(target_row)
    components: dict = {}
    for j, target in enumerate(target_row):
        sol = linalg.solve(alg.field, columns, target.terms)
        if sol is None:
            return None
        for col, idx in enumerate(indices):
            if sol[col]:
                components.setdefault(idx, {})[j] = sol[col]
    return HorizontalTensor.from_scalar_components(
        alg, order, slots, components)


# -- Cartan-formula pairing -------------------------------------------------------


def _drop(z, skip):
    return tuple(v for t, v in enumerate(z) if t not in skip)


def cartan_pairing(cx: RuminComplex, form: OperatorForm, z) -> list:
    """<d form, Z_0 ^ ... ^ Z_h> expanded by the classical formula.

    z is a list of h+1 basis indices (h = form degree).  Returns one
    EnvElement per slot.  Identical, term by term after normalization,
    to pairing d_full(form) with the multivector directly.
    """
    alg = cx.algebra
    z = tuple(z)
    if len(z) != form.degree + 1:
        raise DegreeMismatch(
            f"need {form.degree + 1} fields for a degree-{form.degree} form")
    row = [EnvElement.zero(alg) for _ in range(form.slots)]
    for i in range(len(z)):
        rest = _drop(z, (i,))
        mv = multivector(alg, [(rest, 1)])
        inner = form.pair_multivector(mv)
        sign = -1 if i % 2 else 1
        gen = EnvElement.generator(alg, z[i])
        for j, u in enumerate(inner):
            if u:
                row[j] = row[j] + (gen * u).scale(sign)
    for i in range(len(z)):
        for j in range(i + 1, len(z)):
            vec = alg.bracket_basis(z[i], z[j])
            if not vec:
                continue
            rest = _drop(z, (i, j))
            sign = -1 if (i + j) % 2 else 1
            mv = multivector(alg, [((k,) + rest, c) for k, c in vec.items()])
            inner = form.pair_multivector(mv)
            for s, u in enumerate(inner):
                if u:
                    row[s] = row[s] + u.scale(sign)
    return row


def direct_pairing(form: OperatorForm, z) -> list:
    """<d_full form, Z-multivector> computed without the Cartan expansion."""
    alg = form.algebra
    mv = multivector(alg, [(tuple(z), 1)])
    return form.d_full().pair_multivector(mv)


# -- stored tensors of the closed-form rephrasing ----------------------------------

# Proof operator rows: printed word combinations, kept as words so the
# associated tensors retain their index structure.
_PROOF_WORDS = {
    1: [{(1, 1, 2): "3", (2, 1, 1): "1", (1, 2, 1): "-3"},
        {(1, 1, 1): "-1"}],
    2: [{(2, 2): "1/2"},
        {(1, 2): "-5/(2*sqrt(2))", (2, 1): "1/sqrt(2)"},
        {(1, 1): "3/2"}],
    3: [{(1, 2, 2): "3", (2, 2, 1): "1", (2, 1, 2): "-3"},
        {(1, 2, 1): "-2*sqrt(2)", (2, 1, 1): "sqrt(2)"},
        {(1, 1, 1): "1"}],
    4: [{(2,): "-1"}, {(1,): "1"}],
}

# Displayed tensors: the h=1 and h=3 ones are printed in symmetrized form.
_DISPLAY_COMPONENTS = {
    1: (3, 2, {(1, 1, 2): {0: "1/3"}, (1, 2, 1): {0: "1/3"},
               (2, 1, 1): {0: "1/3"}, (1, 1, 1): {1: "-1"}}),
    2: (2, 3, {(1, 1): {2: "3/2"}, (2, 2): {0: "1/2"},
               (1, 2): {1: "-5/(2*sqrt(2))"}, (2, 1): {1: "1/sqrt(2)"}}),
    3: (3, 3, {(1, 2, 2): {0: "1/3"}, (2, 1, 2): {0: "1/3"},
               (2, 2, 1): {0: "1/3"},
               (1, 1, 2): {1: "-sqrt(2)/3"}, (1, 2, 1): {1: "-sqrt(2)/3"},
               (2, 1, 1): {1: "-sqrt(2)/3"},
               (1, 1, 1): {2: "1"}}),
    4: (1, 2, {(1,): {1: "1"}, (2,): {0: "-1"}}),
}

_PAIRING_FIELDS = {1: (4, 1), 2: (5, 1, 3), 3: (1, 3, 4, 5), 4: (1, 2, 3, 4, 5)}


def _parse_components(alg, spec):
    order, slots, comp = spec
    parsed = {idx: {slot: alg.field.parse(c) for slot, c in per.items()}
              for idx, per in comp.items()}
    return HorizontalTensor.from_scalar_components(alg, order, slots, parsed)


def paper_tensor(cx: RuminComplex, h: int) -> HorizontalTensor:
    """The displayed horizontal tensor attached to closed forms of degree h."""
    if not cx.algebra.is_cartan_table():
        raise UnsupportedGroup("stored tensors are Cartan-specific")
    if h not in _DISPLAY_COMPONENTS:
        raise DegreeMismatch(f"no stored tensor for degree {h}")
    tensor = _parse_components(cx.algebra, _DISPLAY_COMPONENTS[h])
    expected_order = homogeneous_dc_orders(cx)[h]
    if tensor.order != expected_order:
        raise DegreeMismatch(
            f"stored tensor order {tensor.order} != d_c order {expected_order}")
    return tensor


def proof_row(cx: RuminComplex, h: int) -> list:
    """The operator row printed in the closed-form rephrasing, normalized."""
    alg = cx.algebra
    rows = []
    for words in _PROOF_WORDS[h]:
        acc = EnvElement.zero(alg)
        for word, c in words.items():
            acc = acc + EnvElement.from_word(alg, word, alg.field.parse(c))
        rows.append(acc)
    return rows


def proof_tensor(cx: RuminComplex, h: int,
                 convention: str = "cvs") -> HorizontalTensor:
    """Tensor whose ordered divergence under `convention` reproduces the
    printed operator row (index order adapted to the convention)."""
    alg = cx.algebra
    slots = len(_PROOF_WORDS[h])
    order = len(next(iter(_PROOF_WORDS[h][0])))
    components: dict = {}
    for j, words in enumerate(_PROOF_WORDS[h]):
        for word, c in words.items():
            idx = tuple(reversed(word)) if convention == "cvs" else word
            components.setdefault(idx, {})[j] = alg.field.parse(c)
    return HorizontalTensor.from_scalar_components(alg, order, slots, components)


def derived_row(cx: RuminComplex, h: int) -> list:
    """The engine's own vanishing row: the Cartan pairing of the lifted
    symbolic basis form against the degree-h probe multivector."""
    return cartan_pairing(cx, cx.lift(h), _PAIRING_FIELDS[h])


def _rows_equal(a, b) -> bool:
    return len(a) == len(b) and all(x == y for x, y in zip(a, b))


def tensor_findings(cx: RuminComplex, convention: str = "cvs") -> list:
    """Adjudicate the stored tensors degree by degree; machine-readable."""
    findings = []
    for h in (1, 2, 3, 4):
        dcm = cx.dc_matrix(h)
        display = paper_tensor(cx, h)
        disp_div = generalized_divergence(display, convention)
        disp_cert = check_row_membership(disp_div, dcm)
        prow = proof_row(cx, h)
        prow_cert = check_row_membership(prow, dcm)
        ptensor = proof_tensor(cx, h, convention)
        drow = derived_row(cx, h)
        drow_cert = check_row_membership(drow, dcm)
        rows_match = _rows_equal(prow, drow)
        entry = {
            "check": f"pierre-h{h}-tensor",
            "convention": convention,
            "tensor_order": display.order,
            "display_tensor": display.to_json(),
            "display_symmetric": display.is_symmetric(),
            "display_divergence": [e.render() for e in disp_div],
            "certificate": None if disp_cert is None
            else [e.render() for e in disp_cert],
            "paper_row": [e.render() for e in prow],
            "paper_row_certificate": None if prow_cert is None
            else [e.render() for e in prow_cert],
            "proof_tensor": ptensor.to_json(),
            "derived_row": [e.render() for e in drow],
            "derived_row_certificate": None if drow_cert is None
            else [e.render() for e in drow_cert],
            "paper_row_matches_derived": rows_match,
        }
        ok = disp_cert is not None and rows_match
        entry["status"] = "certified" if ok else "mismatch"
        if disp_cert is None:
            corrected = solve_divergence_tensor(
                cx.algebra, drow, display.order, convention)
            entry["corrected_tensor"] = None if corrected is None \
                else corrected.to_json()
            if corrected is not None:
                back = generalized_divergence(corrected, convention)
                entry["corrected_roundtrip_exact"] = _rows_equal(back, drow)
        findings.append(entry)
    return findings
