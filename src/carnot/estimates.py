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
  sum-space table).  A table holds only the paper's data: its Laplacian
  family and, per row, the degree, the term, the right-hand side, the chain
  of operators the proof composes and the displayed exponent.  The method
  and norm follow from the chain; the kernel type, the derived exponent and
  the values of the documented C2 discrepancy are recomputed from the
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

from collections import namedtuple
from fractions import Fraction
from itertools import permutations, product

from . import linalg
from .env import Accumulator, EnvElement, add_into, collect, mul_into
from .exterior import OperatorForm, multivector
from .laplacians import UnsupportedGroup, homogeneous_dc_orders, target_order
from .rumin import OperatorMatrix, RuminComplex, cached


class OutOfRange(ValueError):
    pass


class DegreeMismatch(ValueError):
    pass


# -- kernel calculus ---------------------------------------------------------


class KernelType(namedtuple("KernelType", "mu Q")):
    __slots__ = ()

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


class ExponentRecord(namedtuple("ExponentRecord", [
        "theorem", "h",
        "term",             # 'f' or 'g'
        "part",             # 'closed'/'coclosed' for the corollary table
        "rhs",              # operator applied to the datum in the norm
        "norm",             # 'H1' on the 'hardy' rows, else 'L1'
        "family", "laplacian_order",
        "chain",            # ((label, order), ...), gradient included
        "method",           # 'cvs' | 'hardy' | 'folland'
        "chain_order",      # excluding the gradient
        "kernel",           # a KernelType
        "derived", "paper", "paper_display", "agree", "window_ok",
        "folland_cited", "discrepancy"], defaults=(None,))):
    __slots__ = ()

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


# The paper's tables by theorem tag, in the order that `carnot exponents`
# offers and `carnot verify` reports them: the Laplacian family, then per
# row (h, term, rhs, chain, k) with the displayed exponent Q/(Q-k).  Chain
# tokens: "d<h>" is d_c on E0^h, "dl<h>" delta_c on E0^h, "A" the A_Delta
# block and "grad" the gradient.  A sixth item holds the keywords of
# _record that the paper sets on some rows only.
THEOREM_TABLES = {
    "H2": ("A", [
        (0, "f", "f", "d0", 1),
        (1, "f", "f", "d1 grad", 3),
        (1, "g", "delta_c d_c g", "dl1 d0 dl1", 3),
        (2, "f", "grad f", "d2 d0 grad", 3),
        (2, "g", "g", "dl2 grad", 3),
        (3, "f", "f", "d3 grad", 3),
        (3, "g", "grad g", "dl3 d0 grad", 3),
        (4, "f", "d_c delta_c f", "d4 dl5 d4", 3),
        (4, "g", "g", "dl4 grad", 3),
        (5, "g", "g", "dl5", 1),
    ]),
    "C2": ("R", [
        (0, "f", "f", "d0", 1),
        (1, "f", "f", "d1 grad", 3),
        (1, "g", "delta_c d_c g", "dl1 d0 dl1", 3),
        (2, "f", "d_c delta_c f", "d2 dl3 d2 grad", 6, {"discrepancy": True}),
        (2, "g", "d_c g", "d1 dl2 grad", 6),
        (3, "f", "delta_c f", "d3 dl4 grad", 6),
        (3, "g", "delta_c d_c g", "dl3 d2 dl3 grad", 6,
         {"discrepancy": True}),
        (4, "f", "d_c delta_c f", "d4 dl5 d4", 3),
        (4, "g", "g", "dl4 grad", 3),
        (5, "g", "g", "dl5", 1),
    ]),
    "H2cor": ("A", [
        (0, "f", "f", "d0", 1, {"part": "coclosed"}),
        (1, "f", "f", "d1 grad", 3, {"part": "coclosed"}),
        (2, "f", "f", "A d2 grad", 2, {"part": "coclosed"}),
        (3, "f", "f", "d3 grad", 3, {"part": "coclosed"}),
        (4, "f", "f", "d4 dl5 d4 dl5 d4 grad", 1,
         {"part": "coclosed", "folland_cited": False}),
        (1, "g", "g", "dl1 d0 dl1 d0 dl1 grad", 1,
         {"part": "closed", "folland_cited": False}),
        (2, "g", "g", "dl2 grad", 3, {"part": "closed"}),
        (3, "g", "g", "A dl3 grad", 2, {"part": "closed"}),
        (4, "g", "g", "dl4 grad", 3, {"part": "closed"}),
        (5, "g", "g", "dl5", 1, {"part": "closed"}),
    ]),
    "H2sum": ("R", [
        (1, "f", "f", "d1 grad", 3),
        (1, "g", "g", "dl1 d0 dl1 d0 dl1", 1),
        (2, "f", "f", "d2 dl3 d2 dl3 d2 grad", 2),
        (2, "g", "g", "dl2 d1 dl2 grad", 3),
        (3, "f", "f", "d3 dl4 d3 grad", 3),
        (3, "g", "g", "dl3 d2 dl3 d2 dl3 grad", 2),
        (4, "f", "f", "d4 dl5 d4 dl5 d4", 1),
        (4, "g", "g", "dl4 grad", 3),
    ]),
}


def _operator(token: str, d_ord) -> tuple:
    """(label, order) of a chain token, from the orders of d_c."""
    if token == "grad":
        return ("grad", 1)
    if token == "A":
        return ("A_Delta", 2)
    if token.startswith("dl"):
        return (f"delta_c^{token[2:]}", d_ord[int(token[2:]) - 1])
    return (f"d_c^{token[1:]}", d_ord[int(token[1:])])


def _discrepancy(r: ExponentRecord) -> dict:
    """Both candidate derivations of a C2 row through delta_c on 3-forms.

    The displayed matrix of that codifferential has order 2, which the
    record's own chain, kernel type and exponent use; the prose reads it as
    third order, one more in the order sum and one less in the kernel type.
    The engine's matrices support the first.
    """
    total = sum(order for _, order in r.chain)
    prose = sobolev_dual_exponent(r.laplacian_order, r.chain_order + 1,
                                  r.kernel.Q)
    return {
        "kind": "documented-discrepancy",
        "topic": "order of delta_c on 3-forms (2 from the matrix, "
                 "3 in the prose)",
        "engine_chain_total": total,
        "engine_kernel_type": r.kernel.mu,
        "engine_exponent": str(r.derived),
        "prose_chain_total": total + 1,
        "prose_kernel_type": r.kernel.mu - 1,
        "prose_ordersum_exponent": str(prose),
    }


def _record(theorem, family, d_ord, Q, h, term, rhs, chain, paper_k,
            part=None, folland_cited=True, discrepancy=False):
    """The record of one table row, everything but the paper's data derived:
    a chain holding the gradient is proved by 'cvs', a single operator by
    'folland' and any other chain by 'hardy', the only method in H1."""
    chain = tuple(_operator(t, d_ord) for t in chain.split())
    total = sum(order for _, order in chain)
    if any(label == "grad" for label, _ in chain):
        method, c = "cvs", total - 1
    else:
        method, c = "folland" if len(chain) == 1 else "hardy", total
    a = target_order(d_ord, family, h)
    kernel = differentiate_type(kernel_type_of_inverse(a, Q), total)
    derived = sobolev_dual_exponent(a, c, Q)
    paper = _exp(Q, paper_k)
    record = ExponentRecord(
        theorem=theorem, h=h, term=term, part=part, rhs=rhs,
        norm="H1" if method == "hardy" else "L1", family=family,
        laplacian_order=a, chain=chain, method=method, chain_order=c,
        kernel=kernel, derived=derived, paper=paper,
        paper_display=f"Q/(Q-{paper_k})", agree=derived == paper,
        window_ok=kernel.in_folland_window, folland_cited=folland_cited)
    if discrepancy:
        record = record._replace(discrepancy=_discrepancy(record))
    return record


@cached
def theorem_table(cx: RuminComplex, tag: str) -> tuple:
    """Exponent records for one of the tables H2, C2, H2cor, H2sum, built
    once per complex."""
    if not cx.algebra.is_cartan_table():
        raise UnsupportedGroup("exponent tables are Cartan-specific")
    if tag not in THEOREM_TABLES:
        raise ValueError(f"unknown table {tag!r}")
    Q = cx.algebra.homogeneous_dimension
    d_ord = homogeneous_dc_orders(cx)
    family, rows = THEOREM_TABLES[tag]
    return tuple(_record(tag, family, d_ord, Q, h, term, rhs, chain, k,
                         **dict(*flags))
                 for h, term, rhs, chain, k, *flags in rows)


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
        """components: {index tuple: {slot: exact value or its text}}."""
        unit = EnvElement.one(alg)
        zero = EnvElement.zero(alg)
        entries = {}
        for idx, per_slot in components.items():
            row = [zero] * slots
            for slot, c in per_slot.items():
                row[slot] = unit.scale(c)
            entries[idx] = row
        return cls(alg, order, slots, entries)

    def is_symmetric(self) -> bool:
        return all(self.entries.get(perm) == row
                   for idx, row in self.entries.items()
                   for perm in permutations(idx))

    def __eq__(self, other):
        if not isinstance(other, HorizontalTensor):
            return NotImplemented
        return (self.algebra is other.algebra and self.order == other.order
                and self.slots == other.slots
                and self.entries == other.entries)

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
    accs = [Accumulator() for _ in range(tensor.slots)]
    for idx, per_slot in tensor.entries.items():
        word = tuple(reversed(idx)) if convention == "cvs" else idx
        w = EnvElement.from_word(alg, word)
        for acc, u in zip(accs, per_slot):
            mul_into(acc, w, u)
    return [collect(alg, acc) for acc in accs]


def _exponents_of_degree(alg, degree: int):
    """All exponent vectors with weighted degree exactly `degree`, in
    lexicographic order."""
    weights = alg.weights
    return [exp for exp in product(*(range(degree // w + 1) for w in weights))
            if sum(e * w for e, w in zip(exp, weights)) == degree]


def check_row_membership(row, dcm: OperatorMatrix):
    """Certificate R with row = R . dc (left module, bounded degree), or None.

    Homogeneity pins the degree of each coefficient: deg(R_i) = deg(row) -
    deg(dc row i).  A negative required degree excludes that row; if every
    row is excluded a DegreeMismatch is raised.
    """
    alg = dcm.algebra
    nrows, ncols = dcm.shape
    if len(row) != ncols:
        raise DegreeMismatch(f"row has {len(row)} slots, dc has {ncols}")
    degs = set().union(*(u.degrees() for u in row))
    if not degs:
        zero = EnvElement.zero(alg)
        return [zero] * nrows
    if len(degs) > 1:
        raise DegreeMismatch(f"row is not homogeneous: degrees {sorted(degs)}")
    row_deg = degs.pop()

    unknowns = []   # (dc row index, exponent vector)
    for i in range(nrows):
        rdegs = set().union(*(u.degrees() for u in dcm.entries[i]))
        if not rdegs:
            continue
        if len(rdegs) > 1:
            raise DegreeMismatch(f"dc row {i} is not homogeneous")
        need = row_deg - rdegs.pop()
        if need < 0:
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
    sol = linalg.solve(columns, flat(row))
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
    indices = list(product(range(1, m1 + 1), repeat=order))
    # normal forms of the divergence words, one per index
    columns = [EnvElement.from_word(
        alg, tuple(reversed(idx)) if convention == "cvs" else idx).terms
        for idx in indices]
    slots = len(target_row)
    components: dict = {}
    for j, target in enumerate(target_row):
        sol = linalg.solve(columns, target.terms)
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
    # each term: its multivector, and the signed generator that multiplies
    # the pairing with it, or the sign alone for a bracket term
    terms = [(multivector([(_drop(z, (i,)), 1)]),
              EnvElement.generator(alg, z[i]).scale(-1 if i % 2 else 1))
             for i in range(len(z))]
    for i in range(len(z)):
        for j in range(i + 1, len(z)):
            vec = alg.bracket_basis(z[i], z[j])
            if vec:
                rest = _drop(z, (i, j))
                terms.append((multivector([((k,) + rest, c)
                                           for k, c in vec.items()]),
                              -1 if (i + j) % 2 else 1))
    accs = [Accumulator() for _ in range(form.slots)]
    inner = form.pair_multivectors([mv for mv, _ in terms])
    for (_, factor), row in zip(terms, inner):
        for acc, u in zip(accs, row):
            if isinstance(factor, int):
                add_into(acc, u, factor)
            else:
                mul_into(acc, factor, u)
    return [collect(alg, acc) for acc in accs]


def direct_pairing(form: OperatorForm, z) -> list:
    """<d_full form, Z-multivector> computed without the Cartan expansion."""
    mv = multivector([(tuple(z), 1)])
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

PAIRING_FIELDS = {1: (4, 1), 2: (5, 1, 3), 3: (1, 3, 4, 5), 4: (1, 2, 3, 4, 5)}


def paper_tensor(cx: RuminComplex, h: int) -> HorizontalTensor:
    """The displayed horizontal tensor attached to closed forms of degree h."""
    if not cx.algebra.is_cartan_table():
        raise UnsupportedGroup("stored tensors are Cartan-specific")
    if h not in _DISPLAY_COMPONENTS:
        raise DegreeMismatch(f"no stored tensor for degree {h}")
    tensor = HorizontalTensor.from_scalar_components(
        cx.algebra, *_DISPLAY_COMPONENTS[h])
    expected_order = homogeneous_dc_orders(cx)[h]
    if tensor.order != expected_order:
        raise DegreeMismatch(
            f"stored tensor order {tensor.order} != d_c order {expected_order}")
    return tensor


def proof_row(cx: RuminComplex, h: int) -> list:
    """The operator row printed in the closed-form rephrasing, normalized:
    the divergence of its words taken in index order."""
    return generalized_divergence(proof_tensor(cx, h, "pierre"), "pierre")


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
            components.setdefault(idx, {})[j] = c
    return HorizontalTensor.from_scalar_components(alg, order, slots, components)


def derived_row(cx: RuminComplex, h: int) -> list:
    """The engine's own vanishing row, in the orthonormal slots: the Cartan
    pairing of the lifted symbolic basis form against the degree-h probe
    multivector, a row from E0^h to E0^0, whose basis 1 has norm 1."""
    row = cartan_pairing(cx, cx.lift(h), PAIRING_FIELDS[h])
    return cx.orthonormal([row], 0, h)[0]


def tensor_findings(cx: RuminComplex, convention: str = "cvs") -> list:
    """Adjudicate the stored tensors degree by degree; machine-readable."""
    findings = []
    for h in (1, 2, 3, 4):
        dcm = cx.orthonormal(cx.dc_matrix(h), h + 1, h)
        display = paper_tensor(cx, h)
        disp_div = generalized_divergence(display, convention)
        disp_cert = check_row_membership(disp_div, dcm)
        prow = proof_row(cx, h)
        prow_cert = check_row_membership(prow, dcm)
        ptensor = proof_tensor(cx, h, convention)
        drow = derived_row(cx, h)
        drow_cert = check_row_membership(drow, dcm)
        rows_match = prow == drow
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
                entry["corrected_roundtrip_exact"] = back == drow
        findings.append(entry)
    return findings
