"""Exterior algebra over the dual basis with the dilation-weight grading.

Basis covectors theta_{i1} ^ ... ^ theta_{ih} are stored as strictly
increasing index tuples and are orthonormal for the fixed inner product;
the positive volume form is theta_1 ^ ... ^ theta_n, and all Hodge-star
signs follow from it.

Two kinds of forms appear:

* :class:`Form` - constant (left-invariant) coefficients, used for bases
  of the intrinsic spaces and for star/weight computations;
* :class:`OperatorForm` - coefficients are :class:`EnvElement` operators
  applied to symbolic function slots, which is what the exterior
  differential and its layer pieces act on.

The exterior differential splits as d = d0 + d1 + ... + d_kappa, where d0
is the purely algebraic Maurer-Cartan part (dtheta_k = -sum c^k_ij
theta_i ^ theta_j, weight preserving) and d_l adds one derivative along
the l-th layer, raising the weight by l.

``d_terms`` computes a derivative only on the output covectors it is
given: ``d0`` and ``d_full`` give it every covector, and the
Rumin layer only those it reads.  The OperatorForm builders (``d_terms``,
``pair_multivectors`` and ``CovectorMap.apply_into``) hand
EnvElements and exact values to the accumulators of :mod:`carnot.env`, one per
output key (``add_into``, ``mul_into``), and ``terms_of`` collects each
output operator once: summing EnvElements term by term would copy the
partial sum for every term.  The accumulators keep the denominators.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import combinations

from . import _expr
from .env import Accumulator, EnvElement, add_into, collect, mul_into
from .liealg import StratifiedLieAlgebra
from .linalg import accumulate, add_scaled, canonical
from .scalars import exact


def covectors(alg, h: int):
    """The lexicographically ordered basis of degree-h covectors."""
    return [tuple(c) for c in combinations(range(1, alg.n + 1), h)]


def tuple_weight(alg, t) -> int:
    return sum(alg.weight(i) for i in t)


def merge_wedge(a: tuple, b: tuple):
    """Merge two increasing tuples; returns (sign, merged) or (0, None)."""
    if set(a) & set(b):
        return 0, None
    sign = 1
    for x in a:
        for y in b:
            if x > y:
                sign = -sign
    return sign, tuple(sorted(a + b))


def sort_sign(seq):
    """(sign, sorted tuple) of an index sequence, or (0, None) on repeats."""
    if len(set(seq)) != len(seq):
        return 0, None
    sign = 1
    items = list(seq)
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            if items[i] > items[j]:
                sign = -sign
    return sign, tuple(sorted(items))


def star_tuple(alg, j: tuple):
    """Complement tuple and sign with respect to the volume orientation."""
    comp = tuple(i for i in range(1, alg.n + 1) if i not in j)
    sign = 1
    for x in j:
        for y in comp:
            if x > y:
                sign = -sign
    return sign, comp


def _dtheta(alg: StratifiedLieAlgebra):
    """dtheta_k = -sum_{i<j} c^k_{ij} theta_i ^ theta_j, cached."""
    if alg._dtheta_cache is None:
        table = [dict() for _ in range(alg.n + 1)]
        for (i, j), vec in alg.brackets.items():
            for k, c in vec.items():
                table[k][(i, j)] = -c
        alg._dtheta_cache = table
    return alg._dtheta_cache


def d0_covector(alg, j: tuple) -> dict:
    """d0(theta_J) as {covector: value}, by the graded Leibniz rule."""
    table = _dtheta(alg)
    out: dict = {}
    for t, idx in enumerate(j):
        rest = j[:t] + j[t + 1:]
        sign_t = -1 if t % 2 else 1
        for (a, b), c in table[idx].items():
            s, merged = merge_wedge((a, b), rest)
            if not s:
                continue
            accumulate(out, merged, c * (sign_t * s))
    return out


class Form:
    """Constant-coefficient form; terms map covector tuples to values."""

    __slots__ = ("algebra", "degree", "terms")

    def __init__(self, algebra, degree: int, terms: dict):
        self.algebra = algebra
        self.degree = degree
        self.terms = {t: canonical(c) for t, c in terms.items() if c}

    @classmethod
    def zero(cls, alg, degree):
        return cls(alg, degree, {})

    @classmethod
    def basis(cls, alg, j, coeff=1):
        j = tuple(j)
        return cls(alg, len(j), {j: exact(coeff)})

    def __add__(self, other):
        terms = dict(self.terms)
        add_scaled(terms, 1, other.terms)
        return Form(self.algebra, self.degree, terms)

    def __neg__(self):
        return Form(self.algebra, self.degree,
                    {t: -c for t, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, coeff):
        c = exact(coeff)
        return Form(self.algebra, self.degree,
                    {t: c * v for t, v in self.terms.items()})

    def __mul__(self, coeff):
        return self.scale(coeff)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        return (self.algebra is other.algebra and self.degree == other.degree
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.degree, frozenset(self.terms.items())))

    def is_zero(self):
        return not self.terms

    def wedge(self, other: "Form") -> "Form":
        if self.degree + other.degree > self.algebra.n:
            raise DegreeOverflow(self.degree, other.degree)
        out: dict = {}
        for t1, c1 in self.terms.items():
            for t2, c2 in other.terms.items():
                s, merged = merge_wedge(t1, t2)
                if not s:
                    continue
                accumulate(out, merged, c1 * c2 * s)
        return Form(self.algebra, self.degree + other.degree, out)

    def inner(self, other: "Form"):
        s = 0
        for t, c in self.terms.items():
            o = other.terms.get(t)
            if o is not None:
                s = s + c * o
        return canonical(s)

    def star(self) -> "Form":
        alg = self.algebra
        out = {}
        for t, c in self.terms.items():
            sign, comp = star_tuple(alg, t)
            out[comp] = c * sign
        return Form(alg, alg.n - self.degree, out)

    def weight_split(self) -> dict:
        out: dict = {}
        for t, c in self.terms.items():
            w = tuple_weight(self.algebra, t)
            out.setdefault(w, {})[t] = c
        return {w: Form(self.algebra, self.degree, terms)
                for w, terms in sorted(out.items())}

    def weight(self):
        ws = {tuple_weight(self.algebra, t) for t in self.terms}
        if len(ws) == 1:
            return ws.pop()
        return None

    def d0(self) -> "Form":
        alg = self.algebra
        out: dict = {}
        for t, c in self.terms.items():
            add_scaled(out, c, d0_covector(alg, t))
        return Form(alg, self.degree + 1, out)

    def delta0(self) -> "Form":
        """Adjoint of d0 in the orthonormal monomial bases."""
        alg = self.algebra
        if self.degree == 0:
            return Form.zero(alg, 0)
        out: dict = {}
        for j in covectors(alg, self.degree - 1):
            s = 0
            for merged, coeff in d0_covector(alg, j).items():
                c = self.terms.get(merged)
                if c is not None:
                    s = s + coeff * c
            if s:
                out[j] = s
        return Form(alg, self.degree - 1, out)

    def render(self) -> str:
        def term(t):
            mono = "∧".join(f"θ{i}" for i in t) if t else "1"
            sign, coeff = _expr.signed(self.terms[t])
            return sign, mono if coeff == "1" else f"{coeff} {mono}"
        return _expr.signed_sum(map(term, sorted(self.terms)))

    __str__ = render

    def __repr__(self):
        return f"Form({self.render()})"

    def to_json(self):
        return {"degree": self.degree,
                "terms": [{"covector": list(t), "coeff": str(c)}
                          for t, c in sorted(self.terms.items())]}


class DegreeOverflow(ValueError):
    pass


def terms_of(alg, accs: dict) -> dict:
    """{key: EnvElement} of accumulators, zeros dropped."""
    return {k: u for k, acc in accs.items() if (u := collect(alg, acc))}


def d_terms(alg, parts, targets, sign: int = 1) -> dict:
    """The terms of sign * (sum of d_l form over the (form, layers) parts)
    on the output covectors in ``targets``; no other term is computed.

    d_l multiplies by each generator X_m of layer l, the sign of theta_m ^
    theta_J folded into its coefficient; d_0 is the Maurer-Cartan part.
    """
    accs: defaultdict = defaultdict(Accumulator)
    for form, layers in parts:
        gens = {m: EnvElement.generator(alg, m)
                for ell in layers if ell for m in alg.layer(ell)}
        plans: dict = {}    # covector -> [(merged, signed generator or None, c)]
        for (t, slot), u in form.terms.items():
            plan = plans.get(t)
            if plan is None:
                d0 = d0_covector(alg, t) if 0 in layers else {}
                plan = plans[t] = [(merged, None, c * sign)
                                   for merged, c in d0.items()
                                   if merged in targets]
                for m, gen in gens.items():
                    s, merged = merge_wedge((m,), t)
                    if s and merged in targets:
                        plan.append((merged, gen.scale(s * sign), None))
            if not plan:
                continue
            for merged, gen, c in plan:
                acc = accs[merged, slot]
                if gen is None:
                    add_into(acc, u, c)
                else:
                    mul_into(acc, gen, u)
    return terms_of(alg, accs)


class OperatorForm:
    """Form whose coefficients are operators applied to function slots.

    terms: {(covector tuple, slot index): EnvElement}; represents
    sum_{J, j} (U_{J,j} alpha_j) theta_J with s symbolic slots.  No term is
    a zero operator: the builders drop those, so the constructor trusts them.
    """

    __slots__ = ("algebra", "degree", "slots", "terms")

    def __init__(self, algebra, degree: int, slots: int, terms: dict):
        self.algebra = algebra
        self.degree = degree
        self.slots = slots
        self.terms = terms

    @classmethod
    def from_form(cls, form: Form):
        """c theta_J  ->  (c alpha) theta_J, with one slot alpha."""
        alg = form.algebra
        terms = {(t, 0): EnvElement.one(alg).scale(c)
                 for t, c in form.terms.items()}
        return cls(alg, form.degree, 1, terms)

    def __add__(self, other):
        terms = dict(self.terms)
        for k, u in other.terms.items():
            accumulate(terms, k, u)
        return OperatorForm(self.algebra, self.degree,
                            max(self.slots, other.slots), terms)

    def scale(self, c) -> "OperatorForm":
        """Every operator times the nonzero value c."""
        return OperatorForm(self.algebra, self.degree, self.slots,
                            {k: u.scale(c) for k, u in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, OperatorForm):
            return NotImplemented
        return (self.algebra is other.algebra and self.degree == other.degree
                and self.slots == other.slots and self.terms == other.terms)

    def is_zero(self):
        return not self.terms

    def weight_split(self) -> dict:
        out: dict = {}
        for (t, slot), u in self.terms.items():
            w = tuple_weight(self.algebra, t)
            out.setdefault(w, {})[(t, slot)] = u
        return {w: OperatorForm(self.algebra, self.degree, self.slots, terms)
                for w, terms in sorted(out.items())}

    def _d(self, layers) -> "OperatorForm":
        alg = self.algebra
        every = set(covectors(alg, self.degree + 1))
        return OperatorForm(alg, self.degree + 1, self.slots,
                            d_terms(alg, [(self, layers)], every))

    def d0(self) -> "OperatorForm":
        return self._d((0,))

    def d_full(self) -> "OperatorForm":
        return self._d(range(self.algebra.kappa + 1))

    def pair_multivector(self, mv: dict) -> list:
        """<form, multivector> per slot; mv maps index tuples to values."""
        return self.pair_multivectors([mv])[0]

    def pair_multivectors(self, mvs) -> list:
        """``pair_multivector`` of each multivector in ``mvs``.  Each
        multivector visits only the terms of its own covectors."""
        alg = self.algebra
        wanted = {t for mv in mvs for t in mv}
        by_covector: dict = {}
        for (t, slot), u in self.terms.items():
            if t in wanted:
                by_covector.setdefault(t, []).append((slot, u))
        rows = []
        for mv in mvs:
            accs = [Accumulator() for _ in range(self.slots)]
            for t, c in mv.items():
                for slot, u in by_covector.get(t, ()):
                    add_into(accs[slot], u, c)
            rows.append([collect(alg, acc) for acc in accs])
        return rows

    def render(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for (t, slot) in sorted(self.terms, key=lambda k: (k[0], k[1])):
            u = self.terms[(t, slot)]
            mono = "∧".join(f"θ{i}" for i in t) if t else "1"
            pieces.append(f"({u.render()})[a{slot + 1}] {mono}")
        return " + ".join(pieces)

    __str__ = render

    def __repr__(self):
        return f"OperatorForm({self.render()})"

    def to_json(self):
        return {"degree": self.degree, "slots": self.slots,
                "terms": [{"covector": list(t), "slot": s + 1,
                           "op": u.render()}
                          for (t, s), u in sorted(
                              self.terms.items(),
                              key=lambda kv: (kv[0][0], kv[0][1]))]}


class CovectorMap:
    """Degree-homogeneous linear map given on basis covectors."""

    __slots__ = ("algebra", "degree_in", "degree_out", "columns")

    def __init__(self, algebra, degree_in, degree_out, columns: dict):
        self.algebra = algebra
        self.degree_in = degree_in
        self.degree_out = degree_out
        self.columns = columns  # {J_in: {J_out: value}}

    def apply_into(self, accs: defaultdict, terms: dict):
        """Add the image of the OperatorForm terms ``terms`` into accs, a
        defaultdict of accumulators."""
        for (t, slot), u in terms.items():
            for jo, v in self.columns.get(t, {}).items():
                add_into(accs[jo, slot], u, v)

    def apply_opform(self, form: OperatorForm) -> OperatorForm:
        accs: defaultdict = defaultdict(Accumulator)
        self.apply_into(accs, form.terms)
        return OperatorForm(self.algebra, self.degree_out, form.slots,
                            terms_of(self.algebra, accs))


def multivector(indices_with_coeffs) -> dict:
    """Build {sorted tuple: value} from (index sequence, coeff) pairs."""
    out: dict = {}
    for seq, coeff in indices_with_coeffs:
        sign, t = sort_sign(seq)
        if not sign:
            continue
        accumulate(out, t, exact(coeff) * sign)
    return out
