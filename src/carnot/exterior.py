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

The OperatorForm builders (``d_terms`` behind ``d0``, ``d_layer`` and
``d_full``, ``pair_multivectors`` and ``CovectorMap.apply_into``) add every
term into one flat {key: coeff} accumulator per output key with
the product kernel of :mod:`carnot.env`, and ``terms_of`` builds each output
operator once: summing EnvElements term by term would copy the partial sum
and build Scalars for every term.  ``d_terms`` and ``pair_multivectors``
also clear the denominators of their inputs first, so their sums run in
``int`` arithmetic.
"""

from __future__ import annotations

from itertools import combinations

from . import _expr
from .env import (EnvElement, _add_into, _common_denominator, _flat,
                  _from_acc, _integral, _mul_into, _scale_into)
from .liealg import StratifiedLieAlgebra
from .scalars import Scalar


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
                table[k][(i, j)] = table[k].get((i, j), alg.field.zero()) - c
        alg._dtheta_cache = table
    return alg._dtheta_cache


def accumulate(terms: dict, key, value):
    """terms[key] += value, dropping the key when the sum is zero."""
    s = terms.get(key)
    s = value if s is None else s + value
    if s:
        terms[key] = s
    else:
        terms.pop(key, None)


def d0_covector(alg, j: tuple) -> dict:
    """d0(theta_J) as {covector: Scalar}, by the graded Leibniz rule."""
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
    """Constant-coefficient form; terms map covector tuples to Scalars."""

    __slots__ = ("algebra", "degree", "terms")

    def __init__(self, algebra, degree: int, terms: dict):
        self.algebra = algebra
        self.degree = degree
        self.terms = {t: c for t, c in terms.items() if c}

    @classmethod
    def zero(cls, alg, degree):
        return cls(alg, degree, {})

    @classmethod
    def basis(cls, alg, j, coeff=1):
        j = tuple(j)
        return cls(alg, len(j), {j: alg.field(coeff)})

    @classmethod
    def volume(cls, alg):
        return cls.basis(alg, tuple(range(1, alg.n + 1)))

    def __add__(self, other):
        terms = dict(self.terms)
        for t, c in other.terms.items():
            accumulate(terms, t, c)
        return Form(self.algebra, self.degree, terms)

    def __neg__(self):
        return Form(self.algebra, self.degree,
                    {t: -c for t, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, coeff):
        c = self.algebra.field(coeff)
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

    def inner(self, other: "Form") -> Scalar:
        s = self.algebra.field.zero()
        for t, c in self.terms.items():
            o = other.terms.get(t)
            if o is not None:
                s = s + c * o
        return s

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
            for merged, coeff in d0_covector(alg, t).items():
                accumulate(out, merged, c * coeff)
        return Form(alg, self.degree + 1, out)

    def delta0(self) -> "Form":
        """Adjoint of d0 in the orthonormal monomial bases."""
        alg = self.algebra
        if self.degree == 0:
            return Form.zero(alg, 0)
        out: dict = {}
        for j in covectors(alg, self.degree - 1):
            s = alg.field.zero()
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


def terms_of(alg, accs: dict, d=1) -> dict:
    """{key: EnvElement} of flat accumulators divided by d, zeros dropped."""
    return {k: u for k, acc in accs.items()
            if (u := _from_acc(alg, acc, d)).terms}


def d_terms(alg, parts, sign: int = 1) -> dict:
    """The terms of sign * (sum of d_l form over the (form, layers) parts).

    d_l multiplies by each generator X_m of layer l, the sign of theta_m ^
    theta_J folded into its coefficient; d_0 is the Maurer-Cartan part.
    """
    rad = alg.field.radicands
    d = _common_denominator(s for form, _ in parts
                            for u in form.terms.values()
                            for s in u.terms.values())
    accs: dict = {}
    for form, layers in parts:
        gens = {m: EnvElement.generator(alg, m)
                for ell in layers if ell for m in alg.layer(ell)}
        plans: dict = {}    # covector -> [(merged, flat generator or None, c)]
        for (t, slot), u in form.terms.items():
            plan = plans.get(t)
            if plan is None:
                d0 = d0_covector(alg, t) if 0 in layers else {}
                plan = plans[t] = [(merged, None, (c * sign).terms)
                                   for merged, c in d0.items()]
                for m, gen in gens.items():
                    s, merged = merge_wedge((m,), t)
                    if s:
                        plan.append((merged,
                                     _flat(alg, gen.scale(s * sign).terms),
                                     None))
            nf = _flat(alg, u.terms, d)
            for merged, gen, c in plan:
                acc = accs.setdefault((merged, slot), {})
                if gen is None:
                    for m, v in c.items():
                        _add_into(rad, acc, nf, v, m)
                else:
                    _mul_into(alg, acc, gen, nf)
    return terms_of(alg, accs, d)


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

    def __eq__(self, other):
        if not isinstance(other, OperatorForm):
            return NotImplemented
        return (self.degree == other.degree and self.terms == other.terms)

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
        return OperatorForm(self.algebra, self.degree + 1, self.slots,
                            d_terms(self.algebra, [(self, layers)]))

    def d0(self) -> "OperatorForm":
        return self._d((0,))

    def d_layer(self, layer: int) -> "OperatorForm":
        """sum over X_m in V_layer of (X_m . U alpha) theta_m ^ theta_J."""
        if not 1 <= layer <= self.algebra.kappa:
            raise ValueError(f"layer {layer} out of range")
        return self._d((layer,))

    def d_full(self) -> "OperatorForm":
        return self._d(range(self.algebra.kappa + 1))

    def pair_multivector(self, mv: dict) -> list:
        """<form, multivector> per slot; mv maps index tuples to Scalars."""
        return self.pair_multivectors([mv])[0]

    def pair_multivectors(self, mvs) -> list:
        """``pair_multivector`` of each multivector in ``mvs``.  Only the
        terms on covectors of some multivector are flattened, once each,
        so each multivector visits only the terms of its own covectors.
        The terms and each multivector are scaled to integer coefficients
        first, so the sums run in ``int`` arithmetic and each coefficient
        is divided once."""
        alg = self.algebra
        rad = alg.field.radicands
        wanted = {t for mv in mvs for t in mv}
        used = [(t, slot, u) for (t, slot), u in self.terms.items()
                if t in wanted]
        d = _common_denominator(s for _, _, u in used
                                for s in u.terms.values())
        by_covector: dict = {}
        for t, slot, u in used:
            by_covector.setdefault(t, []).append((slot, _flat(alg, u.terms, d)))
        rows = []
        for mv in mvs:
            dm = _common_denominator(mv.values())
            accs = [{} for _ in range(self.slots)]
            for t, c in mv.items():
                terms = by_covector.get(t)
                if terms:
                    raw = _integral(c.terms, dm)
                    for slot, nf in terms:
                        for m, v in raw.items():
                            _add_into(rad, accs[slot], nf, v, m)
            rows.append([_from_acc(alg, acc, d * dm) for acc in accs])
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
        self.columns = columns  # {J_in: {J_out: Scalar}}

    def apply_form(self, form: Form) -> Form:
        out: dict = {}
        for t, c in form.terms.items():
            for jo, v in self.columns.get(t, {}).items():
                accumulate(out, jo, c * v)
        return Form(self.algebra, self.degree_out, out)

    def apply_into(self, accs: dict, terms: dict):
        """Add the image of the OperatorForm terms ``terms`` into accs."""
        alg = self.algebra
        for (t, slot), u in terms.items():
            for jo, v in self.columns.get(t, {}).items():
                _scale_into(alg, accs.setdefault((jo, slot), {}), u.terms,
                            v.terms)

    def apply_opform(self, form: OperatorForm) -> OperatorForm:
        accs: dict = {}
        self.apply_into(accs, form.terms)
        return OperatorForm(self.algebra, self.degree_out, form.slots,
                            terms_of(self.algebra, accs))

    def apply(self, form):
        if isinstance(form, OperatorForm):
            return self.apply_opform(form)
        return self.apply_form(form)


def d0_map(alg, h: int) -> CovectorMap:
    return CovectorMap(alg, h, h + 1,
                       {j: d0_covector(alg, j) for j in covectors(alg, h)})


def multivector(alg, indices_with_coeffs) -> dict:
    """Build {sorted tuple: Scalar} from (index sequence, coeff) pairs."""
    out: dict = {}
    for seq, coeff in indices_with_coeffs:
        sign, t = sort_sign(seq)
        if not sign:
            continue
        accumulate(out, t, alg.field(coeff) * sign)
    return out
