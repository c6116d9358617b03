"""Stratified nilpotent Lie algebras given by exact structure constants.

A :class:`StratifiedLieAlgebra` stores the bracket table of a graded basis
X_1, ..., X_n adapted to the layers V_1 + ... + V_kappa, validates the usual
identities exactly (antisymmetry is structural, Jacobi and the grading are
checked on construction, and V_1 must bracket-generate each higher layer),
and exposes the bracket as a bilinear map on coefficient vectors.

``free_nilpotent`` generates free nilpotent algebras, of at most ``MAX_DIM``
elements, from a Hall basis; ``cartan_group`` is the built-in five-dimensional
step-3 example with brackets [X1,X2]=X3, [X1,X3]=X4, [X2,X3]=X5 and an
attached polynomial coordinate realization of the vector fields.
"""

from __future__ import annotations

import json
from itertools import combinations

from . import linalg
from .scalars import ScalarField


class LieAlgebraError(ValueError):
    def __str__(self):
        args = ",".join(str(a) for a in self.args)
        return f"{type(self).__name__}({args})"


class JacobiViolation(LieAlgebraError):
    pass


class GradingViolation(LieAlgebraError):
    pass


class NotStratified(LieAlgebraError):
    pass


class DimensionMismatch(LieAlgebraError):
    pass


class ResourceLimit(LieAlgebraError):
    pass


# the largest free nilpotent algebra generated, counted in basis elements
MAX_DIM = 64
# the brackets of the built-in five-dimensional group
CARTAN_BRACKETS = {(1, 2): {3: 1}, (1, 3): {4: 1}, (2, 3): {5: 1}}


class StratifiedLieAlgebra:
    """Immutable after construction; basis indices are 1-based."""

    def __init__(self, layer_dims, brackets, field=None):
        self.field = field if field is not None else ScalarField()
        self.layer_dims = tuple(int(m) for m in layer_dims)
        if any(m <= 0 for m in self.layer_dims):
            raise DimensionMismatch("layer dimensions must be positive")
        self.n = sum(self.layer_dims)
        self.kappa = len(self.layer_dims)
        self.weights = tuple(
            a + 1 for a, m in enumerate(self.layer_dims) for _ in range(m))
        self.brackets = {}
        for (i, j), vec in brackets.items():
            if not (1 <= i < j <= self.n):
                raise DimensionMismatch(i, j)
            clean = {}
            for k, c in vec.items():
                c = self.field(c)
                if c:
                    if not 1 <= k <= self.n:
                        raise DimensionMismatch(k)
                    clean[int(k)] = c
            if clean:
                self.brackets[(i, j)] = clean
        self.realization = None
        # caches shared by the operator algebra
        self._nf_cache = {}
        self._prod_cache = {}
        self._dtheta_cache = None
        self._validate()

    # -- basic queries --------------------------------------------------

    def weight(self, i: int) -> int:
        return self.weights[i - 1]

    def layer(self, a: int):
        """Basis indices spanning V_a."""
        start = sum(self.layer_dims[:a - 1])
        return range(start + 1, start + self.layer_dims[a - 1] + 1)

    @property
    def homogeneous_dimension(self) -> int:
        return sum(self.weights)

    def bracket_basis(self, i: int, j: int) -> dict:
        """[X_i, X_j] as a sparse {index: Scalar} vector."""
        if i == j:
            return {}
        if i < j:
            return dict(self.brackets.get((i, j), {}))
        return {k: -c for k, c in self.brackets.get((j, i), {}).items()}

    def bracket(self, a: dict, b: dict) -> dict:
        """Bilinear extension of the bracket to coefficient vectors."""
        for v in (a, b):
            for i in v:
                if not 1 <= i <= self.n:
                    raise DimensionMismatch(i)
        out: dict = {}
        for i, ca in a.items():
            ca = self.field(ca)
            for j, cb in b.items():
                cb = self.field(cb)
                for k, c in self.bracket_basis(i, j).items():
                    s = out.get(k, self.field.zero()) + ca * cb * c
                    if s:
                        out[k] = s
                    else:
                        out.pop(k, None)
        return out

    # -- validation -------------------------------------------------------

    def _validate(self):
        for (i, j), vec in self.brackets.items():
            target = self.weight(i) + self.weight(j)
            for k in vec:
                if target > self.kappa or self.weight(k) != target:
                    raise GradingViolation(i, j)
        for i, j, k in combinations(range(1, self.n + 1), 3):
            acc: dict = {}
            for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                inner = self.bracket_basis(a, b)
                for t, coeff in self.bracket({m: v for m, v in inner.items()},
                                             {c: self.field.one()}).items():
                    s = acc.get(t, self.field.zero()) + coeff
                    if s:
                        acc[t] = s
                    else:
                        acc.pop(t, None)
            if acc:
                raise JacobiViolation(i, j, k)
        for a in range(1, self.kappa):
            # sparse rows whose columns are the layer-(a+1) indices
            rows = [{k: c for k, c in self.bracket_basis(i, j).items() if c}
                    for i in self.layer(1) for j in self.layer(a)]
            if linalg.rank(self.field, rows) != self.layer_dims[a]:
                raise NotStratified(a + 1)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_structure_constants(cls, layer_dims, brackets):
        table = {}
        for (i, j), vec in brackets.items():
            table[(int(i), int(j))] = {int(k): c for k, c in vec.items()}
        return cls(layer_dims, table)

    @classmethod
    def from_json(cls, text_or_dict):
        data = json.loads(text_or_dict) if isinstance(text_or_dict, str) \
            else text_or_dict
        field = ScalarField(radicands=data.get("sqrt", ()))
        brackets = {}
        for key, vec in data.get("brackets", {}).items():
            i, j = (int(t) for t in key.split(","))
            brackets[(i, j)] = {int(k): field.parse(str(c))
                                for k, c in vec.items()}
        return cls(data["layers"], brackets, field=field)

    def to_json(self) -> dict:
        out = {"layers": list(self.layer_dims), "brackets": {}}
        if self.field.radicands:
            out["sqrt"] = list(self.field.radicands)
        for (i, j), vec in sorted(self.brackets.items()):
            out["brackets"][f"{i},{j}"] = {str(k): str(c)
                                           for k, c in sorted(vec.items())}
        return out

    def is_cartan_table(self) -> bool:
        return (self.layer_dims == (2, 1, 2)
                and self.brackets == CARTAN_BRACKETS)

    def __repr__(self):
        return (f"StratifiedLieAlgebra(n={self.n}, layers={self.layer_dims}, "
                f"Q={self.homogeneous_dimension})")


def cartan_group() -> StratifiedLieAlgebra:
    """The free step-3 rank-2 Carnot group (dimension 5, Q = 10)."""
    from .coords import cartan_realization

    alg = StratifiedLieAlgebra((2, 1, 2), CARTAN_BRACKETS)
    alg.realization = cartan_realization(alg)
    return alg


# -- free nilpotent Lie algebras via Hall bases ----------------------------


class _HallTree:
    __slots__ = ("left", "right", "gen", "degree", "foliage", "key")

    def __init__(self, gen=None, left=None, right=None):
        if gen is not None:
            self.gen = gen
            self.left = self.right = None
            self.degree = 1
            self.foliage = (gen,)
            self.key = (1, self.foliage, ())
        else:
            self.gen = None
            self.left, self.right = left, right
            self.degree = left.degree + right.degree
            self.foliage = left.foliage + right.foliage
            self.key = (self.degree, self.foliage, (left.key, right.key))


def _hall_basis(m1: int, step: int):
    """Hall trees ordered by degree, then foliage, then structure.

    A composite [a, b] is a Hall tree when a < b and b is either a generator
    or b = [c, d] with c <= a.  This convention makes the degree-3 elements
    on two generators come out as [X1,[X1,X2]] then [X2,[X1,X2]].
    """
    by_degree = {1: [_HallTree(gen=i) for i in range(1, m1 + 1)]}
    for d in range(2, step + 1):
        new = []
        for da in range(1, d):
            for a in by_degree.get(da, ()):
                for b in by_degree.get(d - da, ()):
                    if not a.key < b.key:
                        continue
                    if b.gen is None and b.left.key > a.key:
                        continue
                    new.append(_HallTree(left=a, right=b))
        new.sort(key=lambda t: t.key)
        by_degree[d] = new
    ordered = []
    for d in range(1, step + 1):
        ordered.extend(by_degree[d])
    return ordered


def _commutator(u: dict, v: dict) -> dict:
    """uv - vu for two elements of the free associative algebra, as
    {word: coefficient} maps."""
    out: dict = {}
    for a, ca in u.items():
        for b, cb in v.items():
            c = ca * cb
            for word, x in ((a + b, c), (b + a, -c)):
                s = out.get(word, 0) + x
                if s:
                    out[word] = s
                else:
                    out.pop(word, None)
    return out


def _mobius(e: int) -> int:
    """The Moebius function: 0 unless e is squarefree, else (-1)^(#primes)."""
    out, p = 1, 2
    while p * p <= e:
        if e % p == 0:
            e //= p
            if e % p == 0:
                return 0
            out = -out
        p += 1
    return -out if e > 1 else out


def witt_dimension(m: int, d: int) -> int:
    """Dimension of the degree-d layer of the free Lie algebra on m
    generators, W(m, d) = (1/d) sum_{e | d} mu(e) m^(d/e) (Witt's formula):
    the number of Hall trees of degree d."""
    return sum(_mobius(e) * m ** (d // e)
               for e in range(1, d + 1) if d % e == 0) // d


def free_nilpotent(m1: int, step: int) -> StratifiedLieAlgebra:
    """Free nilpotent Lie algebra on m1 generators, nilpotency step `step`.

    Structure constants are obtained by expanding Hall trees in the tensor
    algebra and solving for the coordinates of each commutator in the Hall
    basis of the appropriate degree, which is exact and convention-free.
    The layer dimensions come from Witt's formula, so a group above
    ``MAX_DIM`` is refused before any tree is built.
    """
    if m1 < 2 or step < 1:
        raise DimensionMismatch(m1, step)
    layer_dims = [witt_dimension(m1, d) for d in range(1, step + 1)]
    if sum(layer_dims) > MAX_DIM:
        raise ResourceLimit(sum(layer_dims), MAX_DIM)
    trees = _hall_basis(m1, step)
    field = ScalarField()

    # each tree expanded once in the free associative algebra, from the
    # expansions of its subtrees, which come before it in the Hall basis;
    # only brackets of degree <= step are formed, so none is truncated
    words: dict = {}
    for t in trees:
        words[t.key] = ({(t.gen,): 1} if t.gen is not None else
                        _commutator(words[t.left.key], words[t.right.key]))

    def over_field(vec):
        return {w: field.from_rational(c) for w, c in vec.items()}

    columns: dict = {}   # degree -> its Hall elements, expanded
    for t in trees:
        columns.setdefault(t.degree, []).append(over_field(words[t.key]))

    brackets = {}
    for i in range(len(trees)):
        for j in range(i + 1, len(trees)):
            d = trees[i].degree + trees[j].degree
            if d > step:
                continue
            sol = linalg.solve(field, columns[d], over_field(_commutator(
                words[trees[i].key], words[trees[j].key])))
            if sol is None:
                raise LieAlgebraError("hall expansion failed")  # pragma: no cover
            offset = sum(layer_dims[:d - 1]) + 1
            vec = {offset + c: x for c, x in enumerate(sol) if x}
            if vec:
                brackets[(i + 1, j + 1)] = vec

    return StratifiedLieAlgebra(layer_dims, brackets, field=field)


def load_group(spec: str) -> StratifiedLieAlgebra:
    """A group from its spec: builtin:cartan, free:m,k or a JSON file path."""
    if spec == "builtin:cartan":
        return cartan_group()
    if spec.startswith("free:"):
        try:
            m1, step = (int(x) for x in spec.split(":", 1)[1].split(","))
        except ValueError:
            raise ValueError(f"bad free group spec {spec!r}; use free:m,k")
        return free_nilpotent(m1, step)
    try:
        with open(spec) as fh:
            return StratifiedLieAlgebra.from_json(fh.read())
    except FileNotFoundError:
        raise ValueError(f"no such group file: {spec}")
