"""Finite basis and right action of the arrows for the relation quotient.

The algebra is the quotient of the COMPLETE path algebra of a quiver by the
closed two-sided ideal generated by a finite set of relations (each relation
a linear combination of parallel composable paths).  The computation is a
degreewise elimination over F_p:

For a cutoff c, the span of the ideal inside paths of length <= c is
generated by the truncations of u * r * v over relations r and composable
padding paths u, v with |u| + min_length(r) + |v| <= c (components pushed
beyond c by the padding are dropped; this is exactly the image I_c of the
closed ideal in the quotient by paths of length > c).  Row reduction of those
generators against the path basis ordered by (length, lexicographic id
sequence) yields pivot paths; the non-pivot paths of length k are a basis of
the k-th radical layer.  The pivot set at length <= d is the same for every
cutoff c >= d (truncating I_c to length d gives all of I_d and keeps leading
paths), so one elimination gives every layer up to its cutoff, and the
cutoffs double, 1, 2, 4, 8, ... capped at max_deg; a runtime check confirms
that the layers read at the previous cutoff did not move.

The first length k with zero surviving paths proves that the radical powers
stabilize, hence vanish, at k: the algebra is finite dimensional with basis
the surviving paths of length < k, and any product of total length >= k is
zero.  If no such k appears up to max_deg the computation reports
non-stabilization instead of guessing.  When a doubling step would cross the
path budget, the cutoff is clamped to the longest length that fits; if no
layer vanishes up to there, the failure names the first degree past it.

Normal forms come from the last elimination, whose cutoff may pass k; they
are the same as at cutoff k, because every path of length >= k lies in the
ideal and the normal form of a shorter path is the unique combination of
surviving paths congruent to it modulo the ideal.  The algebra keeps one
right action, the normal form of each basis path times each arrow leaving
its end, and reads every product from it one arrow at a time.  The prefixes
of a surviving path survive: the (length, lex) order respects
concatenation, so a pivot followed by an arrow is the pivot of the same
ideal element times that arrow.
"""

from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np

from . import linalg
from .linalg import DEFAULT_PRIME

__all__ = [
    "NonStabilizationError",
    "FDAlgebra",
    "CartanMatrix",
    "graded_dimensions",
    "compute_basis",
    "cartan_matrix",
    "check_weakly_symmetric",
]

DEFAULT_MAX_DEG = 40
DEFAULT_PATH_BUDGET = 200_000


class NonStabilizationError(Exception):
    """No length with zero surviving paths was reached.

    Either max_deg is too small, the path budget was exhausted first, or
    the quotient is genuinely infinite dimensional.  Carries the graded
    dimensions computed so far.
    """

    def __init__(self, max_deg, graded_dims, reason="max_deg reached"):
        self.max_deg = max_deg
        self.graded_dims = tuple(graded_dims)
        self.reason = reason
        super().__init__(
            "no stabilization within degree %d (%s); graded dims so far: %s"
            % (max_deg, reason, list(graded_dims))
        )


def _validate_relations(q, rels):
    for r in rels.generators:
        src = tgt = None
        for path, coeff in r.terms:
            if len(path) == 0:
                raise ValueError(
                    "relations with length-0 components are not supported"
                )
            if not q.is_composable(path):
                raise ValueError("relation path %r is not composable" % (path,))
            s, t = q.path_source(path), q.path_target(path)
            if src is None:
                src, tgt = s, t
            elif (s, t) != (src, tgt):
                raise ValueError(
                    "relation mixes non-parallel paths (%s to %s vs %s to %s)"
                    % (src, tgt, s, t)
                )


class _PathLevels:
    """Composable paths per length, extended lazily one level at a time.

    Levels are built in lexicographic order of arrow-id tuples and numbered
    consecutively, so the integer column ids follow the (length, lex) order:
    paths[c] has id c, ids is the inverse map, and the paths of length d
    have the ids range(bounds[d], bounds[d + 1]).  starting and ending map
    (length, vertex) to the paths leaving or entering the vertex.  The
    cumulative number of paths of positive length is capped by the budget;
    crossing it raises MemoryError naming the offending degree.
    """

    def __init__(self, q, budget):
        self.budget = budget
        self.arrows = sorted(q.arrows, key=lambda a: a.id)
        self.arrows_from = {}
        for a in self.arrows:
            self.arrows_from.setdefault(a.source, []).append(a)
        self.source = {a.id: a.source for a in self.arrows}
        self.target = {a.id: a.target for a in self.arrows}
        self.top = 0
        self.paths = []
        self.ids = {}
        self.bounds = [0, 0]
        self.starting = {(0, v): [()] for v in q.vertices}
        self.ending = dict(self.starting)

    def ensure(self, deg):
        """Extend the levels to the given length."""
        for d in range(self.top + 1, deg + 1):
            if d == 1:
                level = [(a.id,) for a in self.arrows]
            else:
                level = [
                    path + (a.id,) for path in self.paths[self.bounds[d - 1]:]
                    for a in self.arrows_from.get(self.target[path[-1]], ())
                ]
            if len(self.paths) + len(level) > self.budget:
                raise MemoryError("path budget exceeded at degree %d" % d)
            for path in level:
                self.ids[path] = len(self.paths)
                self.paths.append(path)
                self.starting.setdefault(
                    (d, self.source[path[0]]), []).append(path)
                self.ending.setdefault(
                    (d, self.target[path[-1]]), []).append(path)
            self.bounds.append(len(self.paths))
            self.top = d


class _Echelon:
    """Sparse row echelon over F_p keyed by integer column ids.

    Each row is normalized so its minimal column (the pivot) has
    coefficient 1, and is stored under its pivot without that entry: the
    stored tail is a tuple of the (column, coefficient) pairs at strictly
    later columns.
    """

    def __init__(self, p):
        self.p = p
        self.pivots = {}

    def insert(self, row):
        p = self.p
        row = {c: v % p for c, v in row.items() if v % p != 0}
        while row:
            c = min(row)
            f = row.pop(c)
            tail = self.pivots.get(c)
            if tail is None:
                if f != 1:
                    inv = linalg.inv_mod(f, p)
                    row = {k: (v * inv) % p for k, v in row.items()}
                self.pivots[c] = tuple(row.items())
                return
            for k, v in tail:
                nv = (row.get(k, 0) - f * v) % p
                if nv:
                    row[k] = nv
                else:
                    row.pop(k, None)


def _run_elimination(q, rels, p, cutoff, levels):
    """Echelonize the ideal generators truncated at the cutoff degree."""
    ech = _Echelon(p)
    ids = levels.ids
    for r in rels.generators:
        m = r.min_length
        if m > cutoff:
            continue
        src = q.path_source(r.terms[0][0])
        tgt = q.path_target(r.terms[0][0])
        for a in range(cutoff - m + 1):
            for u in levels.ending.get((a, src), ()):
                for b in range(cutoff - m - a + 1):
                    heads = [(u + path, coeff) for path, coeff in r.terms
                             if a + len(path) + b <= cutoff]
                    for v in levels.starting.get((b, tgt), ()):
                        row = {}
                        for head, coeff in heads:
                            col = ids[head + v]
                            row[col] = row.get(col, 0) + coeff
                        ech.insert(row)
    return ech


def _eliminate(q, rels, p, max_deg, path_budget):
    """The degree loop of graded_dimensions and compute_basis.

    Returns (dims, stop, ech, levels): stop is the first length with no
    surviving path and dims lists the layers below it, or stop is None and
    dims covers 0..max_deg; ech is the last elimination over levels' ids.
    Raises NonStabilizationError if the path budget runs out first.
    """
    # the int64 bound first: trial division would not finish on a huge p
    linalg._check_exact(p, 1)
    if not linalg.is_prime(p):
        raise ValueError("field modulus %d is not prime" % p)
    if max_deg < 1:
        raise ValueError("max_deg must be >= 1")
    if path_budget < 1:
        raise ValueError("path_budget must be >= 1")
    _validate_relations(q, rels)
    dims = [len(q.vertices)]
    levels = _PathLevels(q, path_budget)
    cutoff, budget_hit = 0, None
    while cutoff < max_deg and budget_hit is None:
        prev, cutoff = cutoff, min(max(2 * cutoff, 1), max_deg)
        try:
            levels.ensure(cutoff)
        except MemoryError as exc:
            budget_hit, cutoff = exc, levels.top
            if cutoff == prev:
                break
        ech = _run_elimination(q, rels, p, cutoff, levels)
        counts = [
            sum(1 for c in range(levels.bounds[d], levels.bounds[d + 1])
                if c not in ech.pivots)
            for d in range(1, cutoff + 1)
        ]
        if counts[:prev] != dims[1:]:
            raise RuntimeError(
                "internal error: pivot columns moved between cutoffs %d and %d"
                % (prev, cutoff)
            )
        for d in range(prev + 1, cutoff + 1):
            if counts[d - 1] == 0:
                return dims, d, ech, levels
            dims.append(counts[d - 1])
    if budget_hit is not None:
        raise NonStabilizationError(max_deg, dims, str(budget_hit))
    return dims, None, ech, levels


def graded_dimensions(q, rels, p=DEFAULT_PRIME, max_deg=DEFAULT_MAX_DEG,
                      path_budget=DEFAULT_PATH_BUDGET):
    """Dimensions of the radical layers of the quotient, degree by degree.

    Returns:
        (dims, stabilized): dims[k] is the dimension of the k-th layer.
        When stabilized is True the list covers every nonzero layer (the
        first zero layer is dropped) and its sum is the total dimension.
        When False the list covers degrees 0..max_deg and says nothing
        about higher layers.

    Raises:
        ValueError: if p is not prime or (p-1)^2 >= 2^63, or max_deg or
        path_budget is < 1.
        NonStabilizationError: only if the path budget is exhausted before
        max_deg; plain non-stabilization at max_deg is reported through the
        stabilized flag.
    """
    dims, stop, _, _ = _eliminate(q, rels, p, max_deg, path_budget)
    return dims, stop is not None


@dataclass(frozen=True)
class FDAlgebra:
    """Basis, normal forms and right action of a stabilized quotient.

    Basis elements are (source_vertex, arrow_id_tuple); the tuple is empty
    for the trivial path at a vertex.  action maps (i, x), for each arrow x
    leaving the end of path i, to the normal form of path i times x as a
    tuple of (basis_index, coefficient) pairs, empty when it is zero.
    """

    quiver: object
    field: int
    relations: object
    basis: tuple
    graded_dims: tuple
    action: dict = dc_field(repr=False)
    _index: dict = dc_field(repr=False, default_factory=dict)

    @property
    def dim(self):
        return len(self.basis)

    @property
    def loewy_length(self):
        return len(self.graded_dims)

    @cached_property
    def weak_symmetry(self):
        """check_weakly_symmetric(self), run on the first read only."""
        return check_weakly_symmetric(self)

    def basis_source(self, i):
        v, path = self.basis[i]
        return v

    def basis_target(self, i):
        v, path = self.basis[i]
        return v if not path else self.quiver.arrow(path[-1]).target

    def vertex_unit(self, v):
        """Index of the trivial path at a vertex."""
        return self._index[(v, ())]

    @cached_property
    def mult_table(self):
        """Nonzero products (i, j) -> ((index, coeff), ...), found by
        multiplying i by the arrows of path j one at a time."""
        p = self.field
        table = {}
        for i in range(self.dim):
            for j in self.indices_from(self.basis_target(i)):
                prod = {i: 1}
                for x in self.basis[j][1]:
                    acc = {}
                    for b, c in prod.items():
                        for k, c2 in self.action[(b, x)]:
                            acc[k] = (acc.get(k, 0) + c * c2) % p
                    prod = {k: c for k, c in acc.items() if c}
                if prod:
                    table[(i, j)] = tuple(sorted(prod.items()))
        return table

    def mul(self, i, j):
        """Product of two basis elements as ((index, coeff), ...)."""
        return self.mult_table.get((i, j), ())

    def right_multiply_arrow(self, i, arrow_id):
        """Normal form of basis element i times an arrow, as ((index, coeff), ...)."""
        return self.action.get((i, arrow_id), ())

    def indices_from(self, v):
        return tuple(
            i for i in range(self.dim) if self.basis_source(i) == v
        )

    def to_json(self, indent=2):
        import json

        cm = cartan_matrix(self)
        doc = {
            "field": self.field,
            "dimension": self.dim,
            "graded_dimensions": list(self.graded_dims),
            "basis": [
                {"source": v, "arrows": list(path)} for v, path in self.basis
            ],
            "mult_table": {
                "%d,%d" % key: [[k, c] for k, c in val]
                for key, val in sorted(self.mult_table.items())
            },
            "cartan": {
                "vertices": list(cm.vertices),
                "matrix": [[int(x) for x in row] for row in cm.matrix],
            },
        }
        return json.dumps(doc, indent=indent)


def compute_basis(q, rels, p=DEFAULT_PRIME, max_deg=DEFAULT_MAX_DEG,
                  path_budget=DEFAULT_PATH_BUDGET):
    """Compute the finite-dimensional quotient, or fail honestly.

    Runs the degreewise elimination to the first length k at which no
    paths survive, then assembles the basis (trivial paths first, then
    surviving paths by length and lexicographic order) and the right action
    of the arrows on it from back-substituted normal forms.

    Raises:
        ValueError: if p is not prime or (p-1)^2 >= 2^63, or max_deg or
        path_budget is < 1.
        NonStabilizationError: if no such k exists within max_deg or the
        path budget is exhausted first.
    """
    dims, stop, ech, levels = _eliminate(q, rels, p, max_deg, path_budget)
    if stop is None:
        raise NonStabilizationError(max_deg, dims)

    # normal forms of the paths of length <= stop by back-substitution,
    # processing columns in decreasing order so every non-pivot entry of a
    # pivot row is already resolved; longer paths lie in the ideal
    limit = levels.bounds[stop + 1]
    nf = [None] * limit
    for col in reversed(range(limit)):
        piv = ech.pivots.get(col)
        if piv is None:
            nf[col] = {col: 1}
            continue
        acc = {}
        for k, v in piv:
            if k >= limit:
                continue
            for b, c in nf[k].items():
                nv = (acc.get(b, 0) - v * c) % p
                if nv:
                    acc[b] = nv
                else:
                    acc.pop(b, None)
        nf[col] = acc

    basis = [(v, ()) for v in sorted(q.vertices)]
    basis_of_col = {}
    for col in range(limit):
        if col not in ech.pivots:
            basis_of_col[col] = len(basis)
            path = levels.paths[col]
            basis.append((q.path_source(path), path))

    # a basis path has length < stop, so with one more arrow it is still
    # a column of the elimination
    action = {}
    for i, (v, path) in enumerate(basis):
        end = levels.target[path[-1]] if path else v
        for x in levels.arrows_from.get(end, ()):
            action[(i, x.id)] = tuple(
                (basis_of_col[b], c)
                for b, c in sorted(nf[levels.ids[path + (x.id,)]].items()))

    return FDAlgebra(
        quiver=q,
        field=p,
        relations=rels,
        basis=tuple(basis),
        graded_dims=tuple(dims),
        action=action,
        _index={el: i for i, el in enumerate(basis)},
    )


@dataclass(frozen=True)
class CartanMatrix:
    """Counts of basis paths between vertices; entry (i, j) counts i -> j."""

    vertices: tuple
    matrix: object

    @property
    def determinant(self):
        return linalg.det_int(self.matrix)


def cartan_matrix(a):
    vertices = sorted(a.quiver.vertices)
    pos = {v: i for i, v in enumerate(vertices)}
    m = np.zeros((len(vertices), len(vertices)), dtype=np.int64)
    for i in range(a.dim):
        m[pos[a.basis_source(i)], pos[a.basis_target(i)]] += 1
    return CartanMatrix(tuple(vertices), m)


def check_weakly_symmetric(a):
    """Socle test: each projective has 1-dimensional socle at its own vertex.

    The socle of the projective at v consists of the elements of e_v A
    killed by right multiplication with every arrow.  Returns
    (flag, witness) where witness records per vertex the socle dimension
    and the vertices supporting it.
    """
    p = a.field
    arrows = sorted(a.quiver.arrows, key=lambda x: x.id)
    witness = {}
    ok = True
    for v in sorted(a.quiver.vertices):
        rows_v = a.indices_from(v)
        loc = {bi: k for k, bi in enumerate(rows_v)}
        n = len(rows_v)
        stacked = np.zeros((n, len(arrows) * n), dtype=np.int64)
        for k, bi in enumerate(rows_v):
            for t, x in enumerate(arrows):
                for bj, c in a.right_multiply_arrow(bi, x.id):
                    stacked[k, t * n + loc[bj]] = c
        soc, _ = linalg.left_nullspace(stacked, p)
        support = set()
        for row in soc:
            for k in np.nonzero(row)[0]:
                support.add(a.basis_target(rows_v[int(k)]))
        witness[v] = {"socle_dim": int(soc.shape[0]), "support": sorted(support)}
        if soc.shape[0] != 1 or support != {v}:
            ok = False
    return ok, witness
