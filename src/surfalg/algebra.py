"""Finite basis and multiplication table for the relation quotient.

The algebra is the quotient of the COMPLETE path algebra of a quiver by the
closed two-sided ideal generated by a finite set of relations (each relation
a linear combination of parallel composable paths).  The computation is a
degreewise elimination over F_p:

For a cutoff d, the span of the ideal inside paths of length <= d is
generated by the truncations of u * r * v over relations r and composable
padding paths u, v with |u| + min_length(r) + |v| <= d (components pushed
beyond d by the padding are dropped; this is exactly the image of the closed
ideal in the quotient by paths of length > d).  Row reduction of those
generators against the path basis ordered by (length, lexicographic id
sequence) yields pivot paths; the non-pivot paths of length k are a basis of
the k-th radical layer.  The pivot set at length <= d does not depend on the
cutoff, so the cutoffs can be processed in increasing order.

The first length k with zero surviving paths proves that the radical powers
stabilize, hence vanish, at k: the algebra is finite dimensional with basis
the surviving paths of length < k, and any product of total length >= k is
zero.  If no such k appears up to max_deg the computation reports
non-stabilization instead of guessing.
"""

from dataclasses import dataclass, field as dc_field

import numpy as np

from . import linalg
from .linalg import DEFAULT_PRIME
from .qp import Relation, RelationSet

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

    Levels are lexicographically sorted arrow-id tuples.  The cumulative
    number of paths of positive length is capped by the budget; crossing
    it raises MemoryError naming the offending degree.
    """

    def __init__(self, q, budget):
        self.q = q
        self.budget = budget
        self.arrows_from = {}
        for a in sorted(q.arrows, key=lambda a: a.id):
            self.arrows_from.setdefault(a.source, []).append(a)
        self.by_deg = [[()]]  # degree 0 handled separately per vertex
        self.total = 0

    def ensure(self, deg):
        """Extend to the given length and return the level list."""
        while len(self.by_deg) <= deg:
            d = len(self.by_deg)
            if d == 1:
                level = [(a.id,) for a in
                         sorted(self.q.arrows, key=lambda a: a.id)]
            else:
                level = []
                for path in self.by_deg[-1]:
                    tgt = self.q.arrow(path[-1]).target
                    for a in self.arrows_from.get(tgt, ()):
                        level.append(path + (a.id,))
            self.total += len(level)
            if self.total > self.budget:
                raise MemoryError("path budget exceeded at degree %d" % d)
            self.by_deg.append(level)
        return self.by_deg


def _colkey(path):
    return (len(path), path)


class _Echelon:
    """Sparse row echelon over F_p keyed by path columns.

    Each stored row is normalized so its minimal column (the pivot) has
    coefficient 1; all other entries sit at strictly later columns.
    """

    def __init__(self, p):
        self.p = p
        self.pivots = {}

    def insert(self, row):
        p = self.p
        row = {c: v % p for c, v in row.items() if v % p != 0}
        while row:
            c = min(row, key=_colkey)
            piv = self.pivots.get(c)
            if piv is None:
                inv = linalg.inv_mod(row[c], p)
                row = {k: (v * inv) % p for k, v in row.items()}
                self.pivots[c] = row
                return c
            f = row[c]
            for k, v in piv.items():
                nv = (row.get(k, 0) - f * v) % p
                if nv:
                    row[k] = nv
                else:
                    row.pop(k, None)
        return None


def _run_elimination(q, rels, p, cutoff, paths_by_deg):
    """Echelonize the ideal generators truncated at the cutoff degree."""
    ech = _Echelon(p)
    start_index = {}
    end_index = {}
    for d, paths in enumerate(paths_by_deg[: cutoff + 1]):
        if d == 0:
            continue
        for path in paths:
            start_index.setdefault((d, q.path_source(path)), []).append(path)
            end_index.setdefault((d, q.path_target(path)), []).append(path)

    def ending_at(d, v):
        if d == 0:
            return ((),)
        return end_index.get((d, v), ())

    def starting_at(d, v):
        if d == 0:
            return ((),)
        return start_index.get((d, v), ())

    for r in rels.generators:
        m = r.min_length
        if m > cutoff:
            continue
        src = q.path_source(r.terms[0][0])
        tgt = q.path_target(r.terms[0][0])
        for a in range(cutoff - m + 1):
            for u in ending_at(a, src):
                for b in range(cutoff - m - a + 1):
                    for v in starting_at(b, tgt):
                        row = {}
                        for path, coeff in r.terms:
                            if a + len(path) + b > cutoff:
                                continue
                            col = u + path + v
                            row[col] = row.get(col, 0) + coeff
                        if row:
                            ech.insert(row)
    return ech


def _survivor_counts(ech, paths_by_deg, cutoff):
    counts = []
    for d in range(cutoff + 1):
        if d == 0:
            continue
        paths = paths_by_deg[d] if d < len(paths_by_deg) else []
        alive = sum(1 for path in paths if path not in ech.pivots)
        counts.append(alive)
    return counts


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
        NonStabilizationError: only if the path budget is exhausted before
        max_deg; plain non-stabilization at max_deg is reported through the
        stabilized flag.
    """
    if not linalg.is_prime(p):
        raise ValueError("field modulus %d is not prime" % p)
    if max_deg < 1:
        raise ValueError("max_deg must be >= 1")
    _validate_relations(q, rels)
    dims = [len(q.vertices)]
    levels = _PathLevels(q, path_budget)
    prev_counts = []
    for d in range(1, max_deg + 1):
        try:
            paths_by_deg = levels.ensure(d)
        except MemoryError as exc:
            raise NonStabilizationError(max_deg, dims, str(exc))
        ech = _run_elimination(q, rels, p, d, paths_by_deg)
        counts = _survivor_counts(ech, paths_by_deg, d)
        if counts[: len(prev_counts)] != prev_counts:
            raise RuntimeError(
                "internal error: pivot columns moved between cutoffs %d and %d"
                % (d - 1, d)
            )
        prev_counts = counts
        dims.append(counts[-1])
        if counts[-1] == 0:
            return dims[:-1], True
    return dims, False


@dataclass(frozen=True)
class FDAlgebra:
    """Basis, normal forms and multiplication table of a stabilized quotient.

    Basis elements are (source_vertex, arrow_id_tuple); the tuple is empty
    for the trivial path at a vertex.  multTable maps a pair of basis
    indices to a tuple of (basis_index, coefficient) pairs; absent keys
    mean the product is zero.
    """

    quiver: object
    field: int
    relations: object
    basis: tuple
    graded_dims: tuple
    mult_table: dict = dc_field(repr=False)
    arrow_nf: dict = dc_field(repr=False)
    _index: dict = dc_field(repr=False, default_factory=dict)

    @property
    def dim(self):
        return len(self.basis)

    @property
    def loewy_length(self):
        return len(self.graded_dims)

    def basis_index(self, element):
        return self._index[element]

    def basis_source(self, i):
        v, path = self.basis[i]
        return v

    def basis_target(self, i):
        v, path = self.basis[i]
        return v if not path else self.quiver.arrow(path[-1]).target

    def vertex_unit(self, v):
        """Index of the trivial path at a vertex."""
        return self._index[(v, ())]

    def mul(self, i, j):
        """Product of two basis elements as ((index, coeff), ...)."""
        return self.mult_table.get((i, j), ())

    def right_multiply_arrow(self, i, arrow_id):
        """Normal form of basis element i times an arrow, as ((index, coeff), ...)."""
        acc = {}
        for k, c in self.arrow_nf[arrow_id]:
            for b, c2 in self.mul(i, k):
                nv = (acc.get(b, 0) + c * c2) % self.field
                if nv:
                    acc[b] = nv
                else:
                    acc.pop(b, None)
        return tuple(sorted(acc.items()))

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
    surviving paths by length and lexicographic order) and the full
    multiplication table via back-substituted normal forms.

    Raises:
        NonStabilizationError: if no such k exists within max_deg or the
        path budget is exhausted first.
    """
    if not linalg.is_prime(p):
        raise ValueError("field modulus %d is not prime" % p)
    _validate_relations(q, rels)
    dims = [len(q.vertices)]
    levels = _PathLevels(q, path_budget)
    ech = None
    stop = None
    paths_by_deg = levels.by_deg
    prev_counts = []
    for d in range(1, max_deg + 1):
        try:
            paths_by_deg = levels.ensure(d)
        except MemoryError as exc:
            raise NonStabilizationError(max_deg, dims, str(exc))
        ech = _run_elimination(q, rels, p, d, paths_by_deg)
        counts = _survivor_counts(ech, paths_by_deg, d)
        if counts[: len(prev_counts)] != prev_counts:
            raise RuntimeError(
                "internal error: pivot columns moved between cutoffs %d and %d"
                % (d - 1, d)
            )
        prev_counts = counts
        dims.append(counts[-1])
        if counts[-1] == 0:
            stop = d
            break
    if stop is None:
        raise NonStabilizationError(max_deg, dims)
    dims = dims[:-1]

    # normal forms by back-substitution, processing columns in decreasing
    # order so every non-pivot entry of a pivot row is already resolved
    all_cols = []
    for d in range(1, stop + 1):
        all_cols.extend(paths_by_deg[d])
    all_cols.sort(key=_colkey)
    nf = {}
    for col in reversed(all_cols):
        piv = ech.pivots.get(col)
        if piv is None:
            nf[col] = {col: 1}
            continue
        acc = {}
        for k, v in piv.items():
            if k == col:
                continue
            for b, c in nf[k].items():
                nv = (acc.get(b, 0) - v * c) % p
                if nv:
                    acc[b] = nv
                else:
                    acc.pop(b, None)
        nf[col] = acc

    vertices = sorted(q.vertices)
    basis = [(v, ()) for v in vertices]
    for d in range(1, stop + 1):
        for path in paths_by_deg[d]:
            if path not in ech.pivots:
                basis.append((q.path_source(path), path))
    index = {el: i for i, el in enumerate(basis)}

    def nf_indices(path):
        out = []
        for b, c in sorted(nf[path].items(), key=lambda it: _colkey(it[0])):
            out.append((index[(q.path_source(b), b)], c))
        return tuple(out)

    arrow_nf = {x.id: nf_indices((x.id,)) for x in q.arrows}

    table = {}
    for i, (vi, pi) in enumerate(basis):
        ti = vi if not pi else q.arrow(pi[-1]).target
        for j, (vj, pj) in enumerate(basis):
            if vj != ti:
                continue
            if not pi and not pj:
                prod = ((j, 1),)
            elif not pi:
                prod = ((j, 1),)
            elif not pj:
                prod = ((i, 1),)
            else:
                joint = pi + pj
                if len(joint) >= stop:
                    continue
                prod = nf_indices(joint)
                if not prod:
                    continue
            table[(i, j)] = prod

    return FDAlgebra(
        quiver=q,
        field=p,
        relations=rels,
        basis=tuple(basis),
        graded_dims=tuple(dims),
        mult_table=table,
        arrow_nf=arrow_nf,
        _index=index,
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
        blocks = []
        for x in arrows:
            m = np.zeros((len(rows_v), len(rows_v)), dtype=np.int64)
            for k, bi in enumerate(rows_v):
                if a.basis_target(bi) != x.source:
                    continue
                for bj, c in a.right_multiply_arrow(bi, x.id):
                    m[k, loc[bj]] = c
            blocks.append(m)
        stacked = np.hstack(blocks) if blocks else np.zeros((len(rows_v), 0), dtype=np.int64)
        soc, _ = linalg.left_nullspace(stacked, p)
        support = set()
        for row in soc:
            for k in np.nonzero(row)[0]:
                support.add(a.basis_target(rows_v[int(k)]))
        witness[v] = {"socle_dim": int(soc.shape[0]), "support": sorted(support)}
        if soc.shape[0] != 1 or support != {v}:
            ok = False
    return ok, witness
