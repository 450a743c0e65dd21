"""Finite basis and right action of the arrows for the relation quotient.

The algebra is the quotient of the COMPLETE path algebra of a quiver by the
closed two-sided ideal generated by a finite set of relations (each relation
a linear combination of parallel composable paths).  The computation is a
truncated noncommutative standard basis over F_p; see E. L. Green,
*Noncommutative Groebner bases, and projective resolutions* (1999).

Paths are ordered by length, then by their arrow-id sequences
lexicographically, and the tip of an element is its least path.  For a
cutoff c, the image I_c of the closed ideal in the quotient by paths of
length > c is spanned by the truncations of u * r * v over relations r and
composable padding paths u, v.  The order respects concatenation, so the
tips of I_c form a monomial ideal, the paths that contain no tip (the
survivors) are closed under subpaths, and the tips of length <= d are the
same for every cutoff c >= d.  Buchberger's algorithm, with paths longer
than max_deg dropped, reduces the relations and the S-polynomials of tip
overlaps in order of degree.  Once nothing of degree <= d is pending, the
survivors of length d are those of length d - 1 times one arrow, less the
paths that end in a tip, and they are a basis of the d-th radical layer.

The first length k with zero surviving paths proves that the radical powers
stabilize, hence vanish, at k: the algebra is finite dimensional with basis
the surviving paths of length < k, and any product of total length >= k is
zero.  If no such k appears up to max_deg the computation reports
non-stabilization instead of guessing.  The path budget caps the survivors
and the tips held; crossing it names the degree.

compute_basis is the module's one entry point.  It returns the FDAlgebra,
or raises NonStabilizationError, which carries the graded dimensions
computed up to the degree where it stopped.  The FDAlgebra stores, once,
what its readers need: the sorted vertices, the arrows in id order, the
basis and its index, the position of each basis path's prefix (prefix),
the end vertex of each basis path (ends), the paths from each vertex
(paths_from, the basis of its projective) and the right action.

The normal form of a path is its reduction by the standard basis with the
paths of length >= k dropped: the unique combination of survivors
congruent to it modulo the ideal.  The algebra keeps one right action, the
normal form of each basis path times each arrow leaving its end, and reads
every product from it one arrow at a time.
"""

import collections
from functools import cached_property

import numpy as np

from . import linalg

__all__ = [
    "NonStabilizationError",
    "FDAlgebra",
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


def _key(path):
    return len(path), path


class _StandardBasis:
    """Standard basis over F_p of the ideal truncated past a degree limit.

    Each element is a dict from paths to nonzero coefficients whose tip,
    its least path in the (length, lex) order, has coefficient 1; it is
    stored under its tip.  No tip contains another, so a path contains a
    tip exactly when it is divisible by an element.  by_prefix and
    by_suffix map each proper prefix and suffix of a tip to the tips that
    have it, to find the overlaps of a new tip.
    """

    def __init__(self, p, limit):
        self.p = p
        self.limit = limit
        self.elements = {}
        self.lengths = []
        self.by_prefix = {}
        self.by_suffix = {}

    def tip_ending(self, path):
        """The tip that path ends in, or None."""
        for n in self.lengths:
            if n > len(path):
                break
            if path[-n:] in self.elements:
                return path[-n:]
        return None

    def tip_in(self, path):
        """(start, tip) of the tip that ends first in path, or None."""
        for j in range(1, len(path) + 1):
            tip = self.tip_ending(path[:j])
            if tip is not None:
                return j - len(tip), tip
        return None

    def subtract(self, acc, c, left, tip, right, limit):
        """acc -= c * left * element(tip) * right, paths past limit dropped."""
        p, extra = self.p, len(left) + len(right)
        for path, v in self.elements[tip].items():
            if len(path) + extra <= limit:
                w = left + path + right
                nv = (acc.get(w, 0) - c * v) % p
                if nv:
                    acc[w] = nv
                else:
                    acc.pop(w, None)

    def reduce(self, poly, limit, top=None):
        """Rewrite poly in place by tips until its terms are irreducible.

        With top set, stop instead at the first least term that is longer
        than top or irreducible, and return that term (None when poly
        vanishes).
        """
        done = {}
        while poly:
            m = min(poly, key=_key)
            if top is not None and len(m) > top:
                return m
            if len(m) > limit:
                del poly[m]
                continue
            hit = self.tip_in(m)
            if hit is None:
                if top is not None:
                    return m
                done[m] = poly.pop(m)
                continue
            i, tip = hit
            self.subtract(poly, poly[m], m[:i], tip, m[i + len(tip):], limit)
        poly.update(done)
        return None

    def add(self, poly, tip):
        """Store poly under its irreducible tip; return the overlaps it makes
        with the stored tips as (degree, (left tip, C, A, right tip)), whose
        S-polynomial is left * C - A * right."""
        inv = linalg.inv_mod(poly[tip], self.p)
        self.elements[tip] = {m: c * inv % self.p for m, c in poly.items()}
        n = len(tip)
        if n not in self.lengths:
            self.lengths.append(n)
            self.lengths.sort()
        for j in range(1, n):
            self.by_prefix.setdefault(tip[:j], []).append(tip)
            self.by_suffix.setdefault(tip[j:], []).append(tip)
        pairs = []
        for j in range(1, n):
            for right in self.by_prefix.get(tip[j:], ()):
                pairs.append((j + len(right),
                              (tip, right[n - j:], tip[:j], right)))
            for left in self.by_suffix.get(tip[:j], ()):
                if left != tip:
                    pairs.append((len(left) - j + n,
                                  (left, tip[j:], left[:len(left) - j], tip)))
        return [(d, pair) for d, pair in pairs if d <= self.limit]

    def s_polynomial(self, left, c, a, right):
        """left * c - a * right for an overlap returned by add."""
        acc = {}
        self.subtract(acc, self.p - 1, (), left, c, self.limit)
        self.subtract(acc, 1, a, right, (), self.limit)
        return acc


def _eliminate(q, rels, p, max_deg, path_budget, arrows_from):
    """The degree loop of compute_basis, its one caller.

    Buchberger's algorithm for the (length, lex) order on paths of length
    at most max_deg: the relations and the S-polynomials of tip overlaps
    are reduced in order of degree, and layer d is final once nothing
    pending has degree d or less.  Its survivors are those of layer d - 1
    times one arrow, less the paths that end in a tip; arrows_from maps
    every vertex to the ids of the arrows leaving it, in id order.

    Returns (dims, stop, layers, sb): stop is the first length with no
    surviving path and dims lists the layers below it, or stop is None and
    dims covers 0..max_deg; layers[d] lists the survivors of length d >= 1
    in lex order and sb is the standard basis.  Raises
    NonStabilizationError if more survivors or tips than the path budget
    are held.
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
    sb = _StandardBasis(p, max_deg)
    pending = {}
    for r in rels.generators:
        poly = {}
        for path, c in r.terms:
            if len(path) <= max_deg and c % p:
                poly[path] = c % p
        if poly:
            pending.setdefault(len(min(poly, key=_key)), []).append(poly)
    target = {a.id: a.target for a in q.arrows}

    dims = [len(q.vertices)]
    layers = [[]]
    held = 0
    for d in range(1, max_deg + 1):
        for item in pending.pop(d, ()):
            poly = item if isinstance(item, dict) else sb.s_polynomial(*item)
            m = sb.reduce(poly, max_deg, top=d)
            if m is None:
                continue
            if len(m) > d:
                pending.setdefault(len(m), []).append(poly)
                continue
            for deg, pair in sb.add(poly, m):
                pending.setdefault(deg, []).append(pair)
        if d == 1:
            layer = [(x,) for x in sorted(target) if (x,) not in sb.elements]
        else:
            layer = [
                path + (x,) for path in layers[-1]
                for x in arrows_from[target[path[-1]]]
                if sb.tip_ending(path + (x,)) is None
            ]
        held += len(layer)
        if held > path_budget or len(sb.elements) > path_budget:
            raise NonStabilizationError(
                max_deg, dims, "path budget exceeded at degree %d" % d)
        if not layer:
            return dims, d, layers, sb
        dims.append(len(layer))
        layers.append(layer)
    return dims, None, layers, sb


class FDAlgebra(collections.namedtuple(
        "FDAlgebra", "quiver field vertices basis graded_dims arrows index "
        "prefix ends paths_from action")):
    """Basis, normal forms and right action of a stabilized quotient.

    vertices is the sorted vertex tuple: the order of the trivial paths at
    the head of the basis and of every dimension vector; arrows is the
    quiver's arrow tuple sorted by id, the order every loop over the arrows
    takes.  Basis elements are (source_vertex, arrow_id_tuple); the tuple
    is empty for the trivial path at a vertex.  index maps each basis
    element to its position, prefix holds the position of each element's
    prefix (the path less its last arrow; None for a trivial path), ends
    holds the end vertex of each, and paths_from maps each vertex v to the
    positions of the elements starting at v, the basis of the projective
    e_v A, in basis order, so that each path comes after its prefix.
    action maps (i, x), for each arrow x leaving ends[i], to the normal
    form of path i times x as a tuple of (basis_index, coefficient) pairs,
    empty when it is zero.
    """

    # no __slots__: weak_symmetry and mult_table are cached in the
    # instance's __dict__

    def __repr__(self):
        # the tables from arrows on are left out
        return ("FDAlgebra(quiver=%r, field=%r, vertices=%r, basis=%r, "
                "graded_dims=%r)" % self[:5])

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

    @cached_property
    def mult_table(self):
        """Nonzero products (i, j) -> ((index, coeff), ...), found by
        multiplying i by the arrows of path j one at a time."""
        p = self.field
        table = {}
        for i in range(self.dim):
            for j in self.paths_from[self.ends[i]]:
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


def compute_basis(q, rels, p=linalg.DEFAULT_PRIME, max_deg=DEFAULT_MAX_DEG,
                  path_budget=DEFAULT_PATH_BUDGET):
    """Compute the finite-dimensional quotient, or fail honestly.

    Grows the standard basis to the first length k at which no path
    survives, then assembles the basis (trivial paths first, then the
    surviving paths by length and lexicographic order) and the right action
    of the arrows on it: each basis path times an arrow, reduced by the
    standard basis with the paths of length >= k dropped.

    Raises:
        ValueError: if p is not prime or (p-1)^2 >= 2^63, or max_deg or
        path_budget is < 1.
        NonStabilizationError: if no such k exists within max_deg or more
        survivors or tips than the path budget are held first.
    """
    vertices = tuple(sorted(q.vertices))
    arrows = tuple(sorted(q.arrows, key=lambda x: x.id))
    arrows_from = {v: [] for v in vertices}
    for x in arrows:
        arrows_from[x.source].append(x.id)
    dims, stop, layers, sb = _eliminate(q, rels, p, max_deg, path_budget,
                                        arrows_from)
    if stop is None:
        raise NonStabilizationError(max_deg, dims)

    basis = [(v, ()) for v in vertices]
    basis += [(q.path_source(path), path)
              for layer in layers for path in layer]
    index = {el: i for i, el in enumerate(basis)}
    ends = tuple(q.path_target(path) if path else v for v, path in basis)
    paths_from = {v: [] for v in vertices}
    action = {}
    for i, (v, path) in enumerate(basis):
        paths_from[v].append(i)
        for x in arrows_from[ends[i]]:
            j = index.get((v, path + (x,)))
            if j is not None:  # a basis path holds no tip: no reduction
                action[(i, x)] = ((j, 1),)
                continue
            nf = {path + (x,): 1}
            sb.reduce(nf, stop - 1)
            action[(i, x)] = tuple(sorted((index[v, m], c)
                                          for m, c in nf.items()))

    return FDAlgebra(
        quiver=q,
        field=p,
        vertices=vertices,
        arrows=arrows,
        basis=tuple(basis),
        index=index,
        prefix=tuple(index[v, path[:-1]] if path else None
                     for v, path in basis),
        ends=ends,
        paths_from={v: tuple(ix) for v, ix in paths_from.items()},
        graded_dims=tuple(dims),
        action=action,
    )


def cartan_matrix(a):
    """Counts of basis paths between vertices, as an int64 matrix in
    a.vertices order; entry (i, j) counts the paths from vertex i to j."""
    pos = {v: i for i, v in enumerate(a.vertices)}
    m = np.zeros((len(pos), len(pos)), dtype=np.int64)
    for (v, _), w in zip(a.basis, a.ends):
        m[pos[v], pos[w]] += 1
    return m


def check_weakly_symmetric(a):
    """Socle test: each projective has 1-dimensional socle at its own vertex.

    The socle of the projective at v consists of the elements of e_v A
    killed by right multiplication with every arrow.  Returns
    (flag, witness) where witness records per vertex the socle dimension
    and the vertices supporting it.
    """
    p = a.field
    witness = {}
    ok = True
    for v in a.vertices:
        rows_v = a.paths_from[v]
        loc = {bi: k for k, bi in enumerate(rows_v)}
        n = len(rows_v)
        stacked = np.zeros((n, len(a.arrows) * n), dtype=np.int64)
        for k, bi in enumerate(rows_v):
            for t, x in enumerate(a.arrows):
                for bj, c in a.action.get((bi, x.id), ()):
                    stacked[k, t * n + loc[bj]] = c
        soc, _ = linalg.left_nullspace(stacked, p)
        support = set()
        for row in soc:
            for k in np.nonzero(row)[0]:
                support.add(a.ends[rows_v[int(k)]])
        witness[v] = {"socle_dim": int(soc.shape[0]), "support": sorted(support)}
        if soc.shape[0] != 1 or support != {v}:
            ok = False
    return ok, witness
