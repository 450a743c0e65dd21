"""Quiver with potential of a triangulation, and the f/g arrow permutations.

Path composition reads LEFT TO RIGHT throughout the package: a sequence of
arrows (l1, ..., ln) is composable iff target(l_i) = source(l_{i+1}).

For a triangulation with no self-folded triangles and all valencies >= 3:

* every triangle (a, b, c), listed in the cyclic order induced by the
  surface orientation, contributes the arrows a -> b, b -> c, c -> a;
* f cycles the three arrows of each triangle, so x f(x) f^2(x) is a
  3-cycle and f^3 = id;
* g sends an arrow x to the arrow out of target(x) that belongs to the
  other triangle containing the arc target(x); the orbit
  (x)(g x)(g^2 x)... is a composable cycle surrounding one puncture, and
  its length equals the valency of that puncture.  The g-orbits are the
  corner cycles of surface.validate_triangulation (x{i}_s sits at corner
  (i, s)), read with their punctures; qp never reads arc endpoints.

arrow_maps(t) is the one constructor: it validates t once and returns the
quiver together with f, g and their orbits, each g-orbit with its
puncture.  The orbits are stored once, starting at their least arrow ids and
sorted by them, and build_potential, the string quotient and the build
command read them as stored.

The potential is the sum of the triangle 3-cycles (coefficient +1) minus,
for each puncture q, lambda_q times the cycle surrounding q (lambda_q = 1
by default).  Its cyclic derivatives generate the relation ideal of the
algebra module.
"""

import collections
import json
from typing import NamedTuple

__all__ = [
    "Arrow",
    "Quiver",
    "Potential",
    "ArrowMaps",
    "Relation",
    "RelationSet",
    "canonical_rotation",
    "build_quiver",
    "arrow_maps",
    "build_potential",
    "cyclic_derivative",
    "jacobian_relations",
    "quiver_to_dot",
    "quiver_to_json",
    "potential_to_json",
]


class Arrow(NamedTuple):
    id: str
    source: str
    target: str


class Quiver(collections.namedtuple("Quiver", "vertices arrows")):
    # no __slots__: each quiver keeps its arrows by id in _by_id

    def __new__(cls, vertices, arrows):
        self = super().__new__(cls, tuple(vertices), tuple(arrows))
        ids = [a.id for a in self.arrows]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate arrow ids")
        vset = set(self.vertices)
        for a in self.arrows:
            if a.source not in vset or a.target not in vset:
                raise ValueError(
                    "arrow %r has endpoint outside the vertex set" % a.id
                )
        self._by_id = {a.id: a for a in self.arrows}
        return self

    def arrow(self, arrow_id):
        try:
            return self._by_id[arrow_id]
        except KeyError:
            raise KeyError("unknown arrow id %r" % (arrow_id,))

    def path_source(self, path):
        return self.arrow(path[0]).source

    def path_target(self, path):
        return self.arrow(path[-1]).target

    def is_composable(self, path):
        """True iff consecutive arrows chain: target of each = source of next."""
        for x, y in zip(path, path[1:]):
            if self.arrow(x).target != self.arrow(y).source:
                return False
        return True


def canonical_rotation(path):
    """Lexicographically least rotation of a cyclic arrow-id sequence."""
    path = tuple(path)
    if not path:
        raise ValueError("empty cyclic path")
    n = len(path)
    best = path
    for k in range(1, n):
        cand = path[k:] + path[:k]
        if cand < best:
            best = cand
    return best


class Potential(collections.namedtuple("Potential", "terms")):
    """Finite map from canonical cyclic paths to nonzero coefficients."""

    __slots__ = ()

    def __new__(cls, terms):
        clean = {}
        for path, coeff in terms.items():
            path = tuple(path)
            if coeff == 0:
                continue
            if canonical_rotation(path) != path:
                raise ValueError(
                    "potential term %r is not stored as its canonical rotation"
                    % (path,)
                )
            clean[path] = coeff
        return super().__new__(cls, clean)

    def arrows_used(self):
        used = set()
        for path in self.terms:
            used.update(path)
        return used


class Relation(NamedTuple):
    """A scalar linear combination of parallel composable paths."""

    terms: tuple  # ((path_tuple, coeff), ...) sorted by (len, path)

    @staticmethod
    def from_dict(d):
        items = [(tuple(p), int(c)) for p, c in d.items() if c != 0]
        items.sort(key=lambda it: (len(it[0]), it[0]))
        return Relation(tuple(items))


class RelationSet(collections.namedtuple("RelationSet", "generators")):
    __slots__ = ()

    def __new__(cls, generators):
        generators = tuple(generators)
        for r in generators:
            if not r.terms:
                raise ValueError("zero relation in relation set")
        return super().__new__(cls, generators)


class ArrowMaps(NamedTuple):
    """The quiver of a triangulation, its triangle rotation f and its
    puncture rotation g, with the orbits of both.

    f and g are permutations of the quiver's arrow ids.  f_orbits lists the
    triangles' 3-cycles and g_orbits the (puncture, arrows) pair of the
    cycle around each puncture.  Each orbit starts at its least arrow id, in
    g's composable order (x, gx, ...) for g, and the orbits are sorted by
    that id in string order (x10_1 before x2_1).
    """

    quiver: Quiver
    f: dict
    g: dict
    f_orbits: tuple
    g_orbits: tuple

    def g_orbit(self, arrow_id):
        """The g-orbit of an arrow, in composable cyclic order (x, gx, ...)."""
        orb = [arrow_id]
        cur = self.g[arrow_id]
        while cur != arrow_id:
            orb.append(cur)
            cur = self.g[cur]
        return tuple(orb)


def _arrow_id(tri_index, slot):
    return "x%d_%d" % (tri_index, slot)


def arrow_maps(t):
    """The quiver of a triangulation, with its arrow permutations f and g.

    The quiver has one vertex per arc, and triangle i with sides (a, b, c)
    contributes arrows x{i}_0: a -> b, x{i}_1: b -> c, x{i}_2: c -> a.
    f(x{i}_s) = x{i}_{s+1 mod 3} rotates each triangle's 3-cycle.  Arrow
    x{i}_s sits at corner (i, s) of triangle i, and g walks the corners
    around each puncture as surface.validate_triangulation reports them:
    g(x) is the arrow out of target(x) in the other triangle containing the
    arc target(x), and each g-orbit surrounds the puncture of its cycle.

    t is validated once, here.  It must be valid, with no self-folded
    triangles and all valencies >= 3.  The quiver then has no 2-cycles:
    arrows a -> b and b -> a would form a g-orbit of length 2, the corner
    cycle of a valency-2 puncture.
    """
    from . import surface as _surface

    report = _surface.validate_triangulation(t)
    if not report.ok:
        raise ValueError("invalid triangulation: %s" % (report,))
    if _surface.has_self_folded(t):
        bad = [tri for tri in t.triangles if len(set(tri)) < 3]
        raise ValueError(
            "triangulation has self-folded triangle(s): %s" % (bad,)
        )
    valency = {p: len(corners) for p, corners in report.cycles}
    for p in t.surface.punctures:
        if valency[p] < 3:
            raise ValueError(
                "puncture %r has valency %d < 3; quiver construction needs "
                "all valencies >= 3" % (p, valency[p])
            )
    arrows, f, f_orbits = [], {}, []
    for i, tri in enumerate(t.triangles):
        orb = tuple(_arrow_id(i, s) for s in range(3))
        arrows += [Arrow(orb[s], tri[s], tri[(s + 1) % 3]) for s in range(3)]
        f.update(zip(orb, orb[1:] + orb[:1]))
        f_orbits.append(orb)
    g, g_orbits = {}, []
    for p, corners in report.cycles:
        orb = tuple(_arrow_id(*divmod(c, 3)) for c in corners)
        g.update(zip(orb, orb[1:] + orb[:1]))
        g_orbits.append((p, canonical_rotation(orb)))
    quiver = Quiver(tuple(a.id for a in t.arcs), tuple(arrows))
    return ArrowMaps(quiver, f, g, tuple(sorted(f_orbits)),
                     tuple(sorted(g_orbits, key=lambda po: po[1])))


def build_quiver(t):
    """The quiver of arrow_maps(t)."""
    return arrow_maps(t).quiver


def build_potential(maps, puncture_scalars=None):
    """Triangle 3-cycles plus scaled puncture cycles.

    One term per triangle (its f-orbit, coefficient +1) and one term per
    puncture of maps (the surrounding g-cycle, coefficient -lambda_q;
    lambda_q defaults to 1 for punctures missing from puncture_scalars, and
    puncture_scalars=None enables that default for all of them).
    """
    scalars = dict(puncture_scalars or {})
    punctures = {p for p, _ in maps.g_orbits}
    for p in scalars:
        if p not in punctures:
            raise KeyError("scalar for unknown puncture %r" % (p,))
        if scalars[p] == 0:
            raise ValueError("puncture scalar for %r must be nonzero" % (p,))
    terms = dict.fromkeys(maps.f_orbits, 1)
    for p, orb in maps.g_orbits:
        terms[orb] = terms.get(orb, 0) - scalars.get(p, 1)
    return Potential(terms)


def cyclic_derivative(w, a):
    """Cyclic derivative of a potential with respect to one arrow.

    For each term c * (l1 ... ln) and each position i with l_i = a this
    contributes c * (l_{i+1} ... l_n l_1 ... l_{i-1}): the derivative
    starts right after the removed occurrence.  Returns a dict mapping
    path tuples to coefficients (zero coefficients dropped).
    """
    out = {}
    for path, coeff in w.terms.items():
        n = len(path)
        for i in range(n):
            if path[i] != a:
                continue
            rot = path[i + 1 :] + path[:i]
            out[rot] = out.get(rot, 0) + coeff
    return {p: c for p, c in out.items() if c != 0}


def jacobian_relations(w):
    """One generator per arrow with nonzero cyclic derivative."""
    gens = []
    for a in sorted(w.arrows_used()):
        d = cyclic_derivative(w, a)
        if d:
            gens.append(Relation.from_dict(d))
    return RelationSet(tuple(gens))


def quiver_to_dot(q):
    """DOT export with stable (sorted) vertex and arrow ordering."""
    lines = ["digraph quiver {"]
    for v in sorted(q.vertices):
        lines.append('  "%s";' % v)
    for a in sorted(q.arrows, key=lambda a: a.id):
        lines.append('  "%s" -> "%s" [label="%s"];' % (a.source, a.target, a.id))
    lines.append("}")
    return "\n".join(lines) + "\n"


def quiver_to_json(q):
    doc = {
        "vertices": list(q.vertices),
        "arrows": [
            {"id": a.id, "source": a.source, "target": a.target}
            for a in q.arrows
        ],
    }
    return json.dumps(doc, indent=2)


def potential_to_json(w):
    doc = {
        "terms": [
            {"cycle": list(path), "coefficient": coeff}
            for path, coeff in sorted(w.terms.items())
        ]
    }
    return json.dumps(doc, indent=2)
