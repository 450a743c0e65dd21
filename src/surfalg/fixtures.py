"""Bundled triangulations and shipped quiver data.

Four triangulations are bundled:

* ``torus``: once-punctured torus, 3 loops, 2 triangles, valency 6.
* ``genus2``: genus-2 surface with one puncture, from the standard octagon
  with boundary word a b a- b- c d c- d- triangulated by a fan of
  diagonals from one corner; 9 loops, 6 triangles, valency 18.
* ``sphere5``: sphere with 5 punctures, with three self-folded triangles
  (valency-1 punctures inside loops); shipped for validation only, the
  derived quiver for this surface is shipped directly as data instead.
* ``tetra``: sphere with 4 punctures, the boundary of a tetrahedron; all
  valencies 3.  Valid and quiver-buildable, but excluded from growth and
  periodicity certificates.

The 5-puncture sphere quiver (9 vertices, 15 arrows) and the cyclic word
used to cut it down to a skewed-gentle presentation are shipped as explicit
data: deriving them would require reduction of 2-cycles, which is out of
scope here.
"""

from .surface import Arc, MarkedSurface, Triangulation
from .qp import Arrow, Potential, Quiver, Relation, RelationSet, \
    canonical_rotation

__all__ = [
    "BUILTIN_NAMES",
    "builtin_triangulation",
    "torus",
    "genus2",
    "sphere5_triangulation",
    "tetra",
    "sphere5_quiver",
    "sphere5_wprime",
    "kx2_algebra_data",
]

BUILTIN_NAMES = ("torus", "genus2", "sphere5", "tetra")


def torus():
    """Once-punctured torus: 3 loops at the single puncture, 2 triangles."""
    surface = MarkedSurface(1, ("p",))
    arcs = (
        Arc("1", ("p", "p")),
        Arc("2", ("p", "p")),
        Arc("3", ("p", "p")),
    )
    triangles = (("1", "2", "3"), ("1", "2", "3"))
    return Triangulation(surface, arcs, triangles)


def genus2():
    """Genus-2 surface with one puncture.

    Octagon with edge word a b a- b- c d c- d-, all corners glued to the
    single puncture, triangulated by the fan of diagonals d1..d5 from the
    first corner.  Every arc is a loop; the puncture has valency 18.
    """
    surface = MarkedSurface(2, ("p",))
    names = ("a", "b", "c", "d", "d1", "d2", "d3", "d4", "d5")
    arcs = tuple(Arc(n, ("p", "p")) for n in names)
    triangles = (
        ("a", "b", "d1"),
        ("d1", "a", "d2"),
        ("d2", "b", "d3"),
        ("d3", "c", "d4"),
        ("d4", "d", "d5"),
        ("d5", "c", "d"),
    )
    return Triangulation(surface, arcs, triangles)


def sphere5_triangulation():
    """Sphere with 5 punctures, with three self-folded triangles.

    Punctures p1, p2, p3 each sit inside a loop (arcs L1, L2, L3 based at
    p4 or p5) with an enclosed arc (A1, A2, A3) forming a self-folded
    triangle; arcs M1, M2, M3 run between p4 and p5.  Useful for the
    validation counts; the quiver builder rejects it (self-folded
    triangles, valency-1 punctures).
    """
    surface = MarkedSurface(0, ("p1", "p2", "p3", "p4", "p5"))
    arcs = (
        Arc("A1", ("p1", "p4")),
        Arc("L1", ("p4", "p4")),
        Arc("A2", ("p2", "p5")),
        Arc("L2", ("p5", "p5")),
        Arc("A3", ("p3", "p4")),
        Arc("L3", ("p4", "p4")),
        Arc("M1", ("p4", "p5")),
        Arc("M2", ("p4", "p5")),
        Arc("M3", ("p4", "p5")),
    )
    triangles = (
        ("A1", "A1", "L1"),
        ("A2", "A2", "L2"),
        ("A3", "A3", "L3"),
        ("M1", "L1", "M2"),
        ("M3", "L2", "M2"),
        ("M3", "L3", "M1"),
    )
    return Triangulation(surface, arcs, triangles)


def tetra():
    """Sphere with 4 punctures: the boundary of a tetrahedron.

    Six arcs eij between punctures qi and qj, four triangles, all
    valencies 3.  The quiver builds, but the surface is excluded from the
    certified growth and periodicity statements.
    """
    surface = MarkedSurface(0, ("q1", "q2", "q3", "q4"))
    arcs = (
        Arc("e12", ("q1", "q2")),
        Arc("e13", ("q1", "q3")),
        Arc("e14", ("q1", "q4")),
        Arc("e23", ("q2", "q3")),
        Arc("e24", ("q2", "q4")),
        Arc("e34", ("q3", "q4")),
    )
    triangles = (
        ("e12", "e23", "e13"),
        ("e13", "e34", "e14"),
        ("e14", "e24", "e12"),
        ("e24", "e34", "e23"),
    )
    return Triangulation(surface, arcs, triangles)


def builtin_triangulation(name):
    if name == "torus":
        return torus()
    if name == "genus2":
        return genus2()
    if name == "sphere5":
        return sphere5_triangulation()
    if name == "tetra":
        return tetra()
    raise KeyError(
        "unknown builtin %r (choose from %s)" % (name, ", ".join(BUILTIN_NAMES))
    )


def sphere5_quiver():
    """The 9-vertex, 15-arrow quiver attached to the 5-puncture sphere.

    Shipped as data (see module docstring).  Vertices are named "1".."9".
    """
    vertices = tuple(str(i) for i in range(1, 10))
    arrows = (
        Arrow("a1", "1", "4"),
        Arrow("a2", "7", "4"),
        Arrow("a3", "7", "1"),
        Arrow("b1", "4", "2"),
        Arrow("b2", "4", "3"),
        Arrow("b3", "4", "5"),
        Arrow("b4", "4", "6"),
        Arrow("b5", "1", "8"),
        Arrow("b6", "1", "9"),
        Arrow("c1", "2", "1"),
        Arrow("c2", "3", "1"),
        Arrow("c3", "5", "7"),
        Arrow("c4", "6", "7"),
        Arrow("c5", "8", "7"),
        Arrow("c6", "9", "7"),
    )
    return Quiver(vertices, arrows)


def sphere5_wprime():
    """The two-cycle potential b5 c5 a2 b1 c1 + a1 b4 c4 a3 on sphere5_quiver.

    Its cyclic derivatives cut the algebra of the 5-puncture sphere down to
    the skewed-gentle presentation returned by strings.sphere5_presentation.
    """
    terms = {
        canonical_rotation(("b5", "c5", "a2", "b1", "c1")): 1,
        canonical_rotation(("a1", "b4", "c4", "a3")): 1,
    }
    return Potential(terms)


def kx2_algebra_data():
    """Quiver and relations of k[x]/(x^2): one vertex, one loop, x^2 = 0.

    The smallest weakly symmetric algebra with a non-projective simple;
    its simple sits in a rank-1 tube and serves as a reference point for
    the periodicity reports.
    """
    q = Quiver(("1",), (Arrow("x", "1", "1"),))
    rels = RelationSet((Relation.from_dict({("x", "x"): 1}),))
    return q, rels
