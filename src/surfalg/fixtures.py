"""Bundled triangulations and shipped quiver data.

Four triangulations are bundled, each as one JSON document
builtins/<name>.json of this package, in the triangulation file format.
builtin_triangulation reads a document when it is asked for one (never
at import), through surface.triangulation_from_json and so through the
field table of surface.read_fields, like any --input file:

* ``torus``: once-punctured torus, 3 loops, 2 triangles, valency 6.
* ``genus2``: genus-2 surface with one puncture, from the standard octagon
  with boundary word a b a- b- c d c- d- triangulated by the fan of
  diagonals d1..d5 from one corner; 9 loops, 6 triangles, valency 18.
* ``sphere5``: sphere with 5 punctures, with three self-folded triangles:
  punctures p1, p2, p3 each sit inside a loop L1, L2, L3 based at p4 or p5,
  with an enclosed arc A1, A2, A3; arcs M1, M2, M3 run between p4 and p5.
  Shipped for validation only (the quiver builder refuses self-folded
  triangles); the derived quiver for this surface is shipped as data.
* ``tetra``: sphere with 4 punctures, the boundary of a tetrahedron, with
  arcs eij between punctures qi and qj; all valencies 3.  Valid and
  quiver-buildable, but excluded from growth and periodicity certificates.

The 5-puncture sphere quiver (9 vertices, 15 arrows) and the cyclic word
used to cut it down to a skewed-gentle presentation are shipped as explicit
data: deriving them would require reduction of 2-cycles, which is out of
scope here.
"""

from .surface import triangulation_from_json
from .qp import Arrow, Potential, Quiver, Relation, RelationSet, \
    canonical_rotation

__all__ = [
    "BUILTIN_NAMES",
    "builtin_triangulation",
    "torus",
    "sphere5_quiver",
    "sphere5_wprime",
    "kx2_algebra_data",
]

BUILTIN_NAMES = ("torus", "genus2", "sphere5", "tetra")


def builtin_triangulation(name):
    """The bundled triangulation called name, read from its document."""
    if name not in BUILTIN_NAMES:
        raise KeyError("unknown builtin %r (choose from %s)"
                       % (name, ", ".join(BUILTIN_NAMES)))
    from importlib import resources

    doc = resources.files(__package__) / "builtins" / ("%s.json" % name)
    return triangulation_from_json(doc.read_text(encoding="utf-8"))


def torus():
    """Once-punctured torus: 3 loops at the single puncture, 2 triangles."""
    return builtin_triangulation("torus")


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
