"""Triangulations of closed oriented marked surfaces.

A triangulation is stored combinatorially: arcs with endpoint punctures
(loops allowed) and triangles as cyclically ordered triples of arc ids.  The
cyclic order of each triangle follows the surface orientation (sides listed
clockwise); arrow directions of the derived quiver depend on it.

Counting invariants for an ideal triangulation of a closed surface of genus g
with p punctures:

    #arcs      = 6 g - 6 + 3 p
    #triangles = (2/3) #arcs
    sum of valencies = 2 #arcs   (a loop counts twice at its puncture)

The two slots of an arc are glued with reversed orientation, so corner
(i, s), between sides s and s+1 of triangle i, is followed around its
puncture by corner (j, u), where (j, u) is the other slot of side s+1.  Only
this module maps corners to punctures: a cycle's puncture ends both sides at
each of its corners and has the cycle length as valency.  A valid
triangulation has one cycle per puncture, arc endpoints where the cycles put
them, #cycles - #arcs + #triangles = 2 - 2 g, and one connected piece.

Every JSON document the program reads (this triangulation format, the
specs, module files and certificates) is checked against its field table
by one reader, read_fields.
"""

import collections
import json
from typing import NamedTuple

__all__ = [
    "MarkedSurface",
    "Arc",
    "Triangulation",
    "ValidationReport",
    "validate_triangulation",
    "valency",
    "has_self_folded",
    "excluded_for_certificates",
    "triangulation_to_json",
    "triangulation_from_json",
    "Optional",
    "read_fields",
]


class MarkedSurface(collections.namedtuple("MarkedSurface",
                                           "genus punctures")):
    __slots__ = ()

    def __new__(cls, genus, punctures):
        return super().__new__(cls, genus, tuple(punctures))


class Arc(collections.namedtuple("Arc", "id endpoints")):
    """An arc between two punctures; endpoints may coincide (a loop)."""

    __slots__ = ()

    def __new__(cls, id, endpoints):
        endpoints = tuple(endpoints)
        if len(endpoints) != 2:
            raise ValueError("arc %r must have exactly two endpoints" % id)
        return super().__new__(cls, id, endpoints)


class Triangulation(collections.namedtuple("Triangulation",
                                           "surface arcs triangles")):
    __slots__ = ()

    def __new__(cls, surface, arcs, triangles):
        triangles = tuple(tuple(t) for t in triangles)
        for tri in triangles:
            if len(tri) != 3:
                raise ValueError(
                    "triangle %r does not have three sides" % (tri,))
        return super().__new__(cls, surface, tuple(arcs), triangles)


class ValidationReport(NamedTuple):
    violations: tuple
    cycles: tuple = ()  # (puncture or None, corners 3i+s) per corner cycle

    @property
    def ok(self):
        return len(self.violations) == 0

    def __str__(self):
        if self.ok:
            return "valid"
        return "; ".join(self.violations)


def validate_triangulation(t):
    """Check the structural and counting invariants of a triangulation.

    Violations are data, not faults: the report lists every failed
    invariant once, in the order first found, and is empty iff all of
    them hold.
    """
    v = []
    punctures = t.surface.punctures
    if len(punctures) == 0:
        v.append("no punctures")
    if any(p == "" for p in punctures):
        v.append("empty puncture identifier")
    if len(set(punctures)) != len(punctures):
        v.append("duplicate puncture identifiers")
    if t.surface.genus < 0:
        v.append("negative genus")

    arc_ids = [a.id for a in t.arcs]
    if any(i == "" for i in arc_ids):
        v.append("empty arc identifier")
    if len(set(arc_ids)) != len(arc_ids):
        v.append("duplicate arc identifiers")
    known = set(arc_ids)
    pset = set(punctures)
    for a in t.arcs:
        for q in a.endpoints:
            if q not in pset:
                v.append("arc %r has unknown endpoint %r" % (a.id, q))

    expected_arcs = 6 * t.surface.genus - 6 + 3 * len(punctures)
    if len(t.arcs) != expected_arcs:
        v.append(
            "arc count %d != 6*genus - 6 + 3*punctures = %d"
            % (len(t.arcs), expected_arcs)
        )
    if 3 * len(t.triangles) != 2 * len(t.arcs):
        v.append(
            "3 * triangle count (%d) != 2 * arc count (%d)"
            % (3 * len(t.triangles), 2 * len(t.arcs))
        )

    slot_count = {}
    for tri in t.triangles:
        for arc_id in tri:
            if arc_id not in known:
                v.append("unknown arc %r in triangle %r" % (arc_id, tri))
            slot_count[arc_id] = slot_count.get(arc_id, 0) + 1
    for arc_id in arc_ids:
        c = slot_count.get(arc_id, 0)
        if c != 2:
            v.append(
                "arc %r appears in %d triangle slots, expected 2" % (arc_id, c)
            )
    cycles = () if v else _corner_cycles(t, v)
    return ValidationReport(tuple(dict.fromkeys(v)), cycles)


def _corner_cycles(t, v):
    """Walk the corners around each puncture; append gluing violations to v."""
    flat = [arc for tri in t.triangles for arc in tri]
    after, last = [0] * len(flat), {}
    for c, arc in enumerate(flat):
        if arc in last:  # the corners before slots c and d come to d and c
            d = last[arc]
            after[c - 1 if c % 3 else c + 2] = d
            after[d - 1 if d % 3 else d + 2] = c
        last[arc] = c
    ends = {a.id: a.endpoints for a in t.arcs}
    cycles, at = [], [-1] * len(flat)  # the cycle of each corner
    for start in range(len(flat)):
        corners, c = [], start
        while at[c] < 0:
            at[c] = len(cycles)
            corners.append(c)
            c = after[c]
        if not corners:
            continue
        # the sides at a cycle's corners are the sides of its slots
        names = [p for p in set(ends[flat[start]]) if all(
            p in ends[flat[c]] for c in corners)
            and valency(t, p) == len(corners)]
        cycles.append((names[0] if len(names) == 1 else None,
                       tuple(corners)))
        if len(names) != 1:
            v.append("corner cycle %s: no puncture of valency %d ends both "
                     "sides at each corner" % (
                         [divmod(c, 3) for c in corners], len(corners)))
    named = [p for p, _ in cycles]
    v += ["puncture %r has %d corner cycles, expected 1" % (p, named.count(p))
          for p in t.surface.punctures if named.count(p) != 1]
    for arc, c in last.items():  # the side of slot c ends at corners c-1, c
        lie = (named[at[c - 1 if c % 3 else c + 2]], named[at[c]])
        if None not in lie and ends[arc] not in (lie, lie[::-1]):
            v.append("arc %r has endpoints %s, but its ends lie at %s"
                     % (arc, list(ends[arc]), list(lie)))
    chi = len(cycles) - len(t.arcs) + len(t.triangles)
    if chi != 2 - 2 * t.surface.genus:
        v.append("Euler characteristic #cycles - #arcs + #triangles = %d "
                 "!= 2 - 2*genus = %d" % (chi, 2 - 2 * t.surface.genus))
    piece = edge = {0} if flat else set()
    while edge:  # the triangles next to those found last, until none is new
        edge = {after[c] // 3 for i in edge for c in range(3 * i, 3 * i + 3)}
        edge -= piece
        piece |= edge
    if len(piece) < len(t.triangles):
        v.append("triangles fall into more than one connected piece: "
                 "%d of %d reach triangle 0" % (len(piece), len(t.triangles)))
    return tuple(cycles)


def valency(t, p):
    """Number of arc-endpoint incidences at puncture p; a loop counts twice."""
    if p not in set(t.surface.punctures):
        raise KeyError("unknown puncture id %r" % (p,))
    return sum(a.endpoints.count(p) for a in t.arcs)


def has_self_folded(t):
    """True iff some triangle uses one arc as two of its three sides."""
    return any(len(set(tri)) < 3 for tri in t.triangles)


def excluded_for_certificates(surface):
    """Surfaces excluded from growth/periodicity certificates.

    A sphere with 4 or fewer punctures is out of range of the certified
    statements (the 4-puncture sphere is of polynomial growth).
    """
    return surface.genus == 0 and len(surface.punctures) <= 4


def triangulation_to_json(t):
    doc = {
        "genus": t.surface.genus,
        "punctures": list(t.surface.punctures),
        "arcs": [
            {"id": a.id, "endpoints": list(a.endpoints)} for a in t.arcs
        ],
        "triangles": [list(tri) for tri in t.triangles],
    }
    return json.dumps(doc, indent=2)


class Optional:
    """A table entry for a field that a document may leave out."""

    def __init__(self, kind):
        self.kind = kind


# How an error names the kind it expected.
_KIND_NAMES = {int: "an integer", str: "a string", bool: "a boolean",
               list: "a list", dict: "an object"}


def _read(value, kind, where, step, key):
    """value read as kind; where + step % key names it in an error, and
    is only formatted off the common path."""
    if type(value) is kind:  # int never matches a bool
        return value
    where += step % (key,)
    if isinstance(kind, dict) and str not in kind:  # a nested record
        return read_fields(value, where, kind)
    if isinstance(kind, list) and isinstance(value, (list, tuple)):
        return tuple(_read(v, kind[0], where, "[%d]", i)
                     for i, v in enumerate(value))
    if isinstance(kind, dict) and isinstance(value, dict):
        return {k: _read(v, kind[str], where, "[%r]", k)
                for k, v in value.items()}
    raise ValueError("%s must be %s, not %s" % (
        where, _KIND_NAMES[kind if isinstance(kind, type) else type(kind)],
        json.dumps(value, default=repr)))


def read_fields(doc, where, table, rest=False):
    """The fields of doc, read by a field table; where names doc in errors.

    A table maps each field to its kind: int (never a bool), str, bool,
    dict (any object), [kind] (a list of that kind, read as a tuple),
    {str: kind} (an object mapping names to that kind) or another table
    (a nested record).  Optional(kind) marks a field that may be left out.
    A document that is not an object, a missing or unknown field and a
    value of the wrong kind raise ValueError naming the field, down to the
    list item or entry.  With rest, fields outside the table are left for
    a later read.
    """
    if not isinstance(doc, dict):
        raise ValueError("%s must be an object, not %s"
                         % (where, json.dumps(doc, default=repr)))
    unknown = doc.keys() - table.keys()
    if unknown and not rest:
        raise ValueError("%s has unknown field %r" % (where, min(unknown)))
    fields = {}
    for key, kind in table.items():
        if key in doc:
            fields[key] = _read(
                doc[key], kind.kind if isinstance(kind, Optional) else kind,
                where, " field %r", key)
        elif not isinstance(kind, Optional):
            raise ValueError("%s is missing field %r" % (where, key))
    return fields


_ARC_FIELDS = {"id": str, "endpoints": [str]}
_TRIANGULATION_FIELDS = {"genus": int, "punctures": [str],
                         "arcs": [_ARC_FIELDS], "triangles": [[str]]}


def triangulation_from_json(text):
    """Parse the triangulation file format; unknown fields are rejected.

    Accepts either the JSON text or an already-decoded document object.
    """
    doc = read_fields(json.loads(text) if isinstance(text, str) else text,
                      "triangulation document", _TRIANGULATION_FIELDS)
    return Triangulation(MarkedSurface(doc["genus"], doc["punctures"]),
                         tuple(Arc(**arc) for arc in doc["arcs"]),
                         doc["triangles"])
