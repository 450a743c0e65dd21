import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import glued_vertex_classes, gluing_labellings
from surfalg import fixtures
from surfalg.qp import arrow_maps
from surfalg.surface import (
    Arc,
    MarkedSurface,
    Triangulation,
    excluded_for_certificates,
    has_self_folded,
    triangulation_from_json,
    triangulation_to_json,
    valency,
    validate_triangulation,
)

BUILTINS = pathlib.Path(fixtures.__file__).with_name("builtins")


def test_builtin_fixtures_are_valid():
    for name in fixtures.BUILTIN_NAMES:
        t = fixtures.builtin_triangulation(name)
        report = validate_triangulation(t)
        assert report.ok, "%s: %s" % (name, report.violations)


def test_each_builtin_is_one_document_of_the_package():
    assert sorted(p.stem for p in BUILTINS.glob("*.json")) == sorted(
        fixtures.BUILTIN_NAMES)


@pytest.mark.parametrize("name", fixtures.BUILTIN_NAMES)
def test_fixture_files_are_the_builtins(name):
    # the document reads as the builtin, and is written as
    # triangulation_to_json writes it
    text = (BUILTINS / ("%s.json" % name)).read_text()
    t = triangulation_from_json(text)
    assert t == fixtures.builtin_triangulation(name)
    assert json.loads(text) == json.loads(triangulation_to_json(t))
    assert validate_triangulation(t).ok


def test_arc_and_triangle_counts():
    # 6g - 6 + 3p arcs and two triangles per three arcs
    expected = {"torus": (3, 2), "genus2": (9, 6), "sphere5": (9, 6),
                "tetra": (6, 4)}
    for name, (arcs, tris) in expected.items():
        t = fixtures.builtin_triangulation(name)
        g = t.surface.genus
        p = len(t.surface.punctures)
        assert len(t.arcs) == 6 * g - 6 + 3 * p == arcs
        assert len(t.triangles) == tris
        assert 3 * len(t.triangles) == 2 * len(t.arcs)


def test_valency_sums_to_twice_arcs():
    for name in fixtures.BUILTIN_NAMES:
        t = fixtures.builtin_triangulation(name)
        total = sum(valency(t, p) for p in t.surface.punctures)
        assert total == 2 * len(t.arcs)


def test_torus_valency():
    t = fixtures.torus()
    assert valency(t, "p") == 6


def test_valency_unknown_puncture():
    t = fixtures.torus()
    with pytest.raises(KeyError):
        valency(t, "nope")


def test_self_folded_detection():
    assert not has_self_folded(fixtures.torus())
    assert not has_self_folded(fixtures.builtin_triangulation("genus2"))
    assert has_self_folded(fixtures.builtin_triangulation("sphere5"))
    assert not has_self_folded(fixtures.builtin_triangulation("tetra"))


def test_excluded_surfaces():
    # spheres with up to four punctures are excluded from certificates
    assert excluded_for_certificates(MarkedSurface(0, ("a", "b", "c")))
    assert excluded_for_certificates(MarkedSurface(0, ("a", "b", "c", "d")))
    assert not excluded_for_certificates(
        MarkedSurface(0, ("a", "b", "c", "d", "e")))
    assert not excluded_for_certificates(MarkedSurface(1, ("p",)))
    assert not excluded_for_certificates(MarkedSurface(2, ("p",)))


def test_validation_catches_bad_arc_count():
    t = Triangulation(
        MarkedSurface(1, ("p",)),
        (Arc("1", ("p", "p")), Arc("2", ("p", "p"))),
        (("1", "2", "1"),),
    )
    report = validate_triangulation(t)
    assert not report.ok
    assert any("arc" in v for v in report.violations)


def test_validation_catches_wrong_slot_count():
    # four arcs in three triangle slots: arc 3 appears once, arc 1 thrice
    t = Triangulation(
        MarkedSurface(1, ("p",)),
        (Arc("1", ("p", "p")), Arc("2", ("p", "p")), Arc("3", ("p", "p"))),
        (("1", "2", "3"), ("1", "2", "1")),
    )
    report = validate_triangulation(t)
    assert not report.ok


def test_validation_unknown_arc_in_triangle():
    t = Triangulation(
        MarkedSurface(1, ("p",)),
        (Arc("1", ("p", "p")), Arc("2", ("p", "p")), Arc("3", ("p", "p"))),
        (("1", "2", "3"), ("1", "2", "9")),
    )
    report = validate_triangulation(t)
    assert not report.ok
    assert any("9" in v for v in report.violations)


def test_json_round_trip():
    for name in fixtures.BUILTIN_NAMES:
        t = fixtures.builtin_triangulation(name)
        text = triangulation_to_json(t)
        back = triangulation_from_json(text)
        assert back == t


def test_json_rejects_unknown_field():
    t = fixtures.torus()
    doc = json.loads(triangulation_to_json(t))
    doc["extra"] = 1
    with pytest.raises(ValueError, match="extra"):
        triangulation_from_json(json.dumps(doc))


def test_json_rejects_missing_field():
    t = fixtures.torus()
    doc = json.loads(triangulation_to_json(t))
    del doc["triangles"]
    with pytest.raises(ValueError, match="triangles"):
        triangulation_from_json(json.dumps(doc))


def _cycle_lengths(t):
    report = validate_triangulation(t)
    return sorted((p, len(c)) for p, c in report.cycles)


def test_corner_cycles_name_the_punctures():
    assert _cycle_lengths(fixtures.torus()) == [("p", 6)]
    assert _cycle_lengths(fixtures.builtin_triangulation("genus2")) == [
        ("p", 18)]
    assert _cycle_lengths(fixtures.builtin_triangulation("sphere5")) == [
        ("p1", 1), ("p2", 1), ("p3", 1), ("p4", 9), ("p5", 6)]
    assert _cycle_lengths(fixtures.builtin_triangulation("tetra")) == [
        ("q1", 3), ("q2", 3), ("q3", 3), ("q4", 3)]


def test_sphere5_with_m2_and_m3_the_wrong_way_round_is_refused():
    t = fixtures.builtin_triangulation("sphere5")
    bad = Triangulation(t.surface, t.arcs, [
        ("M2", "L2", "M3") if tri == ("M3", "L2", "M2") else tri
        for tri in t.triangles])
    assert sorted(len(c) for _, c in validate_triangulation(bad).cycles) \
        == [1, 1, 1, 3, 12]
    assert validate_triangulation(bad).violations[2:] == (
        "puncture 'p4' has 0 corner cycles, expected 1",
        "puncture 'p5' has 0 corner cycles, expected 1")


def test_arc_endpoints_must_agree_with_the_corners():
    # sphere5 with the loops L1 (at p4) and L2 (at p5) written as p4-p5
    # arcs: every corner still sees its puncture on both sides, and every
    # valency is unchanged, but the ends of L1 both lie at p4
    t = fixtures.builtin_triangulation("sphere5")
    arcs = tuple(Arc(a.id, ("p4", "p5")) if a.id in ("L1", "L2") else a
                 for a in t.arcs)
    report = validate_triangulation(Triangulation(t.surface, arcs,
                                                  t.triangles))
    assert report.violations == (
        "arc 'L1' has endpoints ['p4', 'p5'], but its ends lie at "
        "['p4', 'p4']",
        "arc 'L2' has endpoints ['p4', 'p5'], but its ends lie at "
        "['p5', 'p5']")


def _arc_ends(triangles, cls):
    ends = {}
    for i, tri in enumerate(triangles):
        for k, arc in enumerate(tri):
            ends.setdefault(arc, ("p%d" % cls[i, k],
                                  "p%d" % cls[i, (k + 1) % 3]))
    return ends


@st.composite
def _glued_documents(draw, sizes, spoils):
    """Random side-pairings of sets of triangles of the drawn sizes, written
    as a document whose genus and endpoints are read off the gluing, and
    then spoiled as drawn: another genus, one endpoint changed, endpoints
    swapped between two arcs, one triangle listed the other way round, or
    two punctures on no arc declared along with one genus less (which keeps
    the arc count right)."""
    triangles = []
    for k in draw(st.sampled_from(sizes)):
        slots = draw(st.permutations(range(3 * k)))
        arc = {}
        for a, b in zip(slots[::2], slots[1::2]):
            arc[a] = arc[b] = "a%d" % (len(triangles) * 3 // 2 + len(arc) // 2)
        triangles += [[arc[3 * i + s] for s in range(3)] for i in range(k)]
    cls, n, _ = glued_vertex_classes(triangles)
    punctures = ["p%d" % c for c in range(n)]
    arcs = _arc_ends(triangles, cls)
    genus = 1 - (n - len(arcs) + len(triangles)) // 2
    spoil = draw(st.sampled_from(spoils))
    names = sorted(arcs)
    if spoil == "genus":
        genus += draw(st.sampled_from([-1, 1]))
    elif spoil == "endpoint":
        a = draw(st.sampled_from(names))
        arcs[a] = (arcs[a][0], draw(st.sampled_from(punctures)))
    elif spoil == "swap":
        a, b = draw(st.sampled_from(names)), draw(st.sampled_from(names))
        arcs[a], arcs[b] = (arcs[a][0], arcs[b][1]), (arcs[b][0], arcs[a][1])
    elif spoil == "reverse":
        i = draw(st.integers(0, len(triangles) - 1))
        triangles[i] = triangles[i][::-1]
    elif spoil == "unused":
        punctures += ["p%d" % n, "p%d" % (n + 1)]
        genus -= 1
    t = Triangulation(MarkedSurface(genus, punctures),
                      [Arc(a, e) for a, e in arcs.items()], triangles)
    return t, arcs


def _point(corner):
    """The oracle's point at corner 3i+s, between sides s and s+1 of
    triangle i: the oracle's side k runs from point k to point k+1."""
    i, s = divmod(corner, 3)
    return i, (s + 1) % 3


def _corner_classes(t):
    """(oracle vertex class, puncture) of every corner the report names."""
    cls, _, _ = glued_vertex_classes(t.triangles)
    return {(cls[_point(c)], p)
            for p, corners in validate_triangulation(t).cycles
            for c in corners}


@settings(max_examples=400, deadline=None)
@given(_glued_documents([(2,), (4,), (6,), (8,), (2, 2), (2, 4)],
                        [None, "genus", "endpoint", "swap", "reverse",
                         "unused"]))
def test_gluing_agrees_with_the_vertex_class_oracle(doc):
    # connected documents that the oracle can label validate, and no other
    t, arcs = doc
    labellings = gluing_labellings(t.surface.genus, t.surface.punctures,
                                   arcs, t.triangles)
    report = validate_triangulation(t)
    assert report.ok == bool(labellings), report
    if report.ok:
        named = _corner_classes(t)
        assert len(dict(named)) == len(named) and dict(named) in labellings


@settings(max_examples=150, deadline=None)
@given(_glued_documents([(4,), (6,), (8,)], [None]))
def test_valid_gluings_give_quivers_without_2_cycles(doc):
    t, _ = doc
    if not validate_triangulation(t).ok or has_self_folded(t) \
            or min(valency(t, p) for p in t.surface.punctures) < 3:
        return
    maps = arrow_maps(t)
    q = maps.quiver
    ends = {(x.source, x.target) for x in q.arrows}
    assert not any((b, a) in ends for a, b in ends)
    # g walks around the puncture that names each corner's vertex class
    named = _corner_classes(t)
    cls, _, _ = glued_vertex_classes(t.triangles)
    around = {}
    for p, orbit in maps.g_orbits:
        assert len(orbit) == valency(t, p)
        around.update(dict.fromkeys(orbit, p))
    assert len(around) == len(q.arrows)
    for x in q.arrows:
        i, s = map(int, x.id[1:].split("_"))
        assert (cls[_point(3 * i + s)], around[x.id]) in named
