import json

import pytest

from surfalg import fixtures
from surfalg.qp import (
    Arrow,
    Potential,
    Quiver,
    arrow_maps,
    build_potential,
    build_quiver,
    canonical_rotation,
    cyclic_derivative,
    jacobian_relations,
    potential_to_json,
    quiver_to_dot,
    quiver_to_json,
)


def _setup(name):
    t = fixtures.builtin_triangulation(name)
    maps = arrow_maps(t)
    return t, maps.quiver, maps


def test_build_quiver_counts():
    for name, arrows in (("torus", 6), ("genus2", 18), ("tetra", 12)):
        t, q, _ = _setup(name)
        assert build_quiver(t) == q
        assert len(q.vertices) == len(t.arcs)
        assert len(q.arrows) == arrows
        assert 3 * len(t.triangles) == len(q.arrows)


def test_build_quiver_rejects_self_folded():
    with pytest.raises(ValueError, match="self-folded"):
        build_quiver(fixtures.builtin_triangulation("sphere5"))


def test_arrows_follow_triangle_sides():
    t, q, _ = _setup("torus")
    for i, (a, b, c) in enumerate(t.triangles):
        assert q.arrow("x%d_0" % i).source == a
        assert q.arrow("x%d_0" % i).target == b
        assert q.arrow("x%d_1" % i).source == b
        assert q.arrow("x%d_1" % i).target == c
        assert q.arrow("x%d_2" % i).source == c
        assert q.arrow("x%d_2" % i).target == a


def test_f_is_triangle_rotation():
    for name in ("torus", "genus2", "tetra"):
        t, q, maps = _setup(name)
        for x in maps.f:
            # f^3 = id
            assert maps.f[maps.f[maps.f[x]]] == x
        # each stored orbit is x f(x) f^2(x) from its least arrow id
        for orb in maps.f_orbits:
            assert orb[0] == min(orb)
            assert orb == (orb[0], maps.f[orb[0]], maps.f[maps.f[orb[0]]])
        assert sorted(maps.f_orbits) == list(maps.f_orbits)
        orbits = {frozenset(o) for o in maps.f_orbits}
        triangles = {
            frozenset("x%d_%d" % (i, s) for s in range(3))
            for i in range(len(t.triangles))
        }
        assert orbits == triangles


def test_g_orbit_lengths_match_valencies():
    from surfalg.surface import valency

    for name in ("torus", "genus2", "tetra"):
        t, q, maps = _setup(name)
        assert sorted(p for p, _ in maps.g_orbits) \
            == sorted(t.surface.punctures)
        for p, orbit in maps.g_orbits:
            assert len(orbit) == valency(t, p)


def test_g_orbits_are_composable_cycles():
    for name in ("torus", "genus2", "tetra"):
        t, q, maps = _setup(name)
        firsts = [orbit[0] for _, orbit in maps.g_orbits]
        assert firsts == sorted(firsts)
        for _, orbit in maps.g_orbits:
            assert orbit == maps.g_orbit(min(orbit))
            for i, x in enumerate(orbit):
                y = orbit[(i + 1) % len(orbit)]
                assert maps.g[x] == y
                assert q.arrow(x).target == q.arrow(y).source


def test_g_starts_where_f_squared_ends():
    # g(x) leaves the target of x but lies in the other triangle
    for name in ("torus", "genus2"):
        t, q, maps = _setup(name)
        for x in maps.f:
            gx = maps.g[x]
            assert q.arrow(gx).source == q.arrow(x).target
            assert x.split("_")[0] != gx.split("_")[0]


def test_potential_terms():
    t, q, maps = _setup("torus")
    w = build_potential(maps)
    # one 3-cycle per triangle (+1) and one cycle per puncture (-1)
    plus = [k for k, v in w.terms.items() if v == 1]
    minus = [k for k, v in w.terms.items() if v == -1]
    assert len(plus) == len(t.triangles)
    assert len(minus) == len(t.surface.punctures)
    assert all(len(k) == 3 for k in plus)
    assert all(len(k) == 6 for k in minus)


def test_potential_puncture_scalars():
    t, q, maps = _setup("tetra")
    w = build_potential(maps, puncture_scalars={p: 7 for p in
                                               t.surface.punctures})
    minus = [v for k, v in w.terms.items() if len(k) == 3 and v != 1]
    # every cycle term carries -7; triangle terms keep +1
    assert sorted(set(w.terms.values())) == [-7, 1]


def test_canonical_rotation():
    assert canonical_rotation(("b", "c", "a")) == ("a", "b", "c")
    assert canonical_rotation(("a",)) == ("a",)
    with pytest.raises(ValueError):
        canonical_rotation(())


def test_potential_requires_canonical_keys():
    with pytest.raises(ValueError):
        Potential({("b", "a"): 1})


def test_cyclic_derivative_rotations():
    # derivative of xyz by y is the path starting right after y
    w = Potential({("x", "y", "z"): 1})
    assert cyclic_derivative(w, "x") == {("y", "z"): 1}
    assert cyclic_derivative(w, "y") == {("z", "x"): 1}
    assert cyclic_derivative(w, "z") == {("x", "y"): 1}
    assert cyclic_derivative(w, "w") == {}


def test_cyclic_derivative_repeated_arrow():
    # each occurrence contributes one rotation
    w = Potential({("x", "y", "x", "z"): 1})
    got = cyclic_derivative(w, "x")
    assert got == {("y", "x", "z"): 1, ("z", "x", "y"): 1}


def test_jacobian_relations_torus(torus_relations):
    gens = torus_relations.generators
    assert len(gens) == 6
    for r in gens:
        lens = sorted(len(path) for path, _ in r.terms)
        assert lens == [2, 5]
        coeffs = sorted(c for _, c in r.terms)
        assert coeffs == [-1, 1]


def test_sphere5_jacobian_monomials():
    rels = jacobian_relations(fixtures.sphere5_wprime())
    gens = rels.generators
    assert len(gens) == 9
    assert all(len(r.terms) == 1 for r in gens)
    words = sorted(r.terms[0][0] for r in gens)
    assert ("b4", "c4", "a3") in words
    assert ("c5", "a2", "b1", "c1") in words


def test_dot_output_stable():
    t, q, _ = _setup("torus")
    d1 = quiver_to_dot(q)
    d2 = quiver_to_dot(q)
    assert d1 == d2
    assert d1.startswith("digraph")
    assert '"1" -> "2" [label="x0_0"];' in d1


def test_quiver_json_round_trip():
    t, q, _ = _setup("genus2")
    doc = json.loads(quiver_to_json(q))
    assert sorted(doc) == ["arrows", "vertices"]
    assert len(doc["arrows"]) == 18


def test_potential_json():
    _, _, maps = _setup("torus")
    w = build_potential(maps)
    doc = json.loads(potential_to_json(w))
    assert len(doc["terms"]) == 3
