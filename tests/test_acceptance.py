"""End-to-end checks of the package's headline guarantees.

Each test covers one advertised property, runs it at the stated tolerance
(exact unless noted) and prints a single PASS/FAIL line with the wall
clock time.  Run with -s to see the lines as they appear; without -s
pytest shows them in the captured output of each test.
"""

import random
import time

import pytest

from surfalg import fixtures, linalg
from surfalg.algebra import (NonStabilizationError, cartan_matrix,
                             check_weakly_symmetric, compute_basis)
from surfalg.homology import check_periodicity, simple_module, tube_rank
from surfalg.qp import arrow_maps, build_potential, build_quiver, \
    jacobian_relations
from surfalg.strings import (FreeComposability, build_eta, build_xi,
                             enumerate_bands, free_composability,
                             growth_report, is_band, is_string,
                             parse_word, rho2, sphere5_presentation,
                             string_quotient)
from surfalg.surface import valency

import oracles

PRIME = 32003

ALPHA = "a1.a2'.a3"
BETA = "a1.b2.eps2*.c2.c3'.eps3*.b3'"

# Band counts of the sphere-5 presentation, by length, up to 20.
SPHERE5_BAND_COUNTS = {
    3: 2, 5: 4, 6: 3, 7: 6, 8: 9, 9: 8, 10: 20, 11: 26, 12: 36, 13: 70,
    14: 93, 15: 156, 16: 248, 17: 390, 18: 620, 19: 978, 20: 1571,
}


class criterion:
    """Times a block and prints one PASS/FAIL line for it."""

    def __init__(self, name, budget=None):
        self.name = name
        self.budget = budget

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, etype, exc, tb):
        dt = time.monotonic() - self.t0
        ok = etype is None and (self.budget is None or dt <= self.budget)
        tol = "exact" if self.budget is None else "< %gs" % self.budget
        print("ACCEPTANCE %-28s %s  [%.2fs, %s]"
              % (self.name, "PASS" if ok else "FAIL", dt, tol))
        if etype is None and not ok:
            raise AssertionError(
                "%s took %.2fs, budget %.2fs" % (self.name, dt, self.budget))
        return False


def _lyndon_patterns(maxlen):
    """Binary Lyndon words over '12', lengths 1..maxlen."""
    out = []
    for n in range(1, maxlen + 1):
        for bits in range(2 ** n):
            w = "".join("12"[(bits >> (n - 1 - i)) & 1] for i in range(n))
            if all(w < w[i:] + w[:i] for i in range(1, n)):
                out.append(w)
    return out


def _quotient(name):
    t = fixtures.builtin_triangulation(name)
    maps = arrow_maps(t)
    return t, maps.quiver, maps, string_quotient(maps)


def test_sphere5_growth_certificate():
    with criterion("sphere5-growth", budget=5.0):
        p = sphere5_presentation()
        alpha = parse_word(ALPHA)
        beta = parse_word(BETA)
        for w in (alpha, beta, alpha + beta, beta + alpha):
            assert is_band(p, w).ok
        cert = free_composability(p, alpha, beta, depth=6)
        assert isinstance(cert, FreeComposability)
        assert cert.basepoint == "1"
        assert cert.depth == 6
        assert len(cert.junctions) == 4
        assert len(cert.necklaces) == 23
        assert all(rec[2] for rec in cert.necklaces)


def test_band_census_growth_and_oracle():
    with criterion("band-census-growth", budget=60.0):
        p = sphere5_presentation()
        census = enumerate_bands(p, 20)
        counts = {d: census.count(d) for d in range(1, 21) if census.count(d)}
        assert counts == SPHERE5_BAND_COUNTS

        report = growth_report(census)
        assert report["max_rate"] > 1.05
        assert report["argmax_length"] == 20
        assert report["max_rate"] == pytest.approx(1571 ** (1 / 20))

        # the census dominates the two-block composition family: every
        # Lyndon pattern over blocks 1 -> alpha, 2 -> beta that fits in
        # the length bound composes to a band the census already holds
        blocks = {"1": parse_word(ALPHA), "2": parse_word(BETA)}
        words = set(census.words)
        family = {}
        for pat in _lyndon_patterns(6):
            w = sum((blocks[s] for s in pat), ())
            if len(w) > 20:
                continue
            assert is_band(p, w).ok, pat
            assert oracles.naive_canonical(w) in words, pat
            family[len(w)] = family.get(len(w), 0) + 1
        assert sorted(family) == [3, 7, 10, 13, 16, 17, 19, 20]
        for d, n in family.items():
            assert census.count(d) >= n

        # independent exhaustive oracle up to length 8, exact set equality
        naive = oracles.naive_enumerate_bands(p, 8)
        engine = {}
        for w in census.words:
            if len(w) <= 8:
                engine.setdefault(len(w), set()).add(w)
        assert engine == {d: s for d, s in naive.items() if s}


def test_xi_eta_general_growth():
    with criterion("xi-eta-growth", budget=30.0):
        t, q, maps, pres = _quotient("genus2")
        orbit_len = {x: len(orb) for _, orb in maps.g_orbits for x in orb}
        for aid in sorted(maps.f):
            xi = build_xi(maps, aid)
            assert len(xi) == 34
            assert is_band(pres, xi).ok

            eta = build_eta(maps, aid)
            assert is_band(pres, eta).ok

            # the long return path of xi(g beta) retraces the g-orbit of
            # the start arrow itself; beta = f(f(aid)) under the figure rule
            beta = maps.f[maps.f[aid]]
            n = orbit_len[aid]
            expect = []
            x = aid
            for _ in range(n - 2):
                expect.append(x)
                x = maps.g[x]
            assert rho2(maps, maps.g[beta]) == tuple(expect)

            cert = free_composability(pres, xi, eta, depth=6)
            assert isinstance(cert, FreeComposability)
            assert len(cert.necklaces) == 23


def test_arrow_permutation_structure():
    with criterion("arrow-permutations"):
        for name in ("torus", "genus2"):
            t = fixtures.builtin_triangulation(name)
            maps = arrow_maps(t)
            q = maps.quiver
            for x in maps.f:
                assert maps.f[maps.f[maps.f[x]]] == x
            orbits = {frozenset(o) for o in maps.f_orbits}
            triangles = {
                frozenset("x%d_%d" % (i, s) for s in range(3))
                for i in range(len(t.triangles))
            }
            assert orbits == triangles
            lengths = sorted(len(o) for _, o in maps.g_orbits)
            assert lengths == sorted(
                valency(t, p) for p in t.surface.punctures)
            for _, orb in maps.g_orbits:
                for i, x in enumerate(orb):
                    y = orb[(i + 1) % len(orb)]
                    assert maps.g[x] == y
                    assert q.arrow(x).target == q.arrow(y).source


def test_torus_algebra_facts():
    with criterion("torus-algebra"):
        t = fixtures.torus()
        maps = arrow_maps(t)
        q = maps.quiver
        rels = jacobian_relations(build_potential(maps))
        a = compute_basis(q, rels, p=PRIME, max_deg=40)
        assert a.graded_dims == (3, 6, 6, 6, 6, 6, 3)
        assert a.dim == 36

        c = cartan_matrix(a)
        assert linalg.det_int(c) == 0
        assert oracles.det_fraction(c) == 0

        ok, witness = check_weakly_symmetric(a)
        assert ok
        for v, info in witness.items():
            assert info["socle_dim"] == 1 and info["support"] == [v]

        # simple modules are indexed by vertices, i.e. by arcs; the count
        # matches 6(g - 1) + 3p on both built-in closed surfaces
        assert len(q.vertices) == 3 == 6 * (1 - 1) + 3 * 1
        t2 = fixtures.builtin_triangulation("genus2")
        assert len(build_quiver(t2).vertices) == 9 == 6 * (2 - 1) + 3 * 1


def test_torus_omega_periodicity():
    with criterion("omega4-periodicity", budget=60.0):
        t = fixtures.torus()
        maps = arrow_maps(t)
        q = maps.quiver
        rels = jacobian_relations(build_potential(maps))
        a = compute_basis(q, rels, p=PRIME, max_deg=40)
        for v in sorted(q.vertices):
            s = simple_module(a, v)
            res = check_periodicity(a, s, period=4, trials=20, seed=0)
            assert res.verdict == "periodic", v
            assert res.dim_chain[0] == res.dim_chain[4]
            assert tube_rank(a, res) in (1, 2)


def _engine_dims(q, rels, p, max_deg):
    try:
        dims = list(compute_basis(q, rels, p=p, max_deg=max_deg).graded_dims)
    except NonStabilizationError as e:
        assert e.reason == "max_deg reached"
        dims = list(e.graded_dims)
    return dims + [0] * (max_deg + 1 - len(dims))


def test_engine_oracle_agreement():
    with criterion("engine-vs-oracle"):
        cases = []

        for name in ("torus", "genus2"):
            maps = arrow_maps(fixtures.builtin_triangulation(name))
            cases.append((maps.quiver,
                          jacobian_relations(build_potential(maps))))

        t4 = fixtures.builtin_triangulation("tetra")
        maps4 = arrow_maps(t4)
        w4 = build_potential(maps4, puncture_scalars={
            p: 2 for p in t4.surface.punctures})
        cases.append((maps4.quiver, jacobian_relations(w4)))

        q5 = fixtures.sphere5_quiver()
        cases.append((q5, jacobian_relations(fixtures.sphere5_wprime())))

        for quiver, rels in cases:
            got = _engine_dims(quiver, rels, PRIME, 6)
            want = oracles.brute_graded_dims(quiver, rels, PRIME, 6)
            assert got == want

        presentations = [
            sphere5_presentation(),
            _quotient("torus")[3],
            _quotient("genus2")[3],
        ]
        for k, pres in enumerate(presentations):
            rng = random.Random(7001 + k)
            letters = pres.letters()
            by_start = {}
            for l in letters:
                by_start.setdefault(pres.start(l), []).append(l)
            for _ in range(10 ** 4):
                n = rng.randint(1, 12)
                word = [rng.choice(letters)]
                while len(word) < n:
                    cands = by_start.get(pres.end(word[-1]), ())
                    if cands and rng.random() < 0.8:
                        word.append(rng.choice(cands))
                    else:
                        word.append(rng.choice(letters))
                w = tuple(word)
                assert is_string(pres, w).ok == oracles.naive_is_string(
                    pres, w)

        for quiver, rels in (cases[0], cases[2]):
            a = compute_basis(quiver, rels, p=PRIME, max_deg=40)
            assert a.dim <= 200
            _assoc_exhaustive(a)


def _assoc_exhaustive(a):
    p = a.field
    for i in range(a.dim):
        for j in range(a.dim):
            ij = a.mult_table.get((i, j), ())
            for k in range(a.dim):
                jk = a.mult_table.get((j, k), ())
                left = {}
                for b, c in ij:
                    for b2, c2 in a.mult_table.get((b, k), ()):
                        left[b2] = (left.get(b2, 0) + c * c2) % p
                right = {}
                for b, c in jk:
                    for b2, c2 in a.mult_table.get((i, b), ()):
                        right[b2] = (right.get(b2, 0) + c * c2) % p
                assert {b: c for b, c in left.items() if c} \
                    == {b: c for b, c in right.items() if c}
