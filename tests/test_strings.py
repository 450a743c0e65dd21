import collections
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from surfalg import certificates, fixtures, qp, strings
from surfalg.strings import (
    BandCensus,
    CounterExample,
    ForbiddenWord,
    FreeComposability,
    Letter,
    WordPresentation,
    band_counts,
    direct,
    enumerate_bands,
    format_word,
    free_composability,
    growth_report,
    invert_word,
    inverse,
    is_band,
    is_string,
    parse_word,
    special,
    string_quotient,
)

ALPHA = "a1.a2'.a3"
BETA = "a1.b2.eps2*.c2.c3'.eps3*.b3'"


# ---------------------------------------------------------------------------
# letters and parsing


def test_letter_kinds():
    assert direct("a1").kind == "direct"
    assert inverse("a1").kind == "inverse"
    assert special("eps1").kind == "special"
    with pytest.raises(ValueError):
        Letter("a1", "sideways")


def test_letter_contract(sphere5_pres):
    x = Letter("x0_0", "direct")
    y = direct("x0_0")
    assert x == y and x is not y
    assert x != inverse("x0_0")
    # equal hashes to the pairs keep set and dict orders byte-stable
    for kind in ("direct", "inverse", "special"):
        assert hash(Letter("a1", kind)) == hash(("a1", kind))
    with pytest.raises(ValueError, match=r"^unknown letter kind 'sideways'$"):
        Letter("a1", "sideways")
    with pytest.raises(AttributeError):
        x.arrow = "x0_1"
    assert repr(x) == "Letter('x0_0', direct)"
    assert repr(special("eps1")) == "Letter('eps1', special)"
    with pytest.raises(ValueError,
                       match=r"^not a letter: \('a1', 'direct'\)$"):
        sphere5_pres.validate_letter(("a1", "direct"))


def _loops(arrows):
    """One vertex with a loop per arrow and nothing forbidden: every word
    over these arrows is closed."""
    return WordPresentation("loops", ("1",), {a: ("1", "1") for a in arrows},
                            (), ())


def _check_primitivity(p, spec):
    """is_primitive against the oracle on the word spelled by spec, a list
    of (arrow, inverse?) pairs, whose letters are built afresh so that equal
    letters are never identical; a proper power's least period, as is_band
    reports it, must be the oracle's."""
    word = tuple(inverse(a) if inv else direct(a) for a, inv in spec)
    per = oracles.naive_min_period(word)
    assert strings.is_primitive(word) == (per == len(word)), spec
    if per != len(word):
        assert is_band(p, word).violations[0].detail == (
            "word is a proper power (least period %d)" % per)


def test_is_primitive_matches_oracle_on_short_words():
    p = _loops("a")
    for n in range(1, 13):
        for bits in range(2 ** n):
            _check_primitivity(
                p, [("a", bits >> i & 1) for i in range(n)])


def test_is_primitive_matches_oracle_on_long_powers():
    p = _loops("abc")
    rng = random.Random(2801)
    longest = 0
    for _ in range(300):
        size = rng.randint(1, 3)
        u = [(rng.choice("abc"[:size]), rng.random() < 0.5)
             for _ in range(rng.randint(1, 48))]
        spec = u * rng.randint(1, 240 // len(u) + 2)
        longest = max(longest, len(spec))
        _check_primitivity(p, spec)
        # the same power with its last letter turned round is a near miss
        a, inv = spec[-1]
        _check_primitivity(p, spec[:-1] + [(a, not inv)])
    assert longest >= 240


def test_parse_format_round_trip():
    for text in (ALPHA, BETA, "x0_0.x1_0'", "eps1*"):
        w = parse_word(text)
        assert format_word(w) == text


def test_parse_rejects_garbage():
    for text in ("", "a1..a2", ".a1", "a1.", "a1'*"):
        with pytest.raises(ValueError):
            parse_word(text)


def test_invert_word_involution():
    w = parse_word(BETA)
    assert invert_word(invert_word(w)) == w
    assert format_word(invert_word(w)) == "b3.eps3*.c3.c2'.eps2*.b2'.a1'"


# ---------------------------------------------------------------------------
# bundled presentation


def test_sphere5_shape(sphere5_pres):
    p = sphere5_pres
    assert len(p.vertices) == 6
    assert len(p.special_ids) == 3
    assert len(p.arrows) == 12  # 9 ordinary + 3 special loops
    assert p.max_effective_forbidden == 4


def test_sphere5_forbidden_list(sphere5_pres):
    words = {tuple(f.arrows) for f in sphere5_pres.forbidden}
    # quadratics
    for i in "123":
        assert ("a" + i, "b" + i) in words
        assert ("b" + i, "c" + i) in words
        assert ("c" + i, "a" + i) in words
    # long relation words, special letters included
    assert ("b2", "eps2", "c2", "a3") in words
    assert ("eps3", "c3", "a2", "b1", "eps1", "c1") in words


def test_sphere5_comparability(sphere5_pres):
    p = sphere5_pres
    assert p.comparable(direct("a1"), inverse("b1"))
    assert p.comparable(inverse("b1"), direct("a1"))
    assert p.comparable(direct("c2"), inverse("a2"))
    assert not p.comparable(inverse("a3"), direct("a1"))
    assert not p.comparable(direct("b3"), direct("a1"))
    assert p.comparable(direct("a1"), direct("a1"))


def test_unknown_letter_raises(sphere5_pres):
    with pytest.raises(ValueError):
        is_string(sphere5_pres, (direct("zz"),))
    with pytest.raises(ValueError):
        is_string(sphere5_pres, (direct("eps1"),))
    with pytest.raises(ValueError):
        is_string(sphere5_pres, (special("a1"),))
    with pytest.raises(ValueError):
        is_string(sphere5_pres, ())


# ---------------------------------------------------------------------------
# string and band checks


def test_string_examples(sphere5_pres):
    p = sphere5_pres
    res = is_string(p, parse_word("a1.a1'"))
    assert not res.ok
    assert res.violations[0].kind == "W1"
    assert res.violations[0].position == 1

    res = is_string(p, parse_word("a1.b1"))
    assert not res.ok
    assert res.violations[0].kind == "W2"

    assert is_string(p, parse_word("a1.b2.eps2*.c2")).ok


def test_string_w3_violation(sphere5_pres):
    res = is_string(sphere5_pres, parse_word("a1.c1"))
    assert not res.ok
    assert res.violations[0].kind == "W3"


def test_forbidden_with_special_letters_is_inert(sphere5_pres):
    # relation words containing special letters do not act as factor bans
    assert is_string(sphere5_pres, parse_word("b2.eps2*.c2.a3")).ok


def test_inverse_factor_detected(sphere5_pres):
    # (a1 b1)^-1 = b1' a1' is banned through the inverse scan
    res = is_string(sphere5_pres, parse_word("b1'.a1'"))
    assert not res.ok
    assert res.violations[0].kind == "W2"


def test_band_examples(sphere5_pres):
    p = sphere5_pres
    alpha = parse_word(ALPHA)
    beta = parse_word(BETA)
    assert is_band(p, alpha).ok
    assert is_band(p, beta).ok
    res = is_band(p, alpha + alpha)
    assert not res.ok
    assert any(v.kind == "primitive" for v in res.violations)
    # open word is not a band
    res = is_band(p, parse_word("a1.b2"))
    assert not res.ok
    assert any(v.kind == "closed" for v in res.violations)


def test_band_powers_of_compositions(sphere5_pres):
    p = sphere5_pres
    alpha = parse_word(ALPHA)
    beta = parse_word(BETA)
    assert is_band(p, alpha + beta).ok
    assert is_band(p, beta + alpha).ok


def test_canonical_band(sphere5_pres):
    # the census lists each band once, as its least rotation
    alpha = parse_word(ALPHA)
    census = enumerate_bands(sphere5_pres, 3)
    assert census.words == tuple(map(oracles.naive_canonical, census.words))
    for i in range(len(alpha)):
        rot = alpha[i:] + alpha[:i]
        assert oracles.naive_canonical(rot) in census.words


def test_band_rotation_invariance(sphere5_pres):
    beta = parse_word(BETA)
    for i in range(len(beta)):
        rot = beta[i:] + beta[:i]
        assert is_band(sphere5_pres, rot).ok


# ---------------------------------------------------------------------------
# string quotients


def test_quotient_forbidden_counts(torus_quotient, genus2_setup):
    assert len(torus_quotient.forbidden) == 6
    assert all(len(f.arrows) == 2 for f in torus_quotient.forbidden)
    _, _, _, pres = genus2_setup
    assert len(pres.forbidden) == 18
    assert all(len(f.arrows) == 2 for f in pres.forbidden)


def test_quotient_requires_long_orbits():
    maps = qp.arrow_maps(fixtures.builtin_triangulation("tetra"))
    with pytest.raises(ValueError, match="length 3 < 4"):
        string_quotient(maps)


def test_quotient_is_string_algebra(torus_quotient, genus2_setup):
    # for each arrow at most one composable successor avoids the ideal
    for pres in (torus_quotient, genus2_setup[3]):
        banned = {tuple(f.arrows) for f in pres.forbidden}
        for x, (s, t) in pres.arrows.items():
            nexts = [
                y for y, (s2, t2) in pres.arrows.items()
                if s2 == t and (x, y) not in banned
            ]
            assert len(nexts) <= 1


def test_xi_words(torus_maps, torus_quotient, genus2_setup):
    xi = strings_build_xi = strings.build_xi(torus_maps, "x0_0")
    assert len(xi) == 10
    assert xi[0].kind == "direct"
    assert is_band(torus_quotient, xi).ok
    _, _, maps2, pres2 = genus2_setup
    for aid in sorted(maps2.f):
        xi2 = strings.build_xi(maps2, aid)
        assert len(xi2) == 34
        assert is_band(pres2, xi2).ok


def test_xi_companion_rules(torus_maps, torus_quotient):
    # the companions of alpha are gamma = f(alpha) and beta = f(gamma): rho1
    # runs along gamma's g-orbit, rho2 along beta's, and delta = f(g(gamma))
    # sits between the two flanks of xi
    f, g = torus_maps.f, torus_maps.g
    for aid in sorted(f):
        gamma, beta = f[aid], f[f[aid]]
        around_gamma = torus_maps.g_orbit(gamma)
        assert strings.rho1(torus_maps, aid) == around_gamma[2:]
        assert strings.rho2(torus_maps, aid) == torus_maps.g_orbit(beta)[1:-1]
        xi = strings.build_xi(torus_maps, aid)
        assert xi[0] == direct(aid)
        assert xi[len(around_gamma) - 1] == direct(f[g[gamma]])
        assert is_band(torus_quotient, xi).ok


def test_rho_identities(torus_maps, genus2_setup):
    # rho2 of the follower arrow retraces the g-orbit of the start arrow
    for maps in (torus_maps, genus2_setup[2]):
        orbit_len = {x: len(orb) for _, orb in maps.g_orbits for x in orb}
        for aid in sorted(maps.f):
            beta = maps.f[maps.f[aid]]  # the third arrow of its triangle
            n_a = orbit_len[aid]
            expected = [aid]
            for _ in range(n_a - 3):
                expected.append(maps.g[expected[-1]])
            assert list(strings.rho2(maps, maps.g[beta])) == expected


def test_eta_is_inverted_xi(torus_maps, torus_quotient):
    # the companion of x0_0 is beta = f(f(x0_0))
    f, g = torus_maps.f, torus_maps.g
    eta = strings.build_eta(torus_maps, "x0_0")
    assert eta == invert_word(strings.build_xi(torus_maps, g[f[f["x0_0"]]]))
    assert is_band(torus_quotient, eta).ok


# ---------------------------------------------------------------------------
# free composability


def test_free_composability_alpha_beta(sphere5_pres):
    alpha = parse_word(ALPHA)
    beta = parse_word(BETA)
    res = free_composability(sphere5_pres, alpha, beta, depth=6)
    assert isinstance(res, FreeComposability)
    assert res.depth == 6
    assert len(res.necklaces) == 23  # binary necklace classes to length 6
    assert all(not j["violations"] for j in res.junctions)


def test_free_composability_requires_bands(sphere5_pres):
    alpha = parse_word(ALPHA)
    with pytest.raises(ValueError):
        free_composability(sphere5_pres, alpha + alpha, alpha, depth=3)


@pytest.mark.parametrize("depth", [0, 1])
def test_free_composability_rejects_short_depth(sphere5_pres, depth):
    alpha = parse_word(ALPHA)
    beta = parse_word(BETA)
    with pytest.raises(ValueError, match="depth must be >= 2"):
        free_composability(sphere5_pres, alpha, beta, depth=depth)


def test_free_composability_same_word_fails(sphere5_pres):
    alpha = parse_word(ALPHA)
    res = free_composability(sphere5_pres, alpha, alpha, depth=4)
    assert isinstance(res, CounterExample)
    assert "12" in res.symbols or "primitive" in res.reason


def test_free_composability_disjoint_supports():
    arrows = {
        "p": ("u1", "u2"), "q": ("u2", "u3"), "r": ("u3", "u1"),
        "s": ("w1", "w2"), "t": ("w2", "w3"), "u": ("w3", "w1"),
    }
    pres = WordPresentation(
        "two-triangles",
        ("u1", "u2", "u3", "w1", "w2", "w3"),
        arrows, (), (), ())
    w1 = tuple(direct(x) for x in ("p", "q", "r"))
    w2 = tuple(direct(x) for x in ("s", "t", "u"))
    res = free_composability(pres, w1, w2, depth=3)
    assert isinstance(res, CounterExample)
    assert "disjoint" in res.reason


# ---------------------------------------------------------------------------
# enumeration against the exhaustive oracle


def test_census_matches_oracle_sphere5(sphere5_pres):
    census = enumerate_bands(sphere5_pres, 8)
    want = oracles.naive_enumerate_bands(sphere5_pres, 8)
    got = {d: set() for d in range(1, 9)}
    for w in census.words:
        got[len(w)].add(oracles.naive_canonical(w))
    assert {d: len(s) for d, s in got.items()} == {
        1: 0, 2: 0, 3: 2, 4: 0, 5: 4, 6: 3, 7: 6, 8: 9}
    for d in range(1, 9):
        assert got[d] == want[d], "length %d" % d


def test_census_matches_oracle_torus_quotient(torus_quotient):
    census = enumerate_bands(torus_quotient, 6)
    want = oracles.naive_enumerate_bands(torus_quotient, 6)
    got = {d: set() for d in range(1, 7)}
    for w in census.words:
        got[len(w)].add(oracles.naive_canonical(w))
    for d in range(1, 7):
        assert got[d] == want[d], "length %d" % d


def test_census_membership_and_counts(sphere5_pres):
    census = enumerate_bands(sphere5_pres, 8)
    alpha = parse_word(ALPHA)
    assert alpha in census.words
    assert oracles.naive_canonical(alpha[1:] + alpha[:1]) == alpha
    assert parse_word(BETA) in census.words
    assert census.count(3) == 2
    assert census.total == sum(census.count(d) for d in range(1, 9))


def test_growth_report_shape(sphere5_pres):
    census = enumerate_bands(sphere5_pres, 8)
    rep = growth_report(census)
    assert rep["max_rate"] == pytest.approx(4 ** 0.2)
    assert rep["argmax_length"] == 5
    assert rep["total"] == 24
    assert rep["self_inverse"] == 6
    assert rep["up_to_inversion"] == 15


def test_growth_report_rates_of_counts_past_the_float_range():
    rep = growth_report(BandCensus("big", 3, (0, 6, 10 ** 400), 0))
    assert rep["rates"][2] == 6 ** 0.5
    assert rep["rates"][3] == pytest.approx(10 ** (400 / 3), rel=1e-12)
    assert rep["max_rate"] == rep["rates"][3]


def test_enumerate_bands_builds_one_graph(sphere5_pres, monkeypatch):
    calls = []

    def counted(p, _build=strings._context_graph):
        calls.append(p)
        return _build(p)

    monkeypatch.setattr(strings, "_context_graph", counted)
    listed = enumerate_bands(sphere5_pres, 8)
    assert len(calls) == 1
    assert listed.counts == band_counts(sphere5_pres, 8).counts
    assert len(calls) == 2


def test_counted_census_has_no_words(sphere5_pres):
    census = band_counts(sphere5_pres, 8)
    assert census.words is None
    assert (census.counts, census.self_inverse) == (
        (0, 0, 2, 0, 4, 3, 6, 9), 6)


def test_is_band_names_each_cyclic_violation_once(torus_quotient):
    # each x f(x) of the triangle's 3-cycle is forbidden; the checked power
    # w^2 repeats the windows at 1 and 2 from letter 4 on, and the window
    # at 3 wraps round to letter 1
    res = is_band(torus_quotient, parse_word("x0_0.x0_1.x0_2"))
    assert [str(v) for v in res.violations] == [
        "W2 at 1: letters 1-2 spell forbidden word x0_0.x0_1",
        "W2 at 2: letters 2-3 spell forbidden word x0_1.x0_2",
        "W2 at 3: letters 3-1 (2 letters, wrapping) spell forbidden word "
        "x0_2.x0_0",
    ]


def test_is_band_numbers_letters_within_the_word(sphere5_pres):
    # the closing junction of a1.a2'.a3.a1' is a1' then a1
    res = is_band(sphere5_pres, parse_word("a1.a2'.a3.a1'"))
    assert [str(v) for v in res.violations] == [
        "W3 at 3: letters 3 and 4 do not compose "
        "(a3 ends at 1, a1' starts at 2)",
        "W1 at 4: letter 1 is the inverse of letter 4",
        "incomparability at 4: junction pair (a1, a1) is comparable",
    ]
    # a window longer than the word wraps round it more than once
    pres = WordPresentation("loop", ("v",), {"x": ("v", "v")}, (),
                            [ForbiddenWord(("x", "x", "x"))])
    assert [str(v) for v in is_band(pres, parse_word("x")).violations] == [
        "W2 at 1: letters 1-1 (3 letters, wrapping) spell forbidden word "
        "x.x.x",
    ]


def _builtin_quotient(name):
    return certificates.quotient_from_spec(
        certificates.presentation_spec({"builtin": name}))


def _agrees_with_the_dense_oracle(pres, max_len, graph):
    """band_counts' census of graph against dense powers of its matrix;
    returns the graph's states and its edges (i, letter, j)."""
    states, step = graph
    edges = [(i, y, j) for i, s in enumerate(step) for y, j in s.items()]
    census = strings._census(pres, max_len, graph)
    assert (list(census.counts), census.self_inverse) == \
        oracles.dense_census(pres, max_len, states, edges)
    return states, edges


@pytest.mark.parametrize("name,max_len", [
    ("torus", 80), ("sphere5", 40),
    # past L = 57, n r^L > 2^62 for sphere5, and its self-inverse walks
    # are summed in Python ints as well
    ("sphere5", 60),
])
def test_band_counts_match_big_int_oracle(name, max_len):
    pres = _builtin_quotient(name)[0]
    census = band_counts(pres, max_len)
    counts, self_inverse = oracles.naive_band_counts(pres, max_len)
    assert list(census.counts) == counts
    assert census.self_inverse == self_inverse
    if name == "torus":
        assert max(counts) > 2 ** 63
    # the Python-int branch of the stepped powers, against dense ones
    _agrees_with_the_dense_oracle(pres, max_len, strings._context_graph(pres))


def test_census_counts_parallel_edges(torus_quotient):
    # a context ends with the letter read into it, so _context_graph never
    # joins two contexts by two letters; a hand-made graph does
    x, y, z = torus_quotient.letters()[:3]
    states = [(x,), (y,), (z,)]
    step = [{x: 1, y: 1}, {x: 2, z: 0}, {x: 2, y: 2, z: 0}]
    for max_len in (1, 6, 20):
        _agrees_with_the_dense_oracle(torus_quotient, max_len, (states, step))


def test_census_counts_contexts_without_in_or_out_edges():
    # a' ends at u, where only a starts, and nothing but a' ends at u
    pres = WordPresentation(
        "dead-ends", ("u", "v"),
        {"a": ("u", "v"), "b": ("v", "v"), "c": ("v", "v")}, (),
        [ForbiddenWord(("b", "b", "b")), ForbiddenWord(("c", "b"))])
    graph = strings._context_graph(pres)
    states, edges = _agrees_with_the_dense_oracle(pres, 12, graph)
    assert {(direct("a"),)} == set(states) - {states[j] for _, _, j in edges}
    assert {(inverse("a"),)} == set(states) - {states[i] for i, _, _ in edges}
    assert band_counts(pres, 12).counts[-1] == 242


def test_census_counts_several_hundred_contexts():
    # genus2's string quotient with a window of 10 arrows from each start
    # along its one g-orbit of 18
    pres, maps = _builtin_quotient("genus2")
    (_, orbit), = maps.g_orbits
    pres = WordPresentation(
        "genus2-g-windows", pres.vertices, pres.arrows, (),
        pres.forbidden + tuple(ForbiddenWord((orbit[i:] + orbit[:i])[:10])
                               for i in range(len(orbit))))
    states, _ = _agrees_with_the_dense_oracle(
        pres, 10, strings._context_graph(pres))
    assert len(states) == 324


# ---------------------------------------------------------------------------
# W2 window table: exact violation reports, band seam check


def _loops_presentation():
    """One vertex, two loops; overlapping and repeated forbidden words."""
    return WordPresentation(
        "loops", ("v",), {"x": ("v", "v"), "y": ("v", "v")}, (),
        [ForbiddenWord(("x", "y", "x")), ForbiddenWord(("y", "x")),
         ForbiddenWord(("y", "x")), ForbiddenWord(("x",))])


# (presentation, word, every (kind, position, detail) in reporting order)
W2_GOLDEN = [
    ("sphere5", "a1.b1", (
        ("W2", 1, "letters 1-2 spell forbidden word a1.b1"),
    )),
    ("sphere5", "b1'.a1'", (
        ("W2", 1, "letters 1-2 spell the inverse of forbidden word a1.b1"),
    )),
    ("sphere5", "c2.a3.a1.b2", (
        ("W2", 1, "letters 1-4 spell forbidden word c2.a3.a1.b2"),
    )),
    ("sphere5", "b2'.a1'.a3'.c2'", (
        ("W2", 1, "letters 1-4 spell the inverse of forbidden word c2.a3.a1.b2"),
    )),
    ("sphere5", "a1.b1.c1.a1.b1", (
        ("W2", 1, "letters 1-2 spell forbidden word a1.b1"),
        ("W2", 2, "letters 2-3 spell forbidden word b1.c1"),
        ("W2", 3, "letters 3-4 spell forbidden word c1.a1"),
        ("W2", 4, "letters 4-5 spell forbidden word a1.b1"),
    )),
    ("sphere5", "c1'.b1'.a1'.c1'", (
        ("W2", 1, "letters 1-2 spell the inverse of forbidden word b1.c1"),
        ("W2", 2, "letters 2-3 spell the inverse of forbidden word a1.b1"),
        ("W2", 3, "letters 3-4 spell the inverse of forbidden word c1.a1"),
    )),
    ("sphere5", "a1.a1'", (
        ("W1", 1, "letter 2 is the inverse of letter 1"),
        ("incomparability", 1, "junction pair (a1', a1') is comparable"),
    )),
    ("sphere5", "a1.c1", (
        ("W3", 1, "letters 1 and 2 do not compose (a1 ends at 2, c1 starts at 4)"),
        ("incomparability", 1, "junction pair (a1', c1) is comparable"),
    )),
    ("sphere5", "c2.a3.a1.b2.c2.a3.a1.b2", (
        ("W2", 1, "letters 1-4 spell forbidden word c2.a3.a1.b2"),
        ("W2", 4, "letters 4-5 spell forbidden word b2.c2"),
        ("W2", 5, "letters 5-8 spell forbidden word c2.a3.a1.b2"),
    )),
    ("sphere5", "a3'.c2'.b2'.a1'.a3'.c2'", (
        ("W2", 2, "letters 2-3 spell the inverse of forbidden word b2.c2"),
        ("W2", 3, "letters 3-6 spell the inverse of forbidden word c2.a3.a1.b2"),
    )),
    ("sphere5", "a1.b2.eps2*.c2.a3.a1.b2", (
        ("W2", 4, "letters 4-7 spell forbidden word c2.a3.a1.b2"),
    )),
    ("sphere5", "a1.b2.eps2*.c2", (
    )),
    ("sphere5", "b2.eps2*.c2.a3", (
    )),
    ("sphere5", "a1.a2'.a3.a1.a2'.a3", (
    )),
    ("sphere5", "eps1*.eps1*", (
        ("W1", 1, "letter 2 is the inverse of letter 1"),
        ("incomparability", 1, "junction pair (eps1*, eps1*) is comparable"),
    )),
    ("torus", "x1_1'.x0_0'.x0_2'.x0_1'.x0_0'", (
        ("W2", 2, "letters 2-3 spell the inverse of forbidden word x0_2.x0_0"),
        ("W2", 3, "letters 3-4 spell the inverse of forbidden word x0_1.x0_2"),
        ("W2", 4, "letters 4-5 spell the inverse of forbidden word x0_0.x0_1"),
    )),
    ("torus", "x1_0.x0_0'.x0_2'.x0_1'.x1_1.x0_1'", (
        ("W2", 2, "letters 2-3 spell the inverse of forbidden word x0_2.x0_0"),
        ("W2", 3, "letters 3-4 spell the inverse of forbidden word x0_1.x0_2"),
    )),
    ("torus", "x1_1'.x0_0'.x0_2'.x0_1'.x1_1.x0_1'.x0_1.x0_1'.x0_1", (
        ("W2", 2, "letters 2-3 spell the inverse of forbidden word x0_2.x0_0"),
        ("W2", 3, "letters 3-4 spell the inverse of forbidden word x0_1.x0_2"),
        ("W1", 6, "letter 7 is the inverse of letter 6"),
        ("incomparability", 6, "junction pair (x0_1, x0_1) is comparable"),
        ("W1", 7, "letter 8 is the inverse of letter 7"),
        ("incomparability", 7, "junction pair (x0_1', x0_1') is comparable"),
        ("W1", 8, "letter 9 is the inverse of letter 8"),
        ("incomparability", 8, "junction pair (x0_1, x0_1) is comparable"),
    )),
    ("torus", "x1_1.x0_1'.x0_0'", (
        ("W2", 2, "letters 2-3 spell the inverse of forbidden word x0_0.x0_1"),
    )),
    ("torus", "x0_1'.x1_1.x1_2.x1_0.x1_1.x1_2.x1_0", (
        ("W2", 2, "letters 2-3 spell forbidden word x1_1.x1_2"),
        ("W2", 3, "letters 3-4 spell forbidden word x1_2.x1_0"),
        ("W2", 4, "letters 4-5 spell forbidden word x1_0.x1_1"),
        ("W2", 5, "letters 5-6 spell forbidden word x1_1.x1_2"),
        ("W2", 6, "letters 6-7 spell forbidden word x1_2.x1_0"),
    )),
    ("torus", "x0_1'.x0_1.x0_2.x0_0.x1_0'", (
        ("W1", 1, "letter 2 is the inverse of letter 1"),
        ("incomparability", 1, "junction pair (x0_1, x0_1) is comparable"),
        ("W2", 2, "letters 2-3 spell forbidden word x0_1.x0_2"),
        ("W2", 3, "letters 3-4 spell forbidden word x0_2.x0_0"),
    )),
    ("torus", "x1_0'.x1_0.x1_1.x1_1'.x0_0'.x0_0.x1_1", (
        ("W1", 1, "letter 2 is the inverse of letter 1"),
        ("incomparability", 1, "junction pair (x1_0, x1_0) is comparable"),
        ("W2", 2, "letters 2-3 spell forbidden word x1_0.x1_1"),
        ("W1", 3, "letter 4 is the inverse of letter 3"),
        ("incomparability", 3, "junction pair (x1_1', x1_1') is comparable"),
        ("W1", 5, "letter 6 is the inverse of letter 5"),
        ("incomparability", 5, "junction pair (x0_0, x0_0) is comparable"),
    )),
    ("torus", "x1_2'.x1_1'.x1_1.x1_2.x0_0", (
        ("W2", 1, "letters 1-2 spell the inverse of forbidden word x1_1.x1_2"),
        ("W1", 2, "letter 3 is the inverse of letter 2"),
        ("incomparability", 2, "junction pair (x1_1, x1_1) is comparable"),
        ("W2", 3, "letters 3-4 spell forbidden word x1_1.x1_2"),
    )),
    ("loops", "x.y.x", (
        ("W2", 1, "letters 1-1 spell forbidden word x"),
        ("W2", 1, "letters 1-3 spell forbidden word x.y.x"),
        ("W2", 2, "letters 2-3 spell forbidden word y.x"),
        ("W2", 2, "letters 2-3 spell forbidden word y.x"),
        ("W2", 3, "letters 3-3 spell forbidden word x"),
    )),
    ("loops", "x'.y'.x'", (
        ("W2", 1, "letters 1-1 spell the inverse of forbidden word x"),
        ("W2", 1, "letters 1-2 spell the inverse of forbidden word y.x"),
        ("W2", 1, "letters 1-2 spell the inverse of forbidden word y.x"),
        ("W2", 1, "letters 1-3 spell the inverse of forbidden word x.y.x"),
        ("W2", 3, "letters 3-3 spell the inverse of forbidden word x"),
    )),
    ("loops", "y.x.y.x", (
        ("W2", 1, "letters 1-2 spell forbidden word y.x"),
        ("W2", 1, "letters 1-2 spell forbidden word y.x"),
        ("W2", 2, "letters 2-2 spell forbidden word x"),
        ("W2", 2, "letters 2-4 spell forbidden word x.y.x"),
        ("W2", 3, "letters 3-4 spell forbidden word y.x"),
        ("W2", 3, "letters 3-4 spell forbidden word y.x"),
        ("W2", 4, "letters 4-4 spell forbidden word x"),
    )),
    ("loops", "y'.y'.x'.y'", (
        ("W2", 3, "letters 3-3 spell the inverse of forbidden word x"),
        ("W2", 3, "letters 3-4 spell the inverse of forbidden word y.x"),
        ("W2", 3, "letters 3-4 spell the inverse of forbidden word y.x"),
    )),
]


def test_is_string_violations_golden(sphere5_pres, torus_quotient):
    pres = {"sphere5": sphere5_pres, "torus": torus_quotient,
            "loops": _loops_presentation()}
    for name, text, want in W2_GOLDEN:
        got = is_string(pres[name], parse_word(text)).violations
        assert tuple((v.kind, v.position, v.detail) for v in got) == want, \
            (name, text)


@pytest.mark.parametrize("max_len", [0, -3])
def test_enumerate_bands_rejects_nonpositive_max_len(max_len):
    # the single loop x is a band of length 1
    pres = WordPresentation("loop", ("v",), {"x": ("v", "v")}, (), ())
    assert enumerate_bands(pres, 1).counts == (2,)
    with pytest.raises(ValueError, match="max_len must be >= 1"):
        enumerate_bands(pres, max_len)


@st.composite
def _presentations(draw):
    """Small presentations whose forbidden words outrun the band lengths.

    Forbidden words of length 1-7 against bands of length at most 4 make
    the seam windows wrap a band more than once; up to two comparability
    pairs between letters with a common end exercise the junction rule.
    """
    vertices = ("u", "v")[: draw(st.integers(1, 2))]
    arrows = {}
    for k in range(draw(st.integers(2, 3))):
        arrows["a%d" % k] = (draw(st.sampled_from(vertices)),
                             draw(st.sampled_from(vertices)))
    specials = ()
    if draw(st.booleans()):
        arrows["e"] = (vertices[-1], vertices[-1])
        specials = ("e",)
    forbidden = []
    for _ in range(draw(st.integers(1, 3))):
        walk = [draw(st.sampled_from(sorted(arrows)))]
        for _ in range(draw(st.integers(0, 6))):
            nexts = sorted(a for a, (s, t) in arrows.items()
                           if s == arrows[walk[-1]][1])
            if not nexts:
                break
            walk.append(draw(st.sampled_from(nexts)))
        forbidden.append(ForbiddenWord(tuple(walk)))
    plain = WordPresentation("random", vertices, arrows, specials, forbidden)
    letters = plain.letters()
    comparability = []
    for _ in range(draw(st.integers(0, 2))):
        x = draw(st.sampled_from(letters))
        same_end = [y for y in letters
                    if y != x and plain.end(y) == plain.end(x)]
        if same_end:
            comparability.append((x, draw(st.sampled_from(same_end))))
    return WordPresentation("random", vertices, arrows, specials, forbidden,
                            comparability)


@settings(max_examples=60, deadline=None)
@given(_presentations(), st.integers(1, 4))
def test_census_matches_oracle_random_presentations(pres, max_len):
    census = enumerate_bands(pres, max_len)
    want = oracles.naive_enumerate_bands(pres, max_len)
    got = {d: set() for d in range(1, max_len + 1)}
    for w in census.words:
        got[len(w)].add(oracles.naive_canonical(w))
    assert got == want


@settings(max_examples=80, deadline=None)
@given(_presentations(), st.integers(1, 8))
def test_band_counts_match_enumerator_random_presentations(pres, max_len):
    counted = band_counts(pres, max_len)
    listed = enumerate_bands(pres, max_len)
    assert counted.counts == listed.counts
    # enumerate_bands takes self_inverse from band_counts; the listed
    # words give an independent count
    assert counted.self_inverse == sum(
        oracles.naive_canonical(invert_word(u)) == u for u in listed.words)
    # both walk the same context graph; the de Bruijn oracle does not, and
    # is cheap while its states, the legal words of length maxF - 1, are few
    if pres.max_effective_forbidden <= 4:
        counts, self_inverse = oracles.naive_band_counts(pres, max_len)
        assert (counted.counts, counted.self_inverse) == (
            tuple(counts), self_inverse)
    # a band of odd length is never a rotation of its inverse
    assert all(len(u) % 2 == 0 for u in listed.words
               if oracles.naive_canonical(invert_word(u)) == u)


@st.composite
def _band_pairs(draw):
    """A _presentations draw, two of its bands of length <= 4, a depth."""
    pres = draw(_presentations())
    bands = enumerate_bands(pres, 4).words
    assume(bands)
    return (pres, draw(st.sampled_from(bands)), draw(st.sampled_from(bands)),
            draw(st.integers(2, 5)))


# The seams of blocks a0'.a1' and a0'.a1'.a1'.a1' are clean, but the first
# block is shorter than maxF - 1 = 5: the forbidden window a1.a1.a0.a1.a0.a1
# (read inverted) crosses three blocks of pattern 12.
_SHORT_BLOCK_PAIR = (
    WordPresentation("random", ("u",), {"a0": ("u", "u"), "a1": ("u", "u")},
                     (), [ForbiddenWord(("a1", "a1", "a0", "a1", "a0", "a1"))]),
    parse_word("a0'.a1'"), parse_word("a0'.a1'.a1'.a1'"), 3)


@settings(max_examples=150, deadline=None)
@given(_band_pairs())
@example(_SHORT_BLOCK_PAIR)
def test_free_composability_matches_oracle_random_presentations(case):
    pres, w1, w2, depth = case
    got = free_composability(pres, w1, w2, depth=depth)
    if isinstance(got, CounterExample):
        got = ("fail", got.symbols)
    else:
        got = ("necklaces", tuple(s for s, _, _ in got.necklaces))
    assert got == oracles.naive_free_composability(pres, w1, w2, depth)


def test_free_composability_short_block_fails_at_12():
    pres, w1, w2, depth = _SHORT_BLOCK_PAIR
    blocks = {"1": oracles.naive_canonical(w1),
              "2": oracles.naive_canonical(w2)}
    assert blocks == {"1": w1, "2": w2}
    for a in "12":
        for b in "12":
            rec = strings._junction_record(pres, a + b, blocks[a], blocks[b])
            assert rec["violations"] == ()
    res = free_composability(pres, w1, w2, depth=depth)
    assert isinstance(res, CounterExample)
    assert res.symbols == "12"
    assert {v.kind for v in res.check.violations} == {"W2"}


# Junction records with non-empty seam factors or several violations, as the
# growth certificate stores them.  A window that crosses a seam contains the
# junction pair, and every window is composable and of one letter kind, so W2
# never comes with W3 or W1; incomparability can come with any of the three.
_LOOPS = {"a0": ("u", "u"), "a1": ("u", "u")}
_STACKED = WordPresentation(
    "stacked", ("u",), _LOOPS, (),
    [ForbiddenWord(("a0", "a1", "a1")), ForbiddenWord(("a1", "a1"))])
_COMPARABLE = WordPresentation(
    "comparable", ("u",), _LOOPS, (), [ForbiddenWord(("a0", "a1"))],
    ((inverse("a0"), direct("a1")),))

JUNCTION_GOLDEN = [
    # the seam crosses c2.a3.a1.b2, directly, inverted, at another split;
    # ids by the letters on each side of the seam
    pytest.param(
        ("sphere5", "c1'.eps1*.b1'.b2.eps2*.c2.a3",
         "a1.b2.eps2*.c2.c3'.eps3*.b3'",
         ("W2",), ("letters 6-9 spell forbidden word c2.a3.a1.b2",)),
        id="sphere5-seam-2+2"),
    pytest.param(
        ("sphere5", "b3.eps3*.c3.c2'.eps2*.b2'.a1'",
         "a3'.c2'.eps2*.b2'.b1.eps1*.c1", ("W2",),
         ("letters 6-9 spell the inverse of forbidden word c2.a3.a1.b2",)),
        id="sphere5-seam-inverse-2+2"),
    pytest.param(
        ("sphere5", "c1'.eps1*.b1'.b2.eps2*.c2",
         "a3.a1.b2.eps2*.c2.c3'.eps3*.b3'",
         ("W2",), ("letters 6-9 spell forbidden word c2.a3.a1.b2",)),
        id="sphere5-seam-1+3"),
    # two windows end at letter 3, reported in forbidden-list order
    ("stacked", "a0.a1", "a1.a0", ("W2",),
     ("letters 1-3 spell forbidden word a0.a1.a1",
      "letters 2-3 spell forbidden word a1.a1")),
    ("comparable", "a1.a0", "a1.a1", ("incomparability", "W2"),
     ("letters 2-3 spell forbidden word a0.a1",)),
    ("comparable", "a1.a0", "a0'.a1", ("W1", "incomparability"), ()),
    ("sphere5", "a1'", "b1'", ("W3", "incomparability"), ()),
]


@pytest.mark.parametrize("case", JUNCTION_GOLDEN, ids=lambda c: c[1] + "|" + c[2])
def test_junction_record_golden(case, sphere5_pres):
    name, left, right, violations, seam = case
    pres = {"sphere5": sphere5_pres, "stacked": _STACKED,
            "comparable": _COMPARABLE}[name]
    left, right = parse_word(left), parse_word(right)
    assert strings._junction_record(pres, "12", left, right) == {
        "blocks": "12",
        "last": format_word(left[-1:]),
        "first": format_word(right[:1]),
        "violations": violations,
        "seam_factors": seam,
    }


@pytest.mark.parametrize("name", ["sphere5", "torus", "genus2"])
def test_junction_faults_of_every_letter_pair(name, sphere5_pres,
                                              torus_quotient, genus2_setup):
    pres = {"sphere5": sphere5_pres, "torus": torus_quotient,
            "genus2": genus2_setup[3]}[name]
    inv = {"direct": "inverse", "inverse": "direct", "special": "special"}
    letters = oracles.naive_letters(pres)
    seen = collections.Counter()
    for x in letters:
        xi = Letter(x.arrow, inv[x.kind])
        for y in letters:
            want = tuple(kind for kind, broken in (
                ("W3", oracles._letter_ends(pres, x)[1]
                 != oracles._letter_ends(pres, y)[0]),
                ("W1", y == xi),
                ("incomparability", oracles.naive_comparable(pres, xi, y)))
                if broken)
            assert strings._junction_faults(pres, x, y) == want, (x, y)
            seen[want] += 1
    # only sphere5 has comparability pairs, whose letters never compose
    assert (seen[("W3", "incomparability")] > 0) == (name == "sphere5")


# ---------------------------------------------------------------------------
# randomized agreement with the condition-by-condition checker


def _random_words(pres, count, seed, max_len=12, walk_bias=0.8):
    rng = random.Random(seed)
    letters = pres.letters()
    by_start = {}
    for l in letters:
        by_start.setdefault(pres.start(l), []).append(l)
    out = []
    for _ in range(count):
        n = rng.randint(1, max_len)
        word = [rng.choice(letters)]
        while len(word) < n:
            if rng.random() < walk_bias:
                cands = by_start.get(pres.end(word[-1]), ())
                if cands:
                    word.append(rng.choice(cands))
                    continue
            word.append(rng.choice(letters))
        out.append(tuple(word))
    return out


@pytest.mark.parametrize("presname", ["sphere5", "torus", "genus2"])
def test_is_string_matches_oracle_randomized(presname, sphere5_pres,
                                             torus_quotient, genus2_setup):
    pres = {
        "sphere5": sphere5_pres,
        "torus": torus_quotient,
        "genus2": genus2_setup[3],
    }[presname]
    words = _random_words(pres, 2000, seed=len(presname) * 1009 + 17)
    for w in words:
        assert is_string(pres, w).ok == oracles.naive_is_string(pres, w), \
            format_word(w)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_is_string_hypothesis_words(sphere5_pres, data):
    letters = sphere5_pres.letters()
    word = tuple(data.draw(st.lists(st.sampled_from(letters), min_size=1,
                                    max_size=10)))
    got = is_string(sphere5_pres, word).ok
    assert got == oracles.naive_is_string(sphere5_pres, word)
    # a word and its inverse are strings together
    assert got == is_string(sphere5_pres, invert_word(word)).ok


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_band_rotation_hypothesis(sphere5_pres, data):
    census = enumerate_bands(sphere5_pres, 7)
    word = data.draw(st.sampled_from(census.words))
    k = data.draw(st.integers(0, len(word) - 1))
    rot = word[k:] + word[:k]
    assert is_band(sphere5_pres, rot).ok
    assert oracles.naive_canonical(rot) == word
