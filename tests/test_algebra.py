import hashlib
import json
import pathlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from surfalg import algebra, certificates, cli, fixtures, homology, linalg, qp
from surfalg.qp import Arrow, Quiver, Relation, RelationSet

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "fixtures"


def _toy_quiver_loop():
    return Quiver(("v",), (Arrow("x", "v", "v"),))


def _toy_rels(q, paths):
    gens = tuple(
        Relation.from_dict({tuple(path): 1}) for path in paths
    )
    return RelationSet(gens)


# ---------------------------------------------------------------------------
# graded dimensions


def _graded_dims(q, rels, **kwargs):
    """(dims, stabilized): the algebra's graded dimensions, or those that
    compute_basis reached at max_deg."""
    try:
        return list(algebra.compute_basis(q, rels, **kwargs).graded_dims), True
    except algebra.NonStabilizationError as e:
        if e.reason != "max_deg reached":
            raise
        return list(e.graded_dims), False


def test_torus_graded_dimensions(torus_quiver, torus_relations):
    dims, stab = _graded_dims(torus_quiver, torus_relations, p=32003,
                              max_deg=40)
    assert stab
    assert dims == [3, 6, 6, 6, 6, 6, 3]


def test_torus_against_dense_oracle(torus_quiver, torus_relations):
    want = oracles.brute_graded_dims(torus_quiver, torus_relations, 32003, 6)
    got, _ = _graded_dims(torus_quiver, torus_relations, p=32003, max_deg=6)
    assert list(got) == want


def test_genus2_partials_and_oracle():
    t = fixtures.builtin_triangulation("genus2")
    maps = qp.arrow_maps(t)
    q = maps.quiver
    rels = qp.jacobian_relations(qp.build_potential(maps))
    dims, stab = _graded_dims(q, rels, p=32003, max_deg=6)
    assert not stab
    assert dims == [9, 18, 18, 18, 18, 18, 18]
    assert dims == oracles.brute_graded_dims(q, rels, 32003, 6)


def test_sphere5_quotient_grows():
    q = fixtures.sphere5_quiver()
    rels = qp.jacobian_relations(fixtures.sphere5_wprime())
    dims, stab = _graded_dims(q, rels, p=32003, max_deg=8)
    assert not stab
    assert dims == [9, 15, 31, 64, 103, 197, 394, 676, 1292]


def test_budget_exhaustion_raises():
    # the sphere5 quotient grows: its survivors of lengths 1..8 number
    # 1480 + 1292, more than the budget
    q = fixtures.sphere5_quiver()
    rels = qp.jacobian_relations(fixtures.sphere5_wprime())
    with pytest.raises(algebra.NonStabilizationError) as exc:
        algebra.compute_basis(q, rels, p=32003, max_deg=40,
                              path_budget=2000)
    err = exc.value
    assert err.reason == "path budget exceeded at degree 8"
    assert list(err.graded_dims) == [9, 15, 31, 64, 103, 197, 394, 676]


def test_toy_loop_truncations():
    q = _toy_quiver_loop()
    # x^2 = 0: k[x]/(x^2), dims 1, 1
    dims, stab = _graded_dims(q, _toy_rels(q, [("x", "x")]), p=5,
                              max_deg=10)
    assert stab and dims == [1, 1]
    # x^3 = 0
    dims, stab = _graded_dims(q, _toy_rels(q, [("x",) * 3]), p=5,
                              max_deg=10)
    assert stab and dims == [1, 1, 1]
    # no relations: never stabilizes
    dims, stab = _graded_dims(q, RelationSet(()), p=5, max_deg=5)
    assert not stab and dims == [1] * 6


def test_toy_oracle_agreement():
    q = _toy_quiver_loop()
    rels = _toy_rels(q, [("x",) * 3])
    want = oracles.brute_graded_dims(q, rels, 5, 6)
    got, _ = _graded_dims(q, rels, p=5, max_deg=6)
    assert want[: len(got)] == list(got)


def test_a2_path_algebra():
    q = Quiver(("1", "2"), (Arrow("x", "1", "2"),))
    rels = _toy_rels(q, [("x", "x")])  # not composable
    with pytest.raises(ValueError):
        algebra.compute_basis(q, rels, p=5, max_deg=4)


def test_nonprime_field_rejected(torus_quiver, torus_relations):
    with pytest.raises(ValueError, match="prime"):
        algebra.compute_basis(torus_quiver, torus_relations, p=32004)


@pytest.mark.parametrize("fn", [algebra.compute_basis])
@pytest.mark.parametrize("kwargs,message", [
    ({"max_deg": 0}, "max_deg must be >= 1"),
    ({"max_deg": -1}, "max_deg must be >= 1"),
    ({"path_budget": 0}, "path_budget must be >= 1"),
    ({"path_budget": -5}, "path_budget must be >= 1"),
], ids=["max_deg=0", "max_deg=-1", "path_budget=0", "path_budget=-5"])
def test_nonpositive_bounds_rejected(torus_quiver, torus_relations, fn,
                                     kwargs, message):
    with pytest.raises(ValueError, match=message):
        fn(torus_quiver, torus_relations, p=32003, **kwargs)


def _genus2_data():
    maps = qp.arrow_maps(fixtures.builtin_triangulation("genus2"))
    return maps.quiver, qp.jacobian_relations(qp.build_potential(maps))


@pytest.mark.parametrize("name", ["torus", "genus2"])
def test_graded_dims_independent_of_cutoff(name, torus_quiver,
                                           torus_relations):
    # every max_deg up to 8 stops the standard basis at a different degree
    if name == "torus":
        q, rels = torus_quiver, torus_relations
    else:
        q, rels = _genus2_data()
    full, _ = _graded_dims(q, rels, p=32003, max_deg=8)
    for k in range(1, 9):
        dims, stab = _graded_dims(q, rels, p=32003, max_deg=k)
        assert dims == full[: k + 1], k
        assert stab == (len(full) <= k), k


@st.composite
def _mixed_relation_algebras(draw):
    """Random 1-3 vertex quivers with relations mixing path lengths.

    Each relation is a 2-path, often minus a scalar times a parallel path
    of length 2, 3 or 4, the shape of a cyclic derivative of a potential.
    """
    p = draw(st.sampled_from([2, 3, 32003]))
    vertices = tuple("v%d" % i for i in range(draw(st.integers(1, 3))))
    arrows = tuple(
        Arrow("x%d" % k, draw(st.sampled_from(vertices)),
              draw(st.sampled_from(vertices)))
        for k in range(draw(st.integers(1, 4))))
    q = Quiver(vertices, arrows)
    _, by_len = oracles.all_paths_up_to(q, 4)
    gens = []
    if by_len[2]:
        for two in draw(st.lists(st.sampled_from(by_len[2]), min_size=1,
                                 max_size=6, unique=True)):
            terms = {two: 1}
            longer = [
                path for d in (2, 3, 4) for path in by_len[d]
                if path != two
                and q.path_source(path) == q.path_source(two)
                and q.path_target(path) == q.path_target(two)
            ]
            if longer and draw(st.booleans()):
                terms[draw(st.sampled_from(longer))] = -draw(
                    st.integers(1, p - 1))
            gens.append(Relation.from_dict(terms))
    return q, RelationSet(tuple(gens)), p


@settings(max_examples=40, deadline=None)
@given(_mixed_relation_algebras())
def test_mixed_relations_match_dense_oracle(data):
    q, rels, p = data
    want = oracles.brute_graded_dims(q, rels, p, 5)
    got, stab = _graded_dims(q, rels, p=p, max_deg=5)
    assert list(got) == want[: len(got)]
    if stab:
        assert not any(want[len(got):])
    else:
        assert len(got) == 6


def _quantum_plane():
    # x0^2 = x1^2 = 0 and x0 x1 = 3 x1 x0 over F_5
    q = Quiver(("v0",), (Arrow("x0", "v0", "v0"), Arrow("x1", "v0", "v0")))
    return q, RelationSet((
        Relation.from_dict({("x0", "x0"): 1}),
        Relation.from_dict({("x1", "x1"): 1}),
        Relation.from_dict({("x0", "x1"): 1, ("x1", "x0"): -3}))), 5


def _long_tail():
    # x0 x2 = x1^3, a surviving path longer than the tip
    q = Quiver(("v0", "v1"), (Arrow("x0", "v1", "v0"),
                              Arrow("x1", "v1", "v1"),
                              Arrow("x2", "v0", "v1")))
    return q, RelationSet((
        Relation.from_dict({("x2", "x1"): 1}),
        Relation.from_dict({("x1", "x0"): 1, ("x0", "x2", "x1", "x0"): -2}),
        Relation.from_dict({("x0", "x2"): 1, ("x1", "x1", "x1"): -1}))), 5


@settings(max_examples=40, deadline=None)
@given(_mixed_relation_algebras())
@example(_quantum_plane())
@example(_long_tail())
def test_mixed_relations_action_matches_dense_normal_forms(data):
    q, rels, p = data
    try:
        a = algebra.compute_basis(q, rels, p=p, max_deg=5)
    except algebra.NonStabilizationError:
        return
    nf = oracles.brute_normal_forms(q, rels, p, a.loewy_length)
    survivors = [path for path, form in nf.items() if form == {path: 1}]
    assert [path for v, path in a.basis if path] == survivors
    index = {path: i for i, (v, path) in enumerate(a.basis) if path}
    for (i, x), got in a.action.items():
        form = nf[a.basis[i][1] + (x,)]
        assert got == tuple(sorted((index[m], c) for m, c in form.items()))


# ---------------------------------------------------------------------------
# basis and multiplication


def test_torus_basis_shape(torus_algebra):
    a = torus_algebra
    assert a.dim == 36
    assert a.loewy_length == 7
    assert a.graded_dims == (3, 6, 6, 6, 6, 6, 3)
    # trivial paths first
    assert [el for el in a.basis[:3]] == [("1", ()), ("2", ()), ("3", ())]
    # basis closed under source lookup
    for i in range(a.dim):
        assert a.basis[i][0] in ("1", "2", "3")


def test_tetra_scalar_two_basis(tetra_algebra):
    assert tetra_algebra.dim == 36
    assert tetra_algebra.graded_dims == (6, 12, 12, 6)


def _algebra_digest(a):
    # the multiplication table and the Cartan matrix are functions of these
    text = repr((a.field, a.basis, a.graded_dims, sorted(a.action.items())))
    return hashlib.sha256(text.encode()).hexdigest()


# Digests of the field, basis, graded dimensions and right action, taken
# on the algebras of the earlier pins c0428c7c... and 001b7f54..., which were
# recorded before the degree loop moved to doubling cutoffs.
TETRA_DIGEST = "3c0678cb97f5610144389bb585f142b140205c2606242c477129393f07cba171"
TORUS_DIGEST = "760f5b132b539f5d8fe317fbc11041321970bd17384b1697ab556fb7c85f5d4f"


def test_tetra_mult_table_golden(tetra_algebra):
    assert _algebra_digest(tetra_algebra) == TETRA_DIGEST


# 3 + 5 * 6 = 33 survivors of positive length, and 9 tips
TORUS_BUDGET = 33


@pytest.mark.parametrize("kwargs", [
    {"max_deg": 40},
    {"max_deg": 7},  # the stopping length
    {"max_deg": 40, "path_budget": TORUS_BUDGET},
])
def test_torus_mult_table_golden(torus_quiver, torus_relations, kwargs):
    a = algebra.compute_basis(torus_quiver, torus_relations, p=32003,
                              **kwargs)
    assert _algebra_digest(a) == TORUS_DIGEST


def test_torus_budget_boundary(torus_quiver, torus_relations):
    with pytest.raises(algebra.NonStabilizationError) as exc:
        algebra.compute_basis(torus_quiver, torus_relations, p=32003,
                              max_deg=40, path_budget=TORUS_BUDGET - 1)
    assert exc.value.reason == "path budget exceeded at degree 6"
    assert exc.value.graded_dims == (3, 6, 6, 6, 6, 6)


@pytest.mark.parametrize("name", ["torus_algebra", "kx2_algebra",
                                  "tetra_algebra"])
def test_basis_is_prefix_closed_and_action_composable(request, name):
    # homology._path_images builds each path's image from its prefix's, and
    # mult_table walks the action; both rely on these two facts
    a = request.getfixturevalue(name)
    basis = set(a.basis)
    for v, path in a.basis:
        assert not path or (v, path[:-1]) in basis
    assert set(a.action) == {
        (i, x.id) for i in range(a.dim) for x in a.quiver.arrows
        if x.source == a.ends[i]}


@pytest.mark.parametrize("name", ["torus_algebra", "kx2_algebra",
                                  "tetra_algebra"])
def test_stored_fields_agree_with_the_basis(request, name):
    a = request.getfixturevalue(name)
    q = a.quiver
    assert a.vertices == tuple(sorted(q.vertices))
    assert a.basis[:len(a.vertices)] == tuple((v, ()) for v in a.vertices)
    assert len(a.index) == a.dim
    for i, (v, path) in enumerate(a.basis):
        assert a.index[(v, path)] == i
        assert a.ends[i] == (q.arrow(path[-1]).target if path else v)
    assert sorted(a.paths_from) == list(a.vertices)
    for v in a.vertices:
        from_v = a.paths_from[v]
        assert list(from_v) == [i for i, (u, _) in enumerate(a.basis)
                                if u == v]
        for k, i in enumerate(from_v):
            path = a.basis[i][1]
            assert not path or a.index[(v, path[:-1])] in from_v[:k]


def test_vertex_units_are_idempotent(torus_algebra):
    a = torus_algebra
    for v in ("1", "2", "3"):
        i = a.basis.index((v, ()))
        assert a.mult_table.get((i, i), ()) == ((i, 1),)


def test_unit_acts_as_identity(torus_algebra):
    a = torus_algebra
    for i in range(a.dim):
        src = a.basis.index((a.basis[i][0], ()))
        tgt = a.basis.index((a.ends[i], ()))
        assert a.mult_table.get((src, i), ()) == ((i, 1),)
        assert a.mult_table.get((i, tgt), ()) == ((i, 1),)


def _check_associativity(a):
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
                left = {b: c for b, c in left.items() if c}
                right = {b: c for b, c in right.items() if c}
                assert left == right, (i, j, k)


def test_torus_associativity_exhaustive(torus_algebra):
    _check_associativity(torus_algebra)


def test_tetra_associativity_exhaustive(tetra_algebra):
    _check_associativity(tetra_algebra)


def test_products_respect_filtration(torus_algebra):
    # the quotient is filtered by path length, not graded: rewriting a
    # short path can only produce components of equal or longer length
    a = torus_algebra
    deg = {}
    for i, (v, path) in enumerate(a.basis):
        deg[i] = len(path)
    for (i, j), prod in a.mult_table.items():
        for b, c in prod:
            assert deg[b] >= deg[i] + deg[j]


def test_cartan_matrix_torus(torus_algebra):
    cm = algebra.cartan_matrix(torus_algebra)
    assert torus_algebra.vertices == ("1", "2", "3")
    assert [[int(x) for x in row] for row in cm] == [[4, 4, 4]] * 3
    assert linalg.det_int(cm) == 0
    assert linalg.det_int(cm) == int(oracles.det_fraction(cm))


def test_cartan_matrix_tetra(tetra_algebra):
    cm = algebra.cartan_matrix(tetra_algebra)
    total = sum(sum(row) for row in cm)
    assert total == tetra_algebra.dim
    assert linalg.det_int(cm) == int(oracles.det_fraction(cm))


@pytest.mark.parametrize("name", ["torus", "torus2", "genus2"])
def test_cartan_matrix_matches_the_puncture_cycles(name):
    if name == "torus2":
        doc = FIXTURES.joinpath("torus2.json").read_text()
        spec = {"triangulation": json.loads(doc)}
    else:
        spec = {"builtin": name}
    a = certificates.algebra_from_spec(spec)
    t = certificates.triangulation_from_spec(spec)
    want = oracles.cartan_from_puncture_cycles(t.triangles, a.vertices)
    assert algebra.cartan_matrix(a).tolist() == want


def test_weakly_symmetric(torus_algebra, tetra_algebra):
    ok, witness = algebra.check_weakly_symmetric(torus_algebra)
    assert ok
    for v, info in witness.items():
        assert info["socle_dim"] == 1
        assert info["support"] == [v]
    ok2, _ = algebra.check_weakly_symmetric(tetra_algebra)
    assert ok2


def _not_weakly_symmetric():
    # k[x]/(x^2) over two vertices 1 -> 2: socle of P(1) sits at vertex 2
    q = Quiver(("1", "2"), (Arrow("x", "1", "2"), Arrow("y", "2", "1")))
    rels = _toy_rels(q, [("x", "y"), ("y", "x")])
    return algebra.compute_basis(q, rels, p=5, max_deg=10)


def test_not_weakly_symmetric_example():
    ok, witness = algebra.check_weakly_symmetric(_not_weakly_symmetric())
    assert not ok
    assert witness["1"]["support"] == ["2"]


def test_tube_rank_refuses_the_not_weakly_symmetric_example():
    # the simples are periodic, but O^2 is not tau over this algebra
    a = _not_weakly_symmetric()
    res = homology.check_periodicity(a, homology.simple_module(a, "1"))
    assert res.verdict == "periodic"
    with pytest.raises(ValueError, match="algebra is not weakly symmetric"):
        homology.tube_rank(a, res)


def test_serialization(torus_algebra, capsys):
    # `algebra --format json` is the algebra's one document
    assert cli.main(["algebra", "--builtin", "torus", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dimension"] == torus_algebra.dim == 36
    assert doc["graded_dimensions"] == list(torus_algebra.graded_dims)
    cm = algebra.cartan_matrix(torus_algebra)
    assert doc["cartan"]["vertices"] == list(torus_algebra.vertices)
    assert doc["cartan"]["matrix"] == cm.tolist()


# ---------------------------------------------------------------------------
# linear algebra kernel


@st.composite
def small_matrix(draw):
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 5))
    data = draw(
        st.lists(
            st.lists(st.integers(-20, 20), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    return np.array(data, dtype=np.int64)


@settings(max_examples=60, deadline=None)
@given(small_matrix(), st.sampled_from([2, 3, 5, 32003]))
def test_rref_matches_oracle(m, p):
    ours, pivots = linalg.rref(m, p)
    ref, ref_pivots = oracles.rref_mod(m, p)
    assert pivots == ref_pivots
    assert ours.shape == ref.shape
    assert (np.asarray(ours) % p == ref % p).all()


@settings(max_examples=60, deadline=None)
@given(small_matrix(), st.sampled_from([3, 5, 32003]))
def test_nullspace_annihilates(m, p):
    ns, free = linalg.nullspace(m, p)
    ns = np.asarray(ns)
    assert ns.shape[0] == m.shape[1] - len(linalg.rref(m, p)[1])
    if ns.size:
        prod = (m % p) @ ns.T % p
        assert not prod.any()
        # coordinate-readable: row i has a 1 at its free column
        for i, c in enumerate(free):
            assert ns[i, c] % p == 1


@settings(max_examples=40, deadline=None)
@given(small_matrix(), st.sampled_from([5, 32003]))
def test_left_nullspace_annihilates(m, p):
    ns, _ = linalg.left_nullspace(m, p)
    ns = np.asarray(ns)
    if ns.size:
        assert not (ns @ (m % p) % p).any()


def test_det_int_exact():
    m = [[2, 1, 0], [1, 2, 1], [0, 1, 2]]
    assert linalg.det_int(m) == 4
    assert linalg.det_int([[4, 4], [4, 4]]) == 0
    big = [[1000000007, 2], [3, 1000000009]]
    assert linalg.det_int(big) == int(oracles.det_fraction(big))


def test_det_int_swaps_rows_at_a_zero_pivot():
    assert linalg.det_int([[0, 1], [1, 0]]) == -1
    rng = np.random.default_rng(7)
    for n in range(2, 6):
        for _ in range(20):
            m = rng.integers(-3, 4, size=(n, n))
            m[0, 0] = 0
            assert linalg.det_int(m) == int(oracles.det_fraction(m))


def test_inv_mod():
    for p in (2, 3, 32003):
        for a in range(1, min(p, 8)):
            assert (a * linalg.inv_mod(a, p)) % p == 1
    with pytest.raises(ZeroDivisionError):
        linalg.inv_mod(0, 5)


KERNEL_SHAPES = ("dense", "sparse", "tall", "duplicate_rows", "zero_columns",
                 "square")


@st.composite
def kernel_matrix(draw):
    """Matrices up to 40 x 40 of the shapes the row-skipping rref update
    meets: sparse rows, more rows than columns, repeated rows, columns
    with no entry, and square ones (often invertible)."""
    kind = draw(st.sampled_from(KERNEL_SHAPES))
    p = draw(st.sampled_from([2, 5, 32003]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rows, cols = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    if kind == "tall":
        cols = draw(st.integers(1, 20))
        rows = draw(st.integers(cols + 1, 40))
    elif kind == "square":
        cols = rows
    density = {"sparse": 0.08, "tall": 0.3}.get(kind, 1.0)
    m = rng.integers(-2 * p, 2 * p, size=(rows, cols))
    m = m * (rng.random((rows, cols)) < density)
    if kind == "duplicate_rows":
        m[rng.integers(0, rows, size=rows // 2)] = m[0]
    elif kind == "zero_columns":
        m[:, rng.random(cols) < 0.4] = 0
    return m.astype(np.int64), p


@settings(max_examples=120, deadline=None)
@given(kernel_matrix())
def test_kernel_matches_oracle_up_to_40(drawn):
    m, p = drawn
    ours, pivots = linalg.rref(m, p)
    ref, ref_pivots = oracles.rref_mod(m, p)
    assert pivots == ref_pivots
    assert ours.shape == ref.shape
    assert (ours == ref).all()

    ns, free = linalg.nullspace(m, p)
    want, want_free = oracles.kernel_from_rref(ref, ref_pivots, m.shape[1], p)
    assert free == want_free
    assert ns.shape == want.shape and (ns == want).all()
    assert not ((m % p) @ ns.T % p).any()

    lns, lfree = linalg.left_nullspace(m, p)
    tref, tpivots = oracles.rref_mod(m.T, p)
    want, want_free = oracles.kernel_from_rref(tref, tpivots, m.shape[0], p)
    assert lfree == want_free
    assert lns.shape == want.shape and (lns == want).all()
    assert not (lns @ (m % p) % p).any()

    square = m.shape[0] == m.shape[1]
    assert linalg.is_invertible(m, p) == (
        square and len(ref_pivots) == m.shape[0])


@pytest.mark.parametrize("shape", [(27, 37), (40, 25), (7, 143),
                                   (0, 4), (4, 0), (0, 0)])
@pytest.mark.parametrize("p", [2, 5, 32003])
def test_rref_agrees_with_the_oracle_on_both_sides_of_the_cutoff(shape, p):
    # 999, 1000 and 1001 entries: the list elimination takes the first two
    # and the numpy one the third; no strategy above draws an empty side
    assert linalg._LIST_CELLS == 1000
    rng = np.random.default_rng(shape[0] * 1000 + shape[1] + p)
    for density in (0.2, 1.0):
        m = rng.integers(-2 * p, 2 * p, size=shape)
        m = m * (rng.random(shape) < density)
        before = m.copy()
        ours, pivots = linalg.rref(m, p)
        ref, ref_pivots = oracles.rref_mod(m, p)
        assert (m == before).all()
        assert ours.dtype == np.int64
        assert ours.shape == (len(ref_pivots), shape[1])
        assert pivots == ref_pivots
        assert (ours == ref).all()
    with pytest.raises(ValueError, match="inner dimension 1"):
        linalg.rref(np.eye(2, dtype=np.int64), 2 ** 32 + 15)


def test_matmul_rejects_fields_too_large_for_int64():
    p = 2147483647
    rng = np.random.default_rng(0)
    a = rng.integers(0, p, size=(4, 12), dtype=np.int64)
    b = rng.integers(0, p, size=(12, 4), dtype=np.int64)
    with pytest.raises(ValueError, match=r"2147483647.*inner dimension 12"):
        linalg.matmul(a, b, p)
    # two products of residues still fit: the result is exact
    exact = [[sum(int(x) * int(y) for x, y in zip(row, col)) % p
              for col in b[:2, :].T] for row in a[:, :2]]
    assert linalg.matmul(a[:, :2], b[:2, :], p).tolist() == exact
    with pytest.raises(ValueError, match="inner dimension 1"):
        linalg.rref(np.eye(2, dtype=np.int64), 2 ** 32 + 15)
