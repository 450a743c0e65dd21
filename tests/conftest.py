import pytest

from surfalg import algebra, fixtures, qp, strings


@pytest.fixture(scope="session")
def torus_tri():
    return fixtures.torus()


@pytest.fixture(scope="session")
def torus_maps(torus_tri):
    return qp.arrow_maps(torus_tri)


@pytest.fixture(scope="session")
def torus_quiver(torus_maps):
    return torus_maps.quiver


@pytest.fixture(scope="session")
def torus_relations(torus_maps):
    return qp.jacobian_relations(qp.build_potential(torus_maps))


@pytest.fixture(scope="session")
def torus_algebra(torus_quiver, torus_relations):
    return algebra.compute_basis(torus_quiver, torus_relations, p=32003,
                                 max_deg=40)


@pytest.fixture(scope="session")
def tetra_algebra():
    t = fixtures.builtin_triangulation("tetra")
    maps = qp.arrow_maps(t)
    w = qp.build_potential(
        maps, puncture_scalars={p: 2 for p in t.surface.punctures})
    return algebra.compute_basis(maps.quiver, qp.jacobian_relations(w),
                                 p=32003, max_deg=40)


@pytest.fixture(scope="session")
def kx2_algebra():
    q, rels = fixtures.kx2_algebra_data()
    return algebra.compute_basis(q, rels, p=32003, max_deg=40)


@pytest.fixture(scope="session")
def sphere5_pres():
    return strings.sphere5_presentation()


@pytest.fixture(scope="session")
def torus_quotient(torus_maps):
    return strings.string_quotient(torus_maps, name="string-quotient(torus)")


@pytest.fixture(scope="session")
def genus2_setup():
    t = fixtures.builtin_triangulation("genus2")
    maps = qp.arrow_maps(t)
    pres = strings.string_quotient(maps, name="string-quotient(genus2)")
    return t, maps.quiver, maps, pres
