"""Every IsoResult field of iso_check on fixed module pairs, recorded when
both Hom spaces were always solved, so solving Hom(N, M) only when no
witness turns up cannot change a verdict, a count or a witness.  Hom bases
are compared, family by family, with the loop oracle on those pairs and on
a torus module file against its syzygies."""

import functools
import pathlib

import numpy as np
import pytest

import oracles
from surfalg import certificates, homology
from surfalg.homology import FDModule

# S1 + OS2 + O^2S3 over the torus in a seeded basis, dimension vector (9, 7, 9)
SUM3_FILE = pathlib.Path(__file__).resolve().parents[1] / (
    "fixtures/torus_sum3.json")


@functools.lru_cache(maxsize=None)
def _algebra(builtin, field):
    return certificates.algebra_from_spec(
        {"builtin": builtin, "field": field, "max_deg": 40})


def _module(a, dims, mats):
    """dims as a tuple in vertex order; mats: arrow id -> nested list."""
    vs = sorted(a.quiver.vertices)
    d = dict(zip(vs, dims))
    return FDModule(d, {
        x.id: np.array(mats.get(x.id, np.zeros((d[x.source], d[x.target]))),
                       dtype=np.int64).reshape(d[x.source], d[x.target])
        for x in a.quiver.arrows})


def _direct_sum(a, first, second):
    dims = {v: first.dims[v] + second.dims[v] for v in first.dims}
    mats = {}
    for x in a.quiver.arrows:
        big = np.zeros((dims[x.source], dims[x.target]), dtype=np.int64)
        big[:first.dims[x.source], :first.dims[x.target]] = first.mats[x.id]
        big[first.dims[x.source]:, first.dims[x.target]:] = second.mats[x.id]
        mats[x.id] = big
    return FDModule(dims, mats)


def _omega(a, m, k):
    return homology.syzygy_chain(a, m, k)[k]


def _pair(name):
    """(algebra, m, n, trials, seed) for one named case."""
    kind, _, arg = name.partition(":")
    if kind in ("omega4", "omega2", "omega1", "p5-omega4", "seed7-omega4"):
        builtin, v = arg.split("/")
        field = 5 if kind == "p5-omega4" else 32003
        a = _algebra(builtin, field)
        s = homology.simple_module(a, v)
        k = int(kind[-1])
        trials, seed = {"p5-omega4": (1, 0), "seed7-omega4": (3, 7)}.get(
            kind, (20, 0))
        return a, s, _omega(a, s, k), trials, seed
    if kind == "sum3-omega":
        a = _algebra("torus", 32003)
        _, spec = certificates.module_file_specs(SUM3_FILE.read_text())
        m = certificates.module_from_spec(a, spec)
        return a, m, _omega(a, m, int(arg)), 20, 0
    if kind == "sum-omega4":
        field, trials, seed = (int(x) for x in arg.split("/"))
        a = _algebra("torus", field)
        m = _direct_sum(a, homology.simple_module(a, "1"),
                        _omega(a, homology.simple_module(a, "2"), 1))
        return a, m, _omega(a, m, 4), trials, seed
    a = _algebra("torus", 32003)
    zero = _module(a, (0, 0, 0), {})
    if kind == "zero":
        return a, zero, zero, 20, 0
    if kind == "zero-simple":
        return a, zero, homology.simple_module(a, "1"), 20, 0
    # small modules over the torus whose arrows act by 0/1 matrices:
    # (0, 2, 1) with Hom dimensions 1 and 2, (0, 1, 1) with no nonzero
    # intertwiners, (0, 1, 2) with equal Hom dimensions and no isomorphism
    small = {
        "hom12-a": ((0, 2, 1), {"x1_1": [[0], [1]]}),
        "hom12-b": ((0, 2, 1), {"x0_1": [[0], [1]], "x1_1": [[1], [0]]}),
        "nohom-a": ((0, 1, 1), {"x1_1": [[1]]}),
        "nohom-b": ((0, 1, 1), {"x0_1": [[1]]}),
        "hom22-a": ((0, 1, 2), {"x1_1": [[0, 1]]}),
        "hom22-b": ((0, 1, 2), {"x0_1": [[0, 1]]}),
    }
    m, n = (_module(a, *small[x]) for x in arg.split("/"))
    return a, m, n, 20, 0


# name -> (verdict, reason, hom_forward, hom_backward, witness, trials)
EXPECTED = {
    'omega4:torus/1': (
        'iso', 'invertible intertwiner found on trial 1',
        1, 1, (27222,), 1),
    'omega4:torus/2': (
        'iso', 'invertible intertwiner found on trial 1',
        1, 1, (27222,), 1),
    'omega4:torus/3': (
        'iso', 'invertible intertwiner found on trial 1',
        1, 1, (27222,), 1),
    'omega4:kx2/1': (
        'iso', 'invertible intertwiner found on trial 1',
        1, 1, (27222,), 1),
    'omega1:kx2/1': (
        'iso', 'invertible intertwiner found on trial 1',
        1, 1, (27222,), 1),
    'omega2:torus/1': (
        'not_iso', 'dimension vectors differ: (1, 0, 0) vs (5, 4, 4)',
        0, 0, (), 0),
    'omega2:torus/2': (
        'not_iso', 'dimension vectors differ: (0, 1, 0) vs (4, 5, 4)',
        0, 0, (), 0),
    'p5-omega4:torus/1': (
        'iso', 'invertible intertwiner found on trial 1',
        1, 1, (4,), 1),
    'p5-omega4:torus/2': (
        'iso', 'invertible intertwiner found on trial 1',
        1, 1, (4,), 1),
    'p5-omega4:torus/3': (
        'iso', 'invertible intertwiner found on trial 1',
        1, 1, (4,), 1),
    'seed7-omega4:torus/2': (
        'iso', 'invertible intertwiner found on trial 1',
        1, 1, (30239,), 1),
    'sum-omega4:32003/20/0': (
        'iso', 'invertible intertwiner found on trial 1',
        4, 4, (27222, 20384, 16357, 8633), 1),
    'sum-omega4:2/20/0': (
        'iso', 'invertible intertwiner found on trial 4',
        4, 4, (1, 1, 1, 1), 4),
    'sum-omega4:2/3/0': (
        'inconclusive', 'no invertible intertwiner in 3 random trials',
        4, 4, (), 3),
    'sum-omega4:3/20/3': (
        'iso', 'invertible intertwiner found on trial 6',
        4, 4, (1, 1, 2, 1), 6),
    # equal dimension vectors, (9, 7, 9), but different radical layers
    'sum3-omega:2': (
        'not_iso', 'radical filtrations differ: '
        '((9, 7, 9), (8, 5, 7), (6, 5, 4), (4, 3, 4), (4, 1, 2), (2, 1, 0), '
        '(0, 0, 0)) vs '
        '((9, 7, 9), (9, 6, 6), (6, 6, 4), (4, 4, 4), (4, 2, 2), (2, 2, 0), '
        '(0, 0, 0))',
        0, 0, (), 0),
    'zero:': (
        'iso', 'both modules are zero',
        0, 0, (), 0),
    'zero-simple:': (
        'not_iso', 'dimension vectors differ: (0, 0, 0) vs (1, 0, 0)',
        0, 0, (), 0),
    'hom12:hom12-a/hom12-b': (
        'not_iso', 'intertwiner spaces have different dimensions (1 vs 2)',
        1, 2, (), 0),
    'hom12:hom12-b/hom12-a': (
        'not_iso', 'intertwiner spaces have different dimensions (2 vs 1)',
        2, 1, (), 0),
    'nohom:nohom-a/nohom-b': (
        'not_iso', 'no nonzero intertwiners exist',
        0, 0, (), 0),
    'hom22:hom22-a/hom22-b': (
        'inconclusive', 'no invertible intertwiner in 20 random trials',
        2, 2, (), 20),
}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_iso_check_golden(name):
    a, m, n, trials, seed = _pair(name)
    res = homology.iso_check(a, m, n, trials=trials, seed=seed)
    assert homology.validate_module(a, m) == []
    assert homology.validate_module(a, n) == []
    assert (res.verdict, res.reason, res.hom_forward, res.hom_backward,
            res.witness, res.trials) == EXPECTED[name]
    assert res.seed == seed


@pytest.mark.parametrize("name", sorted(set(EXPECTED).union(
    ["omega4:genus2/a"], ("sum3-omega:%d" % k for k in range(6)))))
def test_hom_basis_matches_loop_oracle(name):
    a, m, n, _, _ = _pair(name)
    for src, dst in ((m, n), (n, m)):
        ours = homology._hom_basis(a, src, dst)
        ref = oracles.naive_hom_basis(a.quiver, a.field, src.dims, src.mats,
                                      dst.dims, dst.mats)
        assert len(ours) == len(ref)
        for fam, want in zip(ours, ref):
            assert sorted(fam) == sorted(want)
            assert all(fam[v].shape == want[v].shape
                       and (fam[v] == want[v]).all() for v in fam)


def test_periodic_check_solves_one_hom_space(torus_algebra, monkeypatch):
    calls = []
    hom_basis = homology._hom_basis

    def counting(a, m, n):
        calls.append((m, n))
        return hom_basis(a, m, n)

    monkeypatch.setattr(homology, "_hom_basis", counting)
    s = homology.simple_module(torus_algebra, "1")
    res = homology.check_periodicity(torus_algebra, s)
    assert res.verdict == "periodic"
    assert len(calls) == 1
    assert res.iso.hom_backward == res.iso.hom_forward
