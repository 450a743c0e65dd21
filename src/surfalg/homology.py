"""Right modules, projective covers, syzygies and periodicity checks.

A module is total: it has a dimension at every vertex and a matrix for
every arrow; the matrix of an arrow x: s -> t has shape (dims[s], dims[t])
and acts on row vectors.  certificates.module_from_spec makes a module
document total (a vertex it leaves out has dimension 0, an arrow it leaves
out acts as zero) after checking its vertices, arrows, shapes and entries;
simple_module, the cover and syzygy build total modules.

validate_module reads the algebra's right action: for each entry
(b, x) -> nf of a.action with b a path from a vertex where m is nonzero,
M(b) M(x) must be the sum of c M(b') over nf, M(b) coming from
_path_images on the identity at that vertex.  A product b x that is
itself a basis path is skipped: _path_images defines M(b x) as that
product.  By induction on length every path then acts as its normal
form, so every element of the ideal, the paths as long as the Loewy
length among them, acts as zero; conversely b x - nf(b x) lies in the
ideal.  The first failing
entry in a.action order is returned as `path P does not act as its
normal form`, or `path P acts as nonzero, but is zero in the algebra`
when nf is zero, P being b's arrows followed by x.

radical_series repeats the radical step from the identity up to a zero
layer, at most the Loewy length times.  projective_cover reads the top
of m off one radical step and keeps the kernel of each vertex's
covering matrix, which syzygy reads.

Modules are never mutated after they are built, so each keeps a record
of its cover and its radical series: projective_cover and radical_series
compute them once per module and algebra object (found with an `is`
check) and store them in the module's record, which lives and dies with
the module.  So iso_check computes m's radical series once for all its
comparisons, and the cover that syzygy_chain builds for m is the one
_hom_basis solves Hom(m, n) on.

_path_images, the one path action, takes vectors of a module at v to
their images under each basis path from v, one matmul per path; the
cover passes it the lifts of the generators at v, _hom_basis the
identity of n at v and validate_module that of m.  syzygy_chain, the one
loop over syzygy, returns (m, Om, ..., O^k m) up to the first zero
module and is what the `syzygy` command prints.  check_periodicity keeps
the chain it walks in its result, which `periodicity` passes on to
tube_rank: over a weakly symmetric algebra tau = O^2, so tube_rank reads
O^2 m and O^4 m from that chain (extended only for periods below 4),
reuses the result's isomorphism test at the step equal to the period (m
against O^4 m by default), and checks weak symmetry once per call.

The algebra's stored fields are read as they are: a.vertices orders every
dimension vector and radical layer, a.arrows every loop over the arrows,
a.paths_from[v] lists the basis paths of the projective at v, a.ends[i]
the vertex where path i ends, a.prefix[i] the position of path i's
prefix, a.index whether b x is a basis path, and a.action the matrices
of the arrows on a projective and the normal forms that validate_module
checks.  Nothing here reads a.quiver.

iso_check solves Hom(m, n) and tries seeded random combinations of its
basis first; Hom(n, m) is solved only when no invertible one (a witness)
is found, since a witness makes the two Hom spaces equal in dimension.
The witnessing combination, an isomorphism f_v: m_v -> n_v at every
vertex, is kept in the result for the periodicity certificate.

Hom(m, n) is solved on the top of m's projective cover P -> m, for
A-modules m and n (every caller validates or builds its modules).  A map
P -> n is fixed by the images g_i in n of the cover's top generators: the
cover row (i, path) goes to g_i times n's matrix of the path.  It factors
through m exactly when it kills the kernel the cover carries, so the
unknowns are the g_i, sum of n_v over the generators, fewer than the
sum of m_v * n_v entries of an intertwiner.  Each solution descends to m by
solving phi_w f_w = (its images at w) on the pivot rows of phi_w (those
outside the free rows of the cover's kernel), where phi_w is square and
invertible.  The basis returned is the reduced one that
linalg.nullspace gives for the intertwiner equations M_x f_t = f_s N_x
with the f_v laid out row-major in vertex order: the identity on the
free columns of those equations, which are the pivots of the rref of
the solutions with the columns reversed.  So the rref of the stacked
families, taken with the columns reversed and then turned back, is that
basis, and the seeded trials draw the same witnesses from it.
"""

import collections
from typing import NamedTuple

import numpy as np

from . import linalg

__all__ = [
    "FDModule",
    "IsoResult",
    "PeriodicityResult",
    "validate_module",
    "simple_module",
    "projective_cover",
    "syzygy",
    "check_arguments",
    "syzygy_chain",
    "radical_series",
    "iso_check",
    "check_periodicity",
    "tube_rank",
]


class FDModule(collections.namedtuple("FDModule", "dims mats")):
    """dims: vertex -> nonnegative int, at every vertex; mats: arrow id ->
    numpy matrix, for every arrow; record: the results kept for this
    module (see the module docstring).  Never mutated once built."""

    # no __slots__: record, the (algebra, {name: result}) pairs filled by
    # _recorded, is an attribute of the instance and not a field

    def __new__(cls, dims, mats):
        self = super().__new__(cls, dims, mats)
        self.record = []
        return self

    @property
    def total_dim(self):
        return sum(self.dims.values())

    def dim_vector(self, vertices):
        return tuple(self.dims[v] for v in vertices)


def _zeros(r, c):
    return np.zeros((int(r), int(c)), dtype=np.int64)


def validate_module(a, m):
    """The first way a total module m fails to be an A-module, as a list
    of at most one violation (see the module docstring)."""
    p = a.field
    images = {v: _path_images(a, m, v, np.eye(m.dims[v], dtype=np.int64))
              for v in a.vertices if m.dims[v]}
    for (bi, x), nf in a.action.items():
        v, path = a.basis[bi]
        if v not in images or (v, path + (x,)) in a.index:
            continue
        # M(b) M(x) less the sum of c M(b') over the normal form of b x
        rest = linalg.matmul(images[v][bi], m.mats[x], p)
        for bj, c in nf:
            rest = (rest - c * images[v][bj]) % p
        if rest.any():
            return ["path %s %s" % (".".join(path + (x,)), (
                "does not act as its normal form" if nf else
                "acts as nonzero, but is zero in the algebra"))]
    return []


def simple_module(a, v):
    if v not in a.vertices:
        raise KeyError("unknown vertex %r" % (v,))
    dims = {u: (1 if u == v else 0) for u in a.vertices}
    mats = {x.id: _zeros(dims[x.source], dims[x.target]) for x in a.arrows}
    return FDModule(dims, mats)


class _Cover(NamedTuple):
    module: object
    tops: tuple
    rows: dict
    phi: dict
    kernel: dict


def _path_images(a, m, v, rows):
    """rows (vectors of m at v) times m's matrix of each basis path from v,
    keyed by basis index; paths_from[v] lists a path after its prefix,
    a.prefix[bi], so each image is its prefix's times one arrow."""
    p = a.field
    images = {}
    for bi in a.paths_from[v]:
        pre = a.prefix[bi]
        images[bi] = rows if pre is None else linalg.matmul(
            images[pre], m.mats[a.basis[bi][1][-1]], p)
    return images


def _recorded(a, m, name, compute):
    """m's stored result name over the algebra object a, computed by
    compute(a, m) and stored the first time it is asked for."""
    for alg, results in m.record:
        if alg is a:
            break
    else:
        results = {}
        m.record.append((a, results))
    if name not in results:
        results[name] = compute(a, m)
    return results[name]


def projective_cover(a, m):
    """Projective cover of m, with the covering map, built once per
    algebra object and kept in m's record (see _build_cover)."""
    return _recorded(a, m, "cover", _build_cover)


def _build_cover(a, m):
    """Projective cover of m, with the covering map.

    The top of m at each vertex is lifted by the standard basis vectors at
    the non-pivot columns of the reduced radical, and the lifts at a vertex
    go through _path_images together.  Returns the cover module, the vertex
    of each top generator, the cover basis at each vertex as (generator,
    basis path) rows, generator by generator, the per-vertex matrix of the
    covering map (one row per cover row) and its left_nullspace, whose
    size shows the map onto.
    """
    p = a.field
    eye = {v: np.eye(m.dims[v], dtype=np.int64) for v in a.vertices}
    rad = _radical_step(a, m, eye)
    lifts = {v: eye[v][[j for j in range(m.dims[v]) if j not in rad[v][1]]]
             for v in a.vertices}
    tops = tuple(v for v in a.vertices for _ in lifts[v])

    rows = {v: [] for v in a.vertices}
    phi = {v: [] for v in a.vertices}
    images = {v: _path_images(a, m, v, lifts[v])
              for v in dict.fromkeys(tops)}
    for li, v in enumerate(tops):
        k = li - tops.index(v)
        for bi in a.paths_from[v]:
            rows[a.ends[bi]].append((li, bi))
            phi[a.ends[bi]].append(images[v][bi][k])
    phi = {v: np.array(r, dtype=np.int64).reshape(len(r), m.dims[v])
           for v, r in phi.items()}
    # the cover is the sum of the projectives e_v A, one per generator:
    # row (i, b) times an arrow x is row i's part of the normal form of b x
    at = {r: q for v in a.vertices for q, r in enumerate(rows[v])}
    mats = {}
    for x in a.arrows:
        mat = mats[x.id] = _zeros(len(rows[x.source]), len(rows[x.target]))
        for q, (li, bi) in enumerate(rows[x.source]):
            for bj, c in a.action[(bi, x.id)]:
                mat[q, at[(li, bj)]] = c
    kernel = {v: linalg.left_nullspace(phi[v], p) for v in a.vertices}
    for v in a.vertices:
        if len(rows[v]) - kernel[v][0].shape[0] != m.dims[v]:
            raise RuntimeError(
                "cover map is not surjective at vertex %r" % (v,))
    return _Cover(
        module=FDModule({v: len(r) for v, r in rows.items()}, mats),
        tops=tops,
        rows={v: tuple(r) for v, r in rows.items()},
        phi=phi,
        kernel=kernel,
    )


def syzygy(a, m):
    """Kernel of the projective cover, as a module."""
    p = a.field
    cover = projective_cover(a, m)
    dims = {v: int(cover.kernel[v][0].shape[0]) for v in a.vertices}
    mats = {}
    for x in a.arrows:
        (ks, _), (kt, free) = cover.kernel[x.source], cover.kernel[x.target]
        imgs = linalg.matmul(ks, cover.module.mats[x.id], p)
        coords = imgs[:, free]
        if not np.array_equal(linalg.matmul(coords, kt, p), imgs):
            raise RuntimeError(
                "syzygy image of arrow %s leaves the kernel" % (x.id,))
        mats[x.id] = coords
    return FDModule(dims, mats)


def check_arguments(period=1, trials=1, seed=0, steps=0):
    """Refuse a period or trial count below 1 or a negative seed or step
    count, in that order, with a ValueError naming it."""
    for name, value, least in (("period", period, 1), ("trials", trials, 1),
                               ("seed", seed, 0), ("steps", steps, 0)):
        if value < least:
            raise ValueError("%s must be >= %d" % (name, least))


def syzygy_chain(a, m, steps):
    """(m, Om, ..., O^steps m), cut after the first zero syzygy."""
    check_arguments(steps=steps)
    chain = [m]
    for _ in range(steps):
        chain.append(syzygy(a, chain[-1]))
        if chain[-1].total_dim == 0:
            break
    return tuple(chain)


def _radical_step(a, m, rows):
    """Per vertex v, the rref (r, pivots) of the images of rows[s] under the
    arrows s -> v: the radical of the submodule of m that the rows span."""
    p = a.field
    imgs = {v: [] for v in a.vertices}
    for x in a.arrows:
        img = linalg.matmul(rows[x.source], m.mats[x.id], p)
        if img.shape[0]:
            imgs[x.target].append(img)
    return {v: linalg.rref(np.vstack(imgs[v]), p) if imgs[v]
            else (_zeros(0, m.dims[v]), [])
            for v in a.vertices}


def radical_series(a, m):
    """Per-vertex dimensions of the radical filtration, top layer first,
    up to the first zero layer or rad^L for the Loewy length L of a; that
    last layer is zero exactly when m is nilpotent.  Computed once per
    algebra object and kept in m's record."""
    return _recorded(a, m, "radical_series", _build_radical_series)


def _build_radical_series(a, m):
    rows = {v: np.eye(m.dims[v], dtype=np.int64) for v in a.vertices}
    series = [tuple(int(rows[v].shape[0]) for v in a.vertices)]
    while any(series[-1]) and len(series) <= a.loewy_length:
        rows = {v: r for v, (r, _) in _radical_step(a, m, rows).items()}
        series.append(tuple(int(rows[v].shape[0]) for v in a.vertices))
    return tuple(series)


class IsoResult(NamedTuple):
    verdict: str
    reason: str
    hom_forward: int
    hom_backward: int
    witness: tuple
    trials: int
    seed: int
    # the witnessing isomorphism {vertex: f_v} of an iso found on a trial
    isomorphism: dict = None


def _hom_basis(a, m, n):
    """Basis of Hom(m, n) for A-modules m and n, as per-vertex matrix
    families in reduced form: the one nullspace would give for the
    equations M_x f_t = f_s N_x on the f_v laid out row-major in vertex
    order (see the module docstring); n's path matrices come from
    _path_images, one matmul per path from each top vertex of m's cover."""
    p = a.field
    cover = projective_cover(a, m)
    # the unknowns: the image g_i in n of each top generator of the cover,
    # n.dims[v] coordinates from offs[i] for a generator at v
    offs = np.cumsum([0] + [n.dims[v] for v in cover.tops]).tolist()
    u = offs[-1]
    # n's matrix of each basis path out of a generator's vertex
    npath = {}
    for v in dict.fromkeys(cover.tops):
        npath.update(_path_images(a, n, v,
                                  np.eye(n.dims[v], dtype=np.int64)))
    # images[w][q] takes g to the image in n of cover row q = (i, path) at
    # w, g_i times n's path matrix; g gives a map on m when the kernel of
    # the covering map at every w goes to zero
    images, eqs = {}, []
    for w in a.vertices:
        rows, nw = cover.rows[w], n.dims[w]
        y = np.zeros((len(rows), u, nw), dtype=np.int64)
        for q, (li, bi) in enumerate(rows):
            y[q, offs[li]:offs[li + 1]] = npath[bi]
        images[w] = y
        k = cover.kernel[w][0]
        e = linalg.matmul(k, y.reshape(len(rows), u * nw), p)
        eqs.append(e.reshape(len(k), u, nw).transpose(0, 2, 1)
                   .reshape(len(k) * nw, u))
    g, _ = linalg.nullspace(np.vstack(eqs), p)
    if not len(g):
        return []
    # descend: phi_w f_w = images of g, solved on the pivot rows of phi_w,
    # where phi_w is invertible and rref([phi_w | 1]) = [1 | phi_w^-1]
    flat = []
    for w in a.vertices:
        mw, nw = m.dims[w], n.dims[w]
        free = set(cover.kernel[w][1])
        piv = [q for q in range(len(cover.rows[w])) if q not in free]
        inv = linalg.rref(np.hstack([cover.phi[w][piv],
                                     np.eye(mw, dtype=np.int64)]), p)[0]
        img = linalg.matmul(
            g, images[w][piv].transpose(1, 0, 2).reshape(u, mw * nw), p)
        f = linalg.matmul(inv[:, mw:], img.reshape(len(g), mw, nw), p)
        flat.append(f.reshape(len(g), mw * nw))
    # the reduced form is the identity on the last-greedy information set,
    # the pivots of the rref with the columns reversed
    flat = linalg.rref(np.hstack(flat)[:, ::-1], p)[0][::-1, ::-1]
    basis = []
    for row in flat:
        fam, o = {}, 0
        for v in a.vertices:
            mv, nv = m.dims[v], n.dims[v]
            fam[v] = row[o:o + mv * nv].reshape(mv, nv)
            o += mv * nv
        basis.append(fam)
    return basis


def iso_check(a, m, n, trials=20, seed=0):
    """Decide isomorphism by invariants, then randomized intertwiners.

    m and n are A-modules.  Dimension vectors and radical filtrations must
    match; then the intertwiner space Hom(m, n) is solved exactly on the
    top of m's projective cover (see the module docstring), and random
    combinations of its reduced basis are tested for invertibility at
    every vertex.  Hom(n, m) is solved only when no witness is found: an
    invertible intertwiner makes m and n isomorphic, so hom_backward is
    then hom_forward.  Returns iso (with the witnessing combination and
    the isomorphism it gives), not_iso (with the separating invariant), or
    inconclusive.
    """
    check_arguments(trials=trials, seed=seed)
    p = a.field
    dm = m.dim_vector(a.vertices)
    dn = n.dim_vector(a.vertices)
    if dm != dn:
        return IsoResult(
            "not_iso", "dimension vectors differ: %s vs %s" % (dm, dn),
            0, 0, (), 0, seed)
    rm = radical_series(a, m)
    rn = radical_series(a, n)
    if rm != rn:
        return IsoResult(
            "not_iso",
            "radical filtrations differ: %s vs %s" % (rm, rn),
            0, 0, (), 0, seed)
    fwd = _hom_basis(a, m, n)
    rng = np.random.default_rng(seed)
    for t in range(trials if fwd else 0):
        coeffs = rng.integers(0, p, size=len(fwd))
        if not coeffs.any():
            coeffs[0] = 1
        f = {}
        for v in a.vertices:
            # each term is below p^2, which rref has checked fits in int64
            f[v] = sum(int(c) * fam[v] % p for c, fam in zip(coeffs, fwd)) % p
            if not linalg.is_invertible(f[v], p):
                break
        else:
            # m and n are isomorphic, so Hom(n, m) has the dimension of
            # Hom(m, n) and need not be solved
            return IsoResult(
                "iso", "invertible intertwiner found on trial %d" % (t + 1),
                len(fwd), len(fwd),
                tuple(int(c) for c in coeffs), t + 1, seed, f)
    bwd = _hom_basis(a, n, m)
    if len(fwd) != len(bwd):
        return IsoResult(
            "not_iso",
            "intertwiner spaces have different dimensions (%d vs %d)"
            % (len(fwd), len(bwd)),
            len(fwd), len(bwd), (), 0, seed)
    if not fwd:
        if m.total_dim == 0 and n.total_dim == 0:
            return IsoResult("iso", "both modules are zero", 0, 0, (), 0, seed)
        return IsoResult(
            "not_iso", "no nonzero intertwiners exist",
            0, 0, (), 0, seed)
    return IsoResult(
        "inconclusive",
        "no invertible intertwiner in %d random trials" % trials,
        len(fwd), len(bwd), (), trials, seed)


class PeriodicityResult(NamedTuple):
    period: int
    verdict: str
    dim_chain: tuple
    iso: object
    trials: int
    seed: int
    modules: tuple


def check_periodicity(a, m, period=4, trials=20, seed=0):
    """Compare the period-th syzygy with the module itself.

    Projective modules are rejected: their syzygy vanishes, so syzygy
    periodicity is not the right question for them.
    """
    check_arguments(period=period, trials=trials, seed=seed)
    modules = syzygy_chain(a, m, period)
    if modules[1].total_dim == 0:
        raise ValueError("module is projective; its syzygy vanishes")
    chain = tuple(x.dim_vector(a.vertices) for x in modules if x.total_dim)
    if len(chain) <= period:
        return PeriodicityResult(
            period, "not_periodic", chain, None, trials, seed, modules)
    iso = iso_check(a, m, modules[-1], trials=trials, seed=seed)
    verdict = "periodic" if iso.verdict == "iso" else (
        "not_periodic" if iso.verdict == "not_iso" else "inconclusive")
    return PeriodicityResult(period, verdict, chain, iso, trials, seed,
                             modules)


def tube_rank(a, res):
    """1 if tau fixes the module, 2 if tau^2 does, else None.

    res is the module's check_periodicity result (see the module docstring)."""
    if not a.weak_symmetry[0]:
        raise ValueError(
            "algebra is not weakly symmetric; the squared syzygy "
            "does not compute the translate")
    chain = res.modules
    if len(chain) < 5 and chain[-1].total_dim:
        chain = chain[:-1] + syzygy_chain(a, chain[-1], 5 - len(chain))
    for rank, step in ((1, 2), (2, 4)):
        if step >= len(chain) or chain[step].total_dim == 0:
            return None
        iso = res.iso if step == res.period else iso_check(
            a, chain[0], chain[step], trials=res.trials, seed=res.seed)
        if iso.verdict == "iso":
            return rank
    return None
