"""Seeded benchmark inputs: relabelled triangulations and module files.

The program only ever sees the files written here.  A relabelling renames
every arc and the puncture, shuffles the arc list and the triangle list and
rotates each triangle's cyclic listing, so the quiver, its arrow ids and the
vertex order all change while every invariant the reference records stays
the same.  Module files are direct sums of syzygies of simple modules over
a relabelled torus, written in a seeded random basis.
"""

import json

import numpy as np

FIELD = 32003


def relabel(doc, rng):
    """Return a relabelled copy of a triangulation document and its arc map.

    The map sends each new arc id to the original one; the benchmark uses it
    to translate vertex-indexed outputs back to the original labels.
    """
    old_ids = [a["id"] for a in doc["arcs"]]
    codes = rng.choice(900, size=len(old_ids), replace=False) + 100
    new_of = {old: "e%d" % c for old, c in zip(old_ids, codes)}
    punct = {p: "q%d" % (i + int(rng.integers(1000)))
             for i, p in enumerate(doc["punctures"])}
    arcs = [
        {"id": new_of[a["id"]], "endpoints": [punct[e] for e in a["endpoints"]]}
        for a in doc["arcs"]
    ]
    arcs = [arcs[i] for i in rng.permutation(len(arcs))]
    triangles = []
    for i in rng.permutation(len(doc["triangles"])):
        tri = [new_of[x] for x in doc["triangles"][i]]
        r = int(rng.integers(3))
        triangles.append(tri[r:] + tri[:r])
    out = {
        "genus": doc["genus"],
        "punctures": [punct[p] for p in doc["punctures"]],
        "arcs": arcs,
        "triangles": triangles,
    }
    return out, {new: old for old, new in new_of.items()}


def inverse_mod(m, p=FIELD):
    """Inverse of a square integer matrix over F_p by Gauss-Jordan."""
    n = m.shape[0]
    aug = np.concatenate([m % p, np.eye(n, dtype=np.int64)], axis=1)
    for c in range(n):
        piv = next((r for r in range(c, n) if aug[r, c]), None)
        if piv is None:
            raise ValueError("matrix is singular mod %d" % p)
        aug[[c, piv]] = aug[[piv, c]]
        aug[c] = aug[c] * pow(int(aug[c, c]), p - 2, p) % p
        for r in range(n):
            if r != c and aug[r, c]:
                aug[r] = (aug[r] - aug[r, c] * aug[c]) % p
    return aug[:, n:]


def random_invertible(n, rng, p=FIELD):
    """A uniformly drawn invertible n x n matrix over F_p and its inverse."""
    while True:
        m = rng.integers(0, p, size=(n, n), dtype=np.int64)
        try:
            return m, inverse_mod(m, p)
        except ValueError:
            continue


def direct_sum(modules, vertices, arrows):
    """Block-diagonal direct sum of modules given as (dims, mats) pairs.

    arrows is a list of (arrow id, source, target); a module's matrix for
    arrow x has shape (dims[source], dims[target]) and acts on row vectors.
    """
    dims = {v: sum(m[0].get(v, 0) for m in modules) for v in vertices}
    mats = {}
    for aid, s, t in arrows:
        big = np.zeros((dims[s], dims[t]), dtype=np.int64)
        r = c = 0
        for mdims, mmats in modules:
            ds, dt = mdims.get(s, 0), mdims.get(t, 0)
            if ds and dt:
                big[r:r + ds, c:c + dt] = mmats[aid]
            r += ds
            c += dt
        mats[aid] = big
    return dims, mats


def change_basis(dims, mats, arrows, rng, p=FIELD):
    """Rewrite a module in a random basis: M_x -> P_s M_x P_t^-1 over F_p."""
    change = {v: random_invertible(d, rng, p) for v, d in dims.items() if d}
    out = {}
    for aid, s, t in arrows:
        m = mats[aid]
        if m.size:
            m = change[s][0] @ m % p @ change[t][1] % p
        out[aid] = m
    return out


def module_file(algebra_spec, dims, mats):
    """The module file document read by `periodicity --module`."""
    return {
        "algebra": algebra_spec,
        "dims": {v: int(d) for v, d in sorted(dims.items())},
        "matrices": {
            aid: [[int(x) for x in row] for row in m]
            for aid, m in sorted(mats.items()) if m.size and m.any()
        },
    }


def write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
