"""The benchmark's workloads: the commands each one runs and their inputs.

Every operation is one in-process `surfalg.cli.main(argv)` call.  A round
is one pass over a workload's commands in order, followed by the shared
small commands of _touch; those take a few percent of a round and reach
every layer, so that each per-layer metric is measured on every workload.

Inputs come from the seed only: it relabels the bundled torus and genus2
triangulations and picks the random bases of the module files.  Which
arrows and which module summands are used is fixed in the original
labels, so every seed asks the same questions and has the same answers
(reference.json) while the program sees different files.
"""

import contextlib
import io
import json
import os
from dataclasses import dataclass

import numpy as np

import inputs

# Why each workload was chosen is in BENCHMARK.json.
WORKLOADS = ("jacobian", "band_census", "growth_certify", "periodicity")

# Arrows of the bundled genus2 quiver used for certify-growth, named in the
# bundled labels; each run finds their ids in the relabelled quiver.
GROWTH_ARROWS = ("x0_0", "x3_1")

# Module files over the torus: summands (k, v) stand for the k-th syzygy of
# the simple module at bundled vertex v.
MODULES = {
    "mod_a": ((0, "1"), (1, "2"), (2, "3")),
    "mod_b": ((1, "1"), (2, "2")),
}


@dataclass(frozen=True)
class Op:
    """One command: its reference key, argv and how to read its output."""

    key: str
    argv: tuple
    amap: dict = None
    vertices: tuple = None

    @property
    def is_verify(self):
        return self.argv[0] == "verify"


def call(argv):
    """Run one command in-process; returns (exit code, stdout, stderr)."""
    from surfalg import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    return rc, out.getvalue(), err.getvalue()


def _bundled(name):
    from surfalg import fixtures, surface

    return json.loads(surface.triangulation_to_json(
        fixtures.builtin_triangulation(name)))


def _triangulation_file(name, rng, workdir):
    """Write the (relabelled) triangulation; returns its path and arc map."""
    doc = _bundled(name)
    if rng is None:
        amap = {a["id"]: a["id"] for a in doc["arcs"]}
    else:
        doc, amap = inputs.relabel(doc, rng)
    path = os.path.join(workdir, "%s.json" % name)
    inputs.write_json(path, doc)
    return path, amap


def _find_arrow(path, amap, bundled_id, workdir):
    """Id, in the relabelled quiver, of a bundled genus2 arrow.

    Bundled arrow x{i}_{s} runs from side s to side s+1 of bundled triangle
    i; its image is the arrow between the images of those sides whose
    triangle cycle passes through the image of the third side.
    """
    i, s = (int(x) for x in bundled_id[1:].split("_"))
    tri = _bundled("genus2")["triangles"][i]
    want = (tri[s], tri[(s + 1) % 3], tri[(s + 2) % 3])
    out = os.path.join(workdir, "build-genus2.json")
    rc, _, err = call(["build", "--input", path, "--format", "json",
                       "--out", out])
    if rc != 0:
        raise RuntimeError("build of %s failed: %s" % (path, err.strip()))
    with open(out, encoding="utf-8") as fh:
        doc = json.load(fh)
    ends = {x["id"]: (x["source"], x["target"])
            for x in doc["quiver"]["arrows"]}
    hits = []
    for orbit in doc["f_orbits"]:
        for k, aid in enumerate(orbit):
            src, tgt = ends[aid]
            third = ends[orbit[(k + 1) % len(orbit)]][1]
            if (amap[src], amap[tgt], amap[third]) == want:
                hits.append(aid)
    if len(hits) != 1:
        raise RuntimeError("arrow %s has %d images" % (bundled_id, len(hits)))
    return hits[0]


def _module_files(torus_path, amap, rng, workdir):
    """Write the module files over the (relabelled) torus."""
    from surfalg import certificates, homology

    with open(torus_path, encoding="utf-8") as fh:
        spec = {"triangulation": json.load(fh), "field": inputs.FIELD,
                "max_deg": 40}
    a = certificates.algebra_from_spec(spec)
    new_of = {old: new for new, old in amap.items()}
    vertices = sorted(a.quiver.vertices)
    arrows = [(x.id, x.source, x.target) for x in a.quiver.arrows]
    paths = {}
    for name, summands in MODULES.items():
        parts = []
        for k, v in summands:
            m = homology.simple_module(a, new_of[v])
            for _ in range(k):
                m = homology.syzygy(a, m)
            parts.append((m.dims, m.mats))
        dims, mats = inputs.direct_sum(parts, vertices, arrows)
        mats = inputs.change_basis(dims, mats, arrows, rng)
        paths[name] = os.path.join(workdir, "%s.json" % name)
        inputs.write_json(paths[name], inputs.module_file(spec, dims, mats))
    return paths, tuple(vertices)


def _touch(workdir):
    g = os.path.join(workdir, "touch-growth-cert.json")
    p = os.path.join(workdir, "touch-period-cert.json")
    return [
        Op("touch/algebra-kx2", ("algebra", "--builtin", "kx2",
                                 "--format", "json")),
        Op("touch/certify-sphere5", ("certify-growth", "--builtin", "sphere5",
                                     "--depth", "2", "--max-len", "4",
                                     "--out", g)),
        Op("touch/verify-sphere5", ("verify", "--input", g)),
        Op("touch/periodicity-kx2", ("periodicity", "--builtin", "kx2",
                                     "--out", p), vertices=("1",)),
        Op("touch/verify-kx2", ("verify", "--input", p)),
    ]


def build(workload, seed, workdir):
    """Write the inputs of a workload and return its commands for one round.

    seed is anything numpy's default_rng accepts; None keeps the bundled
    labels, which is how reference.json is made.
    """
    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r" % workload)
    rng = None if seed is None else np.random.default_rng(seed)
    basis_rng = rng if rng is not None else np.random.default_rng(0)
    w = workload
    if w == "jacobian":
        g, gmap = _triangulation_file("genus2", rng, workdir)
        t, tmap = _triangulation_file("torus", rng, workdir)
        ops = [
            Op(w + "/algebra-genus2-d10", ("algebra", "--input", g,
               "--max-deg", "10", "--format", "json"), gmap),
            Op(w + "/algebra-genus2-d11", ("algebra", "--input", g,
               "--max-deg", "11", "--format", "json"), gmap),
            Op(w + "/algebra-torus", ("algebra", "--input", t,
               "--format", "json"), tmap),
        ]
    elif w == "band_census":
        g, gmap = _triangulation_file("genus2", rng, workdir)
        t, tmap = _triangulation_file("torus", rng, workdir)
        ops = [
            Op(w + "/bands-sphere5-L16", ("bands", "--builtin", "sphere5",
               "--max-len", "16", "--format", "json")),
            Op(w + "/bands-genus2-L12", ("bands", "--input", g,
               "--max-len", "12", "--format", "json"), gmap),
            Op(w + "/bands-torus-L13", ("bands", "--input", t,
               "--max-len", "13", "--format", "json"), tmap),
        ]
    elif w == "growth_certify":
        g, gmap = _triangulation_file("genus2", rng, workdir)
        cert = os.path.join(workdir, "growth-sphere5.json")
        ops = [
            Op(w + "/certify-sphere5-depth9", ("certify-growth", "--builtin",
               "sphere5", "--depth", "9", "--out", cert)),
            Op(w + "/verify-sphere5", ("verify", "--input", cert)),
        ]
        for bundled_id in GROWTH_ARROWS:
            aid = _find_arrow(g, gmap, bundled_id, workdir)
            cert = os.path.join(workdir, "growth-%s.json" % bundled_id)
            ops += [
                Op(w + "/certify-genus2-" + bundled_id, ("certify-growth",
                   "--input", g, "--arrow", aid, "--max-len", "10",
                   "--out", cert), gmap),
                Op(w + "/verify-genus2-" + bundled_id,
                   ("verify", "--input", cert), gmap),
            ]
    else:
        t, tmap = _triangulation_file("torus", rng, workdir)
        mods, verts = _module_files(t, tmap, basis_rng, workdir)
        ops = [
            Op(w + "/periodicity-torus", ("periodicity", "--input", t),
               tmap, verts),
            Op(w + "/syzygy-torus", ("syzygy", "--input", t, "--steps", "8"),
               tmap),
        ]
        for name, path in sorted(mods.items()):
            cert = os.path.join(workdir, "period-%s.json" % name)
            ops += [
                Op(w + "/periodicity-" + name, ("periodicity", "--module",
                   path, "--out", cert), tmap, verts),
                Op(w + "/verify-" + name, ("verify", "--input", cert), tmap),
            ]
    return ops + _touch(workdir)
