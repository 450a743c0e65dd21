"""Tests of the benchmark's own input generator, reference checker and tracer.

They use inputs much smaller than the workloads'.  Run from the checkout
root:

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

import collections
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import check  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from surfalg import certificates, cli, homology, surface  # noqa: E402


def _relabelled(name, seed, tmp_path):
    rng = None if seed is None else np.random.default_rng(seed)
    d = tmp_path / str(seed)
    d.mkdir(exist_ok=True)
    return workloads._triangulation_file(name, rng, str(d))


@pytest.mark.parametrize("name", ["torus", "genus2"])
def test_relabel_is_a_valid_renaming(name):
    doc = workloads._bundled(name)
    new, amap = inputs.relabel(doc, np.random.default_rng(5))
    again, _ = inputs.relabel(doc, np.random.default_rng(5))
    other, _ = inputs.relabel(doc, np.random.default_rng(6))
    assert new == again and new != other
    assert sorted(amap.values()) == sorted(a["id"] for a in doc["arcs"])
    assert surface.validate_triangulation(
        surface.triangulation_from_json(new)).ok
    back = sorted(sorted(amap[x] for x in tri) for tri in new["triangles"])
    assert back == sorted(sorted(tri) for tri in doc["triangles"])


def test_inverse_mod_and_random_invertible():
    rng = np.random.default_rng(1)
    for n in (1, 2, 5):
        m, inv = inputs.random_invertible(n, rng)
        assert (m @ inv % inputs.FIELD == np.eye(n, dtype=np.int64)).all()
    with pytest.raises(ValueError):
        inputs.inverse_mod(np.array([[1, 2], [2, 4]], dtype=np.int64))


def test_module_in_random_basis_is_a_valid_module(tmp_path):
    path, amap = _relabelled("torus", 3, tmp_path)
    with open(path) as fh:
        spec = {"triangulation": json.load(fh), "field": inputs.FIELD}
    a = certificates.algebra_from_spec(spec)
    verts = sorted(a.quiver.vertices)
    arrows = [(x.id, x.source, x.target) for x in a.quiver.arrows]
    s = homology.simple_module(a, verts[0])
    om = homology.syzygy(a, homology.simple_module(a, verts[1]))
    dims, mats = inputs.direct_sum([(s.dims, s.mats), (om.dims, om.mats)],
                                   verts, arrows)
    mats = inputs.change_basis(dims, mats, arrows, np.random.default_rng(0))
    doc = inputs.module_file(spec, dims, mats)
    m = certificates.module_from_spec(a, {"dims": doc["dims"],
                                          "matrices": doc["matrices"]})
    assert m.total_dim == 1 + om.total_dim
    assert homology.validate_module(a, m) == []


def _small_round(seed, tmp_path):
    t, tmap = _relabelled("torus", seed, tmp_path)
    g, gmap = _relabelled("genus2", seed, tmp_path)
    arrow = workloads._find_arrow(g, gmap, "x3_1", str(tmp_path / str(seed)))
    cert = str(tmp_path / str(seed) / "c.json")
    with open(t) as fh:
        tverts = sorted(a["id"] for a in json.load(fh)["arcs"])
    new_of = {old: new for new, old in tmap.items()}
    ops = [
        (("bands", "--input", t, "--max-len", "6", "--format", "json"),
         tmap),
        (("algebra", "--input", g, "--max-deg", "4", "--format", "json"),
         gmap),
        (("algebra", "--input", t, "--format", "json"), tmap),
        (("syzygy", "--input", t, "--steps", "2"), tmap),
        (("periodicity", "--input", t, "--simple", new_of["1"]), tmap),
        (("certify-growth", "--input", g, "--arrow", arrow, "--depth", "2",
          "--max-len", "4", "--out", cert), gmap),
        (("verify", "--input", cert), gmap),
    ]
    out = []
    for argv, amap in ops:
        rc, text, _ = workloads.call(argv)
        out.append(check.invariants(argv, rc, text, amap, tverts))
    return out


def test_invariants_agree_across_seeds(tmp_path):
    base = _small_round(None, tmp_path)
    assert all("unreadable" not in r for r in base)
    assert base[1]["exit"] == 3
    assert base[2]["graded_dimensions"] == [3, 6, 6, 6, 6, 6, 3]
    for seed in (0, 1):
        assert _small_round(seed, tmp_path) == base


def test_checker_sees_changed_and_unreadable_output():
    argv = ("bands", "--builtin", "sphere5", "--max-len", "5",
            "--format", "json")
    rc, text, _ = workloads.call(argv)
    good = check.invariants(argv, rc, text)
    doc = json.loads(text)
    doc["counts"]["5"] += 1
    assert check.invariants(argv, rc, json.dumps(doc)) != good
    assert check.diff(good, check.invariants(argv, 1, text)) == ["exit"]
    bad = check.invariants(argv, rc, "not json")
    assert "unreadable" in bad and bad != good


def test_periodicity_reader_maps_vectors_to_bundled_labels():
    out = ("simple(e7): periodic [[1, 0] -> [0, 1]]\n"
           "  omega^4 iso: yes; tau^2 iso: yes (tau = omega^2); "
           "tube rank: 1\n")
    rec = check.invariants(("periodicity",), 0, out,
                           {"e7": "2", "e3": "1"}, ("e7", "e3"))
    assert rec["modules"] == [{
        "label": "simple(2)", "verdict": "periodic",
        "chain": [{"1": 1, "2": 0}, {"1": 0, "2": 1}],
        "tube": ["yes", "yes", "1"]}]


def test_every_workload_command_has_a_reference(tmp_path):
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)
    for w in workloads.WORKLOADS:
        d = tmp_path / w
        d.mkdir()
        keys = [op.key for op in workloads.build(w, 0, str(d))]
        assert len(keys) == len(set(keys))
        assert set(keys) <= set(reference)


def test_composable_paths_counts_by_brute_force():
    from surfalg import fixtures, qp

    q = qp.build_quiver(fixtures.torus())
    paths = [(v,) for v in q.vertices]
    total = len(paths)
    ends = {x.id: (x.source, x.target) for x in q.arrows}
    level = [(x.id,) for x in q.arrows]
    for _ in range(3):
        total += len(level)
        level = [p + (x,) for p in level for x in ends
                 if ends[p[-1]][1] == ends[x][0]]
    assert tracing.composable_paths(q, 3) == total


def test_tracer_catches_from_imports_and_restores(tmp_path):
    t, _ = _relabelled("torus", 0, tmp_path)
    orig = cli.validate_triangulation
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.validate_triangulation is not orig
        rc, _, _ = workloads.call(("build", "--input", t))
    finally:
        tracer.uninstall()
    assert rc == 0 and cli.validate_triangulation is orig
    by_id = {s["id"]: s for s in tracer.spans}
    roots = [s for s in tracer.spans if s["parent"] is None]
    assert [s["name"] for s in roots] == ["cli.main"]
    validate = [s for s in tracer.spans
                if s["name"] == "surface.validate_triangulation"]
    assert any(by_id[s["parent"]]["name"] == "cli.main" for s in validate)
    for s in tracer.spans:
        assert 0 <= s["self"] <= s["end"] - s["start"]
    metrics = tracing.layer_metrics(tracer.spans, tracer.counts)
    assert metrics["surface.validate_s"] > 0 and metrics["qp.build_s"] > 0


def test_metric_lists_agree():
    root = os.path.dirname(HERE)
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "layers.json")) as fh:
        layers = json.load(fh)
    per_layer = [m["name"] for m in spec["per_layer"]]
    measured = set(tracing.layer_metrics([], collections.Counter()))
    assert set(per_layer) == set(layers["per_layer"])
    assert set(per_layer) == measured | {"trace.overhead_ratio"}
    assert set(m["name"] for m in spec["end_to_end"]) == set(
        layers["end_to_end"])
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
