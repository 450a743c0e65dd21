import json
import os
import pathlib
import subprocess
import sys

import pytest

from surfalg import algebra, certificates, cli, fixtures, homology, strings, \
    surface
from surfalg.surface import triangulation_to_json


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_no_arguments_prints_help(capsys):
    code, out, err = run(capsys)
    assert code == 2


def test_build_torus_text(capsys):
    code, out, err = run(capsys, "build", "--builtin", "torus")
    assert code == 0
    assert "3 arcs, 2 triangles" in out
    assert "validation: ok" in out
    assert "cycle around p (length 6)" in out


def test_build_json(capsys):
    code, out, err = run(capsys, "build", "--builtin", "genus2",
                         "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["valid"]
    assert len(doc["quiver"]["arrows"]) == 18
    assert len(doc["g_orbits"]) == 1


def _double_pyramid():
    """The double pyramid over a hexagon: apexes N and S, base vertices
    v0..v5, 12 triangles, so that arrow ids reach x11_*."""
    arcs, triangles = [], []
    for i in range(6):
        j = (i + 1) % 6
        arcs += [{"id": "N%d" % i, "endpoints": ["N", "v%d" % i]},
                 {"id": "S%d" % i, "endpoints": ["S", "v%d" % i]},
                 {"id": "e%d" % i, "endpoints": ["v%d" % i, "v%d" % j]}]
        triangles += [["e%d" % i, "N%d" % j, "N%d" % i],
                      ["e%d" % i, "S%d" % i, "S%d" % j]]
    punctures = ["N", "S"] + ["v%d" % i for i in range(6)]
    return {"genus": 0, "punctures": punctures, "arcs": arcs,
            "triangles": triangles}


def test_build_json_orbit_order(capsys, tmp_path):
    # orbits are listed by their least arrow id in string order (x10_* and
    # x11_* before x2_*), each starting at that id
    tri = _double_pyramid()
    path = tmp_path / "pyramid.json"
    path.write_text(json.dumps(tri))
    code, out, err = run(capsys, "build", "--input", str(path),
                         "--format", "json")
    assert code == 0
    doc = json.loads(out)
    f_orbits = doc["f_orbits"]
    assert f_orbits == sorted(["x%d_%d" % (i, s) for s in range(3)]
                              for i in range(12))
    assert f_orbits[1:4] == [["x10_0", "x10_1", "x10_2"],
                             ["x11_0", "x11_1", "x11_2"],
                             ["x1_0", "x1_1", "x1_2"]]
    g_orbits = doc["g_orbits"]
    firsts = [o["arrows"][0] for o in g_orbits]
    assert firsts == sorted(firsts) and len(set(firsts)) == len(firsts)
    assert all(o["arrows"][0] == min(o["arrows"]) for o in g_orbits)
    assert sorted(o["puncture"] for o in g_orbits) == sorted(tri["punctures"])
    # each arrow turns at the one puncture that its two arcs share
    ends = {a["id"]: set(a["endpoints"]) for a in tri["arcs"]}
    arrows = {a["id"]: a for a in doc["quiver"]["arrows"]}
    for o in g_orbits:
        assert len(o["arrows"]) == (6 if o["puncture"] in "NS" else 4)
        for x in o["arrows"]:
            a = arrows[x]
            assert ends[a["source"]] & ends[a["target"]] == {o["puncture"]}
        cyc = o["arrows"] + o["arrows"][:1]
        assert all(arrows[x]["target"] == arrows[y]["source"]
                   for x, y in zip(cyc, cyc[1:]))


def test_build_dot_stable(capsys):
    code1, out1, _ = run(capsys, "build", "--builtin", "torus",
                         "--format", "dot")
    code2, out2, _ = run(capsys, "build", "--builtin", "torus",
                         "--format", "dot")
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.startswith("digraph")


def test_build_from_file(capsys, tmp_path):
    path = tmp_path / "torus.json"
    path.write_text(triangulation_to_json(fixtures.torus()))
    code, out, err = run(capsys, "build", "--input", str(path))
    assert code == 0


def test_build_invalid_triangulation_exits_one(capsys, tmp_path):
    doc = json.loads(triangulation_to_json(fixtures.torus()))
    doc["triangles"] = doc["triangles"][:1]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "build", "--input", str(path))
    assert code == 1
    assert "violation" in out
    assert run(capsys, "build", "--input", str(path), "--format", "dot") == (
        2, "", "error: dot output needs a quiver; triangulation is invalid: "
               "3 * triangle count (3) != 2 * arc count (6); "
               "arc '1' appears in 1 triangle slots, expected 2; "
               "arc '2' appears in 1 triangle slots, expected 2; "
               "arc '3' appears in 1 triangle slots, expected 2\n")


@pytest.mark.parametrize("edit,code,lines", [
    (lambda d: d.update(punctures=[]), 1,
     ["  - no punctures"]
     + ["  - arc '%s' has unknown endpoint 'p'" % a for a in "123"]
     + ["  - arc count 3 != 6*genus - 6 + 3*punctures = 0"]),
    (lambda d: d.update(punctures=[""], arcs=[
        dict(a, endpoints=["", ""]) for a in d["arcs"]]), 1,
     ["  - empty puncture identifier"]),
    (lambda d: d.update(punctures=["p", "p"]), 1,
     ["  - duplicate puncture identifiers",
      "  - arc count 3 != 6*genus - 6 + 3*punctures = 6"]),
    (lambda d: d["arcs"][0].update(id=""), 1,
     ["  - empty arc identifier",
      "  - unknown arc '1' in triangle ('1', '2', '3')",
      "  - arc '' appears in 0 triangle slots, expected 2"]),
    (lambda d: d["arcs"][1].update(id="1"), 1,
     ["  - duplicate arc identifiers",
      "  - unknown arc '2' in triangle ('1', '2', '3')"]),
    (lambda d: d["arcs"][0].update(endpoints=["p", "q"]), 1,
     ["  - arc '1' has unknown endpoint 'q'"]),
    (lambda d: d["arcs"][2].update(endpoints=["p"]), 2,
     "error: arc '3' must have exactly two endpoints"),
    (lambda d: d["triangles"][1].append("1"), 2,
     "error: triangle ('1', '2', '3', '1') does not have three sides"),
], ids=["no-punctures", "empty-puncture", "duplicate-punctures", "empty-arc",
        "duplicate-arcs", "unknown-endpoint", "arc-arity", "triangle-arity"])
def test_build_names_each_refusal_reason(capsys, tmp_path, edit, code, lines):
    # a validation reason is a listed violation (exit 1); a wrong arity is
    # refused as the document is read (exit 2)
    doc = json.loads(triangulation_to_json(fixtures.torus()))
    edit(doc)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    got, out, err = run(capsys, "build", "--input", str(path))
    if code == 1:
        assert (got, err) == (1, "")
        assert out.splitlines()[2:] == [
            "validation: %d violation(s)" % len(lines)] + lines
    else:
        assert (got, out, err) == (2, "", lines + "\n")


def test_build_missing_file_exits_two(capsys):
    code, out, err = run(capsys, "build", "--input", "/nonexistent.json")
    assert code == 2
    assert "error:" in err


def test_build_unknown_builtin_exits_two(capsys):
    code = cli.main(["build", "--builtin", "moebius"])
    assert code == 2


def test_build_sphere5_notes_quiver_skip(capsys):
    code, out, err = run(capsys, "build", "--builtin", "sphere5")
    assert code == 0
    assert "not built" in out


def test_algebra_torus(capsys):
    code, out, err = run(capsys, "algebra", "--builtin", "torus")
    assert code == 0
    assert "total dimension: 36" in out
    assert "cartan determinant: 0" in out
    assert "weakly symmetric: yes" in out


def test_build_genus2_text(capsys):
    code, out, err = run(capsys, "build", "--builtin", "genus2")
    assert (code, err) == (0, "")
    assert "validation: ok" in out.splitlines()


def test_algebra_genus2_total_line(capsys):
    # the line that CI greps for in the output of the installed entry point
    code, out, err = run(capsys, "algebra", "--builtin", "genus2")
    assert (code, err) == (0, "")
    assert "total dimension: 324" in out.splitlines()


def test_algebra_json(capsys):
    code, out, err = run(capsys, "algebra", "--builtin", "torus",
                         "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["dimension"] == 36
    assert doc["graded_dimensions"] == [3, 6, 6, 6, 6, 6, 3]


def test_algebra_nonstabilizing_exits_three(capsys):
    code, out, err = run(capsys, "algebra", "--builtin", "genus2",
                         "--max-deg", "5")
    assert code == 3
    assert "did not stabilize" in out
    assert "[9, 18, 18, 18, 18, 18]" in out


def _torus_doc(field):
    return {
        "name": "torus", "field": field, "stabilized": True,
        "dimension": 36, "loewy_length": 7,
        "graded_dimensions": [3, 6, 6, 6, 6, 6, 3],
        "cartan": {"vertices": ["1", "2", "3"], "matrix": [[4, 4, 4]] * 3,
                   "determinant": 0},
        "weakly_symmetric": True,
    }


def _partial(name, reason, dims):
    return {
        "name": name, "field": 32003, "stabilized": False,
        "reason": reason, "graded_dimensions": dims,
    }


# Exact `algebra --format json` outputs, recorded before the degree loop
# moved from one elimination per cutoff to doubling cutoffs.  The tetra and
# genus2 rows after the first genus2 one were recorded when the quotient
# came to be computed from a truncated standard basis: the path budget then
# caps the surviving paths and tips held, genus2 stabilizes, and tetra
# (puncture scalars 1) runs to max_deg.
ALGEBRA_GOLDEN = [
    (("--builtin", "torus"), 0, _torus_doc(32003)),
    (("--builtin", "torus", "--field", "5"), 0, _torus_doc(5)),
    (("--builtin", "kx2"), 0, {
        "name": "kx2", "field": 32003, "stabilized": True, "dimension": 2,
        "loewy_length": 2, "graded_dimensions": [1, 1],
        "cartan": {"vertices": ["1"], "matrix": [[2]], "determinant": 2},
        "weakly_symmetric": True,
    }),
    (("--builtin", "genus2", "--max-deg", "10"), 3,
     _partial("genus2", "max_deg reached", [9] + [18] * 10)),
    (("--builtin", "tetra", "--path-budget", "50"), 3,
     _partial("tetra", "path budget exceeded at degree 5", [6] + [12] * 4)),
    (("--builtin", "tetra"), 3,
     _partial("tetra", "max_deg reached", [6] + [12] * 40)),
    (("--builtin", "genus2"), 0, {
        "name": "genus2", "field": 32003, "stabilized": True,
        "dimension": 324, "loewy_length": 19,
        "graded_dimensions": [9] + [18] * 17 + [9],
        "cartan": {"vertices": ["a", "b", "c", "d", "d1", "d2", "d3", "d4",
                                "d5"],
                   "matrix": [[4] * 9] * 9, "determinant": 0},
        "weakly_symmetric": True,
    }),
]


@pytest.mark.parametrize("args,code,doc", ALGEBRA_GOLDEN)
def test_algebra_json_golden(capsys, args, code, doc):
    got_code, out, err = run(capsys, "algebra", *args, "--format", "json")
    assert got_code == code
    assert out == json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("flag,value", [
    ("--max-deg", "0"), ("--max-deg", "-1"),
    ("--path-budget", "0"), ("--path-budget", "-5"),
])
def test_algebra_rejects_nonpositive_bounds(capsys, flag, value):
    code, out, err = run(capsys, "algebra", "--builtin", "torus",
                         flag, value)
    assert code == 2
    assert "%s must be >= 1" % flag[2:].replace("-", "_") in err


def test_bands_text(capsys):
    code, out, err = run(capsys, "bands", "--builtin", "sphere5",
                         "--max-len", "8")
    assert code == 0
    assert "max growth rate" in out


def test_bands_json_with_words(capsys):
    code, out, err = run(capsys, "bands", "--builtin", "sphere5",
                         "--max-len", "5", "--words", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["counts"]["3"] == 2
    assert "a1.a2'.a3" in doc["words"]


def test_bands_counts_past_the_float_range(capsys):
    # the count at length 1100 is about 2^1100 / 1100, too large for a float
    code, out, err = run(capsys, "bands", "--builtin", "torus",
                         "--max-len", "1100", "--format", "json")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["counts"]["1100"] > 2 ** 1000
    assert 1.98 < doc["rates"]["1100"] < 2


def test_bands_words_must_match_the_counts(capsys, monkeypatch):
    counted = strings._census

    def off_by_one(p, max_len, graph):
        census = counted(p, max_len, graph)
        counts = census.counts[:-1] + (census.counts[-1] + 1,)
        return strings.BandCensus(census.presentation_name, max_len, counts,
                                  census.self_inverse)

    monkeypatch.setattr(strings, "_census", off_by_one)
    with pytest.raises(RuntimeError, match="internal error"):
        cli.main(["bands", "--builtin", "sphere5", "--max-len", "5",
                  "--words"])


@pytest.mark.parametrize("argv,total", [
    (("--builtin", "torus", "--max-len", "20"),
     "total: 145340 (72670 up to inversion)"),
    (("--builtin", "sphere5", "--max-len", "16"),
     "total: 681 (362 up to inversion)"),
    (("--builtin", "sphere5", "--max-len", "12", "--words"),
     "total: 114 (64 up to inversion)"),
], ids=["torus-L20", "sphere5-L16", "sphere5-L12-words"])
def test_bands_total_line(capsys, argv, total):
    code, out, err = run(capsys, "bands", *argv)
    assert (code, err) == (0, "")
    assert total in out.splitlines()


def test_bands_requires_presentation(capsys):
    code = cli.main(["bands", "--max-len", "4"])
    assert code == 2


@pytest.mark.parametrize("max_len", ["0", "-3"])
def test_bands_rejects_nonpositive_max_len(capsys, max_len):
    code, out, err = run(capsys, "bands", "--builtin", "sphere5",
                         "--max-len", max_len)
    assert code == 2
    assert out == ""
    assert "max_len must be >= 1" in err


def test_bands_text_table(capsys):
    code, out, err = run(capsys, "bands", "--builtin", "sphere5",
                         "--max-len", "5")
    assert code == 0
    assert out.splitlines()[:7] == [
        "bands of sphere5 up to length 5",
        "length  count  count^(1/length)",
        "     1      0  -",
        "     2      0  -",
        "     3      2  1.2599",
        "     4      0  -",
        "     5      4  1.3195",
    ]


@pytest.mark.parametrize("depth", ["0", "1"])
def test_certify_growth_rejects_short_depth(capsys, tmp_path, depth):
    cert = tmp_path / "growth.json"
    code, out, err = run(capsys, "certify-growth", "--builtin", "sphere5",
                         "--depth", depth, "--out", str(cert))
    assert code == 2
    assert "depth must be >= 2" in err
    assert not cert.exists()


def test_verify_rejects_depth_zero_certificate(capsys, tmp_path):
    # what --depth 0 used to write: no patterns, so nothing was checked
    cert = tmp_path / "growth.json"
    run(capsys, "certify-growth", "--builtin", "sphere5", "--depth", "2",
        "--max-len", "4", "--out", str(cert))
    doc = json.loads(cert.read_text())
    doc["depth"] = 0
    doc["necklaces"] = []
    cert.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", "--input", str(cert))
    assert code == 2
    assert "PASS" not in out
    assert "depth must be >= 2" in err


def test_verify_counts_the_patterns_before_replaying(capsys, tmp_path,
                                                    monkeypatch):
    # five patterns at depth 3; depth 60 would mean about 2^55 patterns
    cert = tmp_path / "growth.json"
    run(capsys, "certify-growth", "--builtin", "sphere5", "--depth", "3",
        "--max-len", "4", "--out", str(cert))
    doc = json.loads(cert.read_text())
    assert len(doc["necklaces"]) == 5
    doc["depth"] = 60
    cert.write_text(json.dumps(doc))

    def no_replay(*args, **kwargs):
        raise AssertionError("the forged certificate was replayed")

    monkeypatch.setattr(strings, "free_composability", no_replay)
    code, out, err = run(capsys, "verify", "--input", str(cert))
    assert code == 1
    assert out.splitlines()[1:] == ["  necklace lists differ", "FAIL"]


def test_verify_refuses_a_repeated_necklace(capsys, tmp_path, monkeypatch):
    cert = tmp_path / "growth.json"
    run(capsys, "certify-growth", "--builtin", "torus", "--depth", "3",
        "--out", str(cert))
    doc = json.loads(cert.read_text())
    doc["necklaces"].append(doc["necklaces"][0])
    cert.write_text(json.dumps(doc))

    def no_replay(*args, **kwargs):
        raise AssertionError("the forged certificate was replayed")

    monkeypatch.setattr(strings, "free_composability", no_replay)
    code, out, err = run(capsys, "verify", "--input", str(cert))
    assert code == 1
    assert out.splitlines()[1:] == ["  necklace lists differ", "FAIL"]


def test_verify_accepts_a_reordered_necklace_list(capsys, tmp_path):
    cert = tmp_path / "growth.json"
    run(capsys, "certify-growth", "--builtin", "torus", "--depth", "3",
        "--out", str(cert))
    doc = json.loads(cert.read_text())
    doc["necklaces"].reverse()
    cert.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", "--input", str(cert))
    assert code == 0
    assert out.splitlines()[-1] == "PASS"


@pytest.mark.parametrize("forge", [
    {"period": 2000},
    {"period": 2000, "verdict": "not_periodic", "dim_chain": [[1, 0, 0]]},
], ids=["period", "not-periodic"])
def test_verify_checks_the_chain_length_before_replaying(
        capsys, tmp_path, monkeypatch, forge):
    # a written certificate holds period + 1 dimension vectors
    cert = tmp_path / "periodicity.json"
    run(capsys, "periodicity", "--builtin", "torus", "--simple", "1",
        "--out", str(cert))
    doc = json.loads(cert.read_text())
    assert len(doc["dim_chain"]) == doc["period"] + 1 == 5
    cert.write_text(json.dumps(dict(doc, **forge)))

    def no_syzygy(*args, **kwargs):
        raise AssertionError("the forged certificate was replayed")

    monkeypatch.setattr(homology, "syzygy", no_syzygy)
    assert run(capsys, "verify", "--input", str(cert)) == (
        1, "certificate kind: periodicity\n"
           "  syzygy dimension chain differs\n"
           "FAIL\n", "")


def test_certify_growth_and_verify(capsys, tmp_path):
    cert = tmp_path / "growth.json"
    code, out, err = run(capsys, "certify-growth", "--builtin", "sphere5",
                         "--out", str(cert))
    assert code == 0
    assert "PASS" in out
    code, out, err = run(capsys, "verify", "--input", str(cert))
    assert code == 0
    assert "PASS" in out


def test_certify_growth_torus_depth4_replays(capsys, tmp_path):
    cert = tmp_path / "growth.json"
    code, out, err = run(capsys, "certify-growth", "--builtin", "torus",
                         "--depth", "4", "--out", str(cert))
    assert (code, err) == (0, "")
    code, out, err = run(capsys, "verify", "--input", str(cert))
    assert (code, out.splitlines()[-1], err) == (0, "PASS", "")


def test_certify_growth_genus2(capsys, tmp_path):
    cert = tmp_path / "g2.json"
    code, out, err = run(capsys, "certify-growth", "--builtin", "genus2",
                         "--depth", "4", "--out", str(cert))
    assert code == 0
    code, out, err = run(capsys, "verify", "--input", str(cert))
    assert code == 0


def test_verify_tampered_certificate_fails(capsys, tmp_path):
    cert = tmp_path / "growth.json"
    run(capsys, "certify-growth", "--builtin", "sphere5", "--out", str(cert))
    doc = json.loads(cert.read_text())
    doc["basepoint"] = "3"
    cert.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", "--input", str(cert))
    assert code == 1
    assert "FAIL" in out


@pytest.fixture(scope="module")
def sum3_certificate(tmp_path_factory):
    """The certificate of the torus module file S1 + OS2 + O^2S3, whose
    arrows act by nonzero matrices, as a document."""
    path = tmp_path_factory.mktemp("sum3") / "cert.json"
    assert cli.main(["periodicity", "--module", "fixtures/torus_sum3.json",
                     "--out", str(path)]) == 0
    return json.loads(path.read_text())


def _verify_doc(capsys, tmp_path, doc):
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(doc))
    return run(capsys, "verify", "--input", str(cert))


def test_verify_names_a_module_spec_without_dims(capsys, tmp_path,
                                                 sum3_certificate):
    assert _verify_doc(capsys, tmp_path, dict(sum3_certificate, module={})) \
        == (2, "", "error: module spec is missing field 'dims'\n")


def test_verify_checks_the_stored_isomorphism_commutes(
        capsys, tmp_path, sum3_certificate):
    doc = json.loads(json.dumps(sum3_certificate))
    doc["isomorphism"]["2"][0][0] += 1
    assert _verify_doc(capsys, tmp_path, doc) == (
        1, "certificate kind: periodicity\n"
           "  isomorphism does not commute with arrow x0_0\n"
           "  isomorphism does not commute with arrow x0_1\n"
           "  isomorphism does not commute with arrow x1_0\n"
           "FAIL\n", "")


def test_verify_checks_the_stored_isomorphism_is_invertible(
        capsys, tmp_path, sum3_certificate):
    doc = json.loads(json.dumps(sum3_certificate))
    doc["isomorphism"]["2"][3] = [0] * 7
    code, out, err = _verify_doc(capsys, tmp_path, doc)
    assert (code, err) == (1, "")
    assert out.startswith("certificate kind: periodicity\n"
                          "  isomorphism is not invertible at vertex '2'\n")
    assert out.endswith("FAIL\n")


def test_verify_solves_no_hom_and_draws_no_trial(
        capsys, tmp_path, monkeypatch, sum3_certificate):
    # the stored maps are checked as they are: the seed is only reported
    def refuse(*args, **kwargs):
        raise AssertionError("verify repeated the periodicity check")

    for name in ("_hom_basis", "iso_check", "check_periodicity"):
        monkeypatch.setattr(homology, name, refuse)
    code, out, err = _verify_doc(capsys, tmp_path,
                                 dict(sum3_certificate, seed=5, trials=1))
    assert (code, err) == (0, "")
    assert out == ("certificate kind: periodicity\n"
                   "  replayed 4 syzygy steps with seed 5; verdict periodic "
                   "confirmed\n"
                   "PASS\n")


@pytest.mark.parametrize("tamper,message", [
    (lambda d: d["junctions"][1].update(violations=["W2"],
                                        seam_factors=["junk"]),
     "junction 12 differs from the replay in violations, seam_factors"),
    (lambda d: d.update(junctions=[]),
     "certificate stores 0 junction records, replay has 4"),
    (lambda d: d.update(max_forbidden=99),
     "max_forbidden mismatch: replay says 4, certificate says 99"),
    (lambda d: d["necklaces"][2].update(band=False),
     "necklace 12 is not recorded as a band"),
    (lambda d: d.update(scope="every algebra has exponential growth"),
     "scope differs from the certified claim"),
    # a1.a2'.a3 rotated: the replay rotates it back
    (lambda d: d.update(word1="a2'.a3.a1"),
     "replayed rotations differ from the stored words"),
    # as many necklaces as the depth has patterns, one of them twice
    (lambda d: d["necklaces"][0].update(symbols=d["necklaces"][1]["symbols"]),
     "necklace lists differ"),
], ids=["junction", "junctions", "max_forbidden", "band", "scope", "rotation",
        "renamed-necklace"])
def test_verify_checks_stored_growth_evidence(capsys, tmp_path, tamper,
                                              message):
    cert = tmp_path / "growth.json"
    run(capsys, "certify-growth", "--builtin", "sphere5", "--depth", "3",
        "--max-len", "4", "--out", str(cert))
    doc = json.loads(cert.read_text())
    tamper(doc)
    cert.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", "--input", str(cert))
    assert code == 1
    assert "  %s\n" % message in out
    assert out.endswith("FAIL\n")


def test_certify_growth_checks_patterns_by_primitivity(capsys, monkeypatch):
    # clean junctions and blocks of 3 and 7 letters (maxF 4): the full band
    # check runs on the two input bands only, not on the 127 patterns
    calls = {"free_composability": 0, "is_band": 0}
    for name in calls:
        def counted(*args, _fn=getattr(strings, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(strings, name, counted)
    code, out, err = run(capsys, "certify-growth", "--builtin", "sphere5",
                         "--depth", "9", "--max-len", "4")
    assert code == 0
    assert "verified 127 composition patterns to depth 9" in out
    assert calls == {"free_composability": 1, "is_band": 2}


@pytest.mark.parametrize("max_len", ["0", "-1"])
def test_certify_growth_refuses_max_len_before_the_certificate(
        capsys, monkeypatch, max_len):
    # the census is counted first, so a bad --max-len costs no pattern check
    def no_check(*args, **kwargs):
        raise AssertionError("free_composability ran")

    monkeypatch.setattr(strings, "free_composability", no_check)
    code, out, err = run(capsys, "certify-growth", "--builtin", "genus2",
                         "--depth", "16", "--max-len", max_len)
    assert (code, out) == (2, "")
    assert "max_len must be >= 1" in err


@pytest.mark.parametrize("argv,allowed", [
    (("algebra", "--builtin", "torus"), (1,)),
    (("bands", "--builtin", "torus", "--max-len", "4"), (1,)),
    (("certify-growth", "--input", "src/surfalg/builtins/genus2.json",
      "--depth", "2", "--max-len", "4"), (1,)),
    (("syzygy", "--builtin", "torus"), (1,)),
    (("build", "--builtin", "torus"), (1, 2)),
], ids=["algebra", "bands", "certify-growth", "syzygy", "build"])
def test_each_quiver_validates_its_triangulation_once(capsys, monkeypatch,
                                                      argv, allowed):
    # qp.arrow_maps validates the triangulation of the quiver it builds;
    # build may validate once more, for the report it prints
    calls = []

    def counted(t, _fn=surface.validate_triangulation):
        calls.append(t)
        return _fn(t)

    monkeypatch.setattr(surface, "validate_triangulation", counted)
    monkeypatch.setattr(cli, "validate_triangulation", counted)
    assert run(capsys, *argv)[0] == 0
    assert len(calls) in allowed


@pytest.mark.parametrize("args,err", [
    # a triangle's 3-cycle is closed, but each x f(x) in it is forbidden,
    # and each is named once; the second word is xi(x0_0), a band
    (("--builtin", "torus", "--word1", "x0_0.x0_1.x0_2", "--word2",
      "x0_0.x1_0'.x0_2'.x1_1'.x0_0'.x1_0.x0_0'.x1_2'.x0_1'.x1_0'"),
     "error: first word is not a band: "
     "W2 at 1: letters 1-2 spell forbidden word x0_0.x0_1; "
     "W2 at 2: letters 2-3 spell forbidden word x0_1.x0_2; "
     "W2 at 3: letters 3-1 (2 letters, wrapping) spell forbidden word "
     "x0_2.x0_0\n"),
    (("--builtin", "sphere5", "--word1", "a1.a2'.a3", "--word2", "a1.a1"),
     "error: second word is not a band: "
     "closed at 2: word ends at 2 but starts at 1; "
     "primitive at 1: word is a proper power (least period 1)\n"),
], ids=["first", "second"])
def test_certify_growth_names_the_violations_of_a_non_band(capsys, args,
                                                           err):
    assert run(capsys, "certify-growth", *args) == (2, "", err)


def test_certify_growth_custom_words_failure(capsys):
    # alpha composed with itself is not freely composable
    code, out, err = run(capsys, "certify-growth", "--builtin", "sphere5",
                         "--word1", "a1.a2'.a3", "--word2", "a1.a2'.a3")
    assert code == 1
    assert "FAIL" in out


def test_periodicity_all_simples(capsys):
    code, out, err = run(capsys, "periodicity", "--builtin", "torus")
    assert code == 0
    assert out.count("periodic") == 3
    assert out.count("tube rank: 2") == 3


def test_periodicity_kx2_rank_one(capsys):
    code, out, err = run(capsys, "periodicity", "--builtin", "kx2")
    assert code == 0
    assert "periodic" in out
    assert "tube rank: 1" in out


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_periodicity_rejects_nonpositive_trials(capsys, trials):
    code, out, err = run(capsys, "periodicity", "--builtin", "torus",
                         "--trials", trials)
    assert code == 2
    assert out == ""
    assert "trials must be >= 1" in err


def test_verify_rejects_zero_trials_certificate(capsys, tmp_path):
    cert = tmp_path / "periodicity.json"
    run(capsys, "periodicity", "--builtin", "kx2", "--simple", "1",
        "--out", str(cert))
    doc = json.loads(cert.read_text())
    doc["trials"] = 0
    cert.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", "--input", str(cert))
    assert code == 2
    assert "PASS" not in out
    assert "trials must be >= 1" in err


def test_periodicity_rejects_a_negative_seed(capsys, tmp_path):
    cert = tmp_path / "c.json"
    code, out, err = run(capsys, "periodicity", "--builtin", "torus",
                         "--simple", "1", "--period", "2", "--seed", "-1",
                         "--out", str(cert))
    assert code == 2
    assert out == ""
    assert err == "error: seed must be >= 0\n"
    assert not cert.exists()


def test_env_negative_seed_is_named(capsys, monkeypatch):
    monkeypatch.setenv("SURFALG_SEED", "-3")
    code, out, err = run(capsys, "periodicity", "--builtin", "kx2")
    assert code == 2
    assert err == "error: seed must be >= 0\n"


def test_verify_rejects_negative_seed_certificate(capsys, tmp_path):
    cert = tmp_path / "periodicity.json"
    run(capsys, "periodicity", "--builtin", "torus", "--simple", "1",
        "--out", str(cert))
    doc = json.loads(cert.read_text())
    doc["seed"] = -1
    cert.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", "--input", str(cert))
    assert code == 2
    assert "PASS" not in out
    assert err == "error: seed must be >= 0\n"


@pytest.mark.parametrize("command", ["periodicity", "syzygy"])
def test_module_commands_take_exactly_one_source(capsys, command):
    code, out, err = run(capsys, command, "--builtin", "kx2",
                         "--input", "src/surfalg/builtins/torus.json")
    assert (code, out) == (2, "")
    assert "give either --input or --builtin, not both" in err
    code, out, err = run(capsys, command)
    assert (code, out) == (2, "")
    assert "one of --input or --builtin is required" in err
    # --module is a source too: it refuses either of the others, and a
    # --simple that it would ignore
    builtin = ("--builtin", "kx2")
    genus2 = ("--input", "src/surfalg/builtins/genus2.json")
    simple = ("--simple", "2")
    for extra, flag in [(builtin, "--builtin"), (genus2, "--input"),
                        (builtin + genus2, "--builtin"), (simple, "--simple"),
                        (genus2 + simple, "--input")]:
        got = run(capsys, command, "--module", "fixtures/torus_simple1.json",
                  *extra)
        assert got == (
            2, "", "error: give either --module or %s, not both\n" % flag)


@pytest.mark.parametrize("command", ["periodicity", "syzygy"])
def test_module_commands_refuse_an_unknown_vertex(capsys, command):
    assert run(capsys, command, "--builtin", "torus", "--simple", "9") == (
        2, "", "error: unknown vertex '9'\n")


_TORUS = json.loads(triangulation_to_json(fixtures.torus()))
_ONE_SOURCE = "algebra spec needs exactly one of 'builtin' or 'triangulation'"


@pytest.mark.parametrize("command", ["periodicity", "syzygy"])
@pytest.mark.parametrize("algebra,err", [
    ({"builtin": "torus", "triangulation": _TORUS}, _ONE_SOURCE),
    ({"field": 32003}, _ONE_SOURCE),
    ({"builtin": "kx2", "triangulation": _TORUS}, _ONE_SOURCE),
    ({"builtin": "nope"},
     "unknown builtin 'nope' (choose from torus, genus2, sphere5, tetra)"),
], ids=["both", "neither", "kx2-and-triangulation", "unknown-builtin"])
def test_module_file_refuses_a_bad_algebra_spec(capsys, tmp_path, command,
                                                algebra, err):
    doc = json.loads(pathlib.Path("fixtures/torus_simple1.json").read_text())
    path = tmp_path / "mod.json"
    path.write_text(json.dumps(dict(doc, algebra=algebra)))
    assert run(capsys, command, "--module", str(path)) == (
        2, "", "error: %s\n" % err)


def test_syzygy_rejects_negative_steps(capsys):
    code, out, err = run(capsys, "syzygy", "--builtin", "torus",
                         "--steps", "-2")
    assert code == 2
    assert out == ""
    assert "steps must be >= 0" in err


@pytest.mark.parametrize("argv,err", [
    (("periodicity", "--builtin", "genus2", "--trials", "0"),
     "trials must be >= 1"),
    (("periodicity", "--builtin", "genus2", "--period", "0"),
     "period must be >= 1"),
    (("periodicity", "--builtin", "genus2", "--seed", "-1"),
     "seed must be >= 0"),
    (("periodicity", "--module", "fixtures/torus_simple1.json",
      "--trials", "0"), "trials must be >= 1"),
    (("periodicity", "--builtin", "genus2", "--out"),
     "--out needs a single module (--simple or --module)"),
    (("periodicity", "--input", "fixtures/torus2.json", "--out"),
     "--out needs a single module (--simple or --module)"),
    (("syzygy", "--builtin", "genus2", "--steps", "-1"),
     "steps must be >= 0"),
    (("certify-growth", "--builtin", "sphere5", "--word1", "a1.a2'.a3"),
     "give both --word1 and --word2, or neither"),
], ids=["trials", "period", "seed", "module-trials", "out-genus2",
        "out-torus2", "steps", "word1-alone"])
def test_refused_arguments_build_no_algebra(capsys, monkeypatch, tmp_path,
                                            argv, err):
    calls = []
    monkeypatch.setattr(certificates, "algebra_from_spec", calls.append)
    if argv[-1] == "--out":
        argv += (str(tmp_path / "cert.json"),)
    assert run(capsys, *argv) == (2, "", "error: %s\n" % err)
    assert calls == []
    assert not (tmp_path / "cert.json").exists()


def test_all_simples_of_one_vertex_are_one_out_target(capsys, tmp_path):
    cert = tmp_path / "cert.json"
    code, out, err = run(capsys, "periodicity", "--builtin", "kx2",
                         "--out", str(cert))
    assert (code, err) == (0, "")
    assert out.startswith("simple(1): periodic")
    assert json.loads(cert.read_text())["module"] == {"simple": "1"}


def test_periodicity_shares_one_chain_per_module(capsys, monkeypatch):
    # per torus simple: O^1..O^4 once, m against O^4 m once (reused for the
    # tube rank), m against O^2 m once; one weak-symmetry check per algebra
    calls = {"syzygy": 0, "iso_check": 0, "check_weakly_symmetric": 0}
    for mod, name in ((homology, "syzygy"), (homology, "iso_check"),
                      (algebra, "check_weakly_symmetric")):
        def counted(*args, _fn=getattr(mod, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(mod, name, counted)
    code, out, err = run(capsys, "periodicity", "--builtin", "torus")
    assert code == 0
    assert calls == {"syzygy": 12, "iso_check": 6,
                     "check_weakly_symmetric": 1}


def test_certify_growth_excluded_surface(capsys):
    code, out, err = run(capsys, "certify-growth", "--builtin", "tetra")
    assert code == 2
    assert "excluded surface" in err


def test_certify_growth_reports_counts_and_scope(capsys):
    code, out, err = run(capsys, "certify-growth", "--builtin", "sphere5",
                         "--max-len", "8")
    assert code == 0
    assert "band counts up to length 8" in out
    assert "  length  count  count^(1/length)\n       1      0  -\n" in out
    assert "       8      9  1.3161\n" in out
    assert "growth estimate: max count^(1/length) = 1.3195" in out
    assert "scope:" in out and "quotient" in out


def test_periodicity_module_file(capsys, tmp_path):
    doc = {
        "algebra": {"builtin": "torus", "field": 32003, "max_deg": 40},
        "dims": {"1": 1, "2": 0, "3": 0},
        "matrices": {},
    }
    path = tmp_path / "mod.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "periodicity", "--module", str(path))
    assert code == 0
    assert "periodic" in out


def test_periodicity_module_file_unknown_field(capsys, tmp_path):
    path = tmp_path / "mod.json"
    path.write_text(json.dumps({
        "algebra": {"builtin": "torus"},
        "dims": {"1": 1, "2": 0, "3": 0},
        "woops": 1,
    }))
    code, out, err = run(capsys, "periodicity", "--module", str(path))
    assert code == 2
    assert "woops" in err


def test_periodicity_module_file_nonpositive_max_deg(capsys, tmp_path):
    path = tmp_path / "mod.json"
    path.write_text(json.dumps({
        "algebra": {"builtin": "torus", "max_deg": 0},
        "dims": {"1": 1, "2": 0, "3": 0},
    }))
    code, out, err = run(capsys, "periodicity", "--module", str(path))
    assert code == 2
    assert "max_deg must be >= 1" in err


def test_periodicity_module_file_reads_empty_matrix(capsys, tmp_path):
    # [] is the matrix of an arrow out of a vertex of dimension 0; x0_0
    # leaves vertex 1
    path = tmp_path / "mod.json"
    path.write_text(json.dumps({
        "algebra": {"builtin": "torus"},
        "dims": {"1": 0, "2": 1, "3": 0},
        "matrices": {"x0_0": []},
    }))
    cert = tmp_path / "cert.json"
    code, out, err = run(capsys, "periodicity", "--module", str(path),
                         "--out", str(cert))
    _, simple, _ = run(capsys, "periodicity", "--builtin", "torus",
                       "--simple", "2")
    assert (code, err) == (0, "")
    assert out == simple.replace("simple(2)", str(path), 1)
    assert "[0, 1, 0] -> [4, 3, 4] -> [4, 5, 4]" in out
    assert "tube rank: 2" in out
    code, out, err = run(capsys, "verify", "--input", str(cert))
    assert (code, out.splitlines()[-1], err) == (0, "PASS", "")


def test_syzygy_chain(capsys):
    assert run(capsys, "syzygy", "--builtin", "torus", "--simple", "1",
               "--steps", "4") == (
        0, "vertex order: 1, 2, 3\n"
           "simple(1): [1, 0, 0] -> [3, 4, 4] -> [5, 4, 4] -> [3, 4, 4]"
           " -> [1, 0, 0]\n", "")


def test_xi_single_arrow(capsys):
    code, out, err = run(capsys, "xi", "--builtin", "torus")
    assert code == 0
    assert "band: yes" in out
    assert "eta" in out


def test_xi_all_arrows(capsys):
    code, out, err = run(capsys, "xi", "--builtin", "torus", "--all")
    assert code == 0
    assert out.count("band: yes") == 6


def test_xi_refuses_an_arrow_with_all(capsys):
    got = run(capsys, "xi", "--builtin", "torus", "--all", "--arrow", "x0_1")
    assert got == (2, "", "error: give either --arrow or --all, not both\n")


def test_xi_prints_the_violations_of_a_word_that_is_no_band(capsys,
                                                            monkeypatch):
    # every xi of torus is a band; checking each word's square in its place
    # gives a real violation record to print
    is_band = strings.is_band
    monkeypatch.setattr(strings, "is_band", lambda p, w: is_band(p, w + w))
    assert run(capsys, "xi", "--builtin", "torus") == (1, (
        "xi(x0_0) = x0_0.x1_0'.x0_2'.x1_1'.x0_0'.x1_0.x0_0'.x1_2'.x0_1'"
        ".x1_0'\n"
        "  length 10, band: no\n"
        "  primitive at 1: word is a proper power (least period 10)\n"
        "  rho1 = x0_0.x1_1.x0_2.x1_0\n"
        "  rho2 = x1_0.x0_1.x1_2.x0_0\n"
        "  eta  = x0_0.x1_1.x0_2.x1_0.x0_0'.x1_0.x0_1.x1_2.x0_0.x1_0'\n"
        "  length 10, band: no\n"
        "  primitive at 1: word is a proper power (least period 10)\n"), "")


@pytest.mark.parametrize("argv,err", [
    (("--builtin", "torus", "--arrow", "x0_0", "--word1", "a1",
      "--word2", "a1"),
     "error: give either --arrow or --word1/--word2, not both\n"),
    (("--builtin", "sphere5", "--arrow", "a1"),
     "error: --arrow needs arrow maps, and the sphere5 presentation has "
     "none\n"),
], ids=["words", "sphere5"])
def test_certify_growth_refuses_an_arrow_it_would_not_read(capsys, argv,
                                                           err):
    assert run(capsys, "certify-growth", *argv) == (2, "", err)


def test_env_override(capsys, monkeypatch):
    monkeypatch.setenv("SURFALG_MAX_LEN", "4")
    code, out, err = run(capsys, "bands", "--builtin", "sphere5")
    assert code == 0
    assert "up to length 4" in out
    # explicit flag wins
    code, out, err = run(capsys, "bands", "--builtin", "sphere5",
                         "--max-len", "3")
    assert "up to length 3" in out
    # the variable is read on each call, not once at import
    monkeypatch.setenv("SURFALG_MAX_LEN", "5")
    code, out, err = run(capsys, "bands", "--builtin", "sphere5")
    assert code == 0
    assert "up to length 5" in out


def test_env_override_bad_value(capsys, monkeypatch):
    monkeypatch.setenv("SURFALG_MAX_LEN", "many")
    code, out, err = run(capsys, "bands", "--builtin", "sphere5")
    assert code == 2
    assert "SURFALG_MAX_LEN" in err


@pytest.mark.parametrize("name,argv", [
    ("SURFALG_FIELD",
     ("periodicity", "--module", "fixtures/torus_simple1.json")),
    ("SURFALG_MAX_LEN",
     ("certify-growth", "--builtin", "sphere5",
      "--word1", "a1.a2'.a3", "--word2", "a1.a2'.a3")),
], ids=["field-module", "max-len-fail"])
def test_env_bad_value_rejected_on_every_run(capsys, monkeypatch, name,
                                             argv):
    # a declared option's variable is read whether or not the command
    # goes on to use it (with --module, or on a FAIL verdict)
    monkeypatch.chdir(pathlib.Path(__file__).resolve().parents[1])
    monkeypatch.setenv(name, "abc")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: environment variable %s='abc'" % name)


def test_output_files_written(capsys, tmp_path):
    out_path = tmp_path / "quiver.dot"
    code, out, err = run(capsys, "build", "--builtin", "torus",
                         "--format", "dot", "--out", str(out_path))
    assert code == 0
    assert out_path.read_text().startswith("digraph")


def test_periodicity_rejects_field_too_large_for_int64(capsys):
    code, out, err = run(capsys, "periodicity", "--builtin", "torus",
                         "--field", "2147483647")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: field modulus 2147483647 is too large")
    assert "inner dimension" in err


def test_algebra_rejects_huge_field_without_hanging():
    # 2^61 - 1 is prime; trial division on it would run for minutes, so the
    # int64 bound has to be checked before primality
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    try:
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from surfalg.cli import main; sys.exit(main())",
             "algebra", "--builtin", "kx2", "--field", "2305843009213693951"],
            capture_output=True, text=True, env=env, timeout=30)
    except subprocess.TimeoutExpired:
        pytest.fail("algebra --field 2^61-1 did not exit within 30 s")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith(
        "error: field modulus 2305843009213693951 is too large")


@pytest.mark.parametrize("value,argv", [
    ("xml", ("build", "--builtin", "torus")),
    ("dot", ("algebra", "--builtin", "kx2")),
], ids=["build-xml", "algebra-dot"])
def test_env_format_checked_against_the_command_choices(capsys, monkeypatch,
                                                        value, argv):
    monkeypatch.setenv("SURFALG_FORMAT", value)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1
    assert err.startswith("error: environment variable SURFALG_FORMAT=%r"
                          % value)


def test_env_format_dot_builds_the_quiver(capsys, monkeypatch):
    monkeypatch.setenv("SURFALG_FORMAT", "dot")
    assert run(capsys, "build", "--builtin", "torus") == \
        (0, run(capsys, "build", "--builtin", "torus", "--format", "dot")[1],
         "")


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_closed_stdout_exits_141_silently(unbuffered):
    # the read end is closed before the command starts.  Unbuffered, the
    # first print fails with EPIPE; buffered (the default for a pipe), the
    # short output first reaches the pipe when stdout is flushed.  Either
    # way the interpreter's final flush must not print an "Exception
    # ignored" line.
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(src)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from surfalg.cli import main; sys.exit(main())",
             "algebra", "--builtin", "kx2"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env,
            timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, "")


def test_broken_pipe_without_a_stdout_descriptor_returns_141(capsys):
    # in-process callers capture stdout in an object with no descriptor
    def closed():
        raise BrokenPipeError(32, "Broken pipe")
    assert cli.run_with_exit_codes(closed) == 141
    assert capsys.readouterr() == ("", "")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_out_fifo_with_no_reader_exits_two(capsys, tmp_path, monkeypatch):
    # a broken pipe on --out is an unwritable --out, not a closed stdout
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)

    def open_then_drop_reader(*a, **k):
        fh = open(*a, **k)
        os.close(reader)
        return fh
    monkeypatch.setattr(cli, "open", open_then_drop_reader, raising=False)
    code, out, err = run(capsys, "algebra", "--builtin", "kx2",
                         "--out", str(fifo))
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write %s: " % fifo)


def test_unwritable_out_still_exits_two(capsys, tmp_path):
    # a directory as --out: an OSError that is not a closed pipe
    code, out, err = run(capsys, "algebra", "--builtin", "kx2",
                         "--out", str(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


# Triangles [1,2,3] and [3,2,1] pass the count checks, but they glue into
# a sphere with three punctures, not a torus; their quiver has 2-cycles.
_TWO_CYCLE_TORUS = {
    "genus": 1, "punctures": ["p"],
    "arcs": [{"id": a, "endpoints": ["p", "p"]} for a in "123"],
    "triangles": [["1", "2", "3"], ["3", "2", "1"]],
}
# Two once-punctured tori in one document pass the counts and have
# Euler characteristic 0, but the triangles fall into two pieces.
_TWO_TORI = {
    "genus": 1, "punctures": ["p", "q"],
    "arcs": [{"id": a, "endpoints": [p, p]} for a, p in zip("123456",
                                                            "pppqqq")],
    "triangles": [["1", "2", "3"]] * 2 + [["4", "5", "6"]] * 2,
}


def test_two_cycles_are_refused(capsys, tmp_path):
    # each wrong gluing fails validation, naming the invariant it breaks
    for doc, reason in [
        (_TWO_CYCLE_TORUS, "Euler characteristic #cycles - #arcs + "
                           "#triangles = 2 != 2 - 2*genus = 0"),
        (_TWO_TORI, "triangles fall into more than one connected piece: "
                    "2 of 4 reach triangle 0"),
    ]:
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "algebra", "--input", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: invalid triangulation: ")
        assert err.endswith(reason + "\n") and err.count("\n") == 1
        code, out, err = run(capsys, "build", "--input", str(path))
        assert (code, err) == (1, "")
        assert "validation: ok" not in out and "  - %s\n" % reason in out


def test_wrong_gluing_violations_are_listed(capsys, tmp_path):
    path = tmp_path / "torus.json"
    path.write_text(json.dumps(_TWO_CYCLE_TORUS))
    code, out, _ = run(capsys, "build", "--input", str(path))
    assert code == 1
    assert out.splitlines()[2:] == [
        "validation: 5 violation(s)",
        "  - corner cycle [(0, 0), (1, 1)]: no puncture of valency 2 ends "
        "both sides at each corner",
        "  - corner cycle [(0, 1), (1, 0)]: no puncture of valency 2 ends "
        "both sides at each corner",
        "  - corner cycle [(0, 2), (1, 2)]: no puncture of valency 2 ends "
        "both sides at each corner",
        "  - puncture 'p' has 0 corner cycles, expected 1",
        "  - Euler characteristic #cycles - #arcs + #triangles = 2 != "
        "2 - 2*genus = 0",
    ]


def _set(*path_and_value):
    *path, key, value = path_and_value

    def tamper(doc):
        for step in path:
            doc = doc[step]
        doc[key] = value
    return tamper


@pytest.mark.parametrize("kind,tamper,field", [
    ("growth", _set("depth", "3"), "'depth'"),
    ("growth", _set("depth", None), "'depth'"),
    ("growth", _set("junctions", 5), "'junctions'"),
    ("growth", _set("necklaces", {}), "'necklaces'"),
    ("growth", _set("junctions", 0, "violations", "W2"), "'violations'"),
    ("periodicity", _set("period", "4"), "'period'"),
    ("periodicity", _set("trials", None), "'trials'"),
    ("periodicity", _set("seed", "x"), "'seed'"),
    ("periodicity", _set("dim_chain", 3), "'dim_chain'"),
    ("periodicity", _set("dim_chain", [1, 1]), "'dim_chain'"),
    ("periodicity", _set("isomorphism", 5), "'isomorphism'"),
    ("periodicity", _set("isomorphism", "1", [[0.5]]), "'isomorphism'"),
    ("periodicity", _set("algebra", "field", None), "'field'"),
    ("periodicity", _set("algebra", "max_deg", [40]), "'max_deg'"),
    ("growth", _set("word1", 5), "'word1'"),
    ("growth", _set("scope", 5), "'scope'"),
    ("growth", _set("basepoint", [1]), "'basepoint'"),
    ("growth", _set("max_forbidden", "4"), "'max_forbidden'"),
    ("growth", _set("necklaces", 0, "symbols", [1]), "'symbols'"),
    ("periodicity", _set("module", {"dims": {"1": 1}, "matrices": 5}),
     "'matrices'"),
    ("periodicity", _set("module", {"dims": 5}), "'dims'"),
    ("periodicity", _set("algebra", "field", "32003"), "'field'"),
    ("periodicity", _set("algebra", "max_deg", 40.9), "'max_deg'"),
], ids=["depth-str", "depth-null", "junctions-int", "necklaces-object",
        "violations-str", "period-str", "trials-null", "seed-str",
        "dim_chain-int", "dim_chain-ints", "isomorphism-int",
        "isomorphism-float", "field-null",
        "max_deg-list", "word1-int", "scope-int", "basepoint-list",
        "max_forbidden-str", "symbols-list", "matrices-int", "dims-int",
        "field-str", "max_deg-float"])
def test_verify_names_a_mistyped_field(capsys, tmp_path, kind, tamper,
                                       field):
    cert = tmp_path / "cert.json"
    if kind == "growth":
        argv = ("certify-growth", "--builtin", "sphere5", "--depth", "3",
                "--max-len", "4")
    else:
        argv = ("periodicity", "--builtin", "kx2", "--simple", "1")
    assert run(capsys, *argv, "--out", str(cert))[0] == 0
    doc = json.loads(cert.read_text())
    tamper(doc)
    cert.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", "--input", str(cert))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert field in err


@pytest.mark.parametrize("tamper,message", [
    (lambda d: d["isomorphism"]["1"].pop(),
     "matrix for vertex '1' has shape (8, 9), expected (9, 9)"),
    (_set("isomorphism", "2", []),
     "matrix for vertex '2' has shape (0,), expected (7, 7)"),
    (lambda d: d["isomorphism"]["1"][0].append(1),
     "matrix for vertex '1' has rows of different lengths"),
    (_set("isomorphism", "3", 8, 0, 32003),
     "matrix for vertex '3' has entries outside 0..32002"),
    # beyond int64: read as a JSON integer, then refused by its range
    (_set("isomorphism", "3", 8, 0, 2 ** 64),
     "matrix for vertex '3' has entries outside 0..32002"),
    (_set("isomorphism", "4", []), "unknown vertex '4'"),
    (lambda d: d["isomorphism"].pop("3"), "missing vertex '3'"),
], ids=["shape", "empty", "ragged", "entry-p", "entry-huge",
        "unknown-vertex", "missing-vertex"])
def test_verify_names_a_bad_isomorphism_matrix(
        capsys, tmp_path, sum3_certificate, tamper, message):
    doc = json.loads(json.dumps(sum3_certificate))
    tamper(doc)
    assert _verify_doc(capsys, tmp_path, doc) == (
        2, "", "error: invalid isomorphism: %s\n" % message)


@pytest.mark.parametrize("doc,field", [
    ({"dims": {"1": True}}, "'1'"),
    ({"matrices": [1]}, "'matrices'"),
    ({"dims": {"1": 1, "2": 1, "3": 0}, "matrices": {"x0_0": [[0.5]]}},
     "'x0_0'"),
    ({"dims": {"1": 2, "2": 2, "3": 0}, "matrices": {"x0_0": [[0], [0, 0]]}},
     "matrix for x0_0 has rows of different lengths"),
    ({"dims": {"1": 1, "2": 1, "3": 0}, "matrices": {"x0_0": [[7, 7]]}},
     "error: invalid module: matrix for x0_0 has shape (1, 2), "
     "expected (1, 1)"),
    # [] stands for a matrix with no rows only out of a dimension-0 vertex
    ({"dims": {"1": 1, "2": 1, "3": 0}, "matrices": {"x0_0": []}},
     "error: invalid module: matrix for x0_0 has shape (0,), "
     "expected (1, 1)"),
    ({"dims": {"1": 1, "2": 1, "3": 0}, "matrices": {"x0_0": [[-1]]}},
     "error: invalid module: matrix for x0_0 has entries outside 0..32002"),
    ({"dims": {"1": 1, "2": 1, "3": 0}, "matrices": {"x0_0": [[32003]]}},
     "error: invalid module: matrix for x0_0 has entries outside 0..32002"),
    # beyond int64 too: the same message as any other entry out of range
    ({"dims": {"1": 1, "2": 1, "3": 0}, "matrices": {"x0_0": [[2 ** 64]]}},
     "error: invalid module: matrix for x0_0 has entries outside 0..32002"),
    # zero matrices of 8 * 10**16 bytes, beyond any 48-bit address space
    ({"dims": {"1": 10 ** 8, "2": 10 ** 8, "3": 0}},
     "module dims for '1' are too large to allocate"),
    # no zero matrix is large, but the identity at vertex 1 is
    ({"dims": {"1": 10 ** 8, "2": 0, "3": 0}},
     "module dims for '1' are too large to allocate"),
    ({"dims": {"1": 10 ** 30, "2": 10 ** 30, "3": 10 ** 30}},
     "module dims for '1' are too large to allocate"),
    ({"dims": {"1": 1, "2": 0, "3": 0, "zzz": 5}},
     "error: invalid module: dims mentions unknown vertex 'zzz'"),
    ({"matrices": {"bogus": [[1]]}},
     "error: invalid module: matrices mention unknown arrow 'bogus'"),
    # acting only through triangle 0: the short side of a relation acts as
    # nonzero, its long side, which runs through triangle 1, as zero
    ({"dims": {"1": 1, "2": 1, "3": 1},
      "matrices": {"x0_0": [[1]], "x0_1": [[1]], "x0_2": [[1]]}},
     "error: invalid module: path x0_0.x0_1 does not act as its normal "
     "form"),
    # the module check multiplies by a 2 x 2 identity, beyond the int64
    # bound of this field: the field is named, not the dims
    ({"algebra": {"builtin": "torus", "field": 3037000493},
      "dims": {"1": 2, "2": 0, "3": 0}},
     "error: field modulus 3037000493 is too large"),
], ids=["dims-bool", "matrices-list", "entry-float", "ragged", "shape",
        "shape-empty", "entry-negative", "entry-p", "entry-huge",
        "dims-unallocatable", "dims-identity-unallocatable", "dims-1e30",
        "dims-unknown-vertex", "matrices-unknown-arrow", "triangle0",
        "field-int64"])
def test_module_file_names_a_bad_dims_or_matrix(capsys, tmp_path, doc, field):
    path = tmp_path / "mod.json"
    base = json.loads(pathlib.Path("fixtures/torus_simple1.json").read_text())
    path.write_text(json.dumps(dict(base, **doc)))
    code, out, err = run(capsys, "periodicity", "--module", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert field in err


@pytest.mark.parametrize("command", ["periodicity", "syzygy"])
def test_module_commands_refuse_a_module_that_is_not_nilpotent(
        capsys, tmp_path, command):
    # every relation reads 1 - 1 = 0 with all six torus arrows acting as
    # [[1]], but no path acts as zero, the paths that are zero in the
    # algebra among them
    path = tmp_path / "ones.json"
    base = json.loads(pathlib.Path("fixtures/torus_simple1.json").read_text())
    path.write_text(json.dumps(dict(
        base, dims={"1": 1, "2": 1, "3": 1},
        matrices={"x%d_%d" % (i, j): [[1]] for i in (0, 1)
                  for j in (0, 1, 2)})))
    assert run(capsys, command, "--module", str(path)) == (
        2, "", "error: invalid module: path x0_0.x1_1.x1_2 acts as "
               "nonzero, but is zero in the algebra\n")


# A JSON value of each kind; a field is replaced by each value of a kind
# other than its own.
_KINDS = (None, True, 1, "x", [], {})


def _kind(value):
    return type(value) if value is not None else None


def _replacements(doc, path=()):
    """(path, value) for every field of doc and of its nested records (the
    first item of a list stands for all), replaced by each JSON value of
    another kind."""
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc[:1]) if isinstance(doc, list) else ())
    for key, value in items:
        for other in _KINDS:
            if _kind(other) is not _kind(value):
                yield path + (key,), other
        yield from _replacements(value, path + (key,))


def _written_documents():
    """The documents the program writes, with the command that reads each."""
    docs = [("build-" + name, ("build", "--input"),
             json.loads(triangulation_to_json(
                 fixtures.builtin_triangulation(name))))
            for name in fixtures.BUILTIN_NAMES]
    spec = certificates.presentation_spec({"builtin": "torus"})
    pres, maps = certificates.quotient_from_spec(spec)
    growth = certificates.make_growth_certificate(
        spec, pres, strings.build_xi(maps, "x0_0"),
        strings.build_eta(maps, "x0_0"), depth=2)
    aspec = {"builtin": "kx2", "field": 32003, "max_deg": 40}
    a = certificates.algebra_from_spec(aspec)
    res = homology.check_periodicity(a, homology.simple_module(a, "1"))
    periodicity = certificates.make_periodicity_certificate(
        aspec, {"simple": "1"}, res)
    for name, cert in (("growth", growth), ("periodicity", periodicity)):
        docs.append(("verify-" + name, ("verify", "--input"),
                     json.loads(certificates.certificate_to_json(cert))))
    docs.append(("module-file", ("periodicity", "--module"), json.loads(
        pathlib.Path("fixtures/torus_simple1.json").read_text())))
    return docs


_FIELD_CASES = [
    pytest.param(argv, doc, path, value,
                 id="%s:%s=%s" % (name, ".".join(map(str, path)),
                                  json.dumps(value)))
    for name, argv, doc in _written_documents()
    for path, value in _replacements(doc)]


@pytest.mark.parametrize("argv,doc,path,value", _FIELD_CASES)
def test_every_field_of_every_document_is_typed(capsys, tmp_path, argv, doc,
                                                path, value):
    doc = json.loads(json.dumps(doc))
    target = doc
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = value
    field = [step for step in path if isinstance(step, str)][-1]
    path_ = tmp_path / "doc.json"
    path_.write_text(json.dumps(doc))
    code, out, err = run(capsys, *argv, str(path_))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert repr(field) in err
