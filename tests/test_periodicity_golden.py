"""Exact outputs of `periodicity`, `syzygy` and `verify`, recorded before
periodicity, tube rank and `syzygy` came to share one syzygy chain per
module, and the exact refusals of bad `periodicity` options.  The genus2
row was recorded when its algebra first stabilized, once the quotient came
from a truncated standard basis.  The rows of the torus module file
S1 + OS2 + O^2S3 were recorded while Hom spaces were still solved on the
full system of intertwiner equations, before they were solved on the top
of the projective cover.  The certificates were re-recorded when they came
to store the isomorphism M -> O^4 M in place of the Hom dimension and the
witnessing coefficients; every other byte is as before."""

import json
import pathlib

import pytest

from surfalg import cli, homology

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODULE_FILE = "fixtures/torus_simple1.json"
SUM3_FILE = "fixtures/torus_sum3.json"

RANK2 = "  omega^4 iso: yes; tau^2 iso: yes (tau = omega^2); tube rank: 2\n"
RANK1 = "  omega^4 iso: yes; tau^2 iso: yes (tau = omega^2); tube rank: 1\n"

S1_CHAIN = "[1, 0, 0] -> [3, 4, 4] -> [5, 4, 4] -> [3, 4, 4] -> [1, 0, 0]"
S2_CHAIN = "[0, 1, 0] -> [4, 3, 4] -> [4, 5, 4] -> [4, 3, 4] -> [0, 1, 0]"
S3_CHAIN = "[0, 0, 1] -> [4, 4, 3] -> [4, 4, 5] -> [4, 4, 3] -> [0, 0, 1]"
KX2_CHAIN = "[1] -> [1] -> [1] -> [1] -> [1]"
SUM3_DIMS = [[9, 7, 9], [11, 13, 11], [9, 7, 9], [7, 9, 7], [9, 7, 9]]
SUM3_CHAIN = " -> ".join(map(str, SUM3_DIMS))

TORUS_ALL = (
    "simple(1): periodic [" + S1_CHAIN + "]\n" + RANK2
    + "simple(2): periodic [" + S2_CHAIN + "]\n" + RANK2
    + "simple(3): periodic [" + S3_CHAIN + "]\n" + RANK2
)


def _genus2_simple(k):
    """Simple k of the nine genus2 vertices: Omega^4-periodic with the
    torus pattern, 3 / 5 / 3 at its own vertex and 4 elsewhere."""
    def at(own, other):
        return str([own if i == k else other for i in range(9)])
    chain = " -> ".join([at(1, 0), at(3, 4), at(5, 4), at(3, 4), at(1, 0)])
    name = ("a", "b", "c", "d", "d1", "d2", "d3", "d4", "d5")[k]
    return "simple(%s): periodic [%s]\n" % (name, chain) + RANK2


GENUS2_ALL = "".join(_genus2_simple(k) for k in range(9))

PERIODICITY_GOLDEN = [
    (("--builtin", "torus"), 0, TORUS_ALL),
    (("--builtin", "torus", "--field", "5"), 0, TORUS_ALL),
    (("--builtin", "torus", "--trials", "1"), 0, TORUS_ALL),
    (("--builtin", "kx2"), 0,
     "simple(1): periodic [" + KX2_CHAIN + "]\n" + RANK1),
    (("--builtin", "kx2", "--period", "2"), 0,
     "simple(1): periodic [[1] -> [1] -> [1]]\n" + RANK1),
    (("--builtin", "torus", "--simple", "1", "--period", "1"), 1,
     "simple(1): not_periodic [[1, 0, 0] -> [3, 4, 4]]\n" + RANK2),
    (("--builtin", "torus", "--simple", "1", "--period", "2"), 1,
     "simple(1): not_periodic [[1, 0, 0] -> [3, 4, 4] -> [5, 4, 4]]\n"
     + RANK2),
    (("--builtin", "torus", "--simple", "1", "--period", "3"), 1,
     "simple(1): not_periodic [[1, 0, 0] -> [3, 4, 4] -> [5, 4, 4]"
     " -> [3, 4, 4]]\n" + RANK2),
    (("--builtin", "torus", "--simple", "1", "--period", "8"), 0,
     "simple(1): periodic [[1, 0, 0] -> [3, 4, 4] -> [5, 4, 4]"
     " -> [3, 4, 4] -> [1, 0, 0] -> [3, 4, 4] -> [5, 4, 4]"
     " -> [3, 4, 4] -> [1, 0, 0]]\n" + RANK2),
    (("--module", MODULE_FILE), 0,
     MODULE_FILE + ": periodic [" + S1_CHAIN + "]\n" + RANK2),
    (("--builtin", "torus", "--simple", "2", "--seed", "7",
      "--trials", "3"), 0,
     "simple(2): periodic [" + S2_CHAIN + "]\n" + RANK2),
    (("--builtin", "genus2"), 0, GENUS2_ALL),
    (("--module", SUM3_FILE), 0,
     SUM3_FILE + ": periodic [" + SUM3_CHAIN + "]\n" + RANK2),
]

SYZYGY_GOLDEN = [
    (("--builtin", "torus", "--steps", "8"),
     "vertex order: 1, 2, 3\n"
     "simple(1): " + S1_CHAIN + " -> [3, 4, 4] -> [5, 4, 4] -> [3, 4, 4]"
     " -> [1, 0, 0]\n"
     "simple(2): " + S2_CHAIN + " -> [4, 3, 4] -> [4, 5, 4] -> [4, 3, 4]"
     " -> [0, 1, 0]\n"
     "simple(3): " + S3_CHAIN + " -> [4, 4, 3] -> [4, 4, 5] -> [4, 4, 3]"
     " -> [0, 0, 1]\n"),
    (("--builtin", "torus", "--steps", "0"),
     "vertex order: 1, 2, 3\n"
     "simple(1): [1, 0, 0]\nsimple(2): [0, 1, 0]\nsimple(3): [0, 0, 1]\n"),
    (("--builtin", "kx2"),
     "vertex order: 1\nsimple(1): " + KX2_CHAIN + "\n"),
    (("--module", MODULE_FILE, "--steps", "5"),
     "vertex order: 1, 2, 3\n"
     + MODULE_FILE + ": " + S1_CHAIN + " -> [3, 4, 4]\n"),
]

TORUS_SPEC = {"builtin": "torus", "field": 32003, "max_deg": 40}
S1_DIMS = [[1, 0, 0], [3, 4, 4], [5, 4, 4], [3, 4, 4], [1, 0, 0]]
PASS_4 = ("certificate kind: periodicity\n"
          "  replayed 4 syzygy steps with seed 0; verdict periodic confirmed\n"
          "PASS\n")


# the isomorphism of a simple at vertex 1: 27222 times the identity
S1_ISO = {"1": [[27222]], "2": [], "3": []}
# the isomorphism of S1 + OS2 + O^2S3 with its fourth syzygy
SUM3_ISO = {
    "1": [
        [23473, 16347, 29088, 30246, 15192, 16678, 11810, 16403, 4086],
        [21689, 29998, 8211, 18240, 3527, 17510, 26179, 7651, 14492],
        [1610, 18127, 15987, 19697, 24252, 30397, 11849, 21264, 19504],
        [19526, 28499, 1008, 20930, 30569, 591, 10593, 29748, 29527],
        [5723, 3182, 24334, 9794, 15140, 27218, 5553, 29307, 28926],
        [3662, 569, 5960, 19392, 23299, 1388, 25864, 14893, 13669],
        [9316, 6957, 13505, 13746, 10559, 1928, 24202, 455, 14851],
        [21946, 3727, 3042, 4541, 21240, 20783, 9255, 29031, 306],
        [27222, 8593, 20384, 10459, 16357, 15497, 13559, 18261, 20006],
    ],
    "2": [
        [2242, 21179, 12451, 28355, 29218, 12814, 13714],
        [23209, 25734, 7302, 30166, 16900, 26420, 11814],
        [17517, 17245, 19094, 6744, 29270, 11812, 17655],
        [19635, 23470, 10613, 25865, 7146, 28373, 1621],
        [3380, 6513, 1339, 12137, 22835, 30844, 8624],
        [361, 1130, 3812, 23310, 11017, 8049, 8633],
        [16159, 31336, 9430, 25662, 6569, 9596, 9851],
    ],
    "3": [
        [8158, 10356, 22609, 26450, 21067, 42, 3776, 10150, 30486],
        [2574, 20385, 31640, 24259, 25723, 10248, 16712, 25034, 13400],
        [19848, 7109, 216, 9399, 19264, 19318, 8976, 25098, 22189],
        [17879, 14287, 31130, 23358, 26279, 20976, 28279, 3791, 6488],
        [30788, 5689, 16639, 8847, 19800, 8867, 3911, 27853, 19963],
        [29773, 27299, 264, 3060, 841, 4849, 29085, 9919, 14917],
        [11470, 27999, 21458, 3845, 7396, 14188, 24481, 25298, 17710],
        [30457, 1311, 29980, 20687, 2407, 17786, 15402, 528, 5609],
        [26027, 20783, 29210, 16117, 19414, 20528, 31066, 23346, 20234],
    ],
}


def _cert(algebra, module, dim_chain, period=4, verdict="periodic",
          isomorphism=S1_ISO):
    return {"algebra": algebra, "dim_chain": dim_chain,
            "isomorphism": isomorphism, "kind": "periodicity",
            "module": module, "period": period, "seed": 0, "trials": 20,
            "verdict": verdict}


# (periodicity args, exit code, stdout, certificate, verify code and stdout)
CERT_GOLDEN = [
    (("--builtin", "torus", "--simple", "1"), 0,
     "simple(1): periodic [" + S1_CHAIN + "]\n" + RANK2,
     _cert(TORUS_SPEC, {"simple": "1"}, S1_DIMS), 0, PASS_4),
    (("--builtin", "kx2", "--simple", "1"), 0,
     "simple(1): periodic [" + KX2_CHAIN + "]\n" + RANK1,
     _cert(dict(TORUS_SPEC, builtin="kx2"), {"simple": "1"}, [[1]] * 5,
           isomorphism={"1": [[27222]]}),
     0, PASS_4),
    (("--builtin", "torus", "--simple", "3", "--period", "2"), 1,
     "simple(3): not_periodic [[0, 0, 1] -> [4, 4, 3] -> [4, 4, 5]]\n"
     + RANK2,
     _cert(TORUS_SPEC, {"simple": "3"}, [[0, 0, 1], [4, 4, 3], [4, 4, 5]],
           period=2, verdict="not_periodic", isomorphism={}),
     1, "certificate kind: periodicity\n"
        "  certificate does not claim periodicity\n"
        "FAIL\n"),
    (("--module", MODULE_FILE), 0,
     MODULE_FILE + ": periodic [" + S1_CHAIN + "]\n" + RANK2,
     _cert(TORUS_SPEC, {"dims": {"1": 1, "2": 0, "3": 0}, "matrices": {}},
           S1_DIMS), 0, PASS_4),
    (("--module", SUM3_FILE), 0,
     SUM3_FILE + ": periodic [" + SUM3_CHAIN + "]\n" + RANK2,
     _cert(TORUS_SPEC, {k: v for k, v in json.loads(
         (ROOT / SUM3_FILE).read_text()).items() if k != "algebra"},
           SUM3_DIMS, isomorphism=SUM3_ISO),
     0, PASS_4),
]


def _ids(cases):
    """A short id for each case, from its command line: the builtin or the
    module file's stem, then the options without their leading dashes."""
    return ["-".join(pathlib.PurePath(a).stem if a.endswith(".json")
                     else a.removeprefix("--")
                     for a in case[0] if a not in ("--builtin", "--module"))
            for case in cases]


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def in_root(monkeypatch):
    # module files are named relative to the repository root, and the
    # printed label is the path as given
    monkeypatch.chdir(ROOT)


@pytest.mark.parametrize("args,code,out", PERIODICITY_GOLDEN,
                         ids=_ids(PERIODICITY_GOLDEN))
def test_periodicity_golden(capsys, in_root, args, code, out):
    assert run(capsys, "periodicity", *args) == (code, out, "")


@pytest.mark.parametrize("args,out", SYZYGY_GOLDEN,
                         ids=_ids(SYZYGY_GOLDEN))
def test_syzygy_golden(capsys, in_root, args, out):
    assert run(capsys, "syzygy", *args) == (0, out, "")


@pytest.mark.parametrize("args,code,out,doc,vcode,vout", CERT_GOLDEN,
                         ids=_ids(CERT_GOLDEN))
def test_periodicity_certificate_golden(capsys, in_root, tmp_path, args,
                                        code, out, doc, vcode, vout):
    path = tmp_path / "cert.json"
    assert run(capsys, "periodicity", *args, "--out", str(path)) == (
        code, out, "")
    assert path.read_text() == json.dumps(doc, indent=2,
                                          sort_keys=True) + "\n"
    assert run(capsys, "verify", "--input", str(path)) == (vcode, vout, "")


def test_a_module_file_may_leave_out_zeros(capsys, in_root, tmp_path):
    # a vertex left out of dims has dimension 0, an arrow left out of
    # matrices acts as zero: the same run as the fixture, whose module
    # document the certificate stores as written
    doc = json.loads((ROOT / MODULE_FILE).read_text())
    short = tmp_path / "short.json"
    short.write_text(json.dumps({"algebra": doc["algebra"],
                                 "dims": {"1": 1}}))
    full_cert, short_cert = tmp_path / "full.json", tmp_path / "cert.json"
    full = run(capsys, "periodicity", "--module", MODULE_FILE,
               "--out", str(full_cert))
    assert run(capsys, "periodicity", "--module", str(short),
               "--out", str(short_cert)) == (
        0, full[1].replace(MODULE_FILE, str(short)), "")
    module = {"dims": {"1": 1}, "matrices": {}}
    assert json.loads(short_cert.read_text()) == dict(
        json.loads(full_cert.read_text()), module=module)
    assert short_cert.read_text() == json.dumps(
        _cert(TORUS_SPEC, module, S1_DIMS), indent=2, sort_keys=True) + "\n"
    assert run(capsys, "verify", "--input", str(short_cert)) == (
        0, PASS_4, "")


def test_verify_refuses_the_format_with_a_hom_dim_and_a_witness(
        capsys, tmp_path):
    # a torus simple 1 certificate as written before the isomorphism was
    # stored: the Hom dimension and the witnessing coefficients
    old = {"algebra": TORUS_SPEC, "dim_chain": S1_DIMS, "hom_dim": 1,
           "kind": "periodicity", "module": {"simple": "1"}, "period": 4,
           "seed": 0, "trials": 20, "verdict": "periodic",
           "witness": [27222]}
    path = tmp_path / "old.json"
    path.write_text(json.dumps(old, indent=2, sort_keys=True) + "\n")
    assert run(capsys, "verify", "--input", str(path)) == (
        2, "", "error: periodicity certificate has unknown field 'hom_dim'\n")


def test_verify_fails_a_singular_isomorphism(capsys, tmp_path):
    # the torus simple 1 certificate with its stored isomorphism, 27222
    # times the identity, set to 0
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(_cert(
        TORUS_SPEC, {"simple": "1"}, S1_DIMS,
        isomorphism=dict(S1_ISO, **{"1": [[0]]}))))
    assert run(capsys, "verify", "--input", str(path)) == (
        1, "certificate kind: periodicity\n"
           "  isomorphism is not invertible at vertex '1'\n"
           "FAIL\n", "")


def test_verify_fails_a_forged_period_without_walking_it(
        capsys, tmp_path, monkeypatch):
    # the certificate of a module file that leaves out zeros, its period
    # raised to 2000: the 5 stored dimension vectors are too few, and no
    # syzygy is computed to find that out
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(_cert(
        TORUS_SPEC, {"dims": {"1": 1}, "matrices": {}}, S1_DIMS,
        period=2000)))

    def no_syzygy(*args, **kwargs):
        raise AssertionError("the forged certificate was replayed")

    monkeypatch.setattr(homology, "syzygy", no_syzygy)
    assert run(capsys, "verify", "--input", str(path)) == (
        1, "certificate kind: periodicity\n"
           "  syzygy dimension chain differs\n"
           "FAIL\n", "")


BAD_OPTIONS = [
    (("--trials", "0"), 2, "error: trials must be >= 1\n"),
    (("--period", "0"), 2, "error: period must be >= 1\n"),
    (("--field", "4"), 2, "error: field modulus 4 is not prime\n"),
    (("--max-deg", "3"), 3,
     "error: no stabilization within degree 3 (max_deg reached); "
     "graded dims so far: [3, 6, 6, 6]\n"),
    (("--simple", "1", "--seed", "-1"), 2, "error: seed must be >= 0\n"),
]


@pytest.mark.parametrize("args,code,err", BAD_OPTIONS, ids=_ids(BAD_OPTIONS))
def test_periodicity_rejects_bad_options(capsys, args, code, err):
    assert run(capsys, "periodicity", "--builtin", "torus", *args) == (
        code, "", err)
