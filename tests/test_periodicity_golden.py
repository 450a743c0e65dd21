"""Exact outputs of `periodicity`, `syzygy` and `verify`, recorded before
periodicity, tube rank and `syzygy` came to share one syzygy chain per
module, and the exact refusals of bad `periodicity` options.  The genus2
row was recorded when its algebra first stabilized, once the quotient came
from a truncated standard basis.  The rows of the torus module file
S1 + OS2 + O^2S3 were recorded while Hom spaces were still solved on the
full system of intertwiner equations, before they were solved on the top
of the projective cover."""

import json
import pathlib

import pytest

from surfalg import cli

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


def _cert(algebra, module, dim_chain, period=4, verdict="periodic",
          hom_dim=1, witness=(27222,)):
    return {"algebra": algebra, "dim_chain": dim_chain, "hom_dim": hom_dim,
            "kind": "periodicity", "module": module, "period": period,
            "seed": 0, "trials": 20, "verdict": verdict,
            "witness": list(witness)}


# (periodicity args, exit code, stdout, certificate, verify code and stdout)
CERT_GOLDEN = [
    (("--builtin", "torus", "--simple", "1"), 0,
     "simple(1): periodic [" + S1_CHAIN + "]\n" + RANK2,
     _cert(TORUS_SPEC, {"simple": "1"}, S1_DIMS), 0, PASS_4),
    (("--builtin", "kx2", "--simple", "1"), 0,
     "simple(1): periodic [" + KX2_CHAIN + "]\n" + RANK1,
     _cert(dict(TORUS_SPEC, builtin="kx2"), {"simple": "1"}, [[1]] * 5),
     0, PASS_4),
    (("--builtin", "torus", "--simple", "3", "--period", "2"), 1,
     "simple(3): not_periodic [[0, 0, 1] -> [4, 4, 3] -> [4, 4, 5]]\n"
     + RANK2,
     _cert(TORUS_SPEC, {"simple": "3"}, [[0, 0, 1], [4, 4, 3], [4, 4, 5]],
           period=2, verdict="not_periodic", hom_dim=0, witness=()),
     1, "certificate kind: periodicity\n"
        "  replayed 2 syzygy steps with seed 0; verdict not_periodic "
        "confirmed\n"
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
           SUM3_DIMS, hom_dim=17,
           witness=(27222, 20384, 16357, 8633, 9851, 1311, 2407, 528, 5609,
                    26027, 20783, 29210, 16117, 19414, 31066, 23346, 20234)),
     0, PASS_4),
]


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def in_root(monkeypatch):
    # module files are named relative to the repository root, and the
    # printed label is the path as given
    monkeypatch.chdir(ROOT)


@pytest.mark.parametrize("args,code,out", PERIODICITY_GOLDEN)
def test_periodicity_golden(capsys, in_root, args, code, out):
    assert run(capsys, "periodicity", *args) == (code, out, "")


@pytest.mark.parametrize("args,out", SYZYGY_GOLDEN)
def test_syzygy_golden(capsys, in_root, args, out):
    assert run(capsys, "syzygy", *args) == (0, out, "")


@pytest.mark.parametrize("args,code,out,doc,vcode,vout", CERT_GOLDEN)
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


@pytest.mark.parametrize("args,code,err", [
    (("--trials", "0"), 2, "error: trials must be >= 1\n"),
    (("--period", "0"), 2, "error: period must be >= 1\n"),
    (("--field", "4"), 2, "error: field modulus 4 is not prime\n"),
    (("--max-deg", "3"), 3,
     "error: no stabilization within degree 3 (max_deg reached); "
     "graded dims so far: [3, 6, 6, 6]\n"),
])
def test_periodicity_rejects_bad_options(capsys, args, code, err):
    assert run(capsys, "periodicity", "--builtin", "torus", *args) == (
        code, "", err)
