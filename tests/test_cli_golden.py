"""Exact exit code, stdout, `--out` file and `verify` replay of every
subcommand over each kind of source: builtins, the builtins' documents as
--input files, a module file, kx2, sphere5, tetra, both or neither of
--builtin/--input, a missing file and an invalid triangulation.  The
outputs in cli_golden.json were recorded before all commands came to read
their sources through the spec readers of `certificates`; since then
`periodicity`, like every other command, refuses --builtin together with
--input (exit 2).  Stderr is not pinned here."""

import contextlib
import io
import json
import pathlib
import shutil

import pytest

from surfalg import cli, fixtures

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = pathlib.Path(__file__).with_name("cli_golden.json")
BUILTINS = pathlib.Path(fixtures.__file__).with_name("builtins")

# One command line per case, split on spaces, run in a fresh directory
# whose fixtures/ holds the four builtin documents of the package and the
# module file torus_simple1.json.  {out} is a fresh output file, {bad} the
# torus document with one of its two triangles removed, {missing} a path
# that does not exist.  A certificate written to {out} is replayed with
# `verify`.
CASES = [
    "build --builtin torus",
    "build --builtin sphere5",
    "build --builtin tetra",
    "build --input fixtures/genus2.json --format json",
    "build --input fixtures/torus.json --format dot --out {out}",
    "build --input {bad}",
    "build --input {missing}",
    "build --builtin torus --input fixtures/torus.json",
    "build",
    "algebra --builtin torus",
    "algebra --input fixtures/torus.json --format json",
    "algebra --input fixtures/torus.json --field 5 --out {out}",
    "algebra --builtin kx2",
    "algebra --builtin kx2 --format json",
    "algebra --builtin kx2 --input fixtures/torus.json",
    "algebra --builtin genus2 --max-deg 4",
    "algebra --builtin tetra --max-deg 4 --format json",
    "algebra --builtin sphere5",
    "algebra --input {bad}",
    "algebra --input {missing}",
    "algebra",
    "bands --builtin sphere5 --max-len 8 --words",
    "bands --builtin torus --max-len 6 --format json",
    "bands --input fixtures/genus2.json --max-len 5",
    "bands --builtin tetra --max-len 5 --words",
    "bands --input fixtures/sphere5.json --max-len 4",
    "bands --builtin sphere5 --input fixtures/torus.json --max-len 4",
    "bands --input {bad} --max-len 4",
    "bands --max-len 4",
    # counted by transfer matrix; the outputs were recorded by the enumerator
    "bands --builtin torus --max-len 20 --format json",
    "bands --builtin sphere5 --max-len 20",
    "bands --builtin genus2 --max-len 14",
    # listed from the closed walks of the counts' context graph; the
    # outputs were recorded before enumerate_bands came to walk that graph
    "bands --builtin torus --max-len 10 --words --format json",
    "bands --builtin genus2 --max-len 9 --words",
    "certify-growth --builtin sphere5 --depth 3 --max-len 6 --out {out}",
    "certify-growth --input fixtures/torus.json --depth 3 --max-len 6 "
    "--out {out}",
    "certify-growth --builtin genus2 --arrow x3_1 --depth 2 --max-len 3 "
    "--out {out}",
    "certify-growth --builtin sphere5 --word1 a1.a2'.a3 --word2 a1.a2'.a3",
    # junction 12 is not clean, so every pattern gets the full band check
    "certify-growth --builtin sphere5 --word1 a1.a2'.a3 "
    "--word2 a1'.b3.eps3*.c3.a2 --depth 4",
    # the benchmark's deep replays: composed words of up to 204 letters
    "certify-growth --builtin sphere5 --depth 9 --out {out}",
    "certify-growth --builtin genus2 --arrow x0_0 --max-len 10 --out {out}",
    "certify-growth --builtin torus --arrow nope",
    "certify-growth --builtin tetra",
    "certify-growth --input fixtures/tetra.json",
    "certify-growth --input {bad}",
    "certify-growth --builtin torus --input fixtures/torus.json",
    "certify-growth",
    "xi --builtin torus",
    "xi --input fixtures/genus2.json --all",
    "xi --builtin tetra",
    "xi --builtin sphere5",
    "xi --builtin torus --arrow nope",
    "xi --input {bad}",
    "xi --builtin torus --input fixtures/torus.json",
    "xi",
    "periodicity --builtin kx2 --simple 1 --out {out}",
    "periodicity --input fixtures/torus.json --simple 1 --out {out}",
    "periodicity --input fixtures/torus.json --simple 2 --period 2 "
    "--out {out}",
    "periodicity --module fixtures/torus_simple1.json --out {out}",
    "periodicity --builtin tetra --max-deg 4",
    "periodicity --builtin sphere5",
    "periodicity --input {bad}",
    "periodicity --input {missing}",
    "periodicity --builtin kx2 --input fixtures/torus.json --simple 3",
    "periodicity",
    "syzygy --builtin kx2 --steps 3",
    "syzygy --input fixtures/torus.json --simple 2",
    "syzygy --input {bad}",
    "syzygy",
    "verify --input {missing}",
]

# The id of a case is its argv line, or here a short one where the line
# would take the collected test id past 100 characters; pytest names a
# case by its argv line when SHORT_IDS.get returns None.
SHORT_IDS = {
    "build --input fixtures/torus.json --format dot --out {out}":
        "build-torus-file-dot-out",
    "bands --builtin sphere5 --input fixtures/torus.json --max-len 4":
        "bands-builtin-and-input",
    "certify-growth --builtin sphere5 --depth 3 --max-len 6 --out {out}":
        "certify-sphere5-depth-3-out",
    "certify-growth --input fixtures/torus.json --depth 3 --max-len 6 "
    "--out {out}": "certify-torus-file-depth-3-out",
    "certify-growth --builtin genus2 --arrow x3_1 --depth 2 --max-len 3 "
    "--out {out}": "certify-genus2-x3_1-depth-2-out",
    "certify-growth --builtin sphere5 --word1 a1.a2'.a3 --word2 a1.a2'.a3":
        "certify-sphere5-equal-words",
    "certify-growth --builtin sphere5 --word1 a1.a2'.a3 "
    "--word2 a1'.b3.eps3*.c3.a2 --depth 4": "certify-sphere5-two-words",
    "certify-growth --builtin genus2 --arrow x0_0 --max-len 10 --out {out}":
        "certify-genus2-x0_0-out",
    "certify-growth --builtin torus --input fixtures/torus.json":
        "certify-builtin-and-input",
    "periodicity --input fixtures/torus.json --simple 1 --out {out}":
        "periodicity-torus-file-simple-1-out",
    "periodicity --input fixtures/torus.json --simple 2 --period 2 "
    "--out {out}": "periodicity-torus-file-simple-2-period-2-out",
    "periodicity --module fixtures/torus_simple1.json --out {out}":
        "periodicity-module-out",
    "periodicity --builtin kx2 --input fixtures/torus.json --simple 3":
        "periodicity-builtin-and-input",
}

CERTIFYING = ("certify-growth", "periodicity")


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def run_case(case, tmp):
    """Run one case in tmp, the cwd, whose fixtures/ it fills first."""
    (tmp / "fixtures").mkdir()
    for name in fixtures.BUILTIN_NAMES:
        shutil.copy(BUILTINS / ("%s.json" % name), tmp / "fixtures")
    shutil.copy(ROOT / "fixtures" / "torus_simple1.json", tmp / "fixtures")
    doc = json.loads(pathlib.Path("fixtures/torus.json").read_text())
    doc["triangles"] = doc["triangles"][:1]
    bad = tmp / "bad.json"
    bad.write_text(json.dumps(doc))
    out = tmp / "out.txt"
    argv = [a.format(out=out, bad=bad, missing=tmp / "missing.json")
            for a in case.split()]
    code, stdout = _run(argv)
    got = {"code": code, "stdout": stdout}
    if out.exists():
        got["out"] = out.read_text()
        if argv[0] in CERTIFYING:
            got["verify"] = _run(["verify", "--input", str(out)])
    return got


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


def test_case_ids_are_short_and_unique():
    assert set(SHORT_IDS) <= set(CASES)
    ids = [SHORT_IDS.get(case, case) for case in CASES]
    assert len(set(ids)) == len(ids)
    assert max(len("tests/test_cli_golden.py::test_cli_golden[%s]" % i)
               for i in ids) <= 100


@pytest.mark.parametrize("case", CASES, ids=SHORT_IDS.get)
def test_cli_golden(monkeypatch, tmp_path, golden, case):
    monkeypatch.chdir(tmp_path)
    want = dict(golden[case])
    if "verify" in want:
        want["verify"] = tuple(want["verify"])
    assert run_case(case, tmp_path) == want
