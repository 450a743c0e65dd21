"""Exact outputs of scripts/growth_survey.py, text and --json."""

import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]

TABLE_HEAD = "  length  count  count^(1/length)\n"

SURVEY_TEXT = (
    "sphere5 (sphere5), bands up to length 6\n" + TABLE_HEAD
    + "       1      0  -\n"
    "       2      0  -\n"
    "       3      2  1.2599\n"
    "       4      0  -\n"
    "       5      4  1.3195\n"
    "       6      3  1.2009\n"
    "  total 9, max rate 1.3195 at length 5\n"
    "\n"
    "torus (string-quotient(torus)), bands up to length 6\n" + TABLE_HEAD
    + "       1      0  -\n"
    "       2      6  2.4495\n"
    "       3      0  -\n"
    "       4      6  1.5651\n"
    "       5      0  -\n"
    "       6     20  1.6475\n"
    "  total 32, max rate 2.4495 at length 2\n"
    "\n"
    "genus2 (string-quotient(genus2)), bands up to length 6\n" + TABLE_HEAD
    + "       1      0  -\n"
    "       2      4  2.0000\n"
    "       3      8  2.0000\n"
    "       4      0  -\n"
    "       5      8  1.5157\n"
    "       6      4  1.2599\n"
    "  total 24, max rate 2.0000 at length 2\n"
    "\n"
)

SURVEY_JSON = {
    "genus2": {
        "counts": {"1": 0, "2": 4, "3": 8, "4": 0, "5": 8},
        "max_rate": 2.0,
        "argmax_length": 2,
        "total": 20,
    },
    "sphere5": {
        "counts": {"1": 0, "2": 0, "3": 2, "4": 0, "5": 4},
        "max_rate": 1.3195079107728942,
        "argmax_length": 5,
        "total": 6,
    },
}


def _survey(capsys, *argv):
    spec = importlib.util.spec_from_file_location(
        "growth_survey", ROOT / "scripts" / "growth_survey.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    code = mod.main(list(argv))
    got = capsys.readouterr()
    return code, got.out, got.err


def test_growth_survey_text(capsys):
    assert _survey(capsys, "--max-len", "6") == (0, SURVEY_TEXT, "")


def test_growth_survey_json(capsys):
    code, out, err = _survey(capsys, "--max-len", "5", "--json",
                             "--presentations", "genus2", "sphere5")
    assert (code, err) == (0, "")
    assert out == json.dumps(SURVEY_JSON, indent=2) + "\n"
