import json

import pytest

from surfalg import certificates, strings
from surfalg.homology import check_periodicity
from surfalg.certificates import (
    algebra_from_spec,
    certificate_from_json,
    certificate_to_json,
    make_growth_certificate,
    make_periodicity_certificate,
    module_from_spec,
    quotient_from_spec,
    verify_certificate,
)

ALPHA = "a1.a2'.a3"
BETA = "a1.b2.eps2*.c2.c3'.eps3*.b3'"


def _growth_cert():
    spec = {"source": "sphere5"}
    pres = quotient_from_spec(spec)[0]
    return make_growth_certificate(
        spec, pres, strings.parse_word(ALPHA), strings.parse_word(BETA),
        depth=5)


def _periodicity_cert():
    aspec = {"builtin": "torus", "field": 32003, "max_deg": 40}
    a = algebra_from_spec(aspec)
    mspec = {"simple": "1"}
    m = module_from_spec(a, mspec)
    res = check_periodicity(a, m, period=4, trials=10, seed=0)
    return a, make_periodicity_certificate(aspec, mspec, res)


@pytest.mark.parametrize("depth", range(2, 10))
def test_pattern_count_matches_the_replayed_patterns(depth):
    n = len(strings._lyndon_words("12", depth))
    assert certificates._pattern_count(depth, n) == n
    # the count stops at the first length that passes the bound: after
    # the two patterns of length 1 and the one of length 2
    assert certificates._pattern_count(depth, 2) == 3


def test_presentation_from_spec_sphere5():
    p, maps = quotient_from_spec({"source": "sphere5"})
    assert p.name == "sphere5" and maps is None
    with pytest.raises(ValueError, match="no surface fields"):
        quotient_from_spec({"source": "sphere5", "builtin": "torus"})


def test_presentation_from_spec_quotient():
    p, maps = quotient_from_spec(
        {"source": "string-quotient", "builtin": "torus"})
    assert len(p.forbidden) == 6 and maps is not None
    with pytest.raises(ValueError):
        quotient_from_spec({"source": "unknown-kind"})


def test_algebra_from_spec_fields():
    a = algebra_from_spec({"builtin": "torus"})
    assert a.dim == 36
    with pytest.raises(ValueError, match="oops"):
        algebra_from_spec({"builtin": "torus", "oops": 1})


@pytest.mark.parametrize("builtin", ["torus", "kx2"])
@pytest.mark.parametrize("field,value", [
    ("max_deg", 0), ("max_deg", -1), ("path_budget", 0), ("path_budget", -5),
])
def test_algebra_from_spec_rejects_nonpositive_bounds(builtin, field, value):
    with pytest.raises(ValueError, match="%s must be >= 1" % field):
        algebra_from_spec({"builtin": builtin, field: value})


def test_module_from_spec_requires_one_source():
    a = algebra_from_spec({"builtin": "torus"})
    with pytest.raises(ValueError):
        module_from_spec(a, {})
    with pytest.raises(ValueError):
        module_from_spec(a, {"simple": "1", "dims": {"1": 1}})
    m = module_from_spec(a, {"dims": {"1": 1, "2": 0, "3": 0}})
    assert m.total_dim == 1


def test_module_from_spec_validates():
    a = algebra_from_spec({"builtin": "torus"})
    with pytest.raises(ValueError, match="invalid module"):
        module_from_spec(
            a, {"dims": {"1": 1, "2": 1, "3": 0},
                "matrices": {"x0_0": [[7, 7]]}})


def test_growth_certificate_round_trip():
    cert = _growth_cert()
    js = certificate_to_json(cert)
    back = certificate_from_json(js)
    assert back.word1 == cert.word1
    assert back.necklaces == cert.necklaces
    res = verify_certificate(back)
    assert res.ok
    assert res.kind == "free-composability"


def test_growth_certificate_tamper_detection():
    cert = _growth_cert()
    doc = json.loads(certificate_to_json(cert))
    doc["basepoint"] = "2"
    res = verify_certificate(json.dumps(doc))
    assert not res.ok
    doc = json.loads(certificate_to_json(cert))
    doc["word2"] = ALPHA  # same word twice is not freely composable
    res = verify_certificate(json.dumps(doc))
    assert not res.ok


def test_growth_certificate_unknown_field():
    cert = _growth_cert()
    doc = json.loads(certificate_to_json(cert))
    doc["surprise"] = True
    with pytest.raises(ValueError, match="surprise"):
        certificate_from_json(json.dumps(doc))


def test_periodicity_certificate_round_trip():
    _, cert = _periodicity_cert()
    assert cert.verdict == "periodic"
    js = certificate_to_json(cert)
    res = verify_certificate(js)
    assert res.ok
    assert res.kind == "periodicity"


def test_periodicity_certificate_tamper_detection():
    _, cert = _periodicity_cert()
    doc = json.loads(certificate_to_json(cert))
    doc["dim_chain"][1] = [9, 9, 9]
    res = verify_certificate(json.dumps(doc))
    assert not res.ok


def test_certificate_kind_dispatch():
    with pytest.raises(ValueError, match="kind"):
        certificate_from_json(json.dumps({"kind": "nonsense"}))
