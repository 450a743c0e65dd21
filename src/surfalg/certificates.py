"""Machine-checkable certificates and their JSON round trip.

Two kinds of certificate:

  free-composability: two band words over a presentation, a pattern depth,
  the four block-junction records and the list of composition patterns
  that were verified to be bands.  Replaying rebuilds the presentation from
  its spec, counts the patterns up to the depth (a count unlike the stored
  list's fails at once), recomputes the junctions and re-checks every
  composition up to the depth; no band enumeration is involved.  The
  stored junction records, max_forbidden, necklace list with its band
  flags and scope must all equal what the replay finds.

  periodicity: an algebra spec, a module spec, a syzygy period, the seed
  and trial count of the producing check, and the isomorphism it found,
  f_v: M_v -> (O^period M)_v at every vertex v.  Verifying rebuilds the
  algebra and the module, fails a stored dimension chain whose length is
  not period + 1 before any syzygy, and fails a verdict other than
  periodic at once.  It then rebuilds the syzygy chain, compares its
  dimensions, and checks the stored maps: each f_v invertible, and
  M_x f_t = f_s N_x for every arrow x: s -> t, where N = O^period M.  It
  solves no Hom space and draws no trials, so its verdict does not depend
  on the seed.  The matrices are read with the module reader's shape and
  range checks.

Every source the program reads -- a builtin name, a triangulation
document, kx2 or sphere5 -- is resolved here, by the spec readers
triangulation_from_spec, quotient_from_spec, quiver_from_spec and
algebra_from_spec; the command line builds its objects through them too.

Every document is read through its field table below, by the one
reader surface.read_fields: a missing, unknown or mistyped field is
rejected by name.
"""

import json
from typing import NamedTuple

import numpy as np

from . import fixtures, qp, strings, algebra, homology, linalg
from .surface import Optional, read_fields, triangulation_from_json

__all__ = [
    "GrowthCertificate",
    "PeriodicityCertificate",
    "VerificationResult",
    "source_label",
    "triangulation_from_spec",
    "presentation_spec",
    "quotient_from_spec",
    "quiver_from_spec",
    "algebra_from_spec",
    "module_from_spec",
    "module_file_specs",
    "make_growth_certificate",
    "make_periodicity_certificate",
    "certificate_to_json",
    "certificate_from_json",
    "verify_certificate",
]


# The field tables of the specs and the module file (each certificate
# record holds its own table, FIELDS).  A spec embedded in a certificate or
# a module file is an object there, read by its own table when it is used.
_PRESENTATION_SPEC = {"source": str, "builtin": Optional(str),
                      "triangulation": Optional(dict)}
_ALGEBRA_SPEC = {"builtin": Optional(str), "triangulation": Optional(dict),
                 "field": Optional(int), "max_deg": Optional(int),
                 "path_budget": Optional(int)}
_MATRICES = {str: [[int]]}
_MODULE_SPEC = {"simple": Optional(str), "dims": Optional({str: int}),
                "matrices": Optional(_MATRICES)}
_MODULE_FILE = {"algebra": dict, "dims": {str: int},
                "matrices": Optional(_MATRICES)}


def source_label(spec):
    """Name of a source in reports: the builtin's, or "custom" for a document."""
    return spec.get("builtin", "custom")


def triangulation_from_spec(spec, where="source spec"):
    """The triangulation of {"builtin": name} or {"triangulation": document}.

    It is not validated here: qp.arrow_maps validates every triangulation
    that reaches a quiver, once.
    """
    if ("builtin" in spec) == ("triangulation" in spec):
        raise ValueError(
            "%s needs exactly one of 'builtin' or 'triangulation'" % where)
    if "builtin" in spec:
        return fixtures.builtin_triangulation(spec["builtin"])
    return triangulation_from_json(spec["triangulation"])


def presentation_spec(source):
    """Presentation spec of a source spec: the shipped sphere5 presentation
    for the builtin sphere5, the string quotient of any other triangulation."""
    if source == {"builtin": "sphere5"}:
        return {"source": "sphere5"}
    return dict(source, source="string-quotient")


def quotient_from_spec(spec):
    """Word presentation of a presentation spec, with its arrow maps.

    The maps are None for sphere5, whose presentation is shipped as data.
    """
    read_fields(spec, "presentation spec", _PRESENTATION_SPEC)
    source = spec["source"]
    if source == "sphere5":
        if "builtin" in spec or "triangulation" in spec:
            raise ValueError(
                "presentation spec for sphere5 takes no surface fields")
        return strings.sphere5_presentation(), None
    if source == "string-quotient":
        maps = qp.arrow_maps(
            triangulation_from_spec(spec, "presentation spec"))
        name = "string-quotient(%s)" % source_label(spec)
        return strings.string_quotient(maps, name=name), maps
    raise ValueError("unknown presentation source %r" % (source,))


def quiver_from_spec(spec):
    """The (quiver, relations) of an algebra spec, before any elimination.

    Besides triangulation sources, the builtin "kx2" gives the one-vertex
    algebra k[x]/(x^2), a minimal self-injective reference point.
    """
    read_fields(spec, "algebra spec", _ALGEBRA_SPEC)
    if spec.get("builtin") == "kx2":
        if "triangulation" in spec:
            raise ValueError(
                "algebra spec needs exactly one of 'builtin' or "
                "'triangulation'")
        return fixtures.kx2_algebra_data()
    maps = qp.arrow_maps(triangulation_from_spec(spec, "algebra spec"))
    return maps.quiver, qp.jacobian_relations(qp.build_potential(maps))


def algebra_from_spec(spec):
    """Rebuild the finite-dimensional algebra from its serializable spec."""
    q, rels = quiver_from_spec(spec)
    return algebra.compute_basis(
        q, rels, p=spec.get("field", linalg.DEFAULT_PRIME),
        max_deg=spec.get("max_deg", algebra.DEFAULT_MAX_DEG),
        path_budget=spec.get("path_budget", algebra.DEFAULT_PATH_BUDGET))


def _matrix(rows, shape, p, name):
    """The matrix of a document's rows (read as [[int]]), refused with a
    ValueError led by name unless its rows have one length, it has the
    expected shape and its entries lie in 0..p-1; [] is the matrix with
    no rows."""
    if len(set(map(len, rows))) > 1:
        raise ValueError("%s has rows of different lengths" % name)
    got = np.shape(rows)
    if got == (0,) and shape[0] == 0:
        got = shape  # [] is the matrix with no rows
    if got != shape:
        raise ValueError("%s has shape %s, expected %s" % (name, got, shape))
    if any(not 0 <= e < p for row in rows for e in row):
        raise ValueError("%s has entries outside 0..%d" % (name, p - 1))
    return np.array(rows, dtype=np.int64).reshape(shape)


def module_from_spec(a, spec):
    """Build and validate a module over a from its serializable spec: the
    total module (see homology) in which a vertex left out of dims has
    dimension 0 and an arrow left out of matrices acts as zero."""
    spec = read_fields(spec, "module spec", _MODULE_SPEC)
    if "simple" in spec:
        if "dims" in spec or "matrices" in spec:
            raise ValueError(
                "module spec mixes 'simple' with explicit data")
        return homology.simple_module(a, spec["simple"])
    if "dims" not in spec:
        raise ValueError("module spec is missing field 'dims'")
    given, rows = spec["dims"], spec.get("matrices", {})
    negative = sorted(v for v, d in given.items() if d < 0)
    if negative:
        raise ValueError(
            "module dims for %r must be a nonnegative int" % negative[0])
    dims = {v: given.get(v, 0) for v in a.vertices}
    shapes = {x.id: (dims[x.source], dims[x.target]) for x in a.arrows}
    unknown = ["dims mentions unknown vertex %r" % (v,)
               for v in given if v not in dims]
    unknown += ["matrices mention unknown arrow %r" % (aid,)
                for aid in rows if aid not in shapes]
    if unknown:
        raise ValueError("invalid module: %s" % unknown[0])
    mats = {aid: _matrix(rows[aid], shapes[aid], a.field,
                         "invalid module: matrix for %s" % aid)
            for aid in sorted(rows)}
    try:
        m = homology.FDModule(dims, {
            aid: (mats[aid] if aid in rows
                  else np.zeros(want, dtype=np.int64))
            for aid, want in shapes.items()})
        problems = homology.validate_module(a, m)
    except linalg._InexactField:
        raise  # the field is too large, not the dims
    except (MemoryError, ValueError):
        # numpy cannot allocate a zero matrix or the identity at a vertex
        # that validate_module starts its path action from, or refuses a
        # dimension beyond its maximum
        big = max(given, key=given.get)
        raise ValueError("module dims for %r are too large to allocate: %d"
                         % (big, given[big]))
    if problems:
        raise ValueError("invalid module: %s" % problems[0])
    return m


def module_file_specs(text):
    """The (algebra spec, module spec) pair of a module file's JSON text:
    an algebra spec, dims and optional matrices (missing ones are zero)."""
    doc = json.loads(text)
    read_fields(doc, "module file", _MODULE_FILE)
    return doc["algebra"], {"dims": doc["dims"],
                            "matrices": doc.get("matrices", {})}


# What a free-composability certificate does and does not establish.
GROWTH_SCOPE = (
    "exponential band growth is certified for the word presentation named "
    "in this document; every algebra having that presentation as a quotient "
    "inherits the growth")


# The field tables of both certificate kinds, with their nested records.
_JUNCTION = {"blocks": str, "last": str, "first": str, "violations": [str],
             "seam_factors": [str]}
_NECKLACE = {"symbols": str, "length": int, "band": bool}


class GrowthCertificate(NamedTuple):
    presentation: dict
    word1: str
    word2: str
    basepoint: str
    depth: int
    max_forbidden: int
    junctions: tuple
    necklaces: tuple  # (symbols, length, band) triples
    scope: str = GROWTH_SCOPE

    KIND = "free-composability"
    FIELDS = {"kind": str, "presentation": dict, "word1": str, "word2": str,
              "basepoint": str, "depth": int, "max_forbidden": int,
              "junctions": [_JUNCTION], "necklaces": [_NECKLACE],
              "scope": Optional(str)}


class PeriodicityCertificate(NamedTuple):
    algebra: dict
    module: dict
    period: int
    trials: int
    seed: int
    verdict: str
    dim_chain: tuple
    isomorphism: dict  # vertex -> rows of f_v: M_v -> (O^period M)_v

    KIND = "periodicity"
    FIELDS = {"kind": str, "algebra": dict, "module": dict, "period": int,
              "trials": int, "seed": int, "verdict": str,
              "dim_chain": [[int]], "isomorphism": _MATRICES}


_CERTIFICATES = {cls.KIND: cls
                 for cls in (GrowthCertificate, PeriodicityCertificate)}


class VerificationResult(NamedTuple):
    ok: bool
    kind: str
    messages: tuple


def make_growth_certificate(pres_spec, p, w1, w2, depth=6):
    """Run the free-composability check and wrap the outcome.

    Returns a GrowthCertificate on success, or the CounterExample itself.
    """
    fc = strings.free_composability(p, w1, w2, depth=depth)
    if isinstance(fc, strings.CounterExample):
        return fc
    return GrowthCertificate(
        presentation=dict(pres_spec),
        word1=strings.format_word(fc.word1),
        word2=strings.format_word(fc.word2),
        basepoint=fc.basepoint,
        depth=fc.depth,
        max_forbidden=fc.max_forbidden,
        junctions=fc.junctions,
        necklaces=fc.necklaces,
    )


def make_periodicity_certificate(alg_spec, mod_spec, res):
    """Wrap a check_periodicity result (any verdict) with its specs and,
    for an isomorphism found on a trial, its matrices."""
    found = (res.iso and res.iso.isomorphism) or {}
    return PeriodicityCertificate(
        algebra=dict(alg_spec),
        module=dict(mod_spec),
        period=res.period,
        trials=res.trials,
        seed=res.seed,
        verdict=res.verdict,
        dim_chain=res.dim_chain,
        isomorphism={v: f.tolist() for v, f in found.items()},
    )


def certificate_to_json(cert):
    doc = dict(cert._asdict(), kind=cert.KIND)
    if isinstance(cert, GrowthCertificate):
        doc["necklaces"] = [dict(zip(_NECKLACE, n)) for n in cert.necklaces]
    return json.dumps(doc, indent=2, sort_keys=True)


def certificate_from_json(text):
    doc = json.loads(text)
    kind = read_fields(doc, "certificate", {"kind": str}, rest=True)["kind"]
    if kind not in _CERTIFICATES:
        raise ValueError("certificate field 'kind' must be %s, not %s" % (
            " or ".join(map(json.dumps, _CERTIFICATES)), json.dumps(kind)))
    cls = _CERTIFICATES[kind]
    fields = read_fields(doc, "%s certificate" % kind, cls.FIELDS)
    del fields["kind"]
    if cls is GrowthCertificate:  # records, read in _NECKLACE's order
        fields["necklaces"] = tuple(tuple(n.values())
                                    for n in fields["necklaces"])
    return cls(**fields)


def _pattern_count(depth, bound):
    """The number of binary Lyndon words of lengths 1..depth, the patterns
    that free_composability replays, counted one length at a time and only
    until the total passes bound."""
    powers, total = [], 0
    for d in range(1, depth + 1):
        powers.append(2 ** d)
        total += strings._primitive_part(powers, d) // d
        if total > bound:
            break
    return total


def _verify_growth(cert):
    messages = []
    pres = quotient_from_spec(cert.presentation)[0]
    w1 = strings.parse_word(cert.word1)
    w2 = strings.parse_word(cert.word2)
    want = {(s, n) for s, n, _ in cert.necklaces}
    # the replay lists each pattern once: a list of another length, a
    # repeated entry included, fails
    count = len(cert.necklaces)
    if cert.depth >= 2 and _pattern_count(cert.depth, count) != count:
        return VerificationResult(False, cert.KIND, ("necklace lists differ",))
    fc = strings.free_composability(pres, w1, w2, depth=cert.depth)
    if isinstance(fc, strings.CounterExample):
        messages.append(
            "replay found a counterexample at pattern %s: %s"
            % (fc.symbols, fc.reason))
        return VerificationResult(False, cert.KIND, tuple(messages))
    ok = True
    if strings.format_word(fc.word1) != cert.word1 or \
            strings.format_word(fc.word2) != cert.word2:
        ok = False
        messages.append("replayed rotations differ from the stored words")
    if fc.basepoint != cert.basepoint:
        ok = False
        messages.append(
            "basepoint mismatch: %s vs %s" % (fc.basepoint, cert.basepoint))
    got = {(s, n) for s, n, _ in fc.necklaces}
    if got != want:
        ok = False
        messages.append("necklace lists differ")
    else:
        messages.append(
            "replayed %d composition patterns to depth %d; all are bands"
            % (len(fc.necklaces), cert.depth))
    unmarked = [s for s, _, band in cert.necklaces if band is not True]
    if unmarked:
        ok = False
        messages.append("necklace %s is not recorded as a band" % unmarked[0])
    if fc.max_forbidden != cert.max_forbidden:
        ok = False
        messages.append(
            "max_forbidden mismatch: replay says %d, certificate says %r"
            % (fc.max_forbidden, cert.max_forbidden))
    if len(fc.junctions) != len(cert.junctions):
        ok = False
        messages.append(
            "certificate stores %d junction records, replay has %d"
            % (len(cert.junctions), len(fc.junctions)))
    else:
        for got, want in zip(fc.junctions, cert.junctions):
            differ = [k for k in _JUNCTION if got[k] != want[k]]
            if differ:
                ok = False
                messages.append(
                    "junction %s differs from the replay in %s"
                    % (got["blocks"], ", ".join(differ)))
    if cert.scope != GROWTH_SCOPE:
        ok = False
        messages.append("scope differs from the certified claim")
    return VerificationResult(ok, cert.KIND, tuple(messages))


def _verify_periodicity(cert):
    """Check the stored isomorphism f: M -> N = O^period M on the rebuilt
    syzygy chain: every f_v is invertible and M_x f_t = f_s N_x for every
    arrow x: s -> t.  No Hom space is solved and no trial drawn."""
    a = algebra_from_spec(cert.algebra)
    m = module_from_spec(a, cert.module)
    # every written chain holds the module and its first period syzygies;
    # any other length fails here, before a forged period is walked
    if len(cert.dim_chain) != cert.period + 1:
        return VerificationResult(
            False, cert.KIND, ("syzygy dimension chain differs",))
    homology.check_arguments(period=cert.period, trials=cert.trials,
                             seed=cert.seed)
    if cert.verdict != "periodic":
        return VerificationResult(
            False, cert.KIND, ("certificate does not claim periodicity",))
    chain = homology.syzygy_chain(a, m, cert.period)
    if tuple(x.dim_vector(a.vertices) for x in chain) != \
            tuple(map(tuple, cert.dim_chain)):
        return VerificationResult(
            False, cert.KIND, ("syzygy dimension chain differs",))
    n, p = chain[-1], a.field
    unknown = sorted(cert.isomorphism.keys() - set(a.vertices))
    missing = [v for v in a.vertices if v not in cert.isomorphism]
    if unknown or missing:
        raise ValueError("invalid isomorphism: %s vertex %r" % (
            ("unknown", unknown[0]) if unknown else ("missing", missing[0])))
    f = {v: _matrix(cert.isomorphism[v], (m.dims[v], n.dims[v]), p,
                    "invalid isomorphism: matrix for vertex %r" % (v,))
         for v in a.vertices}
    messages = []
    for v in a.vertices:
        if not linalg.is_invertible(f[v], p):
            messages.append("isomorphism is not invertible at vertex %r"
                            % (v,))
    for x in a.arrows:
        if not np.array_equal(linalg.matmul(m.mats[x.id], f[x.target], p),
                              linalg.matmul(f[x.source], n.mats[x.id], p)):
            messages.append("isomorphism does not commute with arrow %s"
                            % x.id)
    if messages:
        return VerificationResult(False, cert.KIND, tuple(messages))
    return VerificationResult(True, cert.KIND, (
        "replayed %d syzygy steps with seed %d; verdict periodic confirmed"
        % (cert.period, cert.seed),))


def verify_certificate(cert):
    """Replay a certificate from scratch; returns a VerificationResult."""
    if isinstance(cert, str):
        cert = certificate_from_json(cert)
    if isinstance(cert, GrowthCertificate):
        return _verify_growth(cert)
    if isinstance(cert, PeriodicityCertificate):
        return _verify_periodicity(cert)
    raise ValueError("not a certificate: %r" % (cert,))
