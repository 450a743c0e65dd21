"""Relabelling-invariant reading of command outputs.

`invariants` turns one command's exit code and standard output into a
JSON-able record that does not depend on how the input was labelled:
vertex-indexed vectors are re-keyed by the original arc ids through the
relabelling map, and labels that carry a file path are dropped.  The
benchmark compares these records with the ones in reference.json; any
difference, or output it cannot read, is a failed operation.
"""

import json
import re

_BAND_LINE = re.compile(r"^band (\d): \S+ \(length (\d+)\)$")
_PATTERNS = re.compile(
    r"^verified (\d+) composition patterns to depth (\d+): (.*)$")
_TABLE_ROW = re.compile(r"^\s+(\d+)\s+(\d+)\s+\S+$")
_CHAIN_LINE = re.compile(r"^(\S+): (?:(\w+) \[(.*)\]|(\[.*))$")
_TUBE_LINE = re.compile(
    r"^  omega\^4 iso: (\w+); tau\^2 iso: (\w+) .*tube rank: (\S+)$")


def _name(v, amap):
    return amap.get(v, v) if amap else v


def _by_vertex(vec, order, amap):
    if len(vec) != len(order):
        raise ValueError("vector %r does not match vertex order" % (vec,))
    return {_name(v, amap): d for v, d in zip(order, vec)}


def _chain(text, order, amap):
    vecs = json.loads("[" + text.replace("->", ",") + "]")
    return [_by_vertex(v, order, amap) for v in vecs]


def _label(label, amap):
    m = re.fullmatch(r"simple\((.+)\)", label)
    return "simple(%s)" % _name(m.group(1), amap) if m else "module"


def _algebra(out, amap):
    doc = json.loads(out)
    rec = {"stabilized": doc["stabilized"],
           "graded_dimensions": doc["graded_dimensions"]}
    if doc["stabilized"]:
        cm = doc["cartan"]
        names = [_name(v, amap) for v in cm["vertices"]]
        rec.update(
            dimension=doc["dimension"],
            loewy_length=doc["loewy_length"],
            weakly_symmetric=doc["weakly_symmetric"],
            cartan_determinant=cm["determinant"],
            cartan={"%s>%s" % (names[i], names[j]): x
                    for i, row in enumerate(cm["matrix"])
                    for j, x in enumerate(row)})
    return rec


def _bands(out, amap):
    doc = json.loads(out)
    return {k: doc[k] for k in
            ("counts", "total", "self_inverse", "up_to_inversion")}


def _certify_growth(out, amap):
    lines = out.splitlines()
    # The basepoint line is left out: it is the least common vertex of the
    # two bands, a choice that follows the labels.
    rec = {"lengths": [], "counts": {}, "result": lines[-1] if lines else ""}
    for line in lines:
        if _BAND_LINE.match(line):
            rec["lengths"].append(int(_BAND_LINE.match(line).group(2)))
        elif _PATTERNS.match(line):
            n, depth, verdict = _PATTERNS.match(line).groups()
            rec.update(patterns=int(n), depth=int(depth), verdict=verdict)
        elif _TABLE_ROW.match(line):
            d, c = _TABLE_ROW.match(line).groups()
            rec["counts"][d] = int(c)
    return rec


def _verify(out, amap):
    lines = out.splitlines()
    return {"kind": lines[0], "messages": lines[1:-1], "result": lines[-1]}


def _periodicity(out, amap, order):
    rows = []
    for line in out.splitlines():
        m = _CHAIN_LINE.match(line)
        if m and m.group(2):
            rows.append({"label": _label(m.group(1), amap),
                         "verdict": m.group(2),
                         "chain": _chain(m.group(3), order, amap)})
        elif _TUBE_LINE.match(line):
            rows[-1]["tube"] = list(_TUBE_LINE.match(line).groups())
        elif line.startswith("  tube rank: "):
            rows[-1]["tube"] = line.strip()
        else:
            raise ValueError("unexpected line %r" % line)
    return {"modules": sorted(rows, key=lambda r: r["label"])}


def _syzygy(out, amap):
    lines = out.splitlines()
    order = lines[0][len("vertex order: "):].split(", ")
    rows = []
    for line in lines[1:]:
        label, chain = _CHAIN_LINE.match(line).group(1, 4)
        rows.append({"label": _label(label, amap),
                     "chain": _chain(chain, order, amap)})
    return {"modules": sorted(rows, key=lambda r: r["label"])}


def invariants(argv, rc, out, amap=None, vertices=None):
    """The relabelling-invariant record of one command's result.

    amap sends relabelled arc ids to the original ones (None for builtin
    inputs); vertices is the algebra's vertex list, needed to read the
    unlabelled dimension vectors that `periodicity` prints.
    """
    kind = argv[0]
    rec = {"exit": rc}
    try:
        if kind == "algebra":
            rec.update(_algebra(out, amap))
        elif kind == "bands":
            rec.update(_bands(out, amap))
        elif kind == "certify-growth":
            rec.update(_certify_growth(out, amap))
        elif kind == "verify":
            rec.update(_verify(out, amap))
        elif kind == "periodicity":
            rec.update(_periodicity(out, amap, sorted(vertices)))
        elif kind == "syzygy":
            rec.update(_syzygy(out, amap))
        else:
            raise ValueError("no reader for subcommand %r" % kind)
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as e:
        rec["unreadable"] = "%s: %s" % (type(e).__name__, e)
        rec["output_head"] = out[:300]
    return json.loads(json.dumps(rec, sort_keys=True))


def diff(expected, got):
    """Names of the top-level fields where two records differ."""
    keys = sorted(set(expected) | set(got))
    return [k for k in keys if expected.get(k) != got.get(k)]
