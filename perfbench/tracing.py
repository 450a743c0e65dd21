"""Spans around the package's public functions, installed from outside.

`Tracer.install` rebinds each function in WRAPPED, in every loaded surfalg
module that holds it (so `from .surface import ...` bindings in `cli` and
`certificates` are caught as well), and `uninstall` puts the originals back.
Nothing under src/ is edited.

Every call opens a span with its parent, start and end.  Calls of the hot
functions in HOT are not kept one by one: their count and time are added
to the parent span's record.  Each span stores its self time, the part of
its duration not covered by child spans.  Observers read counts from
arguments and results (bands found, Hom dimensions, matrix sizes, ...) at
the boundary where the work happens.
"""

import collections
import functools
import importlib
import sys
import time

# (module, function) pairs; the span name is "<layer>.<function>".
WRAPPED = (
    ("surface", "validate_triangulation"),
    ("qp", "build_quiver"),
    ("qp", "arrow_maps"),
    ("qp", "build_potential"),
    ("qp", "jacobian_relations"),
    ("algebra", "compute_basis"),
    ("algebra", "check_weakly_symmetric"),
    ("strings", "enumerate_bands"),
    ("strings", "is_band"),
    ("strings", "free_composability"),
    ("strings", "string_quotient"),
    ("strings", "growth_report"),
    ("homology", "projective_cover"),
    ("homology", "syzygy"),
    ("homology", "radical_series"),
    ("homology", "iso_check"),
    ("homology", "check_periodicity"),
    ("homology", "tube_rank"),
    ("linalg", "rref"),
    ("certificates", "algebra_from_spec"),
    ("certificates", "module_from_spec"),
    ("certificates", "make_growth_certificate"),
    ("certificates", "make_periodicity_certificate"),
    ("certificates", "certificate_to_json"),
    ("certificates", "verify_certificate"),
    ("cli", "main"),
)

HOT = frozenset({"strings.is_band", "linalg.rref"})


def composable_paths(quiver, max_len):
    """Number of paths of length 0..max_len in a quiver (counted by DP)."""
    ending = {v: 1 for v in quiver.vertices}
    total = len(ending)
    for _ in range(max_len):
        nxt = dict.fromkeys(quiver.vertices, 0)
        for x in quiver.arrows:
            nxt[x.target] += ending[x.source]
        ending = nxt
        total += sum(ending.values())
    return total


def _observe_basis(counts, args, kwargs, result, exc):
    dims = result.graded_dims if exc is None else getattr(
        exc, "graded_dims", ())
    if dims:
        counts["algebra.paths_to_deg"] += composable_paths(
            args[0], len(dims) - 1)
        counts["algebra.dims"] += sum(dims)


def _observe_bands(counts, args, kwargs, result, exc):
    if exc is None:
        counts["strings.bands_found"] += result.total


def _observe_free(counts, args, kwargs, result, exc):
    if exc is None:
        counts["strings.necklaces"] += len(getattr(result, "necklaces", ()))


def _observe_iso(counts, args, kwargs, result, exc):
    if exc is None:
        counts["homology.iso_trials"] += result.trials
        counts["homology.hom_dim"] += result.hom_forward


def _observe_rref(counts, args, kwargs, result, exc):
    shape = getattr(args[0], "shape", (0, 0))
    if len(shape) == 2:
        counts["linalg.rref_cells"] += int(shape[0]) * int(shape[1])


def _observe_json(counts, args, kwargs, result, exc):
    if exc is None:
        counts["certificates.bytes"] += len(result.encode("utf-8"))


OBSERVERS = {
    "algebra.compute_basis": _observe_basis,
    "strings.enumerate_bands": _observe_bands,
    "strings.free_composability": _observe_free,
    "homology.iso_check": _observe_iso,
    "linalg.rref": _observe_rref,
    "certificates.certificate_to_json": _observe_json,
}


class Tracer:
    """In-memory spans and counters for one traced run."""

    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()
        self.op = None
        self.round = None
        self._stack = []
        self._next_id = 0
        self._restore = []

    def wrap(self, name, fn):
        observe = OBSERVERS.get(name)
        hot = name in HOT
        stack = self._stack
        clock = time.perf_counter
        counts = self.counts

        def traced(*args, **kwargs):
            frame = {"child": 0.0, "hot": {}}
            if not hot:
                self._next_id += 1
                frame["id"] = self._next_id
            stack.append(frame)
            exc = result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent["child"] += dur
                if hot:
                    if parent is not None:
                        slot = parent["hot"].setdefault(name, [0, 0.0])
                        slot[0] += 1
                        slot[1] += dur
                else:
                    self.spans.append({
                        "id": frame["id"],
                        "parent": parent["id"] if parent else None,
                        "name": name,
                        "round": self.round,
                        "op": self.op,
                        "start": start,
                        "end": end,
                        "self": dur - frame["child"],
                        "hot": frame["hot"],
                    })
                if observe is not None:
                    observe(counts, args, kwargs, result, exc)
                # The traceback refers to this frame; dropping the exception
                # here breaks the cycle, so what the failed call built is
                # freed at once and not by a later garbage collection.
                exc = None

        return functools.wraps(fn)(traced)

    def install(self):
        for modname, attr in WRAPPED:
            mod = importlib.import_module("surfalg." + modname)
            orig = getattr(mod, attr)
            wrapper = self.wrap("%s.%s" % (modname, attr), orig)
            for m in list(sys.modules.values()):
                mname = getattr(m, "__name__", "")
                if mname != "surfalg" and not mname.startswith("surfalg."):
                    continue
                for k, v in list(vars(m).items()):
                    if v is orig:
                        setattr(m, k, wrapper)
                        self._restore.append((m, k, orig))

    def uninstall(self):
        for m, k, orig in reversed(self._restore):
            setattr(m, k, orig)
        self._restore.clear()


def _dur(spans, *names):
    return sum(s["end"] - s["start"] for s in spans if s["name"] in names)


def _self(spans, prefix):
    return sum(s["self"] for s in spans if s["name"].startswith(prefix))


def _calls(spans, name):
    return sum(1 for s in spans if s["name"] == name)


def _hot(spans, child, parent=None):
    """(calls, seconds) of a hot function, optionally under one parent."""
    n = t = 0
    for s in spans:
        if parent is None or s["name"] == parent:
            c, d = s["hot"].get(child, (0, 0.0))
            n += c
            t += d
    return n, t


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, counts):
    """Per-layer figures of one round, from its spans and counter deltas."""
    enum_calls, enum_time = _hot(spans, "strings.is_band",
                                 "strings.enumerate_bands")
    free_calls, free_time = _hot(spans, "strings.is_band",
                                 "strings.free_composability")
    rref_calls, rref_time = _hot(spans, "linalg.rref")
    return {
        "surface.validate_s": _dur(spans, "surface.validate_triangulation"),
        "qp.build_s": _self(spans, "qp."),
        "algebra.compute_basis_s": _dur(spans, "algebra.compute_basis"),
        "algebra.compute_basis_calls": _calls(spans, "algebra.compute_basis"),
        "algebra.paths_to_deg": counts["algebra.paths_to_deg"],
        "algebra.survivor_ratio": _ratio(counts["algebra.dims"],
                                         counts["algebra.paths_to_deg"]),
        "algebra.check_weakly_symmetric_s": _dur(
            spans, "algebra.check_weakly_symmetric"),
        "algebra.check_weakly_symmetric_calls": _calls(
            spans, "algebra.check_weakly_symmetric"),
        "strings.enumerate_bands_self_s": _self(
            spans, "strings.enumerate_bands"),
        "strings.enumerate_bands_calls": _calls(
            spans, "strings.enumerate_bands"),
        "strings.bands_found": counts["strings.bands_found"],
        "strings.is_band_s.in_enumerate_bands": enum_time,
        "strings.is_band_calls.in_enumerate_bands": enum_calls,
        "strings.is_band_s.in_free_composability": free_time,
        "strings.is_band_calls.in_free_composability": free_calls,
        "strings.leaf_accept_ratio": _ratio(counts["strings.bands_found"],
                                            enum_calls),
        "strings.free_composability_s": _dur(
            spans, "strings.free_composability"),
        "strings.necklaces": counts["strings.necklaces"],
        "homology.syzygy_s": _dur(spans, "homology.syzygy"),
        "homology.syzygy_calls": _calls(spans, "homology.syzygy"),
        "homology.projective_cover_s": _dur(
            spans, "homology.projective_cover"),
        "homology.check_periodicity_s": _dur(
            spans, "homology.check_periodicity"),
        "homology.tube_rank_s": _dur(spans, "homology.tube_rank"),
        "homology.radical_series_s": _dur(spans, "homology.radical_series"),
        "homology.iso_check_s": _dur(spans, "homology.iso_check"),
        "homology.iso_check_calls": _calls(spans, "homology.iso_check"),
        "homology.iso_trials": counts["homology.iso_trials"],
        "homology.hom_dim": counts["homology.hom_dim"],
        "linalg.rref_s": rref_time,
        "linalg.rref_calls": rref_calls,
        "linalg.rref_cells": counts["linalg.rref_cells"],
        "certificates.make_s": _dur(
            spans, "certificates.make_growth_certificate",
            "certificates.make_periodicity_certificate"),
        "certificates.verify_s": _dur(spans,
                                      "certificates.verify_certificate"),
        "certificates.algebra_from_spec_calls": _calls(
            spans, "certificates.algebra_from_spec"),
        "certificates.bytes": counts["certificates.bytes"],
        "cli.self_s": _self(spans, "cli.main"),
    }
