"""Command line interface.

Subcommands:

  build           validate a triangulation and emit its quiver and potential
  algebra         compute the finite basis and invariants of the algebra
  bands           enumerate bands of a presentation and report growth
  certify-growth  produce a free-composability certificate for a band pair
  xi              build the cycle-flank word of an arrow and check it
  periodicity     check syzygy periodicity of modules, emit certificates
  syzygy          print the syzygy dimension chain of a module
  verify          replay a certificate file

Every command names its source with --builtin or --input (or --module):
the --input file is read once, into a source spec, and the triangulation,
word presentation or algebra comes from the spec readers of
`certificates`, the same code that replays certificates.

Numeric defaults can be overridden by environment variables with the
SURFALG_ prefix (SURFALG_FIELD, SURFALG_MAX_DEG, SURFALG_MAX_LEN,
SURFALG_DEPTH, SURFALG_SEED, SURFALG_TRIALS, SURFALG_FORMAT,
SURFALG_PATH_BUDGET); explicit flags win over the environment.

Exit codes: 0 success, 1 a check failed, 2 bad input or usage,
3 the algebra computation did not stabilize.
"""

import argparse
import json
import os
import sys

from . import algebra, certificates, fixtures, homology, qp, strings
from .linalg import DEFAULT_PRIME
from .surface import (
    excluded_for_certificates,
    triangulation_to_json,
    validate_triangulation,
    valency,
)

__all__ = ["main"]


def _env(name, cast, fallback):
    raw = os.environ.get("SURFALG_" + name)
    if raw is None:
        return fallback
    try:
        return cast(raw)
    except (TypeError, ValueError):
        raise ValueError(
            "environment variable SURFALG_%s=%r is not a valid %s"
            % (name, raw, cast.__name__))


def _opt(value, name, cast, fallback):
    if value is not None:
        return value
    return _env(name, cast, fallback)


def _read_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise ValueError("cannot read %s: %s" % (path, e.strerror))


def _write_output(text, out):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _one_source_spec(args):
    """The source spec of exactly one of --input or --builtin.

    The --input file is read here, once; the spec readers parse it.
    """
    if args.input and args.builtin:
        raise ValueError("give either --input or --builtin, not both")
    if not (args.input or args.builtin):
        raise ValueError("one of --input or --builtin is required")
    if args.input:
        return {"triangulation": json.loads(_read_file(args.input))}
    return {"builtin": args.builtin}


def _add_surface_args(sp, default_builtin=None, extra_builtins=()):
    sp.add_argument(
        "--builtin", choices=fixtures.BUILTIN_NAMES + tuple(extra_builtins),
        default=default_builtin,
        help="bundled triangulation name")
    sp.add_argument(
        "--input", metavar="PATH", default=None,
        help="triangulation JSON file")


DEFAULT_WORD1 = "a1.a2'.a3"
DEFAULT_WORD2 = "a1.b2.eps2*.c2.c3'.eps3*.b3'"


def cmd_build(args):
    fmt = _opt(args.format, "FORMAT", str, "text")
    spec = _one_source_spec(args)
    t = certificates.triangulation_from_spec(spec)
    label = certificates.source_label(spec)
    report = validate_triangulation(t)
    quiver = maps = potential = None
    note = None
    if report.ok:
        try:
            quiver = qp.build_quiver(t)
            maps = qp.arrow_maps(t, quiver)
            potential = qp.build_potential(t, quiver)
        except ValueError as e:
            note = str(e)
    if fmt == "dot":
        if quiver is None:
            raise ValueError(
                "dot output needs a quiver; %s"
                % (note or "triangulation is invalid: %s" % report))
        _write_output(qp.quiver_to_dot(quiver), args.out)
        return 0
    if fmt == "json":
        doc = {
            "name": label,
            "triangulation": json.loads(triangulation_to_json(t)),
            "valid": report.ok,
            "violations": list(report.violations),
            "note": note,
            "quiver": json.loads(qp.quiver_to_json(quiver))
            if quiver else None,
            "potential": json.loads(qp.potential_to_json(potential))
            if potential else None,
            "f_orbits": [list(o) for o in maps.f_orbits()] if maps else None,
            "g_orbits": [
                {"puncture": maps.puncture_of(o[0]), "arrows": list(o)}
                for o in maps.g_orbits()
            ] if maps else None,
        }
        _write_output(json.dumps(doc, indent=2), args.out)
        return 0 if report.ok else 1
    lines = []
    lines.append(
        "surface: genus %d, %d punctures" % (
            t.surface.genus, len(t.surface.punctures)))
    lines.append(
        "triangulation %s: %d arcs, %d triangles"
        % (label, len(t.arcs), len(t.triangles)))
    if report.ok:
        lines.append("validation: ok")
        for p in t.surface.punctures:
            lines.append("  valency(%s) = %d" % (p, valency(t, p)))
    else:
        lines.append("validation: %d violation(s)" % len(report.violations))
        for v in report.violations:
            lines.append("  - " + v)
    if quiver is not None:
        lines.append(
            "quiver: %d vertices, %d arrows"
            % (len(quiver.vertices), len(quiver.arrows)))
        for orb in maps.f_orbits():
            lines.append("  triangle cycle: " + " -> ".join(orb))
        for orb in maps.g_orbits():
            lines.append(
                "  cycle around %s (length %d): %s"
                % (maps.puncture_of(orb[0]), len(orb), " -> ".join(orb)))
        lines.append("potential: %d terms" % len(potential.terms))
    elif note:
        lines.append("quiver: not built (%s)" % note)
    _write_output("\n".join(lines), args.out)
    return 0 if report.ok else 1


def cmd_algebra(args):
    fmt = _opt(args.format, "FORMAT", str, "text")
    p = _opt(args.field, "FIELD", int, DEFAULT_PRIME)
    max_deg = _opt(args.max_deg, "MAX_DEG", int, algebra.DEFAULT_MAX_DEG)
    budget = _opt(args.path_budget, "PATH_BUDGET", int,
                  algebra.DEFAULT_PATH_BUDGET)
    spec = _one_source_spec(args)
    label = certificates.source_label(spec)
    try:
        a = certificates.algebra_from_spec(
            dict(spec, field=p, max_deg=max_deg, path_budget=budget))
    except algebra.NonStabilizationError as e:
        if fmt == "json":
            doc = {
                "name": label,
                "field": p,
                "stabilized": False,
                "reason": e.reason,
                "graded_dimensions": list(e.graded_dims),
            }
            _write_output(json.dumps(doc, indent=2), args.out)
        else:
            lines = ["algebra for %s over F_%d: did not stabilize (%s)"
                     % (label, p, e.reason)]
            lines.append(
                "partial graded dimensions: %s" % list(e.graded_dims))
            _write_output("\n".join(lines), args.out)
        return 3
    cm = algebra.cartan_matrix(a)
    ws, _ = a.weak_symmetry
    if fmt == "json":
        doc = {
            "name": label,
            "field": p,
            "stabilized": True,
            "dimension": a.dim,
            "loewy_length": a.loewy_length,
            "graded_dimensions": list(a.graded_dims),
            "cartan": {
                "vertices": list(cm.vertices),
                "matrix": [[int(x) for x in row] for row in cm.matrix],
                "determinant": cm.determinant,
            },
            "weakly_symmetric": ws,
        }
        _write_output(json.dumps(doc, indent=2), args.out)
        return 0
    lines = ["algebra for %s over F_%d" % (label, p)]
    lines.append("graded dimensions:")
    for d, dim in enumerate(a.graded_dims):
        lines.append("  degree %2d: %d" % (d, dim))
    lines.append("total dimension: %d" % a.dim)
    lines.append("loewy length: %d" % a.loewy_length)
    lines.append("cartan matrix (rows/cols %s):" % (", ".join(cm.vertices)))
    for row in cm.matrix:
        lines.append("  " + " ".join("%3d" % x for x in row))
    lines.append("cartan determinant: %d" % cm.determinant)
    lines.append("weakly symmetric: %s" % ("yes" if ws else "no"))
    _write_output("\n".join(lines), args.out)
    return 0


def cmd_bands(args):
    fmt = _opt(args.format, "FORMAT", str, "text")
    max_len = _opt(args.max_len, "MAX_LEN", int, 12)
    pres = certificates.presentation_from_spec(
        certificates.presentation_spec(_one_source_spec(args)))
    census = strings.enumerate_bands(pres, max_len)
    rep = strings.growth_report(census)
    if fmt == "json":
        doc = {
            "presentation": rep["presentation"],
            "max_len": rep["max_len"],
            "counts": {str(d): c for d, c in rep["counts"].items()},
            "rates": {str(d): r for d, r in rep["rates"].items()},
            "max_rate": rep["max_rate"],
            "argmax_length": rep["argmax_length"],
            "total": rep["total"],
            "self_inverse": rep["self_inverse"],
            "up_to_inversion": rep["up_to_inversion"],
        }
        if args.words:
            doc["words"] = [strings.format_word(w) for w in census.words]
        _write_output(json.dumps(doc, indent=2), args.out)
        return 0
    lines = ["bands of %s up to length %d" % (rep["presentation"], max_len)]
    lines.extend(strings.growth_table(rep))
    lines.append("total: %d (%d up to inversion)"
                 % (rep["total"], rep["up_to_inversion"]))
    lines.append("max growth rate: %.4f at length %d"
                 % (rep["max_rate"], rep["argmax_length"]))
    if args.words:
        for w in census.words:
            lines.append("  " + strings.format_word(w))
    _write_output("\n".join(lines), args.out)
    return 0


def cmd_certify_growth(args):
    depth = _opt(args.depth, "DEPTH", int, 6)
    source = _one_source_spec(args)
    t = certificates.triangulation_from_spec(source)
    if excluded_for_certificates(t.surface):
        raise ValueError(
            "excluded surface: a sphere with %d punctures is outside the "
            "certified range (needs positive genus or more than 4 punctures)"
            % len(t.surface.punctures))
    spec = certificates.presentation_spec(source)
    pres, maps = certificates.quotient_from_spec(spec)
    if args.word1 or args.word2:
        if not (args.word1 and args.word2):
            raise ValueError("give both --word1 and --word2, or neither")
        w1 = strings.parse_word(args.word1)
        w2 = strings.parse_word(args.word2)
    elif maps is None:
        w1 = strings.parse_word(DEFAULT_WORD1)
        w2 = strings.parse_word(DEFAULT_WORD2)
    else:
        aid = args.arrow or min(maps.f)
        if aid not in maps.f:
            raise ValueError("unknown arrow %r" % (aid,))
        rule = args.companion_rule
        w1 = strings.build_xi(maps, aid, companion_rule=rule)
        w2 = strings.build_eta(maps, aid, companion_rule=rule)
    cert = certificates.make_growth_certificate(spec, pres, w1, w2,
                                                depth=depth)
    if isinstance(cert, strings.CounterExample):
        print("FAIL: %s" % cert.reason)
        if cert.check is not None:
            for v in cert.check.violations:
                print("  %s at %d: %s" % (v.kind, v.position, v.detail))
        return 1
    lines = []
    lines.append("band 1: %s (length %d)" % (cert.word1,
                                             len(strings.parse_word(cert.word1))))
    lines.append("band 2: %s (length %d)" % (cert.word2,
                                             len(strings.parse_word(cert.word2))))
    lines.append("basepoint: %s" % cert.basepoint)
    lines.append(
        "verified %d composition patterns to depth %d: all bands"
        % (len(cert.necklaces), cert.depth))
    max_len = _opt(args.max_len, "MAX_LEN", int, 12)
    rep = strings.growth_report(strings.enumerate_bands(pres, max_len))
    lines.append("band counts up to length %d:" % max_len)
    lines.extend(strings.growth_table(rep, indent="  "))
    lines.append("growth estimate: max count^(1/length) = %.4f at length %d"
                 % (rep["max_rate"], rep["argmax_length"]))
    lines.append("scope: %s" % cert.scope)
    lines.append("PASS")
    print("\n".join(lines))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(certificates.certificate_to_json(cert) + "\n")
    return 0


def cmd_xi(args):
    pres, maps = certificates.quotient_from_spec(
        dict(_one_source_spec(args), source="string-quotient"))
    rule = args.companion_rule
    if args.all:
        arrows = sorted(maps.f)
    else:
        arrows = [args.arrow or min(maps.f)]
    ok = True
    for aid in arrows:
        if aid not in maps.f:
            raise ValueError("unknown arrow %r" % (aid,))
        word = strings.build_xi(maps, aid, companion_rule=rule)
        bc = strings.is_band(pres, word)
        ok = ok and bc.ok
        print("xi(%s) = %s" % (aid, strings.format_word(word)))
        print("  length %d, band: %s" % (len(word), "yes" if bc.ok else "no"))
        for v in bc.violations:
            print("  %s at %d: %s" % (v.kind, v.position, v.detail))
        if not args.all:
            print("  rho1 = %s" % ".".join(strings.rho1(maps, aid, rule)))
            print("  rho2 = %s" % ".".join(strings.rho2(maps, aid, rule)))
            eta = strings.build_eta(maps, aid, companion_rule=rule)
            be = strings.is_band(pres, eta)
            ok = ok and be.ok
            print("  eta  = %s" % strings.format_word(eta))
            print("  length %d, band: %s"
                  % (len(eta), "yes" if be.ok else "no"))
    return 0 if ok else 1


def _module_targets(args):
    """Resolve (algebra, algebra spec, [(label, module spec, module)])."""
    if args.module:
        doc = json.loads(_read_file(args.module))
        certificates._check_fields(
            doc, "module file", ("algebra", "dims"), ("matrices",))
        a = certificates.algebra_from_spec(doc["algebra"])
        mspec = {"dims": doc["dims"], "matrices": doc.get("matrices", {})}
        m = certificates.module_from_spec(a, mspec)
        return a, doc["algebra"], [(args.module, mspec, m)]
    aspec = _one_source_spec(args)
    aspec["field"] = _opt(args.field, "FIELD", int, DEFAULT_PRIME)
    aspec["max_deg"] = _opt(args.max_deg, "MAX_DEG", int,
                            algebra.DEFAULT_MAX_DEG)
    a = certificates.algebra_from_spec(aspec)
    vs = [args.simple] if args.simple else sorted(a.quiver.vertices)
    return a, aspec, [
        ("simple(%s)" % v, {"simple": v}, homology.simple_module(a, v))
        for v in vs]


def cmd_periodicity(args):
    trials = _opt(args.trials, "TRIALS", int, 20)
    seed = _opt(args.seed, "SEED", int, 0)
    a, aspec, targets = _module_targets(args)
    if args.out and len(targets) != 1:
        raise ValueError("--out needs a single module (--simple or --module)")
    all_ok = True
    for label, mspec, m in targets:
        res = homology.check_periodicity(a, m, period=args.period,
                                         trials=trials, seed=seed)
        cert = certificates.make_periodicity_certificate(aspec, mspec, res)
        chain = " -> ".join(str(list(dv)) for dv in cert.dim_chain)
        print("%s: %s [%s]" % (label, cert.verdict, chain))
        try:
            rank = homology.tube_rank(a, res)
        except ValueError as e:
            print("  tube rank: n/a (%s)" % e)
        else:
            om4 = "yes" if rank in (1, 2) else "no"
            print("  omega^4 iso: %s; tau^2 iso: %s (tau = omega^2); "
                  "tube rank: %s" % (om4, om4, rank if rank else "none"))
        if cert.verdict != "periodic":
            all_ok = False
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(certificates.certificate_to_json(cert) + "\n")
    return 0 if all_ok else 1


def cmd_syzygy(args):
    a, _, targets = _module_targets(args)
    chains = [(label, homology.syzygy_chain(a, m, args.steps))
              for label, _, m in targets]
    vertices = sorted(a.quiver.vertices)
    print("vertex order: %s" % ", ".join(vertices))
    for label, chain in chains:
        print("%s: %s" % (label, " -> ".join(
            str(list(x.dim_vector(vertices))) for x in chain)))
    return 0


def cmd_verify(args):
    text = _read_file(args.input)
    res = certificates.verify_certificate(text)
    print("certificate kind: %s" % res.kind)
    for msg in res.messages:
        print("  " + msg)
    print("PASS" if res.ok else "FAIL")
    return 0 if res.ok else 1


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="surfalg",
        description="quivers with potential from surface triangulations: "
                    "algebras, bands, growth and periodicity certificates")
    sub = ap.add_subparsers(dest="command")

    sp = sub.add_parser("build", help="validate a triangulation, emit quiver")
    _add_surface_args(sp)
    sp.add_argument("--format", choices=("text", "json", "dot"), default=None)
    sp.add_argument("--out", metavar="PATH", default=None)
    sp.set_defaults(func=cmd_build)

    sp = sub.add_parser("algebra", help="finite basis and invariants")
    _add_surface_args(sp, extra_builtins=("kx2",))
    sp.add_argument("--field", type=int, default=None)
    sp.add_argument("--max-deg", type=int, default=None)
    sp.add_argument("--path-budget", type=int, default=None)
    sp.add_argument("--format", choices=("text", "json"), default=None)
    sp.add_argument("--out", metavar="PATH", default=None)
    sp.set_defaults(func=cmd_algebra)

    sp = sub.add_parser("bands", help="enumerate bands, report growth")
    _add_surface_args(sp, default_builtin=None)
    sp.add_argument("--max-len", type=int, default=None)
    sp.add_argument("--words", action="store_true",
                    help="also list the band words")
    sp.add_argument("--format", choices=("text", "json"), default=None)
    sp.add_argument("--out", metavar="PATH", default=None)
    sp.set_defaults(func=cmd_bands)

    sp = sub.add_parser("certify-growth",
                        help="free-composability certificate for a band pair")
    _add_surface_args(sp)
    sp.add_argument("--word1", default=None, help="override the first band")
    sp.add_argument("--word2", default=None, help="override the second band")
    sp.add_argument("--arrow", default=None,
                    help="arrow for the cycle-flank construction")
    sp.add_argument("--companion-rule", choices=("figure", "swapped"),
                    default="figure")
    sp.add_argument("--depth", type=int, default=None)
    sp.add_argument("--max-len", type=int, default=None,
                    help="length bound for the reported band-count table")
    sp.add_argument("--out", metavar="PATH", default=None)
    sp.set_defaults(func=cmd_certify_growth)

    sp = sub.add_parser("xi", help="cycle-flank word of an arrow")
    _add_surface_args(sp)
    sp.add_argument("--arrow", default=None)
    sp.add_argument("--all", action="store_true",
                    help="check every arrow")
    sp.add_argument("--companion-rule", choices=("figure", "swapped"),
                    default="figure")
    sp.set_defaults(func=cmd_xi)

    sp = sub.add_parser("periodicity", help="syzygy periodicity of modules")
    _add_surface_args(sp, extra_builtins=("kx2",))
    sp.add_argument("--field", type=int, default=None)
    sp.add_argument("--max-deg", type=int, default=None)
    sp.add_argument("--module", metavar="PATH", default=None,
                    help="module file (algebra spec, dims, matrices)")
    sp.add_argument("--simple", metavar="VERTEX", default=None,
                    help="check one simple module instead of all")
    sp.add_argument("--period", type=int, default=4)
    sp.add_argument("--trials", type=int, default=None)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--out", metavar="PATH", default=None)
    sp.set_defaults(func=cmd_periodicity)

    sp = sub.add_parser("syzygy", help="syzygy dimension chain")
    _add_surface_args(sp, extra_builtins=("kx2",))
    sp.add_argument("--field", type=int, default=None)
    sp.add_argument("--max-deg", type=int, default=None)
    sp.add_argument("--module", metavar="PATH", default=None)
    sp.add_argument("--simple", metavar="VERTEX", default=None)
    sp.add_argument("--steps", type=int, default=4)
    sp.set_defaults(func=cmd_syzygy)

    sp = sub.add_parser("verify", help="replay a certificate file")
    sp.add_argument("--input", metavar="PATH", required=True)
    sp.set_defaults(func=cmd_verify)

    return ap


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    if not getattr(args, "func", None):
        parser.print_help()
        return 2
    try:
        return args.func(args)
    except algebra.NonStabilizationError as e:
        print("error: %s" % e, file=sys.stderr)
        return 3
    except (ValueError, KeyError) as e:
        msg = e.args[0] if e.args else str(e)
        print("error: %s" % msg, file=sys.stderr)
        return 2
    except OSError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
