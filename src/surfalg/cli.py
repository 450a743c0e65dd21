"""Command line interface.

Subcommands:

  build           validate a triangulation and emit its quiver and potential
  algebra         compute the finite basis and invariants of the algebra
  bands           count bands of a presentation, report growth, and with
                  --words list them
  certify-growth  produce a free-composability certificate for a band pair
  xi              build the cycle-flank word of an arrow and check it
  periodicity     check syzygy periodicity of modules, emit certificates
  syzygy          print the syzygy dimension chain of a module
  verify          replay a certificate file

Every command names its source with --builtin or --input (or --module):
the --input file is read once, into a source spec, and the triangulation,
word presentation or algebra comes from the spec readers of
`certificates`, the same code that replays certificates.

Each flag is declared once, in OPTIONS, and the parser is built once.  An
option left out is read from its variable, if it has one (SURFALG_FORMAT,
SURFALG_FIELD, SURFALG_MAX_DEG, SURFALG_PATH_BUDGET, SURFALG_MAX_LEN,
SURFALG_DEPTH, SURFALG_TRIALS, SURFALG_SEED), else takes OPTIONS' default.

Exit codes: 0 success, 1 a check failed, 2 bad input or usage,
3 the algebra computation did not stabilize, 141 stdout's pipe was
closed (128 + SIGPIPE, as a shell reports it).
"""

import argparse
import json
import os
import sys

from . import algebra, certificates, fixtures, homology, linalg, qp, strings
from .surface import (
    excluded_for_certificates,
    triangulation_to_json,
    validate_triangulation,
    valency,
)

__all__ = ["main", "run_with_exit_codes"]


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


def _read_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise ValueError("cannot read %s: %s" % (path, e.strerror))


def _write_output(text, out):
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text if text.endswith("\n") else text + "\n")
        except BrokenPipeError as e:
            # a FIFO whose reader has gone is an unwritable --out; only a
            # broken pipe on stdout exits 141
            raise ValueError("cannot write %s: %s" % (out, e.strerror))
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


DEFAULT_WORD1 = "a1.a2'.a3"
DEFAULT_WORD2 = "a1.b2.eps2*.c2.c3'.eps3*.b3'"


def cmd_build(args):
    spec = _one_source_spec(args)
    t = certificates.triangulation_from_spec(spec)
    label = certificates.source_label(spec)
    report = validate_triangulation(t)
    maps = potential = None
    note = None
    if report.ok:
        try:
            maps = qp.arrow_maps(t)
            potential = qp.build_potential(maps)
        except ValueError as e:
            note = str(e)
    if args.format == "dot":
        if maps is None:
            raise ValueError(
                "dot output needs a quiver; %s"
                % (note or "triangulation is invalid: %s" % (report,)))
        _write_output(qp.quiver_to_dot(maps.quiver), args.out)
        return 0
    if args.format == "json":
        doc = {
            "name": label,
            "triangulation": json.loads(triangulation_to_json(t)),
            "valid": report.ok,
            "violations": list(report.violations),
            "note": note,
            "quiver": json.loads(qp.quiver_to_json(maps.quiver))
            if maps else None,
            "potential": json.loads(qp.potential_to_json(potential))
            if potential else None,
            "f_orbits": [list(o) for o in maps.f_orbits] if maps else None,
            "g_orbits": [{"puncture": p, "arrows": list(o)}
                         for p, o in maps.g_orbits] if maps else None,
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
    if maps is not None:
        lines.append(
            "quiver: %d vertices, %d arrows"
            % (len(maps.quiver.vertices), len(maps.quiver.arrows)))
        for orb in maps.f_orbits:
            lines.append("  triangle cycle: " + " -> ".join(orb))
        for p, orb in maps.g_orbits:
            lines.append("  cycle around %s (length %d): %s"
                         % (p, len(orb), " -> ".join(orb)))
        lines.append("potential: %d terms" % len(potential.terms))
    elif note:
        lines.append("quiver: not built (%s)" % note)
    _write_output("\n".join(lines), args.out)
    return 0 if report.ok else 1


def cmd_algebra(args):
    p = args.field
    spec = _one_source_spec(args)
    label = certificates.source_label(spec)
    try:
        a = certificates.algebra_from_spec(
            dict(spec, field=p, max_deg=args.max_deg,
                 path_budget=args.path_budget))
    except algebra.NonStabilizationError as e:
        if args.format == "json":
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
    cartan = algebra.cartan_matrix(a)
    det = linalg.det_int(cartan)
    ws, _ = a.weak_symmetry
    if args.format == "json":
        doc = {
            "name": label,
            "field": p,
            "stabilized": True,
            "dimension": a.dim,
            "loewy_length": a.loewy_length,
            "graded_dimensions": list(a.graded_dims),
            "cartan": {
                "vertices": list(a.vertices),
                "matrix": [[int(x) for x in row] for row in cartan],
                "determinant": det,
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
    lines.append("cartan matrix (rows/cols %s):" % (", ".join(a.vertices)))
    for row in cartan:
        lines.append("  " + " ".join("%3d" % x for x in row))
    lines.append("cartan determinant: %d" % det)
    lines.append("weakly symmetric: %s" % ("yes" if ws else "no"))
    _write_output("\n".join(lines), args.out)
    return 0


def cmd_bands(args):
    pres = certificates.quotient_from_spec(
        certificates.presentation_spec(_one_source_spec(args)))[0]
    census = (strings.enumerate_bands if args.words
              else strings.band_counts)(pres, args.max_len)
    rep = strings.growth_report(census)
    if args.format == "json":
        doc = dict(rep)
        if args.words:
            doc["words"] = [strings.format_word(w) for w in census.words]
        _write_output(json.dumps(doc, indent=2), args.out)
        return 0
    lines = ["bands of %s up to length %d"
             % (rep["presentation"], args.max_len)]
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
    if args.arrow and (args.word1 or args.word2):
        raise ValueError("give either --arrow or --word1/--word2, not both")
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
        if args.arrow:
            raise ValueError(
                "--arrow needs arrow maps, and the %s presentation has none"
                % certificates.source_label(source))
        w1 = strings.parse_word(DEFAULT_WORD1)
        w2 = strings.parse_word(DEFAULT_WORD2)
    else:
        aid = args.arrow or min(maps.f)
        if aid not in maps.f:
            raise ValueError("unknown arrow %r" % (aid,))
        w1 = strings.build_xi(maps, aid)
        w2 = strings.build_eta(maps, aid)
    # the census refuses a bad --max-len before the patterns are checked
    census = strings.band_counts(pres, args.max_len)
    cert = certificates.make_growth_certificate(spec, pres, w1, w2,
                                                depth=args.depth)
    if isinstance(cert, strings.CounterExample):
        print("FAIL: %s" % cert.reason)
        if cert.check is not None:
            for v in cert.check.violations:
                print("  %s" % (v,))
        return 1
    # the certificate stores rotations of w1 and w2, of the same lengths
    lines = []
    lines.append("band 1: %s (length %d)" % (cert.word1, len(w1)))
    lines.append("band 2: %s (length %d)" % (cert.word2, len(w2)))
    lines.append("basepoint: %s" % cert.basepoint)
    lines.append(
        "verified %d composition patterns to depth %d: all bands"
        % (len(cert.necklaces), cert.depth))
    rep = strings.growth_report(census)
    lines.append("band counts up to length %d:" % args.max_len)
    lines.extend(strings.growth_table(rep, indent="  "))
    lines.append("growth estimate: max count^(1/length) = %.4f at length %d"
                 % (rep["max_rate"], rep["argmax_length"]))
    lines.append("scope: %s" % cert.scope)
    lines.append("PASS")
    print("\n".join(lines))
    if args.out:
        _write_output(certificates.certificate_to_json(cert), args.out)
    return 0


def cmd_xi(args):
    if args.all and args.arrow:
        raise ValueError("give either --arrow or --all, not both")
    pres, maps = certificates.quotient_from_spec(
        dict(_one_source_spec(args), source="string-quotient"))
    if args.all:
        arrows = sorted(maps.f)
    else:
        arrows = [args.arrow or min(maps.f)]
    ok = True
    for aid in arrows:
        if aid not in maps.f:
            raise ValueError("unknown arrow %r" % (aid,))
        word = strings.build_xi(maps, aid)
        bc = strings.is_band(pres, word)
        ok = ok and bc.ok
        print("xi(%s) = %s" % (aid, strings.format_word(word)))
        print("  length %d, band: %s" % (len(word), "yes" if bc.ok else "no"))
        for v in bc.violations:
            print("  %s" % (v,))
        if not args.all:
            print("  rho1 = %s" % ".".join(strings.rho1(maps, aid)))
            print("  rho2 = %s" % ".".join(strings.rho2(maps, aid)))
            eta = strings.build_eta(maps, aid)
            be = strings.is_band(pres, eta)
            ok = ok and be.ok
            print("  eta  = %s" % strings.format_word(eta))
            print("  length %d, band: %s"
                  % (len(eta), "yes" if be.ok else "no"))
            for v in be.violations:
                print("  %s" % (v,))
    return 0 if ok else 1


def _module_targets(args, single=False):
    """Resolve (algebra, algebra spec, [(label, module spec, module)]).

    With single, more than one target is refused before the algebra is
    built: all simples are one target only over a one-vertex quiver.
    """
    if args.module:
        for flag in ("--builtin", "--input", "--simple"):
            if getattr(args, flag[2:]):
                raise ValueError(
                    "give either --module or %s, not both" % flag)
        aspec, mspec = certificates.module_file_specs(
            _read_file(args.module))
        a = certificates.algebra_from_spec(aspec)
        m = certificates.module_from_spec(a, mspec)
        return a, aspec, [(args.module, mspec, m)]
    aspec = dict(_one_source_spec(args), field=args.field,
                 max_deg=args.max_deg)
    if (single and not args.simple
            and len(certificates.quiver_from_spec(aspec)[0].vertices) != 1):
        raise ValueError("--out needs a single module (--simple or --module)")
    a = certificates.algebra_from_spec(aspec)
    vs = [args.simple] if args.simple else a.vertices
    return a, aspec, [
        ("simple(%s)" % v, {"simple": v}, homology.simple_module(a, v))
        for v in vs]


def cmd_periodicity(args):
    homology.check_arguments(period=args.period, trials=args.trials,
                             seed=args.seed)
    a, aspec, targets = _module_targets(args, single=bool(args.out))
    all_ok = True
    for label, mspec, m in targets:
        res = homology.check_periodicity(a, m, period=args.period,
                                         trials=args.trials, seed=args.seed)
        chain = " -> ".join(str(list(dv)) for dv in res.dim_chain)
        print("%s: %s [%s]" % (label, res.verdict, chain))
        try:
            rank = homology.tube_rank(a, res)
        except ValueError as e:
            print("  tube rank: n/a (%s)" % e)
        else:
            om4 = "yes" if rank in (1, 2) else "no"
            print("  omega^4 iso: %s; tau^2 iso: %s (tau = omega^2); "
                  "tube rank: %s" % (om4, om4, rank if rank else "none"))
        if res.verdict != "periodic":
            all_ok = False
        if args.out:
            cert = certificates.make_periodicity_certificate(aspec, mspec, res)
            _write_output(certificates.certificate_to_json(cert), args.out)
    return 0 if all_ok else 1


def cmd_syzygy(args):
    homology.check_arguments(steps=args.steps)
    a, _, targets = _module_targets(args)
    chains = [(label, homology.syzygy_chain(a, m, args.steps))
              for label, _, m in targets]
    print("vertex order: %s" % ", ".join(a.vertices))
    for label, chain in chains:
        print("%s: %s" % (label, " -> ".join(
            str(list(x.dim_vector(a.vertices))) for x in chain)))
    return 0


def cmd_verify(args):
    text = _read_file(args.input)
    res = certificates.verify_certificate(text)
    print("certificate kind: %s" % res.kind)
    for msg in res.messages:
        print("  " + msg)
    print("PASS" if res.ok else "FAIL")
    return 0 if res.ok else 1


# The option table: one row per flag, holding its argparse keywords and,
# for an option that an environment variable can set, the variable's name
# (after SURFALG_), its cast and the fallback default.
OPTIONS = {
    "--builtin": ({"choices": fixtures.BUILTIN_NAMES,
                   "help": "bundled triangulation name"}, None),
    "--input": ({"metavar": "PATH", "help": "triangulation JSON file"}, None),
    "--format": ({"choices": ("text", "json")}, ("FORMAT", str, "text")),
    "--field": ({"type": int}, ("FIELD", int, linalg.DEFAULT_PRIME)),
    "--max-deg": ({"type": int}, ("MAX_DEG", int, algebra.DEFAULT_MAX_DEG)),
    "--path-budget": ({"type": int, "help": "cap on the surviving "
                       "paths and on the tips held; exit 3 past it"},
                      ("PATH_BUDGET", int, algebra.DEFAULT_PATH_BUDGET)),
    "--max-len": ({"type": int}, ("MAX_LEN", int, 12)),
    "--words": ({"action": "store_true",
                 "help": "also list the band words"}, None),
    "--word1": ({"help": "override the first band"}, None),
    "--word2": ({"help": "override the second band"}, None),
    "--arrow": ({}, None),
    "--all": ({"action": "store_true", "help": "check every arrow"}, None),
    "--depth": ({"type": int}, ("DEPTH", int, 6)),
    "--module": ({"metavar": "PATH"}, None),
    "--simple": ({"metavar": "VERTEX"}, None),
    "--period": ({"type": int, "default": 4}, None),
    "--trials": ({"type": int}, ("TRIALS", int, 20)),
    "--seed": ({"type": int}, ("SEED", int, 0)),
    "--steps": ({"type": int, "default": 4}, None),
    "--out": ({"metavar": "PATH"}, None),
}

# Each option that a variable can set, by its argparse dest.
_ENV_OPTIONS = {flag[2:].replace("-", "_"): env
                for flag, (_, env) in OPTIONS.items() if env}

_KX2 = {"choices": fixtures.BUILTIN_NAMES + ("kx2",)}

# (name, help, function, flags); a flag given as (flag, keywords) overrides
# those keywords of its OPTIONS row for this command.
_COMMANDS = (
    ("build", "validate a triangulation, emit quiver", cmd_build,
     ("--builtin", "--input",
      ("--format", {"choices": ("text", "json", "dot")}), "--out")),
    ("algebra", "finite basis and invariants", cmd_algebra,
     (("--builtin", _KX2), "--input", "--field", "--max-deg",
      "--path-budget", "--format", "--out")),
    ("bands", "count bands, report growth; --words lists them", cmd_bands,
     ("--builtin", "--input", "--max-len", "--words", "--format", "--out")),
    ("certify-growth", "free-composability certificate for a band pair",
     cmd_certify_growth,
     ("--builtin", "--input", "--word1", "--word2",
      ("--arrow", {"help": "arrow for the cycle-flank construction"}),
      "--depth",
      ("--max-len",
       {"help": "length bound for the reported band-count table"}),
      "--out")),
    ("xi", "cycle-flank word of an arrow", cmd_xi,
     ("--builtin", "--input", "--arrow", "--all")),
    ("periodicity", "syzygy periodicity of modules", cmd_periodicity,
     (("--builtin", _KX2), "--input", "--field", "--max-deg",
      ("--module", {"help": "module file (algebra spec, dims, matrices)"}),
      ("--simple", {"help": "check one simple module instead of all"}),
      "--period", "--trials", "--seed", "--out")),
    ("syzygy", "syzygy dimension chain", cmd_syzygy,
     (("--builtin", _KX2), "--input", "--field", "--max-deg", "--module",
      "--simple", "--steps")),
    ("verify", "replay a certificate file", cmd_verify,
     (("--input", {"required": True, "help": None}),)),
)


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="surfalg",
        description="quivers with potential from surface triangulations: "
                    "algebras, bands, growth and periodicity certificates")
    sub = ap.add_subparsers(dest="command")
    choices = {}
    for name, help_, func, flags in _COMMANDS:
        sp = sub.add_parser(name, help=help_)
        for flag in flags:
            flag, override = (flag, {}) if isinstance(flag, str) else flag
            action = sp.add_argument(flag, **dict(OPTIONS[flag][0], **override))
            if action.choices:
                choices[name, action.dest] = action.choices
        sp.set_defaults(func=func)
    return ap, choices


# The parser, and each command's choices for a flag, by (command, dest):
# a value read from a variable is checked against them, as argparse checks
# the flag.
PARSER, _CHOICES = _build_parser()


def run_with_exit_codes(func, *args):
    """Call func(*args); report a library error on stderr as one `error:`
    line and return its exit code (3 no stabilization, 2 bad input), or
    return 141, silently, when stdout's pipe is closed."""
    try:
        code = func(*args)
        # flush here, so that a closed pipe shows as a BrokenPipeError below
        # and not at the interpreter's final flush, when stdout is buffered
        sys.stdout.flush()
        return code
    except algebra.NonStabilizationError as e:
        print("error: %s" % e, file=sys.stderr)
        return 3
    except (ValueError, KeyError) as e:
        msg = e.args[0] if e.args else str(e)
        print("error: %s" % msg, file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader of stdout has gone, which is not bad input: exit as a
        # shell reports a command ended by SIGPIPE.  Every other write that
        # can break a pipe (--out) reports its own error instead.
        _stdout_to_devnull()
        return 141
    except OSError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2


def _stdout_to_devnull():
    """Point stdout's descriptor at devnull, so that what is still buffered
    goes there at the final flush; a stdout with no descriptor of its own
    (a StringIO under redirect_stdout) is left as it is."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, fd)
    finally:
        os.close(devnull)


def _run(args):
    for dest, env in _ENV_OPTIONS.items():
        if getattr(args, dest, 0) is None:  # declared, and left unset
            value = _env(*env)
            choices = _CHOICES.get((args.command, dest))
            if choices and value not in choices:
                raise ValueError(
                    "environment variable SURFALG_%s=%r is not one of %s"
                    % (env[0], value, ", ".join(choices)))
            setattr(args, dest, value)
    return args.func(args)


def main(argv=None):
    try:
        args = PARSER.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    if not getattr(args, "func", None):
        PARSER.print_help()
        return 2
    return run_with_exit_codes(_run, args)


if __name__ == "__main__":
    sys.exit(main())
