#!/usr/bin/env python3
"""Tabulate syzygy periodicity for the simples of a bundled algebra.

For every simple module the script prints the four-step syzygy dimension
chain, the isomorphism verdict against the fourth syzygy, and the tube
rank (1 if the translate fixes the module, 2 if its square does).
Invalid options print one `error:` line to stderr and exit 2 (3 when the
algebra does not stabilize), through the same `cli.run_with_exit_codes`
as the `surfalg` command.
"""

import argparse
import sys

from surfalg import algebra, certificates, cli, homology
from surfalg.linalg import DEFAULT_PRIME


def _table(args):
    a = certificates.algebra_from_spec(
        {"builtin": args.builtin, "field": args.field,
         "max_deg": args.max_deg})
    results = [
        homology.check_periodicity(a, homology.simple_module(a, v),
                                   period=args.period,
                                   trials=args.trials, seed=args.seed)
        for v in sorted(a.quiver.vertices)]
    print("algebra %s over F_%d, dimension %d"
          % (args.builtin, args.field, a.dim))
    print("%-10s %-12s %-9s %s" % ("simple", "verdict", "tube rank",
                                   "syzygy dimension chain"))
    exit_code = 0
    for v, res in zip(sorted(a.quiver.vertices), results):
        try:
            rank = homology.tube_rank(a, res)
        except ValueError:
            rank = None
        chain = " -> ".join(str(list(dv)) for dv in res.dim_chain)
        print("%-10s %-12s %-9s %s"
              % ("S(%s)" % v, res.verdict, rank if rank else "-", chain))
        if res.verdict != "periodic":
            exit_code = 1
    return exit_code


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--builtin", default="torus",
                    choices=["torus", "tetra", "kx2"],
                    help="algebra to analyze (must stabilize)")
    ap.add_argument("--field", type=int, default=DEFAULT_PRIME)
    ap.add_argument("--max-deg", type=int, default=algebra.DEFAULT_MAX_DEG)
    ap.add_argument("--period", type=int, default=4)
    ap.add_argument("--trials", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    if args.builtin == "tetra":
        # the plain potential does not stabilize on tetra; there is no
        # scalar hook in the spec format, so refuse early with context
        print("tetra needs a twisted puncture scalar; use the library "
              "directly (qp.build_potential with puncture_scalars)",
              file=sys.stderr)
        return 2
    return cli.run_with_exit_codes(_table, args)


if __name__ == "__main__":
    sys.exit(main())
