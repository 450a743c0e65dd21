#!/usr/bin/env python3
"""Survey band growth across the bundled word presentations.

For each presentation the script counts the bands up to a length bound,
exactly and without listing them (strings.band_counts), and prints the
count table with the per-length growth rates count^(1/length).  The
sphere-5 presentation is the skewed-gentle one with special loops; torus
and genus2 are the string quotients by the compositions x f(x).
"""

import argparse
import json
import sys

from surfalg import certificates, strings


def survey(names, max_len):
    out = []
    for name in names:
        pres = certificates.presentation_from_spec(
            certificates.presentation_spec({"builtin": name}))
        out.append((name, strings.growth_report(
            strings.band_counts(pres, max_len))))
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--presentations", nargs="+",
                    default=["sphere5", "torus", "genus2"],
                    choices=["sphere5", "torus", "genus2"])
    ap.add_argument("--max-len", type=int, default=16)
    ap.add_argument("--json", action="store_true",
                    help="emit one JSON object instead of tables")
    args = ap.parse_args(argv)

    reports = survey(args.presentations, args.max_len)
    if args.json:
        doc = {
            name: {
                "counts": {str(d): c for d, c in rep["counts"].items()},
                "max_rate": rep["max_rate"],
                "argmax_length": rep["argmax_length"],
                "total": rep["total"],
            }
            for name, rep in reports
        }
        print(json.dumps(doc, indent=2))
        return 0

    for name, rep in reports:
        print("%s (%s), bands up to length %d"
              % (name, rep["presentation"], args.max_len))
        print("\n".join(strings.growth_table(rep, indent="  ")))
        print("  total %d, max rate %.4f at length %d"
              % (rep["total"], rep["max_rate"], rep["argmax_length"]))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
