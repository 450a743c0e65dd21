"""Record reference.json: the expected invariants of every benchmark command.

Runs each workload's commands once on the bundled labels and once for each
seed in SEEDS, and writes the invariants only if every run agrees; a
disagreement between seeds is a defect of the program (its answers would
depend on the labelling) and is reported instead of recorded.

    PYTHONPATH=src python3 perfbench/record_reference.py
"""

import json
import os
import shutil
import sys
import tempfile

import check
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")
SEEDS = [0, 1, 2]


def observe(workload, seed, workdir):
    """Invariants of one round of a workload, by reference key."""
    out = {}
    for op in workloads.build(workload, seed, workdir):
        rc, text, _ = workloads.call(op.argv)
        out[op.key] = check.invariants(op.argv, rc, text, op.amap,
                                       op.vertices)
    return out


def main():
    reference = {}
    ok = True
    results = os.path.join(HERE, "_results")
    os.makedirs(results, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="record-", dir=results)
    try:
        for w in workloads.WORKLOADS:
            base = observe(w, None, workdir)
            for seed in SEEDS:
                seen = observe(w, seed, workdir)
                for key in base:
                    if seen[key] != base[key]:
                        ok = False
                        print("%s: seed %d disagrees with the bundled labels "
                              "in %s" % (key, seed,
                                         check.diff(base[key], seen[key])),
                              file=sys.stderr)
            reference.update(base)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not ok:
        return 1
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote %d records to %s" % (len(reference), REFERENCE))
    return 0


if __name__ == "__main__":
    sys.exit(main())
