"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/baseline.py [--out perfbench/baseline.json]

For every workload of BENCHMARK.json it runs run.py for run_seconds once per
seed in SEEDS with --trace 0, then once with --trace 1 on the first seed.
It prints, for each end-to-end metric, the median, the quartiles
(statistics.quantiles, n=4) and the spread, the distance between the
quartiles as a share of the median, next to a third of the metric's bound
from BENCHMARK.json; it exits with 1 if any spread is not below that.
With --out it writes the summary, with its sample counts and the machine's
description, as JSON.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = list(range(10))


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": statistics.median(values),
            "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)

    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    doc = {"seconds": seconds, "seeds": SEEDS, "workloads": {},
           "machine": {"nproc": len(os.sched_getaffinity(0)),
                       "python": platform.python_version(),
                       "platform": platform.platform()}}
    steady = True
    for w in (w["name"] for w in spec["workloads"]):
        values, failed, attempted = {}, 0, 0
        for seed in SEEDS:
            res = run(w, seed, seconds, 0)
            failed += res["failed"]
            attempted += res["attempted"]
            for k, v in res["metrics"].items():
                values.setdefault(k, []).append(v["value"])
            print("%s seed %d: %s" % (w, seed, " ".join(
                "%s=%.4g" % (k, v["value"])
                for k, v in res["metrics"].items())), flush=True)
        e2e = {k: summary(v) for k, v in values.items()}
        for k, s in e2e.items():
            ok = s["spread"] < bounds[k] / 3
            steady = steady and ok
            print("  %-14s %-13s median %.4g  q1 %.4g  q3 %.4g  spread "
                  "%.3f  (bound/3 %.3f)%s" % (
                      w, k, s["median"], s["q1"], s["q3"], s["spread"],
                      bounds[k] / 3, "" if ok else "  WIDE"), flush=True)
        traced = run(w, SEEDS[0], seconds, 1)
        doc["workloads"][w] = {
            "attempted": attempted, "failed": failed, "end_to_end": e2e,
            "per_layer_seed%d" % SEEDS[0]: {
                k: v["value"] for k, v in traced["metrics"].items()}}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
