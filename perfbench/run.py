"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
src/ directory, nothing needs installing.  The workload runs in a child
process (worker.py) with numeric libraries held to one thread; with
--trace 0 SETUP_SAMPLES - 1 more children time the set-up alone, and
setup_s is the median of all of them.  The last line of stdout is a JSON
object with the keys correct, attempted, failed and metrics, holding the
end-to-end metrics of BENCHMARK.json (--trace 0) or its per-layer metrics
(--trace 1).
A fuller record, with the machine's description and every round's
timings, is written to perfbench/_results/.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "_results")
SETUP_SAMPLES = 15
CHILD_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: %s" % msg, file=sys.stderr)
    return 2


def child_env():
    # surfalg.cli reads SURFALG_* variables for flags a command leaves out;
    # dropping them keeps the work measured the same in every environment.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("SURFALG_")}
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    # Fixed hashing keeps set and dict iteration, and so the work done,
    # the same from run to run.
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv, deadline):
    """Run worker.py to completion; returns its last stdout line as JSON."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + argv
    left = deadline - time.monotonic()
    if left <= 0:
        raise RuntimeError("no time left to start %s" % " ".join(argv))
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), timeout=left,
                          stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError("worker exited with code %d" % proc.returncode)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("worker printed no result")
    return json.loads(lines[-1])


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "surfalg", "cli.py")):
        return fail("no src/surfalg/ next to %s; run from a source checkout"
                    % os.path.basename(HERE))
    try:
        declared = declared_metrics(args.trace)
    except (OSError, ValueError, KeyError) as e:
        return fail("cannot read BENCHMARK.json: %s" % e)

    deadline = time.monotonic() + CHILD_TIMEOUT_S
    os.makedirs(RESULTS, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    workdir = tempfile.mkdtemp(prefix="work-%s-" % tag, dir=RESULTS)
    load_before = os.getloadavg()
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--workdir", workdir]
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(run_child(common + ["--seconds", "0",
                                                  "--setup-only"],
                                        deadline)["setup_s"])
        rec = run_child(common + [
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--trace-out", os.path.join(RESULTS, "trace-%s.json" % tag)],
            deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
        return fail(str(e))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(rec["setup_s"])

    metrics = dict(rec["metrics"])
    metrics["setup_s"] = statistics.median(setups)
    missing = sorted(set(declared) - set(metrics))
    if missing:
        return fail("worker did not measure %s" % ", ".join(missing))
    result = {
        "correct": rec["failed"] == 0,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()},
    }
    with open(os.path.join(RESULTS, "%s.json" % tag), "w",
              encoding="utf-8") as fh:
        json.dump({
            "argv": sys.argv[1:], "result": result,
            "all_metrics": metrics, "setup_samples": setups,
            "ops": rec["ops"], "rounds": rec["rounds"],
            "machine": {
                "nproc": len(os.sched_getaffinity(0)), "python": rec["python"],
                "numpy": rec["numpy"], "platform": platform.platform(),
                "loadavg_before": load_before,
                "loadavg_after": os.getloadavg()},
        }, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
