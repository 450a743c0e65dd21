"""One benchmark process: set up a workload, then run it in a closed loop.

Started by run.py, one process per workload run, with PYTHONPATH pointing
at the checkout's src/.  A single client runs the workload's commands one
after another, each starting when the previous one has returned, and
repeats whole rounds until the time is spent.  Every command's output is
checked against reference.json.  The last line of stdout is a JSON record
for run.py.

With --trace 1 the rounds alternate between untraced and traced; the
per-layer figures come from the traced rounds and the tracing overhead
from comparing the two kinds.

Each run relabels its inputs VARIANTS ways (all drawn from the seed) and
the rounds cycle through them, so that one labelling's cost does not set
a run's figures.

The speed of a shared machine drifts by 20-30% over seconds, for CPU time
as much as for wall time.  So fixed calibration kernels, part of this
benchmark and not of the program, run between every two commands: a dict
and tuple kernel for interpreted code and a row-reduction kernel for numpy
arithmetic.  Each command's time is divided by their slowness around it,
the geometric mean of their times over their times at the reference speed
(REFERENCE_S).  Reported times are thus seconds at the reference speed
(unit ref_s; setup_s keeps the unit s).  Raw times and kernel slowness
are kept in the result file.
"""

import argparse
import collections
import json
import os
import resource
import statistics
import sys
import time

T0 = time.perf_counter()

import numpy  # noqa: E402

import check  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_PLAIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 2
VARIANTS = 3
# Each kernel's median time on a 2-vCPU x86-64 VM with Python 3.11 and
# numpy 2.4, so that scaled figures read as seconds on that machine.
REFERENCE_S = {"python": 0.007, "rowreduce": 0.0046}
# Workloads whose commands are scaled by a subset of the kernels; all other
# commands, and every set-up (imports and input generation, interpreted
# code whatever the workload), use all of them.  periodicity's commands
# spend their time in numpy row reduction: scaled by both kernels, its
# slowest_op_s and verify_s spread by 0.10 over ten seeds, above a third of
# their bound; by the row-reduction kernel alone, by 0.03 to 0.04.  Its
# set-up scaled by the row-reduction kernel alone spread by 0.12.
SCALE_KERNELS = {"periodicity": ("rowreduce",)}
PRIME = 32003
MATRIX = numpy.random.default_rng(0).integers(
    0, PRIME, size=(60, 150), dtype=numpy.int64)


def _python_kernel():
    d = {}
    for i in range(20000):
        k = (i % 97, i % 13)
        d[k] = d.get(k, 0) + i


def _rowreduce_kernel():
    a = MATRIX % PRIME
    r = 0
    for c in range(a.shape[1]):
        if r == a.shape[0]:
            break
        nz = numpy.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        a[[r, i]] = a[[i, r]]
        a[r] = a[r] * pow(int(a[r, c]), PRIME - 2, PRIME) % PRIME
        col = a[:, c].copy()
        col[r] = 0
        a = (a - numpy.outer(col, a[r])) % PRIME
        r += 1


KERNELS = {"python": _python_kernel, "rowreduce": _rowreduce_kernel}


def slowness(kernels=tuple(KERNELS)):
    """Geometric mean over the kernels of time taken / reference time."""
    prod = 1.0
    for name in kernels:
        start = time.perf_counter()
        KERNELS[name]()
        prod *= (time.perf_counter() - start) / REFERENCE_S[name]
    return prod ** (1.0 / len(kernels))


class Runner:
    """Runs commands, checks each against the reference, counts failures."""

    def __init__(self, variants, reference, kernels):
        self.variants = variants
        self.ops = variants[0]
        self.reference = reference
        self.kernels = kernels
        self.attempted = 0
        self.failed = 0

    def run(self, op):
        start = time.perf_counter()
        rc, out, err = workloads.call(op.argv)
        elapsed = time.perf_counter() - start
        got = check.invariants(op.argv, rc, out, op.amap, op.vertices)
        want = self.reference.get(op.key)
        self.attempted += 1
        if got != want:
            self.failed += 1
            print("FAILED %s: %s\n  differs in %s\n  stderr: %s" % (
                op.key, " ".join(op.argv),
                check.diff(want or {}, got), err.strip()[:300]),
                file=sys.stderr)
        return elapsed

    def round(self, index, tracer=None):
        """One pass over the commands of variant index % VARIANTS.

        Returns raw and reported times per command, the kernels' slowness
        around them, and the round's overall scale.
        """
        slow = [slowness(self.kernels)]
        raw = []
        for op in self.variants[index % len(self.variants)]:
            if tracer is not None:
                tracer.round, tracer.op = index, op.key
            raw.append(self.run(op))
            slow.append(slowness(self.kernels))
        scaled = [t * 2 / (slow[i] + slow[i + 1]) for i, t in enumerate(raw)]
        return {"raw": raw, "slowness": slow, "scaled": scaled,
                "scale": 1.0 / statistics.median(slow)}


def setup(workload, seed, workdir):
    """Imports (timed from process start), inputs and a warm-up pass."""
    variants = []
    for k in range(VARIANTS):
        sub = os.path.join(workdir, "v%d" % k)
        os.makedirs(sub, exist_ok=True)
        variants.append(workloads.build(workload, [seed, k], sub))
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    runner = Runner(variants, reference,
                    SCALE_KERNELS.get(workload, tuple(KERNELS)))
    for op in variants[0]:
        if op.key.startswith("touch/"):
            runner.run(op)
    runner.attempted = runner.failed = 0
    elapsed = time.perf_counter() - T0
    return runner, elapsed / statistics.median(
        slowness() for _ in range(5))


def _median_dict(rows):
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def _long_enough(start, seconds, needed, *kinds):
    """Whether another round of each kind would overrun the time."""
    if len(kinds[0]) < needed:
        return False
    typical = sum(statistics.median(sum(r["raw"]) for r in rounds)
                  for rounds in kinds)
    return time.perf_counter() - start + typical > seconds


def measure(runner, seconds):
    """Untraced closed loop; returns the end-to-end figures."""
    rounds = []
    start = time.perf_counter()
    while not _long_enough(start, seconds, MIN_PLAIN_ROUNDS, rounds):
        rounds.append(runner.round(len(rounds)))
    per_op = [statistics.median(col)
              for col in zip(*(r["scaled"] for r in rounds))]
    verify = [i for i, op in enumerate(runner.ops) if op.is_verify]
    return rounds, {
        "wall_s": statistics.median(sum(r["scaled"]) for r in rounds),
        "slowest_op_s": max(per_op),
        "verify_s": statistics.median(sum(r["scaled"][i] for i in verify)
                                      for r in rounds),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def measure_traced(runner, seconds, trace_path):
    """Alternating untraced and traced rounds; returns per-layer figures."""
    tracer = tracing.Tracer()
    plain, traced, layers = [], [], []
    # An uncounted first round keeps first-touch costs (page faults as the
    # heap grows) out of the traced-versus-untraced comparison.
    runner.round(0)
    start = time.perf_counter()
    while not _long_enough(start, seconds, MIN_TRACED_ROUNDS, plain, traced):
        plain.append(runner.round(len(plain)))
        first_span, counts = len(tracer.spans), collections.Counter(
            tracer.counts)
        tracer.install()
        try:
            traced.append(runner.round(len(traced), tracer))
        finally:
            tracer.uninstall()
        row = tracing.layer_metrics(tracer.spans[first_span:],
                                    tracer.counts - counts)
        scale = traced[-1]["scale"]
        layers.append({k: v * scale if k.endswith("_s") else v
                       for k, v in row.items()})
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump({"ops": [op.key for op in runner.ops],
                   "spans": tracer.spans}, fh)
    out = _median_dict(layers)
    out["trace.overhead_ratio"] = (
        statistics.median(sum(r["scaled"]) for r in traced)
        / statistics.median(sum(r["scaled"]) for r in plain) - 1.0)
    return {"plain": plain, "traced": traced}, out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace-out", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    runner, setup_s = setup(args.workload, args.seed, args.workdir)
    record = {"setup_s": setup_s}
    if not args.setup_only:
        if args.trace:
            rounds, metrics = measure_traced(runner, args.seconds,
                                             args.trace_out)
        else:
            rounds, metrics = measure(runner, args.seconds)
        record.update(
            metrics=metrics, rounds=rounds,
            ops=[op.key for op in runner.ops],
            attempted=runner.attempted, failed=runner.failed,
            numpy=numpy.__version__, python=sys.version.split()[0])
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
