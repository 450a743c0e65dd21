"""The benchmark's traced counters for one round, with their exact values.

The benchmark step of the CI workflow asserts these counters on a traced
`perfbench/run.py --seed 0 --trace 1` run, where each is the median over
rounds of a round's count; every round counts the same.  Here one round of
the seed's first input variant, [0, 0], runs in-process under the tracer,
loaded from perfbench/ as tests/test_tracing_names.py loads it.
"""

import importlib.util
import pathlib
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"

PINS = {
    # one Hom dimension total and trial count per round, one syzygy chain
    # and one omega^4 test per module in `periodicity` and none in `verify`,
    # and the matrices that round hands to rref
    "periodicity": {"homology.hom_dim": 36, "homology.iso_trials": 7,
                    "homology.syzygy_calls": 60,
                    "homology.iso_check_calls": 12,
                    "linalg.rref_calls": 464, "linalg.rref_cells": 56535},
    # every pattern but 16 decided by primitivity alone
    "growth_certify": {"strings.is_band_calls.in_free_composability": 16,
                       "strings.necklaces": 352,
                       "certificates.bytes": 22266},
}


def _load(name):
    spec = importlib.util.spec_from_file_location(
        "perfbench_" + name, PERFBENCH / ("%s.py" % name))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def perfbench(monkeypatch):
    # workloads imports its input generator as the top-level name `inputs`
    monkeypatch.setitem(sys.modules, "inputs", _load("inputs"))
    return _load("workloads"), _load("tracing")


@pytest.mark.parametrize("workload", sorted(PINS))
def test_one_traced_round_counts_the_pinned_values(perfbench, tmp_path,
                                                   workload):
    workloads, tracing = perfbench
    ops = workloads.build(workload, [0, 0], str(tmp_path))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        codes = [workloads.call(op.argv)[0] for op in ops]
    finally:
        tracer.uninstall()
    assert codes == [0] * len(ops)
    metrics = tracing.layer_metrics(tracer.spans, tracer.counts)
    assert {k: metrics[k] for k in PINS[workload]} == PINS[workload]
