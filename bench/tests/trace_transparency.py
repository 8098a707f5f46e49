"""Tracing must not change what the library computes.

One operation per workload runs untraced and then twice traced, at the
default seed.  The traced reports must equal the untraced ones byte for
byte, call counts must repeat exactly between the two traced runs, and
every per-layer metric must read spans that fire on some workload.

It takes a few minutes, so the file name keeps it out of the default test
collection; run it by path:

    python3 -m pytest -q bench/tests/trace_transparency.py
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

from run import setup  # noqa: E402
from tracer import PER_LAYER, Tracer, spans_read  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, run_op  # noqa: E402


def traced_op(problems, jobs):
    tracer = Tracer().install()
    try:
        tracer.begin_op()
        outputs = run_op(problems, jobs, DEFAULT_SEED)
    finally:
        tracer.uninstall()
    return outputs, tracer


@pytest.fixture(scope="module")
def runs():
    out = {}
    for workload in WORKLOADS:
        problems, jobs = setup(workload, DEFAULT_SEED)
        untraced = run_op(problems, jobs, DEFAULT_SEED)
        first, tracer1 = traced_op(problems, jobs)
        second, tracer2 = traced_op(problems, jobs)
        out[workload] = (untraced, first, second,
                         tracer1.stats(), tracer2.stats())
    return out


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_reports_are_byte_identical(runs, workload):
    untraced, first, second, _, _ = runs[workload]
    assert first == untraced
    assert second == untraced


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_call_counts_repeat(runs, workload):
    *_, stats1, stats2 = runs[workload]
    calls1 = {name: st["calls"] for name, st in stats1.items()}
    calls2 = {name: st["calls"] for name, st in stats2.items()}
    assert calls1 == calls2


def test_every_per_layer_metric_fires(runs):
    fired = set()
    for *_, stats1, _ in runs.values():
        fired.update(name for name, st in stats1.items() if st["calls"])
    silent = [(m, name) for m in PER_LAYER for name in spans_read(m)
              if name not in fired]
    assert silent == []

