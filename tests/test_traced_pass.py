"""A traced benchmark pass accounts for all of each instance's time.

``perfbench/run.py --trace 1`` checks that the self times of the traced
layers add up to the ``bench.instance`` spans, and exits 1 when they do
not.  A public function called outside that span, before or after the
instance's work, breaks the sum.  This runs the same traced pass on two
small instances of every workload, so such a call fails here and not
only in a benchmark run.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [p for p in (str(ROOT / "src"), str(ROOT / "perfbench")) if p not in sys.path]

import gen
import workloads
from tracing import Tracer


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_layer_self_times_add_up_to_the_instance_time(tmp_path, workload):
    planted = gen.generate(workload, 1, tmp_path / "instances", count=2)
    run = workloads.runner(workload)
    trace_dir = tmp_path / "trace"
    tracer = Tracer(workloads.OBSERVERS)
    tracer.install()
    try:
        outcomes = []
        for k, instance in enumerate(planted):
            tracer.current_instance = k
            outcomes.append(run(instance, trace_dir, tracer))
    finally:
        tracer.uninstall()
    workloads.per_layer(tracer, len(planted), trace_dir)
    assert [outcome.problems for outcome in outcomes] == [[]] * len(planted)
    totals = tracer.totals()
    layer_total = sum(workloads.layer_self_times(totals).values())
    assert layer_total == pytest.approx(totals["bench.instance"]["s"], rel=1e-6)
