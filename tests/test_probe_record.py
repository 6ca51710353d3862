"""Probe records: ``OracleSession`` writes one flat record per judged
candidate, for the GA and for every Phase II probe alike.

Each session call given a ``pass_level`` writes exactly one record, cache
hits included; the records that are not cache hits number the session's
oracle invocations; ``seq`` counts the records of a session from 0 across
its ``.ga.jsonl`` and ``.hdd.jsonl`` files; and a call the budget stops
writes nothing.
"""

from __future__ import annotations

import json

import pytest

from ctxdistill.code_model import build_tree
from ctxdistill.config import RunConfig
from ctxdistill.ga_search import GAConfig
from ctxdistill.hdd import minimize
from ctxdistill.instance import load_instance
from ctxdistill.oracle import (
    TRACE_SCHEMA_VERSION,
    MockOracle,
    OracleBudgetExhausted,
    OracleConfig,
    OracleSession,
)
from ctxdistill.pipeline import distill_instance

from fixtures import module_with_functions, write_instance

COMMON_KEYS = {
    "schema_version", "seq", "pass_level", "candidate_hash", "size",
    "cache_hit", "sufficient", "passes", "samples",
}
PHASE_KEYS = {
    "ga": {"generation", "fitness"},
    **dict.fromkeys(("verify", "file", "function", "block", "certify"), {"removed_count"}),
}


def _count_probes(session_or_class, monkeypatch):
    """Count the ``evaluate`` calls given a ``pass_level`` that return
    and that raise ``OracleBudgetExhausted``."""
    counts = {"returned": 0, "exhausted": 0}
    evaluate = session_or_class.evaluate

    def counting(*args, **kwargs):
        try:
            verdict = evaluate(*args, **kwargs)
        except OracleBudgetExhausted:
            counts["exhausted"] += "pass_level" in kwargs
            raise
        counts["returned"] += "pass_level" in kwargs
        return verdict

    monkeypatch.setattr(session_or_class, "evaluate", counting)
    return counts


def _check_records(records, invocations, probes):
    assert len(records) == probes
    assert [r["seq"] for r in records] == list(range(len(records)))
    assert sum(not r["cache_hit"] for r in records) == invocations
    for record in records:
        assert record["schema_version"] == TRACE_SCHEMA_VERSION == 2
        assert set(record) == COMMON_KEYS | PHASE_KEYS[record["pass_level"]]


def test_distill_with_the_ga_writes_one_record_per_probe(tmp_path, monkeypatch):
    instance_path = write_instance(
        tmp_path / "inst.json",
        tmp_path / "repo",
        {"pkg/core.py": module_with_functions(3, "core"), "pkg/util.py": module_with_functions(2, "util")},
        fault_locations=[{"path": "pkg/core.py", "line": 2}],
        mock_required=[{"path": "pkg/core.py", "line": 2}],
        mock_distractors=[{"path": "pkg/util.py", "line": 2}],
    )
    counts = _count_probes(OracleSession, monkeypatch)
    config = RunConfig(ga=GAConfig(population_size=8, max_generations=5, rng_seed=3))
    traces = tmp_path / "traces"
    record = distill_instance(load_instance(instance_path), config, trace_dir=traces).record

    ga = [json.loads(line) for line in (traces / "inst-0.ga.jsonl").read_text().splitlines()]
    hdd = [json.loads(line) for line in (traces / "inst-0.hdd.jsonl").read_text().splitlines()]
    assert ga and hdd
    assert {r["pass_level"] for r in ga} == {"ga"}
    assert "ga" not in {r["pass_level"] for r in hdd}
    assert any(r["cache_hit"] for r in ga + hdd)
    _check_records(sorted(ga + hdd, key=lambda r: r["seq"]), record.oracle_calls, counts["returned"])
    assert counts["exhausted"] == 0


@pytest.mark.parametrize("budget,stopped", [(10_000, False), (9, True), (4, True), (1, True)])
def test_minimize_writes_one_record_per_probe_and_none_when_stopped(budget, stopped, monkeypatch):
    tree = build_tree("t", [("a.py", module_with_functions(4, "a")), ("b.py", module_with_functions(3, "b"))])
    leaves = [seg.id for seg in tree.leaves]
    records = []
    session = OracleSession(
        MockOracle(leaves[1:3]), "inst-1", OracleConfig(eval_budget=budget), records.append
    )
    counts = _count_probes(session, monkeypatch)
    result = minimize(frozenset(leaves), tree, session, dict.fromkeys(tree.unit_order, 0.0))

    assert session.exhausted == stopped
    assert counts["exhausted"] == stopped
    _check_records(records, session.invocations, counts["returned"])
    # the start set is taken as accepted: the first probe is file-level,
    # drawn from all of it
    first = records[0]
    assert (first["pass_level"], first["size"] + first["removed_count"]) == ("file", len(leaves))
    if not stopped:
        assert any(r["cache_hit"] for r in records)
        assert records[-1]["pass_level"] == "certify"
