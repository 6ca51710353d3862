"""Phase II starts from a set the oracle has accepted, judged once.

With the GA, ``minimize`` starts from the set the GA's last probe
accepted and does not judge it again; without the GA, the pipeline
judges the whole context with one ``verify`` probe.  So with the verdict
cache off, where every probe is a fresh oracle call, a distill makes
exactly as many calls as a cached distill writes probe records.
"""

from __future__ import annotations

import json
import random
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from ctxdistill.config import RunConfig
from ctxdistill.ga_search import GAConfig
from ctxdistill.instance import build_instance_tree, load_instance
from ctxdistill.oracle import MockOracle, OracleConfig
from ctxdistill.pipeline import distill_instance

from fixtures import module_with_functions, pick_leaves, random_module, write_instance

GA = GAConfig(population_size=8, max_generations=5, rng_seed=3)


def _records(trace_dir: Path) -> list[dict]:
    """Every probe record of the traces in ``trace_dir``, in ``seq`` order."""
    lines = [line for path in trace_dir.glob("*.jsonl") for line in path.read_text().splitlines()]
    return sorted(map(json.loads, lines), key=lambda r: r["seq"])


def test_without_cache_the_ga_accepted_set_is_judged_once(tmp_path):
    """The GA searches past its all-on genome (a distractor), and Phase II
    begins from the set it accepted without a second oracle call."""
    instance_path = write_instance(
        tmp_path / "inst.json",
        tmp_path / "repo",
        {"pkg/core.py": module_with_functions(3, "core"), "pkg/util.py": module_with_functions(2, "util")},
        fault_locations=[{"path": "pkg/core.py", "line": 2}],
        mock_required=[{"path": "pkg/core.py", "line": 2}],
        mock_distractors=[{"path": "pkg/util.py", "line": 2}],
    )
    config = RunConfig(ga=GA, oracle=OracleConfig(cache_enabled=False))
    record = distill_instance(load_instance(instance_path), config, trace_dir=tmp_path / "t").record
    records = _records(tmp_path / "t")

    accepted = [r for r in records if r["pass_level"] == "ga" and r["sufficient"]]
    assert len(accepted) == 1 and accepted[0]["seq"] > 0
    assert [r["candidate_hash"] for r in records].count(accepted[0]["candidate_hash"]) == 1
    assert "verify" not in {r["pass_level"] for r in records}
    assert record.oracle_calls == len(records)
    assert record.one_minimal_certified


def _distill(instance_path: Path, required: frozenset[str], use_ga: bool, cache: bool, trace_dir: Path):
    config = RunConfig(ga=GA, oracle=OracleConfig(cache_enabled=cache))
    instance = load_instance(instance_path)
    record = distill_instance(
        instance, config, oracle=MockOracle(required), use_ga=use_ga, trace_dir=trace_dir
    ).record
    return record, _records(trace_dir)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), use_ga=st.booleans())
def test_the_cache_changes_calls_but_never_the_retained_set(seed, use_ga):
    rng = random.Random(seed)
    files = {f"pkg/mod{i}.py": random_module(rng) for i in range(rng.randint(1, 3))}
    with tempfile.TemporaryDirectory(prefix="start-probe-") as work:
        work = Path(work)
        instance_path = write_instance(work / "inst.json", work / "repo", files)
        tree = build_instance_tree(load_instance(instance_path))
        required = pick_leaves(rng, tree, rng.randint(1, 4))

        cached, cached_records = _distill(instance_path, required, use_ga, True, work / "on")
        fresh, fresh_records = _distill(instance_path, required, use_ga, False, work / "off")

    assert fresh.minimal_leaf_ids == cached.minimal_leaf_ids == required
    assert fresh.one_minimal_certified == cached.one_minimal_certified is True
    assert fresh.oracle_calls == len(cached_records) == len(fresh_records)
    # Phase II's start set is judged by exactly one probe
    start = fresh_records[0]
    assert start["pass_level"] == ("ga" if use_ga else "verify") and start["sufficient"]
    assert [r["candidate_hash"] for r in fresh_records].count(start["candidate_hash"]) == 1
