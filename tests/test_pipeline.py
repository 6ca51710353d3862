"""End-to-end distillation pipeline tests (mock oracle)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ctxdistill.code_model import build_tree, leaf_segments
from ctxdistill.config import RunConfig, load_run_config
from ctxdistill.dataset import STATUS_MINIMIZED, STATUS_UNMINIMIZED
from ctxdistill.ga_search import GAConfig
from ctxdistill.instance import load_instance
from ctxdistill.oracle import OracleConfig
from ctxdistill.pipeline import build_mock_oracle, distill_instance

from fixtures import module_with_functions, write_instance


def _config(seed=5, budget=500):
    return RunConfig(
        ga=GAConfig(population_size=8, max_generations=5, rng_seed=seed),
        oracle=OracleConfig(eval_budget=budget),
    )


FILES = {
    "pkg/core.py": module_with_functions(3, "core"),
    "pkg/util.py": module_with_functions(2, "util"),
}


def _leaf_for(tree, path, index=0):
    return [s for s in leaf_segments(tree) if s.path == path][index]


def test_distill_with_planted_required(tmp_path):
    instance_path = write_instance(
        tmp_path / "inst.json",
        tmp_path / "repo",
        FILES,
        fault_locations=[{"path": "pkg/core.py", "line": 2}],
        mock_required=[{"path": "pkg/core.py", "line": 2}, {"path": "pkg/util.py", "line": 2}],
    )
    instance = load_instance(instance_path)
    outcome = distill_instance(instance, _config(), trace_dir=tmp_path / "traces")

    record = outcome.record
    assert record.status == STATUS_MINIMIZED
    assert record.one_minimal_certified
    tree = build_tree(instance.instance_id, [(p, (tmp_path / "repo" / p).read_text()) for p in FILES])
    expected = {
        _leaf_for(tree, "pkg/core.py", 0).id,
        _leaf_for(tree, "pkg/util.py", 0).id,
    }
    assert record.minimal_leaf_ids == frozenset(expected)
    assert record.oracle_calls > 0
    assert record.provenance["phase2_passes"] == 3
    assert (tmp_path / "traces" / "inst-0.ga.jsonl").exists()
    assert (tmp_path / "traces" / "inst-0.hdd.jsonl").exists()


def test_distill_unsatisfiable_records_unminimized(tmp_path):
    instance_path = write_instance(
        tmp_path / "inst.json",
        tmp_path / "repo",
        FILES,
        instance_id="inst-unsat",
        mock_required=["not-a-real-leaf-id"],
    )
    instance = load_instance(instance_path)
    # an unresolvable locator is an error; use a distractor trick instead:
    # required inside a file, distractor = same leaf, impossible to satisfy
    instance.mock_required = [{"path": "pkg/core.py", "line": 2}]
    instance.mock_distractors = [{"path": "pkg/core.py", "line": 2}]
    outcome = distill_instance(instance, _config())
    record = outcome.record
    assert record.status == STATUS_UNMINIMIZED
    assert record.minimal_leaf_ids == frozenset()
    assert not record.one_minimal_certified


def test_distill_deterministic_records(tmp_path):
    instance_path = write_instance(
        tmp_path / "inst.json",
        tmp_path / "repo",
        FILES,
        fault_locations=[{"path": "pkg/core.py", "line": 2}],
    )
    instance = load_instance(instance_path)
    a = distill_instance(instance, _config(seed=9)).record
    b = distill_instance(instance, _config(seed=9)).record
    assert a.to_json() == b.to_json()


def test_distill_without_ga_on_clean_oracle(tmp_path):
    # no distractors: the full context is sufficient, ablation mode works
    instance_path = write_instance(
        tmp_path / "inst.json",
        tmp_path / "repo",
        FILES,
        fault_locations=[{"path": "pkg/util.py", "line": 2}],
    )
    instance = load_instance(instance_path)
    outcome = distill_instance(instance, _config(), use_ga=False)
    assert outcome.record.status == STATUS_MINIMIZED
    assert outcome.ga is None
    assert outcome.record.provenance["ga_generations"] == 0


def test_distill_ablation_distractors_separate_modes(tmp_path):
    """With a distractor in the initial context, straight minimization of
    the full context fails while the search finds a clean subset."""
    instance_path = write_instance(
        tmp_path / "inst.json",
        tmp_path / "repo",
        FILES,
        instance_id="inst-distract",
        fault_locations=[{"path": "pkg/core.py", "line": 2}],
        mock_required=[{"path": "pkg/core.py", "line": 2}],
        mock_distractors=[{"path": "pkg/util.py", "line": 2}],
    )
    instance = load_instance(instance_path)
    with_ga = distill_instance(instance, _config(seed=3))
    without_ga = distill_instance(instance, _config(seed=3), use_ga=False)
    assert with_ga.record.status == STATUS_MINIMIZED
    assert without_ga.record.status == STATUS_UNMINIMIZED


def test_mock_oracle_defaults_to_fault_enclosing_leaves(tmp_path):
    instance_path = write_instance(
        tmp_path / "inst.json",
        tmp_path / "repo",
        FILES,
        fault_locations=[{"path": "pkg/core.py", "line": 2}],
    )
    instance = load_instance(instance_path)
    tree = build_tree(instance.instance_id, [(p, (tmp_path / "repo" / p).read_text()) for p in FILES])
    oracle = build_mock_oracle(instance, tree)
    assert oracle.required == {_leaf_for(tree, "pkg/core.py", 0).id}


def test_distill_llm_requires_training_inputs(tmp_path):
    from ctxdistill.instance import InstanceError

    instance_path = write_instance(
        tmp_path / "inst.json",
        tmp_path / "repo",
        FILES,
        fault_locations=[{"path": "pkg/core.py", "line": 2}],
    )
    instance = load_instance(instance_path)
    with pytest.raises(InstanceError) as err:
        distill_instance(instance, _config(), oracle_kind="llm")
    message = str(err.value)
    for field in ("gold_patch_path", "coverage_report_path", "test_command"):
        assert field in message


def test_distill_budget_exhausted_flag(tmp_path):
    instance_path = write_instance(
        tmp_path / "inst.json",
        tmp_path / "repo",
        FILES,
        instance_id="inst-budget",
        fault_locations=[{"path": "pkg/core.py", "line": 2}],
        mock_required=[{"path": "pkg/core.py", "line": 2}],
        mock_distractors=[{"path": "pkg/util.py", "line": 2}],
    )
    instance = load_instance(instance_path)
    outcome = distill_instance(instance, _config(budget=2))
    assert outcome.budget_exhausted
    assert outcome.record.status == STATUS_UNMINIMIZED


# Distills one instance and prints what must not depend on hash order:
# the retained leaves, the oracle-call count and every GA fitness value.
HASH_SEED_PROBE = """
import json, sys
from pathlib import Path
from ctxdistill.config import RunConfig
from ctxdistill.ga_search import GAConfig
from ctxdistill.instance import load_instance
from ctxdistill.pipeline import distill_instance
instance = load_instance(sys.argv[1])
config = RunConfig(ga=GAConfig(population_size=10, max_generations=10, rng_seed=2))
record = distill_instance(instance, config, trace_dir=sys.argv[2]).record
trace = Path(sys.argv[2]) / (instance.instance_id + ".ga.jsonl")
print(json.dumps({
    "retained": sorted(record.minimal_leaf_ids),
    "oracle_calls": record.oracle_calls,
    "fitness": [json.loads(line)["fitness"].hex() for line in trace.read_text().splitlines()],
}))
"""


def test_distill_does_not_depend_on_hash_seed(tmp_path):
    """Priorities are floats, so a sum over a set changes with the set's
    iteration order.  Two interpreters with different hash seeds must
    still score, search and minimize identically."""
    files = {
        f"pkg/m{i}.py": "\n".join(
            f"def fn{i}_{j}(arg_{j}, shared_{(i * j) % 5}):\n"
            f"    value_{j} = arg_{j} * {j + 1} + shared_{(i + j) % 5}\n"
            f"    return helper_{(i + 2 * j) % 7}(value_{j})\n"
            for j in range(6)
        )
        for i in range(4)
    }
    patch = tmp_path / "gold.diff"
    patch.write_text(
        "--- a/pkg/m1.py\n+++ b/pkg/m1.py\n@@ -2,1 +2,1 @@\n"
        "-    value_0 = arg_0 * 1 + shared_1\n+    value_0 = arg_0 * 2 + shared_1 + helper_3\n",
        encoding="utf-8",
    )
    coverage = tmp_path / "coverage.json"
    coverage.write_text(
        json.dumps({"files": {f"pkg/m{i}.py": list(range(1, 4 * i + 9, 1 + i)) for i in range(4)}}),
        encoding="utf-8",
    )
    instance_path = write_instance(
        tmp_path / "inst.json",
        tmp_path / "repo",
        files,
        instance_id="inst-hash",
        fault_locations=[{"path": "pkg/m1.py", "line": 2}],
        mock_required=[{"path": "pkg/m1.py", "line": 2}, {"path": "pkg/m3.py", "line": 6}],
        mock_distractors=[{"path": "pkg/m2.py", "line": 2}],
        gold_patch_path=str(patch),
        coverage_report_path=str(coverage),
    )
    tests_dir = Path(__file__).resolve().parent
    pythonpath = os.pathsep.join([str(tests_dir.parent / "src"), str(tests_dir)])
    outputs = []
    for hash_seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=pythonpath)
        proc = subprocess.run(
            [sys.executable, "-c", HASH_SEED_PROBE, str(instance_path), str(tmp_path / f"trace{hash_seed}")],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        outputs.append(json.loads(proc.stdout))
    assert outputs[0]["retained"] and outputs[0]["fitness"]
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
