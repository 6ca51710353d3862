"""A unit tree, and the results built on it, are freed by reference
counting alone: nothing they hold refers back to itself, so dropping them
leaves no garbage for the cyclic collector."""

import gc

import pytest

from ctxdistill.code_model import build_tree
from ctxdistill.compressor import HeuristicScorer, compress
from ctxdistill.config import RunConfig
from ctxdistill.ga_search import GAConfig
from ctxdistill.instance import build_instance_tree, load_instance
from ctxdistill.pipeline import distill_instance

from fixtures import CLASS_SOURCE, MULTI_BLOCK_SOURCE, NESTED_SOURCE, write_instance

FILES = {"pkg/blocks.py": MULTI_BLOCK_SOURCE, "pkg/shape.py": CLASS_SOURCE, "pkg/nested.py": NESTED_SOURCE}


@pytest.fixture
def collector_paused():
    """The collector off, with nothing left for it to find."""
    enabled = gc.isenabled()
    gc.disable()
    gc.collect()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def test_a_dropped_tree_or_result_leaves_no_cyclic_garbage(tmp_path, collector_paused):
    instance = load_instance(
        write_instance(
            tmp_path / "inst.json",
            tmp_path / "repo",
            FILES,
            issue_text="locate returns the wrong part",
            fault_locations=[{"path": "pkg/blocks.py", "line": 8}],
            mock_required=[{"path": "pkg/blocks.py", "line": 8}, {"path": "pkg/shape.py", "line": 8}],
        )
    )
    config = RunConfig(ga=GAConfig(population_size=6, max_generations=3, rng_seed=3))
    gc.collect()

    tree = build_tree("t", list(FILES.items()))
    assert len(tree.files) == 3 and any(unit.level.value == "block" for unit in tree.leaves)
    del tree
    assert gc.collect() == 0

    outcome = distill_instance(instance, config)
    assert outcome.record.one_minimal_certified
    del outcome
    assert gc.collect() == 0

    tree = build_instance_tree(instance)
    result = compress(instance, tree, HeuristicScorer(tree), rate=2.0)
    assert result.selected_segment_ids
    del tree, result
    assert gc.collect() == 0
