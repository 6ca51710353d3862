"""Minimization tests: ddmin per level, full passes, certification,
budget cutoffs, and brute-force agreement on small instances."""

import itertools
import random

from ctxdistill.code_model import Level, build_tree
from ctxdistill.hdd import ddmin_level, minimize
from ctxdistill.oracle import MockOracle, OracleConfig, OracleSession

from fixtures import module_with_functions, random_tree, pick_leaves

MULTI_FILE = [
    ("f1.py", module_with_functions(2, "a")),
    ("f2.py", module_with_functions(2, "b")),
    ("f3.py", module_with_functions(2, "c")),
]


def _session(required, budget=10_000, trace=None):
    oracle = MockOracle(required)
    return OracleSession(oracle, "t", OracleConfig(eval_budget=budget), trace)


def _zero_phi(tree):
    return {uid: 0.0 for uid in tree.unit_order}


def _all_leaves(tree):
    return frozenset(s.id for s in tree.leaves)


def brute_force_minimum(universe, required):
    """Smallest sufficient subset by exhaustive enumeration (required-set
    oracle), used as the independent reference."""
    universe = sorted(universe)
    for size in range(len(universe) + 1):
        for combo in itertools.combinations(universe, size):
            if required <= frozenset(combo):
                return frozenset(combo)
    raise AssertionError("unsatisfiable required set")


def test_ddmin_level_keeps_only_required_function():
    tree = build_tree("t", [("m.py", module_with_functions(4))])
    leaves = tree.leaves
    required = frozenset({leaves[0].id})
    session = _session(required)
    result = ddmin_level(_all_leaves(tree), Level.FUNCTION, tree, session, _zero_phi(tree))
    assert result == required
    assert result == brute_force_minimum(_all_leaves(tree), required)


def test_ddmin_level_two_required_among_three():
    tree = build_tree("t", [("m.py", module_with_functions(3))])
    leaves = tree.leaves
    required = frozenset({leaves[0].id, leaves[2].id})
    session = _session(required)
    result = ddmin_level(_all_leaves(tree), Level.FUNCTION, tree, session, _zero_phi(tree))
    assert result == required == brute_force_minimum(_all_leaves(tree), required)


def test_ddmin_level_fixpoint_on_minimal_input():
    tree = build_tree("t", [("m.py", module_with_functions(4))])
    leaves = tree.leaves
    required = frozenset({leaves[1].id, leaves[3].id})
    session = _session(required)
    first = ddmin_level(_all_leaves(tree), Level.FUNCTION, tree, session, _zero_phi(tree))
    probes_before = session.invocations
    second = ddmin_level(first, Level.FUNCTION, tree, session, _zero_phi(tree))
    assert second == first
    # the final sweep re-probes each remaining unit exactly once (all cached
    # complements aside, singleton removals must all fail)
    assert second == required


def test_minimize_drops_irrelevant_files():
    tree = build_tree("t", MULTI_FILE)
    f1_leaves = frozenset(s.id for s in tree.leaves if s.path == "f1.py")
    required = frozenset(sorted(f1_leaves)[:1])
    session = _session(required)
    result = minimize(_all_leaves(tree), tree, session, _zero_phi(tree))
    assert result.retained_leaf_ids == required
    assert result.one_minimal_certified
    assert result.per_level_removed["file"] >= 4  # both other files' leaves


def test_minimize_block_level_fixture():
    source = (
        "def pipeline(x):\n"
        "    a = x + 1\n"
        "    if a > 2:\n"
        "        a = a * 2\n"
        "    for i in range(3):\n"
        "        a += i\n"
        "    return a\n"
    )
    tree = build_tree("t", [("m.py", source)])
    blocks = [s for s in tree.leaves if s.level is Level.BLOCK]
    assert len(blocks) >= 3
    required = frozenset({blocks[1].id})
    session = _session(required)
    result = minimize(_all_leaves(tree), tree, session, _zero_phi(tree))
    assert result.retained_leaf_ids == required
    assert result.one_minimal_certified


def test_minimize_stopped_by_the_budget_keeps_the_last_accepted_set():
    # file-level ddmin over f0..f5, the required leaf in f0: call 1 drops
    # f0-f2 (rejected), 2 drops f3-f5 (accepted, 6 leaves), 3 drops f0
    # (rejected), 4 drops f1-f2 (accepted, 2 leaves)
    tree = build_tree("t", [(f"f{i}.py", module_with_functions(2, f"m{i}_")) for i in range(6)])
    assert len(tree.leaves) == 12
    required = frozenset({tree.leaves[0].id})
    for budget, kept in ((2, 6), (4, 2)):
        session = _session(required, budget=budget)
        result = minimize(_all_leaves(tree), tree, session, _zero_phi(tree))
        assert len(result.retained_leaf_ids) == kept
        assert required <= result.retained_leaf_ids
        assert not result.one_minimal_certified and session.exhausted
        assert result.per_level_removed == {"file": 12 - kept}


def test_minimize_respects_monotone_shrinkage():
    rng = random.Random(41)
    for trial in range(30):
        tree = random_tree(rng)
        leaves = _all_leaves(tree)
        if not leaves:
            continue
        required = pick_leaves(rng, tree, rng.randint(0, 3))
        session = _session(required)
        start = leaves
        result = minimize(start, tree, session, _zero_phi(tree))
        assert result.retained_leaf_ids <= start
        assert required <= result.retained_leaf_ids


def test_minimize_one_minimality_randomized():
    """Property: on trees of up to ~12 leaves with a required-set oracle,
    the output is sufficient and exactly 1-minimal (checked element by
    element, independently of the search)."""
    rng = random.Random(97)
    trials = 0
    while trials < 200:
        tree = random_tree(rng)
        leaves = sorted(_all_leaves(tree))
        if not leaves or len(leaves) > 12:
            continue
        trials += 1
        required = frozenset(rng.sample(leaves, rng.randint(0, min(5, len(leaves)))))
        session = _session(required)
        result = minimize(frozenset(leaves), tree, session, _zero_phi(tree))
        retained = result.retained_leaf_ids
        assert required <= retained  # sufficient
        for leaf in retained:  # 1-minimal
            assert not required <= (retained - {leaf})
        assert result.one_minimal_certified


def test_minimize_budget_exhaustion_returns_best_so_far():
    tree = build_tree("t", MULTI_FILE)
    leaves = sorted(_all_leaves(tree))
    required = frozenset(leaves[:1])
    session = _session(required, budget=3)
    result = minimize(_all_leaves(tree), tree, session, _zero_phi(tree))
    assert not result.one_minimal_certified
    assert required <= result.retained_leaf_ids


def test_minimize_empty_required_reduces_to_empty():
    tree = build_tree("t", [("m.py", module_with_functions(3))])
    session = _session(frozenset())
    result = minimize(_all_leaves(tree), tree, session, _zero_phi(tree))
    assert result.retained_leaf_ids == frozenset()
    assert result.one_minimal_certified


def test_minimize_low_priority_removed_first_in_trace():
    tree = build_tree("t", [("m.py", module_with_functions(4))])
    leaves = tree.leaves
    phi = _zero_phi(tree)
    # make the required leaf the highest priority, everything else low
    required = frozenset({leaves[3].id})
    for i, leaf in enumerate(leaves):
        phi[leaf.id] = 1.0 if leaf.id in required else 0.0
    trace = []
    session = _session(required, trace=trace.append)
    minimize(_all_leaves(tree), tree, session, phi)
    func_steps = [r for r in trace if r["pass_level"] == "function"]
    # the first complement probe drops the low-priority half and passes
    assert func_steps[0]["sufficient"]


def test_certification_uses_fresh_evaluations():
    tree = build_tree("t", [("m.py", module_with_functions(2))])
    leaves = sorted(_all_leaves(tree))
    required = frozenset(leaves)
    oracle = MockOracle(required)
    session = OracleSession(oracle, "t")
    result = minimize(frozenset(leaves), tree, session, _zero_phi(tree))
    assert result.one_minimal_certified
    # every singleton-removal probe in certification re-invoked the oracle
    # even though ddmin already tested those candidates
    assert oracle.calls == session.invocations
