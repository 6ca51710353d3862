"""Genome search tests: repair, seeding, crossover, determinism, early stop."""

import functools
import math
import operator
import random

import pytest

from ctxdistill import ga_search
from ctxdistill.code_model import build_tree
from ctxdistill.ga_search import (
    GAConfig,
    Genome,
    GenomeSpace,
    crossover,
    fitness,
    init_population,
    is_upward_consistent,
    leaf_priorities,
    mutate,
    repair,
    retained_leaf_ids,
    run_ga,
)
from ctxdistill.oracle import MockOracle, OracleConfig, OracleSession
from ctxdistill.priority import CoverageReport, PatchInfo, PriorityWeights, priority_map

from fixtures import module_with_functions, random_tree, tree_with_n_function_leaves

TWO_FILE_TREE = None


def _tree():
    return build_tree(
        "t",
        [
            ("f1.py", module_with_functions(2, "a")),
            ("f2.py", module_with_functions(3, "b")),
        ],
    )


def _zero_phi(space):
    return {uid: 0.0 for uid in space.tree.unit_order}


def test_genome_space_layout():
    tree = _tree()
    space = GenomeSpace(tree)
    # one file bit plus one bit per function, per file
    assert len(space) == (1 + 2) + (1 + 3)
    assert space.file_ranges == [(0, 3), (3, 7)]
    assert len(space.leaf_ids) == 5


def test_repair_forces_ancestors_on():
    tree = _tree()
    space = GenomeSpace(tree)
    bits = [0] * len(space)
    bits[1] = 1  # a function inside f1.py with its file bit off
    repaired = repair(Genome(tuple(bits)), space, _zero_phi(space))
    assert repaired.bits[0] == 1
    assert is_upward_consistent(repaired, space)


def test_repair_revives_all_zero_with_max_phi_unit():
    tree = _tree()
    space = GenomeSpace(tree)
    phi = _zero_phi(space)
    target = space.unit_ids[4]  # some function in f2.py
    phi[target] = 9.0
    repaired = repair(Genome((0,) * len(space)), space, phi)
    assert repaired.bits[space.unit_ids.index(target)] == 1
    assert repaired.bits[3] == 1  # owning file
    assert sum(repaired.bits) == 2
    # tie -> earliest unit in document order
    flat = repair(Genome((0,) * len(space)), space, _zero_phi(space))
    assert flat.bits[0] == 1


def test_repair_revives_all_zero_to_a_genome_that_keeps_a_leaf():
    """Under ``priority_map`` a file never scores below its children, so
    reviving the top unit of all would keep a lone file and no leaf."""
    tree = _tree()
    space = GenomeSpace(tree)
    for patch in (PatchInfo.empty(), PatchInfo(frozenset({"f2.py"}), frozenset({"b1"}))):
        phi = priority_map(tree, patch, CoverageReport.empty(), PriorityWeights())
        repaired = repair(Genome((0,) * len(space)), space, phi)
        assert retained_leaf_ids(repaired, space)
    # with no function-level unit the top file is revived
    empty = GenomeSpace(build_tree("t", [("e.py", "")]))
    assert repair(Genome((0,)), empty, {}).bits == (1,)


def test_repair_revives_a_genome_whose_only_bits_are_file_bits():
    """A file bit alone keeps no leaf, so such a genome is revived too."""
    tree = build_tree("t", [("f1.py", module_with_functions(1, "a")), ("f2.py", module_with_functions(1, "b"))])
    space = GenomeSpace(tree)
    for start, _ in space.file_ranges:
        bits = [0] * len(space)
        bits[start] = 1
        repaired = repair(Genome(tuple(bits)), space, _zero_phi(space))
        assert retained_leaf_ids(repaired, space)
        assert repaired.bits[start] == 1 and is_upward_consistent(repaired, space)


def test_repair_idempotent():
    rng = random.Random(2)
    tree = _tree()
    space = GenomeSpace(tree)
    phi = _zero_phi(space)
    for trial in range(200):
        bits = tuple(rng.randint(0, 1) for _ in range(len(space)))
        once = repair(Genome(bits), space, phi)
        twice = repair(once, space, phi)
        assert once.bits == twice.bits
        assert is_upward_consistent(once, space)
        assert any(once.bits)


def test_fitness_sums_retained_leaf_priorities():
    tree = _tree()
    space = GenomeSpace(tree)
    phi = _zero_phi(space)
    phi[space.leaf_ids[0]] = 1.0
    phi[space.leaf_ids[1]] = 2.5
    all_on = repair(Genome((1,) * len(space)), space, phi)
    assert fitness(all_on, space, leaf_priorities(space, phi)) == pytest.approx(3.5)
    # switch off the second function of f1.py only
    bits = list(all_on.bits)
    bits[2] = 0
    partial = Genome(tuple(bits))
    assert fitness(partial, space, leaf_priorities(space, phi)) == pytest.approx(1.0)


def test_fitness_adds_left_to_right_in_document_order():
    # compensated summation (``sum`` from Python 3.12) keeps the ten tiny
    # terms that left-to-right addition rounds away one by one
    space = GenomeSpace(tree_with_n_function_leaves(11))
    priorities = [1.0] + [1e-16] * 10
    assert math.fsum(priorities) != functools.reduce(operator.add, priorities)
    phi = {**_zero_phi(space), **dict(zip(space.leaf_ids, priorities))}
    all_on = Genome((1,) * len(space))
    assert fitness(all_on, space, leaf_priorities(space, phi)) == functools.reduce(operator.add, priorities)


def test_init_population_seeds():
    tree = _tree()
    space = GenomeSpace(tree)
    patch = PatchInfo(frozenset({"f1.py"}), frozenset())
    config = GAConfig(population_size=8, rng_seed=42)
    population = init_population(space, _zero_phi(space), patch, config, random.Random(42))
    assert population[0].bits == (1,) * len(space)
    # seed 1: exactly the f1.py subtree
    assert population[1].bits == (1, 1, 1, 0, 0, 0, 0)
    assert len(population) == 8
    for genome in population:
        assert is_upward_consistent(genome, space)
        assert any(genome.bits)


def test_init_population_deterministic_under_seed():
    tree = _tree()
    space = GenomeSpace(tree)
    config = GAConfig(population_size=10, rng_seed=7)
    a = init_population(space, _zero_phi(space), PatchInfo.empty(), config, random.Random(7))
    b = init_population(space, _zero_phi(space), PatchInfo.empty(), config, random.Random(7))
    assert [g.bits for g in a] == [g.bits for g in b]


def test_init_population_requires_two():
    tree = _tree()
    with pytest.raises(ValueError):
        GAConfig(population_size=1)


def test_crossover_swaps_whole_file_ranges():
    tree = _tree()
    space = GenomeSpace(tree)
    phi = _zero_phi(space)
    a = repair(Genome((1, 1, 1, 1, 0, 0, 0)), space, phi)
    b = repair(Genome((1, 0, 1, 1, 1, 1, 1)), space, phi)
    rng = random.Random(5)
    for trial in range(50):
        c1, c2 = crossover(a, b, space, rng)
        for child in (c1, c2):
            for start, end in space.file_ranges:
                piece = child.bits[start:end]
                assert piece in (a.bits[start:end], b.bits[start:end])
    # identical parents -> identical children
    c1, c2 = crossover(a, a, space, rng)
    assert c1.bits == a.bits and c2.bits == a.bits


def test_crossover_single_file_children_are_parents():
    tree = build_tree("t", [("only.py", module_with_functions(3))])
    space = GenomeSpace(tree)
    phi = _zero_phi(space)
    a = repair(Genome((1, 1, 0, 0)), space, phi)
    b = repair(Genome((1, 0, 1, 1)), space, phi)
    rng = random.Random(9)
    for trial in range(20):
        c1, c2 = crossover(a, b, space, rng)
        assert {c1.bits, c2.bits} == {a.bits, b.bits}


def _session(required, distractors=(), budget=10_000, trace=None):
    oracle = MockOracle(required, distractors)
    return OracleSession(oracle, "t", OracleConfig(eval_budget=budget), trace), oracle


def test_run_ga_succeeds_via_all_on_seed():
    tree = _tree()
    space = GenomeSpace(tree)
    phi = _zero_phi(space)
    session, _ = _session(required=frozenset(space.leaf_ids))
    result = run_ga(tree, phi, PatchInfo.empty(), session, GAConfig(rng_seed=1))
    assert result.genome is not None
    assert result.generation_found == 0
    assert retained_leaf_ids(result.genome, space) >= frozenset(space.leaf_ids)


def test_run_ga_succeeds_via_patch_file_seed():
    tree = _tree()
    space = GenomeSpace(tree)
    f1_leaves = frozenset(
        lid for lid in space.leaf_ids if space.tree.index[lid].path == "f1.py"
    )
    session, _ = _session(required=f1_leaves)
    patch = PatchInfo(frozenset({"f1.py"}), frozenset())
    result = run_ga(tree, _zero_phi(space), patch, session, GAConfig(rng_seed=1))
    assert result.genome is not None
    assert result.generation_found == 0


def test_run_ga_unsatisfiable_returns_none():
    tree = _tree()
    space = GenomeSpace(tree)
    session, _ = _session(required=frozenset({"not-a-real-leaf"}))
    config = GAConfig(population_size=6, max_generations=3, rng_seed=3)
    result = run_ga(tree, _zero_phi(space), PatchInfo.empty(), session, config)
    assert result.genome is None
    assert result.generations_run == 3
    assert not session.exhausted
    # oracle invocations bounded by population x generations
    assert session.invocations <= 6 * 3


def test_run_ga_budget_exhaustion_flagged():
    tree = _tree()
    session, _ = _session(required=frozenset({"not-a-real-leaf"}), budget=4)
    config = GAConfig(population_size=6, max_generations=3, rng_seed=3)
    result = run_ga(tree, {uid: 0.0 for uid in tree.unit_order}, PatchInfo.empty(), session, config)
    assert result.genome is None
    assert session.exhausted


def test_run_ga_reproducible_trace():
    tree = _tree()
    phi = {uid: 0.0 for uid in tree.unit_order}
    config = GAConfig(population_size=6, max_generations=4, rng_seed=11)

    def run_once():
        trace = []
        session, _ = _session(required=frozenset({"unsatisfiable"}), trace=trace.append)
        run_ga(tree, phi, PatchInfo.empty(), session, config)
        return [(r["generation"], r["candidate_hash"]) for r in trace]

    assert run_once() == run_once()


def test_run_ga_submits_only_consistent_nondegenerate_genomes(monkeypatch):
    rng = random.Random(19)
    for trial in range(5):
        tree = random_tree(rng)
        space = GenomeSpace(tree)
        if not space.unit_ids:
            continue
        session, _ = _session(required=frozenset({"unsatisfiable"}))
        seen = []

        def check(genome, genome_space):
            # run_ga reads each genome's leaves here, just before the oracle judges them
            seen.append(genome)
            assert is_upward_consistent(genome, space)
            assert any(genome.bits)
            return retained_leaf_ids(genome, genome_space)

        monkeypatch.setattr(ga_search, "retained_leaf_ids", check)
        run_ga(
            tree,
            {uid: 0.0 for uid in tree.unit_order},
            PatchInfo.empty(),
            session,
            GAConfig(population_size=5, max_generations=3, rng_seed=trial),
        )
        assert seen


def test_elitism_keeps_best_failed_fitness_non_decreasing():
    rng = random.Random(31)
    tree = build_tree("t", [("m.py", module_with_functions(6))])
    space = GenomeSpace(tree)
    phi = {uid: 0.0 for uid in tree.unit_order}
    for i, lid in enumerate(space.leaf_ids):
        phi[lid] = float(i + 1)
    trace = []
    session, _ = _session(required=frozenset({"unsatisfiable"}), trace=trace.append)
    config = GAConfig(population_size=8, max_generations=5, rng_seed=13)
    run_ga(tree, phi, PatchInfo.empty(), session, config)
    best_by_generation = {}
    for record in trace:
        gen = record["generation"]
        best_by_generation[gen] = max(best_by_generation.get(gen, 0.0), record["fitness"])
    gens = sorted(best_by_generation)
    for a, b in zip(gens, gens[1:]):
        assert best_by_generation[b] >= best_by_generation[a]


def test_mutation_rate_zero_is_identity():
    tree = _tree()
    space = GenomeSpace(tree)
    genome = repair(Genome((1, 0, 1, 1, 1, 0, 0)), space, _zero_phi(space))
    assert mutate(genome, 0.0, random.Random(1)).bits == genome.bits
