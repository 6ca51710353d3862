"""Property tests: distillation skips only work whose result is already
decided, and gives exactly the answers of the path it replaced.

The references below are verbatim frozen copies of the earlier code,
kept here on purpose: a ``classify_role`` that walks every segment's AST
for called names, a ``priority_map`` that lexes every unit's whole text,
and a ``run_ga`` that draws and ranks all of generation 0 before it
judges the all-on genome.  Random module trees come from
``tests/test_indexes.py`` and ``tests/test_score_once.py``; callers of
the trees' function names, a non-ASCII caller and random oracles with
distractors make every role and every GA outcome occur.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

from ctxdistill.code_model import SegmentKind, build_tree, unit_text
from ctxdistill.dataset import (
    SemanticRole,
    _called_names,
    _parse_segment,
    classify_role,
    fault_facts,
)
from ctxdistill.ga_search import (
    GAConfig,
    GAResult,
    Genome,
    GenomeSpace,
    _tournament,
    crossover,
    fitness,
    init_population,
    is_upward_consistent,
    mutate,
    repair,
    retained_leaf_ids,
    run_ga,
)
from ctxdistill.instance import FaultLocation
from ctxdistill.oracle import MockOracle, OracleBudgetExhausted, OracleConfig, OracleSession
from ctxdistill.priority import (
    CoverageReport,
    PatchInfo,
    PriorityWeights,
    covered_line_count,
    lex_identifiers,
    priority,
    priority_map,
)

from test_indexes import NAMES, SETTINGS, declaration_ratio, defined_names, module_source
from test_indexes import trees as module_trees
from test_score_once import trees as scoring_trees


# --- frozen references ------------------------------------------------------------


def frozen_classify_role(segment, tree, facts):
    if segment.kind is SegmentKind.CLASS_HEADER:
        return SemanticRole.SCHEMA
    module = _parse_segment(unit_text(tree, segment))
    stmts = [] if module is None else module.body
    if declaration_ratio(stmts) >= 0.5:
        return SemanticRole.SCHEMA

    defined = defined_names(stmts)
    # calls are handled by the call-chain rule, not the definition rule
    if defined & (facts.identifiers - facts.calls):
        return SemanticRole.DEFINITION

    if _called_names(module) & facts.defined or defined & facts.calls:
        return SemanticRole.CALL_CHAIN

    return SemanticRole.GENERIC_UTILITY


def frozen_sym_score(text, patch_identifiers):
    if not patch_identifiers:
        return 0.0
    return len(lex_identifiers(text) & frozenset(patch_identifiers)) / len(patch_identifiers)


def frozen_priority(unit, text, patch, coverage, weights):
    score = 0.0
    if unit.path in patch.files:
        score += weights.w_p
    score += weights.w_c * math.log(1 + covered_line_count(unit, coverage))
    score += weights.w_s * frozen_sym_score(text, patch.identifiers)
    return score


def frozen_priority_map(tree, patch, coverage, weights):
    return {
        uid: frozen_priority(tree.unit(uid), unit_text(tree, uid), patch, coverage, weights)
        for uid in tree.unit_order
    }


def frozen_run_ga(tree, phi, patch, session, config):
    space = GenomeSpace(tree)
    rng = random.Random(config.rng_seed)

    if not space.unit_ids:
        try:
            verdict = session.evaluate(frozenset(), pass_level="ga", generation=0, fitness=0.0)
        except OracleBudgetExhausted:
            return GAResult(None, None, 0, budget_exhausted=True)
        empty = Genome((), fitness=0.0)
        if verdict.sufficient:
            return GAResult(empty, 0, 1, retained_leaf_ids=frozenset())
        return GAResult(None, None, 1)

    population = init_population(space, phi, patch, config, rng)

    for generation in range(config.max_generations):
        for genome in population:
            if genome.fitness is None:
                genome.fitness = fitness(genome, space, phi)
        ordered = sorted(
            range(len(population)), key=lambda i: (-population[i].fitness, i)
        )
        for idx in ordered:
            genome = population[idx]
            assert is_upward_consistent(genome, space) and any(genome.bits)
            kept = retained_leaf_ids(genome, space)
            try:
                verdict = session.evaluate(
                    kept, pass_level="ga", generation=generation, fitness=genome.fitness
                )
            except OracleBudgetExhausted:
                return GAResult(None, None, generation + 1, budget_exhausted=True)
            if verdict.sufficient:
                return GAResult(genome, generation, generation + 1, retained_leaf_ids=kept)

        if generation == config.max_generations - 1:
            break

        elite_count = max(1, int(config.elite_fraction * config.population_size))
        elites = [population[i] for i in ordered[:elite_count]]
        offspring = []
        while len(elites) + len(offspring) < config.population_size:
            parent_a = _tournament(population, config.tournament_size, rng)
            parent_b = _tournament(population, config.tournament_size, rng)
            child_a, child_b = crossover(parent_a, parent_b, space, rng)
            for child in (child_a, child_b):
                child = repair(mutate(child, config.mutation_rate, rng), space, phi)
                offspring.append(child)
        population = elites + offspring[: config.population_size - elite_count]

    return GAResult(None, None, config.max_generations)


# --- roles ----------------------------------------------------------------------------

# a ligature that NFKC-normalises to ``fi``: ``ﬁle`` is the identifier ``file``
LIGATURE = "ﬁ"

callers = st.lists(st.sampled_from(NAMES), min_size=1, max_size=3).map(
    lambda called: "def caller(x):\n" + "".join(f"    {name}(x)\n" for name in called)
)
ligature_module = st.just(
    f"def file(x):\n    return x\n\ndef opener():\n    return {LIGATURE}le(1)\n"
    "\ndef note():\n    return 'café'\n"
)
role_trees = st.lists(
    st.one_of(module_source(), module_source(), callers, ligature_module), min_size=1, max_size=4
).map(
    lambda sources: build_tree("t", [(f"pkg/m{i}.py", src) for i, src in enumerate(sources)])
)


@st.composite
def role_cases(draw):
    """A tree and faults at its lines (now and then one past a file's end)."""
    tree = draw(role_trees)
    paths = list(tree.sources)
    faults = []
    for _ in range(draw(st.integers(0, 3))):
        path = draw(st.sampled_from(paths))
        faults.append(FaultLocation(path, draw(st.integers(1, len(tree.lines[path]) + 1))))
    return tree, faults


def _classify_role(segment, tree, facts):
    return classify_role(segment, unit_text(tree, segment), facts)


def _roles(case, classify):
    tree, faults = case
    facts = fault_facts(tree, faults)
    return [classify(leaf, tree, facts) for leaf in tree.leaves]


@SETTINGS
@given(role_cases())
def test_classify_role_matches_the_full_walk(case):
    assert _roles(case, _classify_role) == _roles(case, frozen_classify_role)


@pytest.mark.parametrize("role", list(SemanticRole))
def test_role_cases_reach_every_role(role):
    find(
        role_cases(),
        lambda case: role in _roles(case, frozen_classify_role),
        settings=settings(max_examples=2000, database=None, deadline=None),
    )


def test_a_non_ascii_call_to_the_fault_function_is_a_call_chain():
    source = f"def file():\n    return 1\n\ndef opener():\n    return {LIGATURE}le()\n"
    tree = build_tree("t", [("m.py", source)])
    facts = fault_facts(tree, [FaultLocation("m.py", 2)])
    assert facts.defined == {"file"}
    fault, opener = tree.leaves
    assert "file" not in unit_text(tree, opener)
    assert classify_role(opener, unit_text(tree, opener), facts) is SemanticRole.CALL_CHAIN
    assert frozen_classify_role(opener, tree, facts) is SemanticRole.CALL_CHAIN


# --- priorities -------------------------------------------------------------------------


@st.composite
def priority_cases(draw):
    tree = draw(st.one_of(module_trees, scoring_trees))
    paths = list(tree.sources)
    words = sorted(frozenset().union(*(lex_identifiers(src) for src in tree.sources.values())))
    identifiers = draw(st.frozensets(st.sampled_from([*words, "missing_name", "x"])))
    files = draw(st.frozensets(st.sampled_from([*paths, "pkg/absent.py"])))
    coverage = CoverageReport(
        {path: draw(st.frozensets(st.integers(1, 40), max_size=20)) for path in paths}
    )
    weights = draw(
        st.tuples(*[st.sampled_from([0.0, 0.5, 1.0, 2.0, 1 / 3])] * 3)
        .filter(any)
        .map(lambda w: PriorityWeights(*w))
    )
    return tree, PatchInfo(files, identifiers), coverage, weights


@SETTINGS
@given(priority_cases())
def test_priority_map_matches_whole_unit_lexing(case):
    tree, patch, coverage, weights = case
    got = priority_map(tree, patch, coverage, weights)
    expected = frozen_priority_map(tree, patch, coverage, weights)
    assert list(got) == list(expected)
    assert [v.hex() for v in got.values()] == [v.hex() for v in expected.values()]
    for uid in tree.unit_order:
        unit, text = tree.unit(uid), unit_text(tree, uid)
        assert priority(unit, text, patch, coverage, weights).hex() == expected[uid].hex()


# --- the GA -----------------------------------------------------------------------------


class RecordingOracle(MockOracle):
    """A mock oracle that also records every kept set it is asked about."""

    def __init__(self, required, distractors):
        super().__init__(required, distractors)
        self.asked = []

    def evaluate(self, included_leaf_ids):
        self.asked.append(included_leaf_ids)
        return super().evaluate(included_leaf_ids)


@st.composite
def ga_cases(draw):
    tree = draw(module_trees)
    rng = draw(st.randoms(use_true_random=False))
    leaves = [leaf.id for leaf in tree.leaves]
    required = rng.sample(leaves, rng.randint(0, min(3, len(leaves))))
    rest = [leaf for leaf in leaves if leaf not in required]
    distractors = rng.sample(rest, rng.randint(0, min(2, len(rest))))
    phi = {
        uid: rng.choice([0.0, 0.1, 1 / 3, rng.random(), rng.uniform(0, 50)])
        for uid in tree.unit_order
    }
    config = GAConfig(
        population_size=draw(st.integers(2, 8)),
        max_generations=draw(st.integers(1, 4)),
        mutation_rate=draw(st.sampled_from([0.0, 0.1, 0.3])),
        tournament_size=draw(st.integers(1, 3)),
        elite_fraction=draw(st.sampled_from([0.2, 0.5, 1.0])),
        rng_seed=draw(st.integers(0, 100)),
    )
    paths = list(tree.sources)
    patch = PatchInfo(draw(st.frozensets(st.sampled_from(paths))), frozenset())
    budget = draw(st.sampled_from([1, 2, 5, 300]))
    return tree, phi, patch, config, (required, distractors), budget


def _search(run, case):
    tree, phi, patch, config, (required, distractors), budget = case
    oracle = RecordingOracle(required, distractors)
    trace = []
    session = OracleSession(oracle, "t", OracleConfig(eval_budget=budget), trace.append)
    result = run(tree, phi, patch, session, config)
    genome = (result.genome.bits, result.genome.fitness) if result.genome else None
    return (
        genome,
        result.generation_found,
        result.generations_run,
        result.budget_exhausted,
        result.retained_leaf_ids,
        trace,
        oracle.asked,
        session.invocations,
    )


@SETTINGS
@given(ga_cases())
def test_run_ga_matches_ranking_all_of_generation_0_first(case):
    assert _search(run_ga, case) == _search(frozen_run_ga, case)


@pytest.mark.parametrize("bad", [-0.5, math.nan])
def test_run_ga_rejects_negative_and_nan_priorities(bad):
    tree = build_tree("t", [("m.py", "def a():\n    return 1\n\ndef b():\n    return 2\n")])
    phi = {uid: 1.0 for uid in tree.unit_order}
    phi[tree.leaves[1].id] = bad
    oracle = MockOracle({tree.leaves[0].id})
    with pytest.raises(ValueError, match="non-negative"):
        run_ga(tree, phi, PatchInfo.empty(), OracleSession(oracle, "t"), GAConfig())
    assert oracle.calls == 0
