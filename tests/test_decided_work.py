"""Property tests: distillation skips only work whose result is already
decided, and gives exactly the answers of the path it replaced.

The references below are verbatim frozen copies of the earlier code,
kept here on purpose: a ``classify_role`` that walks every segment's AST
for called names, a ``priority_map`` that lexes every unit's whole text,
a ``run_ga`` that draws and ranks all of generation 0 before it
judges the all-on genome (ranked by ``tests/test_one_pass.py``'s frozen
``fitness``), and the ``GenomeSpace`` and
``init_population`` that filtered the unit order by level and computed
each position's inclusion probability once per genome.  Random module trees come from
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

from ctxdistill.code_model import Level, SegmentKind, build_tree, unit_text
from ctxdistill.dataset import (
    SemanticRole,
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

from test_indexes import NAMES, SETTINGS, declaration_ratio, defined_names, frozen_called_names, module_source
from test_one_pass import frozen_fitness
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

    if frozen_called_names(module) & facts.defined or defined & facts.calls:
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
        uid: frozen_priority(tree.unit(uid), unit_text(tree, tree.unit(uid)), patch, coverage, weights)
        for uid in tree.unit_order
    }


def frozen_run_ga(tree, phi, patch, session, config):
    space = GenomeSpace(tree)
    rng = random.Random(config.rng_seed)

    if not space.unit_ids:
        try:
            verdict = session.evaluate(frozenset(), pass_level="ga", generation=0, fitness=0.0)
        except OracleBudgetExhausted:
            return GAResult(None, None, 0)
        empty = Genome((), fitness=0.0)
        if verdict.sufficient:
            return GAResult(empty, 0, 1, retained_leaf_ids=frozenset())
        return GAResult(None, None, 1)

    population = init_population(space, phi, patch, config, rng)

    for generation in range(config.max_generations):
        for genome in population:
            if genome.fitness is None:
                genome.fitness = frozen_fitness(genome, space, phi)
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
                return GAResult(None, None, generation + 1)
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


class FrozenGenomeSpace:
    def __init__(self, tree):
        self.tree = tree
        self.unit_ids = [
            uid
            for uid in tree.unit_order
            if tree.index[uid].level in (Level.FILE, Level.FUNCTION)
        ]

        # contiguous genome ranges per file: the file's own position, then
        # its function-level units; used for crossover and consistency
        self.file_ranges = []
        start = None
        for i, uid in enumerate(self.unit_ids):
            if tree.index[uid].level is Level.FILE:
                if start is not None:
                    self.file_ranges.append((start, i))
                start = i
        if start is not None:
            self.file_ranges.append((start, len(self.unit_ids)))

        self.leaf_ids = [leaf.id for leaf in tree.leaves]

    def __len__(self):
        return len(self.unit_ids)


def frozen_init_population(space, phi, patch, config, rng):
    n = len(space)
    population = [repair(Genome((1,) * n), space, phi)]

    patch_bits = tuple(
        1 if space.tree.index[uid].path in patch.files else 0 for uid in space.unit_ids
    )
    population.append(repair(Genome(patch_bits), space, phi))

    max_phi = max((phi.get(uid, 0.0) for uid in space.unit_ids), default=0.0)
    for _ in range(config.population_size - 2):
        bits = []
        for uid in space.unit_ids:
            if max_phi <= 0:
                p = 0.5
            else:
                p = min(0.9, max(0.1, phi.get(uid, 0.0) / max_phi))
            bits.append(1 if rng.random() < p else 0)
        population.append(repair(Genome(tuple(bits)), space, phi))
    return population[: config.population_size]


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
        unit, text = tree.unit(uid), unit_text(tree, tree.unit(uid))
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
        session.exhausted,
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


# --- the population draw ------------------------------------------------------------------

# files without a line have no function-level unit, so their genome
# positions are all files
empty_trees = st.integers(1, 3).map(
    lambda n: build_tree("t", [(f"pkg/e{i}.py", "") for i in range(n)])
)


@st.composite
def population_cases(draw):
    tree = draw(st.one_of(module_trees, scoring_trees, empty_trees))
    rng = draw(st.randoms(use_true_random=False))
    # some units go without a priority, which reads as 0.0
    phi = {
        uid: rng.choice([0.0, 0.1, 1 / 3, rng.random(), rng.uniform(0, 50)])
        for uid in tree.unit_order
        if rng.random() < 0.9
    }
    if draw(st.booleans()):
        phi = dict.fromkeys(phi, 0.0)
    paths = list(tree.sources)
    patch = PatchInfo(draw(st.frozensets(st.sampled_from(paths))), frozenset())
    config = GAConfig(population_size=draw(st.integers(2, 12)), rng_seed=draw(st.integers(0, 1000)))
    return tree, phi, patch, config


def _spaces_and_populations(case):
    tree, phi, patch, config = case
    drawn = []
    for space_of, init in ((GenomeSpace, init_population), (FrozenGenomeSpace, frozen_init_population)):
        space = space_of(tree)
        rng = random.Random(config.rng_seed)
        population = init(space, phi, patch, config, rng)
        drawn.append(
            (space.unit_ids, space.file_ranges, space.leaf_ids, [g.bits for g in population], rng.getstate())
        )
    return drawn


@SETTINGS
@given(population_cases())
def test_population_draw_matches_the_per_genome_odds(case):
    live, frozen = _spaces_and_populations(case)
    assert live == frozen


class CountingRandom(random.Random):
    def __init__(self, seed):
        super().__init__(seed)
        self.calls = 0

    def random(self):
        self.calls += 1
        return super().random()


@SETTINGS
@given(population_cases())
def test_one_population_draws_once_per_random_genome_and_position(case):
    tree, phi, patch, config = case
    space = GenomeSpace(tree)
    rng = CountingRandom(config.rng_seed)
    population = init_population(space, phi, patch, config, rng)
    assert len(population) == config.population_size
    assert rng.calls == (config.population_size - 2) * len(space)


@pytest.mark.parametrize("sources", [["", ""], ["def f(a):\n    return a\n", ""]])
def test_population_draw_matches_for_zero_priorities(sources):
    tree = build_tree("t", [(f"pkg/m{i}.py", src) for i, src in enumerate(sources)])
    phi = dict.fromkeys(tree.unit_order, 0.0)
    case = (tree, phi, PatchInfo(frozenset({"pkg/m1.py"}), frozenset()), GAConfig(population_size=9))
    live, frozen = _spaces_and_populations(case)
    assert live == frozen
    if not any(sources):  # no function-level position
        assert live[0] == [unit.id for unit in tree.files]
