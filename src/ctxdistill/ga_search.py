"""Phase I: population search over inclusion genomes.

A genome is one bit per file- or function-level unit (blocks stay
included until Phase II).  The tree has three fixed levels, so a
function-level unit's only genome ancestor is its file, and the leaves
it keeps are its slice of the tree's leaf table.  The search stops at
the first candidate the oracle accepts; fitness only steers selection
among failing candidates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterator

from .code_model import UnitTree
from .oracle import OracleBudgetExhausted, OracleSession
from .priority import PatchInfo


@dataclass(frozen=True)
class GAConfig:
    population_size: int = 20
    max_generations: int = 10
    mutation_rate: float = 0.02
    tournament_size: int = 3
    elite_fraction: float = 0.20
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise ValueError("population_size must be >= 2")
        if self.max_generations < 1:
            raise ValueError("max_generations must be >= 1")
        if not (0 <= self.mutation_rate <= 1):
            raise ValueError("mutation_rate must be in [0, 1]")
        if self.tournament_size < 1:
            raise ValueError("tournament_size must be >= 1")
        if not (0 < self.elite_fraction <= 1):
            raise ValueError("elite_fraction must be in (0, 1]")
        if self.population_size >= 5 and self.elite_fraction * self.population_size < 1:
            raise ValueError("elite_fraction * population_size must be >= 1")


@dataclass
class Genome:
    bits: tuple[int, ...]
    fitness: float | None = None


class GenomeSpace:
    """Mapping between genome positions and the tree's file/function units."""

    def __init__(self, tree: UnitTree):
        self.tree = tree
        # each file's contiguous genome range: the file's own position, then
        # its function-level units, its children; used for crossover and
        # consistency
        self.unit_ids: list[str] = []
        self.file_ranges: list[tuple[int, int]] = []
        for file_unit in tree.files:
            start = len(self.unit_ids)
            self.unit_ids.append(file_unit.id)
            self.unit_ids += file_unit.child_ids
            self.file_ranges.append((start, len(self.unit_ids)))

        self.leaf_ids = [leaf.id for leaf in tree.leaves]
        # each position's (lo, hi) slice of ``leaf_ids``
        self.leaf_slices = [tree.leaf_slice[uid] for uid in self.unit_ids]

    def __len__(self) -> int:
        return len(self.unit_ids)


def is_upward_consistent(genome: Genome, space: GenomeSpace) -> bool:
    bits = genome.bits
    return all(bits[start] or not any(bits[start:end]) for start, end in space.file_ranges)


def repair(genome: Genome, space: GenomeSpace, phi: dict[str, float]) -> Genome:
    """Force upward consistency; revive a genome with no function-level
    bit on, which keeps no leaf whatever its file bits, by activating its
    highest-priority function-level unit (earliest on ties).  A file
    never scores below its children, so the top unit of all would be a
    file, which keeps none.  A space without function-level units
    revives an all-zero genome at its top file."""
    bits = list(genome.bits)
    functions = [i for start, end in space.file_ranges for i in range(start + 1, end)] or range(len(bits))
    if not any(bits[i] for i in functions):
        best = max(functions, key=lambda i: (phi.get(space.unit_ids[i], 0.0), -i))
        bits[best] = 1
    for start, end in space.file_ranges:
        if any(bits[start:end]):
            bits[start] = 1
    return Genome(tuple(bits))


def _kept_slices(genome: Genome, space: GenomeSpace) -> Iterator[tuple[int, int]]:
    """The ``leaf_ids`` slices a genome keeps, in document order: those of
    the function-level units whose own bit and whose file's bit are on."""
    bits, slices = genome.bits, space.leaf_slices
    for start, end in space.file_ranges:
        if bits[start]:
            for i in range(start + 1, end):
                if bits[i]:
                    yield slices[i]


def retained_leaf_ids(genome: Genome, space: GenomeSpace) -> frozenset[str]:
    leaf_ids = space.leaf_ids
    return frozenset(uid for lo, hi in _kept_slices(genome, space) for uid in leaf_ids[lo:hi])


def leaf_priorities(space: GenomeSpace, phi: dict[str, float]) -> list[float]:
    """Each leaf's priority, in ``space.leaf_ids`` order; 0 for a leaf
    ``phi`` does not name.  Built once per run for :func:`fitness`."""
    return [phi.get(uid, 0.0) for uid in space.leaf_ids]


def fitness(genome: Genome, space: GenomeSpace, leaf_phi: list[float]) -> float:
    """Summed priority of the kept leaves, read from ``leaf_phi``
    (:func:`leaf_priorities`).  The sum adds left to right in document
    order: float addition is not associative, so summing in set order
    would make the value, and the GA's ranking, depend on the hash seed,
    and ``sum`` itself adds floats with compensation from Python 3.12 on,
    which moves the value in its last bits between versions."""
    total = 0.0
    for lo, hi in _kept_slices(genome, space):
        for value in leaf_phi[lo:hi]:
            total += value
    return total


def init_population(
    space: GenomeSpace,
    phi: dict[str, float],
    patch: PatchInfo,
    config: GAConfig,
    rng: random.Random,
) -> list[Genome]:
    """Seed individuals: all-on, gold-patch files only, then
    priority-biased random genomes.

    A position's inclusion probability depends only on its unit, so it
    is computed once per population.  Each random genome then draws one
    ``rng.random()`` per position, in position order, genome after
    genome: the draws, and so the population, depend on that order."""
    n = len(space)
    population = [repair(Genome((1,) * n), space, phi)]

    patch_bits = tuple(
        1 if space.tree.index[uid].path in patch.files else 0 for uid in space.unit_ids
    )
    population.append(repair(Genome(patch_bits), space, phi))

    max_phi = max((phi.get(uid, 0.0) for uid in space.unit_ids), default=0.0)
    if max_phi <= 0:
        odds = [0.5] * n
    else:
        odds = [min(0.9, max(0.1, phi.get(uid, 0.0) / max_phi)) for uid in space.unit_ids]
    draw = rng.random
    for _ in range(config.population_size - 2):
        bits = tuple([1 if draw() < p else 0 for p in odds])
        population.append(repair(Genome(bits), space, phi))
    return population


def crossover(
    parent_a: Genome, parent_b: Genome, space: GenomeSpace, rng: random.Random
) -> tuple[Genome, Genome]:
    """Swap whole per-file bit ranges between parents (p=0.5 per file)."""
    bits_a = list(parent_a.bits)
    bits_b = list(parent_b.bits)
    for start, end in space.file_ranges:
        if rng.random() < 0.5:
            bits_a[start:end], bits_b[start:end] = (
                parent_b.bits[start:end],
                parent_a.bits[start:end],
            )
    return Genome(tuple(bits_a)), Genome(tuple(bits_b))


def mutate(genome: Genome, rate: float, rng: random.Random) -> Genome:
    bits = tuple(1 - b if rng.random() < rate else b for b in genome.bits)
    return Genome(bits)


def _tournament(
    population: list[Genome], size: int, rng: random.Random
) -> Genome:
    picks = [population[rng.randrange(len(population))] for _ in range(size)]
    return max(picks, key=attrgetter("fitness"))


@dataclass
class GAResult:
    genome: Genome | None
    generation_found: int | None
    generations_run: int
    retained_leaf_ids: frozenset[str] | None = None


def run_ga(
    tree: UnitTree,
    phi: dict[str, float],
    patch: PatchInfo,
    session: OracleSession,
    config: GAConfig,
) -> GAResult:
    """Evolve genomes until the oracle accepts one; stop immediately on
    the first success.  Fully deterministic given the seed and a
    deterministic oracle.

    Priorities must be non-negative (``ValueError`` otherwise).  Then the
    all-on genome, generation 0's first member, also ranks first in it:
    every other genome keeps a subset of its leaves, a document-order
    float sum of non-negative terms never shrinks as terms are added, and
    ties go to the lower index.  So it is judged before the rest of
    generation 0 is drawn, and when the oracle accepts it, that draw and
    those fitness sums are skipped.  Nothing else draws from the RNG in
    between, so the evaluations and probe records are those of judging
    generation 0 in rank order."""
    if not all(p >= 0 for p in phi.values()):
        raise ValueError("priorities must be non-negative")
    space = GenomeSpace(tree)
    rng = random.Random(config.rng_seed)

    def judge(genome: Genome, generation: int) -> GAResult | None:
        """The search's result if it ends at ``genome``, else ``None``."""
        assert is_upward_consistent(genome, space) and (any(genome.bits) or not space.unit_ids)
        kept = retained_leaf_ids(genome, space)
        try:
            verdict = session.evaluate(
                kept, pass_level="ga", generation=generation, fitness=genome.fitness
            )
        except OracleBudgetExhausted:
            return GAResult(None, None, generation + 1)
        if verdict.sufficient:
            return GAResult(genome, generation, generation + 1, retained_leaf_ids=kept)
        return None

    leaf_phi = leaf_priorities(space, phi)
    seed = Genome((1,) * len(space))
    seed.fitness = fitness(seed, space, leaf_phi)
    result = judge(seed, 0)
    if result is not None or not space.unit_ids:
        # an empty space has no other genome: its seed keeps no leaf
        return result or GAResult(None, None, 1)
    population = [seed, *init_population(space, phi, patch, config, rng)[1:]]

    for generation in range(config.max_generations):
        for genome in population:
            if genome.fitness is None:
                genome.fitness = fitness(genome, space, leaf_phi)
        ordered = sorted(
            range(len(population)), key=lambda i: (-population[i].fitness, i)
        )
        # generation 0's first is the seed, judged above
        for idx in ordered[1:] if generation == 0 else ordered:
            result = judge(population[idx], generation)
            if result is not None:
                return result

        if generation == config.max_generations - 1:
            break

        elite_count = max(1, int(config.elite_fraction * config.population_size))
        elites = [population[i] for i in ordered[:elite_count]]
        offspring: list[Genome] = []
        while len(elites) + len(offspring) < config.population_size:
            parent_a = _tournament(population, config.tournament_size, rng)
            parent_b = _tournament(population, config.tournament_size, rng)
            child_a, child_b = crossover(parent_a, parent_b, space, rng)
            for child in (child_a, child_b):
                child = repair(mutate(child, config.mutation_rate, rng), space, phi)
                offspring.append(child)
        population = elites + offspring[: config.population_size - elite_count]

    return GAResult(None, None, config.max_generations)
