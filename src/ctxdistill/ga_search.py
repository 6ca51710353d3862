"""Phase I: population search over inclusion genomes.

A genome is one bit per file- or function-level unit (blocks stay
included until Phase II).  The search stops at the first candidate the
oracle accepts; fitness only steers selection among failing candidates.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Callable, Iterator

from .code_model import Level, UnitTree
from .oracle import OracleBudgetExhausted, OracleSession, OracleVerdict
from .priority import PatchInfo

TraceWriter = Callable[[dict], None]


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

    def hash(self) -> str:
        return hashlib.sha1(bytes(self.bits)).hexdigest()[:16]


class GenomeSpace:
    """Mapping between genome positions and the tree's file/function units."""

    def __init__(self, tree: UnitTree):
        self.tree = tree
        self.unit_ids = [
            uid
            for uid in tree.unit_order
            if tree.index[uid].level in (Level.FILE, Level.FUNCTION)
        ]
        self.position = {uid: i for i, uid in enumerate(self.unit_ids)}

        # contiguous genome ranges per file, for subtree crossover
        self.file_ranges: list[tuple[int, int]] = []
        start = None
        for i, uid in enumerate(self.unit_ids):
            if tree.index[uid].level is Level.FILE:
                if start is not None:
                    self.file_ranges.append((start, i))
                start = i
        if start is not None:
            self.file_ranges.append((start, len(self.unit_ids)))

        # ancestor positions per genome position (self excluded)
        self.ancestor_positions: list[tuple[int, ...]] = []
        for uid in self.unit_ids:
            chain = []
            unit = tree.index[uid]
            while unit.parent_id is not None:
                unit = tree.index[unit.parent_id]
                if unit.id in self.position:
                    chain.append(self.position[unit.id])
            self.ancestor_positions.append(tuple(chain))

        # governing genome positions per leaf segment (self included when
        # the leaf is itself a genome unit)
        self.leaf_ids: list[str] = []
        self.leaf_governors: list[tuple[int, ...]] = []
        for uid in tree.unit_order:
            unit = tree.index[uid]
            if not unit.is_leaf or unit.level is Level.FILE:
                continue
            governors = []
            current = unit
            while current is not None:
                if current.id in self.position:
                    governors.append(self.position[current.id])
                current = tree.index[current.parent_id] if current.parent_id else None
            self.leaf_ids.append(uid)
            self.leaf_governors.append(tuple(governors))

    def __len__(self) -> int:
        return len(self.unit_ids)


def is_upward_consistent(genome: Genome, space: GenomeSpace) -> bool:
    return all(
        all(genome.bits[a] for a in space.ancestor_positions[i])
        for i, bit in enumerate(genome.bits)
        if bit
    )


def repair(genome: Genome, space: GenomeSpace, phi: dict[str, float]) -> Genome:
    """Force upward consistency; revive all-zero genomes by activating the
    highest-priority unit (earliest in document order on ties)."""
    bits = list(genome.bits)
    for i, bit in enumerate(bits):
        if bit:
            for a in space.ancestor_positions[i]:
                bits[a] = 1
    if not any(bits):
        best = max(range(len(bits)), key=lambda i: (phi.get(space.unit_ids[i], 0.0), -i))
        bits[best] = 1
        for a in space.ancestor_positions[best]:
            bits[a] = 1
    return Genome(tuple(bits))


def _kept_leaves(genome: Genome, space: GenomeSpace) -> Iterator[str]:
    """Leaves kept by a genome, in document order: all governing
    file/function bits are on."""
    bits = genome.bits
    for leaf_id, governors in zip(space.leaf_ids, space.leaf_governors):
        if all(bits[g] for g in governors):
            yield leaf_id


def retained_leaf_ids(genome: Genome, space: GenomeSpace) -> frozenset[str]:
    return frozenset(_kept_leaves(genome, space))


def fitness(genome: Genome, space: GenomeSpace, phi: dict[str, float]) -> float:
    """Summed priority of the kept leaves.  The sum runs in document
    order: float addition is not associative, so summing in set order
    would make the value, and the GA's ranking, depend on the hash seed."""
    return sum(phi.get(leaf_id, 0.0) for leaf_id in _kept_leaves(genome, space))


def init_population(
    space: GenomeSpace,
    phi: dict[str, float],
    patch: PatchInfo,
    config: GAConfig,
    rng: random.Random,
) -> list[Genome]:
    """Seed individuals: all-on, gold-patch files only, then
    priority-biased random genomes."""
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
    best = picks[0]
    for g in picks[1:]:
        if (g.fitness or 0.0) > (best.fitness or 0.0):
            best = g
    return best


@dataclass
class GAResult:
    genome: Genome | None
    generation_found: int | None
    generations_run: int
    budget_exhausted: bool = False


def run_ga(
    tree: UnitTree,
    phi: dict[str, float],
    patch: PatchInfo,
    session: OracleSession,
    config: GAConfig,
    trace: TraceWriter | None = None,
    on_candidate: Callable[[Genome, OracleVerdict], None] | None = None,
) -> GAResult:
    """Evolve genomes until the oracle accepts one; stop immediately on
    the first success.  Fully deterministic given the seed and a
    deterministic oracle."""
    space = GenomeSpace(tree)
    rng = random.Random(config.rng_seed)

    if not space.unit_ids:
        try:
            verdict = session.evaluate(frozenset())
        except OracleBudgetExhausted:
            return GAResult(None, None, 0, budget_exhausted=True)
        empty = Genome(())
        if trace:
            trace(
                {
                    "generation": 0,
                    "genome_hash": empty.hash(),
                    "fitness": 0.0,
                    "sufficient": verdict.sufficient,
                    "passes": verdict.passes,
                    "samples": verdict.samples,
                    "cache_hit": verdict.cache_hit,
                }
            )
        if verdict.sufficient:
            return GAResult(empty, 0, 1)
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
            try:
                verdict = session.evaluate(retained_leaf_ids(genome, space))
            except OracleBudgetExhausted:
                return GAResult(None, None, generation + 1, budget_exhausted=True)
            if trace:
                trace(
                    {
                        "generation": generation,
                        "genome_hash": genome.hash(),
                        "fitness": genome.fitness,
                        "sufficient": verdict.sufficient,
                        "passes": verdict.passes,
                        "samples": verdict.samples,
                        "cache_hit": verdict.cache_hit,
                    }
                )
            if on_candidate:
                on_candidate(genome, verdict)
            if verdict.sufficient:
                return GAResult(genome, generation, generation + 1)

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
