"""Phase II: level-wise ddmin that shrinks a sufficient context until it
is 1-minimal.

Three passes (file, then function, then block) each run the classic
complement-testing ddmin over the level's units, visiting low-priority
units first.  Removing a unit always removes its whole subtree, so every
candidate stays renderable.  A final certification sweep re-tests every
remaining leaf with a fresh oracle evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .code_model import Level, UnitTree
from .oracle import OracleBudgetExhausted, OracleSession, TraceWriter, verdict_cache_key

PASS_LEVELS = (Level.FILE, Level.FUNCTION, Level.BLOCK)


class InsufficientContextError(ValueError):
    """ddmin was handed a context the oracle already rejects."""


@dataclass
class MinimizationResult:
    retained_leaf_ids: frozenset[str]
    per_level_removed: dict[str, int]
    one_minimal_certified: bool
    budget_exhausted: bool


def _level_units(tree: UnitTree, level: Level, retained: frozenset[str]) -> set[str]:
    """Units of ``level`` that still own at least one retained leaf: the
    unit at ``level`` on each retained leaf's way up, where it has one."""
    units = set()
    for uid in retained:
        unit = tree.index[uid]
        while unit.level is not level and unit.parent_id is not None:
            unit = tree.index[unit.parent_id]
        if unit.level is level:
            units.add(unit.id)
    return units


def _chunks(units: list[str], n: int) -> list[list[str]]:
    total = len(units)
    bounds = [(i * total) // n for i in range(n + 1)]
    return [units[bounds[i] : bounds[i + 1]] for i in range(n)]


def _probe(
    session: OracleSession,
    candidate: frozenset[str],
    trace: TraceWriter | None,
    pass_level: str,
    step: int,
    removed_count: int,
    fresh: bool = False,
) -> bool:
    """Evaluate one candidate, write its trace record, return sufficiency."""
    sufficient = session.evaluate(candidate, fresh=fresh).sufficient
    if trace:
        trace(
            {
                "pass_level": pass_level,
                "step": step,
                "candidate_hash": verdict_cache_key(session.instance_id, candidate),
                "removed_count": removed_count,
                "sufficient": sufficient,
            }
        )
    return sufficient


def ddmin_level(
    retained: frozenset[str],
    level: Level,
    tree: UnitTree,
    session: OracleSession,
    phi: dict[str, float],
    trace: TraceWriter | None = None,
    verified: bool = False,
) -> frozenset[str]:
    """Remove every removable unit of one level from the retained leaf set.

    Terminates when no single remaining unit of the level can be dropped
    without the oracle rejecting the result.
    """
    if not verified and not _probe(session, retained, trace, "verify", 0, 0):
        raise InsufficientContextError(
            f"initial context rejected before {level.value}-level reduction"
        )

    # ascending priority, document order on ties: low-value units go first
    order_pos = tree.order_pos
    units = sorted(
        _level_units(tree, level, retained),
        key=lambda uid: (phi.get(uid, 0.0), order_pos[uid]),
    )
    step = 0
    n = min(2, len(units))
    while units and n >= 1:
        n = min(n, len(units))
        reduced = False
        for chunk in _chunks(units, n):
            dropped = {leaf.id for uid in chunk for leaf in tree.leaves_under(uid)}
            candidate = retained - dropped
            sufficient = _probe(
                session, candidate, trace, level.value, step, len(retained) - len(candidate)
            )
            step += 1
            if sufficient:
                retained = candidate
                chunk_set = set(chunk)
                units = [uid for uid in units if uid not in chunk_set]
                n = max(n - 1, 2)
                reduced = True
                break
        if not reduced:
            if n >= len(units):
                break
            n = min(n * 2, len(units))
    return retained


def minimize(
    initial_leaf_ids: frozenset[str],
    tree: UnitTree,
    session: OracleSession,
    phi: dict[str, float],
    trace: TraceWriter | None = None,
) -> MinimizationResult:
    """File, function, then block reduction plus a certification sweep.

    If the oracle budget runs out mid-pass the best retained set so far
    is returned uncertified, with ``budget_exhausted`` set.
    """
    retained = frozenset(initial_leaf_ids)
    per_level_removed: dict[str, int] = {}
    certified = False
    budget_exhausted = False

    try:
        # the first pass verifies the starting context
        for level in PASS_LEVELS:
            before = len(retained)
            verified = level is not PASS_LEVELS[0]
            retained = ddmin_level(
                retained, level, tree, session, phi, trace=trace, verified=verified
            )
            per_level_removed[level.value] = before - len(retained)

        # certification: every remaining leaf must be individually necessary,
        # judged by fresh evaluations rather than cached verdicts
        certified = True
        order_pos = tree.order_pos
        for step, leaf_id in enumerate(sorted(retained, key=lambda uid: order_pos[uid])):
            if _probe(session, retained - {leaf_id}, trace, "certify", step, 1, fresh=True):
                certified = False
    except OracleBudgetExhausted:
        certified = False
        budget_exhausted = True

    return MinimizationResult(
        retained_leaf_ids=retained,
        per_level_removed=per_level_removed,
        one_minimal_certified=certified,
        budget_exhausted=budget_exhausted,
    )
