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
from .oracle import OracleBudgetExhausted, OracleSession

PASS_LEVELS = (Level.FILE, Level.FUNCTION, Level.BLOCK)


@dataclass
class MinimizationResult:
    retained_leaf_ids: frozenset[str]
    per_level_removed: dict[str, int]
    one_minimal_certified: bool


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


def ddmin_level(
    retained: frozenset[str],
    level: Level,
    tree: UnitTree,
    session: OracleSession,
    phi: dict[str, float],
) -> frozenset[str]:
    """Remove every removable unit of one level from the retained leaf set,
    which the oracle is taken to accept.

    Terminates when no single remaining unit of the level can be dropped
    without the oracle rejecting the result.
    """
    # ascending priority, document order on ties: low-value units go first
    order_pos = tree.order_pos
    units = sorted(
        _level_units(tree, level, retained),
        key=lambda uid: (phi.get(uid, 0.0), order_pos[uid]),
    )
    n = min(2, len(units))
    while units and n >= 1:
        n = min(n, len(units))
        reduced = False
        for chunk in _chunks(units, n):
            dropped = {leaf.id for uid in chunk for leaf in tree.leaves_under(uid)}
            candidate = retained - dropped
            verdict = session.evaluate(
                candidate, pass_level=level.value, removed_count=len(retained) - len(candidate)
            )
            if verdict.sufficient:
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
) -> MinimizationResult:
    """File, function and block reduction plus a certification sweep.

    ``initial_leaf_ids`` must be a set the session has accepted, as for
    :func:`ddmin_level`: the GA's accepted set, or the whole context the
    pipeline judged.  If the oracle budget runs out mid-pass, the best
    retained set so far is returned uncertified; the session records
    that its budget ran out.
    """
    retained = frozenset(initial_leaf_ids)
    per_level_removed: dict[str, int] = {}
    certified = False

    try:
        for level in PASS_LEVELS:
            before = len(retained)
            retained = ddmin_level(retained, level, tree, session, phi)
            per_level_removed[level.value] = before - len(retained)

        # certification: every remaining leaf must be individually necessary,
        # judged afresh, as the session judges every certify probe
        certified = True
        order_pos = tree.order_pos
        for leaf_id in sorted(retained, key=lambda uid: order_pos[uid]):
            verdict = session.evaluate(retained - {leaf_id}, pass_level="certify", removed_count=1)
            if verdict.sufficient:
                certified = False
    except OracleBudgetExhausted:
        certified = False

    return MinimizationResult(
        retained_leaf_ids=retained,
        per_level_removed=per_level_removed,
        one_minimal_certified=certified,
    )
