"""Phase II: level-wise ddmin that shrinks a sufficient context until it
is 1-minimal.

Three passes (file, then function, then block) each run the classic
complement-testing ddmin over the level's units, visiting low-priority
units first.  Removing a unit always removes its whole subtree, so every
candidate stays renderable.  The certification sweep is that ddmin run
over the remaining leaves, one per chunk in document order and each
judged afresh: it drops what it finds removable until a whole sweep
drops nothing.  A budget stop keeps the last set the oracle accepted.
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


def ddmin(
    retained: frozenset[str],
    units: list[str],
    tree: UnitTree,
    session: OracleSession,
    pass_level: str,
    n: int = 2,
) -> frozenset[str]:
    """Remove every removable unit of ``units`` (tried in order, from
    ``n`` chunks) from the retained leaf set, which the oracle is taken to
    accept.  Terminates when no single remaining unit can be dropped, or
    with the last accepted set when the session refuses a call."""
    while units:
        n = min(n, len(units))
        for chunk in _chunks(units, n):
            dropped = {leaf.id for uid in chunk for leaf in tree.leaves_under(uid)}
            candidate = retained - dropped
            try:
                verdict = session.evaluate(
                    candidate, pass_level=pass_level, removed_count=len(retained) - len(candidate)
                )
            except OracleBudgetExhausted:
                return retained
            if verdict.sufficient:
                retained = candidate
                chunk_set = set(chunk)
                units = [uid for uid in units if uid not in chunk_set]
                n = max(n - 1, 2)
                break
        else:
            if n >= len(units):
                break
            n *= 2
    return retained


def ddmin_level(
    retained: frozenset[str],
    level: Level,
    tree: UnitTree,
    session: OracleSession,
    phi: dict[str, float],
) -> frozenset[str]:
    """:func:`ddmin` over one level's retained units, in ascending
    priority with document order on ties: low-value units go first."""
    order_pos = tree.order_pos
    units = sorted(
        _level_units(tree, level, retained),
        key=lambda uid: (phi.get(uid, 0.0), order_pos[uid]),
    )
    return ddmin(retained, units, tree, session, level.value)


def minimize(
    initial_leaf_ids: frozenset[str],
    tree: UnitTree,
    session: OracleSession,
    phi: dict[str, float],
) -> MinimizationResult:
    """File, function and block reduction plus a certification sweep.

    ``initial_leaf_ids`` must be a set the session has accepted, as for
    :func:`ddmin`: the GA's accepted set, or the whole context the
    pipeline judged.  It is certified unless the budget ran out; then the
    stopped pass keeps its last accepted set and no later pass runs.
    """
    retained = frozenset(initial_leaf_ids)
    per_level_removed: dict[str, int] = {}
    for level in PASS_LEVELS:
        before = len(retained)
        retained = ddmin_level(retained, level, tree, session, phi)
        per_level_removed[level.value] = before - len(retained)
        if session.exhausted:
            break
    else:
        # certification: every leaf must be necessary, each judged afresh
        leaves = sorted(retained, key=tree.order_pos.__getitem__)
        retained = ddmin(retained, leaves, tree, session, "certify", n=len(leaves))
    return MinimizationResult(retained, per_level_removed, one_minimal_certified=not session.exhausted)
