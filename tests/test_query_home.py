"""Property tests: the structured query and the fault resolver that
``instance`` owns give exactly what their earlier homes gave.

The references below are verbatim frozen copies of the earlier code,
kept here on purpose: ``compressor``'s ``StructuredQuery`` and
``build_query``; ``dataset``'s fault resolver, which fell back to the
innermost unit where a location had no function-level unit; and
``compressor``'s resolver, heuristic score and per-query-caching
``HeuristicScorer``.  Every tree holds an empty file, and faults fall in
files the tree lacks and on lines past a file's end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from hypothesis import given
from hypothesis import strategies as st

from ctxdistill.code_model import (
    CodeUnit,
    Level,
    UnitTree,
    build_tree,
    enclosing_unit,
    unit_text,
)
from ctxdistill.compressor import HeuristicScorer
from ctxdistill.dataset import FaultFacts, _parse_segment, fault_facts
from ctxdistill.instance import FaultLocation, build_query, fault_units
from ctxdistill.priority import lex_identifiers

from test_indexes import NAMES, SETTINGS, defined_names, frozen_called_names
from test_role_facts import any_tree

# --- frozen references ------------------------------------------------------------


@dataclass(frozen=True)
class FrozenStructuredQuery:
    issue_text: str
    fault_locations: tuple[FaultLocation, ...]
    rendered: str
    issue_identifiers: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "issue_identifiers", lex_identifiers(self.issue_text))


def frozen_build_query(issue_text: str, fault_locations: Sequence[FaultLocation]) -> FrozenStructuredQuery:
    if not issue_text:
        raise ValueError("issue_text must be non-empty")
    parts = [f"ISSUE:\n{issue_text}\n\nFAULT LOCATIONS:\n"]
    for fl in fault_locations:
        suffix = f" [{fl.symbol}]" if fl.symbol else ""
        parts.append(f"- {fl.path}:{fl.line}{suffix}\n")
    return FrozenStructuredQuery(issue_text, tuple(fault_locations), "".join(parts))


def frozen_dataset_fault_units(tree: UnitTree, faults: Iterable[FaultLocation]) -> list[CodeUnit]:
    units: list[CodeUnit] = []
    seen: set[str] = set()
    for fl in faults:
        unit = enclosing_unit(tree, fl.path, fl.line, level=Level.FUNCTION)
        if unit is None:
            unit = enclosing_unit(tree, fl.path, fl.line)
        if unit is not None and unit.id not in seen:
            seen.add(unit.id)
            units.append(unit)
    return units


def frozen_fault_facts(tree: UnitTree, faults: Iterable[FaultLocation]) -> FaultFacts:
    texts = [unit_text(tree, u) for u in frozen_dataset_fault_units(tree, faults)]
    modules = [_parse_segment(t) for t in texts]
    return FaultFacts(
        calls=frozenset().union(*(frozen_called_names(m) for m in modules)),
        identifiers=frozenset().union(*(lex_identifiers(t) for t in texts)),
        defined=frozenset().union(*(defined_names(m.body) for m in modules if m is not None)),
    )


def frozen_compressor_fault_units(tree, faults):
    return [(fl, enclosing_unit(tree, fl.path, fl.line, level=Level.FUNCTION)) for fl in faults]


def frozen_near_fault(unit, faults) -> bool:
    for fl, enclosing in faults:
        if fl.path != unit.path:
            continue
        if unit.span.contains_line(fl.line):
            return True
        if enclosing is not None and (
            enclosing.span.contains(unit.span) or unit.span.contains(enclosing.span)
        ):
            return True
    return False


def frozen_score(query, text, unit, faults) -> float:
    issue_ids = query.issue_identifiers
    if issue_ids:
        overlap = len(lex_identifiers(text) & issue_ids) / len(issue_ids)
    else:
        overlap = 0.0
    fault = 1.0 if unit is not None and frozen_near_fault(unit, faults) else 0.0
    return 0.5 * overlap + 0.5 * fault


def frozen_heuristic_score(query, segment_text, unit=None, tree=None) -> float:
    faults = frozen_compressor_fault_units(tree, query.fault_locations) if tree is not None else []
    return frozen_score(query, segment_text, unit, faults)


class FrozenHeuristicScorer:
    max_batch_size = 256

    def __init__(self, tree):
        self.tree = tree
        self._query = None
        self._faults = []

    def _faults_for(self, query):
        if query is not self._query:
            self._query, self._faults = query, frozen_compressor_fault_units(self.tree, query.fault_locations)
        return self._faults

    def score_batch(self, query, items):
        faults = self._faults_for(query)
        return [frozen_score(query, text, unit, faults) for unit, text in items]


# --- strategies -----------------------------------------------------------------------

EMPTY_FILE = "pkg/empty.py"
ABSENT_FILE = "pkg/absent.py"

symbols = st.one_of(st.none(), st.just(""), st.sampled_from(NAMES), st.text(max_size=8))
fault_lists = st.lists(
    st.builds(FaultLocation, st.text(max_size=12), st.integers(-2, 500), symbols), max_size=4
)
issue_texts = st.one_of(
    st.text(min_size=1),
    st.text(alphabet="aZ_9 .()\n\r\t#éß0ﬁ ", min_size=1, max_size=80),
    st.lists(st.sampled_from([*NAMES, "\n", "é", "naïve", " "]), min_size=1).map("".join),
)

trees = any_tree.map(
    lambda tree: build_tree(tree.instance_id, [*tree.sources.items(), (EMPTY_FILE, "")])
)


@st.composite
def fault_cases(draw):
    """A tree (with an empty file) and faults in it, past a file's end, and
    in a file it lacks."""
    tree = draw(trees)
    paths = [*tree.sources, ABSENT_FILE]
    faults = []
    for _ in range(draw(st.integers(0, 4))):
        path = draw(st.sampled_from(paths))
        last = len(tree.lines.get(path, []))
        line = draw(st.integers(0, last + 2))
        faults.append(FaultLocation(path, line, draw(st.sampled_from([None, *NAMES]))))
    return tree, faults


# --- properties -----------------------------------------------------------------------


@SETTINGS
@given(issue_texts, fault_lists)
def test_build_query_matches_frozen_query(issue_text, faults):
    query = build_query(issue_text, faults)
    expected = frozen_build_query(issue_text, faults)
    assert query.rendered.encode() == expected.rendered.encode()
    assert query.issue_identifiers == expected.issue_identifiers
    assert (query.issue_text, query.fault_locations) == (expected.issue_text, expected.fault_locations)


@SETTINGS
@given(fault_cases())
def test_fault_facts_match_the_frozen_resolver(case):
    tree, faults = case
    assert fault_facts(tree, faults) == frozen_fault_facts(tree, faults)


@SETTINGS
@given(fault_cases(), issue_texts)
def test_heuristic_scores_match_the_frozen_resolver(case, issue_text):
    tree, faults = case
    query = build_query(issue_text, faults)
    frozen_query = frozen_build_query(issue_text, faults)
    scorer, frozen_scorer = HeuristicScorer(tree), FrozenHeuristicScorer(tree)
    items = [(leaf, unit_text(tree, leaf)) for leaf in tree.leaves]
    assert scorer.score_batch(query, items) == frozen_scorer.score_batch(frozen_query, items)
    for leaf, text in items:
        expected = frozen_heuristic_score(frozen_query, text, unit=leaf, tree=tree)
        assert HeuristicScorer(tree).score_batch(query, [(leaf, text)])[0] == expected


def test_the_dropped_fallback_read_only_the_empty_text_of_an_empty_file():
    tree = build_tree("t", [(EMPTY_FILE, "")])
    faults = [FaultLocation(EMPTY_FILE, 1)]
    [fallback] = frozen_dataset_fault_units(tree, faults)
    assert fallback.level is Level.FILE and unit_text(tree, fallback) == ""
    assert fault_units(tree, faults) == [None]
    assert fault_facts(tree, faults) == frozen_fault_facts(tree, faults)
