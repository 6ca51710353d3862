"""Property tests: ``compress`` scores each leaf in one pass, ``render``
emits from the tree's line table, and ``fitness`` reads a per-run list of
leaf priorities, each with exactly the output of the path it replaced.

The references below are verbatim frozen copies of the earlier code,
kept here on purpose: a ``render`` that splits every included source
again with its line breaks kept, a ``score_segments`` that builds an
``(idx, unit, text)`` triple per piece, a fresh item list per batch and
a max-merge dictionary, a ``select_greedy`` that sorts by a key function
per item, a heuristic score that walks the fault list per segment, and a
``fitness`` that looks up each kept leaf's priority by id.  Random
module trees come from ``tests/test_indexes.py`` and
``tests/test_score_once.py``.
"""

from __future__ import annotations

import functools
import logging
import math
import operator
import time
from typing import Iterable, Iterator

from hypothesis import given
from hypothesis import strategies as st

from ctxdistill.code_model import build_tree, split_lines, unit_text, upward_closure
from ctxdistill.compressor import (
    CompressionBudget,
    CompressionResult,
    HeuristicScorer,
    ScoredSegment,
    ScorerError,
    WindowConfig,
    compress,
    score_segments,
    select_greedy,
    split_windows,
)
from ctxdistill.ga_search import Genome, GenomeSpace, fitness, leaf_priorities, repair
from ctxdistill.instance import build_query, fault_units
from ctxdistill.priority import identifiers_in
from ctxdistill.render import RenderedContext, RenderedFile, render, render_full
from ctxdistill.tokens import count_tokens

from fixtures import FORM_FEED_SOURCE
from test_indexes import SETTINGS, module_source
from test_score_once import cases, long_function

log = logging.getLogger(__name__)


# --- frozen references: render ------------------------------------------------------


def frozen_indent_of(lines: list[str], span_start: int, span_end: int) -> str:
    for i in range(span_start - 1, span_end):
        line = lines[i]
        if line.strip():
            return line[: len(line) - len(line.lstrip())]
    return ""


def frozen_placeholder_line(indent: str, omitted_lines: int) -> str:
    return f"{indent}# ... {omitted_lines} lines omitted\n"


def frozen_emit(tree, unit, included, lines, out) -> None:
    if unit.is_leaf:
        out.extend(lines[unit.span.start_line - 1 : unit.span.end_line])
        return
    children = [tree.index[cid] for cid in unit.child_ids]
    i = 0
    while i < len(children):
        child = children[i]
        if child.id in included:
            frozen_emit(tree, child, included, lines, out)
            i += 1
            continue
        # maximal run of excluded siblings becomes one placeholder
        while i < len(children) and children[i].id not in included:
            i += 1
        last = children[i - 1]
        indent = frozen_indent_of(lines, child.span.start_line, last.span.end_line)
        out.append(frozen_placeholder_line(indent, last.span.end_line - child.span.start_line + 1))


def frozen_render(tree, ids: Iterable[str]) -> RenderedContext:
    included = upward_closure(tree, ids)

    per_file: list[RenderedFile] = []
    for file_unit in tree.files:
        if file_unit.id not in included:
            continue
        lines = split_lines(tree.sources[file_unit.path], keepends=True)
        out: list[str] = []
        frozen_emit(tree, file_unit, included, lines, out)
        per_file.append(RenderedFile(file_unit.path, "".join(out)))

    rendered = RenderedContext(per_file, 0)
    rendered.total_tokens = count_tokens(rendered.dump_text())
    return rendered


# --- frozen references: scoring and selection ---------------------------------------


def frozen_near_fault(unit, query, enclosing) -> bool:
    for fl, fault_unit in zip(query.fault_locations, enclosing):
        if fl.path != unit.path:
            continue
        if unit.span.contains_line(fl.line):
            return True
        if fault_unit is not None and (
            fault_unit.span.contains(unit.span) or unit.span.contains(fault_unit.span)
        ):
            return True
    return False


def frozen_score(query, text, unit, enclosing) -> float:
    issue_ids = query.issue_identifiers  # lexed, so without keywords
    if issue_ids:
        overlap = len(identifiers_in(text, issue_ids)) / len(issue_ids)
    else:
        overlap = 0.0
    fault = 1.0 if frozen_near_fault(unit, query, enclosing) else 0.0
    return 0.5 * overlap + 0.5 * fault


class FrozenHeuristicScorer:
    max_batch_size = 256

    def __init__(self, tree):
        self.tree = tree

    def score_batch(self, query, items):
        enclosing = fault_units(self.tree, query.fault_locations)
        return [frozen_score(query, text, unit, enclosing) for unit, text in items]


def frozen_clamp01(value: float) -> float:
    return min(1.0, max(0.0, float(value)))


def frozen_score_segments(query, segments, scorer, window_cfg=None, tiebreak=None, *, tiebreak_is_score=False):
    window_cfg = window_cfg or WindowConfig()

    pieces = []
    token_costs = []
    for idx, (unit, text) in enumerate(segments):
        cost = count_tokens(text)
        token_costs.append(cost)
        if cost <= window_cfg.window_tokens:
            pieces.append((idx, unit, text))
        else:
            for window in split_windows(text, window_cfg):
                pieces.append((idx, unit, window))

    batch_size = max(1, scorer.max_batch_size)
    piece_scores = []
    for offset in range(0, len(pieces), batch_size):
        batch = pieces[offset : offset + batch_size]
        items = [(unit, text) for _, unit, text in batch]
        scores = None
        for attempt in range(2):
            try:
                scores = scorer.score_batch(query, items)
                break
            except ScorerError as exc:
                if attempt == 0:
                    continue
                log.warning("scoring batch failed twice, assigning zeros: %s", exc)
        if scores is None:
            scores = [0.0] * len(batch)
        piece_scores.extend(frozen_clamp01(s) for s in scores)

    best = {}
    for (idx, _unit, _text), score in zip(pieces, piece_scores):
        best[idx] = max(best.get(idx, 0.0), score)

    results = []
    for idx, (unit, text) in enumerate(segments):
        score = best.get(idx, 0.0)
        if tiebreak_is_score and token_costs[idx] <= window_cfg.window_tokens:
            priority_tiebreak = score
        else:
            priority_tiebreak = tiebreak(unit, text) if tiebreak else 0.0
        results.append(
            ScoredSegment(
                unit_id=unit.id,
                score=score,
                token_cost=token_costs[idx],
                priority_tiebreak=priority_tiebreak,
                order_tiebreak=idx,
            )
        )
    return results


def frozen_select_greedy(scored, budget) -> set[str]:
    ordered = sorted(
        scored, key=lambda s: (-s.score, -s.priority_tiebreak, s.order_tiebreak)
    )
    selected: set[str] = set()
    remaining = budget.budget_tokens
    for i, seg in enumerate(ordered):
        if i == 0:
            selected.add(seg.unit_id)
            if seg.token_cost > budget.budget_tokens:
                break
            remaining -= seg.token_cost
        elif seg.token_cost <= remaining:
            selected.add(seg.unit_id)
            remaining -= seg.token_cost
    return selected


def frozen_compress(instance, tree, scorer, rate, window_cfg=None) -> CompressionResult:
    start = time.perf_counter()

    initial = render_full(tree)
    budget = CompressionBudget.from_rate(initial.total_tokens, rate)
    query = build_query(instance.issue_text, instance.fault_locations)

    segments = [(leaf, unit_text(tree, leaf)) for leaf in tree.leaves]
    enclosing = fault_units(tree, query.fault_locations)
    scored = frozen_score_segments(
        query,
        segments,
        scorer,
        window_cfg=window_cfg,
        tiebreak=lambda unit, text: frozen_score(query, text, unit, enclosing),
        tiebreak_is_score=type(scorer) is FrozenHeuristicScorer and scorer.tree is tree,
    )
    chosen = frozen_select_greedy(scored, budget)
    rendered = frozen_render(tree, chosen)
    latency = time.perf_counter() - start

    compressed_tokens = rendered.total_tokens
    achieved = (
        initial.total_tokens / compressed_tokens if compressed_tokens else math.inf
    )
    order_pos = tree.order_pos
    return CompressionResult(
        rendered=rendered,
        initial_tokens=initial.total_tokens,
        compressed_tokens=compressed_tokens,
        achieved_rate=achieved,
        latency_seconds=latency,
        selected_segment_ids=sorted(chosen, key=lambda uid: order_pos[uid]),
    )


# --- frozen reference: fitness ------------------------------------------------------


def frozen_kept_leaves(genome, space) -> Iterator[str]:
    bits = genome.bits
    for start, end in space.file_ranges:
        if bits[start]:
            for i in range(start + 1, end):
                if bits[i]:
                    lo, hi = space.tree.leaf_slice[space.unit_ids[i]]
                    yield from space.leaf_ids[lo:hi]


def frozen_fitness(genome, space, phi) -> float:
    total = 0.0
    for leaf_id in frozen_kept_leaves(genome, space):
        total += phi.get(leaf_id, 0.0)
    return total


# --- strategies -----------------------------------------------------------------------


@st.composite
def sources(draw) -> str:
    """A module with ``\\n``, ``\\r\\n`` or ``\\r`` line breaks, with or
    without a final one; empty and blank-only files included."""
    src = draw(st.one_of(module_source(), long_function, st.just(FORM_FEED_SOURCE)))
    ending = draw(st.sampled_from(["keep", "strip", "add"]))
    if ending == "strip":
        src = src.rstrip("\n")
    elif ending == "add" and src:
        src = src.rstrip("\n") + "\n"
    return src.replace("\n", draw(st.sampled_from(["\n", "\n", "\r\n", "\r"])))


trees = st.lists(sources(), min_size=1, max_size=3).map(
    lambda files: build_tree("t", [(f"pkg/m{i}.py", src) for i, src in enumerate(files)])
)


class StubScorer:
    """Scores from each text's length: in and out of [0, 1], NaN and
    infinite, with many ties.  Calls numbered in ``failing`` raise
    ``ScorerError``; every call's texts are logged."""

    VALUES = (-0.5, 0.0, 0.25, 0.25, 0.5, 1.0, 1.5, math.nan, math.inf, -math.inf, 1, 0)

    def __init__(self, max_batch_size: int, failing: frozenset[int] = frozenset()):
        self.max_batch_size = max_batch_size
        self.failing = failing
        self.calls: list[list[str]] = []

    def score_batch(self, query, items):
        self.calls.append([text for _, text in items])
        if len(self.calls) - 1 in self.failing:
            raise ScorerError("boom")
        return [self.VALUES[len(text) % len(self.VALUES)] for _, text in items]


def _same_scored(new: list[ScoredSegment], old: list[ScoredSegment]) -> None:
    assert [(s.unit_id, s.token_cost, s.order_tiebreak) for s in new] == [
        (s.unit_id, s.token_cost, s.order_tiebreak) for s in old
    ]
    assert [(s.score.hex(), float(s.priority_tiebreak).hex()) for s in new] == [
        (s.score.hex(), float(s.priority_tiebreak).hex()) for s in old
    ]


# --- properties -----------------------------------------------------------------------


@SETTINGS
@given(trees, st.randoms(use_true_random=False))
def test_render_matches_the_frozen_render(tree, rng):
    leaves = [leaf.id for leaf in tree.leaves]
    subsets = [leaves, [f.id for f in tree.files], []]
    subsets += [rng.sample(leaves, rng.randint(0, len(leaves))) for _ in range(6)]
    subsets += [rng.sample(tree.unit_order, rng.randint(0, len(tree.unit_order))) for _ in range(2)]
    for ids in subsets:
        new, old = render(tree, ids), frozen_render(tree, ids)
        assert [(rf.path, rf.text) for rf in new.per_file] == [(rf.path, rf.text) for rf in old.per_file]
        assert new.total_tokens == old.total_tokens


def test_render_keeps_or_adds_the_final_line_break():
    """Each way a file's text can end, on the line table and on a source
    holding ``\\r``."""
    for eol in ("\n", "\r\n", "\r"):
        for source in ("def f():\n    return 1\n\ndef g():\n    return 2", "x = 1\n\ndef g():\n    return 2\n"):
            tree = build_tree("t", [("m.py", source.replace("\n", eol))])
            first, last = tree.leaves[0].id, tree.leaves[-1].id
            for ids in ([first], [last], [first, last], []):
                ids = ids or [tree.files[0].id]
                new, old = render(tree, ids), frozen_render(tree, ids)
                assert new.per_file == old.per_file
                assert new.total_tokens == old.total_tokens
    tree = build_tree("t", [("m.py", "def f():\n    return 1\n\ndef g():\n    return 2")])
    assert render(tree, [tree.leaves[0].id]).per_file[0].text.endswith("lines omitted\n")
    assert render(tree, [tree.leaves[-1].id]).per_file[0].text.endswith("return 2")


@SETTINGS
@given(cases(), st.integers(1, 5), st.sampled_from([(), (0,), (1,), (0, 1), (2, 3), (1, 4)]))
def test_score_segments_and_select_greedy_match_the_frozen_path(case, batch, failing):
    tree, instance, window_cfg, rate = case
    query = build_query(instance.issue_text, instance.fault_locations)
    segments = [(leaf, unit_text(tree, leaf)) for leaf in tree.leaves]
    tiebreak = lambda unit, text: frozen_score(query, text, unit, fault_units(tree, query.fault_locations))
    new_stub, old_stub = StubScorer(batch, frozenset(failing)), StubScorer(batch, frozenset(failing))
    new = score_segments(query, segments, new_stub, window_cfg, tree=tree)
    old = frozen_score_segments(query, segments, old_stub, window_cfg, tiebreak)
    assert new_stub.calls == old_stub.calls
    _same_scored(new, old)
    budget = CompressionBudget.from_rate(render_full(tree).total_tokens, rate)
    assert select_greedy(new, budget) == frozen_select_greedy(old, budget)


@SETTINGS
@given(
    st.lists(
        st.tuples(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.sampled_from([0.0, 0.5, 1.0]), st.integers(0, 30)),
        max_size=30,
    ),
    st.integers(0, 200),
    st.randoms(use_true_random=False),
)
def test_select_greedy_breaks_ties_as_the_frozen_path_in_any_input_order(rows, budget_tokens, rng):
    """Scores clamped as ``score_segments`` clamps them, many tied, and
    segments passed in any order."""
    order = list(range(len(rows)))
    rng.shuffle(order)
    scored = [ScoredSegment(f"u{i}", score, cost, prio, i) for i, (score, prio, cost) in zip(order, rows)]
    budget = CompressionBudget(2.0, budget_tokens)
    assert select_greedy(scored, budget) == frozen_select_greedy(scored, budget)


@SETTINGS
@given(cases())
def test_compress_matches_the_frozen_compress(case):
    tree, instance, window_cfg, rate = case
    pairs = [
        (HeuristicScorer(tree), FrozenHeuristicScorer(tree)),
        (StubScorer(3, frozenset({0})), StubScorer(3, frozenset({0}))),
        (StubScorer(2, frozenset({1, 2})), StubScorer(2, frozenset({1, 2}))),
    ]
    for new_scorer, old_scorer in pairs:
        new = compress(instance, tree, new_scorer, rate, window_cfg)
        old = frozen_compress(instance, tree, old_scorer, rate, window_cfg)
        assert new.selected_segment_ids == old.selected_segment_ids
        assert new.rendered == old.rendered
        assert (new.initial_tokens, new.compressed_tokens) == (old.initial_tokens, old.compressed_tokens)
        assert new.achieved_rate == old.achieved_rate


def test_a_reply_of_the_wrong_length_is_a_failed_attempt():
    tree = build_tree("t", [("m.py", "def f():\n    return 1\n\ndef g():\n    return 2\n")])
    segments = [(leaf, unit_text(tree, leaf)) for leaf in tree.leaves]

    class Scorer:
        max_batch_size = 8

        def __init__(self, replies):
            self.replies = replies

        def score_batch(self, query, items):
            return self.replies.pop(0)

    # one score too many, then the right count: the retry's scores count
    scored = score_segments(build_query("q", []), segments, Scorer([[0.1, 0.9, 0.7], [0.3, 0.6]]))
    assert [s.score for s in scored] == [0.3, 0.6]
    # too few twice: the batch scores 0
    scored = score_segments(build_query("q", []), segments, Scorer([[0.9], [0.9]]))
    assert [s.score for s in scored] == [0.0, 0.0]


@SETTINGS
@given(trees, st.randoms(use_true_random=False))
def test_fitness_matches_the_frozen_fitness_bit_for_bit(tree, rng):
    space = GenomeSpace(tree)
    values = [1e16, 1.0, -1e16, 0.1, 1 / 3, 2.5e-16]
    phi = {uid: rng.choice(values) for uid in tree.unit_order if rng.random() < 0.9}
    leaf_phi = leaf_priorities(space, phi)
    for _ in range(20):
        genome = Genome(tuple(rng.randint(0, 1) for _ in range(len(space))))
        for candidate in (genome, repair(genome, space, phi) if len(space) else genome):
            assert fitness(candidate, space, leaf_phi).hex() == frozen_fitness(candidate, space, phi).hex()


def test_fitness_adds_each_kept_slice_left_to_right():
    source = "".join(f"def f{i}():\n    return {i}\n\n" for i in range(3))
    tree = build_tree("t", [("m.py", source)])
    space = GenomeSpace(tree)
    priorities = [1e16, 1.0, -1e16]
    phi = dict(zip(space.leaf_ids, priorities))
    all_on = Genome((1,) * len(space))
    assert functools.reduce(operator.add, priorities) == 0.0
    assert math.fsum(priorities) == 1.0
    assert fitness(all_on, space, leaf_priorities(space, phi)) == 0.0 == frozen_fitness(all_on, space, phi)
    # the middle function off: 1e16 + -1e16
    middle_off = Genome((1, 1, 0, 1))
    assert fitness(middle_off, space, leaf_priorities(space, phi)) == 0.0
