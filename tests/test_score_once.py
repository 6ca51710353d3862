"""Property tests: ``compress`` does each piece of per-query work once and
gives exactly the output of the path it replaced.

The references below are verbatim frozen copies of the earlier code,
kept here on purpose: an identifier lexer that builds each match object,
a heuristic score that lexes the issue text and resolves the fault units
again for every segment, a ``compress`` that scores every segment a
second time for its tiebreak, and a full render that re-emits every
leaf.  Random module trees come from ``tests/test_indexes.py``; small
scoring windows make many leaves windowed, and issue texts are drawn
from the trees' own identifiers so that scores tie.
"""

from __future__ import annotations

import logging
import math
import sys
import time
from unittest import mock

from hypothesis import given
from hypothesis import strategies as st

from ctxdistill import compressor
from ctxdistill.code_model import (
    Level,
    build_tree,
    enclosing_unit,
    unit_text,
    upward_closure,
)
from ctxdistill.compressor import (
    CompressionBudget,
    CompressionResult,
    HeuristicScorer,
    ScoredSegment,
    ScorerError,
    WindowConfig,
    compress,
    select_greedy,
    split_windows,
)
from ctxdistill.instance import FaultLocation, Instance, build_query
from ctxdistill.priority import _IDENT_RE, _KEYWORDS, identifiers_in, lex_identifiers
from ctxdistill.render import render, render_full
from ctxdistill.tokens import count_tokens

from fixtures import FORM_FEED_SOURCE
from test_indexes import NAMES, SETTINGS, module_source

log = logging.getLogger(__name__)


# --- frozen references ------------------------------------------------------------


def finditer_lex_identifiers(text: str) -> frozenset[str]:
    """Identifier tokens in ``text``, keywords excluded."""
    return frozenset(m.group(0) for m in _IDENT_RE.finditer(text)) - _KEYWORDS


def frozen_near_fault(unit, tree, faults) -> bool:
    for fl in faults:
        if fl.path != unit.path:
            continue
        if unit.span.contains_line(fl.line):
            return True
        enclosing = enclosing_unit(tree, fl.path, fl.line, level=Level.FUNCTION)
        if enclosing is not None and (
            enclosing.span.contains(unit.span) or unit.span.contains(enclosing.span)
        ):
            return True
    return False


def frozen_heuristic_score(query, segment_text, unit=None, tree=None) -> float:
    issue_ids = finditer_lex_identifiers(query.issue_text)
    if issue_ids:
        overlap = len(finditer_lex_identifiers(segment_text) & issue_ids) / len(issue_ids)
    else:
        overlap = 0.0
    fault = 0.0
    if unit is not None and tree is not None and frozen_near_fault(unit, tree, query.fault_locations):
        fault = 1.0
    return 0.5 * overlap + 0.5 * fault


class FrozenHeuristicScorer:
    max_batch_size = 256

    def __init__(self, tree):
        self.tree = tree

    def score_batch(self, query, items):
        return [
            frozen_heuristic_score(query, text, unit=unit, tree=self.tree) for unit, text in items
        ]


def frozen_clamp01(value: float) -> float:
    return min(1.0, max(0.0, float(value)))


def frozen_score_segments(query, segments, scorer, window_cfg=None, tiebreak=None):
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
        results.append(
            ScoredSegment(
                unit_id=unit.id,
                score=best.get(idx, 0.0),
                token_cost=token_costs[idx],
                priority_tiebreak=tiebreak(unit, text) if tiebreak else 0.0,
                order_tiebreak=idx,
            )
        )
    return results


def frozen_render_full(tree):
    return render(tree, tree.unit_order)


def frozen_compress(instance, tree, scorer, rate, window_cfg=None):
    start = time.perf_counter()

    initial = frozen_render_full(tree)
    budget = CompressionBudget.from_rate(initial.total_tokens, rate)
    query = build_query(instance.issue_text, instance.fault_locations)

    segments = [(leaf, unit_text(tree, leaf)) for leaf in tree.leaves]
    scored = frozen_score_segments(
        query,
        segments,
        scorer,
        window_cfg=window_cfg,
        tiebreak=lambda unit, text: frozen_heuristic_score(query, text, unit=unit, tree=tree),
    )
    chosen = select_greedy(scored, budget)
    rendered = render(tree, upward_closure(tree, chosen))
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


# --- strategies -----------------------------------------------------------------------


class CoarseScorer:
    """A scorer other than the heuristic one: coarse scores, some out of
    [0, 1], so ties are common and compress needs its whole-text tiebreak."""

    max_batch_size = 3

    def score_batch(self, query, items):
        return [(len(text) % 4) / 2 - 0.25 for _, text in items]


# a long leaf: a function of many simple lines, windowed by any small window
long_function = st.integers(8, 30).map(
    lambda n: "def long_one(alpha):\n" + "".join(f"    beta_{i} = alpha.fetch({i})\n" for i in range(n))
)

sources = st.one_of(module_source(), module_source(), long_function, st.just(FORM_FEED_SOURCE))
line_breaks = st.sampled_from(["\n", "\n", "\r\n"])
trees = st.lists(st.tuples(sources, line_breaks), min_size=1, max_size=3).map(
    lambda files: build_tree(
        "t", [(f"pkg/m{i}.py", src.replace("\n", eol)) for i, (src, eol) in enumerate(files)]
    )
)
issue_texts = st.lists(
    st.sampled_from([*NAMES, "self", "return", "x", "missing_name", "?", "long_one", "beta_3"]),
    min_size=1,
    max_size=6,
).map(" ".join)
windows = st.integers(4, 40).flatmap(
    lambda w: st.integers(1, w).map(lambda s: WindowConfig(w, s))
)


@st.composite
def cases(draw):
    tree = draw(trees)
    paths = list(tree.sources)
    faults = [
        FaultLocation(paths[i % len(paths)] if i < 3 else "pkg/absent.py", line)
        for i, line in draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 40)), max_size=3))
    ]
    instance = Instance("t", draw(issue_texts), faults, paths, repo_root="repo")
    window_cfg = draw(st.one_of(st.none(), windows))
    rate = draw(st.sampled_from([1.5, 2.0, 5.0, 9.0]))
    return tree, instance, window_cfg, rate


def _run(compress_fn, module, instance, tree, scorer, rate, window_cfg):
    """``compress_fn``'s result and the scored segments it selected from."""
    seen = []
    real = module.select_greedy

    def spy(scored, budget):
        seen.append(list(scored))
        return real(scored, budget)

    with mock.patch.object(module, "select_greedy", spy):
        result = compress_fn(instance, tree, scorer, rate, window_cfg)
    return result, seen[0]


def _assert_same_compression(case, new_scorer, old_scorer):
    tree, instance, window_cfg, rate = case
    new, new_scored = _run(compress, compressor, instance, tree, new_scorer, rate, window_cfg)
    old, old_scored = _run(
        frozen_compress, sys.modules[__name__], instance, tree, old_scorer, rate, window_cfg
    )
    assert new_scored == old_scored
    assert new.selected_segment_ids == old.selected_segment_ids
    assert new.rendered == old.rendered
    assert new.rendered.dump_text() == old.rendered.dump_text()
    assert (new.initial_tokens, new.compressed_tokens) == (old.initial_tokens, old.compressed_tokens)
    assert new.achieved_rate == old.achieved_rate


# --- properties -----------------------------------------------------------------------


@SETTINGS
@given(cases())
def test_compress_with_heuristic_scorer_matches_frozen_path(case):
    tree = case[0]
    _assert_same_compression(case, HeuristicScorer(tree), FrozenHeuristicScorer(tree))


@SETTINGS
@given(cases())
def test_compress_with_other_scorer_keeps_whole_text_tiebreak(case):
    _assert_same_compression(case, CoarseScorer(), CoarseScorer())


@SETTINGS
@given(cases())
def test_heuristic_score_matches_frozen_score(case):
    tree, instance, _, _ = case
    query = build_query(instance.issue_text, instance.fault_locations)
    scorer = HeuristicScorer(tree)
    scorer.score_batch(build_query("an earlier query", []), [])  # one scorer, query after query
    for leaf in tree.leaves:
        text = unit_text(tree, leaf)
        expected = frozen_heuristic_score(query, text, unit=leaf, tree=tree)
        assert HeuristicScorer(tree).score_batch(query, [(leaf, text)])[0] == expected
        assert scorer.score_batch(query, [(leaf, text)]) == [expected]


@SETTINGS
@given(
    st.one_of(
        st.text(),
        st.text(alphabet="aZ_9 .()\n\t#éß0", max_size=80),
        st.lists(st.sampled_from([*NAMES, "def", "class", "None", "x1", "_", "9a", " "])).map("".join),
    )
)
def test_lex_identifiers_matches_finditer(text):
    assert lex_identifiers(text) == finditer_lex_identifiers(text)


@SETTINGS
@given(
    st.lists(st.sampled_from([*NAMES, "def", "class", "None", "x1", "_", "9a", " ", "\n"])).map("".join),
    st.frozensets(st.sampled_from([*NAMES, "x1", "_", "a"])),
)
def test_identifiers_in_is_the_lexed_set_met_with_the_names(text, names):
    assert identifiers_in(text, names) == finditer_lex_identifiers(text) & names


@SETTINGS
@given(trees)
def test_render_full_matches_full_render(tree):
    full = render_full(tree)
    expected = frozen_render_full(tree)
    assert full.per_file == expected.per_file
    assert full.total_tokens == expected.total_tokens
    assert [rf.text for rf in full.per_file] == [tree.sources[f.path] for f in tree.files]


def test_render_full_covers_edge_files():
    files = [
        ("empty.py", ""),
        ("comments.py", "# only\r\n\r\n# comments\r\n"),
        ("crlf.py", "def f(x):\r\n    if x:\r\n        return 1\r\n    return 2"),
        ("broken.py", "def broken(:\n    this is not python\n"),
        ("ff.py", FORM_FEED_SOURCE),
    ]
    tree = build_tree("t", files)
    full = render_full(tree)
    expected = frozen_render_full(tree)
    assert full.per_file == expected.per_file
    assert [rf.text for rf in full.per_file] == [src for _, src in files]
    assert full.total_tokens == expected.total_tokens
