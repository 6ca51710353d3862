"""Inference-time compression: score segments against a structured query
and assemble a compressed context by budget-aware greedy selection.

Scorers are pluggable.  The built-in heuristic needs no model: it mixes
identifier overlap with the issue text and proximity to a fault
location.  A remote cross-encoder can be reached over HTTP.  Segments
longer than the scoring window are scored in overlapping line-aligned
windows and aggregated by max.

Ties in score break by the heuristic score of the segment's whole text,
then by document order.  ``compress`` does each piece of work once at
its level:

- per query: the query (``instance.build_query``) lexes the issue text
  when it is built.  ``_heuristic`` binds the issue identifiers, the
  lexer and the fault spans per path (``instance.fault_units``) into one
  scoring closure, which ``score_segments`` builds once if it needs
  whole-text tiebreaks.
- per batch: one call to the scorer, retried once, and one pass that
  clamps its scores.  ``HeuristicScorer`` builds one closure per batch.
- per leaf: its text and token count, once each, and one score.  A
  segment the heuristic scorer saw whole takes its score as its
  tiebreak; only windowed segments, and every segment under another
  scorer, call the tiebreak closure on their whole text.
"""

from __future__ import annotations

import logging
import math
import os
import time
from dataclasses import dataclass
from itertools import starmap
from operator import attrgetter
from typing import Callable, Protocol, Sequence

from .code_model import CodeUnit, UnitTree, split_lines, unit_text
from .instance import Instance, StructuredQuery, build_query, fault_units
from .priority import http_json, identifiers_in, json_field, json_value
from .render import RenderedContext, render, render_full
from .tokens import count_tokens

log = logging.getLogger(__name__)

ENV_SCORER_URL = "OCD_SCORER_URL"


class ScorerError(RuntimeError):
    """One scoring batch failed (retryable)."""


class ScorerUnavailableError(RuntimeError):
    """The remote scorer endpoint cannot be reached at all."""


@dataclass(frozen=True)
class WindowConfig:
    window_tokens: int = 512
    stride_tokens: int = 256

    def __post_init__(self) -> None:
        if self.window_tokens < 1 or self.stride_tokens < 1:
            raise ValueError("window and stride must be positive")


@dataclass(frozen=True)
class CompressionBudget:
    target_rate: float
    budget_tokens: int

    @classmethod
    def from_rate(cls, initial_tokens: int, target_rate: float) -> "CompressionBudget":
        """The rate rule's one home, which the CLI and the config call: a
        rate that is not a finite number > 1 raises ``ValueError``."""
        if not 1 < target_rate < math.inf:
            raise ValueError(f"compression rate must be a finite number > 1, not {target_rate}")
        return cls(target_rate, math.floor(initial_tokens / target_rate))


@dataclass(slots=True)
class ScoredSegment:
    """One leaf's score and tiebreaks.  Per-leaf records (this one,
    ``SegmentRecord``, ``RoleFacts``) are not frozen: a frozen dataclass
    pays ``object.__setattr__`` per field, and none of them is hashed."""

    unit_id: str
    score: float
    token_cost: int
    priority_tiebreak: float
    order_tiebreak: int


class SegmentScorer(Protocol):
    """Scores ``(unit, text)`` pairs; ``text`` is the unit's text or one
    window of it."""

    max_batch_size: int

    def score_batch(
        self, query: StructuredQuery, items: Sequence[tuple[CodeUnit, str]]
    ) -> list[float]: ...


# --- heuristic scorer ----------------------------------------------------


def _heuristic(tree: UnitTree, query: StructuredQuery) -> Callable[[CodeUnit, str], float]:
    """The heuristic score of ``(unit, text)`` under ``query``: half the
    share of the issue's identifiers that ``text`` names, half whether
    ``unit`` lies near a fault: its span contains the fault's line or lies
    inside the function-level unit enclosing it (``fault_units``; a unit
    containing that function contains the line).  The faults are keyed
    by path, so a unit outside every fault's file costs one lookup."""
    issue_ids = query.issue_identifiers
    count = len(issue_ids)
    faults: dict[str, list[tuple[int, int, int]]] = {}
    for fl, fault_unit in zip(query.fault_locations, fault_units(tree, query.fault_locations)):
        # no enclosing function: an empty range, which contains no span
        lo, hi = (fault_unit.span.start_line, fault_unit.span.end_line) if fault_unit else (1, 0)
        faults.setdefault(fl.path, []).append((fl.line, lo, hi))

    def score(unit: CodeUnit, text: str) -> float:
        overlap = len(identifiers_in(text, issue_ids)) / count if count else 0.0
        fault = 0.0
        near = faults.get(unit.path)
        if near:
            start, end = unit.span.start_line, unit.span.end_line
            for line, lo, hi in near:
                if start <= line <= end or (lo <= start and end <= hi):
                    fault = 1.0
                    break
        return 0.5 * overlap + 0.5 * fault

    return score


class HeuristicScorer:
    """Oracle-free default scorer, no model required: half identifier
    overlap with the issue, half fault-location proximity.

    A batch is scored through one ``_heuristic`` closure.  Scores lie in
    [0, 1], so a segment scored whole already has its whole-text
    tiebreak, which ``score_segments`` reuses.
    """

    max_batch_size = 256

    def __init__(self, tree: UnitTree):
        self.tree = tree

    def score_batch(
        self, query: StructuredQuery, items: Sequence[tuple[CodeUnit, str]]
    ) -> list[float]:
        return list(starmap(_heuristic(self.tree, query), items))


# --- remote scorer --------------------------------------------------------


class RemoteScorer:
    """HTTP client for a served cross-encoder.

    Wire contract: ``POST /score`` with ``{"query": str, "segments":
    [str]}`` returning ``{"scores": [float]}``; ``GET /capabilities``
    advertises ``{"max_batch_size": int}``, 32 if missing.  Both go
    through ``transport``, ``priority.http_json`` by default; its errors
    are ``ScorerUnavailableError`` at ``/capabilities`` and ``ScorerError``
    at ``/score``.  Replies are read with ``priority.json_value``: scores
    that are not one finite JSON number per segment raise ``ScorerError``,
    which ``score_segments`` retries, and a batch size that is not an
    integer >= 1 raises ``ScorerUnavailableError``.
    """

    def __init__(self, base_url: str | None = None, timeout: int = 60, transport=None):
        self.base_url = (base_url or os.environ.get(ENV_SCORER_URL, "")).rstrip("/")
        if not self.base_url:
            raise ScorerUnavailableError(f"no scorer endpoint configured (set {ENV_SCORER_URL})")
        self.timeout = timeout
        self.transport = transport or http_json
        try:
            reply = self.transport(f"{self.base_url}/capabilities", None, {}, self.timeout)
            self.max_batch_size = json_field(reply, "max_batch_size", int, 32)
            if self.max_batch_size < 1:
                raise ValueError(f"max_batch_size must be at least 1, not {self.max_batch_size}")
        except Exception as exc:  # noqa: BLE001
            raise ScorerUnavailableError(f"scorer endpoint unreachable: {exc}") from exc

    def score_batch(
        self, query: StructuredQuery, items: Sequence[tuple[CodeUnit, str]]
    ) -> list[float]:
        payload = {"query": query.rendered, "segments": [text for _, text in items]}
        try:
            reply = self.transport(f"{self.base_url}/score", payload, {}, self.timeout)
            scores = [float(json_value(s, float, "score")) for s in json_field(reply, "scores", list)]
        except Exception as exc:  # noqa: BLE001
            raise ScorerError(f"scoring batch failed: {exc}") from exc
        if len(scores) != len(items):
            raise ScorerError("scorer returned a mismatched number of scores")
        return scores


# --- sliding-window scoring ----------------------------------------------


def split_windows(text: str, cfg: WindowConfig) -> list[str]:
    """Overlapping windows of whole ``split_lines`` lines, roughly
    ``window_tokens`` each, advancing by roughly ``stride_tokens``."""
    lines = split_lines(text, keepends=True)
    if not lines:
        return [text]
    costs = [count_tokens(line) for line in lines]
    windows: list[str] = []
    start = 0
    while start < len(lines):
        end = start
        total = 0
        while end < len(lines) and (total + costs[end] <= cfg.window_tokens or end == start):
            total += costs[end]
            end += 1
        windows.append("".join(lines[start:end]))
        if end >= len(lines):
            break
        stride_total = 0
        next_start = start
        while next_start < end and stride_total < cfg.stride_tokens:
            stride_total += costs[next_start]
            next_start += 1
        start = max(next_start, start + 1)
    return windows


def score_segments(
    query: StructuredQuery,
    segments: Sequence[tuple[CodeUnit, str]],
    scorer: SegmentScorer,
    window_cfg: WindowConfig | None = None,
    tree: UnitTree | None = None,
) -> list[ScoredSegment]:
    """Score each segment, windowing the ones longer than the scorer
    window and taking the max over window scores.

    A segment's priority tiebreak is the heuristic score of its whole
    text over ``tree``, 0 without one.  A ``HeuristicScorer`` over the
    same tree computes that same value, so a segment it scored whole
    takes its score as its tiebreak, and the heuristic runs only for
    windowed segments.

    The scorer items are the segments themselves when none is longer
    than the window, else each segment whole or as its windows, in
    order.  Per batch of ``scorer.max_batch_size`` items the scorer is
    called, once more if it raises ``ScorerError`` or returns the wrong
    number of scores, else the batch scores 0; scores are clamped to
    [0, 1], NaN to 0.  Per segment its token count is taken once, and
    the max over windows is taken only when some segment was windowed.
    """
    window_cfg = window_cfg or WindowConfig()
    limit = window_cfg.window_tokens

    costs = [count_tokens(text) for _, text in segments]
    owners: list[int] | None = None  # each item's segment, when some are windowed
    items: Sequence[tuple[CodeUnit, str]] = segments
    if max(costs, default=0) > limit:
        items, owners = [], []
        for idx, ((unit, text), cost) in enumerate(zip(segments, costs)):
            pieces = [text] if cost <= limit else split_windows(text, window_cfg)
            items += [(unit, piece) for piece in pieces]
            owners += [idx] * len(pieces)

    batch_size = max(1, scorer.max_batch_size)
    item_scores: list[float] = []
    for offset in range(0, len(items), batch_size):
        batch = items[offset : offset + batch_size]
        scores: Sequence[float] = [0.0] * len(batch)
        for attempt in range(2):
            try:
                reply = scorer.score_batch(query, batch)
                if len(reply) != len(batch):
                    raise ScorerError(f"{len(reply)} scores for {len(batch)} items")
                scores = reply
                break
            except ScorerError as exc:
                if attempt == 1:
                    log.warning("scoring batch failed twice, assigning zeros: %s", exc)
        item_scores += [v if 0.0 < v < 1.0 else 1.0 if v >= 1.0 else 0.0 for v in map(float, scores)]

    if owners is None:
        best = item_scores
    else:
        best = [0.0] * len(segments)
        for idx, value in zip(owners, item_scores):
            if value > best[idx]:
                best[idx] = value

    scored_whole = type(scorer) is HeuristicScorer and scorer.tree is tree
    if scored_whole and owners is None:
        ties = best
    elif tree is None:
        ties = [0.0] * len(segments)
    else:
        tiebreak = _heuristic(tree, query)
        ties = [
            score if scored_whole and cost <= limit else tiebreak(unit, text)
            for (unit, text), score, cost in zip(segments, best, costs)
        ]
    ids = [unit.id for unit, _ in segments]
    return list(map(ScoredSegment, ids, best, costs, ties, range(len(segments))))


# --- selection and the full pipeline ---------------------------------------


def select_greedy(scored: Sequence[ScoredSegment], budget: CompressionBudget) -> set[str]:
    """Descending-score greedy selection under the token budget.

    Ties break by priority then document order.  The single
    highest-ranked segment is always taken, even over budget; in that
    case it is the only selection.  Each sort takes one plain key and
    is stable, reversed too, so each later key ranks first and ties keep
    the order the earlier sorts gave.
    """
    ordered = sorted(scored, key=attrgetter("order_tiebreak"))
    ordered.sort(key=attrgetter("priority_tiebreak"), reverse=True)
    ordered.sort(key=attrgetter("score"), reverse=True)
    selected: set[str] = set()
    remaining = budget.budget_tokens
    for i, seg in enumerate(ordered):
        if i == 0:
            selected.add(seg.unit_id)
            if seg.token_cost > budget.budget_tokens:
                log.warning(
                    "top segment %s exceeds the budget (%d > %d tokens); kept anyway",
                    seg.unit_id,
                    seg.token_cost,
                    budget.budget_tokens,
                )
                break
            remaining -= seg.token_cost
        elif seg.token_cost <= remaining:
            selected.add(seg.unit_id)
            remaining -= seg.token_cost
    return selected


@dataclass
class CompressionResult:
    rendered: RenderedContext
    initial_tokens: int
    compressed_tokens: int
    achieved_rate: float
    latency_seconds: float
    selected_segment_ids: list[str]

    def stats(self) -> dict:
        """JSON-ready; an infinite rate (nothing kept) is ``None``, as JSON
        has no such number."""
        return {
            "initial_tokens": self.initial_tokens,
            "compressed_tokens": self.compressed_tokens,
            "achieved_rate": self.achieved_rate if math.isfinite(self.achieved_rate) else None,
            "latency_seconds": self.latency_seconds,
            "selected_segment_ids": self.selected_segment_ids,
        }


def compress(
    instance: Instance,
    tree: UnitTree,
    scorer: SegmentScorer,
    rate: float,
    window_cfg: WindowConfig | None = None,
) -> CompressionResult:
    """Full pipeline: query -> scores -> greedy selection -> rendering."""
    start = time.perf_counter()

    initial = render_full(tree)
    budget = CompressionBudget.from_rate(initial.total_tokens, rate)
    query = build_query(instance.issue_text, instance.fault_locations)

    segments = [(leaf, unit_text(tree, leaf)) for leaf in tree.leaves]
    scored = score_segments(query, segments, scorer, window_cfg=window_cfg, tree=tree)
    chosen = select_greedy(scored, budget)
    rendered = render(tree, chosen)
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
