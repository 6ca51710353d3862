"""Inference-time compression: score segments against a structured query
and assemble a compressed context by budget-aware greedy selection.

Scorers are pluggable.  The built-in heuristic needs no model: it mixes
identifier overlap with the issue text and proximity to a fault
location.  A remote cross-encoder can be reached over HTTP.  Segments
longer than the scoring window are scored in overlapping line-aligned
windows and aggregated by max.

Ties in score break by the heuristic score of the segment's whole text,
then by document order.  ``compress`` does each piece of per-query work
once: the query (``instance.build_query``) lexes the issue text when it
is built, and a segment that the heuristic scorer saw whole takes its
score as its tiebreak.  Only windowed segments, and every segment under
another scorer, compute the whole-text tiebreak separately.  The fault
units (``instance.fault_units``) are resolved once per scoring batch
and once for the tiebreaks.
"""

from __future__ import annotations

import logging
import math
import os
import time
from dataclasses import dataclass
from typing import Callable, Protocol, Sequence

from .code_model import CodeUnit, UnitTree, leaf_segments, split_lines, unit_text
from .instance import Instance, StructuredQuery, build_query, fault_units
from .priority import identifiers_in
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


@dataclass
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


def _near_fault(unit: CodeUnit, query: StructuredQuery, enclosing: Sequence[CodeUnit | None]) -> bool:
    """``enclosing`` is ``fault_units`` of the query's fault locations."""
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


def _score(
    query: StructuredQuery, text: str, unit: CodeUnit, enclosing: Sequence[CodeUnit | None]
) -> float:
    issue_ids = query.issue_identifiers  # lexed, so without keywords
    if issue_ids:
        overlap = len(identifiers_in(text, issue_ids)) / len(issue_ids)
    else:
        overlap = 0.0
    fault = 1.0 if _near_fault(unit, query, enclosing) else 0.0
    return 0.5 * overlap + 0.5 * fault


class HeuristicScorer:
    """Oracle-free default scorer, no model required: half identifier
    overlap with the issue, half fault-location proximity.

    The function units enclosing the query's faults are resolved once
    per batch, not once per segment.  Scores lie in [0, 1], so a segment
    scored whole already has its whole-text tiebreak: ``compress`` reuses
    it and computes a separate tiebreak only for windowed segments.
    """

    max_batch_size = 256

    def __init__(self, tree: UnitTree):
        self.tree = tree

    def score_batch(
        self, query: StructuredQuery, items: Sequence[tuple[CodeUnit, str]]
    ) -> list[float]:
        enclosing = fault_units(self.tree, query.fault_locations)
        return [_score(query, text, unit, enclosing) for unit, text in items]


# --- remote scorer --------------------------------------------------------


class RemoteScorer:
    """HTTP client for a served cross-encoder.

    Wire contract: ``POST /score`` with ``{"query": str, "segments":
    [str]}`` returning ``{"scores": [float]}``; ``GET /capabilities``
    advertises ``{"max_batch_size": int}``.
    """

    def __init__(self, base_url: str | None = None, timeout: int = 60, http=None):
        self.base_url = (base_url or os.environ.get(ENV_SCORER_URL, "")).rstrip("/")
        if not self.base_url:
            raise ScorerUnavailableError(f"no scorer endpoint configured (set {ENV_SCORER_URL})")
        self.timeout = timeout
        if http is None:
            import requests

            http = requests
        self.http = http
        try:
            response = self.http.get(f"{self.base_url}/capabilities", timeout=self.timeout)
            response.raise_for_status()
            self.max_batch_size = int(response.json().get("max_batch_size", 32))
        except Exception as exc:  # noqa: BLE001
            raise ScorerUnavailableError(f"scorer endpoint unreachable: {exc}") from exc

    def score_batch(
        self, query: StructuredQuery, items: Sequence[tuple[CodeUnit, str]]
    ) -> list[float]:
        try:
            response = self.http.post(
                f"{self.base_url}/score",
                json={"query": query.rendered, "segments": [text for _, text in items]},
                timeout=self.timeout,
            )
            response.raise_for_status()
            scores = response.json()["scores"]
        except Exception as exc:  # noqa: BLE001
            raise ScorerError(f"scoring batch failed: {exc}") from exc
        if len(scores) != len(items):
            raise ScorerError("scorer returned a mismatched number of scores")
        return [float(s) for s in scores]


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


def _clamp01(value: float) -> float:
    return min(1.0, max(0.0, float(value)))


def score_segments(
    query: StructuredQuery,
    segments: Sequence[tuple[CodeUnit, str]],
    scorer: SegmentScorer,
    window_cfg: WindowConfig | None = None,
    tiebreak: Callable[[CodeUnit, str], float] | None = None,
    *,
    tiebreak_is_score: bool = False,
) -> list[ScoredSegment]:
    """Score each segment, windowing the ones longer than the scorer
    window and taking the max over window scores.

    ``tiebreak`` gives a segment's priority tiebreak from its whole text.
    With ``tiebreak_is_score`` the scorer computes that same value, so a
    segment scored whole takes its score as its tiebreak and
    ``tiebreak`` runs only for windowed segments.
    """
    window_cfg = window_cfg or WindowConfig()

    pieces: list[tuple[int, CodeUnit, str]] = []
    token_costs: list[int] = []
    for idx, (unit, text) in enumerate(segments):
        cost = count_tokens(text)
        token_costs.append(cost)
        if cost <= window_cfg.window_tokens:
            pieces.append((idx, unit, text))
        else:
            for window in split_windows(text, window_cfg):
                pieces.append((idx, unit, window))

    batch_size = max(1, scorer.max_batch_size)
    piece_scores: list[float] = []
    for offset in range(0, len(pieces), batch_size):
        batch = pieces[offset : offset + batch_size]
        items = [(unit, text) for _, unit, text in batch]
        scores: list[float] | None = None
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
        piece_scores.extend(_clamp01(s) for s in scores)

    best: dict[int, float] = {}
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


# --- selection and the full pipeline ---------------------------------------


def select_greedy(scored: Sequence[ScoredSegment], budget: CompressionBudget) -> set[str]:
    """Descending-score greedy selection under the token budget.

    Ties break by priority then document order.  The single
    highest-ranked segment is always taken, even over budget; in that
    case it is the only selection.
    """
    ordered = sorted(
        scored, key=lambda s: (-s.score, -s.priority_tiebreak, s.order_tiebreak)
    )
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

    segments = [(leaf, unit_text(tree, leaf)) for leaf in leaf_segments(tree)]
    enclosing = fault_units(tree, query.fault_locations)
    scored = score_segments(
        query,
        segments,
        scorer,
        window_cfg=window_cfg,
        tiebreak=lambda unit, text: _score(query, text, unit, enclosing),
        tiebreak_is_score=type(scorer) is HeuristicScorer and scorer.tree is tree,
    )
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
