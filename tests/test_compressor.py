"""Query building, scoring, windowing, greedy selection, and compression."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxdistill.code_model import build_tree, split_lines, unit_text
from ctxdistill.compressor import (
    CompressionBudget,
    HeuristicScorer,
    RemoteScorer,
    ScoredSegment,
    ScorerError,
    ScorerUnavailableError,
    WindowConfig,
    compress,
    score_segments,
    select_greedy,
    split_windows,
)
from ctxdistill.instance import FaultLocation, Instance, build_query
from ctxdistill.tokens import count_tokens

from fixtures import module_with_functions, write_repo


def test_build_query_template_exact():
    query = build_query(
        "DPI doubles on unpickle",
        [FaultLocation("figure.py", 3043, "__setstate__"), FaultLocation("util.py", 12)],
    )
    assert query.rendered == (
        "ISSUE:\nDPI doubles on unpickle\n\n"
        "FAULT LOCATIONS:\n"
        "- figure.py:3043 [__setstate__]\n"
        "- util.py:12\n"
    )


def test_build_query_no_faults_keeps_section():
    query = build_query("broken", [])
    assert query.rendered.endswith("FAULT LOCATIONS:\n")


def test_build_query_deterministic_and_validates():
    a = build_query("x", [FaultLocation("a.py", 1)])
    b = build_query("x", [FaultLocation("a.py", 1)])
    assert a.rendered == b.rendered
    with pytest.raises(ValueError):
        build_query("", [])


def test_heuristic_score_terms():
    tree = build_tree("t", [("m.py", "def compute(rate):\n    return rate * 2\n")])
    seg = tree.leaves[0]
    text = unit_text(tree, seg)
    scorer = HeuristicScorer(tree)
    at_fault = build_query("crash somewhere else", [FaultLocation("m.py", 2)])
    assert scorer.score_batch(at_fault, [(seg, text)])[0] == pytest.approx(0.5)
    overlapping = build_query("compute rate wrong", [])
    # issue ids {compute, rate, wrong}; segment has compute and rate
    assert scorer.score_batch(overlapping, [(seg, text)])[0] == pytest.approx(0.5 * (2 / 3))
    unrelated = build_query("nothing matches here", [FaultLocation("other.py", 1)])
    assert scorer.score_batch(unrelated, [(seg, text)])[0] == 0.0
    both = build_query("compute rate", [FaultLocation("m.py", 1)])
    assert scorer.score_batch(both, [(seg, text)])[0] == pytest.approx(1.0)


def test_heuristic_scores_blocks_of_fault_function():
    source = (
        "def handler(x):\n"
        "    y = x + 1\n"
        "    if y > 0:\n"
        "        y -= 1\n"
        "    return y\n"
        "\n"
        "def other(z):\n"
        "    return z\n"
    )
    tree = build_tree("t", [("m.py", source)])
    query = build_query("trouble", [FaultLocation("m.py", 2)])
    segs = tree.leaves
    fault_blocks = [s for s in segs if s.span.start_line <= 5]
    scorer = HeuristicScorer(tree)
    for seg in fault_blocks:
        assert scorer.score_batch(query, [(seg, unit_text(tree, seg))])[0] >= 0.5
    other = next(s for s in segs if s.span.start_line > 5)
    assert scorer.score_batch(query, [(other, unit_text(tree, other))])[0] == 0.0


class StubScorer:
    max_batch_size = 4

    def __init__(self, mapping=None, default=0.3, fail_times=0):
        self.mapping = mapping or {}
        self.default = default
        self.fail_times = fail_times
        self.batches = []

    def score_batch(self, query, items):
        if self.fail_times > 0:
            self.fail_times -= 1
            raise ScorerError("boom")
        self.batches.append([text for _, text in items])
        return [self.mapping.get(text, self.default) for _, text in items]


def _segments(tree):
    return [(seg, unit_text(tree, seg)) for seg in tree.leaves]


def test_score_segments_whole_and_clamped():
    tree = build_tree("t", [("m.py", module_with_functions(3))])
    segments = _segments(tree)
    scorer = StubScorer(default=1.7)  # must clamp to 1.0
    scored = score_segments(build_query("q", []), segments, scorer)
    assert len(scored) == len(segments)
    assert all(s.score == 1.0 for s in scored)
    for (unit, text), s in zip(segments, scored):
        assert s.token_cost == count_tokens(text)
        assert s.unit_id == unit.id


def test_score_segments_windows_long_segment_max_aggregation():
    body_lines = "".join(f"    value_{i} = {i}\n" for i in range(100))
    source = "def big(x):\n" + body_lines + "    return x\n"
    tree = build_tree("t", [("m.py", source)])
    segments = _segments(tree)
    cfg = WindowConfig(window_tokens=120, stride_tokens=60)

    class WindowScorer:
        max_batch_size = 64

        def __init__(self):
            self.calls = 0

        def score_batch(self, query, items):
            out = []
            for _, text in items:
                self.calls += 1
                out.append(0.9 if "value_42" in text else 0.2)
            return out

    scorer = WindowScorer()
    scored = score_segments(build_query("q", []), segments, scorer, window_cfg=cfg)
    big = max(scored, key=lambda s: s.token_cost)
    assert big.token_cost > cfg.window_tokens
    assert scorer.calls > len(segments)  # long segment was windowed
    assert big.score == pytest.approx(0.9)


def test_score_segments_empty_input():
    assert score_segments(build_query("q", []), [], StubScorer()) == []


def test_score_segments_retries_then_zeroes():
    tree = build_tree("t", [("m.py", module_with_functions(2))])
    segments = _segments(tree)
    # fails once then succeeds: retry covers it
    scored = score_segments(build_query("q", []), segments, StubScorer(fail_times=1, default=0.4))
    assert all(s.score == pytest.approx(0.4) for s in scored)
    # fails twice: affected batch gets zeros
    scored = score_segments(build_query("q", []), segments, StubScorer(fail_times=2, default=0.4))
    assert all(s.score == 0.0 for s in scored)


def test_split_windows_covers_text():
    text = "".join(f"line_{i} = {i}\n" for i in range(50))
    cfg = WindowConfig(window_tokens=40, stride_tokens=20)
    windows = split_windows(text, cfg)
    assert len(windows) > 1
    assert all(w for w in windows)
    # every line appears in at least one window
    for i in range(50):
        assert any(f"line_{i} = {i}\n" in w for w in windows)


# str.splitlines breaks lines at each of these; ast and split_lines only at \n, \r\n and \r
SPLITLINES_ONLY_BREAKS = "\v\f\x1c\x1d\x1e\x85\u2028\u2029"


@settings(max_examples=300, database=None, deadline=None)
@given(
    text=st.text(alphabet=SPLITLINES_ONLY_BREAKS + "\n\r ab", max_size=40),
    window=st.integers(1, 4),
    stride=st.integers(1, 4),
)
def test_split_windows_keeps_split_lines_lines_whole(text, window, stride):
    """Each window is a run of whole ``split_lines`` lines, and the
    windows cover the text: the first starts at its first line, each
    starts after the one before starts and no later than it ends, and the
    last ends at its last line."""
    lines = split_lines(text, keepends=True)
    windows = split_windows(text, WindowConfig(window, stride))
    if not lines:
        assert windows == [text]
        return
    offsets = [0]
    for line in lines:
        offsets.append(offsets[-1] + len(line))
    # every (first line, line after the last) a window so far may span;
    # equal lines can make a window's place ambiguous
    places = {(-1, 0)}
    for i, window_text in enumerate(windows):
        places = {
            (a, offsets.index(offsets[a] + len(window_text)))
            for start, end in places
            for a in range(start + 1, end + 1)
            if text.startswith(window_text, offsets[a]) and offsets[a] + len(window_text) in offsets
        }
        assert places, f"window {i} {window_text!r} is not a run of whole lines that follows window {i - 1}"
    assert any(end == len(lines) for _, end in places)


def _scored(items):
    return [
        ScoredSegment(unit_id=f"u{i}", score=s, token_cost=c, priority_tiebreak=p, order_tiebreak=i)
        for i, (s, c, p) in enumerate(items)
    ]


def test_select_greedy_worked_example():
    scored = _scored([(0.9, 150, 0.0), (0.8, 100, 0.0), (0.1, 50, 0.0)])
    budget = CompressionBudget(5.0, 200)
    assert select_greedy(scored, budget) == {"u0", "u2"}


def test_select_greedy_unconstrained_takes_all():
    scored = _scored([(0.5, 10, 0.0), (0.4, 10, 0.0), (0.3, 10, 0.0)])
    assert select_greedy(scored, CompressionBudget(2.0, 1000)) == {"u0", "u1", "u2"}


def test_select_greedy_floor_rule_single_selection():
    scored = _scored([(0.9, 300, 0.0), (0.8, 50, 0.0)])
    chosen = select_greedy(scored, CompressionBudget(5.0, 200))
    assert chosen == {"u0"}


def test_select_greedy_ties_break_by_priority_then_order():
    scored = _scored([(0.5, 10, 0.1), (0.5, 10, 0.9), (0.5, 10, 0.1)])
    budget = CompressionBudget(5.0, 10)
    assert select_greedy(scored, budget) == {"u1"}
    scored = _scored([(0.5, 10, 0.5), (0.5, 10, 0.5)])
    assert select_greedy(scored, budget) == {"u0"}


def test_select_greedy_budget_property_random():
    rng = random.Random(71)
    for trial in range(300):
        n = rng.randint(1, 12)
        scored = _scored(
            [
                (rng.random(), rng.randint(1, 120), rng.random())
                for _ in range(n)
            ]
        )
        budget = CompressionBudget(5.0, rng.randint(1, 300))
        chosen = select_greedy(scored, budget)
        cost = sum(s.token_cost for s in scored if s.unit_id in chosen)
        if len(chosen) >= 2:
            assert cost <= budget.budget_tokens
        # shuffling the list never changes the selection
        shuffled = scored[:]
        rng.shuffle(shuffled)
        assert select_greedy(shuffled, budget) == chosen


def test_compression_budget_validation():
    with pytest.raises(ValueError):
        CompressionBudget.from_rate(1000, 1.0)
    budget = CompressionBudget.from_rate(1000, 5.0)
    assert budget.budget_tokens == 200


@pytest.mark.parametrize("rate", [1.0, 0.5, math.inf, -math.inf, math.nan])
def test_from_rate_takes_only_a_finite_rate_above_1(rate):
    with pytest.raises(ValueError, match="finite number > 1"):
        CompressionBudget.from_rate(1000, rate)


def _fixture_instance(tmp_path, files, issue="compute sum wrong", faults=()):
    write_repo(tmp_path / "repo", files)
    return Instance(
        instance_id="c-1",
        issue_text=issue,
        fault_locations=list(faults),
        context_files=list(files),
        repo_root=str(tmp_path / "repo"),
    )


def test_compress_end_to_end_with_heuristic(tmp_path):
    files = {
        "calc.py": (
            "def compute_sum(values):\n"
            "    total = 0\n"
            "    for value in values:\n"
            "        total += value\n"
            "    return total\n"
            "\n"
            "def unrelated_one(x):\n"
            "    filler_a = x * 3\n"
            "    return filler_a\n"
            "\n"
            "def unrelated_two(x):\n"
            "    filler_b = x - 7\n"
            "    return filler_b\n"
        )
    }
    instance = _fixture_instance(
        tmp_path,
        files,
        issue="compute_sum returns wrong total",
        faults=[FaultLocation("calc.py", 2)],
    )
    tree = build_tree(instance.instance_id, [(p, (tmp_path / "repo" / p).read_text()) for p in files])
    result = compress(instance, tree, HeuristicScorer(tree), rate=2.0)
    assert result.initial_tokens > 0
    assert result.achieved_rate == result.initial_tokens / result.compressed_tokens
    text = result.rendered.dump_text()
    assert "compute_sum" in text
    # selected ids come back in document order
    order = {uid: i for i, uid in enumerate(tree.unit_order)}
    positions = [order[uid] for uid in result.selected_segment_ids]
    assert positions == sorted(positions)
    # the compressed context never invents segments
    initial_leaves = {s.id for s in tree.leaves}
    assert set(result.selected_segment_ids) <= initial_leaves


@pytest.mark.parametrize("rate", [math.inf, math.nan])
def test_compress_refuses_a_rate_that_is_not_finite(tmp_path, rate):
    files = {"calc.py": "def compute_sum(values):\n    return sum(values)\n"}
    instance = _fixture_instance(tmp_path, files)
    tree = build_tree(instance.instance_id, [(p, text) for p, text in files.items()])
    with pytest.raises(ValueError, match="finite number > 1"):
        compress(instance, tree, HeuristicScorer(tree), rate=rate)


def test_compress_rate_near_one_keeps_everything(tmp_path):
    files = {"m.py": module_with_functions(2)}
    instance = _fixture_instance(tmp_path, files, issue="anything")
    tree = build_tree("t", [(p, (tmp_path / "repo" / p).read_text()) for p in files])
    result = compress(instance, tree, HeuristicScorer(tree), rate=1.000001)
    assert result.achieved_rate == pytest.approx(1.0, rel=0.05)
    assert set(result.selected_segment_ids) == {s.id for s in tree.leaves}


def test_compress_rejects_rate_at_most_one(tmp_path):
    files = {"m.py": module_with_functions(1)}
    instance = _fixture_instance(tmp_path, files)
    tree = build_tree("t", [(p, (tmp_path / "repo" / p).read_text()) for p in files])
    with pytest.raises(ValueError):
        compress(instance, tree, HeuristicScorer(tree), rate=1.0)


# --- remote scorer wire contract ---------------------------------------------


class _StubTransport:
    """A ``RemoteScorer`` transport; ``replies``, when given, are the
    ``/score`` reply bodies in turn."""

    def __init__(self, scores=None, capabilities=True, advertised=None, replies=None):
        self.scores = scores
        self.capabilities = capabilities
        self.advertised = {"max_batch_size": 2} if advertised is None else advertised
        self.replies = replies
        self.posts = []

    def __call__(self, url, payload, headers, timeout):
        if payload is None:
            if not self.capabilities:
                raise ConnectionError("refused")
            return self.advertised
        self.posts.append((url, payload))
        if self.replies is not None:
            return self.replies.pop(0)
        return {"scores": self.scores(payload["segments"])}


def test_remote_scorer_wire_contract():
    transport = _StubTransport(scores=lambda segs: [0.25] * len(segs))
    scorer = RemoteScorer(base_url="http://scorer.local", transport=transport)
    assert scorer.max_batch_size == 2
    query = build_query("issue text", [FaultLocation("a.py", 1)])
    out = scorer.score_batch(query, [(None, "seg one"), (None, "seg two")])
    assert out == [0.25, 0.25]
    url, payload = transport.posts[0]
    assert url.endswith("/score")
    assert payload == {"query": query.rendered, "segments": ["seg one", "seg two"]}


def test_remote_scorer_unreachable(monkeypatch):
    monkeypatch.delenv("OCD_SCORER_URL", raising=False)
    with pytest.raises(ScorerUnavailableError):
        RemoteScorer(base_url="")
    with pytest.raises(ScorerUnavailableError):
        RemoteScorer(base_url="http://scorer.local", transport=_StubTransport(capabilities=False))


def test_remote_scorer_mismatched_scores_is_error():
    transport = _StubTransport(scores=lambda segs: [0.5])
    scorer = RemoteScorer(base_url="http://scorer.local", transport=transport)
    with pytest.raises(ScorerError):
        scorer.score_batch(build_query("q", []), [(None, "a"), (None, "b")])


@pytest.mark.parametrize(
    "reply",
    [
        {"scores": None},
        {"scores": 5},
        {"scores": ["x", "y"]},
        {"scores": [math.nan, 0.5]},
        {"scores": [0.5, math.inf]},
        {"scores": ["0.5", 0.5]},
        {"scores": [True, 0.5]},
        {"scores": [[0.5], 0.5]},
        {},
        [0.5, 0.5],
        None,
    ],
)
def test_remote_scorer_refuses_a_malformed_reply(reply):
    scorer = RemoteScorer(base_url="http://scorer.local", transport=_StubTransport(replies=[reply]))
    with pytest.raises(ScorerError):
        scorer.score_batch(build_query("q", []), [(None, "a"), (None, "b")])


def test_remote_scorer_takes_integer_scores_as_numbers():
    scorer = RemoteScorer(base_url="http://scorer.local", transport=_StubTransport(replies=[{"scores": [1, 0]}]))
    out = scorer.score_batch(build_query("q", []), [(None, "a"), (None, "b")])
    assert out == [1.0, 0.0] and all(type(v) is float for v in out)


def test_a_malformed_reply_is_retried_then_zeroed_not_raised():
    tree = build_tree("t", [("m.py", module_with_functions(2))])
    segments = _segments(tree)
    assert len(segments) == 2
    bad, good = {"scores": None}, {"scores": [0.25, 0.75]}
    # one bad reply, then a good one: the retry's scores count
    scorer = RemoteScorer(base_url="http://scorer.local", transport=_StubTransport(replies=[bad, good]))
    assert [s.score for s in score_segments(build_query("q", []), segments, scorer)] == [0.25, 0.75]
    # two bad replies: the batch scores 0, and compress still returns
    scorer = RemoteScorer(base_url="http://scorer.local", transport=_StubTransport(replies=[bad, {"scores": ["x", "y"]}]))
    assert [s.score for s in score_segments(build_query("q", []), segments, scorer)] == [0.0, 0.0]
    instance = Instance("t", "q", [], ["m.py"], repo_root="repo")
    scorer = RemoteScorer(base_url="http://scorer.local", transport=_StubTransport(replies=[bad, {"scores": 5}]))
    result = compress(instance, tree, scorer, rate=2.0)
    assert len(result.selected_segment_ids) >= 1


@pytest.mark.parametrize(
    "advertised",
    [
        {"max_batch_size": 0},
        {"max_batch_size": -3},
        {"max_batch_size": "8"},
        {"max_batch_size": 2.5},
        {"max_batch_size": True},
        {"max_batch_size": None},
        [],
    ],
)
def test_remote_scorer_refuses_a_batch_size_that_is_not_an_integer_of_at_least_1(advertised):
    with pytest.raises(ScorerUnavailableError):
        RemoteScorer(base_url="http://scorer.local", transport=_StubTransport(advertised=advertised))


def test_remote_scorer_reads_a_missing_batch_size_as_32():
    assert RemoteScorer(base_url="http://scorer.local", transport=_StubTransport(advertised={})).max_batch_size == 32
