"""Oracle tests: majority rule, mock determinism, caching, budget,
unified-diff application, and the LLM-backed path via a stub endpoint."""

import difflib
import hashlib
import math
import os
import random
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ctxdistill.instance import FaultLocation, Instance
from ctxdistill.code_model import build_tree, split_lines, upward_closure
from ctxdistill.hdd import minimize
from ctxdistill.oracle import (
    LLMOracle,
    MockOracle,
    OracleBudgetExhausted,
    OracleConfig,
    OracleEndpointError,
    OracleSession,
    PatchApplyError,
    apply_patch_text,
    extract_patch,
    make_verdict,
    required_passes,
    verdict_cache_key,
)

from ctxdistill.priority import parse_diff, parse_patch
from ctxdistill.render import render

from fixtures import FORM_FEED_SOURCE, module_with_functions, write_repo


def test_mock_oracle_superset_rule():
    oracle = MockOracle(required={"a"})
    assert oracle.evaluate(frozenset({"a", "b"})).sufficient
    assert not MockOracle(required={"a", "c"}).evaluate(frozenset({"a", "b"})).sufficient
    assert MockOracle(required=set()).evaluate(frozenset()).sufficient


def test_mock_oracle_monotone_property():
    rng = random.Random(1)
    universe = [f"leaf{i}" for i in range(10)]
    for trial in range(200):
        required = frozenset(rng.sample(universe, rng.randint(0, 5)))
        oracle = MockOracle(required)
        small = frozenset(rng.sample(universe, rng.randint(0, 10)))
        extra = frozenset(rng.sample(universe, rng.randint(0, 10)))
        if oracle.evaluate(small).sufficient:
            assert oracle.evaluate(small | extra).sufficient


def test_mock_oracle_distractors_break_monotonicity_by_design():
    oracle = MockOracle(required={"a"}, distractors={"d"})
    assert oracle.evaluate(frozenset({"a"})).sufficient
    assert not oracle.evaluate(frozenset({"a", "d"})).sufficient


def test_majority_rule_full_grid():
    for samples in range(1, 9):
        for passes in range(0, samples + 1):
            verdict = make_verdict(passes, samples, 0.5)
            assert verdict.sufficient == (passes >= math.ceil(0.5 * samples))
    # the worked examples
    assert make_verdict(2, 4, 0.5).sufficient
    assert not make_verdict(1, 4, 0.5).sufficient
    assert make_verdict(1, 1, 0.5).sufficient
    assert required_passes(0.5, 4) == 2


def test_verdict_cache_key_canonicalization():
    a = verdict_cache_key("inst", ["x", "y", "z"])
    b = verdict_cache_key("inst", ["z", "x", "y"])
    assert a == b
    assert verdict_cache_key("inst", ["x", "y"]) != a
    assert verdict_cache_key("other", ["x", "y", "z"]) != a


def test_session_caches_verdicts():
    oracle = MockOracle(required={"a"})
    session = OracleSession(oracle, "inst")
    first = session.evaluate(frozenset({"a", "b"}), pass_level="ga")
    assert not first.cache_hit
    again = session.evaluate(frozenset({"b", "a"}), pass_level="ga")
    assert again.cache_hit
    assert again.sufficient == first.sufficient
    assert oracle.calls == 1
    assert session.invocations == 1


def test_session_fresh_bypasses_cache():
    oracle = MockOracle(required={"a"})
    session = OracleSession(oracle, "inst")
    session.evaluate(frozenset({"a"}), pass_level="ga")
    fresh = session.evaluate(frozenset({"a"}), pass_level="certify")
    assert not fresh.cache_hit
    assert oracle.calls == 2


def test_session_without_cache_stores_no_verdict():
    oracle = MockOracle(required={"a"})
    session = OracleSession(oracle, "inst", OracleConfig(cache_enabled=False))
    for leaves in ({"a"}, {"a", "b"}, {"a"}):
        assert not session.evaluate(frozenset(leaves), pass_level="ga").cache_hit
    session.evaluate(frozenset({"c"}), pass_level="certify")
    assert oracle.calls == session.invocations == 4
    assert session._cache == {}


def test_session_budget_exhaustion():
    oracle = MockOracle(required={"z"})
    session = OracleSession(oracle, "inst", OracleConfig(eval_budget=3))
    for i in range(3):
        session.evaluate(frozenset({f"leaf{i}"}), pass_level="ga")
    with pytest.raises(OracleBudgetExhausted):
        session.evaluate(frozenset({"leaf99"}), pass_level="ga")
    # cache hits stay free
    assert session.evaluate(frozenset({"leaf0"}), pass_level="ga").cache_hit


def test_only_a_refused_call_marks_the_session_exhausted():
    session = OracleSession(MockOracle(required={"z"}), "inst", OracleConfig(eval_budget=3))
    for i in range(3):
        session.evaluate(frozenset({f"leaf{i}"}), pass_level="file")
        assert session.evaluate(frozenset({f"leaf{i}"}), pass_level="ga").cache_hit
    # exactly eval_budget fresh calls: the budget is spent, not exhausted
    assert session.invocations == 3 and not session.exhausted
    with pytest.raises(OracleBudgetExhausted):
        session.evaluate(frozenset({"leaf0"}), pass_level="certify")
    assert session.exhausted and session.invocations == 3
    assert session.evaluate(frozenset({"leaf1"}), pass_level="ga").cache_hit and session.exhausted


def test_one_leaf_set_built_in_two_orders_is_one_cache_entry():
    ids = [f"leaf{i}" for i in range(300)]
    oracle = MockOracle(required={"leaf7"})
    session = OracleSession(oracle, "inst", OracleConfig(eval_budget=1))
    first = frozenset(ids)
    again = frozenset(reversed(ids))
    assert first is not again
    assert not session.evaluate(first, pass_level="ga").cache_hit
    # the budget is spent: only a cache hit can answer now
    verdict = session.evaluate(again, pass_level="ga")
    assert verdict.cache_hit and verdict.sufficient
    assert oracle.calls == 1 and session.invocations == 1


class _FlippingOracle:
    """Insufficient on its first call, sufficient on every later one."""

    def __init__(self):
        self.calls = 0

    def evaluate(self, included_leaf_ids):
        self.calls += 1
        ok = self.calls > 1
        return make_verdict(int(ok), 1, 0.5)


def test_a_fresh_evaluation_bypasses_the_cache_and_stores_its_verdict():
    oracle = _FlippingOracle()
    session = OracleSession(oracle, "inst")
    leaves = frozenset({"a", "b"})
    assert not session.evaluate(leaves, pass_level="ga").sufficient
    fresh = session.evaluate(frozenset({"b", "a"}), pass_level="certify")
    assert fresh.sufficient and not fresh.cache_hit
    stored = session.evaluate(leaves, pass_level="ga")
    assert stored.cache_hit and stored.sufficient
    # a set first seen fresh is stored too
    session.evaluate(frozenset({"c"}), pass_level="certify")
    assert session.evaluate(frozenset({"c"}), pass_level="ga").cache_hit
    assert oracle.calls == session.invocations == 3


@pytest.mark.parametrize("level", ["ga", "verify", "file", "function", "block", "certify"])
def test_only_a_certify_probe_skips_the_cache_and_every_level_stores_its_verdict(level):
    oracle = MockOracle(required={"a"})
    records = []
    session = OracleSession(oracle, "inst", trace=records.append)
    seen = frozenset({"a", "b"})
    session.evaluate(seen, pass_level="file")
    assert session.evaluate(seen, pass_level=level).cache_hit == (level != "certify")
    # a set first judged at this level is answered from the cache later
    new = frozenset({"a"})
    assert not session.evaluate(new, pass_level=level).cache_hit
    assert session.evaluate(new, pass_level="file").cache_hit
    assert oracle.calls == session.invocations == (3 if level == "certify" else 2)
    assert [r["pass_level"] for r in records] == ["file", level, level, "file"]


def test_minimize_traces_each_candidate_by_its_verdict_cache_key():
    tree = build_tree("t", [("m.py", module_with_functions(4))])
    leaves = [seg.id for seg in tree.leaves]
    trace = []
    session = OracleSession(MockOracle(leaves[2:4]), "inst-7", trace=trace.append)
    candidates = []
    evaluate = session.evaluate

    def recording(candidate, **fields):
        candidates.append(candidate)
        return evaluate(candidate, **fields)

    session.evaluate = recording
    minimize(frozenset(leaves), tree, session, dict.fromkeys(tree.unit_order, 0.0))
    assert len(trace) == len(candidates) > 3
    for record, candidate in zip(trace, candidates):
        assert record["candidate_hash"] == verdict_cache_key("inst-7", candidate)


# --- unified diff application ----------------------------------------------


def _diff(old: str, new: str, path: str, context: int = 3) -> str:
    """difflib's unified diff, with git's marker after a last line that
    has no newline."""
    return "".join(
        line if line.endswith("\n") else line + "\n\\ No newline at end of file\n"
        for line in difflib.unified_diff(
            old.splitlines(keepends=True),
            new.splitlines(keepends=True),
            fromfile=f"a/{path}",
            tofile=f"b/{path}",
            n=context,
        )
    )


def test_apply_patch_roundtrip(tmp_path):
    old = "def f(x):\n    return x\n\nVALUE = 1\n"
    new = "def f(x):\n    return x + 1\n\nVALUE = 2\n"
    write_repo(tmp_path, {"mod.py": old})
    patch = _diff(old, new, "mod.py")
    touched = apply_patch_text(tmp_path, patch)
    assert touched == ["mod.py"]
    assert (tmp_path / "mod.py").read_text() == new


def test_apply_patch_multi_file(tmp_path):
    files = {"a.py": "x = 1\n", "b.py": "y = 2\n"}
    write_repo(tmp_path, files)
    patch = _diff("x = 1\n", "x = 10\n", "a.py") + _diff("y = 2\n", "y = 20\n", "b.py")
    touched = apply_patch_text(tmp_path, patch)
    assert touched == ["a.py", "b.py"]
    assert (tmp_path / "a.py").read_text() == "x = 10\n"
    assert (tmp_path / "b.py").read_text() == "y = 20\n"


def test_apply_patch_context_mismatch(tmp_path):
    write_repo(tmp_path, {"a.py": "x = 999\n"})
    patch = _diff("x = 1\n", "x = 2\n", "a.py")
    with pytest.raises(PatchApplyError):
        apply_patch_text(tmp_path, patch)


def test_apply_patch_missing_target(tmp_path):
    patch = _diff("x = 1\n", "x = 2\n", "missing.py")
    with pytest.raises(PatchApplyError):
        apply_patch_text(tmp_path, patch)


def test_apply_patch_refuses_a_deletion_that_leaves_lines(tmp_path):
    # git apply: "patch does not apply"; b and c were never removed
    write_repo(tmp_path, {"x.py": "a\nb\nc\n"})
    with pytest.raises(PatchApplyError, match="deletion of x.py leaves lines it does not remove"):
        apply_patch_text(tmp_path, "--- a/x.py\n+++ /dev/null\n@@ -1,1 +0,0 @@\n-a\n")
    assert (tmp_path / "x.py").read_text() == "a\nb\nc\n"
    assert apply_patch_text(tmp_path, "--- a/x.py\n+++ /dev/null\n@@ -1,3 +0,0 @@\n-a\n-b\n-c\n") == ["x.py"]
    assert not (tmp_path / "x.py").exists()


def test_apply_patch_refuses_to_create_a_file_that_exists(tmp_path):
    # git apply: "already exists in working directory"; checked before
    # the first section is written
    write_repo(tmp_path, {"x.py": "a\n", "y.py": "old\n"})
    patch = _diff("a\n", "b\n", "x.py") + "--- /dev/null\n+++ b/y.py\n@@ -0,0 +1,1 @@\n+new\n"
    with pytest.raises(PatchApplyError, match="patch creates a file that exists: y.py"):
        apply_patch_text(tmp_path, patch)
    assert (tmp_path / "x.py").read_text() == "a\n" and (tmp_path / "y.py").read_text() == "old\n"
    (tmp_path / "y.py").unlink()
    assert apply_patch_text(tmp_path, patch) == ["x.py", "y.py"]
    assert (tmp_path / "y.py").read_text() == "new\n"


@pytest.mark.parametrize(
    "hunk, error",
    [
        ("@@ -1,2 +1,2 @@\n q\n-b\n+B\n", "context mismatch at y.py:1"),
        ("@@ -10,1 +10,1 @@\n-a\n+b\n", "hunk out of range at line 10"),
    ],
    ids=["a context line", "a hunk past the end"],
)
def test_apply_patch_refuses_a_hunk_that_does_not_fit(tmp_path, hunk, error):
    write_repo(tmp_path, {"y.py": "a\nb\n"})
    with pytest.raises(PatchApplyError, match=f"^{error}$"):
        apply_patch_text(tmp_path, "--- a/y.py\n+++ b/y.py\n" + hunk)
    assert (tmp_path / "y.py").read_text() == "a\nb\n"


def test_apply_patch_writes_nothing_when_a_later_section_fails(tmp_path):
    # git apply: all or nothing; a.py's section applies, b.py's does not
    write_repo(tmp_path, {"a.py": "x = 1\n", "b.py": "y = 2\n"})
    patch = _diff("x = 1\n", "x = 2\n", "a.py") + _diff("y = 3\n", "y = 4\n", "b.py")
    with pytest.raises(PatchApplyError, match="^removed-line mismatch at b.py:1$"):
        apply_patch_text(tmp_path, patch)
    assert (tmp_path / "a.py").read_text() == "x = 1\n"
    assert (tmp_path / "b.py").read_text() == "y = 2\n"


def test_apply_patch_sections_on_one_file_apply_in_order(tmp_path):
    # the second section reads the first one's result, not the disk
    write_repo(tmp_path, {"x.py": "a\nb\nc\n"})
    section = "--- a/x.py\n+++ b/x.py\n@@ -{0},1 +{0},1 @@\n-{1}\n+{2}\n"
    patch = section.format(1, "a", "A") + section.format(3, "c", "C")
    assert apply_patch_text(tmp_path, patch) == ["x.py", "x.py"]
    assert (tmp_path / "x.py").read_text() == "A\nb\nC\n"


_file_lines = st.lists(
    st.sampled_from(
        ["x = 1", "y = 2", "", "def f():", "    return x", "    pass", "# note", "-- note", "++ more"]
    ),
    max_size=12,
)
# a file's lines, and whether its last line ends with a newline
_file_text = st.builds(
    lambda lines, eol: "\n".join(lines) + ("\n" if lines and eol else ""),
    _file_lines,
    st.booleans(),
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    st.lists(st.tuples(_file_text, _file_text), min_size=1, max_size=3),
    st.integers(0, 3),
)
def test_apply_patch_roundtrips_difflib_diffs(tmp_path_factory, pairs, context):
    root = tmp_path_factory.mktemp("repo")
    files = {f"pkg/m{i}.py": pair for i, pair in enumerate(pairs)}
    write_repo(root, {path: old for path, (old, _) in files.items()})
    patch = "".join(_diff(old, new, path, context) for path, (old, new) in files.items())
    changed = [path for path, (old, new) in files.items() if old != new]
    if not changed:
        with pytest.raises(PatchApplyError):
            apply_patch_text(root, patch)
        return
    assert apply_patch_text(root, patch) == changed
    for path, (_, new) in files.items():
        assert (root / path).read_bytes() == new.encode()


def test_apply_patch_reads_dashed_body_lines_as_body(tmp_path):
    old, new = "a\n-- note\nb\n", "a\nb\n++ more\n"
    write_repo(tmp_path, {"m.txt": old})
    patch = _diff(old, new, "m.txt")
    assert "\n--- note\n" in patch and "\n+++ more\n" in patch
    assert parse_patch(patch).files == {"m.txt"}
    assert apply_patch_text(tmp_path, patch) == ["m.txt"]
    assert (tmp_path / "m.txt").read_text() == new


def test_parse_diff_header_follows_a_hunk_longer_than_its_lengths():
    patch = "--- a/a.py\n+++ b/a.py\n@@ -1 +1 @@\n-x = 1\n-y = 2\n+x = 2\n--- a/b.py\n+++ b/b.py\n@@ -1 +1 @@\n-z\n+w\n"
    sections = parse_diff(patch)
    assert [(s.old_path, s.new_path) for s in sections] == [("a.py", "a.py"), ("b.py", "b.py")]
    assert [h.lines for s in sections for h in s.hunks] == [["-x = 1", "-y = 2", "+x = 2"], ["-z", "+w"]]


_NO_EOL = "\\ No newline at end of file\n"


@pytest.mark.parametrize(
    "old, body, new, new_missing_newline",
    [
        ("a = 1\nb = 2\n", " a = 1\n-b = 2\n+b = 3\n" + _NO_EOL, "a = 1\nb = 3", True),
        ("a = 1\nb = 2", " a = 1\n-b = 2\n" + _NO_EOL + "+b = 3\n", "a = 1\nb = 3\n", False),
        ("a = 1\nb = 2", "-a = 1\n+a = 0\n b = 2\n" + _NO_EOL, "a = 0\nb = 2", True),
        ("a = 1\nb = 2\nc = 3", "-a = 1\n+a = 0\n b = 2\n", "a = 0\nb = 2\nc = 3", False),
    ],
    ids=["remove", "add", "context", "untouched-tail"],
)
def test_apply_patch_honours_no_newline_marker(tmp_path, old, body, new, new_missing_newline):
    write_repo(tmp_path, {"m.py": old})
    patch = "--- a/m.py\n+++ b/m.py\n@@ -1,2 +1,2 @@\n" + body
    hunk = parse_diff(patch)[0].hunks[0]
    assert hunk.new_missing_newline is new_missing_newline
    assert apply_patch_text(tmp_path, patch) == ["m.py"]
    assert (tmp_path / "m.py").read_bytes() == new.encode()


@pytest.mark.parametrize(
    "old, hunks, new",
    [
        (b"a\r\nb\r\nc\r\n", "@@ -1,3 +1,3 @@\n-a\n+A\n b\n c\n", b"A\r\nb\r\nc\r\n"),
        (b"a\r\nb\r\nc\r\n", "@@ -2,2 +2,3 @@\n b\n+d\n c\n", b"a\r\nb\r\nd\r\nc\r\n"),
        (b"a\nb\r\nc\r", "@@ -2,2 +2,2 @@\n b\n-c\n+C\n", b"a\nb\r\nC\n"),
        (b"a\r\nb", "@@ -1,2 +1,2 @@\n-a\n+A\n b\n" + _NO_EOL, b"A\r\nb"),
    ],
    ids=["crlf-replace", "crlf-insert", "mixed", "crlf-no-eol"],
)
def test_apply_patch_keeps_line_breaks(tmp_path, old, hunks, new):
    (tmp_path / "m.py").write_bytes(old)
    assert apply_patch_text(tmp_path, "--- a/m.py\n+++ b/m.py\n" + hunks) == ["m.py"]
    assert (tmp_path / "m.py").read_bytes() == new


@pytest.mark.parametrize("escape", ["dotdot", "absolute", "symlink", "directory"])
def test_apply_patch_rejects_paths_outside_root(tmp_path, escape):
    root = tmp_path / "root"
    write_repo(root, {"a.py": "x = 1\n"})
    outside = tmp_path / "outside"
    target = {
        "dotdot": "b/../outside/pwned.txt",
        "absolute": str(outside / "pwned.txt"),
        "symlink": "b/link/pwned.txt",
        "directory": "b/pkg",
    }[escape]
    if escape == "symlink":
        outside.mkdir()
        os.symlink(outside, root / "link")
    if escape == "directory":
        (root / "pkg").mkdir()
    # an in-root section first: nothing at all may be written
    patch = _diff("x = 1\n", "x = 2\n", "a.py") + (
        f"--- /dev/null\n+++ {target}\n@@ -0,0 +1 @@\n+pwned\n"
    )
    reason = "not a regular file" if escape == "directory" else "escapes"
    with pytest.raises(PatchApplyError, match=reason):
        apply_patch_text(root, patch)
    assert not (outside / "pwned.txt").exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == (
        ["outside", "root"] if escape == "symlink" else ["root"]
    )
    assert (root / "a.py").read_text() == "x = 1\n"


def test_apply_patch_keeps_form_feed_lines(tmp_path):
    # the form feed is part of line 3, as ast counts lines; both hunks sit
    # below it, and the first also carries it as a context line
    write_repo(tmp_path, {"m.py": FORM_FEED_SOURCE})
    new = FORM_FEED_SOURCE.replace("x = 1", "x = 2").replace("return 2", "return 3")
    patch = "".join(
        difflib.unified_diff(
            split_lines(FORM_FEED_SOURCE, keepends=True),
            split_lines(new, keepends=True),
            fromfile="a/m.py",
            tofile="b/m.py",
            n=1,
        )
    )
    assert "@@ -6,2 +6,2 @@" in patch
    assert apply_patch_text(tmp_path, patch) == ["m.py"]
    assert (tmp_path / "m.py").read_bytes() == new.encode()


def test_extract_patch_variants():
    fenced = "Here you go:\n```diff\n--- a/x.py\n+++ b/x.py\n@@ -1,1 +1,1 @@\n-a\n+b\n```\nDone."
    assert extract_patch(fenced).startswith("--- a/x.py")
    bare = "--- a/x.py\n+++ b/x.py\n@@ -1,1 +1,1 @@\n-a\n+b\n"
    assert extract_patch(bare) == bare
    assert extract_patch("no patch here") is None


# --- LLM oracle via stubbed endpoint -----------------------------------------


GOOD_OLD = "def add(a, b):\n    return a - b\n"
GOOD_NEW = "def add(a, b):\n    return a + b\n"
CHECK = (
    "import sys\nfrom mod import add\nsys.exit(0 if add(2, 3) == 5 else 1)\n"
)


def _instance(tmp_path) -> Instance:
    write_repo(tmp_path / "repo", {"mod.py": GOOD_OLD, "check.py": CHECK})
    return Instance(
        instance_id="llm-inst",
        issue_text="add() subtracts instead of adding",
        fault_locations=[FaultLocation("mod.py", 2)],
        context_files=["mod.py"],
        repo_root=str(tmp_path / "repo"),
        test_command="python3 check.py",
    )


def _completion(patch: str) -> str:
    return f"The fix:\n```diff\n{patch}```\n"


def _transport_returning(completions):
    def transport(url, payload, headers, timeout):
        return {"choices": [{"message": {"content": c}} for c in completions[: payload["n"]]]}

    return transport


def test_llm_oracle_majority_pass(tmp_path):
    instance = _instance(tmp_path)
    tree = build_tree(instance.instance_id, [("mod.py", GOOD_OLD)])
    good = _diff(GOOD_OLD, GOOD_NEW, "mod.py")
    bad = _diff(GOOD_OLD, "def add(a, b):\n    return a * b\n", "mod.py")
    completions = [_completion(good), _completion(good), _completion(bad), "no patch"]
    oracle = LLMOracle(
        instance,
        tree,
        OracleConfig(samples_n=4, timeout_seconds=60),
        endpoint="http://stub.local/v1/chat",
        model="stub-model",
        transport=_transport_returning(completions),
    )
    verdict = oracle.evaluate(frozenset(s.id for s in tree.leaves))
    assert verdict.samples == 4
    assert verdict.passes == 2
    assert verdict.sufficient  # 2 >= ceil(0.5 * 4)
    assert [o.applied for o in verdict.per_sample] == [True, True, True, False]


def test_llm_oracle_below_majority_fails(tmp_path):
    instance = _instance(tmp_path)
    tree = build_tree(instance.instance_id, [("mod.py", GOOD_OLD)])
    good = _diff(GOOD_OLD, GOOD_NEW, "mod.py")
    completions = [_completion(good), "nope", "nope", "nope"]
    oracle = LLMOracle(
        instance,
        tree,
        OracleConfig(samples_n=4, timeout_seconds=60),
        endpoint="http://stub.local/v1/chat",
        model="stub-model",
        transport=_transport_returning(completions),
    )
    verdict = oracle.evaluate(frozenset(s.id for s in tree.leaves))
    assert verdict.passes == 1
    assert not verdict.sufficient


def test_a_null_completion_is_a_sample_without_a_patch(tmp_path):
    """Chat endpoints send ``null`` content for a refusal: that sample
    applies nothing and fails, and the evaluation still returns."""
    instance = _instance(tmp_path)
    tree = build_tree(instance.instance_id, [("mod.py", GOOD_OLD)])
    good = _completion(_diff(GOOD_OLD, GOOD_NEW, "mod.py"))
    oracle = LLMOracle(
        instance,
        tree,
        OracleConfig(samples_n=4, timeout_seconds=60),
        endpoint="http://stub.local/v1/chat",
        model="stub-model",
        transport=_transport_returning([good, None, good, None]),
    )
    verdict = oracle.evaluate(frozenset(s.id for s in tree.leaves))
    assert (verdict.passes, verdict.samples) == (2, 4)
    assert [o.applied for o in verdict.per_sample] == [True, False, True, False]


def test_llm_oracle_retries_then_raises(tmp_path):
    instance = _instance(tmp_path)
    tree = build_tree(instance.instance_id, [("mod.py", GOOD_OLD)])
    attempts = []

    def failing_transport(url, payload, headers, timeout):
        attempts.append(url)
        raise ConnectionError("refused")

    oracle = LLMOracle(
        instance,
        tree,
        OracleConfig(samples_n=1, timeout_seconds=60),
        endpoint="http://stub.local/v1/chat",
        model="stub-model",
        transport=failing_transport,
        retry_sleep=0.0,
    )
    with pytest.raises(OracleEndpointError):
        oracle.evaluate(frozenset())
    assert len(attempts) == 3


@pytest.mark.parametrize("status, attempts, sleeps", [(400, 1, []), (429, 3, [1.0, 2.0])])
def test_a_refusal_that_cannot_succeed_is_not_retried(tmp_path, monkeypatch, status, attempts, sleeps):
    """A 4xx other than 408 and 429, as ``requests.HTTPError`` carries it,
    fails on its first attempt; a rate limit is still retried."""
    instance = _instance(tmp_path)
    tree = build_tree(instance.instance_id, [("mod.py", GOOD_OLD)])
    calls, slept = [], []
    monkeypatch.setattr(time, "sleep", slept.append)

    def refusing_transport(url, payload, headers, timeout):
        calls.append(url)
        error = RuntimeError(f"{status} Client Error")
        error.response = SimpleNamespace(status_code=status)
        raise error

    oracle = LLMOracle(
        instance,
        tree,
        OracleConfig(samples_n=1, timeout_seconds=60),
        endpoint="http://stub.local/v1/chat",
        model="stub-model",
        transport=refusing_transport,
    )
    with pytest.raises(OracleEndpointError, match=f"{status} Client Error"):
        oracle.evaluate(frozenset())
    assert (len(calls), slept) == (attempts, sleeps)


def test_a_reply_without_completions_is_a_failed_attempt(tmp_path):
    """Zero passes in zero samples would meet the pass threshold, so an
    empty reply must not become a verdict."""
    instance = _instance(tmp_path)
    tree = build_tree(instance.instance_id, [("mod.py", GOOD_OLD)])
    attempts = []

    def empty_transport(url, payload, headers, timeout):
        attempts.append(url)
        return {"choices": []}

    oracle = LLMOracle(
        instance,
        tree,
        OracleConfig(samples_n=1, timeout_seconds=60),
        endpoint="http://stub.local/v1/chat",
        model="stub-model",
        transport=empty_transport,
        retry_sleep=0.0,
    )
    with pytest.raises(OracleEndpointError, match="no completions"):
        oracle.evaluate(frozenset())
    assert len(attempts) == 3


def test_llm_oracle_requires_endpoint(tmp_path, monkeypatch):
    monkeypatch.delenv("OCD_LLM_URL", raising=False)
    instance = _instance(tmp_path)
    tree = build_tree(instance.instance_id, [("mod.py", GOOD_OLD)])
    with pytest.raises(OracleEndpointError):
        LLMOracle(instance, tree)


# the prompt template and query text the oracle used before it rendered
# its query with compressor.build_query, kept here as the reference
OLD_REPAIR_PROMPT = (
    "You are fixing a bug in a repository. Read the issue, the fault "
    "locations, and the code context, then reply with a unified diff "
    "patch inside a ```diff fence.\n\n{query}\n\nCODE CONTEXT:\n{context}\n"
)


def _old_query_text(instance) -> str:
    lines = [f"ISSUE:\n{instance.issue_text}\n", "FAULT LOCATIONS:"]
    for fl in instance.fault_locations:
        suffix = f" [{fl.symbol}]" if fl.symbol else ""
        lines.append(f"- {fl.path}:{fl.line}{suffix}")
    return "\n".join(lines)


@pytest.mark.parametrize(
    "faults",
    [[], [FaultLocation("mod.py", 2)], [FaultLocation("mod.py", 1, "add"), FaultLocation("check.py", 3)]],
)
def test_llm_oracle_prompt_matches_old_template(tmp_path, faults):
    instance = _instance(tmp_path)
    instance.fault_locations = faults
    tree = build_tree(instance.instance_id, [("mod.py", GOOD_OLD)])
    prompts = []

    def transport(url, payload, headers, timeout):
        prompts.append(payload["messages"][0]["content"])
        return {"choices": [{"message": {"content": "no patch"}}]}

    oracle = LLMOracle(
        instance,
        tree,
        OracleConfig(samples_n=1, timeout_seconds=60),
        endpoint="http://stub.local/v1/chat",
        transport=transport,
    )
    leaves = frozenset(s.id for s in tree.leaves)
    oracle.evaluate(leaves)
    context = render(tree, upward_closure(tree, leaves)).dump_text()
    assert prompts == [OLD_REPAIR_PROMPT.format(query=_old_query_text(instance), context=context)]


# --- LLM oracle sandbox: one test run per distinct patch ----------------------


BAD_NEW = "def add(a, b):\n    return a * b\n"


def _counting_oracle(tmp_path, completions, test_command=None, log_dir=None, **config):
    """An LLM oracle whose test command appends a line to ``runs.txt``
    (outside the repository) on every run."""
    instance = _instance(tmp_path)
    instance.test_command = test_command or f"echo run >> {tmp_path / 'runs.txt'}; python3 check.py"
    tree = build_tree(instance.instance_id, [("mod.py", GOOD_OLD)])
    oracle = LLMOracle(
        instance,
        tree,
        OracleConfig(**{"samples_n": len(completions), "timeout_seconds": 60, **config}),
        endpoint="http://stub.local/v1/chat",
        transport=_transport_returning(completions),
        log_dir=log_dir,
    )
    return oracle, frozenset(s.id for s in tree.leaves)


def _runs(tmp_path) -> int:
    runs = tmp_path / "runs.txt"
    return len(runs.read_text().splitlines()) if runs.exists() else 0


MIXED = [
    _completion(_diff(GOOD_OLD, GOOD_NEW, "mod.py")),
    _completion(_diff(GOOD_OLD, GOOD_NEW, "mod.py")),
    _completion(_diff(GOOD_OLD, BAD_NEW, "mod.py")),
    "no patch",
]


def test_llm_oracle_tests_each_distinct_patch_once(tmp_path):
    oracle, leaves = _counting_oracle(tmp_path, MIXED)
    first = oracle.evaluate(leaves)
    second = oracle.evaluate(leaves)
    for verdict in (first, second):
        assert (verdict.sufficient, verdict.passes, verdict.samples) == (True, 2, 4)
        assert [o.applied for o in verdict.per_sample] == [True, True, True, False]
        assert [o.test_exit_status for o in verdict.per_sample] == [0, 0, 1, None]
    assert _runs(tmp_path) == 2
    assert [o.reused for o in first.per_sample] == [False, True, False, False]
    assert [o.reused for o in second.per_sample] == [True, True, True, False]


def test_llm_oracle_reuses_apply_failures(tmp_path):
    unappliable = _completion(_diff("x = 1\n", "x = 2\n", "mod.py"))
    oracle, leaves = _counting_oracle(tmp_path, [unappliable])
    first, second = oracle.evaluate(leaves), oracle.evaluate(leaves)
    assert [(o.applied, o.reused) for o in first.per_sample + second.per_sample] == [
        (False, False),
        (False, True),
    ]
    assert _runs(tmp_path) == 0


def test_llm_oracle_without_cache_tests_every_sample(tmp_path):
    oracle, leaves = _counting_oracle(tmp_path, MIXED, cache_enabled=False)
    first = oracle.evaluate(leaves)
    second = oracle.evaluate(leaves)
    assert (first.passes, second.passes) == (2, 2)
    assert _runs(tmp_path) == 6  # three applied samples per evaluation
    assert not any(o.reused for o in first.per_sample + second.per_sample)


def test_llm_oracle_reruns_timed_out_patch(tmp_path):
    oracle, leaves = _counting_oracle(
        tmp_path,
        MIXED[:1],
        test_command=f"echo run >> {tmp_path / 'runs.txt'}; sleep 30",
        log_dir=tmp_path / "logs",
        timeout_seconds=1,
    )
    for expected_runs in (1, 2):
        verdict = oracle.evaluate(leaves)
        assert [(o.timed_out, o.reused) for o in verdict.per_sample] == [(True, False)]
        assert not verdict.sufficient
        assert _runs(tmp_path) == expected_runs
    [log] = (tmp_path / "logs").iterdir()
    assert log.read_text().startswith("timed out after 1 s\n")


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    # a killed child that nobody has reaped yet is gone too
    stat = Path(f"/proc/{pid}/stat")
    return not (stat.exists() and stat.read_text().rsplit(")", 1)[1].split()[0] == "Z")


def test_llm_oracle_timeout_kills_the_test_process_group(tmp_path):
    pid_file = tmp_path / "child.pid"
    oracle, leaves = _counting_oracle(
        tmp_path,
        MIXED[:1],
        test_command=f"sleep 30 & echo $! > {pid_file}; wait",
        timeout_seconds=1,
    )
    [outcome] = oracle.evaluate(leaves).per_sample
    assert outcome.timed_out
    pid = int(pid_file.read_text())
    deadline = time.monotonic() + 3
    while _alive(pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not _alive(pid)


def test_llm_oracle_judges_the_shell_not_its_background_children(tmp_path):
    pid_file = tmp_path / "child.pid"
    oracle, leaves = _counting_oracle(
        tmp_path,
        MIXED[:1],
        test_command=f"sleep 3 & echo $! > {pid_file}; exit 0",
        timeout_seconds=1,
    )
    started = time.monotonic()
    [outcome] = oracle.evaluate(leaves).per_sample
    assert time.monotonic() - started < 1
    assert (outcome.test_exit_status, outcome.timed_out) == (0, False)
    pid = int(pid_file.read_text())
    deadline = time.monotonic() + 3
    while _alive(pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not _alive(pid)


def test_llm_oracle_waits_for_the_shell_without_polling(tmp_path, monkeypatch):
    # a timed Popen.wait polls, sleeping between checks; a blocking wait
    # never sleeps in subprocess
    def no_sleep(seconds):
        raise AssertionError("the test run was waited for by polling")

    monkeypatch.setattr(subprocess, "time", SimpleNamespace(**{**vars(time), "sleep": no_sleep}))
    oracle, leaves = _counting_oracle(
        tmp_path, MIXED[:1], test_command="sleep 0.2; python3 check.py", timeout_seconds=1
    )
    [outcome] = oracle.evaluate(leaves).per_sample
    assert (outcome.test_exit_status, outcome.timed_out) == (0, False)


def test_llm_oracles_on_several_threads_keep_their_own_outcomes(tmp_path):
    # the quick runs repeat until past the 1 s timeout, so they start and
    # end while the other threads' watchdogs fire
    kinds = [("exit 0", 0, False), ("exit 1", 1, False), ("wait", None, True)] * 2
    runs = []
    for i, (end, status, timed_out) in enumerate(kinds):
        pid_file = tmp_path / f"children{i}.txt"
        oracle, leaves = _counting_oracle(
            tmp_path / f"run{i}",
            MIXED[:1],
            test_command=f"sleep 30 & echo $! >> {pid_file}; {end}",
            timeout_seconds=1,
            cache_enabled=False,
        )
        runs.append((oracle, leaves, pid_file, status, timed_out))
    results = {i: [] for i in range(len(runs))}
    until = time.monotonic() + 1.5

    def run(i):
        oracle, leaves, _, _, timed_out = runs[i]
        while not results[i] or (not timed_out and time.monotonic() < until):
            results[i].extend(oracle.evaluate(leaves).per_sample)
            time.sleep(0.1)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(runs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 20
        for thread in threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for i, (_, _, pid_file, status, timed_out) in enumerate(runs):
        assert {(o.test_exit_status, o.timed_out) for o in results[i]} == {(status, timed_out)}
        pids = [int(line) for line in pid_file.read_text().split()]
        assert len(pids) == len(results[i])
        for pid in pids:
            while _alive(pid) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not _alive(pid)


def test_llm_oracle_logs_each_distinct_patch_once(tmp_path):
    unappliable = _completion(_diff("x = 1\n", "x = 2\n", "mod.py"))
    completions = MIXED + [unappliable]
    oracle, leaves = _counting_oracle(tmp_path, completions, log_dir=tmp_path / "logs")
    oracle.evaluate(leaves)
    oracle.evaluate(leaves)
    patches = [extract_patch(c) for c in (MIXED[0], MIXED[2], unappliable)]
    names = [f"llm-inst.{hashlib.sha1(p.encode()).hexdigest()[:12]}.log" for p in patches]
    assert sorted(p.name for p in (tmp_path / "logs").iterdir()) == sorted(names)
    heads = [(tmp_path / "logs" / n).read_text().splitlines()[0] for n in names]
    assert heads[:2] == ["exit status: 0", "exit status: 1"]
    assert heads[2] == "patch not applied: removed-line mismatch at mod.py:1"


def test_an_unlogged_test_run_opens_no_temporary_file(tmp_path, monkeypatch):
    opened = []
    real = tempfile.TemporaryFile

    def counting(*args, **kwargs):
        opened.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(tempfile, "TemporaryFile", counting)
    judged = {}
    for name, log_dir in (("unlogged", None), ("logged", tmp_path / "logs")):
        (tmp_path / name).mkdir()
        opened.clear()
        oracle, leaves = _counting_oracle(tmp_path / name, MIXED, log_dir=log_dir)
        verdict = oracle.evaluate(leaves)
        judged[name] = (
            verdict.sufficient,
            verdict.passes,
            [(o.applied, o.test_exit_status, o.timed_out) for o in verdict.per_sample],
            len(opened),
        )
    # two distinct applied patches: two test runs, each with two files when logged
    assert judged["unlogged"] == (True, 2, [(True, 0, False)] * 2 + [(True, 1, False), (False, None, False)], 0)
    assert judged["logged"] == (*judged["unlogged"][:3], 4)
    assert _runs(tmp_path / "unlogged") == _runs(tmp_path / "logged") == 2


# --- LLM oracle sandbox: one scratch copy per evaluation ----------------------


def _count_copies(monkeypatch, oracle) -> list:
    """The scratch copies of the oracle's repository, as they are made."""
    copies = []
    real = shutil.copytree

    def copytree(src, dst, *args, **kwargs):
        if Path(src) == Path(oracle.instance.repo_root):
            copies.append(dst)
        return real(src, dst, *args, **kwargs)

    monkeypatch.setattr(shutil, "copytree", copytree)
    return copies


UNAPPLIABLE = _completion(_diff("x = 1\n", "x = 2\n", "mod.py"))

# completions, config -> copies and test runs after each of two evaluations
COPY_CASES = {
    "mixed": (MIXED, {}, [(1, 2), (1, 2)]),
    "no patch": (["no patch"] * 3, {}, [(0, 0), (0, 0)]),
    "unappliable": ([UNAPPLIABLE, UNAPPLIABLE], {}, [(1, 0), (1, 0)]),
    "mixed without cache": (MIXED, {"cache_enabled": False}, [(1, 3), (2, 6)]),
}


@pytest.mark.parametrize("case", COPY_CASES.values(), ids=COPY_CASES.keys())
def test_llm_oracle_copies_the_repository_once_per_evaluation_that_tests(tmp_path, monkeypatch, case):
    completions, config, expected = case
    oracle, leaves = _counting_oracle(tmp_path, completions, **config)
    copies = _count_copies(monkeypatch, oracle)
    for copies_and_runs in expected:
        oracle.evaluate(leaves)
        assert (len(copies), _runs(tmp_path)) == copies_and_runs


def test_llm_oracle_reset_does_not_follow_a_directory_the_test_pointed_outside(tmp_path, monkeypatch):
    outside = tmp_path / "outside"
    # the names the copy has, so a reset that followed the link would find
    # entries there that differ from its listing
    data = {"pkg/keep.txt": "keep\n", "pkg/sub/deep.txt": "deep\n"}
    write_repo(outside, {k.removeprefix("pkg/"): v for k, v in data.items()})
    before = {p: p.read_bytes() for p in outside.rglob("*") if p.is_file()}
    # each run first checks that its copy has a real pkg directory
    oracle, leaves = _counting_oracle(
        tmp_path,
        MIXED,
        test_command=(
            f"echo run >> {tmp_path / 'runs.txt'}; test -d pkg -a ! -L pkg || exit 3; "
            f"rm -rf pkg; ln -s {outside} pkg; python3 check.py"
        ),
    )
    write_repo(tmp_path / "repo", data)
    copies = _count_copies(monkeypatch, oracle)
    verdict = oracle.evaluate(leaves)
    assert [o.test_exit_status for o in verdict.per_sample] == [0, 0, 1, None]
    assert (len(copies), _runs(tmp_path)) == (1, 2)
    assert {p: p.read_bytes() for p in outside.rglob("*") if p.is_file()} == before


def _scratch_dirs(tmp_path) -> list:
    return list((tmp_path / "tmp").glob("ctxdistill-oracle-*"))


@pytest.mark.parametrize("case", ["passing", "timed out", "unappliable", "test run raises"])
def test_llm_oracle_removes_its_scratch_copy_before_evaluate_returns(tmp_path, monkeypatch, case):
    (tmp_path / "tmp").mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    completions, config = MIXED, {}
    if case == "timed out":
        completions, config = MIXED[:1], {"test_command": "sleep 30", "timeout_seconds": 1}
    elif case == "unappliable":
        completions = [UNAPPLIABLE]
    oracle, leaves = _counting_oracle(tmp_path, completions, **config)
    copies = _count_copies(monkeypatch, oracle)
    if case == "test run raises":

        def fail(cwd, out, err):
            assert _scratch_dirs(tmp_path)
            raise RuntimeError("test runner failed")

        monkeypatch.setattr(oracle, "_run_test", fail)
        with pytest.raises(RuntimeError, match="test runner failed"):
            oracle.evaluate(leaves)
    else:
        oracle.evaluate(leaves)
    assert len(copies) == 1
    assert _scratch_dirs(tmp_path) == []
