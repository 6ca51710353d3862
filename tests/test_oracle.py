"""Oracle tests: majority rule, mock determinism, caching, budget,
unified-diff application, and the LLM-backed path via a stub endpoint."""

import difflib
import math
import os
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ctxdistill.instance import FaultLocation, Instance
from ctxdistill.code_model import build_tree, leaf_segments, split_lines, upward_closure
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

from ctxdistill.render import render

from fixtures import FORM_FEED_SOURCE, write_repo


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
    first = session.evaluate(frozenset({"a", "b"}))
    assert not first.cache_hit
    again = session.evaluate(frozenset({"b", "a"}))
    assert again.cache_hit
    assert again.sufficient == first.sufficient
    assert oracle.calls == 1
    assert session.invocations == 1


def test_session_fresh_bypasses_cache():
    oracle = MockOracle(required={"a"})
    session = OracleSession(oracle, "inst")
    session.evaluate(frozenset({"a"}))
    fresh = session.evaluate(frozenset({"a"}), fresh=True)
    assert not fresh.cache_hit
    assert oracle.calls == 2


def test_session_budget_exhaustion():
    oracle = MockOracle(required={"z"})
    session = OracleSession(oracle, "inst", OracleConfig(eval_budget=3))
    for i in range(3):
        session.evaluate(frozenset({f"leaf{i}"}))
    with pytest.raises(OracleBudgetExhausted):
        session.evaluate(frozenset({"leaf99"}))
    # cache hits stay free
    assert session.evaluate(frozenset({"leaf0"})).cache_hit


# --- unified diff application ----------------------------------------------


def _diff(old: str, new: str, path: str) -> str:
    return "".join(
        difflib.unified_diff(
            old.splitlines(keepends=True),
            new.splitlines(keepends=True),
            fromfile=f"a/{path}",
            tofile=f"b/{path}",
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


_file_lines = st.lists(
    st.sampled_from(["x = 1", "y = 2", "", "def f():", "    return x", "    pass", "# note"]),
    max_size=12,
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    st.lists(st.tuples(_file_lines, _file_lines), min_size=1, max_size=3),
    st.integers(0, 3),
)
def test_apply_patch_roundtrips_difflib_diffs(tmp_path_factory, pairs, context):
    root = tmp_path_factory.mktemp("repo")
    files = {
        f"pkg/m{i}.py": ("".join(l + "\n" for l in old), "".join(l + "\n" for l in new))
        for i, (old, new) in enumerate(pairs)
    }
    write_repo(root, {path: old for path, (old, _) in files.items()})
    patch = "".join(
        "".join(
            difflib.unified_diff(
                old.splitlines(keepends=True),
                new.splitlines(keepends=True),
                fromfile=f"a/{path}",
                tofile=f"b/{path}",
                n=context,
            )
        )
        for path, (old, new) in files.items()
    )
    changed = [path for path, (old, new) in files.items() if old != new]
    if not changed:
        with pytest.raises(PatchApplyError):
            apply_patch_text(root, patch)
        return
    assert apply_patch_text(root, patch) == changed
    for path, (_, new) in files.items():
        assert (root / path).read_text() == new


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
    verdict = oracle.evaluate(frozenset(s.id for s in leaf_segments(tree)))
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
    verdict = oracle.evaluate(frozenset(s.id for s in leaf_segments(tree)))
    assert verdict.passes == 1
    assert not verdict.sufficient


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
    leaves = frozenset(s.id for s in leaf_segments(tree))
    oracle.evaluate(leaves)
    context = render(tree, upward_closure(tree, leaves)).dump_text()
    assert prompts == [OLD_REPAIR_PROMPT.format(query=_old_query_text(instance), context=context)]
