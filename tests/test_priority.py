"""Patch parsing and priority-score tests."""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxdistill.code_model import build_tree, unit_text
from ctxdistill.priority import (
    CoverageReport,
    PatchFormatError,
    PatchInfo,
    PriorityWeights,
    lex_identifiers,
    parse_diff,
    parse_patch,
    priority,
    priority_map,
)

DIFF = """\
diff --git a/figure.py b/figure.py
--- a/figure.py
+++ b/figure.py
@@ -10,3 +10,4 @@ def __setstate__(self, state):
     version = state.pop('__mpl_version__')
-    restore_to_pylab = state.pop('_restore_to_pylab', False)
+    restore_to_pylab = state.pop('_restore_to_pylab', False)
+    self.dpi = state.get('_original_dpi', state['_dpi'])
"""

REMOVAL_DIFF = """\
--- a/util.py
+++ b/util.py
@@ -3,1 +3,0 @@
-x = helper()
"""


def test_parse_patch_files_and_identifiers():
    info = parse_patch(DIFF)
    assert info.files == frozenset({"figure.py"})
    assert {"state", "get"} <= set(info.identifiers)
    # keywords never count as identifiers
    assert "False" not in info.identifiers


def test_parse_patch_empty_text_errors():
    with pytest.raises(PatchFormatError):
        parse_patch("")


def test_parse_patch_malformed_hunk_reports_line():
    bad = "--- a/x.py\n+++ b/x.py\n@@ nonsense @@\n"
    with pytest.raises(PatchFormatError) as err:
        parse_patch(bad)
    assert err.value.line_number == 3


def test_parse_patch_removed_line_identifiers():
    info = parse_patch(REMOVAL_DIFF)
    assert {"x", "helper"} <= set(info.identifiers)
    assert info.files == frozenset({"util.py"})


def test_lex_identifiers_excludes_keywords():
    ids = lex_identifiers("for item in items: return helper(item)")
    assert ids == frozenset({"item", "items", "helper"})


@pytest.fixture
def unit_and_tree():
    source = "def f(x):\n    val = x + 1\n    count = val\n    return count\n"
    tree = build_tree("t", [("figure.py", source)])
    return tree.leaves[0], tree


def test_priority_hand_value(unit_and_tree):
    unit, tree = unit_and_tree
    patch = PatchInfo(frozenset({"figure.py"}), frozenset({"val", "missing"}))
    cov = CoverageReport({"figure.py": frozenset({2, 3, 4})})
    w = PriorityWeights(1.0, 1.0, 1.0)
    got = priority(unit, unit_text(tree, unit), patch, cov, w)
    # 1 + ln(4) + 0.5
    assert got == pytest.approx(2.8862943611198906, abs=1e-12)


def test_priority_no_signals_is_zero(unit_and_tree):
    unit, tree = unit_and_tree
    patch = PatchInfo(frozenset({"other.py"}), frozenset({"zzz"}))
    cov = CoverageReport.empty()
    for w in (PriorityWeights(1, 1, 1), PriorityWeights(5, 2, 9)):
        assert priority(unit, unit_text(tree, unit), patch, cov, w) == 0.0


def test_priority_single_term(unit_and_tree):
    unit, tree = unit_and_tree
    patch = PatchInfo(frozenset({"figure.py"}), frozenset())
    w = PriorityWeights(2.0, 0.0, 0.0)
    assert priority(unit, unit_text(tree, unit), patch, CoverageReport.empty(), w) == 2.0


def test_priority_symbol_term_half_and_edges(unit_and_tree):
    unit, _ = unit_and_tree
    w = PriorityWeights(0, 0, 1)

    def symbol_term(text, identifiers):
        patch = PatchInfo(frozenset(), frozenset(identifiers))
        return priority(unit, text, patch, CoverageReport.empty(), w)

    assert symbol_term("a = 1", {"a", "b"}) == 0.5
    assert symbol_term("anything", ()) == 0.0
    assert symbol_term("a b", {"a", "b"}) == 1.0


def test_priority_missing_coverage_file_means_zero_term(unit_and_tree):
    unit, tree = unit_and_tree
    cov = CoverageReport({"elsewhere.py": frozenset({1, 2})})
    w = PriorityWeights(0.0, 1.0, 0.0)
    assert priority(unit, unit_text(tree, unit), PatchInfo.empty(), cov, w) == 0.0


def test_priority_monotone_in_each_signal():
    source = "def f(x):\n    alpha = x\n    beta = alpha\n    return beta\n"
    tree = build_tree("t", [("m.py", source)])
    unit = tree.leaves[0]
    text = unit_text(tree, unit)
    w = PriorityWeights(1.0, 1.0, 1.0)
    rng = random.Random(5)
    for trial in range(100):
        cov_small = frozenset(rng.sample(range(1, 5), rng.randint(0, 2)))
        cov_big = cov_small | {rng.randint(1, 4)}
        p_small = priority(unit, text, PatchInfo.empty(), CoverageReport({"m.py": cov_small}), w)
        p_big = priority(unit, text, PatchInfo.empty(), CoverageReport({"m.py": cov_big}), w)
        assert p_big >= p_small
    # adding the patch-file signal can only raise the score
    base = priority(unit, text, PatchInfo.empty(), CoverageReport.empty(), w)
    boosted = priority(
        unit, text, PatchInfo(frozenset({"m.py"}), frozenset()), CoverageReport.empty(), w
    )
    assert boosted >= base


def test_priority_ordering_invariant_under_uniform_scaling():
    rng = random.Random(17)
    tree = build_tree(
        "t",
        [
            ("a.py", "def f(x):\n    alpha = x\n    return alpha\n"),
            ("b.py", "def g(x):\n    beta = x\n    return beta\n\ndef h(y):\n    return y\n"),
        ],
    )
    patch = PatchInfo(frozenset({"a.py"}), frozenset({"alpha", "beta"}))
    cov = CoverageReport({"a.py": frozenset({2}), "b.py": frozenset({2, 3, 5})})
    base = PriorityWeights(2.0, 1.0, 1.0)
    phi = priority_map(tree, patch, cov, base)
    base_order = sorted(phi, key=lambda uid: phi[uid])
    for trial in range(100):
        c = rng.uniform(0.01, 50.0)
        scaled = PriorityWeights(base.w_p * c, base.w_c * c, base.w_s * c)
        phi_c = priority_map(tree, patch, cov, scaled)
        assert sorted(phi_c, key=lambda uid: phi_c[uid]) == base_order
        for uid in phi:
            assert phi_c[uid] == pytest.approx(c * phi[uid], rel=1e-12)


def test_weights_validation():
    with pytest.raises(ValueError):
        PriorityWeights(-1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        PriorityWeights(0.0, 0.0, 0.0)


def test_coverage_json_roundtrip(tmp_path):
    report = tmp_path / "cov.json"
    report.write_text('{"files": {"a.py": [1, 2, 9]}}', encoding="utf-8")
    cov = CoverageReport.load(report)
    assert cov.lines == {"a.py": [1, 2, 9]}
    with pytest.raises(ValueError):
        CoverageReport.from_json({"files": {"a.py": [0]}})


# --- one parser, same answers as the parser it replaced ------------------------

_REF_HUNK_RE = re.compile(r"^@@ -\d+(,\d+)? \+\d+(,\d+)? @@")


def _ref_strip_diff_prefix(path: str) -> str:
    if path.startswith(("a/", "b/")):
        return path[2:]
    return path


def reference_parse_patch(patch_text: str) -> PatchInfo:
    """The line-by-line parser ``parse_patch`` used before it was built on
    ``parse_diff``, kept as the reference.  It is verbatim but for one
    rule added since: while a hunk owes old or new lines against its
    ``@@`` lengths, a ``---``/``+++`` line is a body line, not a header."""
    files: set[str] = set()
    identifiers: set[str] = set()
    in_hunk = False
    saw_hunk = False
    old_owed = new_owed = 0

    for lineno, line in enumerate(patch_text.splitlines(), start=1):
        if line.startswith("diff --git "):
            in_hunk = False
            parts = line.split()
            for part in parts[2:4]:
                path = _ref_strip_diff_prefix(part)
                if path != "/dev/null":
                    files.add(path)
            continue
        owed = in_hunk and (old_owed > 0 or new_owed > 0)
        if (line.startswith("--- ") or line.startswith("+++ ")) and not owed:
            in_hunk = False
            path = line[4:].split("\t")[0].strip()
            path = _ref_strip_diff_prefix(path)
            if path and path != "/dev/null":
                files.add(path)
            continue
        if line.startswith("@@"):
            m = _REF_HUNK_RE.match(line)
            if not m:
                raise PatchFormatError("malformed hunk header", lineno)
            in_hunk = True
            saw_hunk = True
            old_owed = int(m.group(1)[1:]) if m.group(1) else 1
            new_owed = int(m.group(2)[1:]) if m.group(2) else 1
            continue
        if in_hunk:
            if line.startswith(("+", "-")):
                identifiers.update(lex_identifiers(line[1:]))
            elif line and not line.startswith((" ", "\\")):
                in_hunk = False
            if not line.startswith("\\"):
                old_owed -= not line.startswith("+")
                new_owed -= not line.startswith("-")

    if not saw_hunk:
        raise PatchFormatError("no hunks found in patch text")
    return PatchInfo(frozenset(files), frozenset(identifiers))


_paths = st.sampled_from(["x.py", "a/x.py", "b/y.py", "pkg/z.py", "/dev/null", "a//dev/null", ""])
_diff_lines = st.one_of(
    st.builds(lambda a, b: f"diff --git {a} {b}".rstrip(), _paths, _paths),
    st.just("diff --git a/only.py"),
    st.builds(lambda p, tab: f"--- {p}{tab}", _paths, st.sampled_from(["", "\t2024-01-01 10:00"])),
    st.builds(lambda p, tab: f"+++ {p}{tab}", _paths, st.sampled_from(["", "\t2024-01-01 10:00"])),
    st.sampled_from(
        [
            "@@ -1,2 +1,3 @@",
            "@@ -4 +4 @@ def helper(value):",
            "@@ -0,0 +1 @@",
            "@@ -3,0 +4,2 @@",
            "@@ nonsense @@",
            "@@ -x +1 @@",
            "@@@ -1 +1 @@@",
        ]
    ),
    st.builds(
        lambda tag, text: tag + text,
        st.sampled_from([" ", "+", "-"]),
        st.one_of(
            st.sampled_from(["", "-- comment", "+ plus", "if load:"]),
            st.builds("value_{} = fetch(size)".format, st.integers(0, 99)),
        ),
    ),
    st.sampled_from(["", "\\ No newline at end of file", "index 1a2b..3c4d 100644", "garbage line"]),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(_diff_lines, max_size=14), st.booleans())
def test_parse_patch_matches_reference_parser(lines, trailing_newline):
    text = "\n".join(lines) + ("\n" if trailing_newline else "")
    try:
        expected = reference_parse_patch(text)
    except PatchFormatError as exc:
        with pytest.raises(PatchFormatError) as err:
            parse_patch(text)
        assert err.value.line_number == exc.line_number
    else:
        assert parse_patch(text) == expected


def test_parse_patch_keeps_every_repeated_header_path():
    text = "--- a/x.py\n+++ b/y.py\n+++ b/z.py\n@@ -1 +1 @@\n-old\n+new\n"
    assert parse_patch(text).files == frozenset({"x.py", "y.py", "z.py"})
    sections = parse_diff(text)
    assert [(s.old_path, s.new_path) for s in sections] == [("x.py", "z.py")]
