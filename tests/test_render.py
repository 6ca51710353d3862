"""Rendering tests: identity, placeholders, conservation."""

import random

import pytest

from ctxdistill.code_model import (
    UnknownUnitError,
    build_tree,
    upward_closure,
)
from ctxdistill.render import PLACEHOLDER_RE, render, render_full

from fixtures import CLASS_SOURCE, MULTI_BLOCK_SOURCE, NESTED_SOURCE, random_module

METHOD_SOURCE = """\
class Tool:
    def short(self):
        return 1
    def long(self):
        a = 1
        b = 2
        c = 3
        return a + b
"""


def _conservation_check(tree, included):
    """Source lines emitted plus placeholder N totals must equal the
    segmented line total of every rendered file."""
    rendered = render(tree, included)
    for rf in rendered.per_file:
        file_unit = next(u for u in tree.files if u.path == rf.path)
        segmented = sum(
            leaf.span.line_count
            for leaf in tree.leaves_under(file_unit.id)
        )
        emitted = 0
        placeholder_total = 0
        for line in rf.text.splitlines():
            m = PLACEHOLDER_RE.match(line)
            if m:
                placeholder_total += int(m.group(2))
            else:
                emitted += 1
        assert emitted + placeholder_total == segmented, rf.path
    return rendered


def test_full_inclusion_is_byte_identical():
    for source in (CLASS_SOURCE, MULTI_BLOCK_SOURCE, NESTED_SOURCE, "x = 1"):
        tree = build_tree("t", [("m.py", source)])
        assert render_full(tree).per_file[0].text == source


def test_excluded_method_becomes_placeholder_line():
    tree = build_tree("t", [("tool.py", METHOD_SOURCE)])
    segs = tree.leaves
    long_method = segs[-1]
    assert long_method.span.line_count == 5
    included = set(tree.unit_order) - {long_method.id}
    text = render(tree, included).per_file[0].text
    assert "    # ... 5 lines omitted\n" in text
    assert "def long" not in text
    assert "def short" in text


def test_identity_and_placeholder_for_excluded_file():
    tree = build_tree(
        "t",
        [("a.py", "def f(x):\n    return x\n"), ("b.py", "def g(y):\n    return y\n")],
    )
    b_file = tree.files[1]
    included = set(tree.unit_order) - set(u.id for u in tree.index.values() if u.path == "b.py")
    rendered = render(tree, included)
    assert [rf.path for rf in rendered.per_file] == ["a.py"]
    assert "### FILE: a.py" in rendered.dump_text()
    assert "b.py" not in rendered.dump_text()


def test_file_on_all_segments_off_collapses_to_one_placeholder():
    tree = build_tree("t", [("m.py", MULTI_BLOCK_SOURCE)])
    file_unit = tree.files[0]
    rendered = render(tree, {file_unit.id})
    text = rendered.per_file[0].text
    lines = text.splitlines()
    matches = [PLACEHOLDER_RE.match(line) for line in lines]
    assert all(matches)
    total = sum(int(m.group(2)) for m in matches)
    assert total == sum(
        leaf.span.line_count
        for leaf in tree.leaves_under(file_unit.id)
    )
    # adjacent excluded siblings merge into a single placeholder
    assert len(lines) == 1


def _expected_placeholder_runs(tree, included):
    """Number of maximal excluded-sibling runs under included parents."""
    runs = 0
    for uid in tree.unit_order:
        unit = tree.index[uid]
        if uid not in included or not unit.child_ids:
            continue
        in_run = False
        for cid in unit.child_ids:
            if cid not in included:
                if not in_run:
                    runs += 1
                in_run = True
            else:
                in_run = False
    return runs


def test_placeholder_count_equals_maximal_excluded_runs():
    rng = random.Random(19)
    for trial in range(100):
        tree = build_tree("t", [("m.py", random_module(rng))])
        leaves = [s.id for s in tree.leaves]
        chosen = rng.sample(leaves, rng.randint(0, len(leaves)))
        included = upward_closure(tree, chosen)
        if not included:
            continue
        rendered = render(tree, included)
        placeholders = sum(
            1
            for rf in rendered.per_file
            for line in rf.text.splitlines()
            if PLACEHOLDER_RE.match(line)
        )
        assert placeholders == _expected_placeholder_runs(tree, included)


def test_unknown_id_raises_naming_the_id():
    tree = build_tree("t", [("m.py", MULTI_BLOCK_SOURCE)])
    leaf = tree.leaves[0]
    for ids in ({"bogus-id"}, [leaf.id, "bogus-id"]):
        with pytest.raises(UnknownUnitError) as err:
            render(tree, ids)
        assert err.value.unit_id == "bogus-id"
        assert "bogus-id" in str(err.value)


def test_total_tokens_counts_separator():
    tree = build_tree("t", [("m.py", "x = 1\n")])
    rendered = render_full(tree)
    dump = rendered.dump_text()
    assert dump.startswith("### FILE: m.py\n")
    assert rendered.total_tokens == (len(dump.encode()) + 3) // 4


def test_conservation_on_random_inclusion_sets():
    rng = random.Random(23)
    for trial in range(60):
        files = [(f"m{i}.py", random_module(rng)) for i in range(rng.randint(1, 3))]
        tree = build_tree("t", files)
        leaves = [s.id for s in tree.leaves]
        chosen = rng.sample(leaves, rng.randint(0, len(leaves)))
        included = upward_closure(tree, chosen)
        _conservation_check(tree, included)


def test_placeholder_indent_matches_method_indent():
    tree = build_tree("t", [("tool.py", METHOD_SOURCE)])
    segs = tree.leaves
    short_method = segs[1]
    included = set(tree.unit_order) - {short_method.id}
    text = render(tree, included).per_file[0].text
    match = next(
        PLACEHOLDER_RE.match(l) for l in text.splitlines() if PLACEHOLDER_RE.match(l)
    )
    assert match.group(1) == "    "
