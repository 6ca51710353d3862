"""Decomposition and tree-query tests."""

import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ctxdistill.code_model import (
    Level,
    SegmentKind,
    Span,
    UnknownUnitError,
    build_tree,
    decompose,
    enclosing_unit,
    split_lines,
    unit_text,
    upward_closure,
)

from ctxdistill.render import render_full

from fixtures import (
    BROKEN_SOURCE,
    CLASS_SOURCE,
    FORM_FEED_SOURCE,
    MULTI_BLOCK_SOURCE,
    NESTED_SOURCE,
    random_module,
)


def test_span_validation():
    with pytest.raises(ValueError):
        Span(0, 3)
    with pytest.raises(ValueError):
        Span(5, 4)
    assert Span(2, 4).line_count == 3


def test_single_function_becomes_one_leaf():
    source = "def add(a, b):\n    c = a + b\n    d = c * 2\n    return d\n"
    units = decompose("m.py", source)
    assert len(units) == 2
    file_unit, leaf = units
    assert file_unit.level is Level.FILE
    assert file_unit.child_ids == [leaf.id]
    assert leaf.kind is SegmentKind.FUNCTION
    assert (leaf.span.start_line, leaf.span.end_line) == (1, 4)


def test_empty_file_has_zero_segments():
    units = decompose("empty.py", "")
    assert len(units) == 1
    assert units[0].level is Level.FILE
    tree = build_tree("t", [("empty.py", "")])
    assert tree.leaves == []


def test_class_decomposes_to_header_and_methods():
    tree = build_tree("t", [("shape.py", CLASS_SOURCE)])
    kinds = [seg.kind for seg in tree.leaves]
    assert kinds == [SegmentKind.CLASS_HEADER, SegmentKind.METHOD, SegmentKind.METHOD]
    header = tree.leaves[0]
    # header owns the signature plus the class-level statements
    assert header.span.start_line == 1
    assert "sides = 4" in unit_text(tree, header)
    assert "def area" not in unit_text(tree, header)


def test_multi_block_function_splits_at_compound_boundaries():
    tree = build_tree("t", [("m.py", MULTI_BLOCK_SOURCE)])
    segs = tree.leaves
    kinds = [s.kind.value for s in segs]
    # import fragment, locate's blocks, flatten's blocks, trailing fragment
    assert kinds[0] == "file"
    assert "block" in kinds
    locate = next(
        tree.index[uid]
        for uid in tree.unit_order
        if tree.index[uid].level is Level.FUNCTION and not tree.index[uid].is_leaf
    )
    blocks = [tree.index[cid] for cid in locate.child_ids]
    # signature folds into the first block; spans tile the function
    assert blocks[0].span.start_line == locate.span.start_line
    assert blocks[-1].span.end_line == locate.span.end_line
    for a, b in zip(blocks, blocks[1:]):
        assert b.span.start_line == a.span.end_line + 1


def test_nested_function_is_a_function_kind_leaf():
    tree = build_tree("t", [("n.py", NESTED_SOURCE)])
    segs = tree.leaves
    nested = [s for s in segs if s.kind is SegmentKind.FUNCTION and s.level is Level.BLOCK]
    assert len(nested) == 1
    assert "def inner" in unit_text(tree, nested[0])


def test_unparseable_source_falls_back_to_file_leaf():
    units = decompose("broken.py", BROKEN_SOURCE)
    assert len(units) == 2
    leaf = units[1]
    assert leaf.kind is SegmentKind.FILE
    assert leaf.fallback is True
    assert leaf.span.line_count == len(BROKEN_SOURCE.splitlines())


def test_comment_only_file_is_one_fragment():
    units = decompose("c.py", "# just a comment\n\n# another\n")
    assert len(units) == 2
    assert units[1].kind is SegmentKind.FILE
    assert units[1].span == Span(1, 3)


def test_decompose_is_deterministic():
    a = decompose("m.py", MULTI_BLOCK_SOURCE)
    b = decompose("m.py", MULTI_BLOCK_SOURCE)
    assert [u.id for u in a] == [u.id for u in b]
    assert [u.span for u in a] == [u.span for u in b]
    assert [u.kind for u in a] == [u.kind for u in b]


def test_leaf_spans_partition_each_file():
    rng = random.Random(7)
    for trial in range(30):
        source = random_module(rng)
        tree = build_tree("t", [("m.py", source)])
        covered = []
        for seg in tree.leaves:
            covered.extend(range(seg.span.start_line, seg.span.end_line + 1))
        assert sorted(covered) == list(range(1, len(source.splitlines()) + 1))
        assert len(set(covered)) == len(covered)


def test_sibling_spans_nested_in_parent_and_disjoint():
    rng = random.Random(11)
    for trial in range(30):
        tree = build_tree("t", [("m.py", random_module(rng))])
        for uid in tree.unit_order:
            unit = tree.index[uid]
            children = [tree.index[c] for c in unit.child_ids]
            for child in children:
                assert unit.span.contains(child.span)
            for a, b in zip(children, children[1:]):
                assert a.span.end_line < b.span.start_line


def test_every_leaf_chain_ends_at_one_file_unit():
    rng = random.Random(13)
    for trial in range(20):
        tree = build_tree("t", [("a.py", random_module(rng)), ("b.py", random_module(rng))])
        for seg in tree.leaves:
            unit = seg
            while unit.parent_id is not None:
                unit = tree.index[unit.parent_id]
            assert unit.level is Level.FILE
            assert unit.path == seg.path


def test_leaf_segments_document_order_across_files():
    tree = build_tree(
        "t",
        [
            ("a.py", "def f1(x):\n    return x\n\ndef f2(x):\n    return x\n"),
            ("b.py", "def g1(x):\n    return x\n\ndef g2(x):\n    return x\n\ndef g3(x):\n    return x\n"),
        ],
    )
    segs = tree.leaves
    assert len(segs) == 5
    assert [s.path for s in segs] == ["a.py", "a.py", "b.py", "b.py", "b.py"]


def test_upward_closure_chain_and_idempotence():
    tree = build_tree("t", [("m.py", MULTI_BLOCK_SOURCE)])
    block = next(s for s in tree.leaves if s.level is Level.BLOCK)
    closed = upward_closure(tree, {block.id})
    assert block.id in closed
    assert block.parent_id in closed
    func = tree.index[block.parent_id]
    assert func.parent_id in closed
    assert len(closed) == 3
    assert upward_closure(tree, closed) == closed
    assert upward_closure(tree, set()) == frozenset()


def test_upward_closure_idempotent_on_random_sets():
    rng = random.Random(3)
    tree = build_tree("t", [("m.py", MULTI_BLOCK_SOURCE), ("s.py", CLASS_SOURCE)])
    ids = list(tree.unit_order)
    for trial in range(50):
        chosen = frozenset(rng.sample(ids, rng.randint(0, len(ids))))
        closed = upward_closure(tree, chosen)
        assert upward_closure(tree, closed) == closed


def test_upward_closure_unknown_id_names_the_id():
    tree = build_tree("t", [("m.py", "x = 1\n")])
    with pytest.raises(UnknownUnitError) as err:
        upward_closure(tree, {"nope"})
    assert "nope" in str(err.value)


def test_enclosing_queries():
    tree = build_tree("t", [("m.py", MULTI_BLOCK_SOURCE)])
    leaf = tree.innermost_unit("m.py", 5)  # inside locate()
    assert leaf is not None and leaf.span.contains_line(5)
    func = enclosing_unit(tree, "m.py", 5, level=Level.FUNCTION)
    assert func is not None and not func.is_leaf
    assert tree.innermost_unit("m.py", 10_000) is None
    assert tree.innermost_unit("other.py", 1) is None


def test_subtree_leaf_ids():
    tree = build_tree("t", [("m.py", MULTI_BLOCK_SOURCE)])
    file_unit = tree.files[0]
    assert tree.leaves_under(file_unit.id) == tree.leaves
    leaf = tree.leaves[0]
    assert tree.leaves_under(leaf.id) == [leaf]


def test_form_feed_does_not_shift_spans():
    tree = build_tree("t", [("m.py", FORM_FEED_SOURCE)])
    a, b = tree.leaves
    assert (a.span.start_line, a.span.end_line) == (1, 4)
    assert unit_text(tree, a).endswith("    return x")
    assert unit_text(tree, b).lstrip("\n").startswith("def b")
    assert "return x" not in unit_text(tree, b)
    text = render_full(tree).per_file[0].text
    assert text == FORM_FEED_SOURCE


@given(st.text(alphabet="ab \n\r\x0c\x0b\x1c\x85\u2028", max_size=30))
def test_split_lines_breaks_only_where_ast_does(text):
    kept = split_lines(text, keepends=True)
    assert "".join(kept) == text
    expected = re.split(r"\r\n|\r|\n", text)
    if expected[-1] == "":
        expected.pop()
    assert split_lines(text) == expected
    assert [line.rstrip("\r\n") for line in kept] == expected


# the definition split_lines must keep: a line ends at \r\n, \r or \n
LINE_DEFINITION = re.compile(r"[^\r\n]*(?:\r\n?|\n)|[^\r\n]+")
LINE_PIECES = ["a", " ", "\n", "\r", "\r\n", "\f", "\v", "\x1c", "\x85", "\u2028"]


@given(st.lists(st.sampled_from(LINE_PIECES), max_size=40).map("".join))
def test_split_lines_equals_its_definition(text):
    lines = LINE_DEFINITION.findall(text)
    assert split_lines(text, keepends=True) == lines
    assert split_lines(text) == [line.rstrip("\r\n") for line in lines]
