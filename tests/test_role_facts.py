"""Property tests: every leaf's role facts come from its file's parse,
and they are the facts a standalone parse of the leaf gives wherever
that parse sees what the file's parse sees.

``classify_role`` reads each leaf's ``facts``, which every tree records
for every leaf.  The reference is ``_parse_segment`` of the leaf's text.
It agrees with the file's parse except in a file with a form feed, in an
unparseable file, and on a leaf whose last non-blank line ends in a
backslash; a table pins the roles of such leaves.  Trees come from the other property
modules plus adversarial shapes: flush-left comments and strings inside
bodies, tabs, form feeds, backslash continuations, ``;``-joined
statements, one-line and ``async`` definitions, nested classes, bare
signatures with decorators and comments, and unparseable and
comment-only files.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ctxdistill import dataset
from ctxdistill.code_model import RoleFacts, SegmentKind, build_tree, decompose, role_facts, unit_text
from ctxdistill.config import RunConfig
from ctxdistill.dataset import SemanticRole, _may_call, _parse_segment, classify_role, fault_facts
from ctxdistill.instance import FaultLocation, build_instance_tree, fault_units, load_instance
from ctxdistill.pipeline import distill_instance

from fixtures import CLASS_SOURCE, MULTI_BLOCK_SOURCE, NESTED_SOURCE, write_instance
from test_decided_work import frozen_classify_role, role_trees
from test_indexes import NAMES, SETTINGS
from test_indexes import trees as module_trees
from test_score_once import trees as scoring_trees

# --- adversarial modules ----------------------------------------------------------

names = st.sampled_from(NAMES)


@st.composite
def simple_lines(draw, ind: str) -> list[str]:
    a, b = draw(names), draw(names)
    return draw(
        st.sampled_from(
            [
                [f"{ind}{a} = 1; {b} = 2"],
                [f"{ind}{a}: int = 3"],
                [f"{ind}{a}({b})"],
                [f"{ind}{a} = {b} + \\", f"{ind}    1"],
                [f"{ind}{a} = {b} + \\", "1"],
                [f"{ind}{a} = 3 \\", ""],
                [f'{ind}{a} = """', "flush-left text", f'  still text"""'],
                [f"\f{ind}{a} = 4"],
                [f"{ind}{a} = 4", f"{ind}\f{ind}{b} = 5"],
            ]
        )
    )


@st.composite
def filler_lines(draw, ind: str) -> list[str]:
    pool = ["", f"{ind}# note", "# flush-left note", "\f", f"{ind}# ends in a backslash \\"]
    return draw(st.lists(st.sampled_from(pool), max_size=2))


@st.composite
def def_lines(draw, ind: str, unit: str, depth: int) -> list[str]:
    name = draw(names)
    head = []
    if draw(st.booleans()):
        head.append(f"{ind}@{draw(names)}")
    keyword = draw(st.sampled_from(["def", "async def"]))
    form = draw(st.sampled_from(["one-line", "body", "bare"]))
    if form == "one-line":
        return head + [f"{ind}{keyword} {name}(x): return x; pass"]
    head.append(f"{ind}{keyword} {name}(x):  # signature comment")
    if form == "bare":
        # the body opens with a definition, so the signature is a leaf of its own
        head += [f"{ind}{unit}# about the nested one", *draw(def_lines(ind + unit, unit, depth + 1))]
    return head + draw(body_lines(ind + unit, unit, depth + 1, in_function=True))


@st.composite
def class_lines(draw, ind: str, unit: str, depth: int) -> list[str]:
    name = draw(names)
    head = [f"{ind}@{draw(names)}"] if draw(st.booleans()) else []
    if draw(st.booleans()):
        return head + [f"{ind}class {name}: {draw(names)} = 1; {draw(names)} = 2"]
    head.append(f"{ind}class {name}:")
    return head + draw(body_lines(ind + unit, unit, depth + 1, in_function=False))


@st.composite
def compound_lines(draw, ind: str, unit: str, depth: int) -> list[str]:
    head = draw(st.sampled_from(["if {a}:", "for x in {a}:", "while {a}:", "with {a}() as x:"]))
    return [ind + head.format(a=draw(names))] + draw(body_lines(ind + unit, unit, depth + 1, True))


@st.composite
def body_lines(draw, ind: str, unit: str, depth: int, in_function: bool) -> list[str]:
    kinds = ["simple", "simple"]
    if depth < 3:
        kinds += ["def", "class"] + (["compound", "compound"] if in_function else [])
    lines: list[str] = []
    for _ in range(draw(st.integers(1, 3))):
        lines += draw(filler_lines(ind))
        kind = draw(st.sampled_from(kinds))
        if kind == "simple":
            lines += draw(simple_lines(ind))
        elif kind == "def":
            lines += draw(def_lines(ind, unit, depth))
        elif kind == "class":
            lines += draw(class_lines(ind, unit, depth))
        else:
            lines += draw(compound_lines(ind, unit, depth))
    if in_function and draw(st.booleans()):
        lines.append(f"{ind}return {draw(names)}")
    return lines


@st.composite
def adversarial_source(draw) -> str:
    shape = draw(st.sampled_from(["code"] * 6 + ["broken", "indented", "comments"]))
    if shape == "broken":
        return "def broken(:\n    pass\n"
    if shape == "indented":
        return "    x = 1\n    y = 2\n"  # unparseable as a file, parseable once dedented
    if shape == "comments":
        return "# only\n\n# comments \\\n"
    unit = draw(st.sampled_from(["    ", "\t", "  "]))
    lines = draw(body_lines("", unit, 0, in_function=False)) + draw(filler_lines(""))
    return "\n".join(lines) + "\n"


adversarial_trees = st.lists(
    st.one_of(adversarial_source(), st.sampled_from([CLASS_SOURCE, MULTI_BLOCK_SOURCE, NESTED_SOURCE])),
    min_size=1,
    max_size=3,
).map(lambda sources: build_tree("t", [(f"pkg/m{i}.py", src) for i, src in enumerate(sources)]))

any_tree = st.one_of(module_trees, scoring_trees, role_trees, adversarial_trees, adversarial_trees)


def standalone_facts(tree, leaf):
    module = _parse_segment(unit_text(tree, leaf))
    return role_facts([] if module is None else module.body)


def parses_alike(tree, leaf):
    """Whether a standalone parse of the leaf's text sees the statements
    its file's parse gives the leaf."""
    lines = [line for line in unit_text(tree, leaf).split("\n") if line.strip()]
    ends_in_backslash = bool(lines) and lines[-1].endswith("\\")
    return not (leaf.fallback or "\f" in tree.sources[leaf.path] or ends_in_backslash)


@st.composite
def role_cases(draw):
    tree = draw(any_tree)
    paths = list(tree.sources)
    faults = [
        FaultLocation(path, draw(st.integers(1, len(tree.lines[path]) + 1)))
        for path in paths
        for _ in range(draw(st.integers(0, 2)))
    ]
    return tree, faults


# --- properties ----------------------------------------------------------------------


@SETTINGS
@given(any_tree)
def test_recorded_facts_are_the_facts_of_a_standalone_parse(tree):
    for leaf in tree.leaves:
        if parses_alike(tree, leaf):
            assert leaf.facts == standalone_facts(tree, leaf), unit_text(tree, leaf)


@SETTINGS
@given(any_tree)
def test_facts_are_recorded_for_every_leaf_the_contract_covers(tree):
    """The contract covers every leaf, including those of unparseable
    files, of files with a form feed, and those whose last non-blank line
    ends in a backslash; no internal unit, and no file unit, has facts.
    ``decompose`` records the same facts as ``build_tree``."""
    leaf_ids = {leaf.id for leaf in tree.leaves}
    assert {uid for uid, unit in tree.index.items() if unit.facts is not None} == leaf_ids
    assert all(isinstance(leaf.facts, RoleFacts) for leaf in tree.leaves)
    for path, source in tree.sources.items():
        units = decompose(path, source)
        assert [u.facts for u in units] == [tree.index[u.id].facts for u in units]


@SETTINGS
@given(role_cases())
def test_roles_match_a_standalone_parse_where_the_parses_agree(case):
    tree, faults = case
    facts = fault_facts(tree, faults)
    for leaf in tree.leaves:
        if parses_alike(tree, leaf):
            assert classify_role(leaf, unit_text(tree, leaf), facts) is frozen_classify_role(leaf, tree, facts)


# each source's leaf at the line given parses on its own unlike in its file,
# and gets the role its file's parse gives it, not the standalone parse's
PARSED_APART = {
    "form feed inside an indent": ("def f():\n    if a: pass\n    x = 4\n    \f    y = 5\n", 3, SemanticRole.SCHEMA),
    "continuation into a blank line": ("x = 1 \\\n\ndef g(): pass\n", 1, SemanticRole.SCHEMA),
    "continuation into a comment": (
        "def f():\n    if a: pass\n    x = 1 \\\n# c\n    if b: pass\n",
        3,
        SemanticRole.SCHEMA,
    ),
    "indented file that does not parse": ("    x = 1\n    y = 2\n", 1, SemanticRole.GENERIC_UTILITY),
}


@pytest.mark.parametrize("source, line, role", PARSED_APART.values(), ids=PARSED_APART.keys())
def test_a_leaf_that_parses_unlike_its_file_gets_the_file_s_role(source, line, role):
    tree = build_tree("t", [("m.py", source)])
    leaf = tree.innermost_unit("m.py", line)
    assert not parses_alike(tree, leaf)
    facts = fault_facts(tree, [FaultLocation("m.py", 1)])
    assert classify_role(leaf, unit_text(tree, leaf), facts) is role
    assert frozen_classify_role(leaf, tree, facts) is not role


def test_a_bare_signature_records_the_facts_of_no_statement():
    source = "@deco\ndef outer(x):  # outer\n    # about inner\n    def inner(y):\n        return y\n    return inner\n"
    tree = build_tree("t", [("m.py", source)])
    signature = tree.leaves[0]
    assert unit_text(tree, signature) == "@deco\ndef outer(x):  # outer\n    # about inner"
    assert signature.facts == role_facts([]) == standalone_facts(tree, signature)


# --- guards ------------------------------------------------------------------------------

FILES = {
    "pkg/core.py": (
        "from pkg.util import helper\n\nLIMIT = 3\nNAME = 'core'\n\n"
        "def run(x):\n    if x:\n        return helper(x)\n    return LIMIT\n\n"
        "class Config:\n    size: int = 1\n\n    def load(self):\n        return run(self.size)\n"
    ),
    "pkg/util.py": "def helper(x):\n    return x + 1\n\ndef unused(y):\n    return y\n",
}


def _instance(tmp_path):
    return load_instance(
        write_instance(
            tmp_path / "inst.json",
            tmp_path / "repo",
            FILES,
            fault_locations=[{"path": "pkg/core.py", "line": 8}],
            mock_required=[{"path": "pkg/core.py", "line": 8}],
        )
    )


def test_classify_role_reads_the_tree_a_caller_builds(tmp_path):
    """A caller's ``build_instance_tree`` is the tree ``distill_instance``
    builds, so its roles are the record's."""
    instance = _instance(tmp_path)
    tree = build_instance_tree(instance)
    facts = fault_facts(tree, instance.fault_locations)
    roles = {leaf.id: classify_role(leaf, unit_text(tree, leaf), facts).value for leaf in tree.leaves}
    record = distill_instance(instance, RunConfig()).record
    assert roles == {seg.id: seg.role for seg in record.context_segments}
    assert set(roles.values()) == {role.value for role in SemanticRole}


def test_distill_parses_only_the_fault_units_and_the_leaves_that_may_call(tmp_path):
    instance = _instance(tmp_path)
    tree = build_instance_tree(instance)
    facts = fault_facts(tree, instance.fault_locations)
    may_call = []
    for leaf in tree.leaves:
        own = leaf.facts
        decided = (
            leaf.kind is SegmentKind.CLASS_HEADER
            or own.declaration
            or own.defined & (facts.identifiers | facts.calls)
        )
        if not decided and _may_call(unit_text(tree, leaf), facts.defined):
            may_call.append(unit_text(tree, leaf))
    assert 0 < len(may_call) < len(tree.leaves)
    units = {u.id: u for u in fault_units(tree, instance.fault_locations) if u is not None}
    expected = [unit_text(tree, unit) for unit in units.values()] + may_call

    parsed = []

    def counting(text):
        parsed.append(text)
        return _parse_segment(text)

    with mock.patch.object(dataset, "_parse_segment", counting):
        record = distill_instance(instance, RunConfig()).record
    assert sorted(parsed) == sorted(expected)
    roles = {seg.id: seg.role for seg in record.context_segments}
    assert roles == {leaf.id: classify_role(leaf, unit_text(tree, leaf), facts).value for leaf in tree.leaves}
    assert SemanticRole.CALL_CHAIN.value in roles.values()
