"""Property tests: the per-instance indexes answer exactly as the plain
scans they replace.

Each reference below is the straightforward version kept here on
purpose: a linear scan over the whole tree, a re-split of the whole
file, fault facts recomputed for every segment, a per-line count, a
scan of every unit for ddmin's units of a level, and frozen copies of
the parent-and-child walks that the tree's leaf table replaced (subtree
leaves, render placeholders, GA genome governors, the ancestor-list
upward closure), of the two passes over a segment's statements that
``role_facts`` replaced and of the ``ast.walk`` of called names that an
explicit stack walk replaced.
Random modules mix functions, classes, nested definitions, compound
blocks, decorators, comments and blank lines, plus empty, blank-only,
comment-only and unparseable files.
"""

from __future__ import annotations

import ast
from functools import cache

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ctxdistill.code_model import (
    CodeUnit,
    Level,
    SegmentKind,
    Span,
    build_tree,
    enclosing_unit,
    split_lines,
    unit_text,
    upward_closure,
)
from ctxdistill.dataset import (
    SemanticRole,
    _called_names,
    _parse_segment,
    classify_role,
    fault_facts,
)
from ctxdistill.ga_search import (
    Genome,
    GenomeSpace,
    fitness,
    is_upward_consistent,
    leaf_priorities,
    repair,
    retained_leaf_ids,
)
from ctxdistill.hdd import _level_units
from ctxdistill.instance import FaultLocation
from ctxdistill.priority import CoverageReport, covered_line_count, lex_identifiers
from ctxdistill.render import _indent_of, placeholder_line, render

NAMES = ("alpha", "beta", "fetch", "size", "load", "Config", "LIMIT")
SETTINGS = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


# --- random modules -----------------------------------------------------------

names = st.sampled_from(NAMES)


@cache  # one strategy object per argument tuple keeps drawing cheap
@st.composite
def simple_stmt(draw, indent: str) -> list[str]:
    a, b = draw(names), draw(names)
    form = draw(st.integers(0, 4))
    if form == 0:
        line = f"{a} = {b} + 1"
    elif form == 1:
        line = f"{a}({b})"
    elif form == 2:
        line = f"{a}: int = 3"
    elif form == 3:
        line = f"self.{a} = {b}.{a}()"
    else:
        line = "pass"
    return [indent + line]


@cache
@st.composite
def filler(draw, indent: str) -> list[str]:
    """Blank lines and comments between statements."""
    out = []
    for _ in range(draw(st.integers(0, 2))):
        out.append(draw(st.sampled_from(["", indent + "# note", "# flush-left note"])))
    return out


@cache
@st.composite
def compound_stmt(draw, indent: str, depth: int) -> list[str]:
    head = draw(
        st.sampled_from(
            ["if {a}:", "for x in {a}:", "while {a}:", "with {a}() as x:", "try:"]
        )
    ).format(a=draw(names))
    lines = [indent + head] + draw(body(indent + "    ", depth + 1, in_function=True))
    if head == "try:":
        lines += [indent + "except ValueError:", indent + "    pass"]
    return lines


@cache
@st.composite
def function_def(draw, indent: str, depth: int) -> list[str]:
    lines = []
    if draw(st.booleans()):
        lines.append(f"{indent}@{draw(names)}")
    lines.append(f"{indent}def {draw(names)}({draw(names)}):")
    return lines + draw(body(indent + "    ", depth + 1, in_function=True))


@cache
@st.composite
def class_def(draw, indent: str, depth: int) -> list[str]:
    lines = []
    if draw(st.booleans()):
        lines.append(f"{indent}@{draw(names)}")
    lines.append(f"{indent}class {draw(names)}({draw(names)}):")
    return lines + draw(body(indent + "    ", depth + 1, in_function=False))


@cache
@st.composite
def body(draw, indent: str, depth: int, in_function: bool) -> list[str]:
    kinds = ["simple", "simple"]
    if depth < 3:
        kinds += ["def", "class"] + (["compound", "compound"] if in_function else [])
    lines: list[str] = []
    for _ in range(draw(st.integers(1, 4))):
        lines += draw(filler(indent))
        kind = draw(st.sampled_from(kinds))
        if kind == "simple":
            lines += draw(simple_stmt(indent))
        elif kind == "compound":
            lines += draw(compound_stmt(indent, depth))
        elif kind == "def":
            lines += draw(function_def(indent, depth))
        else:
            lines += draw(class_def(indent, depth))
    if in_function and draw(st.booleans()):
        lines.append(f"{indent}return {draw(names)}")
    return lines


@st.composite
def module_source(draw) -> str:
    shape = draw(st.sampled_from(["code"] * 6 + ["empty", "blank", "comments", "broken"]))
    if shape == "empty":
        return ""
    if shape == "blank":
        return "\n" * draw(st.integers(1, 3))
    if shape == "comments":
        return "# only\n\n# comments\n"
    if shape == "broken":
        return "def broken(:\n    this is not python\n"
    lines: list[str] = []
    for _ in range(draw(st.integers(1, 5))):
        lines += draw(filler(""))
        lines += draw(st.one_of(simple_stmt(""), function_def("", 0), class_def("", 0)))
    lines += draw(filler(""))
    return "\n".join(lines) + ("\n" if draw(st.booleans()) else "")


trees = st.lists(module_source(), min_size=1, max_size=3).map(
    lambda sources: build_tree("t", [(f"pkg/m{i}.py", src) for i, src in enumerate(sources)])
)


# --- references: the plain scans ----------------------------------------------


def scan_enclosing_unit(tree, path, line, level=None):
    best = None
    for uid in tree.unit_order:
        unit = tree.index[uid]
        if unit.path != path or not unit.span.contains_line(line):
            continue
        if level is not None and unit.level is not level:
            continue
        if best is None or best.span.contains(unit.span):
            best = unit
    return best


def scan_enclosing_leaf(tree, path, line):
    for unit in tree.leaves:
        if unit.path == path and unit.span.contains_line(line):
            return unit
    return None


# the two passes ``role_facts`` replaced
LITERALISH = (ast.Constant, ast.List, ast.Tuple, ast.Set, ast.Dict, ast.Name, ast.Attribute, ast.UnaryOp)


def declaration_ratio(stmts):
    """Fraction of top-level statements that look like field/attribute/type
    declarations: annotated assignments, or plain assignments of literal-ish
    values to simple targets."""
    if not stmts:
        return 0.0
    decls = 0
    for stmt in stmts:
        if isinstance(stmt, ast.AnnAssign):
            decls += 1
        elif isinstance(stmt, ast.Assign):
            simple = all(isinstance(t, (ast.Name, ast.Attribute)) for t in stmt.targets)
            if simple and isinstance(stmt.value, LITERALISH):
                decls += 1
    return decls / len(stmts)


def defined_names(stmts):
    names = set()
    for stmt in stmts:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(stmt.name)
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            names.add(stmt.target.id)
    return frozenset(names)


def frozen_called_names(module):
    if module is None:
        return frozenset()
    names = set()
    for node in ast.walk(module):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                names.add(func.id)
            elif isinstance(func, ast.Attribute):
                names.add(func.attr)
    return frozenset(names)


def resplit_unit_text(tree, unit):
    lines = tree.sources[unit.path].splitlines()
    return "\n".join(lines[unit.span.start_line - 1 : unit.span.end_line])


def per_segment_role(segment, faults, tree):
    """The role rules with the fault facts recomputed for this segment."""
    if segment.kind is SegmentKind.CLASS_HEADER:
        return SemanticRole.SCHEMA
    module = _parse_segment(resplit_unit_text(tree, segment))
    stmts = [] if module is None else module.body
    if declaration_ratio(stmts) >= 0.5:
        return SemanticRole.SCHEMA

    fault_units, seen = [], set()
    for fl in faults:
        unit = scan_enclosing_unit(tree, fl.path, fl.line, level=Level.FUNCTION)
        if unit is None:
            unit = scan_enclosing_unit(tree, fl.path, fl.line)
        if unit is not None and unit.id not in seen:
            seen.add(unit.id)
            fault_units.append(unit)
    fault_texts = [resplit_unit_text(tree, u) for u in fault_units]
    fault_modules = [_parse_segment(t) for t in fault_texts]
    fault_calls = frozenset().union(*(frozen_called_names(m) for m in fault_modules))
    fault_ids = frozenset().union(*(lex_identifiers(t) for t in fault_texts))
    fault_defs = frozenset().union(*(defined_names(m.body) for m in fault_modules if m is not None))

    defined = defined_names(stmts)
    if defined & (fault_ids - fault_calls):
        return SemanticRole.DEFINITION
    if frozen_called_names(module) & fault_defs or defined & fault_calls:
        return SemanticRole.CALL_CHAIN
    return SemanticRole.GENERIC_UTILITY


def scan_level_units(tree, level, retained):
    return [
        uid
        for uid in tree.unit_order
        if tree.index[uid].level is level and any(leaf.id in retained for leaf in tree.leaves_under(uid))
    ]


def walk_subtree(tree, unit_id):
    unit = tree.unit(unit_id)
    yield unit
    for child_id in unit.child_ids:
        yield from walk_subtree(tree, child_id)


def walk_subtree_leaf_ids(tree, unit_id):
    return frozenset(
        u.id for u in walk_subtree(tree, unit_id) if u.is_leaf and u.level is not Level.FILE
    )


def summed_emit(tree, unit, included, lines, out):
    """The renderer with each placeholder summing its leaves' line counts."""
    if unit.is_leaf:
        out.extend(lines[unit.span.start_line - 1 : unit.span.end_line])
        return
    children = [tree.index[cid] for cid in unit.child_ids]
    i = 0
    while i < len(children):
        child = children[i]
        if child.id in included:
            summed_emit(tree, child, included, lines, out)
            i += 1
            continue
        run_start = i
        while i < len(children) and children[i].id not in included:
            i += 1
        run = children[run_start:i]
        omitted_lines = sum(
            tree.index[lid].span.line_count
            for sibling in run
            for lid in walk_subtree_leaf_ids(tree, sibling.id)
        )
        indent = _indent_of(lines, run[0].span.start_line, run[-1].span.end_line)
        out.append(placeholder_line(indent, omitted_lines))


def frozen_ancestors(tree, unit_id):
    chain = []
    current = tree.unit(unit_id)
    while current.parent_id is not None:
        chain.append(current.parent_id)
        current = tree.unit(current.parent_id)
    return chain


def frozen_upward_closure(tree, included):
    """The included set plus every ancestor of each included unit."""
    closed = set()
    for uid in included:
        if uid not in closed:
            closed.add(tree.unit(uid).id)
            closed.update(frozen_ancestors(tree, uid))
    return frozenset(closed)


class GovernorSpace:
    """Genome ancestors and leaf governors found by walking parent links."""

    def __init__(self, tree):
        self.unit_ids = GenomeSpace(tree).unit_ids
        position = {uid: i for i, uid in enumerate(self.unit_ids)}
        self.ancestor_positions = []
        for uid in self.unit_ids:
            chain = []
            unit = tree.index[uid]
            while unit.parent_id is not None:
                unit = tree.index[unit.parent_id]
                if unit.id in position:
                    chain.append(position[unit.id])
            self.ancestor_positions.append(tuple(chain))
        self.leaf_ids = []
        self.leaf_governors = []
        for uid in tree.unit_order:
            unit = tree.index[uid]
            if not unit.is_leaf or unit.level is Level.FILE:
                continue
            governors = []
            current = unit
            while current is not None:
                if current.id in position:
                    governors.append(position[current.id])
                current = tree.index[current.parent_id] if current.parent_id else None
            self.leaf_ids.append(uid)
            self.leaf_governors.append(tuple(governors))


def governor_is_upward_consistent(genome, space):
    return all(
        all(genome.bits[a] for a in space.ancestor_positions[i])
        for i, bit in enumerate(genome.bits)
        if bit
    )


def governor_repair(genome, space, phi):
    bits = list(genome.bits)
    for i, bit in enumerate(bits):
        if bit:
            for a in space.ancestor_positions[i]:
                bits[a] = 1
    below = [i for i in range(len(bits)) if space.ancestor_positions[i]] or range(len(bits))
    if not any(bits[i] for i in below):
        # nothing under a file is on, so nothing is kept: revive the top
        # unit under a file, else the top file
        best = max(below, key=lambda i: (phi.get(space.unit_ids[i], 0.0), -i))
        bits[best] = 1
        for a in space.ancestor_positions[best]:
            bits[a] = 1
    return Genome(tuple(bits))


def governor_kept_leaves(genome, space):
    bits = genome.bits
    for leaf_id, governors in zip(space.leaf_ids, space.leaf_governors):
        if all(bits[g] for g in governors):
            yield leaf_id


def governor_fitness(genome, space, phi):
    # left to right, as ``fitness`` adds: ``sum`` compensates from Python 3.12 on
    total = 0.0
    for leaf_id in governor_kept_leaves(genome, space):
        total += phi.get(leaf_id, 0.0)
    return total


def probe_lines(tree, path):
    """Every line of the file, one before it and one past its end."""
    return range(0, len(tree.sources[path].splitlines()) + 2)


# --- properties -----------------------------------------------------------------


@SETTINGS
@given(trees)
def test_indexed_lookups_match_linear_scans(tree):
    for path in [*tree.sources, "pkg/absent.py"]:
        lines = probe_lines(tree, path) if path in tree.sources else range(0, 3)
        for line in lines:
            for level in (None, Level.FILE, Level.FUNCTION, Level.BLOCK):
                assert enclosing_unit(tree, path, line, level) is scan_enclosing_unit(tree, path, line, level)
            unit = tree.innermost_unit(path, line)
            leaf = None if unit is None or unit.level is Level.FILE else unit
            assert leaf is scan_enclosing_leaf(tree, path, line)
    for uid in tree.unit_order:
        assert unit_text(tree, tree.index[uid]) == resplit_unit_text(tree, tree.index[uid])


@SETTINGS
@given(trees)
def test_called_names_match_the_ast_walk(tree):
    for uid in tree.unit_order:
        module = _parse_segment(unit_text(tree, tree.index[uid]))
        assert _called_names(module) == frozen_called_names(module)


def test_equal_spans_resolve_to_the_later_unit():
    tree = build_tree("t", [("c.py", "# only\n# comments\n"), ("b.py", "def broken(:\n")])
    for path in ("c.py", "b.py"):
        file_unit, fragment = (tree.index[uid] for uid in tree.unit_order if tree.index[uid].path == path)
        assert fragment.span == file_unit.span
        assert enclosing_unit(tree, path, 1) is fragment
        assert enclosing_unit(tree, path, 1, Level.FILE) is file_unit


@SETTINGS
@given(
    trees,
    st.lists(st.tuples(st.integers(0, 2), st.integers(0, 40)), max_size=4),
)
def test_hoisted_fault_facts_give_per_segment_roles(tree, picks):
    paths = list(tree.sources)
    faults = [FaultLocation(paths[i % len(paths)], line) for i, line in picks]
    facts = fault_facts(tree, faults)
    for seg in tree.leaves:
        assert classify_role(seg, unit_text(tree, seg), facts) is per_segment_role(seg, faults, tree)


@SETTINGS
@given(
    st.frozensets(st.integers(1, 60), max_size=40),
    st.lists(st.tuples(st.integers(1, 60), st.integers(0, 20)), min_size=1, max_size=20),
)
def test_bisect_covered_line_count_matches_plain_count(covered, spans):
    coverage = CoverageReport({"m.py": covered, "other.py": frozenset({1, 2, 3})})
    for start, extra in spans:
        for path in ("m.py", "absent.py"):
            unit = CodeUnit("u", Level.FUNCTION, SegmentKind.FUNCTION, Span(start, start + extra), path)
            plain = sum(1 for n in coverage.lines.get(path, ()) if unit.span.contains_line(n))
            assert covered_line_count(unit, coverage) == plain


@SETTINGS
@given(trees)
def test_leaf_table_matches_subtree_walks(tree):
    assert tree.leaves == [
        tree.index[uid]
        for uid in tree.unit_order
        if tree.index[uid].is_leaf and tree.index[uid].level is not Level.FILE
    ]
    for uid in tree.unit_order:
        assert [u.id for u in tree.leaves_under(uid)] == [
            u.id for u in walk_subtree(tree, uid) if u.is_leaf and u.level is not Level.FILE
        ]


@SETTINGS
@given(trees, st.randoms(use_true_random=False))
def test_placeholder_line_ranges_match_summed_leaf_lines(tree, rng):
    leaves = [u.id for u in tree.leaves]
    for _ in range(5):
        included = upward_closure(tree, rng.sample(leaves, rng.randint(0, len(leaves))))
        rendered = render(tree, included)
        expected = []
        for file_unit in tree.files:
            if file_unit.id in included:
                out = []
                lines = split_lines(tree.sources[file_unit.path], keepends=True)
                summed_emit(tree, file_unit, included, lines, out)
                expected.append((file_unit.path, "".join(out)))
        assert [(rf.path, rf.text) for rf in rendered.per_file] == expected


@SETTINGS
@given(trees, st.randoms(use_true_random=False))
def test_render_closes_ids_as_the_ancestor_walk_did(tree, rng):
    """Any mix of leaf and internal ids renders as its closure."""
    for _ in range(5):
        ids = rng.sample(tree.unit_order, rng.randint(0, len(tree.unit_order)))
        closed = frozen_upward_closure(tree, ids)
        assert upward_closure(tree, ids) == closed
        rendered, expected = render(tree, ids), render(tree, closed)
        assert [(rf.path, rf.text) for rf in rendered.per_file] == [
            (rf.path, rf.text) for rf in expected.per_file
        ]
        assert rendered.total_tokens == expected.total_tokens


@SETTINGS
@given(trees, st.randoms(use_true_random=False))
def test_genome_slices_match_governor_walks(tree, rng):
    space = GenomeSpace(tree)
    reference = GovernorSpace(tree)
    assert space.leaf_ids == reference.leaf_ids
    phi = {uid: rng.choice([0.0, 0.1, 1 / 3, rng.random(), rng.uniform(0, 50)]) for uid in tree.unit_order}
    for _ in range(20):
        genome = Genome(tuple(rng.randint(0, 1) for _ in range(len(space))))
        assert is_upward_consistent(genome, space) == governor_is_upward_consistent(genome, reference)
        repaired = repair(genome, space, phi)
        assert repaired.bits == governor_repair(genome, reference, phi).bits
        assert is_upward_consistent(repaired, space)
        for candidate in (genome, repaired):
            assert retained_leaf_ids(candidate, space) == frozenset(governor_kept_leaves(candidate, reference))
            assert float(fitness(candidate, space, leaf_priorities(space, phi))).hex() == float(governor_fitness(candidate, reference, phi)).hex()


@SETTINGS
@given(trees, st.randoms(use_true_random=False))
def test_level_units_match_the_tree_scan(tree, rng):
    leaves = [u.id for u in tree.leaves]
    for _ in range(5):
        retained = frozenset(rng.sample(leaves, rng.randint(0, len(leaves))))
        for level in Level:
            assert _level_units(tree, level, retained) == set(scan_level_units(tree, level, retained))
