"""Property tests: the per-instance indexes answer exactly as the plain
scans they replace.

Each reference below is the straightforward version kept here on
purpose: a linear scan over the whole tree, a re-split of the whole
file, fault facts recomputed for every segment, and a per-line count.
Random modules mix functions, classes, nested definitions, compound
blocks, decorators, comments and blank lines, plus empty, blank-only,
comment-only and unparseable files.
"""

from __future__ import annotations

from functools import cache

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ctxdistill.code_model import (
    CodeUnit,
    Level,
    SegmentKind,
    Span,
    build_tree,
    enclosing_leaf,
    enclosing_unit,
    leaf_segments,
    unit_text,
)
from ctxdistill.dataset import (
    SemanticRole,
    _called_names,
    _declaration_ratio,
    _defined_names,
    _parse_segment,
    classify_role,
    fault_facts,
)
from ctxdistill.instance import FaultLocation
from ctxdistill.priority import CoverageReport, covered_line_count, lex_identifiers

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
    for unit in leaf_segments(tree):
        if unit.path == path and unit.span.contains_line(line):
            return unit
    return None


def resplit_unit_text(tree, unit):
    lines = tree.sources[unit.path].splitlines()
    return "\n".join(lines[unit.span.start_line - 1 : unit.span.end_line])


def per_segment_role(segment, faults, tree):
    """The role rules with the fault facts recomputed for this segment."""
    if segment.kind is SegmentKind.CLASS_HEADER:
        return SemanticRole.SCHEMA
    module = _parse_segment(resplit_unit_text(tree, segment))
    if _declaration_ratio(module) >= 0.5:
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
    fault_calls = frozenset().union(*(_called_names(m) for m in fault_modules))
    fault_ids = frozenset().union(*(lex_identifiers(t) for t in fault_texts))
    fault_defs = frozenset().union(*(_defined_names(m) for m in fault_modules))

    defined = _defined_names(module)
    if defined & (fault_ids - fault_calls):
        return SemanticRole.DEFINITION
    if _called_names(module) & fault_defs or defined & fault_calls:
        return SemanticRole.CALL_CHAIN
    return SemanticRole.GENERIC_UTILITY


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
            assert enclosing_leaf(tree, path, line) is scan_enclosing_leaf(tree, path, line)
    for uid in tree.unit_order:
        assert unit_text(tree, uid) == resplit_unit_text(tree, tree.index[uid])


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
    for seg in leaf_segments(tree):
        assert classify_role(seg, tree, facts) is per_segment_role(seg, faults, tree)


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
