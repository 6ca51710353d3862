"""Property tests: the per-leaf work after the parse gives exactly the
answers of the work it replaced.

- ``priority_map`` checks which patch identifiers each file holds and
  lexes only the leaves that hold one of those as a substring.  The
  reference is a frozen copy of the ``priority_map`` that lexed every
  leaf, with the score formula it used.  The random sources hold targets
  inside longer identifiers (``get`` in ``budget``), digit-led runs
  (``1get`` lexes to ``get``), ``\\r\\n`` and ``\\r`` line breaks,
  non-ASCII letters next to a target, keywords among the patch
  identifiers, and empty and unparseable files.
- ``role_facts`` reads a statement list in one pass; the references are
  the two passes it replaced, kept in ``tests/test_indexes.py``.
- The records made once per unit or segment carry no ``__dict__``.
"""

from __future__ import annotations

import ast
import math

from hypothesis import example, given
from hypothesis import strategies as st

from ctxdistill.code_model import build_tree, role_facts, unit_text
from ctxdistill.dataset import SegmentRecord
from ctxdistill.priority import (
    _KEYWORDS,
    CoverageReport,
    PatchInfo,
    PriorityWeights,
    covered_line_count,
    identifiers_in,
    priority_map,
)

from test_indexes import SETTINGS, declaration_ratio, defined_names
from test_indexes import module_source

# --- priority_map ------------------------------------------------------------------


def frozen_score(unit, matched, patch, coverage, weights):
    score = 0.0
    if unit.path in patch.files:
        score += weights.w_p
    score += weights.w_c * math.log(1 + covered_line_count(unit, coverage))
    sym = len(matched) / len(patch.identifiers) if patch.identifiers else 0.0
    score += weights.w_s * sym
    return score


def leaf_lexing_priority_map(tree, patch, coverage, weights):
    """The earlier ``priority_map``: every leaf is lexed."""
    targets = patch.identifiers - _KEYWORDS
    if targets:
        leaf_matched = [identifiers_in(unit_text(tree, leaf), targets) for leaf in tree.leaves]
    else:
        leaf_matched = [frozenset()] * len(tree.leaves)
    scores = {}
    for uid in tree.unit_order:
        lo, hi = tree.leaf_slice[uid]
        matched = frozenset().union(*leaf_matched[lo:hi])
        scores[uid] = frozen_score(tree.unit(uid), matched, patch, coverage, weights)
    return scores


TARGETS = ("get", "put", "et", "Config", "x", "éget", "return", "None", "if")
WORDS = (
    "get", "put", "budget", "getter", "_get", "get_put", "forget", "Config", "x",
    "1get", "9put", "0x1get", "éget", "getß", "naïve_get", "ｇet", "return", "None",
)
FORMS = (
    "# {w}",
    "v{n} = '{w}'  # {w}",
    "get = put{n}",
    "budget = 1; forget = budget",
    "def f{n}(a):\n    s = '{w}'\n    if a:\n        return get\n    return a",
    "class C{n}:\n    '''{w}'''\n    get = 1\n\n    def m(self):\n        return budget",
    "éget{n} = x  # {w}",
)
BREAKS = ("\n", "\r\n", "\r")


@st.composite
def patched_source(draw) -> str:
    shape = draw(st.sampled_from(["code"] * 5 + ["empty", "broken", "tree"]))
    if shape == "empty":
        return ""
    if shape == "tree":
        return draw(module_source())
    stmts = []
    for n in range(draw(st.integers(1, 5))):
        words = " ".join(draw(st.lists(st.sampled_from(WORDS), max_size=4)))
        stmts.append(draw(st.sampled_from(FORMS)).format(w=words, n=n))
    if shape == "broken":
        stmts.insert(draw(st.integers(0, len(stmts))), "def broken(: get")
    lines = "\n".join(stmts).split("\n")
    text = ""
    for line in lines:
        text += line + draw(st.sampled_from(BREAKS))
    return text if draw(st.booleans()) else text.rstrip("\r\n")


@st.composite
def priority_cases(draw):
    sources = draw(st.lists(patched_source(), min_size=1, max_size=4))
    tree = build_tree("t", [(f"pkg/m{i}.py", src) for i, src in enumerate(sources)])
    paths = list(tree.sources)
    patch = PatchInfo(
        frozenset(draw(st.lists(st.sampled_from(paths), max_size=2))),
        frozenset(draw(st.lists(st.sampled_from(TARGETS), max_size=5))),
    )
    covered = {
        path: frozenset(draw(st.lists(st.integers(1, len(tree.lines[path]) + 1), max_size=4)))
        for path in draw(st.lists(st.sampled_from(paths), max_size=2))
    }
    return tree, patch, CoverageReport(covered)


def _case(sources, identifiers):
    tree = build_tree("t", [(f"pkg/m{i}.py", src) for i, src in enumerate(sources)])
    return tree, PatchInfo(frozenset(), frozenset(identifiers)), CoverageReport.empty()


@SETTINGS
@given(priority_cases())
@example(_case(["budget = 1\n\ndef getter():\n    return budget\n"], ["get"]))
@example(_case(["# 1get\nx = 1\n", "a = 0x1get\n"], ["get", "x"]))
@example(_case(["a = 1\r\nget = a\r\n", "b = 2\rput = b\r", "c = 3\r\nd = 4\ne = get\r"], ["get", "put"]))
@example(_case(["# éget getß\n\ndef f():\n    return naïve_get\n"], ["get", "éget"]))
@example(_case(["def f():\n    return None\n\nif x:\n    pass\n"], ["return", "None", "if", "x"]))
@example(_case(["", "def broken(:\n    get put\n", "\n\n"], ["get", "put"]))
@example(_case(["get = 1\n", "x = put"], ["get", "put"]))
def test_priority_map_matches_lexing_every_leaf(case):
    tree, patch, coverage = case
    weights = PriorityWeights()
    assert priority_map(tree, patch, coverage, weights) == leaf_lexing_priority_map(tree, patch, coverage, weights)


def test_only_whole_identifiers_count():
    """A target inside a longer identifier is not mentioned, a digit-led
    run lexes to the identifier after its digits, and so does a run after
    a non-ASCII letter, as identifiers are lexed in ASCII."""
    source = "budget = 1\n\ndef f():\n    return 1  # 1get\n\ndef g():\n    return éput\n"
    tree, patch, coverage = _case([source], ["get", "put"])
    phi = priority_map(tree, patch, coverage, PriorityWeights())
    budget, f, g = tree.leaves
    assert phi[budget.id] == 0.0
    assert phi[f.id] == phi[g.id] == 0.5


# --- role facts ----------------------------------------------------------------------


def _statement_lists(module: ast.Module):
    yield module.body
    for node in ast.walk(module):
        for name in ("body", "orelse", "finalbody"):
            stmts = getattr(node, name, None)
            if isinstance(stmts, list) and stmts and isinstance(stmts[0], ast.stmt):
                yield stmts


DECLARATIONS = """\
x: int = 1
self.y = 2
a = b = -1
c, d = 1, 2
e[0] = 1
f = call()
g.h: str
async def i():
    pass
class J:
    k = {}
    l = [m, n.o]
"""


@SETTINGS
@given(st.lists(module_source(), min_size=1, max_size=3))
@example([DECLARATIONS, "x = 1\ny = f()\n", "x = f()\ny = 1\nz = g()\n", "x = 1\ny = 2\nz = g()\n"])
def test_one_pass_role_facts_match_the_two_passes(sources):
    for source in sources:
        try:
            module = ast.parse(source)
        except SyntaxError:
            continue
        for stmts in _statement_lists(module):
            facts = role_facts(stmts)
            assert facts.declaration == (declaration_ratio(stmts) >= 0.5)
            assert facts.defined == defined_names(stmts)
    assert role_facts([]).declaration is False and role_facts([]).defined == frozenset()


# --- records --------------------------------------------------------------------------


def test_unit_and_segment_records_carry_no_dict():
    tree = build_tree("t", [("m.py", "x = 1\n")])
    leaf = tree.leaves[0]
    record = SegmentRecord(leaf.id, leaf.path, leaf.kind.value, 1, 1, 1, "x = 1", "schema")
    for obj in (leaf.span, leaf, leaf.facts, record):
        assert not hasattr(obj, "__dict__"), type(obj).__name__
