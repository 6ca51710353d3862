"""Property test: ``decompose`` builds exactly the trees its earlier
implementation built.

The reference below is a frozen copy of that implementation, kept here on
purpose: it wrote the "a run of plain statements becomes one fragment"
rule once per body kind (module, class, function) and built unparseable
files on a path of their own.  It computes each unit id by the original
rule, from the unit's whole text, written out here rather than imported.
Every unit must match it in id, level, kind, span, path, parent, child
order and ``fallback``, on random modules and on the fixed cases that
exercise the signature rules and the unit-id rule.
"""

from __future__ import annotations

import ast
import dataclasses
import hashlib
from dataclasses import dataclass

import pytest
from hypothesis import HealthCheck, given, settings

from ctxdistill.code_model import (
    CodeUnit,
    Level,
    SegmentKind,
    Span,
    decompose,
    split_lines,
)

from fixtures import BROKEN_SOURCE, CLASS_SOURCE, FORM_FEED_SOURCE, MULTI_BLOCK_SOURCE, NESTED_SOURCE
from test_indexes import module_source

# --- reference: the earlier decomposition, verbatim ----------------------------

_COMPOUND = (ast.If, ast.For, ast.AsyncFor, ast.While, ast.Try, ast.With, ast.AsyncWith)
if hasattr(ast, "Match"):
    _COMPOUND = _COMPOUND + (ast.Match,)
_DEF = (ast.FunctionDef, ast.AsyncFunctionDef)


@dataclass
class _Entry:
    start: int
    end: int
    kind: SegmentKind
    stmt: ast.stmt | None = None


def _definition_start(stmt: ast.stmt) -> int:
    deco = getattr(stmt, "decorator_list", None)
    if deco:
        return min(d.lineno for d in deco)
    return stmt.lineno


def _unit_id(path: str, level: Level, kind: SegmentKind | None, span: Span, text: str) -> str:
    norm = " ".join(text.split())[:64]
    key = f"{path}|{level.value}|{kind.value if kind else '-'}|{span.start_line}:{span.end_line}|{norm}"
    return hashlib.sha1(key.encode("utf-8")).hexdigest()[:16]


def _make_unit(
    path: str,
    lines: list[str],
    level: Level,
    kind: SegmentKind | None,
    span: Span,
    fallback: bool = False,
) -> CodeUnit:
    text = "\n".join(lines[span.start_line - 1 : span.end_line])
    return CodeUnit(
        id=_unit_id(path, level, kind, span, text),
        level=level,
        kind=kind,
        span=span,
        path=path,
        fallback=fallback,
    )


def _class_entries(cls: ast.ClassDef) -> list[_Entry]:
    entries: list[_Entry] = []
    run: list[ast.stmt] = []
    sig_start = _definition_start(cls)
    sig_pending = True

    def flush() -> None:
        nonlocal sig_pending
        if run:
            start = sig_start if sig_pending else run[0].lineno
            entries.append(_Entry(start, run[-1].end_lineno, SegmentKind.CLASS_HEADER))
            sig_pending = False
            run.clear()

    def open_member(member_start: int) -> None:
        nonlocal sig_pending
        if sig_pending and not run:
            entries.append(_Entry(sig_start, member_start - 1, SegmentKind.CLASS_HEADER))
            sig_pending = False
        else:
            flush()

    for stmt in cls.body:
        if isinstance(stmt, _DEF):
            open_member(_definition_start(stmt))
            entries.append(_Entry(_definition_start(stmt), stmt.end_lineno, SegmentKind.METHOD, stmt))
        elif isinstance(stmt, ast.ClassDef):
            open_member(_definition_start(stmt))
            entries.extend(_class_entries(stmt))
        else:
            run.append(stmt)
    flush()
    return entries


def _top_entries(module: ast.Module) -> list[_Entry]:
    entries: list[_Entry] = []
    run: list[ast.stmt] = []

    def flush() -> None:
        if run:
            entries.append(_Entry(run[0].lineno, run[-1].end_lineno, SegmentKind.FILE))
            run.clear()

    for stmt in module.body:
        if isinstance(stmt, _DEF):
            flush()
            entries.append(_Entry(_definition_start(stmt), stmt.end_lineno, SegmentKind.FUNCTION, stmt))
        elif isinstance(stmt, ast.ClassDef):
            flush()
            entries.extend(_class_entries(stmt))
        else:
            run.append(stmt)
    flush()
    return entries


def _partition_body(body: list[ast.stmt]) -> list[_Entry]:
    parts: list[_Entry] = []
    run: list[ast.stmt] = []

    def flush() -> None:
        if run:
            parts.append(_Entry(run[0].lineno, run[-1].end_lineno, SegmentKind.BLOCK))
            run.clear()

    for stmt in body:
        if isinstance(stmt, _DEF):
            flush()
            parts.append(_Entry(_definition_start(stmt), stmt.end_lineno, SegmentKind.FUNCTION))
        elif isinstance(stmt, ast.ClassDef):
            flush()
            parts.append(_Entry(_definition_start(stmt), stmt.end_lineno, SegmentKind.CLASS_HEADER))
        elif isinstance(stmt, _COMPOUND):
            flush()
            parts.append(_Entry(stmt.lineno, stmt.end_lineno, SegmentKind.BLOCK))
        else:
            run.append(stmt)
    flush()
    return parts


def _build_callable(path: str, lines: list[str], entry: _Entry, span: Span) -> list[CodeUnit]:
    parts = _partition_body(entry.stmt.body)
    if len(parts) == 1 and parts[0].kind is SegmentKind.BLOCK:
        return [_make_unit(path, lines, Level.FUNCTION, entry.kind, span)]

    func = _make_unit(path, lines, Level.FUNCTION, None, span)
    children: list[CodeUnit] = []
    prev = span.start_line - 1
    if parts and parts[0].kind is not SegmentKind.BLOCK:
        # the signature must stay inside some leaf; give it its own block
        sig_span = Span(span.start_line, parts[0].start - 1)
        children.append(_make_unit(path, lines, Level.BLOCK, SegmentKind.BLOCK, sig_span))
        prev = sig_span.end_line
    for j, part in enumerate(parts):
        start = prev + 1
        end = span.end_line if j == len(parts) - 1 else part.end
        prev = end
        children.append(
            _make_unit(path, lines, Level.BLOCK, part.kind, Span(start, end))
        )
    for child in children:
        child.parent_id = func.id
        func.child_ids.append(child.id)
    return [func, *children]


def reference_decompose(path: str, source: str) -> list[CodeUnit]:
    if source == "":
        return [_make_unit(path, [], Level.FILE, None, Span(1, 1))]

    lines = split_lines(source)
    total = len(lines)
    file_span = Span(1, total)

    try:
        module = ast.parse(source)
    except (SyntaxError, ValueError):
        file_unit = _make_unit(path, lines, Level.FILE, None, file_span)
        frag = _make_unit(
            path, lines, Level.FUNCTION, SegmentKind.FILE, file_span, fallback=True
        )
        frag.parent_id = file_unit.id
        file_unit.child_ids.append(frag.id)
        return [file_unit, frag]

    entries = _top_entries(module)
    if not entries:
        # comment- or blank-only file: one top-level fragment
        entries = [_Entry(1, total, SegmentKind.FILE)]

    file_unit = _make_unit(path, lines, Level.FILE, None, file_span)
    units: list[CodeUnit] = [file_unit]
    prev_end = 0
    for i, entry in enumerate(entries):
        start = prev_end + 1
        end = total if i == len(entries) - 1 else entry.end
        prev_end = end
        span = Span(start, end)
        if entry.stmt is None:
            built = [_make_unit(path, lines, Level.FUNCTION, entry.kind, span)]
        else:
            built = _build_callable(path, lines, entry, span)
        built[0].parent_id = file_unit.id
        file_unit.child_ids.append(built[0].id)
        units.extend(built)
    return units


# --- the comparison --------------------------------------------------------------


def assert_same_units(source: str) -> None:
    """Every field but ``facts``, which the reference predates and
    ``tests/test_role_facts.py`` checks."""
    expected = [dataclasses.asdict(u) for u in reference_decompose("pkg/m.py", source)]
    units = [dataclasses.replace(u, facts=None) for u in decompose("pkg/m.py", source)]
    assert [dataclasses.asdict(u) for u in units] == expected


FIXED_CASES = {
    "class opens with a method": "class A:\n    # about f\n    def f(self):\n        return 1\n    x = 2\n",
    "class opens with a nested class": (
        "class A:\n    class B:\n        y = 1\n\n        def g(self):\n            return 2\n    x = 3\n"
    ),
    "class opens with a decorated nested class": (
        "class A:\n    @dataclass\n    class B:\n        def g(self):\n            pass\n"
    ),
    "decorated class with decorated methods": (
        "@register\n@dataclass\nclass A(Base):\n    @property\n    def f(self):\n        return 1\n"
        "\n    size = 3\n\n    @staticmethod\n    @cache\n    def g():\n        if x:\n            y()\n"
        "        return 2\n"
    ),
    "one-block function": "def f(a):\n    b = a\n    return b\n",
    "one-compound function": "def f(a):\n    for x in a:\n        print(x)\n",
    "function opens with a nested def": NESTED_SOURCE.replace("    base = x + 1\n\n", ""),
    "function opens with a decorated nested def": (
        "# lead\n@outer_deco\ndef f():\n    @wraps(f)\n    def g():\n        pass\n    return g\n"
    ),
    "function opens with a nested class": "def f():\n    class C:\n        pass\n    return C\n",
    "function of one nested def": "async def f():\n    def g():\n        pass\n",
    "nested function": NESTED_SOURCE,
    "class": CLASS_SOURCE,
    "multi-block": MULTI_BLOCK_SOURCE,
    "comment-only": "# only\n\n# comments\n",
    "blank-only": "\n\n\n",
    "empty": "",
    "form feed": FORM_FEED_SOURCE,
    "form feed at top level": "x = 1\n\x0c\ny = 2\n",
    "unparseable": BROKEN_SOURCE,
    "unparseable null byte": "x = 1\x00\n",
    "CRLF breaks": "def f():\r\n    x = 1\r\n    if x:\r\n        pass\r\n",
    # the first seven lines normalise to fewer than 64 characters
    "short first lines": "def f():\n\n    a = 1\n\n    # b\n    c = 2\n\n    if a:\n" + "        c = a + c\n" * 6,
    "long first line": "def f():\n    x = " + " + ".join(f"value_{i}" for i in range(12)) + "\n    if x:\n        pass\n",
    # whitespace to ``str.split``, but not a line break to ``split_lines``
    "separator characters": (
        "def f():\n    a = 1  #\x1c\x1c\x1c\n    # \u2028 \u2028\n    b = 2  # \x1cword\x1c\n"
        "    if a:\n        return b\n    return a  # \u2028 last \x1c\n"
    ),
}


@pytest.mark.parametrize("source", FIXED_CASES.values(), ids=FIXED_CASES.keys())
def test_decompose_matches_reference_on_fixed_cases(source):
    assert_same_units(source)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(module_source())
def test_decompose_matches_reference_on_random_modules(source):
    assert_same_units(source)
