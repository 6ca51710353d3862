"""Hierarchical decomposition of source files into file/function/block units.

A source file becomes a three-level tree: one file unit at the root,
function-level units below it (function and method definitions, class
headers, and top-level statement fragments), and block-level units inside
functions whose bodies split into more than one piece.  Units with no
children are the *segments* -- the atomic pieces everything downstream
scores, retains, or drops.

The leaf spans of a file partition its lines exactly: blank lines and
comments attach to the unit that follows them (trailing ones to the last
unit), so re-emitting every leaf in document order reproduces the file
byte for byte.
"""

from __future__ import annotations

import ast
import hashlib
from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator


class Level(str, Enum):
    """Depth tier of a unit in the decomposition tree."""

    FILE = "file"
    FUNCTION = "function"
    BLOCK = "block"


class SegmentKind(str, Enum):
    """Kind tag carried by leaf segments."""

    METHOD = "method"
    FUNCTION = "function"
    CLASS_HEADER = "class_header"
    BLOCK = "block"
    FILE = "file"


class UnknownUnitError(KeyError):
    """Raised when an operation names a unit id absent from the tree."""

    def __init__(self, unit_id: str):
        super().__init__(unit_id)
        self.unit_id = unit_id

    def __str__(self) -> str:
        return f"unknown unit id: {self.unit_id}"


@dataclass(frozen=True)
class Span:
    """Inclusive 1-based line range."""

    start_line: int
    end_line: int

    def __post_init__(self) -> None:
        if self.start_line < 1 or self.end_line < self.start_line:
            raise ValueError(f"invalid span {self.start_line}..{self.end_line}")

    @property
    def line_count(self) -> int:
        return self.end_line - self.start_line + 1

    def contains_line(self, line: int) -> bool:
        return self.start_line <= line <= self.end_line

    def contains(self, other: "Span") -> bool:
        return self.start_line <= other.start_line and other.end_line <= self.end_line


@dataclass
class CodeUnit:
    """One node of the decomposition tree.

    ``kind`` is set for leaves only; internal units carry ``None``.
    ``source_line_count`` is the number of source lines the unit spans
    (0 for the file unit of an empty file).
    """

    id: str
    level: Level
    kind: SegmentKind | None
    span: Span
    path: str
    parent_id: str | None = None
    child_ids: list[str] = field(default_factory=list)
    source_line_count: int = 0
    meta: dict = field(default_factory=dict)

    @property
    def is_leaf(self) -> bool:
        return not self.child_ids


@dataclass
class UnitTree:
    """All units of one instance, indexed and totally ordered.

    ``unit_order`` is document order: files in input order, each file's
    units in preorder.  ``sources`` keeps the raw text per path so units
    can be re-rendered without touching the filesystem.

    Two per-path tables are built once, with the tree, so queries never
    rescan the whole tree or re-split a file:

    - ``lines`` holds each file's source split into lines; unit text is a
      slice of it.
    - A leaf index holds each file's childless units (leaf segments, or
      the bare file unit of an empty file) in document order with their
      start lines.  Because the leaves of a file partition its lines, a
      bisect finds the one leaf containing a line, and the units
      containing that line are exactly the leaf and its ancestors.  The
      innermost unit therefore wins, and on equal spans the later unit in
      document order wins: a fragment spanning a whole comment-only file
      beats its file unit.
    """

    instance_id: str
    files: list[CodeUnit]
    index: dict[str, CodeUnit]
    unit_order: list[str]
    sources: dict[str, str]
    order_pos: dict[str, int] = field(default_factory=dict)
    lines: dict[str, list[str]] = field(init=False, repr=False, compare=False)
    _leaf_starts: dict[str, list[int]] = field(init=False, repr=False, compare=False)
    _leaves: dict[str, list[CodeUnit]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.order_pos:
            self.order_pos = {uid: i for i, uid in enumerate(self.unit_order)}
        self.lines = {path: source.splitlines() for path, source in self.sources.items()}
        self._leaves = {}
        for uid in self.unit_order:
            unit = self.index[uid]
            if unit.is_leaf:
                self._leaves.setdefault(unit.path, []).append(unit)
        self._leaf_starts = {
            path: [unit.span.start_line for unit in leaves] for path, leaves in self._leaves.items()
        }

    def unit(self, unit_id: str) -> CodeUnit:
        try:
            return self.index[unit_id]
        except KeyError:
            raise UnknownUnitError(unit_id) from None

    def innermost_unit(self, path: str, line: int) -> CodeUnit | None:
        """The childless unit at ``path`` whose span contains ``line``."""
        pos = bisect_right(self._leaf_starts.get(path, []), line) - 1
        if pos < 0:
            return None
        unit = self._leaves[path][pos]
        return unit if unit.span.contains_line(line) else None


# --- decomposition -----------------------------------------------------

_COMPOUND = (ast.If, ast.For, ast.AsyncFor, ast.While, ast.Try, ast.With, ast.AsyncWith)
if hasattr(ast, "Match"):
    _COMPOUND = _COMPOUND + (ast.Match,)
_DEF = (ast.FunctionDef, ast.AsyncFunctionDef)


@dataclass
class _Raw:
    start: int
    end: int
    tag: str  # fragment | class_header | function | method
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


def _span_text(lines: list[str], span: Span) -> str:
    return "\n".join(lines[span.start_line - 1 : span.end_line])


def _make_unit(
    path: str,
    lines: list[str],
    level: Level,
    kind: SegmentKind | None,
    span: Span,
    line_count: int | None = None,
    meta: dict | None = None,
) -> CodeUnit:
    text = _span_text(lines, span)
    return CodeUnit(
        id=_unit_id(path, level, kind, span, text),
        level=level,
        kind=kind,
        span=span,
        path=path,
        source_line_count=span.line_count if line_count is None else line_count,
        meta=meta or {},
    )


def _class_entries(cls: ast.ClassDef) -> list[_Raw]:
    """Flatten a class into class_header runs and method entries.

    The first header run starts at the class signature (including
    decorators); if the body opens with a method, the signature gets a
    header entry of its own.
    """
    entries: list[_Raw] = []
    run: list[ast.stmt] = []
    sig_start = _definition_start(cls)
    sig_pending = True

    def flush() -> None:
        nonlocal sig_pending
        if run:
            start = sig_start if sig_pending else run[0].lineno
            entries.append(_Raw(start, run[-1].end_lineno, "class_header"))
            sig_pending = False
            run.clear()

    def open_member(member_start: int) -> None:
        nonlocal sig_pending
        if sig_pending and not run:
            entries.append(_Raw(sig_start, member_start - 1, "class_header"))
            sig_pending = False
        else:
            flush()

    for stmt in cls.body:
        if isinstance(stmt, _DEF):
            open_member(_definition_start(stmt))
            entries.append(_Raw(_definition_start(stmt), stmt.end_lineno, "method", stmt))
        elif isinstance(stmt, ast.ClassDef):
            open_member(_definition_start(stmt))
            entries.extend(_class_entries(stmt))
        else:
            run.append(stmt)
    flush()
    return entries


def _top_entries(module: ast.Module) -> list[_Raw]:
    # TODO: split import runs into their own fragments so imports can be
    # retained or dropped independently of neighbouring top-level code
    entries: list[_Raw] = []
    run: list[ast.stmt] = []

    def flush() -> None:
        if run:
            entries.append(_Raw(run[0].lineno, run[-1].end_lineno, "fragment"))
            run.clear()

    for stmt in module.body:
        if isinstance(stmt, _DEF):
            flush()
            entries.append(_Raw(_definition_start(stmt), stmt.end_lineno, "function", stmt))
        elif isinstance(stmt, ast.ClassDef):
            flush()
            entries.extend(_class_entries(stmt))
        else:
            run.append(stmt)
    flush()
    return entries


@dataclass
class _Part:
    start: int
    end: int
    tag: str  # block | def | class


def _partition_body(body: list[ast.stmt]) -> list[_Part]:
    """Split a function body at compound-statement and definition boundaries."""
    parts: list[_Part] = []
    run: list[ast.stmt] = []

    def flush() -> None:
        if run:
            parts.append(_Part(run[0].lineno, run[-1].end_lineno, "block"))
            run.clear()

    for stmt in body:
        if isinstance(stmt, _DEF):
            flush()
            parts.append(_Part(_definition_start(stmt), stmt.end_lineno, "def"))
        elif isinstance(stmt, ast.ClassDef):
            flush()
            parts.append(_Part(_definition_start(stmt), stmt.end_lineno, "class"))
        elif isinstance(stmt, _COMPOUND):
            flush()
            parts.append(_Part(stmt.lineno, stmt.end_lineno, "block"))
        else:
            run.append(stmt)
    flush()
    return parts


_PART_KIND = {
    "block": SegmentKind.BLOCK,
    "def": SegmentKind.FUNCTION,
    "class": SegmentKind.CLASS_HEADER,
}


def _build_callable(path: str, lines: list[str], raw: _Raw, span: Span) -> list[CodeUnit]:
    """Build a function/method unit; split its body into block leaves when
    it has more than one partition or contains nested definitions."""
    assert raw.stmt is not None
    kind = SegmentKind.METHOD if raw.tag == "method" else SegmentKind.FUNCTION
    parts = _partition_body(raw.stmt.body)
    if len(parts) == 1 and parts[0].tag == "block":
        return [_make_unit(path, lines, Level.FUNCTION, kind, span)]

    func = _make_unit(path, lines, Level.FUNCTION, None, span)
    children: list[CodeUnit] = []
    prev = span.start_line - 1
    if parts and parts[0].tag != "block":
        # the signature must stay inside some leaf; give it its own block
        sig_span = Span(span.start_line, parts[0].start - 1)
        children.append(_make_unit(path, lines, Level.BLOCK, SegmentKind.BLOCK, sig_span))
        prev = sig_span.end_line
    for j, part in enumerate(parts):
        start = prev + 1
        end = span.end_line if j == len(parts) - 1 else part.end
        prev = end
        children.append(
            _make_unit(path, lines, Level.BLOCK, _PART_KIND[part.tag], Span(start, end))
        )
    for child in children:
        child.parent_id = func.id
        func.child_ids.append(child.id)
    return [func, *children]


def decompose(path: str, source: str) -> list[CodeUnit]:
    """Decompose one source file into its unit tree (preorder list).

    The first element is always the file unit.  Unparseable sources fall
    back to a single file-kind leaf covering the whole file, flagged with
    ``meta['fallback']``.  Empty sources yield a bare file unit.
    """
    if source == "":
        return [_make_unit(path, [], Level.FILE, None, Span(1, 1), line_count=0)]

    lines = source.splitlines()
    total = len(lines)
    file_span = Span(1, total)

    try:
        module = ast.parse(source)
    except (SyntaxError, ValueError):
        file_unit = _make_unit(path, lines, Level.FILE, None, file_span)
        frag = _make_unit(
            path, lines, Level.FUNCTION, SegmentKind.FILE, file_span, meta={"fallback": True}
        )
        frag.parent_id = file_unit.id
        file_unit.child_ids.append(frag.id)
        return [file_unit, frag]

    entries = _top_entries(module)
    if not entries:
        # comment- or blank-only file: one top-level fragment
        entries = [_Raw(1, total, "fragment")]

    file_unit = _make_unit(path, lines, Level.FILE, None, file_span)
    units: list[CodeUnit] = [file_unit]
    prev_end = 0
    for i, entry in enumerate(entries):
        start = prev_end + 1
        end = total if i == len(entries) - 1 else entry.end
        prev_end = end
        span = Span(start, end)
        if entry.tag == "fragment":
            built = [_make_unit(path, lines, Level.FUNCTION, SegmentKind.FILE, span)]
        elif entry.tag == "class_header":
            built = [_make_unit(path, lines, Level.FUNCTION, SegmentKind.CLASS_HEADER, span)]
        else:
            built = _build_callable(path, lines, entry, span)
        built[0].parent_id = file_unit.id
        file_unit.child_ids.append(built[0].id)
        units.extend(built)
    return units


def build_tree(instance_id: str, files: Iterable[tuple[str, str]]) -> UnitTree:
    """Assemble the per-file decompositions into one indexed tree."""
    roots: list[CodeUnit] = []
    index: dict[str, CodeUnit] = {}
    order: list[str] = []
    sources: dict[str, str] = {}
    for path, source in files:
        if path in sources:
            raise ValueError(f"duplicate context file: {path}")
        units = decompose(path, source)
        roots.append(units[0])
        for unit in units:
            if unit.id in index:
                raise ValueError(f"unit id collision: {unit.id}")
            index[unit.id] = unit
            order.append(unit.id)
        sources[path] = source
    return UnitTree(instance_id, roots, index, order, sources)


# --- queries -----------------------------------------------------------


def leaf_segments(tree: UnitTree) -> list[CodeUnit]:
    """All leaf segments in document order (file units never count)."""
    return [
        tree.index[uid]
        for uid in tree.unit_order
        if tree.index[uid].is_leaf and tree.index[uid].level is not Level.FILE
    ]


def unit_text(tree: UnitTree, unit: CodeUnit | str) -> str:
    if isinstance(unit, str):
        unit = tree.unit(unit)
    return _span_text(tree.lines[unit.path], unit.span)


def ancestors(tree: UnitTree, unit_id: str) -> list[str]:
    chain: list[str] = []
    current = tree.unit(unit_id)
    while current.parent_id is not None:
        chain.append(current.parent_id)
        current = tree.unit(current.parent_id)
    return chain


def upward_closure(tree: UnitTree, included: Iterable[str]) -> frozenset[str]:
    """The included set plus every ancestor of each included unit."""
    closed: set[str] = set()
    for uid in included:
        if uid not in closed:
            closed.add(tree.unit(uid).id)
            closed.update(ancestors(tree, uid))
    return frozenset(closed)


def iter_subtree(tree: UnitTree, unit_id: str) -> Iterator[CodeUnit]:
    unit = tree.unit(unit_id)
    yield unit
    for child_id in unit.child_ids:
        yield from iter_subtree(tree, child_id)


def subtree_leaf_ids(tree: UnitTree, unit_id: str) -> frozenset[str]:
    """Leaf segments under (or at) the given unit."""
    return frozenset(
        u.id for u in iter_subtree(tree, unit_id) if u.is_leaf and u.level is not Level.FILE
    )


def enclosing_unit(tree: UnitTree, path: str, line: int, level: Level | None = None) -> CodeUnit | None:
    """Smallest unit at ``path`` containing ``line``; optionally pinned to a level."""
    unit = tree.innermost_unit(path, line)
    while unit is not None and level is not None and unit.level is not level:
        unit = tree.index[unit.parent_id] if unit.parent_id is not None else None
    return unit


def enclosing_leaf(tree: UnitTree, path: str, line: int) -> CodeUnit | None:
    """The leaf segment containing ``line`` at ``path``, if any."""
    unit = tree.innermost_unit(path, line)
    return unit if unit is not None and unit.level is not Level.FILE else None


def segment_records(tree: UnitTree) -> list[dict]:
    """JSON-ready dump rows for every leaf segment, in document order."""
    rows = []
    for seg in leaf_segments(tree):
        rows.append(
            {
                "id": seg.id,
                "path": seg.path,
                "kind": seg.kind.value if seg.kind else None,
                "start_line": seg.span.start_line,
                "end_line": seg.span.end_line,
                "line_count": seg.source_line_count,
            }
        )
    return rows
