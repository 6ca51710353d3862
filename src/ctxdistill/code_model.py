"""Hierarchical decomposition of source files into file/function/block units.

A source file becomes a three-level tree: one file unit at the root,
function-level units below it (function and method definitions, class
header runs, and runs of top-level statements), and block-level units
inside functions whose bodies split into more than one piece.  Units with
no children are the *segments* -- the atomic pieces everything downstream
scores, retains, or drops.

The leaf spans of a file partition its lines exactly, by the grouping and
partition rules stated on ``decompose``, so re-emitting every leaf in
document order reproduces the file byte for byte.
"""

from __future__ import annotations

import ast
import gc
import hashlib
import re
import threading
import warnings
from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from typing import Iterable, Sequence


_LINE_RE = re.compile(r"[^\r\n]*(?:\r\n?|\n)|[^\r\n]+")


def split_lines(text: str, keepends: bool = False) -> list[str]:
    """Split ``text`` into lines the way ``ast`` numbers them: only at
    ``\\n``, ``\\r\\n`` and ``\\r``, so a form feed stays inside its line.
    A break that ends the text starts no line."""
    if keepends:
        return _LINE_RE.findall(text)
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


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


@dataclass(frozen=True, slots=True)
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


_LITERALISH = frozenset(
    (ast.Constant, ast.List, ast.Tuple, ast.Set, ast.Dict, ast.Name, ast.Attribute, ast.UnaryOp)
)
_NO_NAMES: frozenset[str] = frozenset()


@dataclass(slots=True)
class RoleFacts:
    """What the role rules read of a segment's own code."""

    declaration: bool
    defined: frozenset[str]


def role_facts(stmts: Sequence[ast.stmt]) -> RoleFacts:
    """The role facts of code whose top-level statements are ``stmts``:
    whether at least half of them declare, as an annotated assignment or
    a literal-ish value assigned to names and attributes only does, and
    the names its definitions and assignments bind.  One pass, on exact
    node types: ``ast.parse`` makes no subclasses."""
    decls = 0
    names: set[str] = set()
    for stmt in stmts:
        kind = type(stmt)
        if kind is ast.Assign:
            simple = True
            for target in stmt.targets:
                if type(target) is ast.Name:
                    names.add(target.id)
                elif type(target) is not ast.Attribute:
                    simple = False
            if simple and type(stmt.value) in _LITERALISH:
                decls += 1
        elif kind is ast.AnnAssign:
            decls += 1
            if type(stmt.target) is ast.Name:
                names.add(stmt.target.id)
        elif kind in _DEFINITION:
            names.add(stmt.name)
    return RoleFacts(0 < len(stmts) <= 2 * decls, frozenset(names) if names else _NO_NAMES)


@dataclass(slots=True)
class CodeUnit:
    """One node of the decomposition tree.

    ``kind`` and ``facts`` are set for leaves only; internal units carry
    ``None``.  A leaf's ``facts`` are its role facts, taken from its
    file's parse as ``build_tree`` states.  The unit spans
    ``span.line_count`` source lines, except the file unit of an empty
    file, which has no lines and no leaves.  ``fallback`` marks the one
    leaf of a file that does not parse.
    """

    id: str
    level: Level
    kind: SegmentKind | None
    span: Span
    path: str
    parent_id: str | None = None
    child_ids: list[str] = field(default_factory=list)
    fallback: bool = False
    facts: RoleFacts | None = None

    @property
    def is_leaf(self) -> bool:
        return not self.child_ids


@dataclass
class UnitTree:
    """All units of one instance, indexed and totally ordered.

    ``unit_order`` is document order, the order ``index`` was filled in:
    files in input order, each file's units in preorder.  ``sources``
    keeps the raw text per path so units can be re-rendered without
    touching the filesystem.

    Tables built once, with the tree, so queries never walk subtrees,
    rescan the tree or re-split a file:

    - ``lines`` holds each file's source split into lines: the one split
      ``decompose`` made of it, handed over by ``build_tree``, the only
      constructor.  Unit text is a slice of it.
    - ``leaves`` holds every leaf segment in document order, and
      ``leaf_slice`` maps each unit id to the ``(lo, hi)`` slice of
      ``leaves`` under it.  Preorder keeps a subtree's leaves contiguous,
      so that slice is exactly the subtree's leaves.  The file unit of an
      empty file has an empty slice.
    - Because the leaves of a file partition its lines, a bisect of the
      leaf start lines within the file's slice finds the one leaf
      containing a line, and the units containing that line are exactly
      the leaf and its ancestors.  The innermost unit therefore wins, and
      on equal spans the later unit in document order wins: a fragment
      spanning a whole comment-only file beats its file unit.
    """

    instance_id: str
    files: list[CodeUnit]
    index: dict[str, CodeUnit]
    sources: dict[str, str]
    lines: dict[str, list[str]] = field(repr=False, compare=False)
    unit_order: list[str] = field(init=False)
    order_pos: dict[str, int] = field(init=False, repr=False, compare=False)
    leaves: list[CodeUnit] = field(init=False, repr=False, compare=False)
    leaf_slice: dict[str, tuple[int, int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.unit_order = list(self.index)
        self.order_pos = {uid: i for i, uid in enumerate(self.unit_order)}
        self.leaves = []
        self.leaf_slice = {}
        # in preorder a unit's leaves follow it: a leaf's slice is itself,
        # an internal unit's starts here
        for uid in self.unit_order:
            unit = self.index[uid]
            lo = len(self.leaves)
            if unit.is_leaf and unit.level is not Level.FILE:
                self.leaves.append(unit)
            self.leaf_slice[uid] = (lo, len(self.leaves))
        # reversed preorder meets a unit's last child before the unit, whose
        # slice ends where that child's does
        for uid in reversed(self.unit_order):
            child_ids = self.index[uid].child_ids
            if child_ids:
                self.leaf_slice[uid] = (self.leaf_slice[uid][0], self.leaf_slice[child_ids[-1]][1])
        self._leaf_starts = [unit.span.start_line for unit in self.leaves]
        self._file_units = {unit.path: unit for unit in self.files}

    def unit(self, unit_id: str) -> CodeUnit:
        try:
            return self.index[unit_id]
        except KeyError:
            raise UnknownUnitError(unit_id) from None

    def leaves_under(self, unit_id: str) -> list[CodeUnit]:
        """Leaf segments under (or at) a unit, in document order."""
        lo, hi = self.leaf_slice[self.unit(unit_id).id]
        return self.leaves[lo:hi]

    def innermost_unit(self, path: str, line: int) -> CodeUnit | None:
        """The leaf at ``path`` whose span contains ``line``, or the file
        unit of an empty file."""
        file_unit = self._file_units.get(path)
        if file_unit is None:
            return None
        lo, hi = self.leaf_slice[file_unit.id]
        pos = bisect_right(self._leaf_starts, line, lo, hi) - 1
        unit = self.leaves[pos] if pos >= lo else file_unit
        return unit if unit.span.contains_line(line) else None


# --- decomposition -----------------------------------------------------

_COMPOUND = (ast.If, ast.For, ast.AsyncFor, ast.While, ast.Try, ast.With, ast.AsyncWith)
if hasattr(ast, "Match"):
    _COMPOUND = _COMPOUND + (ast.Match,)
_DEF = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFINITION = (*_DEF, ast.ClassDef)
_BLOCK_KINDS = {
    **dict.fromkeys(_DEF, SegmentKind.FUNCTION),
    ast.ClassDef: SegmentKind.CLASS_HEADER,
    **dict.fromkeys(_COMPOUND, SegmentKind.BLOCK),
}


def _definition_start(stmt: ast.stmt) -> int:
    deco = getattr(stmt, "decorator_list", None)
    if deco:
        return min(d.lineno for d in deco)
    return stmt.lineno


_TAGS = {None: "-", **{member: member.value for enum in (Level, SegmentKind) for member in enum}}
_ID_CHARS = 64
_ID_LINES = 4


def _group(stmts: list[ast.stmt], run_kind: SegmentKind, own) -> list[tuple]:
    """The entries of a body: ``own(stmt)`` returns the entries a statement
    forms by itself, or ``None`` if it joins the run of plain statements
    around it; each run becomes one ``run_kind`` entry.

    An entry is ``(start, end, kind, stmt, stmts)``: a line range, the
    segment kind it becomes, the function whose body may split further
    (set only for top-level functions and methods) and the statements
    its leaf's ``facts`` are read from, as ``build_tree`` states."""
    entries: list[tuple] = []
    run: list[ast.stmt] = []
    for stmt in stmts:
        formed = own(stmt)
        if formed is None:
            run.append(stmt)
            continue
        if run:
            entries.append((run[0].lineno, run[-1].end_lineno, run_kind, None, run))
            run = []
        entries += formed
    if run:
        entries.append((run[0].lineno, run[-1].end_lineno, run_kind, None, run))
    return entries


def _signed(node: ast.stmt, entries: list[tuple], kind: SegmentKind) -> list[tuple]:
    """Make the entries of ``node``'s body cover its signature, decorators
    included: a body that opens with a definition gets a ``kind`` entry
    for the signature, otherwise its first entry is extended to it.  A
    bare signature does not parse on its own; the extended entry parses
    as ``node``."""
    start = _definition_start(node)
    if isinstance(node.body[0], _DEFINITION):
        entries.insert(0, (start, entries[0][0] - 1, kind, None, ()))
    else:
        _, end, first_kind, stmt, _ = entries[0]
        entries[0] = (start, end, first_kind, stmt, [node])
    return entries


def _definitions(def_kind: SegmentKind, stmt: ast.stmt) -> list[tuple] | None:
    """``own`` for module and class bodies: a function is one ``def_kind``
    entry that may split further; a class flattens into its header runs
    and its members."""
    if isinstance(stmt, _DEF):
        return [(_definition_start(stmt), stmt.end_lineno, def_kind, stmt, [stmt])]
    if isinstance(stmt, ast.ClassDef):
        return _signed(stmt, _group(stmt.body, SegmentKind.CLASS_HEADER, _member), SegmentKind.CLASS_HEADER)
    return None


_top_level = partial(_definitions, SegmentKind.FUNCTION)
_member = partial(_definitions, SegmentKind.METHOD)


def _block(stmt: ast.stmt) -> list[tuple] | None:
    """``own`` for function bodies: a nested definition or a compound
    statement is one block; nested bodies do not split further."""
    kind = _BLOCK_KINDS.get(type(stmt))
    return None if kind is None else [(_definition_start(stmt), stmt.end_lineno, kind, None, [stmt])]


def _place(add, entries: list[tuple], level: Level, first: int, last: int, parent: CodeUnit) -> None:
    """The units of ``entries`` over lines ``first..last``, made by ``add``
    in preorder, by the partition rule.  A module-level function, so that
    no closure of ``_decompose`` refers to itself: a tree is then freed
    by reference counting alone."""
    final = len(entries) - 1
    for i, (_, end, kind, stmt, stmts) in enumerate(entries):
        if i == final:
            end = last
        parts = ()
        if stmt is not None:
            parts = _signed(stmt, _group(stmt.body, SegmentKind.BLOCK, _block), SegmentKind.BLOCK)
        if len(parts) > 1:
            _place(add, parts, Level.BLOCK, first, end, add(Level.FUNCTION, None, first, end, parent))
        else:
            add(level, kind, first, end, parent, stmts)
        first = end + 1


_PARSE_LOCK = threading.Lock()


def parse_source(source: str) -> ast.Module:
    """``ast.parse`` with warnings suppressed, so that an ``error`` filter
    cannot turn an invalid escape sequence into a ``SyntaxError``, nor
    Python 3.12 print it.  ``catch_warnings`` swaps the process-wide
    filters, which is not thread-safe, so a lock serialises the parses."""
    with _PARSE_LOCK, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return ast.parse(source)


def decompose(path: str, source: str) -> list[CodeUnit]:
    """Decompose one source file into its unit tree (preorder list).

    The first element is always the file unit.  A file without statements
    is one file-kind leaf over the whole file, and so is an unparseable
    one, flagged as its ``fallback``.  Empty sources yield a bare
    file unit.

    Grouping: in a module, class or function body each statement either
    forms units of its own -- a definition, or in a function a compound
    statement -- or joins the run of plain statements around it, and each
    run becomes one unit.  A class flattens into its header runs and its
    members; a top-level function or method whose body, signature
    included, forms more than one block becomes a function unit over its
    block leaves.  The units of a class or function body also cover its
    signature: a body that opens with a definition gets a unit for the
    bare signature, otherwise its first unit is extended to it.

    Partition: each unit runs from the line after the previous sibling
    ends to the last line of its own statements (or signature), and the
    last one to the end of its parent, so blank lines and comments go to
    the unit after them and trailing ones to the last unit.  The leaf
    spans of a file therefore partition its lines.

    A unit's id hashes its path, level, kind, span and the first 64
    characters of its text with each whitespace run made one space.

    Each leaf carries its ``facts``, as ``build_tree`` states them.  The
    file is split into lines once; ``build_tree`` keeps that split as the
    tree's ``lines`` table.
    """
    return _decompose(path, source)[0]


def _decompose(path: str, source: str) -> tuple[list[CodeUnit], list[str]]:
    """``decompose``'s units, and the lines it split the source into.

    ``add`` makes each unit, and a leaf's ``facts`` from its ``stmts``.
    Its id text normalises the span's first ``_ID_LINES`` lines, twice as
    many while they give fewer than 64 characters, and at most the whole
    span: lines are joined by a line break, which is whitespace, so no
    word spans two lines."""
    lines = split_lines(source) if source else []
    units: list[CodeUnit] = []

    def add(level, kind, start, end, parent, stmts=None) -> CodeUnit:
        count = _ID_LINES
        while True:
            stop = min(start - 1 + count, end)
            norm = " ".join("\n".join(lines[start - 1 : stop]).split())
            if len(norm) >= _ID_CHARS or stop == end:
                break
            count *= 2
        key = f"{path}|{_TAGS[level]}|{_TAGS[kind]}|{start}:{end}|{norm[:_ID_CHARS]}"
        unit_id = hashlib.sha1(key.encode("utf-8")).hexdigest()[:16]
        span = Span(start, end)
        unit = CodeUnit(unit_id, level, kind, span, path, None if parent is None else parent.id)
        if parent is not None:
            parent.child_ids.append(unit_id)
        units.append(unit)
        if stmts is not None:
            unit.facts = role_facts(stmts)
        return unit

    if not lines:
        add(Level.FILE, None, 1, 1, None)
        return units, lines
    try:
        body = parse_source(source).body
    except (SyntaxError, ValueError):
        body = None
    # TODO: split import runs into their own fragments so imports can be
    # retained or dropped independently of neighbouring top-level code
    last = len(lines)
    entries = _group(body or [], SegmentKind.FILE, _top_level) or [(1, last, SegmentKind.FILE, None, ())]
    _place(add, entries, Level.FUNCTION, 1, last, add(Level.FILE, None, 1, last, None))
    if body is None:
        units[1].fallback = True
    return units, lines


def build_tree(instance_id: str, files: Iterable[tuple[str, str]]) -> UnitTree:
    """Assemble the per-file decompositions into one indexed tree, whose
    ``lines`` table holds the lines each ``decompose`` split its file into.

    Every leaf's ``facts`` are ``role_facts`` of the leaf's top-level
    statements, taken from its file's parse.  Per leaf:

    - a run of plain statements: its statements
    - a definition or compound block: ``[stmt]``
    - a block or class header run that carries a function's or class's
      signature: ``[the def or class node]``
    - a bare signature, the leaf before a body that opens with a
      definition: ``[]``
    - the leaf of a file without statements, or of an unparseable file:
      ``[]``

    A standalone ``ast.parse`` of a leaf's text (dedented, inside a
    function if need be) sees the same statements, except in a file with
    a form feed (the tokenizer resets its column count at one, which
    ``textwrap.dedent`` does not know), in an unparseable file, and for a
    leaf whose last non-blank line ends in a backslash.  There the file's
    parse is the one that counts.

    The cyclic garbage collector is paused while the tree is built, as
    its passes over the parses' many young objects would find nothing to
    free: AST nodes hold no reference to their parents, units name each
    other by id, and no function that builds them refers to itself, so
    reference counting frees all of it.  The pause defers a collection,
    it does not save one: the objects the tree keeps still count towards
    the next young-generation collection, which comes soon after
    ``build_tree`` returns and scans the new tree.  When ``build_tree``
    returns or raises, the collector is enabled again if it was enabled
    on entry."""
    roots: list[CodeUnit] = []
    index: dict[str, CodeUnit] = {}
    sources: dict[str, str] = {}
    lines: dict[str, list[str]] = {}
    collecting = gc.isenabled()
    gc.disable()
    try:
        for path, source in files:
            if path in sources:
                raise ValueError(f"duplicate context file: {path}")
            units, lines[path] = _decompose(path, source)
            roots.append(units[0])
            for unit in units:
                if unit.id in index:
                    raise ValueError(f"unit id collision: {unit.id}")
                index[unit.id] = unit
            sources[path] = source
        return UnitTree(instance_id, roots, index, sources, lines)
    finally:
        if collecting:
            gc.enable()


# --- queries -----------------------------------------------------------


def unit_text(tree: UnitTree, unit: CodeUnit) -> str:
    span = unit.span
    return "\n".join(tree.lines[unit.path][span.start_line - 1 : span.end_line])


def upward_closure(tree: UnitTree, included: Iterable[str]) -> frozenset[str]:
    """The included set plus every ancestor of each included unit.  An
    unknown id raises ``UnknownUnitError``.  Each walk up stops at the
    first unit already closed, whose ancestors are closed with it."""
    closed: set[str] = set()
    for uid in included:
        unit = tree.unit(uid)
        while unit.id not in closed:
            closed.add(unit.id)
            if unit.parent_id is None:
                break
            unit = tree.index[unit.parent_id]
    return frozenset(closed)


def enclosing_unit(tree: UnitTree, path: str, line: int, level: Level | None = None) -> CodeUnit | None:
    """Smallest unit at ``path`` containing ``line``; optionally pinned to a level."""
    unit = tree.innermost_unit(path, line)
    while unit is not None and level is not None and unit.level is not level:
        unit = tree.index[unit.parent_id] if unit.parent_id is not None else None
    return unit


def segment_records(tree: UnitTree) -> list[dict]:
    """JSON-ready dump rows for every leaf segment, in document order."""
    rows = []
    for seg in tree.leaves:
        rows.append(
            {
                "id": seg.id,
                "path": seg.path,
                "kind": seg.kind.value,
                "start_line": seg.span.start_line,
                "end_line": seg.span.end_line,
                "line_count": seg.span.line_count,
            }
        )
    return rows
