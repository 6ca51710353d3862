"""Render a candidate context, replacing omitted units with placeholders.

A context is named by unit ids: it keeps those units and every unit
above them (``upward_closure``), so callers pass leaf sets as they are.
Included files are emitted in document order; every maximal run of
excluded sibling subtrees collapses into one ``# ... N lines omitted``
line at the run's indentation.  A unit's leaves partition its span and
siblings are adjacent, so N is the run's line range, from its first
unit's start line to its last unit's end line.  Fully included trees
reproduce the original sources byte for byte.  Excluded files are left
out entirely.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable

from .code_model import CodeUnit, UnitTree, split_lines, upward_closure
from .tokens import count_tokens

PLACEHOLDER_RE = re.compile(r"^(\s*)# \.\.\. (\d+) lines omitted$")

FILE_SEPARATOR = "### FILE: "


@dataclass(frozen=True)
class RenderedFile:
    path: str
    text: str


@dataclass
class RenderedContext:
    per_file: list[RenderedFile]
    total_tokens: int

    def dump_text(self) -> str:
        """Plain-text dump with a separator line per file."""
        parts: list[str] = []
        for rf in self.per_file:
            parts.append(f"{FILE_SEPARATOR}{rf.path}\n")
            parts.append(rf.text)
            if rf.text and not rf.text.endswith("\n"):
                parts.append("\n")
        return "".join(parts)


def _indent_of(lines: list[str], span_start: int, span_end: int) -> str:
    for i in range(span_start - 1, span_end):
        line = lines[i]
        if line.strip():
            return line[: len(line) - len(line.lstrip())]
    return ""


def placeholder_line(indent: str, omitted_lines: int) -> str:
    return f"{indent}# ... {omitted_lines} lines omitted\n"


def _emit(
    tree: UnitTree,
    unit: CodeUnit,
    included: frozenset[str],
    lines: list[str],
    out: list[str],
) -> None:
    if unit.is_leaf:
        out.extend(lines[unit.span.start_line - 1 : unit.span.end_line])
        return
    children = [tree.index[cid] for cid in unit.child_ids]
    i = 0
    while i < len(children):
        child = children[i]
        if child.id in included:
            _emit(tree, child, included, lines, out)
            i += 1
            continue
        # maximal run of excluded siblings becomes one placeholder
        while i < len(children) and children[i].id not in included:
            i += 1
        last = children[i - 1]
        indent = _indent_of(lines, child.span.start_line, last.span.end_line)
        out.append(placeholder_line(indent, last.span.end_line - child.span.start_line + 1))


def render(tree: UnitTree, ids: Iterable[str]) -> RenderedContext:
    """Render the context that keeps the units ``ids`` and every unit
    above them.  An unknown id raises ``UnknownUnitError``."""
    included = upward_closure(tree, ids)

    per_file: list[RenderedFile] = []
    for file_unit in tree.files:
        if file_unit.id not in included:
            continue
        lines = split_lines(tree.sources[file_unit.path], keepends=True)
        out: list[str] = []
        _emit(tree, file_unit, included, lines, out)
        per_file.append(RenderedFile(file_unit.path, "".join(out)))

    rendered = RenderedContext(per_file, 0)
    rendered.total_tokens = count_tokens(rendered.dump_text())
    return rendered


def render_full(tree: UnitTree) -> RenderedContext:
    """The uncompressed context: every unit included.

    A full render reproduces every source byte for byte, so this reads
    the sources as they are and counts their tokens; it emits no leaf
    and splits no file.
    """
    per_file = [RenderedFile(unit.path, tree.sources[unit.path]) for unit in tree.files]
    rendered = RenderedContext(per_file, 0)
    rendered.total_tokens = count_tokens(rendered.dump_text())
    return rendered
