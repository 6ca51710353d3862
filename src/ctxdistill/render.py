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

A file's text is its kept lines from the tree's line table
(``UnitTree.lines``), joined by ``\\n``, so a render splits no source; it
ends in a line break where the source does, and after a final
placeholder.  The table splits at ``\\r\\n`` and ``\\r`` too and keeps no
break, so a source holding ``\\r`` takes the keep-ends split
(``split_lines(..., keepends=True)``) to come out byte for byte.  Only a
source passed to ``build_tree`` in code can hold one: every input file
is read by ``priority.read_input``, with universal newlines.
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
        code = line.lstrip()
        if code:
            return line[: len(line) - len(code)]
    return ""


def placeholder_line(indent: str, omitted_lines: int, eol: str = "\n") -> str:
    return f"{indent}# ... {omitted_lines} lines omitted{eol}"


def _emit(
    tree: UnitTree,
    unit: CodeUnit,
    included: frozenset[str],
    lines: list[str],
    out: list[str],
    eol: str,
) -> None:
    """Append ``unit``'s slices of ``lines`` to ``out``, and a placeholder
    ending in ``eol`` per run of excluded children; an included leaf
    child is emitted without a call."""
    index, child_ids = tree.index, unit.child_ids
    i = 0
    while i < len(child_ids):
        child = index[child_ids[i]]
        i += 1
        if child.id in included:
            if child.child_ids:
                _emit(tree, child, included, lines, out, eol)
            else:
                out.extend(lines[child.span.start_line - 1 : child.span.end_line])
            continue
        # maximal run of excluded siblings becomes one placeholder
        while i < len(child_ids) and child_ids[i] not in included:
            i += 1
        start, end = child.span.start_line, index[child_ids[i - 1]].span.end_line
        out.append(placeholder_line(_indent_of(lines, start, end), end - start + 1, eol))


def _render_file(tree: UnitTree, file_unit: CodeUnit, included: frozenset[str]) -> str:
    """One included file's text.  The last leaf is emitted exactly when it
    is included, since the closure holds its ancestors; otherwise a
    placeholder, which ends in a line break, comes last."""
    source = tree.sources[file_unit.path]
    out: list[str] = []
    if "\r" in source:
        _emit(tree, file_unit, included, split_lines(source, keepends=True), out, "\n")
        return "".join(out)
    _emit(tree, file_unit, included, tree.lines[file_unit.path], out, "")
    if not out:  # an empty file
        return ""
    text = "\n".join(out)
    last_leaf = tree.leaves[tree.leaf_slice[file_unit.id][1] - 1]
    return text + "\n" if last_leaf.id not in included or source.endswith("\n") else text


def render(tree: UnitTree, ids: Iterable[str]) -> RenderedContext:
    """Render the context that keeps the units ``ids`` and every unit
    above them.  An unknown id raises ``UnknownUnitError``."""
    included = upward_closure(tree, ids)
    per_file = [
        RenderedFile(file_unit.path, _render_file(tree, file_unit, included))
        for file_unit in tree.files
        if file_unit.id in included
    ]
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
