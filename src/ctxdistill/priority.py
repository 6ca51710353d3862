"""Priority scores that bias the search toward fix-relevant units, the
readers every input file and JSON value goes through, the guard every
output file is written under, and the one HTTP exchange of the remote
clients.

A unit's score combines three signals: membership of its file in the
gold patch, the (log-dampened) number of test-covered lines inside its
span, and the fraction of the patch's identifier vocabulary it mentions.
"""

from __future__ import annotations

import json
import keyword
import math
import re
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from .code_model import CodeUnit, UnitTree, split_lines, unit_text

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_KEYWORDS = frozenset(keyword.kwlist)
_HUNK_RE = re.compile(r"^@@ -(\d+)(?:,(\d+))? \+\d+(?:,(\d+))? @@")
_JSON_TYPES = {dict: "object", list: "array", str: "string", int: "integer", float: "number", bool: "boolean"}
_REQUIRED = object()


def json_value(value: object, kind: type, name: str):
    """``value`` if its JSON type is exactly ``kind``, else ``ValueError``
    naming ``name``.  An integer is also a number; a boolean is neither,
    and nor is the NaN or infinity ``json`` reads from ``NaN``,
    ``Infinity`` or ``1e999``.  Nothing is coerced: ``bool("false")`` is
    ``True`` and ``int(2.7)`` is 2."""
    if kind is float and type(value) is float and not math.isfinite(value):
        raise ValueError(f"{name} must be a finite JSON number, not {value!r}")
    if type(value) is kind or (kind is float and type(value) is int):
        return value
    raise ValueError(f"{name} must be a JSON {_JSON_TYPES[kind]}, not {value!r}")


def json_field(data: dict, key: str, kind: type, default: object = _REQUIRED):
    """``data[key]`` read by :func:`json_value`.  A missing key reads as
    ``default``, and so does a null when ``default`` is ``None``; without
    a default the key is required."""
    if type(data) is not dict:
        raise ValueError(f"expected a JSON object with {key}, not {data!r}")
    if key in data and (data[key] is not None or default is not None):
        return json_value(data[key], kind, key)
    if default is _REQUIRED:
        raise ValueError(f"missing required key: {key}")
    return default


def read_input(path: str | Path, what: str, error: type[Exception]) -> str:
    """The text of the input file ``path``, read as UTF-8 with universal
    newlines; every input file is read here.  A file that is missing,
    cannot be read or is not UTF-8 raises ``error`` naming it as ``what``."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except FileNotFoundError:
        raise error(f"{what} not found: {path}") from None
    except UnicodeDecodeError as exc:
        raise error(f"{what} {path} is not UTF-8: {exc}") from exc
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc


def read_json(path: str | Path, what: str, error: type[Exception]) -> object:
    """The JSON value in the input file ``path``; :func:`read_input`'s
    errors, and ``error`` when the text is not JSON."""
    try:
        return json.loads(read_input(path, what, error))
    except json.JSONDecodeError as exc:
        raise error(f"{what} {path} is not valid JSON: {exc}") from exc


class OutputError(OSError):
    """An output file could not be written; the message names it."""


@contextmanager
def writing(path: str | Path, what: str) -> Iterator[Path]:
    """``path``, its directory made, for a block that writes it; every
    output file is written in one.  An ``OSError`` in the block raises
    ``OutputError`` naming the file as ``what``."""
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        yield path
    except OSError as exc:
        raise OutputError(f"cannot write {what} {path}: {exc}") from exc


def http_json(url: str, payload: dict | None, headers: dict, timeout: float) -> object:
    """The JSON reply to a ``POST`` of ``payload``, or to a ``GET`` when
    ``payload`` is ``None``; every HTTP request is made here.  An error
    status raises ``requests.HTTPError``, whose ``response.status_code``
    holds it, and any other failure another ``requests.RequestException``."""
    import requests

    method = "GET" if payload is None else "POST"
    response = requests.request(method, url, json=payload, headers=headers, timeout=timeout)
    response.raise_for_status()
    return response.json()


class PatchFormatError(ValueError):
    """Malformed unified diff; carries the offending 1-based line number."""

    def __init__(self, message: str, line_number: int | None = None):
        super().__init__(message if line_number is None else f"line {line_number}: {message}")
        self.line_number = line_number


@dataclass(frozen=True)
class PatchInfo:
    """Files touched by a patch and the identifiers its hunks mention."""

    files: frozenset[str]
    identifiers: frozenset[str]

    @classmethod
    def empty(cls) -> "PatchInfo":
        return cls(frozenset(), frozenset())


@dataclass
class CoverageReport:
    """Covered line numbers per repo-relative path, each path's numbers
    ascending and distinct, so the covered lines inside a span are
    counted by bisection.  Any iterable of numbers is accepted and
    normalised."""

    lines: dict[str, list[int]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.lines = {path: sorted(set(nums)) for path, nums in self.lines.items()}

    @classmethod
    def empty(cls) -> "CoverageReport":
        return cls({})

    @classmethod
    def from_json(cls, data: dict) -> "CoverageReport":
        """Read ``{"files": {path: [line, ...]}}``.  A line must be a JSON
        integer >= 1, as a fault line must: ``int()`` would read ``2.7``
        as 2 and ``true`` as 1."""
        files = data.get("files", {}) if isinstance(data, dict) else None
        if not isinstance(files, dict):
            raise ValueError("coverage report needs a files object")
        for path, nums in files.items():
            if not isinstance(nums, list) or not all(type(n) is int and n >= 1 for n in nums):
                raise ValueError(f"coverage for {path} must be a list of integer lines >= 1")
        return cls(files)

    @classmethod
    def load(cls, path: str | Path) -> "CoverageReport":
        """The report in ``path``; any fault in it raises ``ValueError`` naming it."""
        data = read_json(path, "coverage report", ValueError)
        try:
            return cls.from_json(data)
        except ValueError as exc:
            raise ValueError(f"coverage report {path}: {exc}") from exc


@dataclass(frozen=True)
class PriorityWeights:
    """Relative importance of the patch, coverage, and symbol signals."""

    w_p: float = 2.0
    w_c: float = 1.0
    w_s: float = 1.0

    def __post_init__(self) -> None:
        if self.w_p < 0 or self.w_c < 0 or self.w_s < 0:
            raise ValueError("priority weights must be non-negative")
        if self.w_p == 0 and self.w_c == 0 and self.w_s == 0:
            raise ValueError("priority weights must not all be zero")


def lex_identifiers(text: str) -> frozenset[str]:
    """Identifier tokens in ``text``, keywords excluded."""
    return frozenset(_IDENT_RE.findall(text)) - _KEYWORDS


def identifiers_in(text: str, names: frozenset[str]) -> frozenset[str]:
    """``lex_identifiers(text) & names`` for ``names`` without keywords,
    without building the text's whole identifier set."""
    return names.intersection(_IDENT_RE.findall(text))


@dataclass
class Hunk:
    """One ``@@`` hunk: its old-side start and length, its body lines,
    each prefixed with ``" "``, ``"+"`` or ``"-"``, and whether a
    ``\\ No newline at end of file`` marker ends its new side."""

    old_start: int
    old_len: int
    lines: list[str] = field(default_factory=list)
    new_missing_newline: bool = False


@dataclass
class FilePatch:
    """One file's section of a unified diff.

    ``old_path`` and ``new_path`` come from the ``---`` and ``+++`` lines
    and are ``None`` for ``/dev/null``.  ``named`` lists every path the
    section's header lines name, ``diff --git`` included.
    """

    old_path: str | None = None
    new_path: str | None = None
    named: list[str] = field(default_factory=list)
    hunks: list[Hunk] = field(default_factory=list)


def _clean_path(raw: str) -> str | None:
    path = raw.split("\t")[0].strip()
    if path.startswith(("a/", "b/")):
        path = path[2:]
    return path if path and path != "/dev/null" else None


def parse_diff(patch_text: str) -> list[FilePatch]:
    """Split a unified diff into per-file sections with their hunks.

    A section starts at ``diff --git`` and at any ``---``/``+++`` line
    that follows a hunk.  While a hunk still owes old or new lines
    against its ``@@`` lengths, a ``---``/``+++`` line is a removed or
    added body line, not a header.  A hunk body ends at the first line
    that is not context, an edit, blank or a ``\\`` note; later lines
    up to the next header are ignored.
    """
    sections: list[FilePatch] = []
    hunk: Hunk | None = None
    old_owed = new_owed = 0
    for lineno, line in enumerate(split_lines(patch_text), start=1):
        if line.startswith("diff --git "):
            hunk = None
            sections.append(FilePatch())
            sections[-1].named.extend(p for p in map(_clean_path, line.split()[2:4]) if p)
        elif line.startswith(("--- ", "+++ ")) and (hunk is None or max(old_owed, new_owed) <= 0):
            hunk = None
            if not sections or sections[-1].hunks:
                sections.append(FilePatch())
            path = _clean_path(line[4:])
            if line[0] == "-":
                sections[-1].old_path = path
            else:
                sections[-1].new_path = path
            if path:
                sections[-1].named.append(path)
        elif line.startswith("@@"):
            m = _HUNK_RE.match(line)
            if not m:
                raise PatchFormatError("malformed hunk header", lineno)
            hunk = Hunk(int(m.group(1)), int(m.group(2)) if m.group(2) is not None else 1)
            old_owed = hunk.old_len
            new_owed = int(m.group(3)) if m.group(3) is not None else 1
            if not sections:
                sections.append(FilePatch())
            sections[-1].hunks.append(hunk)
        elif hunk is not None:
            if line.startswith((" ", "+", "-")) or not line:
                body = line or " "  # a blank line is context with its prefix stripped
                hunk.lines.append(body)
                old_owed -= body[0] != "+"
                new_owed -= body[0] != "-"
            elif line.startswith("\\"):
                # the marker applies to the body line before it
                tag = hunk.lines[-1][0] if hunk.lines else ""
                hunk.new_missing_newline |= tag in (" ", "+")
            else:
                hunk = None

    if not any(s.hunks for s in sections):
        raise PatchFormatError("no hunks found in patch text")
    return sections


def parse_patch(patch_text: str) -> PatchInfo:
    """Extract touched files and changed-line identifiers from a unified diff."""
    sections = parse_diff(patch_text)
    identifiers: set[str] = set()
    for hunk in (h for s in sections for h in s.hunks):
        for line in hunk.lines:
            if line[0] in "+-":
                identifiers.update(lex_identifiers(line[1:]))
    return PatchInfo(frozenset(p for s in sections for p in s.named), frozenset(identifiers))


def covered_line_count(unit: CodeUnit, coverage: CoverageReport) -> int:
    lines = coverage.lines.get(unit.path)
    if not lines:
        return 0
    span = unit.span
    return bisect_right(lines, span.end_line) - bisect_left(lines, span.start_line)


def _scorer(patch: PatchInfo, coverage: CoverageReport, weights: PriorityWeights):
    """The composite priority of a unit whose text mentions the patch
    identifiers ``matched``, as ``score(unit, matched)``: the one score
    formula, with the weights and the vocabulary size read once."""
    files = patch.files
    w_p, w_c, w_s = weights.w_p, weights.w_c, weights.w_s
    vocabulary = len(patch.identifiers)

    def score(unit: CodeUnit, matched: frozenset[str]) -> float:
        score = 0.0
        if unit.path in files:
            score += w_p
        score += w_c * math.log(1 + covered_line_count(unit, coverage))
        score += w_s * (len(matched) / vocabulary if vocabulary else 0.0)
        return score

    return score


def priority(
    unit: CodeUnit,
    text: str,
    patch: PatchInfo,
    coverage: CoverageReport,
    weights: PriorityWeights,
) -> float:
    """Composite priority of one unit (natural log dampens coverage)."""
    return _scorer(patch, coverage, weights)(unit, lex_identifiers(text) & patch.identifiers)


def priority_map(
    tree: UnitTree,
    patch: PatchInfo,
    coverage: CoverageReport,
    weights: PriorityWeights,
) -> dict[str, float]:
    """Priority for every unit in the tree, each score computed by the
    same float operations, in the same order, as :func:`priority`'s.

    A leaf is lexed only if its text holds, as a substring, a patch
    identifier that its file holds: no other leaf can lex to one.  The
    test costs at most one substring search per leaf and identifier,
    however often an identifier occurs.  A unit's leaves partition its
    lines and no identifier spans a line break, so the patch identifiers
    a unit's text mentions are the union of those its leaves mention (an
    empty file's unit has no leaves and mentions none)."""
    targets = patch.identifiers - _KEYWORDS
    present = {path: [t for t in targets if t in source] for path, source in tree.sources.items()}
    leaf_matched = [frozenset()] * len(tree.leaves)
    for i, leaf in enumerate(tree.leaves):
        if found := present[leaf.path]:
            text = unit_text(tree, leaf)
            for target in found:
                if target in text:
                    leaf_matched[i] = identifiers_in(text, targets)
                    break
    score = _scorer(patch, coverage, weights)
    index, leaf_slice = tree.index, tree.leaf_slice
    scores = {}
    for uid in tree.unit_order:
        lo, hi = leaf_slice[uid]
        matched = leaf_matched[lo] if hi - lo == 1 else frozenset().union(*leaf_matched[lo:hi])
        scores[uid] = score(index[uid], matched)
    return scores
