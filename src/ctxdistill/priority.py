"""Priority scores that bias the search toward fix-relevant units.

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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from .code_model import CodeUnit, UnitTree, unit_text

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_KEYWORDS = frozenset(keyword.kwlist)
_HUNK_RE = re.compile(r"^@@ -\d+(,\d+)? \+\d+(,\d+)? @@")


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
    """Covered line numbers per repo-relative path.

    ``sorted_lines`` holds the same numbers as ascending lists, so the
    covered lines inside a span are counted by bisection.
    """

    lines: dict[str, frozenset[int]] = field(default_factory=dict)
    sorted_lines: dict[str, list[int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.sorted_lines = {path: sorted(nums) for path, nums in self.lines.items()}

    @classmethod
    def empty(cls) -> "CoverageReport":
        return cls({})

    @classmethod
    def from_json(cls, data: dict) -> "CoverageReport":
        files = data.get("files", {})
        parsed: dict[str, frozenset[int]] = {}
        for path, nums in files.items():
            lines = frozenset(int(n) for n in nums)
            if any(n < 1 for n in lines):
                raise ValueError(f"coverage for {path} contains non-positive line numbers")
            parsed[path] = lines
        return cls(parsed)

    @classmethod
    def load(cls, path: str | Path) -> "CoverageReport":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))


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
    return frozenset(m.group(0) for m in _IDENT_RE.finditer(text)) - _KEYWORDS


def _strip_diff_prefix(path: str) -> str:
    if path.startswith(("a/", "b/")):
        return path[2:]
    return path


def parse_patch(patch_text: str) -> PatchInfo:
    """Extract touched files and changed-line identifiers from a unified diff."""
    files: set[str] = set()
    identifiers: set[str] = set()
    in_hunk = False
    saw_hunk = False

    for lineno, line in enumerate(patch_text.splitlines(), start=1):
        if line.startswith("diff --git "):
            in_hunk = False
            parts = line.split()
            for part in parts[2:4]:
                path = _strip_diff_prefix(part)
                if path != "/dev/null":
                    files.add(path)
            continue
        if line.startswith("--- ") or line.startswith("+++ "):
            in_hunk = False
            path = line[4:].split("\t")[0].strip()
            path = _strip_diff_prefix(path)
            if path and path != "/dev/null":
                files.add(path)
            continue
        if line.startswith("@@"):
            if not _HUNK_RE.match(line):
                raise PatchFormatError("malformed hunk header", lineno)
            in_hunk = True
            saw_hunk = True
            continue
        if in_hunk:
            if line.startswith(("+", "-")):
                identifiers.update(lex_identifiers(line[1:]))
            elif line and not line.startswith((" ", "\\")):
                # a non-prefixed line ends the hunk (e.g. next file header)
                in_hunk = False

    if not saw_hunk:
        raise PatchFormatError("no hunks found in patch text")
    return PatchInfo(frozenset(files), frozenset(identifiers))


def sym_score(text: str, patch_identifiers: frozenset[str] | set[str]) -> float:
    """Fraction of the patch identifier set that appears in ``text``."""
    if not patch_identifiers:
        return 0.0
    return len(lex_identifiers(text) & frozenset(patch_identifiers)) / len(patch_identifiers)


def covered_line_count(unit: CodeUnit, coverage: CoverageReport) -> int:
    lines = coverage.sorted_lines.get(unit.path, [])
    return bisect_right(lines, unit.span.end_line) - bisect_left(lines, unit.span.start_line)


def priority(
    unit: CodeUnit,
    text: str,
    patch: PatchInfo,
    coverage: CoverageReport,
    weights: PriorityWeights,
) -> float:
    """Composite priority of one unit (natural log dampens coverage)."""
    score = 0.0
    if unit.path in patch.files:
        score += weights.w_p
    score += weights.w_c * math.log(1 + covered_line_count(unit, coverage))
    score += weights.w_s * sym_score(text, patch.identifiers)
    return score


def priority_map(
    tree: UnitTree,
    patch: PatchInfo,
    coverage: CoverageReport,
    weights: PriorityWeights,
    unit_ids: Iterable[str] | None = None,
) -> dict[str, float]:
    """Priority for every unit in the tree (or a chosen subset)."""
    ids = list(unit_ids) if unit_ids is not None else list(tree.unit_order)
    return {
        uid: priority(tree.unit(uid), unit_text(tree, uid), patch, coverage, weights)
        for uid in ids
    }
