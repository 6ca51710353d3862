"""Output checks against the generator's planted reference.

Every check works on line ranges and text, never on the program's
segment ids, so a change to how ids are derived cannot hide a wrong
result.  Each check returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

PLACEHOLDER = re.compile(r"^\s*# \.\.\. \d+ lines omitted$")
FILE_SEPARATOR = "### FILE: "


@dataclass(frozen=True)
class Leaf:
    path: str
    start: int
    end: int

    def contains(self, span: list) -> bool:
        path, start, end = span
        return self.path == path and self.start <= start and end <= self.end


def leaves_for_spans(leaves: list[Leaf], spans: list[list]) -> tuple[set[Leaf], list[str]]:
    """The leaves holding each planted span; each span must sit inside
    exactly one leaf."""
    found: set[Leaf] = set()
    problems = []
    for span in spans:
        holders = [leaf for leaf in leaves if leaf.contains(span)]
        if len(holders) != 1:
            problems.append(f"planted span {span} lies in {len(holders)} leaves")
        found.update(holders)
    return found, problems


def check_distilled(
    all_leaves: list[Leaf], retained: list[Leaf], required: list[list], certified: bool
) -> tuple[bool, list[str]]:
    """Whether the retained leaves are exactly those holding the required
    spans, and the problems found.  A certified result that misses is an
    error; an uncertified one only counts as not exact."""
    expected, problems = leaves_for_spans(all_leaves, required)
    exact = not problems and set(retained) == expected
    if certified and not exact:
        missing = sorted((leaf.path, leaf.start) for leaf in expected - set(retained))
        extra = sorted((leaf.path, leaf.start) for leaf in set(retained) - expected)
        problems.append(f"certified result differs from planted: missing {missing}, extra {extra}")
    return exact, problems


def check_compressed(text: str, sources: dict[str, str]) -> list[str]:
    """Every output line is a ``### FILE:`` separator, an omission
    placeholder, or the next unused line of the current file's source."""
    problems = []
    lines: list[str] | None = None
    pos = 0
    for n, line in enumerate(text.splitlines(), start=1):
        if line.startswith(FILE_SEPARATOR):
            path = line[len(FILE_SEPARATOR):]
            if path not in sources:
                problems.append(f"line {n}: separator names unknown file {path!r}")
                return problems
            lines = sources[path].splitlines()
            pos = 0
        elif lines is None:
            problems.append(f"line {n}: text before the first file separator")
            return problems
        elif PLACEHOLDER.match(line):
            continue
        else:
            try:
                pos = lines.index(line, pos) + 1
            except ValueError:
                problems.append(f"line {n}: not a source line in order: {line!r}")
                return problems
    if lines is None:
        problems.append("compressed output is empty")
    return problems


def section(text: str, path: str) -> str:
    """The part of a compressed dump that belongs to ``path``."""
    head = f"{FILE_SEPARATOR}{path}\n"
    start = text.find(head)
    if start == -1:
        return ""
    start += len(head)
    end = text.find(f"\n{FILE_SEPARATOR}", start)
    return text[start:] if end == -1 else text[start:end + 1]


def fault_kept(text: str, sources: dict[str, str], fault: list) -> bool:
    """Whether the planted fault block appears whole in its file's section."""
    path, start, end = fault
    block = "\n".join(sources[path].splitlines()[start - 1 : end])
    return block in section(text, path)


def bytes4_tokens(text: str) -> int:
    """The program's default token count, restated: ceil(utf-8 bytes / 4)."""
    return math.ceil(len(text.encode("utf-8")) / 4)


def check_verdict(fixing_samples: int, samples: int, passes: int, sufficient: bool, applied: list[bool]) -> list[str]:
    """An LLM-oracle verdict must count exactly the samples the fake
    endpoint answered with the fixing patch; every patch it sends applies,
    and the context is sufficient exactly when it sent a fix."""
    problems = []
    if passes != fixing_samples:
        problems.append(f"verdict counts {passes} passing samples, endpoint sent {fixing_samples} fixes")
    if len(applied) != samples or not all(applied):
        problems.append(f"only {sum(applied)} of {samples} patches applied")
    if sufficient != (fixing_samples > 0):
        problems.append(f"verdict sufficient={sufficient} with {fixing_samples} fixes sent")
    return problems
