"""Instances: one issue plus the code context retrieved for it, the
structured query built from them, and the units their fault locations
fall in.

The query is read in three places: the LLM oracle's repair prompt, each
exported training triple, and the compressor's segment scores.
``fault_units`` is the one map from fault locations to the tree.

Instance input file, JSON schema.  Every value must have exactly its
JSON type, as nothing is coerced; a ``?`` field may be null or absent::

    {
      "instance_id": string,
      "issue_text": string,               # non-empty
      "fault_location": [{"path": string, "line": integer, "symbol": string?}],
      "context_files": [{"path": string} or string],
      "repo_root": string,
      "repo": string?,                    # defaults to repo_root's name
      "gold_patch_path": string?,         # distillation only
      "coverage_report_path": string?,    # distillation only
      "test_command": string?             # distillation only
    }

Mock-oracle runs may add ``mock_required`` / ``mock_distractors``
(arrays?): leaf ids or ``{"path": string, "line": integer}`` locators
resolved against the tree.

The instance file, its context files, gold patch and coverage report are
read as UTF-8.  A PEP 263 coding cookie is not honoured: a context file
in another encoding is bad input, refused with its path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .code_model import CodeUnit, Level, UnitTree, build_tree, enclosing_unit
from .priority import json_field, json_value, lex_identifiers, read_input, read_json


class InstanceError(ValueError):
    pass


@dataclass(frozen=True)
class FaultLocation:
    path: str
    line: int
    symbol: str | None = None

    def to_json(self) -> dict:
        data: dict = {"path": self.path, "line": self.line}
        if self.symbol is not None:
            data["symbol"] = self.symbol
        return data

    @classmethod
    def from_json(cls, data: dict) -> "FaultLocation":
        try:
            path, line = json_field(data, "path", str), json_field(data, "line", int)
            if line < 1:
                raise ValueError(f"line must be >= 1, not {line}")
            return cls(path, line, json_field(data, "symbol", str, None))
        except ValueError as exc:
            raise InstanceError(f"fault_location entry {data!r}: {exc}") from None


@dataclass
class Instance:
    instance_id: str
    issue_text: str
    fault_locations: list[FaultLocation]
    context_files: list[str]
    repo_root: str
    gold_patch_path: str | None = None
    coverage_report_path: str | None = None
    test_command: str | None = None
    repo: str = ""
    mock_required: list = field(default_factory=list)
    mock_distractors: list = field(default_factory=list)

    def __post_init__(self) -> None:
        # an instance built in code is checked here, before any oracle call
        if not isinstance(self.issue_text, str) or not self.issue_text:
            raise InstanceError("issue_text must be a non-empty string")
        if not self.repo:
            self.repo = Path(self.repo_root).name


@dataclass(frozen=True)
class StructuredQuery:
    """The issue and its fault locations; ``issue_identifiers`` is the
    issue text's identifier set, lexed once when the query is built."""

    issue_text: str
    fault_locations: tuple[FaultLocation, ...]
    rendered: str
    issue_identifiers: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "issue_identifiers", lex_identifiers(self.issue_text))


def build_query(issue_text: str, fault_locations: Sequence[FaultLocation]) -> StructuredQuery:
    """Deterministic canonical text form of the issue plus fault locations."""
    if not issue_text:
        raise ValueError("issue_text must be non-empty")
    parts = [f"ISSUE:\n{issue_text}\n\nFAULT LOCATIONS:\n"]
    for fl in fault_locations:
        suffix = f" [{fl.symbol}]" if fl.symbol else ""
        parts.append(f"- {fl.path}:{fl.line}{suffix}\n")
    return StructuredQuery(issue_text, tuple(fault_locations), "".join(parts))


def fault_units(tree: UnitTree, faults: Iterable[FaultLocation]) -> list[CodeUnit | None]:
    """The function-level unit enclosing each fault location, in order;
    ``None`` where there is none (a missing file, a line past the end)."""
    return [enclosing_unit(tree, fl.path, fl.line, level=Level.FUNCTION) for fl in faults]


def _context_path(entry: object) -> str:
    """A ``context_files`` entry: ``{"path": string}`` or a bare string."""
    try:
        return json_field(entry, "path", str) if type(entry) is dict else json_value(entry, str, "path")
    except ValueError as exc:
        raise ValueError(f"context_files entry {entry!r}: {exc}") from None


def load_instance(path: str | Path) -> Instance:
    data = read_json(path, "instance file", InstanceError)
    try:
        return Instance(
            instance_id=json_field(data, "instance_id", str),
            issue_text=json_field(data, "issue_text", str),
            fault_locations=[FaultLocation.from_json(e) for e in json_field(data, "fault_location", list)],
            context_files=[_context_path(e) for e in json_field(data, "context_files", list)],
            repo_root=json_field(data, "repo_root", str),
            gold_patch_path=json_field(data, "gold_patch_path", str, None),
            coverage_report_path=json_field(data, "coverage_report_path", str, None),
            test_command=json_field(data, "test_command", str, None),
            repo=json_field(data, "repo", str, None) or "",
            mock_required=json_field(data, "mock_required", list, None) or [],
            mock_distractors=json_field(data, "mock_distractors", list, None) or [],
        )
    except ValueError as exc:
        raise InstanceError(f"instance file {path}: {exc}") from None


def load_sources(instance: Instance) -> list[tuple[str, str]]:
    """Read every context file from the instance's repository root."""
    root = Path(instance.repo_root)
    sources = []
    seen: set[str] = set()
    for rel in instance.context_files:
        if rel in seen:
            raise InstanceError(f"context file listed twice: {rel}")
        seen.add(rel)
        sources.append((rel, read_input(root / rel, "context file", InstanceError)))
    return sources


def build_instance_tree(instance: Instance) -> UnitTree:
    """The instance's unit tree."""
    return build_tree(instance.instance_id, load_sources(instance))


def resolve_leaf_locators(tree: UnitTree, locators: list) -> frozenset[str]:
    """Resolve leaf ids or ``{path, line}`` locators to leaf segment ids."""
    resolved: set[str] = set()
    for loc in locators:
        if isinstance(loc, str):
            unit = tree.index.get(loc)
            if unit is None:
                raise InstanceError(f"locator {loc} names no unit of the context")
            if not unit.is_leaf or unit.level is Level.FILE:
                raise InstanceError(f"locator {loc} names a non-leaf unit")
            resolved.add(loc)
        elif isinstance(loc, dict):
            try:
                path, line = json_field(loc, "path", str), json_field(loc, "line", int)
            except ValueError:
                raise InstanceError(f"locator {loc!r} needs a path and a line number") from None
            leaf = tree.innermost_unit(path, line)
            if leaf is None or leaf.level is Level.FILE:
                raise InstanceError(f"no leaf segment contains {path}:{line}")
            resolved.add(leaf.id)
        else:
            raise InstanceError(f"unsupported locator: {loc!r}")
    return frozenset(resolved)
