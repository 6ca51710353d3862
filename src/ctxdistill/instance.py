"""Instances: one issue plus the code context retrieved for it, the
structured query built from them, and the units their fault locations
fall in.

The query is read in three places: the LLM oracle's repair prompt, each
exported training triple, and the compressor's segment scores.
``fault_units`` is the one map from fault locations to the tree.

Instance input file, JSON schema::

    {
      "instance_id": str,
      "issue_text": str,              # non-empty
      "fault_location": [{"path": str, "line": int, "symbol": str?}],
      "context_files": [{"path": str}],
      "repo_root": str,
      "gold_patch_path": str?,        # distillation only
      "coverage_report_path": str?,   # distillation only
      "test_command": str?            # distillation only
    }

Mock-oracle runs may add ``mock_required`` / ``mock_distractors``: lists
of leaf ids or ``{"path", "line"}`` locators resolved against the tree.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .code_model import CodeUnit, Level, UnitTree, build_tree, enclosing_leaf, enclosing_unit
from .priority import lex_identifiers


class InstanceError(ValueError):
    pass


def _line_number(value: object) -> int:
    """A line number read from JSON: only a JSON integer, because ``int()``
    would truncate ``2.7`` to 2 and read ``true`` as 1, naming another
    line than the file does."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise InstanceError(f"line {value!r} is not an integer")


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
        return cls(path=str(data["path"]), line=_line_number(data["line"]), symbol=data.get("symbol"))


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


def load_instance(path: str | Path) -> Instance:
    path = Path(path)
    if not path.exists():
        raise InstanceError(f"instance file not found: {path}")
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise InstanceError(f"instance file {path} is not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InstanceError(f"instance file {path} is not valid JSON: {exc}") from exc

    for key in ("instance_id", "issue_text", "fault_location", "context_files", "repo_root"):
        if key not in data:
            raise InstanceError(f"instance file {path} missing required key: {key}")
    if not isinstance(data["issue_text"], str) or not data["issue_text"]:
        raise InstanceError(f"instance file {path}: issue_text must be a non-empty string")

    faults = []
    for entry in data["fault_location"]:
        try:
            faults.append(FaultLocation.from_json(entry))
        except (KeyError, TypeError, ValueError):
            raise InstanceError(
                f"instance file {path}: fault_location entry {entry!r} needs a path and an integer line"
            ) from None
    context_files = []
    for entry in data["context_files"]:
        if isinstance(entry, dict) and "path" not in entry:
            raise InstanceError(f"instance file {path}: context_files entry {entry!r} has no path")
        context_files.append(entry["path"] if isinstance(entry, dict) else str(entry))

    return Instance(
        instance_id=str(data["instance_id"]),
        issue_text=data["issue_text"],
        fault_locations=faults,
        context_files=context_files,
        repo_root=str(data["repo_root"]),
        gold_patch_path=data.get("gold_patch_path"),
        coverage_report_path=data.get("coverage_report_path"),
        test_command=data.get("test_command"),
        repo=str(data.get("repo", "")),
        mock_required=list(data.get("mock_required", [])),
        mock_distractors=list(data.get("mock_distractors", [])),
    )


def load_sources(instance: Instance) -> list[tuple[str, str]]:
    """Read every context file from the instance's repository root."""
    root = Path(instance.repo_root)
    sources = []
    seen: set[str] = set()
    for rel in instance.context_files:
        if rel in seen:
            raise InstanceError(f"context file listed twice: {rel}")
        seen.add(rel)
        target = root / rel
        if not target.exists():
            raise InstanceError(f"context file not found: {target}")
        try:
            sources.append((rel, target.read_text(encoding="utf-8")))
        except (OSError, UnicodeDecodeError) as exc:
            raise InstanceError(f"cannot read context file {target}: {exc}") from exc
    return sources


def build_instance_tree(
    instance: Instance, facts: Callable[[Sequence[ast.stmt]], object] | None = None
) -> UnitTree:
    """The instance's unit tree; ``facts`` is ``build_tree``'s hook."""
    return build_tree(instance.instance_id, load_sources(instance), facts)


def resolve_leaf_locators(tree: UnitTree, locators: list) -> frozenset[str]:
    """Resolve leaf ids or ``{path, line}`` locators to leaf segment ids."""
    resolved: set[str] = set()
    for loc in locators:
        if isinstance(loc, str):
            unit = tree.index.get(loc)
            if unit is None:
                raise InstanceError(f"locator {loc} names no unit of the context")
            if not unit.is_leaf:
                raise InstanceError(f"locator {loc} names a non-leaf unit")
            resolved.add(loc)
        elif isinstance(loc, dict):
            try:
                path, line = loc["path"], _line_number(loc["line"])
            except (KeyError, TypeError, ValueError):
                raise InstanceError(f"locator {loc!r} needs a path and a line number") from None
            leaf = enclosing_leaf(tree, path, line)
            if leaf is None:
                raise InstanceError(f"no leaf segment contains {path}:{line}")
            resolved.add(leaf.id)
        else:
            raise InstanceError(f"unsupported locator: {loc!r}")
    return frozenset(resolved)
