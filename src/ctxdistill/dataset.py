"""Distilled-instance corpus: persistence, semantic roles, training
triples, and corpus statistics.

Each distilled instance stores every leaf segment of its initial context
together with the minimal sufficient subset the search retained.  Export
turns that into one pointwise (query, segment, label) triple per
segment, weighted for class imbalance and segment role.
"""

from __future__ import annotations

import ast
import json
import textwrap
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator

from .code_model import CodeUnit, Level, SegmentKind, UnitTree, enclosing_unit, unit_text
from .compressor import build_query
from .instance import FaultLocation
from .priority import lex_identifiers

ROLE_RULES_VERSION = "1"

STATUS_MINIMIZED = "minimized"
STATUS_UNMINIMIZED = "unminimized"

SIZE_BUCKETS = ("1-20", "21-50", "51-100", "101-200", "200+")


class CorpusFormatError(ValueError):
    pass


class ZeroPositivesError(ValueError):
    """Triple export needs at least one retained segment corpus-wide."""


class SemanticRole(str, Enum):
    SCHEMA = "schema"
    DEFINITION = "definition"
    CALL_CHAIN = "call_chain"
    GENERIC_UTILITY = "generic_utility"


@dataclass(frozen=True)
class SegmentRecord:
    id: str
    path: str
    kind: str
    start_line: int
    end_line: int
    line_count: int
    text: str
    role: str

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "path": self.path,
            "kind": self.kind,
            "start_line": self.start_line,
            "end_line": self.end_line,
            "line_count": self.line_count,
            "text": self.text,
            "role": self.role,
        }

    @classmethod
    def from_json(cls, data: dict) -> "SegmentRecord":
        return cls(
            id=data["id"],
            path=data["path"],
            kind=data["kind"],
            start_line=int(data["start_line"]),
            end_line=int(data["end_line"]),
            line_count=int(data["line_count"]),
            text=data["text"],
            role=data["role"],
        )


@dataclass
class DistilledInstance:
    instance_id: str
    repo: str
    issue_text: str
    fault_locations: list[FaultLocation]
    context_segments: list[SegmentRecord]
    minimal_leaf_ids: frozenset[str]
    one_minimal_certified: bool
    oracle_calls: int
    provenance: dict = field(default_factory=dict)
    status: str = STATUS_MINIMIZED

    def __post_init__(self) -> None:
        segment_ids = {seg.id for seg in self.context_segments}
        if not self.minimal_leaf_ids <= segment_ids:
            raise ValueError("minimal_leaf_ids must be a subset of context segment ids")

    def to_json(self) -> dict:
        return {
            "instance_id": self.instance_id,
            "repo": self.repo,
            "issue_text": self.issue_text,
            "fault_locations": [fl.to_json() for fl in self.fault_locations],
            "context_segments": [seg.to_json() for seg in self.context_segments],
            "minimal_leaf_ids": sorted(self.minimal_leaf_ids),
            "one_minimal_certified": self.one_minimal_certified,
            "oracle_calls": self.oracle_calls,
            "provenance": self.provenance,
            "status": self.status,
        }

    @classmethod
    def from_json(cls, data: dict) -> "DistilledInstance":
        return cls(
            instance_id=data["instance_id"],
            repo=data["repo"],
            issue_text=data["issue_text"],
            fault_locations=[FaultLocation.from_json(f) for f in data["fault_locations"]],
            context_segments=[SegmentRecord.from_json(s) for s in data["context_segments"]],
            minimal_leaf_ids=frozenset(data["minimal_leaf_ids"]),
            one_minimal_certified=bool(data["one_minimal_certified"]),
            oracle_calls=int(data["oracle_calls"]),
            provenance=dict(data.get("provenance", {})),
            status=data.get("status", STATUS_MINIMIZED),
        )


@dataclass(frozen=True)
class TrainingTriple:
    query_text: str
    segment_text: str
    label: int
    weight: float
    role: str
    instance_id: str
    segment_id: str

    def to_json(self) -> dict:
        return {
            "query": self.query_text,
            "segment": self.segment_text,
            "label": self.label,
            "weight": self.weight,
            "role": self.role,
            "instance_id": self.instance_id,
            "segment_id": self.segment_id,
        }


@dataclass(frozen=True)
class WeightingConfig:
    role_weight_min: float = 0.5
    role_weight_max: float = 3.0


@dataclass
class CorpusStats:
    instances: int
    segments: int
    positives: int
    relevance_density: float
    avg_segments_per_instance: float
    per_role_density: dict[str, float]
    density_by_size_bucket: dict[str, float]

    def to_json(self) -> dict:
        return {
            "instances": self.instances,
            "segments": self.segments,
            "positives": self.positives,
            "relevance_density": self.relevance_density,
            "avg_segments_per_instance": self.avg_segments_per_instance,
            "per_role_density": self.per_role_density,
            "density_by_size_bucket": self.density_by_size_bucket,
        }


# --- semantic role classification ------------------------------------------


def _parse_segment(text: str) -> ast.Module | None:
    dedented = textwrap.dedent(text)
    try:
        return ast.parse(dedented)
    except SyntaxError:
        pass
    # blocks lifted from a function body may contain return/yield/await;
    # re-parse wrapped in a dummy function
    wrapped = "def _wrap():\n" + textwrap.indent(dedented, "    ")
    try:
        module = ast.parse(wrapped)
    except SyntaxError:
        return None
    inner = module.body[0]
    assert isinstance(inner, ast.FunctionDef)
    shim = ast.Module(body=inner.body, type_ignores=[])
    return shim


def _defined_names(module: ast.Module | None) -> frozenset[str]:
    if module is None:
        return frozenset()
    names: set[str] = set()
    for stmt in module.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(stmt.name)
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            names.add(stmt.target.id)
    return frozenset(names)


def _called_names(module: ast.Module | None) -> frozenset[str]:
    if module is None:
        return frozenset()
    names: set[str] = set()
    for node in ast.walk(module):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                names.add(func.id)
            elif isinstance(func, ast.Attribute):
                names.add(func.attr)
    return frozenset(names)


_LITERALISH = (ast.Constant, ast.List, ast.Tuple, ast.Set, ast.Dict, ast.Name, ast.Attribute, ast.UnaryOp)


def _declaration_ratio(module: ast.Module | None) -> float:
    """Fraction of top-level statements that look like field/attribute/type
    declarations: annotated assignments, or plain assignments of literal-ish
    values to simple targets."""
    if module is None or not module.body:
        return 0.0
    decls = 0
    for stmt in module.body:
        if isinstance(stmt, ast.AnnAssign):
            decls += 1
        elif isinstance(stmt, ast.Assign):
            simple = all(isinstance(t, (ast.Name, ast.Attribute)) for t in stmt.targets)
            if simple and isinstance(stmt.value, _LITERALISH):
                decls += 1
    return decls / len(module.body)


def _fault_units(tree: UnitTree, faults: Iterable[FaultLocation]) -> list[CodeUnit]:
    units: list[CodeUnit] = []
    seen: set[str] = set()
    for fl in faults:
        unit = enclosing_unit(tree, fl.path, fl.line, level=Level.FUNCTION)
        if unit is None:
            unit = enclosing_unit(tree, fl.path, fl.line)
        if unit is not None and unit.id not in seen:
            seen.add(unit.id)
            units.append(unit)
    return units


@dataclass(frozen=True)
class FaultFacts:
    """What the code around an instance's fault locations calls, mentions
    and defines; the same for every segment of the instance."""

    calls: frozenset[str]
    identifiers: frozenset[str]
    defined: frozenset[str]


def fault_facts(tree: UnitTree, faults: Iterable[FaultLocation]) -> FaultFacts:
    """Facts over the function-level units enclosing the fault locations
    (the innermost unit where a location has none)."""
    texts = [unit_text(tree, u) for u in _fault_units(tree, faults)]
    modules = [_parse_segment(t) for t in texts]
    return FaultFacts(
        calls=frozenset().union(*(_called_names(m) for m in modules)),
        identifiers=frozenset().union(*(lex_identifiers(t) for t in texts)),
        defined=frozenset().union(*(_defined_names(m) for m in modules)),
    )


def classify_role(segment: CodeUnit, tree: UnitTree, facts: FaultFacts) -> SemanticRole:
    """First matching rule wins: schema-shaped content, then definitions the
    fault code references, then call-graph neighbours, else generic.

    ``facts`` come from :func:`fault_facts`, computed once per instance and
    shared by all of its segments."""
    if segment.kind is SegmentKind.CLASS_HEADER:
        return SemanticRole.SCHEMA
    module = _parse_segment(unit_text(tree, segment))
    if _declaration_ratio(module) >= 0.5:
        return SemanticRole.SCHEMA

    defined = _defined_names(module)
    # calls are handled by the call-chain rule, not the definition rule
    if defined & (facts.identifiers - facts.calls):
        return SemanticRole.DEFINITION

    if _called_names(module) & facts.defined or defined & facts.calls:
        return SemanticRole.CALL_CHAIN

    return SemanticRole.GENERIC_UTILITY


# --- persistence ------------------------------------------------------------


def save_corpus(corpus: Iterable[DistilledInstance], path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for inst in corpus:
            fh.write(json.dumps(inst.to_json(), sort_keys=True) + "\n")


def append_corpus(instance: DistilledInstance, path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(instance.to_json(), sort_keys=True) + "\n")


def load_corpus(path: str | Path) -> list[DistilledInstance]:
    corpus: list[DistilledInstance] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                data = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusFormatError(f"line {lineno}: invalid JSON: {exc}") from exc
            try:
                corpus.append(DistilledInstance.from_json(data))
            except (KeyError, TypeError, ValueError) as exc:
                raise CorpusFormatError(f"line {lineno}: {exc!r}") from exc
    return corpus


# --- triples and statistics --------------------------------------------------


def _exportable(corpus: Iterable[DistilledInstance]) -> list[DistilledInstance]:
    return [
        inst
        for inst in corpus
        if inst.status == STATUS_MINIMIZED and inst.minimal_leaf_ids
    ]


def compute_weights(
    corpus: list[DistilledInstance], cfg: WeightingConfig | None = None
) -> tuple[float, dict[str, float]]:
    """Positive class weight (imbalance ratio) and per-role weights
    (mean density over role density, clamped)."""
    cfg = cfg or WeightingConfig()
    instances = _exportable(corpus)
    segments = sum(len(inst.context_segments) for inst in instances)
    positives = sum(len(inst.minimal_leaf_ids) for inst in instances)
    if positives == 0:
        raise ZeroPositivesError("corpus has no positive segments; weights are undefined")
    negatives = segments - positives
    class_weight_positive = negatives / positives

    mean_density = positives / segments
    role_segments: dict[str, int] = {}
    role_positives: dict[str, int] = {}
    for inst in instances:
        for seg in inst.context_segments:
            role_segments[seg.role] = role_segments.get(seg.role, 0) + 1
            if seg.id in inst.minimal_leaf_ids:
                role_positives[seg.role] = role_positives.get(seg.role, 0) + 1
    role_weights: dict[str, float] = {}
    for role, count in role_segments.items():
        density = role_positives.get(role, 0) / count
        raw = (mean_density / density) if density > 0 else cfg.role_weight_max
        role_weights[role] = min(cfg.role_weight_max, max(cfg.role_weight_min, raw))
    return class_weight_positive, role_weights


def export_triples(
    corpus: list[DistilledInstance], cfg: WeightingConfig | None = None
) -> Iterator[TrainingTriple]:
    """One weighted triple per (instance, segment); unminimized instances
    are skipped."""
    class_weight_positive, role_weights = compute_weights(corpus, cfg)
    for inst in _exportable(corpus):
        query = build_query(inst.issue_text, inst.fault_locations).rendered
        for seg in inst.context_segments:
            label = 1 if seg.id in inst.minimal_leaf_ids else 0
            weight = (class_weight_positive if label else 1.0) * role_weights[seg.role]
            yield TrainingTriple(
                query_text=query,
                segment_text=seg.text,
                label=label,
                weight=weight,
                role=seg.role,
                instance_id=inst.instance_id,
                segment_id=seg.id,
            )


def write_triples(
    corpus: list[DistilledInstance],
    path: str | Path,
    cfg: WeightingConfig | None = None,
) -> int:
    """Write triples JSONL plus a ``.meta.json`` sidecar recording the
    weighting used; returns the triple count."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    class_weight_positive, role_weights = compute_weights(corpus, cfg)
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for triple in export_triples(corpus, cfg):
            fh.write(json.dumps(triple.to_json(), sort_keys=True) + "\n")
            count += 1
    meta = {
        "role_rules_version": ROLE_RULES_VERSION,
        "roles": [role.value for role in SemanticRole],
        "class_weight_positive": class_weight_positive,
        "role_weights": role_weights,
        "triples": count,
    }
    Path(str(path) + ".meta.json").write_text(
        json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return count


def _bucket(segment_count: int) -> str:
    if segment_count <= 20:
        return "1-20"
    if segment_count <= 50:
        return "21-50"
    if segment_count <= 100:
        return "51-100"
    if segment_count <= 200:
        return "101-200"
    return "200+"


def compute_stats(corpus: list[DistilledInstance]) -> CorpusStats:
    """Exact counts over the given corpus."""
    instances = len(corpus)
    segments = sum(len(inst.context_segments) for inst in corpus)
    positives = sum(len(inst.minimal_leaf_ids) for inst in corpus)

    role_segments = {role.value: 0 for role in SemanticRole}
    role_positives = {role.value: 0 for role in SemanticRole}
    bucket_segments = {bucket: 0 for bucket in SIZE_BUCKETS}
    bucket_positives = {bucket: 0 for bucket in SIZE_BUCKETS}
    for inst in corpus:
        bucket = _bucket(len(inst.context_segments))
        bucket_segments[bucket] += len(inst.context_segments)
        bucket_positives[bucket] += len(inst.minimal_leaf_ids)
        for seg in inst.context_segments:
            role_segments[seg.role] = role_segments.get(seg.role, 0) + 1
            if seg.id in inst.minimal_leaf_ids:
                role_positives[seg.role] = role_positives.get(seg.role, 0) + 1

    return CorpusStats(
        instances=instances,
        segments=segments,
        positives=positives,
        relevance_density=positives / segments if segments else 0.0,
        avg_segments_per_instance=segments / instances if instances else 0.0,
        per_role_density={
            role: (role_positives[role] / count if count else 0.0)
            for role, count in role_segments.items()
        },
        density_by_size_bucket={
            bucket: (bucket_positives[bucket] / count if count else 0.0)
            for bucket, count in bucket_segments.items()
        },
    )
