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
import math
import os
import textwrap
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, get_type_hints

from .code_model import CodeUnit, SegmentKind, UnitTree, parse_source, role_facts, split_lines, unit_text
from .instance import FaultLocation, build_query, fault_units
from .priority import json_field, lex_identifiers, read_input, writing

ROLE_RULES_VERSION = "2"

STATUS_MINIMIZED = "minimized"
STATUS_UNMINIMIZED = "unminimized"

# (largest segment count, label) per size bucket, smallest first
SIZE_BUCKETS = ((20, "1-20"), (50, "21-50"), (100, "51-100"), (200, "101-200"), (math.inf, "200+"))

# per-role weights are clamped to this range
ROLE_WEIGHT_MIN = 0.5
ROLE_WEIGHT_MAX = 3.0


class CorpusFormatError(ValueError):
    pass


class ZeroPositivesError(ValueError):
    """Triple export needs at least one retained segment corpus-wide."""


class SemanticRole(str, Enum):
    SCHEMA = "schema"
    DEFINITION = "definition"
    CALL_CHAIN = "call_chain"
    GENERIC_UTILITY = "generic_utility"


@dataclass(slots=True)
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
        return {name: getattr(self, name) for name, _ in _SEGMENT_FIELDS}

    @classmethod
    def from_json(cls, data: dict) -> "SegmentRecord":
        return cls(*[json_field(data, name, kind) for name, kind in _SEGMENT_FIELDS])


# each field's name and JSON type, read from its annotation once
_SEGMENT_FIELDS = tuple(get_type_hints(SegmentRecord).items())


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
    # the oracle budget ran out, so the kept set may not be reduced
    budget_exhausted: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.issue_text, str) or not self.issue_text:
            raise ValueError("issue_text must be a non-empty string")
        if self.status not in (STATUS_MINIMIZED, STATUS_UNMINIMIZED):
            raise ValueError(f"status {self.status!r} is neither minimized nor unminimized")
        if not all(isinstance(uid, str) for uid in self.minimal_leaf_ids):
            raise ValueError("minimal_leaf_ids must be strings")
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
            "budget_exhausted": self.budget_exhausted,
        }

    @classmethod
    def from_json(cls, data: dict) -> "DistilledInstance":
        return cls(
            instance_id=json_field(data, "instance_id", str),
            repo=json_field(data, "repo", str),
            issue_text=json_field(data, "issue_text", str),
            fault_locations=[FaultLocation.from_json(f) for f in json_field(data, "fault_locations", list)],
            context_segments=[SegmentRecord.from_json(s) for s in json_field(data, "context_segments", list)],
            minimal_leaf_ids=frozenset(json_field(data, "minimal_leaf_ids", list)),
            one_minimal_certified=json_field(data, "one_minimal_certified", bool),
            oracle_calls=json_field(data, "oracle_calls", int),
            provenance=json_field(data, "provenance", dict, {}),
            status=json_field(data, "status", str, STATUS_MINIMIZED),
            budget_exhausted=json_field(data, "budget_exhausted", bool, False),
        )


@dataclass
class CorpusStats:
    instances: int
    segments: int
    positives: int
    relevance_density: float
    avg_segments_per_instance: float
    per_role_density: dict[str, float]
    density_by_size_bucket: dict[str, float]


# --- semantic role classification ------------------------------------------


def _parse_segment(text: str) -> ast.Module | None:
    dedented = textwrap.dedent(text)
    try:
        return parse_source(dedented)
    except SyntaxError:
        pass
    # blocks lifted from a function body may contain return/yield/await;
    # re-parse wrapped in a dummy function
    wrapped = "def _wrap():\n" + textwrap.indent(dedented, "    ")
    try:
        module = parse_source(wrapped)
    except SyntaxError:
        return None
    inner = module.body[0]
    assert isinstance(inner, ast.FunctionDef)
    shim = ast.Module(body=inner.body, type_ignores=[])
    return shim


def _called_names(module: ast.Module | None) -> frozenset[str]:
    """The names called in ``module``: a call's function name, or the
    attribute a called attribute reads.  The walk visits every node that
    ``ast.walk`` visits, from a stack of field values that drops the ones
    that are not nodes; ``ast.parse`` makes no subclasses of node types,
    so exact types are checked."""
    if module is None:
        return frozenset()
    names: set[str] = set()
    stack: list = [module]
    while stack:
        node = stack.pop()
        if not isinstance(node, ast.AST):
            continue
        if type(node) is ast.Call:
            func = node.func
            if type(func) is ast.Name:
                names.add(func.id)
            elif type(func) is ast.Attribute:
                names.add(func.attr)
        for name in node._fields:
            value = getattr(node, name, None)
            if type(value) is list:
                stack += value
            else:
                stack.append(value)
    return frozenset(names)


@dataclass(frozen=True)
class FaultFacts:
    """What the code around an instance's fault locations calls, mentions
    and defines; the same for every segment of the instance."""

    calls: frozenset[str]
    identifiers: frozenset[str]
    defined: frozenset[str]


def fault_facts(tree: UnitTree, faults: Iterable[FaultLocation]) -> FaultFacts:
    """Facts over the function-level units enclosing the fault locations;
    a location in no such unit adds nothing, and each unit is read once."""
    units = {u.id: u for u in fault_units(tree, faults) if u is not None}
    texts = [unit_text(tree, u) for u in units.values()]
    modules = [_parse_segment(t) for t in texts]
    return FaultFacts(
        calls=frozenset().union(*(_called_names(m) for m in modules)),
        identifiers=frozenset().union(*(lex_identifiers(t) for t in texts)),
        defined=frozenset().union(*(role_facts(m.body).defined for m in modules if m is not None)),
    )


def _may_call(text: str, names: frozenset[str]) -> bool:
    """False only when no name in ``names`` can be a called name of
    ``text``'s AST.  Every identifier in the AST of an ASCII text appears
    in it verbatim; a non-ASCII text may spell one that Python
    NFKC-normalises (a call to ``ﬁle()`` has the id ``file``)."""
    return not text.isascii() or any(name in text for name in names)


def classify_role(segment: CodeUnit, text: str, facts: FaultFacts) -> SemanticRole:
    """First matching rule wins: schema-shaped content, then definitions the
    fault code references, then call-graph neighbours, else generic.

    ``text`` is the segment's text, as ``unit_text`` gives it.  ``facts``
    come from :func:`fault_facts`, computed once per instance and shared
    by all of its segments.  The segment's own role facts are its
    ``facts``, which ``build_tree`` records from its file's parse.  The
    call-chain rule walks the segment's own parse for called names only
    when :func:`_may_call` allows a call to a name in ``facts.defined``;
    otherwise the walk could find none, so skipping it gives the same
    role."""
    if segment.kind is SegmentKind.CLASS_HEADER:
        return SemanticRole.SCHEMA
    own = segment.facts
    if own.declaration:
        return SemanticRole.SCHEMA

    defined = own.defined
    if defined:
        # calls are handled by the call-chain rule, not the definition rule
        if (defined & facts.identifiers) - facts.calls:
            return SemanticRole.DEFINITION
        if defined & facts.calls:
            return SemanticRole.CALL_CHAIN
    if _may_call(text, facts.defined) and _called_names(_parse_segment(text)) & facts.defined:
        return SemanticRole.CALL_CHAIN

    return SemanticRole.GENERIC_UTILITY


# --- persistence ------------------------------------------------------------


def append_corpus(instance: DistilledInstance, path: str | Path) -> None:
    """Append ``instance`` to the corpus at ``path`` as one JSON line,
    written by one ``os.write`` on an ``O_APPEND`` descriptor, so the
    records of two appenders never interleave.  A failed or short write
    raises ``OutputError`` naming the corpus."""
    line = (json.dumps(instance.to_json(), sort_keys=True) + "\n").encode("utf-8")
    with writing(path, "corpus") as path:
        fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
        try:
            written = os.write(fd, line)
        finally:
            os.close(fd)
        if written != len(line):
            raise OSError(f"wrote {written} of the {len(line)} bytes of a record")


def load_corpus(path: str | Path) -> list[DistilledInstance]:
    """The corpus at ``path``; a bad line, or a repeated instance id,
    raises ``CorpusFormatError`` naming the line(s)."""
    corpus: list[DistilledInstance] = []
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(split_lines(read_input(path, "corpus", CorpusFormatError)), start=1):
        if not line.strip():
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CorpusFormatError(f"corpus {path}, line {lineno}: invalid JSON: {exc}") from exc
        try:
            record = DistilledInstance.from_json(data)
        except (TypeError, ValueError) as exc:
            raise CorpusFormatError(f"corpus {path}, line {lineno}: {exc!r}") from exc
        first = first_line.setdefault(record.instance_id, lineno)
        if first != lineno:
            raise CorpusFormatError(
                f"corpus {path}, line {lineno}: instance_id {record.instance_id!r} repeats line {first}"
            )
        corpus.append(record)
    return corpus


# --- triples and statistics --------------------------------------------------


def _distilled(corpus: Iterable[DistilledInstance]) -> list[DistilledInstance]:
    """Records minimized without running out of oracle budget and
    certified 1-minimal: an uncertified record's minimal set may hold a
    leaf that no pass proved needed, which would be a false positive
    label."""
    return [
        inst
        for inst in corpus
        if inst.status == STATUS_MINIMIZED and inst.one_minimal_certified and not inst.budget_exhausted
    ]


def _exportable(corpus: Iterable[DistilledInstance]) -> list[DistilledInstance]:
    return [inst for inst in _distilled(corpus) if inst.minimal_leaf_ids]


def _role_tally(instances: Iterable[DistilledInstance]) -> dict[str, tuple[int, int]]:
    """Segments and retained segments per role, roles in first-seen order."""
    tally: dict[str, tuple[int, int]] = {}
    for inst in instances:
        for seg in inst.context_segments:
            count, kept = tally.get(seg.role, (0, 0))
            tally[seg.role] = (count + 1, kept + (seg.id in inst.minimal_leaf_ids))
    return tally


def compute_weights(corpus: list[DistilledInstance]) -> tuple[float, dict[str, float]]:
    """Positive class weight (imbalance ratio; 1.0 when there is no
    negative segment, so no imbalance to correct) and per-role weights
    (mean density over role density, clamped)."""
    instances = _exportable(corpus)
    segments = sum(len(inst.context_segments) for inst in instances)
    positives = sum(len(inst.minimal_leaf_ids) for inst in instances)
    if positives == 0:
        raise ZeroPositivesError("corpus has no positive segments; weights are undefined")
    negatives = segments - positives
    class_weight_positive = negatives / positives if negatives else 1.0

    mean_density = positives / segments
    role_weights: dict[str, float] = {}
    for role, (count, kept) in _role_tally(instances).items():
        density = kept / count
        raw = (mean_density / density) if density > 0 else ROLE_WEIGHT_MAX
        role_weights[role] = min(ROLE_WEIGHT_MAX, max(ROLE_WEIGHT_MIN, raw))
    return class_weight_positive, role_weights


def _weighted_triples(
    corpus: list[DistilledInstance], class_weight_positive: float, role_weights: dict[str, float]
) -> Iterator[dict]:
    """The JSON rows of the training triples, one per context segment."""
    for inst in _exportable(corpus):
        query = build_query(inst.issue_text, inst.fault_locations).rendered
        for seg in inst.context_segments:
            label = 1 if seg.id in inst.minimal_leaf_ids else 0
            yield {
                "query": query,
                "segment": seg.text,
                "label": label,
                "weight": (class_weight_positive if label else 1.0) * role_weights[seg.role],
                "role": seg.role,
                "instance_id": inst.instance_id,
                "segment_id": seg.id,
            }


def write_triples(corpus: list[DistilledInstance], path: str | Path) -> int:
    """Write triples JSONL plus a ``.meta.json`` sidecar recording the
    weighting used; returns the triple count."""
    class_weight_positive, role_weights = compute_weights(corpus)
    count = 0
    with writing(path, "triples file") as path, open(path, "w", encoding="utf-8") as fh:
        for row in _weighted_triples(corpus, class_weight_positive, role_weights):
            fh.write(json.dumps(row, sort_keys=True) + "\n")
            count += 1
    meta = {
        "role_rules_version": ROLE_RULES_VERSION,
        "roles": [role.value for role in SemanticRole],
        "class_weight_positive": class_weight_positive,
        "role_weights": role_weights,
        "triples": count,
    }
    with writing(f"{path}.meta.json", "meta sidecar") as meta_path:
        meta_path.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return count


def compute_stats(corpus: list[DistilledInstance]) -> CorpusStats:
    """Exact counts over the records ``export`` can write from: those
    minimized and certified without running out of oracle budget.  Such
    a record with no positives still counts."""
    corpus = _distilled(corpus)
    instances = len(corpus)
    segments = sum(len(inst.context_segments) for inst in corpus)
    positives = sum(len(inst.minimal_leaf_ids) for inst in corpus)

    roles = {role.value: (0, 0) for role in SemanticRole} | _role_tally(corpus)
    bucket_segments = {bucket: 0 for _, bucket in SIZE_BUCKETS}
    bucket_positives = {bucket: 0 for _, bucket in SIZE_BUCKETS}
    for inst in corpus:
        bucket = next(label for most, label in SIZE_BUCKETS if len(inst.context_segments) <= most)
        bucket_segments[bucket] += len(inst.context_segments)
        bucket_positives[bucket] += len(inst.minimal_leaf_ids)

    return CorpusStats(
        instances=instances,
        segments=segments,
        positives=positives,
        relevance_density=positives / segments if segments else 0.0,
        avg_segments_per_instance=segments / instances if instances else 0.0,
        per_role_density={
            role: (kept / count if count else 0.0) for role, (count, kept) in roles.items()
        },
        density_by_size_bucket={
            bucket: (bucket_positives[bucket] / count if count else 0.0)
            for bucket, count in bucket_segments.items()
        },
    )
