"""End-to-end distillation of one instance: search for a sufficient
subset, minimize it, classify segment roles, and build the corpus record.

Phase II starts from the set the GA accepted.  ``use_ga=False`` is the
ablation path: one ``verify`` probe judges the whole context instead.
"""

from __future__ import annotations

import json
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, TextIO

from .code_model import SegmentKind, UnitTree, unit_text
from .config import RunConfig
from .dataset import (
    STATUS_MINIMIZED,
    STATUS_UNMINIMIZED,
    DistilledInstance,
    SegmentRecord,
    SemanticRole,
    classify_role,
    fault_facts,
)
from .ga_search import GAResult, run_ga
from .hdd import minimize
from .instance import Instance, InstanceError, build_instance_tree, resolve_leaf_locators
from .oracle import LLMOracle, MockOracle, Oracle, OracleSession, TraceWriter
from .priority import (
    CoverageReport,
    OutputError,
    PatchFormatError,
    PatchInfo,
    parse_patch,
    priority_map,
    read_input,
    writing,
)


# a record's kind and role strings, read without ``Enum.value``'s
# descriptor call per leaf
_KIND_TEXT = {kind: kind.value for kind in SegmentKind}
_ROLE_TEXT = {role: role.value for role in SemanticRole}


@dataclass
class DistillOutcome:
    record: DistilledInstance


def _open_trace(stack: ExitStack, trace_dir: Path | None, instance_id: str) -> TraceWriter | None:
    """The session's trace writer, closed with ``stack``; ``None`` when
    tracing is off.  GA probe records go to ``<id>.ga.jsonl``, all others
    to ``<id>.hdd.jsonl``; both files are written, even when empty.  A
    file that cannot be opened, written or closed raises ``OutputError``."""
    if trace_dir is None:
        return None
    ga, hdd = (
        stack.enter_context(_trace_file(trace_dir / f"{instance_id}.{name}.jsonl"))
        for name in ("ga", "hdd")
    )

    def write(record: dict) -> None:
        fh = ga if record["pass_level"] == "ga" else hdd
        try:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
        except OSError as exc:
            raise OutputError(f"cannot write trace file {fh.name}: {exc}") from exc

    return write


@contextmanager
def _trace_file(path: Path) -> Iterator[TextIO]:
    """``path`` open for writing, opened and closed under ``writing``."""
    with writing(path, "trace file"):
        fh = open(path, "w", encoding="utf-8")
    try:
        yield fh
    finally:
        with writing(path, "trace file"):
            fh.close()


def build_mock_oracle(instance: Instance, tree: UnitTree) -> MockOracle:
    """Mock oracle from the instance's planted locators; without any, the
    fault-enclosing leaves are treated as required."""
    if instance.mock_required:
        required = resolve_leaf_locators(tree, instance.mock_required)
    else:
        required = resolve_leaf_locators(
            tree,
            [{"path": fl.path, "line": fl.line} for fl in instance.fault_locations],
        )
    distractors = resolve_leaf_locators(tree, instance.mock_distractors)
    return MockOracle(required, distractors)


def load_priority_inputs(instance: Instance) -> tuple[PatchInfo, CoverageReport]:
    """The instance's gold patch and coverage report, each empty when the
    instance names none.  A file that cannot be read, decoded or parsed
    raises ``InstanceError`` naming it."""
    patch = PatchInfo.empty()
    if instance.gold_patch_path:
        try:
            patch = parse_patch(read_input(instance.gold_patch_path, "gold patch", InstanceError))
        except PatchFormatError as exc:
            raise InstanceError(f"gold patch {instance.gold_patch_path}: {exc}") from exc
    coverage = CoverageReport.empty()
    if instance.coverage_report_path:
        try:
            coverage = CoverageReport.load(instance.coverage_report_path)
        except ValueError as exc:
            raise InstanceError(str(exc)) from exc
    return patch, coverage


def _require_llm_inputs(instance: Instance) -> None:
    missing = [
        name
        for name in ("gold_patch_path", "coverage_report_path", "test_command")
        if not getattr(instance, name)
    ]
    if missing:
        raise InstanceError(
            "llm-oracle distillation requires: " + ", ".join(missing)
        )


def distill_instance(
    instance: Instance,
    config: RunConfig,
    oracle: Oracle | None = None,
    oracle_kind: str = "mock",
    use_ga: bool = True,
    trace_dir: str | Path | None = None,
) -> DistillOutcome:
    """Distill one instance into its corpus record.

    Phase I (``run_ga``) looks for a sufficient subset, and Phase II
    (``minimize``) shrinks the set it accepted to a certified 1-minimal
    one.  With ``use_ga`` off, a ``verify`` probe judges the whole
    context, and a rejected one is left unminimized.  Without an
    ``oracle`` one is built: the mock from the instance's planted
    locators, or ``LLMOracle`` for ``oracle_kind="llm"``.  With a
    ``trace_dir``, the oracle session writes one probe record per judged
    candidate: GA probes to ``<instance_id>.ga.jsonl``, verify, ddmin and
    certify probes to ``<instance_id>.hdd.jsonl``.  ``OracleSession``
    documents the record shape.
    """
    tree = build_instance_tree(instance)
    if oracle is None and oracle_kind == "llm":
        _require_llm_inputs(instance)
    patch, coverage = load_priority_inputs(instance)
    phi = priority_map(tree, patch, coverage, config.weights)

    trace_dir = Path(trace_dir) if trace_dir else None
    if oracle is None:
        if oracle_kind == "mock":
            oracle = build_mock_oracle(instance, tree)
        elif oracle_kind == "llm":
            oracle = LLMOracle(
                instance,
                tree,
                config.oracle,
                log_dir=trace_dir / "oracle-logs" if trace_dir else None,
            )
        else:
            raise ValueError(f"unknown oracle kind: {oracle_kind}")

    ga_result: GAResult | None = None
    with ExitStack() as traces:
        trace = _open_trace(traces, trace_dir, instance.instance_id)
        session = OracleSession(oracle, instance.instance_id, config.oracle, trace)
        if use_ga:
            ga_result = run_ga(tree, phi, patch, session, config.ga)
            start_leaves = ga_result.retained_leaf_ids
        else:
            start_leaves = frozenset(seg.id for seg in tree.leaves)
            # the session's first call, so within any budget
            if not session.evaluate(start_leaves, pass_level="verify", removed_count=0).sufficient:
                start_leaves = None
        min_result = None if start_leaves is None else minimize(start_leaves, tree, session, phi)

    facts = fault_facts(tree, instance.fault_locations)
    segments = []
    for seg in tree.leaves:
        # one text per leaf, for its record and its role
        text = unit_text(tree, seg)
        segments.append(
            SegmentRecord(
                id=seg.id,
                path=seg.path,
                kind=_KIND_TEXT[seg.kind],
                start_line=seg.span.start_line,
                end_line=seg.span.end_line,
                line_count=seg.span.line_count,
                text=text,
                role=_ROLE_TEXT[classify_role(seg, text, facts)],
            )
        )

    minimized = min_result is not None
    record = DistilledInstance(
        instance_id=instance.instance_id,
        repo=instance.repo,
        issue_text=instance.issue_text,
        fault_locations=list(instance.fault_locations),
        context_segments=segments,
        minimal_leaf_ids=min_result.retained_leaf_ids if min_result else frozenset(),
        one_minimal_certified=min_result.one_minimal_certified if min_result else False,
        oracle_calls=session.invocations,
        provenance={
            "ga_generations": ga_result.generations_run if ga_result else 0,
            "phase2_passes": len(min_result.per_level_removed) if min_result else 0,
        },
        status=STATUS_MINIMIZED if minimized else STATUS_UNMINIMIZED,
        budget_exhausted=session.exhausted,
    )
    return DistillOutcome(record=record)
