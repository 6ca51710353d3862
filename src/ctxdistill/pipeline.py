"""End-to-end distillation of one instance: search for a sufficient
subset, minimize it, classify segment roles, and build the corpus record.

``use_ga=False`` is the ablation path: the initial context is tested
directly and, when sufficient, handed straight to minimization.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import IO

from .code_model import UnitTree, leaf_segments, unit_text
from .config import RunConfig
from .dataset import (
    STATUS_MINIMIZED,
    STATUS_UNMINIMIZED,
    DistilledInstance,
    SegmentRecord,
    classify_role,
    fault_facts,
)
from .ga_search import GAResult, retained_leaf_ids, run_ga, GenomeSpace
from .hdd import MinimizationResult, minimize
from .instance import Instance, InstanceError, build_instance_tree, resolve_leaf_locators
from .oracle import (
    LLMOracle,
    MockOracle,
    Oracle,
    OracleBudgetExhausted,
    OracleSession,
)
from .priority import CoverageReport, PatchInfo, parse_patch, priority_map


@dataclass
class DistillOutcome:
    record: DistilledInstance
    ga: GAResult | None
    minimization: MinimizationResult | None
    budget_exhausted: bool


class _TraceFile:
    def __init__(self, path: Path | None):
        self._fh: IO[str] | None = None
        if path is not None:
            path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(path, "w", encoding="utf-8")

    def __call__(self, record: dict) -> None:
        if self._fh is not None:
            self._fh.write(json.dumps(record, sort_keys=True) + "\n")

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()


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
    patch = PatchInfo.empty()
    if instance.gold_patch_path:
        patch_text = Path(instance.gold_patch_path).read_text(encoding="utf-8")
        patch = parse_patch(patch_text)
    coverage = CoverageReport.empty()
    if instance.coverage_report_path:
        coverage = CoverageReport.load(instance.coverage_report_path)
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
    session = OracleSession(oracle, instance.instance_id, config.oracle)
    ga_trace = _TraceFile(trace_dir / f"{instance.instance_id}.ga.jsonl" if trace_dir else None)
    hdd_trace = _TraceFile(trace_dir / f"{instance.instance_id}.hdd.jsonl" if trace_dir else None)

    ga_result: GAResult | None = None
    start_leaves: frozenset[str] | None = None
    budget_exhausted = False
    try:
        if use_ga:
            ga_result = run_ga(tree, phi, patch, session, config.ga, trace=ga_trace)
            budget_exhausted = ga_result.budget_exhausted
            if ga_result.genome is not None:
                start_leaves = retained_leaf_ids(ga_result.genome, GenomeSpace(tree))
        else:
            all_leaves = frozenset(seg.id for seg in leaf_segments(tree))
            try:
                verdict = session.evaluate(all_leaves)
                if verdict.sufficient:
                    start_leaves = all_leaves
            except OracleBudgetExhausted:
                budget_exhausted = True

        min_result: MinimizationResult | None = None
        if start_leaves is not None:
            min_result = minimize(start_leaves, tree, session, phi, trace=hdd_trace)
    finally:
        ga_trace.close()
        hdd_trace.close()

    facts = fault_facts(tree, instance.fault_locations)
    segments = []
    for seg in leaf_segments(tree):
        segments.append(
            SegmentRecord(
                id=seg.id,
                path=seg.path,
                kind=seg.kind.value if seg.kind else "",
                start_line=seg.span.start_line,
                end_line=seg.span.end_line,
                line_count=seg.source_line_count,
                text=unit_text(tree, seg),
                role=classify_role(seg, tree, facts).value,
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
    )
    return DistillOutcome(
        record=record,
        ga=ga_result,
        minimization=min_result,
        budget_exhausted=budget_exhausted,
    )
