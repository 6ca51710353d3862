"""One instance of each workload, run the way the command line runs it,
plus the output checks and the per-layer metrics of a traced run.

Imported only after ``src`` is on ``sys.path``.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

# calls go through module attributes, so a traced run's wrappers see them
import ctxdistill.compressor as compressor
import ctxdistill.instance as instance_files
import ctxdistill.oracle as oracle_mod
import ctxdistill.pipeline as pipeline
from ctxdistill.config import RunConfig

import checks
from gen import Planted
from tracing import Tracer

RATE = 5.0
CONFIG = RunConfig()


@dataclass
class Outcome:
    wall: float
    leaves: int
    # wall rescaled to the reference host speed, see calibrate.py
    seconds: float = 0.0
    problems: list[str] = field(default_factory=list)
    digest: bytes = b""
    oracle_calls: int | None = None
    exact: bool | None = None
    certified: bool | None = None
    overshoot: float | None = None
    fault_kept: bool | None = None


class FakeEndpoint:
    """In-process stand-in for a chat-completion endpoint.  When the
    prompt holds every planted marker it answers with the fixing patch on
    three of every four samples; otherwise every sample gets a patch that
    applies but does not fix."""

    def __init__(self, planted: Planted):
        self.planted = planted
        self.fixes_sent: list[int] = []

    def __call__(self, url: str, payload: dict, headers: dict, timeout: int) -> dict:
        prompt = payload["messages"][0]["content"]
        fix = all(marker in prompt for marker in self.planted.markers)
        fixing = [fix and i % 4 != 3 for i in range(payload["n"])]
        patches = [self.planted.fix_patch if f else self.planted.nofix_patch for f in fixing]
        self.fixes_sent.append(sum(fixing))
        return {"choices": [{"message": {"content": f"```diff\n{p}```"}} for p in patches]}


class CheckedOracle:
    """Passes evaluations through to the LLM oracle and checks each
    verdict against the fake endpoint's rule."""

    def __init__(self, inner: oracle_mod.LLMOracle, endpoint: FakeEndpoint):
        self.inner = inner
        self.endpoint = endpoint
        self.problems: list[str] = []

    def evaluate(self, included_leaf_ids: frozenset[str]):
        verdict = self.inner.evaluate(included_leaf_ids)
        self.problems += checks.check_verdict(
            self.endpoint.fixes_sent[-1],
            verdict.samples,
            verdict.passes,
            verdict.sufficient,
            [o.applied for o in verdict.per_sample],
        )
        return verdict


def _leaves(record) -> tuple[list[checks.Leaf], list[checks.Leaf], list]:
    all_leaves, retained, texts = [], [], []
    for seg in record.context_segments:
        leaf = checks.Leaf(seg.path, seg.start_line, seg.end_line)
        all_leaves.append(leaf)
        if seg.id in record.minimal_leaf_ids:
            retained.append(leaf)
            texts.append(seg.text)
    return all_leaves, retained, texts


def _instance_span(tracer: Tracer | None):
    return tracer.span("bench.instance") if tracer else nullcontext()


def run_distill(planted: Planted, llm: bool, trace_dir: Path | None, tracer: Tracer | None) -> Outcome:
    oracle = None
    with _instance_span(tracer):
        start = perf_counter()
        instance = instance_files.load_instance(planted.instance_path)
        if llm:
            endpoint = FakeEndpoint(planted)
            oracle = CheckedOracle(
                oracle_mod.LLMOracle(
                    instance,
                    instance_files.build_instance_tree(instance),
                    CONFIG.oracle,
                    endpoint="http://endpoint.invalid/v1/chat",
                    model="fake",
                    transport=tracer.wrap("endpoint.transport", endpoint) if tracer else endpoint,
                    log_dir=trace_dir / "oracle-logs" if trace_dir else None,
                    retry_sleep=0.0,
                ),
                endpoint,
            )
        record = pipeline.distill_instance(instance, CONFIG, oracle=oracle, trace_dir=trace_dir).record
        wall = perf_counter() - start

    all_leaves, retained, texts = _leaves(record)
    exact, problems = checks.check_distilled(
        all_leaves, retained, planted.required, record.one_minimal_certified
    )
    if len(all_leaves) != planted.leaves:
        problems.append(f"{len(all_leaves)} leaf segments, generator planted {planted.leaves}")
    if oracle is not None:
        problems += oracle.problems
    spans = sorted((leaf.path, leaf.start, leaf.end) for leaf in retained)
    digest = json.dumps([record.instance_id, record.oracle_calls, spans, texts]).encode()
    return Outcome(
        wall=wall,
        leaves=len(all_leaves),
        problems=problems,
        digest=digest,
        oracle_calls=record.oracle_calls,
        exact=exact,
        certified=record.one_minimal_certified,
    )


def run_compress(planted: Planted, trace_dir: Path | None, tracer: Tracer | None) -> Outcome:
    with _instance_span(tracer):
        start = perf_counter()
        instance = instance_files.load_instance(planted.instance_path)
        tree = instance_files.build_instance_tree(instance)
        result = compressor.compress(instance, tree, compressor.HeuristicScorer(tree), RATE)
        wall = perf_counter() - start

    text = result.rendered.dump_text()
    problems = checks.check_compressed(text, planted.sources)
    if result.compressed_tokens != checks.bytes4_tokens(text):
        problems.append(f"reported {result.compressed_tokens} tokens, output has {checks.bytes4_tokens(text)}")
    budget = compressor.CompressionBudget.from_rate(result.initial_tokens, RATE).budget_tokens
    digest = json.dumps([planted.instance_id, 0, text]).encode()
    return Outcome(
        wall=wall,
        leaves=planted.leaves,
        problems=problems,
        digest=digest,
        overshoot=max(0.0, result.compressed_tokens / budget - 1),
        fault_kept=checks.fault_kept(text, planted.sources, planted.fault),
    )


def runner(workload: str):
    """``run(planted, trace_dir, tracer) -> Outcome`` for a workload."""
    if workload == "compress_scatter":
        return run_compress
    llm = workload == "distill_llm"
    return lambda planted, trace_dir, tracer: run_distill(planted, llm, trace_dir, tracer)


def digest(outcomes: list[Outcome]) -> str:
    h = hashlib.sha256()
    for outcome in outcomes:
        h.update(outcome.digest)
        h.update(b"\x00")
    return h.hexdigest()


def quality(outcomes: list[Outcome]) -> dict[str, float]:
    """Output-quality figures that apply to the workload's outcomes."""
    n = len(outcomes)
    out = {"failed_share": sum(bool(o.problems) for o in outcomes) / n}
    if outcomes[0].oracle_calls is not None:
        out["oracle_calls.mean"] = sum(o.oracle_calls for o in outcomes) / n
        out["minimal_exact_share"] = sum(bool(o.exact) for o in outcomes) / n
        out["certified_share"] = sum(bool(o.certified) for o in outcomes) / n
    if outcomes[0].overshoot is not None:
        out["budget_overshoot.mean"] = sum(o.overshoot for o in outcomes) / n
        out["fault_kept_share"] = sum(bool(o.fault_kept) for o in outcomes) / n
    return out


# --- traced run -------------------------------------------------------------------


def _on_session(tracer: Tracer, verdict) -> None:
    c = tracer.counters
    c["session.requests"] += 1
    if verdict.cache_hit:
        c["session.cache_hits"] += 1
    else:
        phase = tracer.ancestor(("ga_search.run_ga", "hdd.minimize"))
        c["session.fresh.ga" if phase == "ga_search.run_ga" else "session.fresh.minimize"] += 1


def _on_llm(tracer: Tracer, verdict) -> None:
    c = tracer.counters
    for sample in verdict.per_sample:
        c["llm.samples"] += 1
        c["llm.sample_s"] += sample.duration_seconds
        c["llm.applied"] += sample.applied
        c["llm.passed"] += sample.test_exit_status == 0


def _on_render(tracer: Tracer, rendered) -> None:
    tracer.counters["render.tokens"] += rendered.total_tokens


def _on_ga(tracer: Tracer, result) -> None:
    tracer.counters["ga.generations"] += result.generations_run


def _on_compress(tracer: Tracer, result) -> None:
    tracer.counters["compress.achieved_rate"] += result.achieved_rate


OBSERVERS = {
    "oracle.OracleSession.evaluate": _on_session,
    "oracle.LLMOracle.evaluate": _on_llm,
    "render.render": _on_render,
    "ga_search.run_ga": _on_ga,
    "compressor.compress": _on_compress,
}

# layers whose self times partition a traced instance: the program's
# modules, the fake endpoint, and the benchmark's own code around them
LAYERS = (
    "bench", "endpoint", "code_model", "compressor", "dataset", "ga_search",
    "hdd", "instance", "oracle", "pipeline", "priority", "render", "tokens",
)
PROBE_LEVELS = ("verify", "file", "function", "block", "certify")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer: Tracer, instances: int, trace_dir: Path) -> dict[str, tuple[float, str]]:
    """Per-instance means of the traced spans and counters, by metric name."""
    totals = tracer.totals()
    c = tracer.counters
    n = instances

    def calls(name: str) -> float:
        return totals.get(name, {}).get("calls", 0) / n

    def secs(name: str, key: str = "s") -> float:
        return totals.get(name, {}).get(key, 0.0) / n

    probes = dict.fromkeys(PROBE_LEVELS, 0)
    for path in sorted(trace_dir.glob("*.hdd.jsonl")):
        for line in path.read_text(encoding="utf-8").splitlines():
            probes[json.loads(line)["pass_level"]] += 1

    requests = c["session.requests"]
    samples = c["llm.samples"]
    metrics: dict[str, tuple[float, str]] = {
        "dataset.classify_role.calls": (calls("dataset.classify_role"), "count"),
        "dataset.classify_role.s": (secs("dataset.classify_role"), "s"),
        "code_model.enclosing_unit.calls": (calls("code_model.enclosing_unit"), "count"),
        "code_model.enclosing_unit.s": (secs("code_model.enclosing_unit"), "s"),
        "code_model.unit_text.calls": (calls("code_model.unit_text"), "count"),
        "code_model.unit_text.s": (secs("code_model.unit_text"), "s"),
        "priority.priority_map.s": (secs("priority.priority_map"), "s"),
        "ga_search.run_ga.self_s": (secs("ga_search.run_ga", "self_s"), "s"),
        "ga_search.generations": (c["ga.generations"] / n, "count"),
        "hdd.minimize.self_s": (secs("hdd.minimize", "self_s"), "s"),
        **{f"hdd.probes.{level}": (probes[level] / n, "count") for level in PROBE_LEVELS},
        "oracle.session.requests": (requests / n, "count"),
        "oracle.session.fresh": ((requests - c["session.cache_hits"]) / n, "count"),
        "oracle.session.cache_hits": (c["session.cache_hits"] / n, "count"),
        "oracle.session.cache_hit_ratio": (_ratio(c["session.cache_hits"], requests), "ratio"),
        "oracle.session.fresh.ga": (c["session.fresh.ga"] / n, "count"),
        "oracle.session.fresh.minimize": (c["session.fresh.minimize"] / n, "count"),
        "oracle.llm.evaluate.s": (secs("oracle.LLMOracle.evaluate"), "s"),
        "oracle.llm.transport.s": (secs("endpoint.transport"), "s"),
        "oracle.llm.samples": (samples / n, "count"),
        "oracle.llm.sample_s": (_ratio(c["llm.sample_s"], samples), "s"),
        "oracle.apply_patch_text.calls": (calls("oracle.apply_patch_text"), "count"),
        "oracle.apply_patch_text.s": (secs("oracle.apply_patch_text"), "s"),
        "oracle.llm.patch_applied_ratio": (_ratio(c["llm.applied"], samples), "ratio"),
        "oracle.llm.sample_pass_ratio": (_ratio(c["llm.passed"], samples), "ratio"),
        "render.render.calls": (calls("render.render"), "count"),
        "render.render.s": (secs("render.render"), "s"),
        "render.render_full.s": (secs("render.render_full"), "s"),
        "render.rendered_tokens": (_ratio(c["render.tokens"], totals.get("render.render", {}).get("calls", 0)), "tokens"),
        "compressor.score_segments.s": (secs("compressor.score_segments"), "s"),
        "compressor.select_greedy.s": (secs("compressor.select_greedy"), "s"),
        "compressor.achieved_rate": (_ratio(c["compress.achieved_rate"], totals.get("compressor.compress", {}).get("calls", 0)), "ratio"),
        "instance.build_instance_tree.s": (secs("instance.build_instance_tree"), "s"),
        "instance.load_instance.s": (secs("instance.load_instance"), "s"),
        "pipeline.distill_instance.self_s": (secs("pipeline.distill_instance", "self_s"), "s"),
    }
    for layer, self_s in layer_self_times(totals).items():
        metrics[f"{layer}.self_s"] = (self_s / n, "s")
    metrics["trace.instance_s"] = (secs("bench.instance"), "s")
    return metrics


def layer_self_times(totals: dict[str, dict[str, float]]) -> dict[str, float]:
    """Self seconds summed per layer, the span name's first component."""
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, row in totals.items():
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + row["self_s"]
    return layer_self
