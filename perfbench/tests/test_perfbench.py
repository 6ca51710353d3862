"""Tests of the benchmark itself: seeded generation, the output checks,
the tail rule, the output digest, the span tracer and the metric list.

Run from the root of a checkout: ``python3 -m pytest perfbench/tests -q``
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import gen
import run
import tracing
import workloads
from ctxdistill.compressor import HeuristicScorer, compress
from ctxdistill.config import RunConfig
from ctxdistill.instance import build_instance_tree, load_instance
from ctxdistill.pipeline import distill_instance

BENCH = Path(__file__).resolve().parents[1]


def _files(root: Path) -> dict[str, bytes]:
    """Every generated file, with the generation root masked out."""
    prefix = str(root.resolve()).encode()
    return {
        str(p.relative_to(root)): p.read_bytes().replace(prefix, b"<root>")
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic_per_seed(tmp_path, workload):
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        gen.generate(workload, seed, tmp_path / name, count=3)
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


def test_program_inputs_do_not_name_the_reference(tmp_path):
    planted = gen.generate("distill_paper", 1, tmp_path, count=2)
    assert (tmp_path / "reference.json").is_file()
    for p in planted:
        inputs = _files(Path(p.instance_path).parent)
        assert all(b"reference" not in data for data in inputs.values())


def _distilled(tmp_path):
    planted = gen.generate("distill_paper", 3, tmp_path, count=2)[1]  # has distractors
    assert planted.distractors
    record = distill_instance(load_instance(planted.instance_path), RunConfig()).record
    all_leaves, retained, _ = workloads._leaves(record)
    return planted, all_leaves, retained


def test_distill_check_accepts_the_program_result(tmp_path):
    planted, all_leaves, retained = _distilled(tmp_path)
    assert checks.check_distilled(all_leaves, retained, planted.required, True) == (True, [])


def test_distill_check_rejects_a_dropped_required_leaf(tmp_path):
    planted, all_leaves, retained = _distilled(tmp_path)
    exact, problems = checks.check_distilled(all_leaves, retained[1:], planted.required, True)
    assert not exact and problems
    # an uncertified result only counts as not exact
    assert checks.check_distilled(all_leaves, retained[1:], planted.required, False) == (False, [])


def test_distill_check_rejects_an_extra_leaf(tmp_path):
    planted, all_leaves, retained = _distilled(tmp_path)
    extra = next(leaf for leaf in all_leaves if leaf not in retained)
    exact, problems = checks.check_distilled(all_leaves, retained + [extra], planted.required, True)
    assert not exact and problems


def _compressed(tmp_path):
    planted = gen.generate("compress_scatter", 3, tmp_path, count=1)[0]
    instance = load_instance(planted.instance_path)
    tree = build_instance_tree(instance)
    text = compress(instance, tree, HeuristicScorer(tree), 5.0).rendered.dump_text()
    return planted, text


def test_compress_check_accepts_the_program_output(tmp_path):
    planted, text = _compressed(tmp_path)
    assert checks.check_compressed(text, planted.sources) == []
    assert checks.bytes4_tokens(text) > 0


def test_compress_check_rejects_an_invented_line(tmp_path):
    planted, text = _compressed(tmp_path)
    lines = text.splitlines(keepends=True)
    lines.insert(2, "    invented = helper(config)\n")
    assert checks.check_compressed("".join(lines), planted.sources)


def test_compress_check_rejects_lines_out_of_order(tmp_path):
    planted, text = _compressed(tmp_path)
    lines = text.splitlines(keepends=True)
    i = next(
        i for i in range(1, len(lines) - 1)
        if lines[i].strip() and lines[i + 1].strip() and lines[i] != lines[i + 1]
        and not checks.PLACEHOLDER.match(lines[i].rstrip("\n"))
        and not checks.PLACEHOLDER.match(lines[i + 1].rstrip("\n"))
        and not lines[i + 1].startswith(checks.FILE_SEPARATOR)
    )
    lines[i], lines[i + 1] = lines[i + 1], lines[i]
    assert checks.check_compressed("".join(lines), planted.sources)


def test_compress_check_rejects_an_unknown_file(tmp_path):
    planted, text = _compressed(tmp_path)
    assert checks.check_compressed("### FILE: nowhere.py\nx = 1\n", planted.sources)
    assert checks.check_compressed("x = 1\n" + text, planted.sources)
    assert checks.check_compressed("", planted.sources)


def test_fault_kept_needs_the_whole_fault_block(tmp_path):
    planted, text = _compressed(tmp_path)
    path, start, end = planted.fault
    block = "\n".join(planted.sources[path].splitlines()[start - 1 : end])
    with_fault = f"### FILE: {path}\n{block}\n"
    assert checks.fault_kept(with_fault, planted.sources, planted.fault)
    assert not checks.fault_kept(with_fault.replace(block.splitlines()[-1], ""), planted.sources, planted.fault)


def test_verdict_check_follows_the_fake_endpoint_rule():
    assert checks.check_verdict(3, 4, 3, True, [True] * 4) == []
    assert checks.check_verdict(0, 4, 0, False, [True] * 4) == []
    assert checks.check_verdict(3, 4, 2, True, [True] * 4)
    assert checks.check_verdict(0, 4, 0, True, [True] * 4)
    assert checks.check_verdict(3, 4, 3, True, [True, True, False, True])


def test_tail_is_omitted_on_ten_samples_or_fewer():
    assert run.tail([]) is None
    assert run.tail([1.0] * 10) is None


@pytest.mark.parametrize(
    ("n", "value", "percentile"),
    [(11, 0, 100 / 11), (20, 9, 50.0), (100, 89, 90.0), (300, 289, 100 * 290 / 300)],
)
def test_tail_leaves_ten_samples_beyond(n, value, percentile):
    samples = [float(v) for v in reversed(range(n))]
    assert run.tail(samples) == (value, pytest.approx(percentile))


def test_digest_repeats_for_a_seed_and_changes_with_it(tmp_path):
    def digest(name: str, seed: int) -> str:
        planted = gen.generate("distill_paper", seed, tmp_path / name, count=4)
        return workloads.digest([workloads.run_distill(p, False, None, None) for p in planted])

    assert digest("a", 5) == digest("b", 5)
    assert digest("a", 5) != digest("c", 6)


def test_self_times_add_up_to_the_instance_span():
    tracer = tracing.Tracer()
    leaf = tracer.wrap("m.leaf", lambda: sum(range(2000)))
    mid = tracer.wrap("m.mid", lambda: (leaf(), leaf()))
    for k in range(3):
        tracer.current_instance = k
        with tracer.span("bench.instance"):
            mid()
            leaf()
    totals = tracer.totals()
    assert totals["m.leaf"]["calls"] == 9 and totals["m.mid"]["calls"] == 3
    assert sum(row["self_s"] for row in totals.values()) == pytest.approx(totals["bench.instance"]["s"])
    assert all(row["self_s"] >= 0 for row in totals.values())


def test_install_rebinds_imported_names_and_uninstall_restores_them():
    import ctxdistill.code_model as code_model
    import ctxdistill.dataset as dataset
    import ctxdistill.oracle as oracle

    original = code_model.unit_text
    method = oracle.OracleSession.evaluate
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert code_model.unit_text is not original
        assert dataset.unit_text is code_model.unit_text
        assert oracle.OracleSession.evaluate is not method
    finally:
        tracer.uninstall()
    assert code_model.unit_text is original and dataset.unit_text is original
    assert oracle.OracleSession.evaluate is method


def test_benchmark_json_lists_the_metrics_the_benchmark_prints(tmp_path):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    printed = {name: unit for name, (_, unit) in workloads.per_layer(tracing.Tracer(), 1, tmp_path).items()}
    printed.update({"trace.p50_untraced_s": "s", "trace.p50_traced_s": "s", "trace.overhead_ratio": "ratio"})
    printed.update(run.QUALITY)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == printed


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "distill_paper", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2 and proc.stdout == ""
