"""Benchmark for ctxdistill: seeded workloads, checked outputs, end-to-end
metrics with tracing off and per-layer metrics from a traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload distill_paper --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

A single workload prints one row of metrics, then, as its last line, one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  ``--workload all`` runs every workload in
turn and prints one row per workload.  The exit status is 1 when any
output check fails and 2 when the checkout holds no ``src/ctxdistill``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import gen
from calibrate import Calibration

END_TO_END = {
    "setup_s": "s",
    "instance_s.p50": "s",
    "instance_s.tail": "s",
    "leaves_per_s": "1/s",
    "peak_rss_mb": "MB",
}
QUALITY = {
    "oracle_calls.mean": "count",
    "minimal_exact_share": "ratio",
    "certified_share": "ratio",
    "budget_overshoot.mean": "ratio",
    "fault_kept_share": "ratio",
    "failed_share": "ratio",
}
SETUP_REPEATS = 9

# One fresh interpreter per repeat: import the package and load every
# instance file, the work a user pays before the first instance runs.
# The interpreter then times the calibration reference, which rescales
# its set-up time to the reference host speed (see calibrate.py).
SETUP_PROBE = """
import json, sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from ctxdistill.instance import load_instance
for path in json.loads(open(sys.argv[2], encoding="utf-8").read()):
    load_instance(path)
setup = time.perf_counter() - start
sys.path.insert(0, sys.argv[3])
from calibrate import REFERENCE_S, Calibration
calibration = Calibration()
calibration.sample()
print(setup * REFERENCE_S / calibration.values[-1])
"""


def tail(samples: list[float]) -> tuple[float, float] | None:
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile); ``None`` when there are ten samples or fewer."""
    n = len(samples)
    if n <= 10:
        return None
    return sorted(samples)[n - 11], 100.0 * (n - 10) / n


def measure_setup(root: Path, planted: list, work: Path) -> float:
    listing = work / "instances.json"
    listing.write_text(json.dumps([p.instance_path for p in planted]), encoding="utf-8")
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(root / "src"), str(listing), str(Path(__file__).parent)],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def measure(workloads, run, planted, seconds, calibration, trace_dir=None, tracer=None, passes=None):
    """Run whole passes over the instances until ``seconds`` have passed,
    or exactly ``passes`` passes, so every instance runs equally often."""
    outcomes = []
    intervals = []
    start = perf_counter()
    i = 0
    while True:
        k = i % len(planted)
        if tracer is not None:
            tracer.current_instance = k
        calibration.maybe_sample()
        began = perf_counter()
        try:
            outcome = run(planted[k], trace_dir, tracer)
        except Exception as exc:  # one failing instance must not stop the run
            traceback.print_exc(file=sys.stderr)
            outcome = workloads.Outcome(perf_counter() - began, 0, [f"{type(exc).__name__}: {exc}"])
        intervals.append((began, perf_counter()))
        for problem in outcome.problems:
            print(f"check failed: {planted[k].instance_id}: {problem}", file=sys.stderr)
        outcomes.append(outcome)
        i += 1
        if i % len(planted) == 0:
            if passes is not None and i >= passes * len(planted):
                break
            if passes is None and perf_counter() - start >= seconds:
                break
    calibration.sample()
    for outcome, (began, ended) in zip(outcomes, intervals):
        outcome.seconds = outcome.wall * calibration.scale(began, ended)
    return outcomes


def end_to_end(outcomes: list, instances: int, setup_s: float) -> tuple[dict[str, float], dict]:
    """Timings are per instance: the median of its runs, which, unlike
    the fastest, does not drop as a faster host fits more passes into a
    run; the percentiles are taken over instances."""
    per_instance = [statistics.median(o.seconds for o in outcomes[k::instances]) for k in range(instances)]
    value, percentile = tail(per_instance)
    metrics = {
        "setup_s": setup_s,
        "instance_s.p50": statistics.median(per_instance),
        "instance_s.tail": value,
        "leaves_per_s": sum(o.leaves for o in outcomes[:instances]) / sum(per_instance),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info = {
        "tail_percentile": percentile,
        "samples": instances,
        "runs": len(outcomes),
        "wall_p50_s": statistics.median(o.wall for o in outcomes),
        "host_scale": statistics.median(o.seconds / o.wall for o in outcomes),
    }
    return metrics, info


def traced(workloads, run, planted, seconds, calibration, work: Path, out_dir: Path, name: str):
    """Untraced passes for the overhead baseline, then one traced pass."""
    from tracing import Tracer

    untraced = measure(workloads, run, planted, seconds / 2, calibration)
    trace_dir = work / "trace"
    tracer = Tracer(workloads.OBSERVERS)
    tracer.install()
    try:
        outcomes = measure(workloads, run, planted, 0, calibration, trace_dir, tracer, passes=1)
    finally:
        tracer.uninstall()

    metrics = workloads.per_layer(tracer, len(planted), trace_dir)
    totals = tracer.totals()
    instance_total = totals["bench.instance"]["s"]
    layer_total = sum(workloads.layer_self_times(totals).values())
    problems = []
    if abs(layer_total - instance_total) > 1e-6 * instance_total:
        problems.append(f"layer self times sum to {layer_total:.6f}s, instances took {instance_total:.6f}s")
    p50_untraced = statistics.median(o.seconds for o in untraced)
    p50_traced = statistics.median(o.seconds for o in outcomes)
    metrics["trace.p50_untraced_s"] = (p50_untraced, "s")
    metrics["trace.p50_traced_s"] = (p50_traced, "s")
    metrics["trace.overhead_ratio"] = (p50_traced / p50_untraced, "ratio")
    tracer.write(out_dir / f"{name}.spans.tsv.gz")
    return untraced, outcomes, metrics, problems


def run_workload(args, root: Path) -> int:
    sys.path.insert(0, str(root / "src"))
    import ctxdistill

    if not Path(ctxdistill.__file__).resolve().is_relative_to((root / "src").resolve()):
        print(f"error: ctxdistill imported from {ctxdistill.__file__}, not this checkout", file=sys.stderr)
        return 2
    import workloads

    name = f"{args.workload}-s{args.seed}-t{args.trace}"
    work = root / ".bench_work" / f"{name}-{os.getpid()}"
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (work / "tmp").mkdir(parents=True)
    tempfile.tempdir = str(work / "tmp")  # the LLM oracle's scratch repo copies
    try:
        planted = gen.generate(args.workload, args.seed, work / "inputs")
        calibration = Calibration(work if args.workload == "distill_llm" else None)
        setup_s = measure_setup(root, planted, work)
        run = workloads.runner(args.workload)
        problems: list[str] = []
        if args.trace:
            timed, first_pass, layer, problems = traced(
                workloads, run, planted, args.seconds, calibration, work, out_dir, name
            )
            outcomes = timed + first_pass
        else:
            outcomes = timed = measure(workloads, run, planted, args.seconds, calibration)
            first_pass = outcomes[: len(planted)]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    quality = workloads.quality(first_pass)
    e2e, tail_info = end_to_end(timed, len(planted), setup_s)
    failed = sum(bool(o.problems) for o in outcomes)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = failed == 0 and not problems
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "instances": len(planted),
        "digest": workloads.digest(first_pass),
        "end_to_end": e2e,
        **tail_info,
        "quality": quality,
        "correct": correct,
        "attempted": len(outcomes),
        "failed": failed,
        # instance index, wall seconds, rescaled seconds of every timed run
        "executions": [
            [i % len(planted), o.wall, o.seconds] for i, o in enumerate(timed)
        ],
    }
    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        for key, unit in QUALITY.items():
            metrics[key] = {"value": quality.get(key, 0.0), "unit": unit}
        report["per_layer"] = {k: m["value"] for k, m in metrics.items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": unit} for k, unit in END_TO_END.items()}
    (out_dir / f"{name}.json").write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    print(row(report))
    print(json.dumps({"correct": correct, "attempted": len(outcomes), "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def row(report: dict) -> str:
    """One line: every end-to-end and quality metric by name with its unit."""
    cells = [f"{report['workload']}:"]
    for key, unit in END_TO_END.items():
        cell = f"{key}={_fmt(report['end_to_end'][key])} {unit}"
        if key == "instance_s.tail":
            cell += f" (p{report['tail_percentile']:.1f} of {report['samples']} instances, {report['runs']} runs)"
        cells.append(cell)
    for key, unit in QUALITY.items():
        value = report["quality"].get(key)
        cells.append(f"{key}={'n/a' if value is None else _fmt(value)} {unit}")
    cells.append(f"wall_p50={_fmt(report['wall_p50_s'])} s  host_scale={report['host_scale']:.3f}")
    cells.append(f"digest={report['digest'][:16]}")
    return "  ".join(cells)


def run_all(args, root: Path) -> int:
    """Every workload in its own process, one row each."""
    status = 0
    rows = []
    for workload in gen.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=root,
        )
        status = status or proc.returncode
        report = root / ".bench_out" / f"{workload}-s{args.seed}-t{args.trace}.json"
        if proc.returncode in (0, 1) and report.exists():
            rows.append(row(json.loads(report.read_text(encoding="utf-8"))))
    print(f"\n{'=' * 20} seed {args.seed}, {args.seconds}s per workload {'=' * 20}")
    for line in rows:
        print(line)
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*gen.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if math.isnan(args.seconds) or args.seconds < 0:
        parser.error("--seconds must be a non-negative number")

    # The program's results depend on set iteration order (the GA sums
    # float priorities over frozensets), so the hash seed is part of the
    # seeded input: the same --seed repeats the same outputs.
    hash_seed = str(args.seed % 2**32)
    if argv is None and os.environ.get("PYTHONHASHSEED") != hash_seed:
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": hash_seed})

    root = Path.cwd()
    if not (root / "src" / "ctxdistill" / "__init__.py").is_file():
        print(f"error: {root} holds no src/ctxdistill; run from the root of a checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, root)
    return run_workload(args, root)


if __name__ == "__main__":
    sys.exit(main())
