"""Run the benchmark on two revisions in alternating pairs and record them.

Run from anywhere inside the repository:

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD --label head \\
        --workload distill_large compress_scatter --pairs 10 --seed 13 --seconds 15

Each revision is exported with ``git archive`` into its own temporary
directory.  Pair ``i`` runs ``python3 perfbench/run.py --workload W --seed S
--seconds T --trace 0`` once in each export, the parent first in even
pairs and the change first in odd ones, for every workload in turn.  To
measure uncommitted work, stage it and pass ``--change $(git stash
create)``, a commit of the index and working tree that no branch points to.

The result, ``BENCH_<label>.json`` at the repository root, holds every
run's report (end-to-end and quality metrics, digest, failures, the
median wall time and host scale behind the rescaled timings) and,
per workload and end-to-end metric, each side's median and quartiles, the
number of pairs the change won (ties count for neither side), the
change of the median and a verdict: ``worse``, ``gain``, ``unresolved``
or ``within bound``, as ``verdict`` defines them.  Which way is better,
and each metric's bound, come from ``BENCHMARK.json``.
The summary it prints ends, per workload, with whether the two sides'
digests agree, how many runs and instances failed on each side, and each
side's median passes per run over the generated instances.
``host`` records ``sys.flags.dont_write_bytecode``: with it set, every
``setup_s`` probe compiles the package from source.

After the pairs, each workload runs once more on each side with
``--seconds 2 --trace 1``.  A traced run checks what the timed runs do
not: that the self times of the traced layers add up to each instance's
time, which a public function called outside the ``bench.instance`` span
breaks.  ``traced`` records each such run's exit status and the checks
that failed, the summary prints them, and the exit status is 1 when a
traced run of the change side failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
TRACED_SECONDS = 2


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def export(rev: str, dest: Path) -> str:
    """Write ``rev``'s files into ``dest``; returns its full commit id."""
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return sha


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``checkout``; its report, plus the exit status."""
    report_path = checkout / ".bench_out" / f"{workload}-s{seed}-t0.json"
    report_path.unlink(missing_ok=True)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=30 * seconds + 600,
    )
    if not report_path.exists():
        raise RuntimeError(f"{workload} in {checkout} exited {proc.returncode} without a report:\n{proc.stderr}")
    report = json.loads(report_path.read_text(encoding="utf-8"))
    return {
        "exit": proc.returncode,
        "end_to_end": report["end_to_end"],
        "quality": report["quality"],
        "digest": report["digest"],
        "attempted": report["attempted"],
        "instances": report["instances"],
        "failed": report["failed"],
        "wall_p50_s": report["wall_p50_s"],
        "host_scale": report["host_scale"],
    }


def run_traced(checkout: Path, workload: str, seed: int) -> dict:
    """One traced run in ``checkout``: its exit status and failed checks."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(TRACED_SECONDS), "--trace", "1"],
        cwd=checkout, capture_output=True, text=True, timeout=30 * TRACED_SECONDS + 600,
    )
    failures = [line for line in proc.stderr.splitlines() if line.startswith("check failed")]
    if proc.returncode and not failures:
        failures = proc.stderr.splitlines()[-1:]
    return {"exit": proc.returncode, "failures": failures}


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """The verdict on one metric over paired runs, ``parent[i]`` and
    ``change[i]`` from pair ``i``; ``better`` and the relative ``bound``
    come from ``BENCHMARK.json``.  The first that holds of:

    - ``worse``: the change's median is worse than the parent's by more
      than ``bound`` times the parent's median.
    - ``gain``: the change won at least 9 of every 10 pairs, and its
      median is better than the parent's by more than the parent's
      quartile distance.
    - ``unresolved``: the parent's quartile distance is wider than
      ``bound`` times its median, and not every change run beats every
      parent run.
    - ``within bound``."""
    sign = 1 if better == "lower" else -1
    q1, median, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    gap = sign * (median - statistics.median(change))  # > 0: the change is better
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    if -gap > bound * abs(median):
        return "worse"
    if 10 * wins >= 9 * len(parent) and gap > q3 - q1:
        return "gain"
    if q3 - q1 > bound * abs(median) and not all(sign * (c - p) < 0 for p in parent for c in change):
        return "unresolved"
    return "within bound"


def summarize(runs: list[dict], metrics: dict[str, dict]) -> dict:
    """Per workload: each end-to-end metric's spread per side, the pairs
    the change won, the relative change of the median and the
    :func:`verdict`; the digests, failed runs (a non-zero exit) and
    failed instances each side saw, and each side's median passes per
    run (instances run over instances generated): a faster side fits more
    passes into a run, and on ``compress_scatter`` its ``instance_s.p50``
    and ``peak_rss_mb`` rise with the pass count.  ``metrics`` maps each
    metric to its ``BENCHMARK.json`` entry."""
    summary: dict = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs: dict[int, dict[str, dict]] = {}
        for r in runs:
            if r["workload"] == workload:
                pairs.setdefault(r["pair"], {})[r["side"]] = r
        complete = [p for _, p in sorted(pairs.items()) if len(p) == 2]
        row: dict = {"pairs": len(complete), "metrics": {}}
        for metric, declared in metrics.items():
            better = declared["better"]
            values = {side: [p[side]["end_to_end"][metric] for p in complete] for side in SIDES}
            sign = 1 if better == "lower" else -1
            wins = sum(sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"]))
            stats = {side: spread(values[side]) for side in SIDES}
            row["metrics"][metric] = {
                "better": better,
                "bound": declared["bound"],
                **stats,
                "change_wins": wins,
                "median_change": stats["change"]["median"] / stats["parent"]["median"] - 1,
                "verdict": verdict(values["parent"], values["change"], better, declared["bound"]),
            }
        for side in SIDES:
            side_runs = [p[side] for p in complete]
            row[f"{side}_digests"] = sorted({r["digest"][:16] for r in side_runs})
            row[f"{side}_failed"] = sum(r["failed"] for r in side_runs)
            row[f"{side}_failed_runs"] = sum(r["exit"] != 0 for r in side_runs)
            row[f"{side}_attempted"] = sum(r["attempted"] for r in side_runs)
            row[f"{side}_passes"] = statistics.median(r["attempted"] / r["instances"] for r in side_runs)
        summary[workload] = row
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="revision measured as the parent")
    parser.add_argument("--change", required=True, help="revision measured as the change")
    parser.add_argument("--label", required=True, help="the output is BENCH_<label>.json")
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument("--seconds", type=float, default=15)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in declared["end_to_end"]}
    out = ROOT / f"BENCH_{args.label}.json"
    result = {
        "label": args.label,
        "command": f"perfbench/run.py --workload W --seed {args.seed} --seconds {args.seconds:g} --trace 0",
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "cpus": len(os.sched_getaffinity(0)), "dont_write_bytecode": sys.flags.dont_write_bytecode},
        "summary": {},
        "runs": [],
    }
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as work:
        checkouts = {side: Path(work) / side for side in SIDES}
        result["revisions"] = {side: export(getattr(args, side), checkouts[side]) for side in SIDES}
        for pair in range(args.pairs):
            for workload in args.workload:
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                for position, side in enumerate(order):
                    run = run_once(checkouts[side], workload, args.seed, args.seconds)
                    result["runs"].append(
                        {"workload": workload, "pair": pair, "side": side, "position": position, **run}
                    )
                    p50 = run["end_to_end"]["instance_s.p50"]
                    print(f"pair {pair} {workload} {side}: instance_s.p50={p50:.6g} s", flush=True)
                    # written after every run, so an interrupted session keeps what it measured
                    out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        result["traced_command"] = f"perfbench/run.py --workload W --seed {args.seed} --seconds {TRACED_SECONDS} --trace 1"
        result["traced"] = []
        for workload in args.workload:
            for side in SIDES:
                traced = run_traced(checkouts[side], workload, args.seed)
                result["traced"].append({"workload": workload, "side": side, **traced})
                print(f"traced {workload} {side}: exit {traced['exit']}", flush=True)
                out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    result["summary"] = summarize(result["runs"], metrics)
    out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    for workload, row in result["summary"].items():
        for metric, m in row["metrics"].items():
            print(
                f"{workload} {metric}: parent {m['parent']['median']:.6g} [{m['parent']['q1']:.6g}, "
                f"{m['parent']['q3']:.6g}]  change {m['change']['median']:.6g} [{m['change']['q1']:.6g}, "
                f"{m['change']['q3']:.6g}]  {m['median_change']:+.1%}  change won {m['change_wins']}/{row['pairs']}"
                f"  {m['verdict']}"
            )
        agree = "agree" if row["parent_digests"] == row["change_digests"] else "differ"
        failures = "  ".join(
            f"{side} {row[f'{side}_failed_runs']}/{row['pairs']} runs, "
            f"{row[f'{side}_failed']}/{row[f'{side}_attempted']} instances failed"
            for side in SIDES
        )
        print(f"{workload} digests {agree} (parent {row['parent_digests']}, change {row['change_digests']})  {failures}")
        print(f"{workload} median passes per run: parent {row['parent_passes']:g}, change {row['change_passes']:g}")
    for run in result["traced"]:
        failures = "".join(f"\n    {line}" for line in run["failures"])
        print(f"traced {run['workload']} {run['side']}: exit {run['exit']}{failures}")
    print(f"wrote {out}")
    return int(any(run["exit"] for run in result["traced"] if run["side"] == "change"))


if __name__ == "__main__":
    sys.exit(main())
