"""Profile one benchmark workload function by function.

Run from anywhere, with the checkout that holds this file as the subject:

    python3 tools/profile_workload.py --workload distill_paper --seed 13
    python3 tools/profile_workload.py --workload distill_large --seed 13 --top 40 --sort cumtime

It generates the workload's instances with ``perfbench/gen.py`` in a
temporary directory and runs each once through the function that
``perfbench/workloads.runner`` returns, untraced and unprofiled, so that
imports, caches and the first compile are paid.  It then runs one more
pass under ``cProfile`` and prints the top ``N`` functions by ``tottime``
(seconds in the function itself) or ``cumtime`` (seconds including its
callees), each with its calls and both times per instance.  The pass
includes the benchmark's output checks, which ``perfbench/run.py``
leaves out of its timings, and the profiler's own overhead, so read it
for where time goes, not for the benchmark's figures.

The script re-runs itself under ``PYTHONHASHSEED=<seed>``, as
``perfbench/run.py`` does, so a seed repeats its searches.  It imports
``perfbench`` read-only and writes no bytecode, so nothing under
``perfbench/`` changes.
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SORT_KEYS = {"tottime": 2, "cumtime": 3}  # index into a pstats row (cc, nc, tt, ct, callers)


def _label(func: tuple[str, int, str]) -> str:
    """``path:line(name)``, the path relative to the checkout when inside it."""
    filename, line, name = func
    if filename == "~":  # a built-in function
        return name
    path = Path(filename)
    if path.is_relative_to(ROOT):
        filename = path.relative_to(ROOT).as_posix()
    return f"{filename}:{line}({name})"


def profile(workload: str, seed: int) -> tuple[int, float, pstats.Stats]:
    """Instances, profiled wall seconds, and the profile of one pass."""
    import gen
    import workloads

    run = workloads.runner(workload)
    with tempfile.TemporaryDirectory(prefix="profile-workload-") as work:
        planted = gen.generate(workload, seed, Path(work) / "inputs")
        tempfile.tempdir = work  # the LLM oracle's scratch repo copies
        try:
            for p in planted:
                run(p, None, None)
            profiler = cProfile.Profile()
            start = perf_counter()
            profiler.enable()
            for p in planted:
                run(p, None, None)
            profiler.disable()
            wall = perf_counter() - start
        finally:
            tempfile.tempdir = None
    return len(planted), wall, pstats.Stats(profiler)


def table(stats: pstats.Stats, instances: int, top: int, sort: str) -> list[str]:
    """The top functions by ``sort``, with calls and seconds per instance."""
    key = SORT_KEYS[sort]
    rows = sorted(stats.stats.items(), key=lambda item: (-item[1][key], _label(item[0])))[:top]
    lines = [f"{'calls':>10} {'tottime_us':>11} {'cumtime_us':>11}  function  (per instance)"]
    for func, (_, calls, tottime, cumtime, _) in rows:
        lines.append(
            f"{calls / instances:>10.2f} {tottime / instances * 1e6:>11.1f} "
            f"{cumtime / instances * 1e6:>11.1f}  {_label(func)}"
        )
    return lines


def main() -> int:
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import gen

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--top", type=int, default=30)
    parser.add_argument("--sort", choices=tuple(SORT_KEYS), default="tottime")
    args = parser.parse_args()
    if args.top < 1:
        parser.error("--top must be at least 1")

    hash_seed = str(args.seed % 2**32)
    if os.environ.get("PYTHONHASHSEED") != hash_seed:
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONDONTWRITEBYTECODE": "1"}
        return subprocess.run([sys.executable, __file__, *sys.argv[1:]], env=env).returncode

    instances, wall, stats = profile(args.workload, args.seed)
    print(
        f"{args.workload} seed {args.seed}: {instances} instances, python {sys.version.split()[0]}, "
        f"profiled pass {wall / instances * 1e3:.3f} ms per instance, sorted by {args.sort}"
    )
    for line in table(stats, instances, args.top, args.sort):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
