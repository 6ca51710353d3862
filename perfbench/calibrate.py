"""Host-speed calibration.

On a shared host the same work can take twice as long from one minute
to the next.  The benchmark therefore times a fixed reference task,
independent of the program, every quarter second through a run, and
rescales each measured time by ``REFERENCE_S / reference time nearby``.
A rescaled time reads in seconds on a host that runs the reference in
``REFERENCE_S``; a change to the program moves it exactly as it moves
the raw wall time, while a slow spell of the host cancels out.

The reference mixes the operations the program spends its time on:
parsing Python, walking the tree, hashing, splitting text and set
arithmetic.  For the LLM workload it also does what one oracle sample
does: copy a small repository, edit a file, run a shell test, delete the
copy.  A computing sample is the fastest of three timings, because a busy
host only ever adds time.  File and process operations slow down far
more than computing does when the host is busy, and the fastest of three
then misses most of it, so a sandbox sample is the median of three.
"""

from __future__ import annotations

import ast
import bisect
import hashlib
import random
import shutil
import statistics
import subprocess
from pathlib import Path
from time import perf_counter

REFERENCE_S = 0.006
INTERVAL_S = 0.25
WINDOW_S = 0.5


def _reference_source(functions: int) -> str:
    rng = random.Random(0)
    parts = []
    for i in range(functions):
        parts.append(
            f"def fn_{i}(config, value):\n"
            f"    total = config.get('k{i}', {rng.randrange(100)})\n"
            f"    if total > value:\n"
            f"        total -= value * {rng.randrange(1, 9)}\n"
            f"    for item in range({rng.randrange(2, 9)}):\n"
            f"        total += item\n"
            f"    return total\n"
        )
    return "\n\n".join(parts)


SOURCE = _reference_source(40)
SMALL_SOURCE = _reference_source(10)


def _compute(source: str) -> None:
    counts: dict[str, int] = {}
    for node in ast.walk(ast.parse(source)):
        name = type(node).__name__
        counts[name] = counts.get(name, 0) + 1
    seen: set[str] = set()
    for line in source.splitlines():
        hashlib.sha1(line.encode("utf-8")).hexdigest()
        seen |= set(line.split())


class Calibration:
    """Reference timings through a run, by time taken."""

    def __init__(self, scratch: Path | None = None):
        # with a scratch directory the reference computes less and also
        # mimics an oracle sample, for workloads whose time goes there
        self.scratch = scratch
        self.pick = min if scratch is None else statistics.median
        if scratch is not None:
            source = scratch / "calibration-src"
            for i in range(14):
                target = source / f"d{i % 2}" / f"f{i}.py"
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_text(SOURCE[: 400 * (i + 1)], encoding="utf-8")
        self.times: list[float] = []
        self.values: list[float] = []

    def _once(self) -> float:
        start = perf_counter()
        _compute(SOURCE if self.scratch is None else SMALL_SOURCE)
        if self.scratch is not None:
            copy = self.scratch / "calibration-copy"
            shutil.copytree(self.scratch / "calibration-src", copy)
            (copy / "d0" / "f0.py").write_text("fixed\n", encoding="utf-8")
            subprocess.run("grep -q -F fixed d0/f0.py", shell=True, cwd=copy, check=True)
            shutil.rmtree(copy)
        return perf_counter() - start

    def sample(self) -> None:
        """Time the reference three times and record the pick."""
        self.values.append(self.pick([self._once() for _ in range(3)]))
        self.times.append(perf_counter())

    def maybe_sample(self) -> None:
        if not self.times or perf_counter() - self.times[-1] >= INTERVAL_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the median reference time taken within
        WINDOW_S of the interval ``start``..``end``."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        nearby = self.values[lo:hi]
        if not nearby:
            i = min(bisect.bisect_left(self.times, start), len(self.values) - 1)
            nearby = [self.values[i]]
        return REFERENCE_S / statistics.median(nearby)
