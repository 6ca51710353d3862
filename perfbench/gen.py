"""Seeded input generator for the benchmark workloads.

``generate(workload, seed, root)`` writes everything the program reads
(instance JSON, repository files, gold patch, coverage report) under
``root`` and returns the planted reference for each instance.  The
reference is also written to ``root/reference.json``, a sidecar the
program never reads.  The same workload and seed always produce the
same bytes.

Sources are synthetic Python modules whose layout the generator knows
line by line, so the reference names required, distractor and fault
segments as ``[path, start_line, end_line]`` spans, independent of the
program's segment ids.
"""

from __future__ import annotations

import difflib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("distill_paper", "distill_large", "compress_scatter", "distill_llm")

# Identifiers many segments share: issue texts name some of them, so an
# identifier-overlap scorer spreads its picks across files.
SHARED = (
    "config", "cache", "payload", "record", "session", "buffer", "index",
    "total", "offset", "limit", "registry", "handler", "result", "options",
)
STEMS = (
    "load", "parse", "render", "merge", "resolve", "encode", "decode", "fetch",
    "update", "build", "apply", "check", "collect", "format", "scan", "split",
)
NOUNS = (
    "entry", "header", "token", "chunk", "frame", "column", "node", "field",
    "batch", "route", "query", "scope", "layer", "block", "window", "table",
)


@dataclass(frozen=True)
class Block:
    """Statement lines of one planted leaf segment (1-based, inclusive)."""

    path: str
    start: int
    end: int
    key_line: int

    def span(self) -> list:
        return [self.path, self.start, self.end]


@dataclass
class Function:
    name: str
    path: str
    blocks: list[Block]


@dataclass
class SourceFile:
    path: str
    lines: list[str] = field(default_factory=list)
    functions: list[Function] = field(default_factory=list)

    @property
    def text(self) -> str:
        return "\n".join(self.lines) + "\n"

    def leaf_count(self) -> int:
        # the import/constant fragment is one leaf; each function adds its blocks
        return 1 + sum(len(f.blocks) for f in self.functions)


@dataclass
class Planted:
    """What the generator knows about one instance; the benchmark's
    output checks compare the program's results against it."""

    instance_id: str
    instance_path: str
    leaves: int
    required: list[list]
    distractors: list[list]
    fault: list
    fault_symbol: str
    sources: dict[str, str]
    # distill_llm only: texts whose presence in a prompt makes the fake
    # endpoint answer with the fixing patch, and the two patches it returns
    markers: list[str] = field(default_factory=list)
    fix_patch: str = ""
    nofix_patch: str = ""

    def to_json(self) -> dict:
        return {
            "instance_id": self.instance_id,
            "instance_path": self.instance_path,
            "leaves": self.leaves,
            "required": self.required,
            "distractors": self.distractors,
            "fault": self.fault,
            "fault_symbol": self.fault_symbol,
            "markers": self.markers,
        }


# --- source synthesis ------------------------------------------------------------


class _Namer:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[str] = set()

    def function(self) -> str:
        while True:
            name = f"{self.rng.choice(STEMS)}_{self.rng.choice(NOUNS)}_{self.rng.randrange(1000)}"
            if name not in self.used:
                self.used.add(name)
                return name


def _simple_lines(rng: random.Random, tag: str, callees: list[str], count: int) -> list[str]:
    lines = []
    for i in range(count):
        shared = rng.choice(SHARED)
        if callees and rng.random() < 0.4:
            lines.append(f"    {tag}_v{i} = {rng.choice(callees)}({shared}, {rng.randrange(100)})")
        else:
            lines.append(f"    {tag}_v{i} = {shared}.get('{tag}_{i}', {rng.randrange(100)})")
    return lines


def _compound_lines(rng: random.Random, tag: str, k: int) -> list[str]:
    shared = rng.choice(SHARED)
    kind = rng.randrange(4)
    if kind == 0:
        return [
            f"    if {tag}_v0 > {rng.randrange(50)}:",
            f"        {tag}_v0 = {tag}_v0 - {shared}.{tag}_c{k}",
        ]
    if kind == 1:
        return [
            f"    for {tag}_it{k} in range({rng.randrange(2, 9)}):",
            f"        {tag}_v0 += {tag}_it{k} * {rng.randrange(1, 9)}",
        ]
    if kind == 2:
        return [
            f"    while {tag}_v0 > {rng.randrange(100, 900)}:",
            f"        {tag}_v0 //= {rng.randrange(2, 5)} + {k}",
        ]
    return [
        "    try:",
        f"        {tag}_v0 = int({shared}.{tag}_c{k})",
        "    except (TypeError, ValueError):",
        f"        {tag}_v0 = {rng.randrange(10)}",
    ]


def _add_function(
    src: SourceFile, rng: random.Random, namer: _Namer, blocks: int, callees: list[str]
) -> Function:
    """Append one function of ``blocks`` leaf segments (1..5) to ``src``."""
    name = namer.function()
    tag = f"x{len(namer.used)}"
    src.lines.append("")
    src.lines.append("")
    start = len(src.lines) + 1
    src.lines.append(f"def {name}({rng.choice(SHARED)}, {tag}_arg):")
    planted: list[Block] = []

    if blocks == 1:
        body = _simple_lines(rng, tag, callees, rng.randint(1, 2))
        body.append(f"    return {tag}_v0")
        src.lines.extend(body)
        planted.append(Block(src.path, start, len(src.lines), start + 1))
    else:
        body = _simple_lines(rng, tag, callees, rng.randint(1, 3))
        src.lines.extend(body)
        planted.append(Block(src.path, start, len(src.lines), start + 1))
        compounds = blocks - 1 if blocks == 2 else blocks - 2
        for k in range(compounds):
            first = len(src.lines) + 1
            src.lines.extend(_compound_lines(rng, tag, k))
            planted.append(Block(src.path, first, len(src.lines), first + 1))
        if blocks > 2:
            first = len(src.lines) + 1
            src.lines.append(f"    return {tag}_v0")
            planted.append(Block(src.path, first, first, first))
    function = Function(name, src.path, planted)
    src.functions.append(function)
    return function


def _new_file(path: str, rng: random.Random) -> SourceFile:
    src = SourceFile(path)
    src.lines.extend(["import os", "import re", f"{rng.choice(SHARED).upper()}_LIMIT = {rng.randrange(10, 99)}"])
    return src


def _block_count(rng: random.Random) -> int:
    return rng.choice((1, 2, 3, 3, 4, 4, 5))


def _grow_files(
    rng: random.Random,
    namer: _Namer,
    n_files: int,
    target_leaves: int,
    pkg: str,
    function_blocks: int | None = None,
) -> list[SourceFile]:
    """Fill ``n_files`` modules round-robin with functions until the total
    leaf count reaches ``target_leaves``; each function gets
    ``function_blocks`` leaf segments, or a random 1-5 when it is None."""
    files = [_new_file(f"{pkg}/mod_{i}.py", rng) for i in range(n_files)]
    total = sum(f.leaf_count() for f in files)
    names: list[str] = []
    i = 0
    while total < target_leaves:
        src = files[i % n_files]
        blocks = min(function_blocks or _block_count(rng), target_leaves - total)
        callees = rng.sample(names, min(2, len(names)))
        function = _add_function(src, rng, namer, blocks, callees)
        names.append(function.name)
        total += blocks
        i += 1
    return files


# --- planting -----------------------------------------------------------------------


def _fault_block(rng: random.Random, function: Function) -> Block:
    multi = [b for b in function.blocks[1:] if b.end > b.start]
    return rng.choice(multi) if multi else function.blocks[0]


def _patch(path: str, old: list[str], new: list[str]) -> str:
    return "".join(
        difflib.unified_diff(
            [line + "\n" for line in old],
            [line + "\n" for line in new],
            fromfile=f"a/{path}",
            tofile=f"b/{path}",
        )
    )


def _edit_line(lines: list[str], line_no: int, suffix: str) -> list[str]:
    edited = list(lines)
    edited[line_no - 1] = edited[line_no - 1] + suffix
    return edited


def _coverage(rng: random.Random, files: list[SourceFile], hot: list[Function]) -> dict:
    covered: dict[str, set[int]] = {}
    hot_names = {f.name for f in hot}
    for src in files:
        for function in src.functions:
            first, last = function.blocks[0].start, function.blocks[-1].end
            if function.name in hot_names or rng.random() < 0.2:
                covered.setdefault(src.path, set()).update(range(first, last + 1))
    return {"files": {path: sorted(lines) for path, lines in sorted(covered.items())}}


def _issue_text(rng: random.Random, fault: Function, scatter: bool) -> str:
    shared = rng.sample(SHARED, 5 if scatter else 2)
    text = (
        f"`{fault.name}` returns a wrong value when the {shared[0]} and {shared[1]} "
        f"disagree."
    )
    if scatter:
        text += " It also seems to touch " + ", ".join(shared[2:]) + " along the way."
    return text


def _write_instance(
    inst_dir: Path,
    instance_id: str,
    files: list[SourceFile],
    repo_files: dict[str, str],
    issue: str,
    fault_block: Block,
    fault_symbol: str,
    patch_text: str,
    coverage: dict,
    extra: dict,
) -> Path:
    repo = inst_dir / "repo"
    for rel, text in repo_files.items():
        target = repo / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text, encoding="utf-8")
    (inst_dir / "gold.patch").write_text(patch_text, encoding="utf-8")
    (inst_dir / "coverage.json").write_text(json.dumps(coverage, sort_keys=True), encoding="utf-8")
    data = {
        "instance_id": instance_id,
        "issue_text": issue,
        "fault_location": [
            {"path": fault_block.path, "line": fault_block.key_line, "symbol": fault_symbol}
        ],
        "context_files": [{"path": src.path} for src in files],
        "repo_root": str(repo.resolve()),
        "gold_patch_path": str((inst_dir / "gold.patch").resolve()),
        "coverage_report_path": str((inst_dir / "coverage.json").resolve()),
        **extra,
    }
    path = inst_dir / "instance.json"
    path.write_text(json.dumps(data, indent=1, sort_keys=True), encoding="utf-8")
    return path


def _locators(blocks: list[Block]) -> list[dict]:
    return [{"path": b.path, "line": b.key_line} for b in blocks]


def _make_instance(
    rng: random.Random,
    inst_dir: Path,
    instance_id: str,
    n_files: int,
    target_leaves: int,
    extra_required: int,
    distractors: int,
    scatter: bool = False,
    mock: bool = True,
    padding_files: int = 0,
    function_blocks: int | None = None,
) -> Planted:
    namer = _Namer(rng)
    files = _grow_files(rng, namer, n_files, target_leaves, "pkg", function_blocks)
    functions = [f for src in files for f in src.functions]
    fault_fn = rng.choice(functions)
    fault = _fault_block(rng, fault_fn)
    fault_src = next(src for src in files if src.path == fault.path)

    # distractors sit in one other module, as when retrieval pulls in a
    # misleading neighbour; required helpers come from anywhere else
    noise_paths = {src.path for src in files if src.path != fault.path and src.functions}
    noise = rng.choice(sorted(noise_paths)) if distractors and noise_paths else None
    others = [f for f in functions if f is not fault_fn and f.path != noise]
    helpers = rng.sample(others, min(extra_required, len(others)))
    required = [fault] + [rng.choice(h.blocks) for h in helpers]
    decoys = [f for f in functions if f.path == noise]
    planted_distractors = [rng.choice(f.blocks) for f in rng.sample(decoys, min(distractors, len(decoys)))]

    fixed = _edit_line(fault_src.lines, fault.key_line, "  # fixed")
    fix_patch = _patch(fault.path, fault_src.lines, fixed)
    repo_files = {src.path: src.text for src in files}
    extra: dict = {}
    markers: list[str] = []
    nofix_patch = ""
    if mock:
        extra["mock_required"] = _locators(required)
        extra["mock_distractors"] = _locators(planted_distractors)
    else:
        # the import line is outside every required block, so this patch
        # applies cleanly but leaves the fault line unfixed
        nofix_patch = _patch(fault.path, fault_src.lines, _edit_line(fault_src.lines, 1, "  # unrelated"))
        by_path = {src.path: src for src in files}
        markers = [by_path[b.path].lines[b.key_line - 1] for b in required]
        # the fake endpoint keys on these lines, so each must be unique
        all_lines = [line for src in files for line in src.lines]
        if any(all_lines.count(marker) != 1 for marker in markers):
            raise AssertionError(f"{instance_id}: a marker line is not unique")
        extra["test_command"] = f"grep -q -F '  # fixed' {fault.path}"
        for i in range(padding_files):
            repo_files[f"vendor/lib_{i // 20}/util_{i}.py"] = (
                f"def util_{i}(value):\n    return value + {i}\n"
            )

    path = _write_instance(
        inst_dir,
        instance_id,
        files,
        repo_files,
        _issue_text(rng, fault_fn, scatter),
        fault,
        fault_fn.name,
        fix_patch,
        _coverage(rng, files, [fault_fn, *helpers]),
        extra,
    )
    return Planted(
        instance_id=instance_id,
        instance_path=str(path.resolve()),
        leaves=sum(src.leaf_count() for src in files),
        required=[b.span() for b in required],
        distractors=[b.span() for b in planted_distractors],
        fault=fault.span(),
        fault_symbol=fault_fn.name,
        sources={src.path: src.text for src in files},
        markers=markers,
        fix_patch=fix_patch,
        nofix_patch=nofix_patch,
    )


# --- workloads -------------------------------------------------------------------------

# Sizes per workload.  Instance counts are fixed so that every workload has
# enough distinct instances for a tail percentile with ten samples beyond it.
SIZES = {
    "distill_paper": 300,
    "distill_large": 24,
    "compress_scatter": 120,
    "distill_llm": 24,
}


def _strata(rng: random.Random, n: int) -> list[float]:
    """One point in each of ``n`` equal slices of [0, 1), in seeded order.

    Sizes drawn this way cover their range evenly for every seed, so the
    medians a run reports move with the program, not with the draw."""
    slots = list(range(n))
    rng.shuffle(slots)
    return [(slot + rng.random()) / n for slot in slots]


def _triangular(q: float, low: float, high: float, mode: float) -> float:
    """Inverse distribution function of the triangular distribution."""
    c = (mode - low) / (high - low)
    if q < c:
        return low + math.sqrt(q * (high - low) * (mode - low))
    return high - math.sqrt((1 - q) * (high - low) * (high - mode))


def _span(q: float, low: int, high: int) -> int:
    """The integer in ``low..high`` at quantile ``q``."""
    return low + min(int(q * (high - low + 1)), high - low)


def _instance_spec(workload: str, rng: random.Random, i: int, q: float, q2: float) -> dict:
    if workload == "distill_paper":
        # 20-100 leaves, mean about 50 (the paper's corpus averages 49.6)
        leaves = round(_triangular(q, 20, 100, 30))
        # every other instance plants distractors, so all-on fails and the
        # GA has to search; those get at most one required helper, which
        # keeps the search within the default ten generations
        distractors = rng.randint(1, 2) if i % 2 else 0
        return {
            "n_files": rng.randint(2 if distractors else 1, min(5, max(2, leaves // 15))),
            "target_leaves": leaves,
            "extra_required": rng.randint(0, 1 if distractors else 2),
            "distractors": distractors,
        }
    if workload == "distill_large":
        # about 850 leaves in 12-20 files: two passes fit a 15 s run, and
        # the narrow size range keeps the quadratic scans' cost alike
        return {
            "n_files": _span(q2, 12, 20),
            "target_leaves": _span(q, 830, 870),
            "extra_required": rng.randint(1, 2),
            "distractors": 0,
        }
    if workload == "compress_scatter":
        return {
            "n_files": _span(q2, 3, 8),
            "target_leaves": _span(q, 200, 800),
            "extra_required": 0,
            "distractors": 0,
            "scatter": True,
        }
    if workload == "distill_llm":
        # Every instance has the same shape, two modules of one five-block
        # function each with only the fault block required, so only names
        # and the fault's place vary: the oracle calls per instance then
        # stay within 6-9 (median 8) for every seed, and the median
        # instance time moves with the program rather than with the draw.
        # Random function sizes spread the calls over 5-9, and a required
        # helper doubles them and spreads them over 8-20.
        return {
            "n_files": 2,
            "target_leaves": 10,
            "function_blocks": 5,
            "extra_required": 0,
            "distractors": 0,
            "mock": False,
            # every sample copies the whole repository, and file creation
            # time swings widely from run to run on a shared host; ten
            # files keep the copy visible but the timing steady
            "padding_files": 8,
        }
    raise ValueError(f"unknown workload: {workload}")


def generate(workload: str, seed: int, root: str | Path, count: int | None = None) -> list[Planted]:
    """Write ``count`` (default: the workload's size) instances under
    ``root`` and return their planted references."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload: {workload}")
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    count = SIZES[workload] if count is None else count
    sizes, shapes = _strata(rng, count), _strata(rng, count)
    planted = []
    for i in range(count):
        spec = _instance_spec(workload, rng, i, sizes[i], shapes[i])
        instance_id = f"{workload}-{seed}-{i:04d}"
        planted.append(_make_instance(rng, root / instance_id, instance_id, **spec))
    (root / "reference.json").write_text(
        json.dumps([p.to_json() for p in planted], indent=1, sort_keys=True), encoding="utf-8"
    )
    return planted
