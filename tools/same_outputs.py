"""Print the outputs a behaviour-preserving change must leave unchanged.

Run from anywhere, with the checkout that holds this file as the subject:

    python3 tools/same_outputs.py

It prints the Python version it runs under (``sys.version``'s first
word), then nine things; compare them with the same command run on the
parent commit's checkout, or under another Python.

1. The seed-7 digest and ``failed_share`` of each benchmark workload, from
   ``perfbench/run.py --workload all --seed 7 --seconds 2 --trace 0``.
2. The hash of the probe records of 60 ``distill_paper`` and 3
   ``distill_large`` instances (``perfbench/gen.py``, seed 7), distilled
   with the mock oracle and ``RunConfig()``: SHA-256 over each
   ``*.ga.jsonl`` (GA probes) and ``*.hdd.jsonl`` (ddmin and certify
   probes) file's name and bytes, in name order.  Phase II starts from
   the set the GA accepted, so these traces hold no ``verify`` probe.
   The script re-runs itself under ``PYTHONHASHSEED=7`` so the hash
   repeats.
3. The same hash over the same instances distilled with
   ``use_ga=False`` into their own directory: each ``*.hdd.jsonl`` opens
   with the ``verify`` probe that judges the whole context, and each
   ``*.ga.jsonl`` is empty.
4. A hash of windowed scoring: 30 seed-7 ``compress_scatter`` instances
   compressed by ``HeuristicScorer`` at rate 5 with
   ``WindowConfig(16, 8)``, so that many leaves are scored in windows
   (the benchmark's 512-token window windows none).  SHA-256 over each
   instance's rendered text and selected segment ids; the line also
   counts the windowed leaves.
5. A hash of segment roles and unit priorities over every seed-7 instance
   of the four workloads, which the digests above see only through the
   search order: SHA-256 over each leaf's ``classify_role`` value and
   each unit's ``priority_map`` value (with ``RunConfig()``'s weights) as
   ``float.hex``; the line also counts the segments.
6. A hash of the decomposition of every seed-7 context file of the four
   workloads, which the role/priority hash sees only through unit ids:
   SHA-256 over each unit of ``decompose``'s output as its id, level,
   kind, span, parent id, child ids and ``fallback`` flag, the flag
   written as ``{"fallback": true}`` or ``{}`` so that the hash stays
   comparable across revisions; the line also counts the files and units.
7. A hash of the structured query of every seed-7 instance of the four
   workloads, which no value above sees as text: SHA-256 over each
   instance's ``build_query(...).rendered``, with ``build_query``
   imported from ``ctxdistill.instance``, its home; the line also counts
   the instances.
8. A hash of the decomposition and roles of every ``.py`` file of the
   standard library the script runs under (``sysconfig``'s ``stdlib``
   path, outside ``site-packages``), in sorted path order: SHA-256 over
   each unit's id, level, kind and span, and each leaf's
   ``classify_role`` value with ``fault_facts(tree, [])``.  The line also
   counts the files, the units and the files skipped as not UTF-8.  It
   compares only under the same Python.
9. Phase II under an oracle that errs: every seed-7 ``distill_paper``
   instance distilled with ``RunConfig()`` under :class:`NoisyMock` at
   ``p = 0.9``, seeded by the instance id.  The line counts the records
   whose kept set is exactly the mock's required set, the certified and
   uncertified records, and the oracle calls of all records.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7
TRACE_INSTANCES = (("distill_paper", 60), ("distill_large", 3))
WINDOWED_INSTANCES = 30
NOISY_P = 0.9


def benchmark_digests() -> list[str]:
    import gen

    reports = {w: ROOT / ".bench_out" / f"{w}-s{SEED}-t0.json" for w in gen.WORKLOADS}
    for path in reports.values():
        path.unlink(missing_ok=True)  # never read a report an earlier run left
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", str(SEED),
         "--seconds", "2", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.DEVNULL,
    )
    rows = [] if proc.returncode == 0 else [f"perfbench/run.py exited {proc.returncode}"]
    for workload, path in reports.items():
        if not path.exists():
            rows.append(f"{workload}: no report")
            continue
        report = json.loads(path.read_text(encoding="utf-8"))
        rows.append(
            f"{workload}: digest={report['digest'][:16]} "
            f"failed_share={report['quality']['failed_share']}"
        )
    return rows


def trace_hash(use_ga: bool) -> tuple[int, str]:
    import gen
    from ctxdistill.config import RunConfig
    from ctxdistill.instance import load_instance
    from ctxdistill.pipeline import distill_instance

    with tempfile.TemporaryDirectory(prefix="same-outputs-") as work:
        traces = Path(work) / "traces"
        for workload, count in TRACE_INSTANCES:
            for planted in gen.generate(workload, SEED, Path(work) / workload, count=count):
                instance = load_instance(planted.instance_path)
                distill_instance(instance, RunConfig(), use_ga=use_ga, trace_dir=traces)
        files = sorted(
            [*traces.glob("*.ga.jsonl"), *traces.glob("*.hdd.jsonl")], key=lambda p: p.name
        )
        h = hashlib.sha256()
        for path in files:
            h.update(path.name.encode("utf-8"))
            h.update(path.read_bytes())
        return len(files), h.hexdigest()


def windowed_compress_hash() -> tuple[int, int, str]:
    import gen
    from ctxdistill.code_model import unit_text
    from ctxdistill.compressor import HeuristicScorer, WindowConfig, compress
    from ctxdistill.instance import build_instance_tree, load_instance
    from ctxdistill.tokens import count_tokens

    window_cfg = WindowConfig(16, 8)
    leaves = windowed = 0
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as work:
        for planted in gen.generate("compress_scatter", SEED, work, count=WINDOWED_INSTANCES):
            instance = load_instance(planted.instance_path)
            tree = build_instance_tree(instance)
            texts = [unit_text(tree, leaf) for leaf in tree.leaves]
            leaves += len(texts)
            windowed += sum(count_tokens(t) > window_cfg.window_tokens for t in texts)
            result = compress(instance, tree, HeuristicScorer(tree), 5, window_cfg)
            h.update(json.dumps([result.rendered.dump_text(), result.selected_segment_ids]).encode())
    return leaves, windowed, h.hexdigest()


def role_priority_hash() -> tuple[int, str]:
    import gen
    from ctxdistill.code_model import unit_text
    from ctxdistill.config import RunConfig
    from ctxdistill.dataset import classify_role, fault_facts
    from ctxdistill.instance import build_instance_tree, load_instance
    from ctxdistill.pipeline import load_priority_inputs
    from ctxdistill.priority import priority_map

    weights = RunConfig().weights
    segments = 0
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as work:
        for workload in gen.WORKLOADS:
            for planted in gen.generate(workload, SEED, Path(work) / workload):
                instance = load_instance(planted.instance_path)
                tree = build_instance_tree(instance)
                facts = fault_facts(tree, instance.fault_locations)
                roles = [[leaf.id, classify_role(leaf, unit_text(tree, leaf), facts).value] for leaf in tree.leaves]
                phi = priority_map(tree, *load_priority_inputs(instance), weights)
                segments += len(roles)
                h.update(json.dumps([roles, [[uid, p.hex()] for uid, p in phi.items()]]).encode())
    return segments, h.hexdigest()


def decomposition_hash() -> tuple[int, int, str]:
    import gen
    from ctxdistill.code_model import decompose
    from ctxdistill.instance import load_instance, load_sources

    files = units = 0
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as work:
        for workload in gen.WORKLOADS:
            for planted in gen.generate(workload, SEED, Path(work) / workload):
                for path, source in load_sources(load_instance(planted.instance_path)):
                    rows = [
                        [u.id, u.level.value, u.kind and u.kind.value, u.span.start_line,
                         u.span.end_line, u.parent_id, u.child_ids, {"fallback": True} if u.fallback else {}]
                        for u in decompose(path, source)
                    ]
                    files += 1
                    units += len(rows)
                    h.update(json.dumps(rows, sort_keys=True).encode())
    return files, units, h.hexdigest()


def query_hash() -> tuple[int, str]:
    import gen
    from ctxdistill.instance import build_query, load_instance

    instances = 0
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as work:
        for workload in gen.WORKLOADS:
            for planted in gen.generate(workload, SEED, Path(work) / workload):
                instance = load_instance(planted.instance_path)
                query = build_query(instance.issue_text, instance.fault_locations)
                h.update(json.dumps(query.rendered).encode())
                instances += 1
    return instances, h.hexdigest()


def stdlib_hash() -> tuple[int, int, int, str]:
    import sysconfig

    from ctxdistill.code_model import build_tree, unit_text
    from ctxdistill.dataset import classify_role, fault_facts

    stdlib = Path(sysconfig.get_paths()["stdlib"])
    paths = sorted(
        p.relative_to(stdlib).as_posix()
        for p in stdlib.rglob("*.py")
        if "site-packages" not in p.relative_to(stdlib).parts
    )
    files = units = skipped = 0
    h = hashlib.sha256()
    for path in paths:
        try:
            source = (stdlib / path).read_bytes().decode("utf-8")
        except UnicodeDecodeError:
            skipped += 1
            continue
        tree = build_tree("stdlib", [(path, source)])
        facts = fault_facts(tree, [])
        rows = [
            [u.id, u.level.value, u.kind and u.kind.value, u.span.start_line, u.span.end_line]
            for u in map(tree.index.get, tree.unit_order)
        ]
        roles = [classify_role(leaf, unit_text(tree, leaf), facts).value for leaf in tree.leaves]
        files += 1
        units += len(rows)
        h.update(json.dumps([path, rows, roles]).encode())
    return files, units, skipped, h.hexdigest()


class NoisyMock:
    """An exact mock oracle with one-sided noise: each sufficient verdict
    turns insufficient with probability ``1 - p``, drawn from
    ``random.Random(seed)``, so a run repeats under any ``PYTHONHASHSEED``.
    An insufficient verdict is never flipped, so every set it accepts is
    sufficient."""

    def __init__(self, exact, p: float, seed: str):
        self.exact = exact
        self.p = p
        self.rng = random.Random(seed)

    def evaluate(self, included_leaf_ids: frozenset[str]):
        verdict = self.exact.evaluate(included_leaf_ids)
        if verdict.sufficient and self.rng.random() >= self.p:
            return replace(verdict, sufficient=False, passes=0)
        return verdict


def noisy_distill(p: float = NOISY_P) -> tuple[int, int, int, int]:
    """Instances, exact records, certified records and oracle calls of
    seed-7 ``distill_paper``, each instance judged by a ``NoisyMock`` at
    ``p`` around its ``build_mock_oracle``, seeded by its id."""
    import gen
    from ctxdistill.config import RunConfig
    from ctxdistill.instance import build_instance_tree, load_instance
    from ctxdistill.pipeline import build_mock_oracle, distill_instance

    instances = exact = certified = calls = 0
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as work:
        for planted in gen.generate("distill_paper", SEED, work):
            instance = load_instance(planted.instance_path)
            exact_mock = build_mock_oracle(instance, build_instance_tree(instance))
            oracle = NoisyMock(exact_mock, p, instance.instance_id)
            record = distill_instance(instance, RunConfig(), oracle=oracle).record
            instances += 1
            exact += record.minimal_leaf_ids == exact_mock.required
            certified += record.one_minimal_certified
            calls += record.oracle_calls
    return instances, exact, certified, calls


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != str(SEED):
        env = {**os.environ, "PYTHONHASHSEED": str(SEED)}
        return subprocess.run([sys.executable, __file__, *sys.argv[1:]], env=env).returncode
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    print(f"python {sys.version.split()[0]}")
    for line in benchmark_digests():
        print(line)
    count, digest = trace_hash(use_ga=True)
    print(f"trace files: {count} hash={digest[:16]}")
    count, digest = trace_hash(use_ga=False)
    print(f"trace files without the GA: {count} hash={digest[:16]}")
    leaves, windowed, digest = windowed_compress_hash()
    print(f"windowed compress: {windowed} of {leaves} leaves windowed hash={digest[:16]}")
    segments, digest = role_priority_hash()
    print(f"roles and priorities: {segments} segments hash={digest[:16]}")
    files, units, digest = decomposition_hash()
    print(f"decomposition: {units} units in {files} files hash={digest[:16]}")
    instances, digest = query_hash()
    print(f"queries: {instances} instances hash={digest[:16]}")
    files, units, skipped, digest = stdlib_hash()
    print(f"stdlib: {units} units in {files} files, {skipped} skipped as not UTF-8 hash={digest[:16]}")
    instances, exact, certified, calls = noisy_distill()
    print(
        f"noisy mock p={NOISY_P}: exact {exact}/{instances} certified {certified}/{instances} "
        f"uncertified {instances - certified} calls {calls}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
