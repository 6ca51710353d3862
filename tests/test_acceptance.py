"""Acceptance suite: one test per shipped criterion, at its stated
tolerance.  Each test prints a PASS line on success; a pytest failure is
the FAIL line.

Run with: pytest tests/test_acceptance.py -v -s
"""

import json
import math
import random
import time

import pytest

from ctxdistill import ga_search
from ctxdistill.cli import EXIT_OK, main
from ctxdistill.code_model import (
    CodeUnit,
    Level,
    SegmentKind,
    Span,
    build_tree,
    upward_closure,
)
from ctxdistill.compressor import CompressionBudget, ScoredSegment, select_greedy
from ctxdistill.dataset import (
    DistilledInstance,
    SegmentRecord,
    SemanticRole,
    compute_stats,
)
from ctxdistill.ga_search import (
    GAConfig,
    Genome,
    GenomeSpace,
    init_population,
    is_upward_consistent,
    repair,
    retained_leaf_ids,
    run_ga,
)
from ctxdistill.hdd import minimize
from ctxdistill.oracle import MockOracle, OracleConfig, OracleSession
from ctxdistill.priority import CoverageReport, PatchInfo, PriorityWeights, priority
from ctxdistill.render import PLACEHOLDER_RE, render, render_full

from fixtures import (
    BROKEN_SOURCE,
    CLASS_SOURCE,
    MULTI_BLOCK_SOURCE,
    NESTED_SOURCE,
    module_with_functions,
    random_module,
    write_instance,
)


def _ok(n: int, text: str) -> None:
    print(f"ACCEPTANCE {n} PASS: {text}")


def _session(required, distractors=(), budget=100_000, trace=None):
    oracle = MockOracle(required, distractors)
    return OracleSession(oracle, "acc", OracleConfig(eval_budget=budget), trace)


def _zero_phi(tree):
    return {uid: 0.0 for uid in tree.unit_order}


# --- 1. one-minimality ------------------------------------------------------


def test_c01_one_minimality_on_randomized_instances():
    """minimize() output is sufficient and 1-minimal on >= 200 random
    instances of at most 12 leaves, against a brute-force single-removal
    checker.  Runtime budget: 10 seconds."""
    rng = random.Random(2024)
    started = time.perf_counter()
    trials = 0
    while trials < 200:
        tree = build_tree("acc", [("m.py", random_module(rng))])
        leaves = sorted(s.id for s in tree.leaves)
        if not leaves or len(leaves) > 12:
            continue
        trials += 1
        required = frozenset(rng.sample(leaves, rng.randint(0, min(6, len(leaves)))))
        session = _session(required)
        result = minimize(frozenset(leaves), tree, session, _zero_phi(tree))
        retained = result.retained_leaf_ids

        # (a) sufficient
        assert required <= retained, f"trial {trials}: output not sufficient"
        # (b) 1-minimal, checked independently per element
        for leaf in retained:
            assert not required <= (retained - {leaf}), (
                f"trial {trials}: leaf {leaf} is removable"
            )
        assert result.one_minimal_certified
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    _ok(1, f"200 randomized instances 1-minimal in {elapsed:.2f}s")


# --- 2. ddmin probe bound ----------------------------------------------------


def test_c02_ddmin_probe_bound_from_trace(tmp_path):
    """Per-level oracle probes stay within n^2 + 3n for n in {4, 8, 12}
    (counted from the written minimization trace)."""
    rng = random.Random(77)
    for n in (4, 8, 12):
        bound = n * n + 3 * n
        for trial in range(12):
            tree = build_tree("acc", [("flat.py", module_with_functions(n))])
            leaves = sorted(s.id for s in tree.leaves)
            assert len(leaves) == n
            k = (trial * max(1, n // 3)) % (n + 1)
            required = frozenset(rng.sample(leaves, k))
            trace_path = tmp_path / f"trace-{n}-{trial}.jsonl"
            with open(trace_path, "w", encoding="utf-8") as fh:
                session = _session(required, trace=lambda rec: fh.write(json.dumps(rec) + "\n"))
                minimize(frozenset(leaves), tree, session, _zero_phi(tree))
            per_level = {}
            for line in trace_path.read_text().splitlines():
                record = json.loads(line)
                per_level[record["pass_level"]] = per_level.get(record["pass_level"], 0) + 1
            for level in ("file", "function", "block"):
                probes = per_level.get(level, 0)
                assert probes <= bound, (
                    f"n={n} trial={trial} level={level}: {probes} probes > {bound}"
                )
    _ok(2, "ddmin probes per level within n^2+3n for n in {4,8,12}")


# --- 3. GA seeding guarantee --------------------------------------------------


def test_c03_ga_seeding_guarantee():
    """When the required set lies inside the gold-patch files, the search
    succeeds in generation 0.  100/100 randomized trials."""
    rng = random.Random(555)
    for trial in range(100):
        n_files = rng.randint(2, 4)
        files = [(f"f{i}.py", module_with_functions(rng.randint(1, 4), f"m{i}_")) for i in range(n_files)]
        tree = build_tree("acc", files)
        patch_files = frozenset(
            path for path, _ in rng.sample(files, rng.randint(1, n_files))
        )
        eligible = [s.id for s in tree.leaves if s.path in patch_files]
        required = frozenset(rng.sample(eligible, rng.randint(1, min(4, len(eligible)))))
        # distractors outside the patch files make the all-on seed fail on
        # half the trials, so success must come through the patch-file seed
        distractors = frozenset()
        if trial % 2 == 0:
            outside = [s.id for s in tree.leaves if s.path not in patch_files]
            if outside:
                distractors = frozenset(rng.sample(outside, 1))

        patch = PatchInfo(patch_files, frozenset())
        config = GAConfig(population_size=8, max_generations=5, rng_seed=trial)
        space = GenomeSpace(tree)

        # the seed individual itself must retain the required set
        population = init_population(
            space, _zero_phi(tree), patch, config, random.Random(trial)
        )
        assert required <= retained_leaf_ids(population[1], space)

        session = _session(required, distractors)
        result = run_ga(tree, _zero_phi(tree), patch, session, config)
        assert result.genome is not None, f"trial {trial}: no passing genome"
        assert result.generation_found == 0, f"trial {trial}: found in generation {result.generation_found}"
    _ok(3, "100/100 trials succeed in generation 0 via patch-file seeding")


# --- 4. upward consistency -----------------------------------------------------


def test_c04_upward_consistency_and_repair_idempotence(monkeypatch):
    """Every genome submitted to the oracle is upward-consistent and
    non-degenerate; repair is idempotent.  1,000 random genomes."""
    rng = random.Random(4096)
    tree = build_tree(
        "acc",
        [("a.py", random_module(rng)), ("b.py", random_module(rng)), ("c.py", random_module(rng))],
    )
    space = GenomeSpace(tree)
    phi = _zero_phi(tree)
    for trial in range(1000):
        bits = tuple(rng.randint(0, 1) for _ in range(len(space)))
        repaired = repair(Genome(bits), space, phi)
        assert is_upward_consistent(repaired, space)
        assert any(repaired.bits)
        assert repair(repaired, space, phi).bits == repaired.bits

    submitted = []

    def submit(genome, genome_space):
        # run_ga reads each genome's leaves here, just before the oracle judges them
        submitted.append(genome)
        return retained_leaf_ids(genome, genome_space)

    monkeypatch.setattr(ga_search, "retained_leaf_ids", submit)
    for seed in range(3):
        session = _session(frozenset({"unsatisfiable"}))
        run_ga(
            tree,
            phi,
            PatchInfo.empty(),
            session,
            GAConfig(population_size=10, max_generations=4, rng_seed=seed),
        )
    assert submitted
    for genome in submitted:
        assert is_upward_consistent(genome, space)
        assert any(genome.bits)
    _ok(4, f"1000 repairs idempotent; {len(submitted)} oracle candidates consistent")


# --- 5. render identity and conservation ----------------------------------------


RENDER_FIXTURES = [
    CLASS_SOURCE,
    MULTI_BLOCK_SOURCE,
    NESTED_SOURCE,
    BROKEN_SOURCE,
    "# comment only\n\n# more\n",
    "x = 1",  # no trailing newline
    "@decorator\ndef f(x):\n    return x\n\n\n@decorator\nclass C:\n    y = 2\n\n    def m(self):\n        return 3\n",
    "async def fetch(url):\n    data = await get(url)\n    if data:\n        return data\n    return None\n",
    "def tabbed(x):\n\ty = x\n\tif y:\n\t\treturn y\n\treturn x\n",
    'TEXT = """\ndef fake():\n    pass\n"""\n\ndef real(x):\n    return x\n',
    "line1 = 1\r\nline2 = 2\r\n\r\ndef crlf(x):\r\n    return x\r\n",
]


def test_c05_render_identity_and_conservation():
    """Full-inclusion rendering is byte-identical on every fixture; for
    500 random inclusion sets, emitted lines plus placeholder totals
    equal each file's segmented line count.  Exact."""
    for i, source in enumerate(RENDER_FIXTURES):
        tree = build_tree("acc", [(f"fx{i}.py", source)])
        assert render_full(tree).per_file[0].text == source, f"fixture {i} not identical"

    rng = random.Random(88)
    for trial in range(500):
        source = RENDER_FIXTURES[trial % len(RENDER_FIXTURES)] if trial % 3 == 0 else random_module(rng)
        tree = build_tree("acc", [("m.py", source)])
        leaves = [s.id for s in tree.leaves]
        chosen = rng.sample(leaves, rng.randint(0, len(leaves)))
        rendered = render(tree, upward_closure(tree, chosen))
        for rf in rendered.per_file:
            file_unit = next(u for u in tree.files if u.path == rf.path)
            segmented = sum(
                leaf.span.line_count
                for leaf in tree.leaves_under(file_unit.id)
            )
            emitted = 0
            placeholder_total = 0
            for line in rf.text.splitlines():
                m = PLACEHOLDER_RE.match(line)
                if m:
                    placeholder_total += int(m.group(2))
                else:
                    emitted += 1
            assert emitted + placeholder_total == segmented, f"trial {trial}"
    _ok(5, "byte identity on all fixtures; conservation exact over 500 sets")


# --- 6. priority formula ----------------------------------------------------------


def _unit_with(text_ids, span=Span(1, 12), path="p.py"):
    text = " ".join(text_ids) + "\nfiller" * (span.line_count - 1)
    unit = CodeUnit(
        id="u",
        level=Level.FUNCTION,
        kind=SegmentKind.FUNCTION,
        span=span,
        path=path,
    )
    return unit, text


def test_c06_priority_formula_table_and_scaling():
    """Ten hand-computed cases within 1e-9; ordering invariant under
    uniform positive weight scaling across 100 random weightings."""
    cases = [
        # (weights, in_patch, cov_lines_in_span, sym_pair, expected)
        ((1, 1, 1), True, 3, (1, 2), 2.8862943611198906),  # 1 + ln4 + 0.5
        ((1, 1, 1), False, 0, (0, 1), 0.0),
        ((2, 0, 0), True, 5, (2, 2), 2.0),
        ((0, 1, 0), True, 1, (1, 1), 0.6931471805599453),  # ln2
        ((0, 0, 3), True, 7, (1, 4), 0.75),
        ((1, 2, 3), True, 2, (1, 2), 4.6972245773362196),  # 1 + 2ln3 + 1.5
        ((0.5, 0.5, 0.5), False, 10, (4, 5), 1.5989476363991854),  # .5ln11 + .4
        ((1, 1, 1), True, 0, (0, 3), 1.0),
        ((3, 1, 2), False, 5, (1, 2), 2.791759469228055),  # ln6 + 1
        ((1, 1, 1), False, 1, (2, 2), 1.6931471805599453),  # ln2 + 1
    ]
    for i, (w, in_patch, cov_count, (hit, total), expected) in enumerate(cases):
        patch_ids = frozenset(f"pid{j}" for j in range(total))
        present = [f"pid{j}" for j in range(hit)]
        unit, text = _unit_with(present)
        patch = PatchInfo(
            frozenset({unit.path}) if in_patch else frozenset({"other.py"}),
            patch_ids,
        )
        cov_lines = frozenset(range(1, cov_count + 1)) | {999}  # out-of-span ignored
        cov = CoverageReport({unit.path: cov_lines} if cov_count else {})
        got = priority(unit, text, patch, cov, PriorityWeights(*w))
        assert got == pytest.approx(expected, abs=1e-9), f"case {i}: {got} != {expected}"

    rng = random.Random(606)
    units = []
    for i in range(12):
        hit = rng.randint(0, 4)
        unit, text = _unit_with([f"pid{j}" for j in range(hit)], path=f"f{i % 3}.py")
        units.append((unit, text))
    patch = PatchInfo(frozenset({"f0.py"}), frozenset(f"pid{j}" for j in range(4)))
    cov = CoverageReport(
        {f"f{k}.py": frozenset(rng.sample(range(1, 5), rng.randint(0, 4))) for k in range(3)}
    )
    base = PriorityWeights(2.0, 1.0, 1.0)
    base_scores = [priority(u, t, patch, cov, base) for u, t in units]
    base_order = sorted(range(12), key=lambda i: base_scores[i])
    for trial in range(100):
        c = rng.uniform(1e-3, 1e3)
        scaled = PriorityWeights(2.0 * c, 1.0 * c, 1.0 * c)
        scores = [priority(u, t, patch, cov, scaled) for u, t in units]
        assert sorted(range(12), key=lambda i: scores[i]) == base_order
    _ok(6, "10-case table matches within 1e-9; ordering scale-invariant")


# --- 7. budget respect -------------------------------------------------------------


def test_c07_budget_respect_and_bookkeeping(tmp_path):
    """Greedy selection respects the budget whenever it keeps 2+ segments
    (1,000 random lists); the worked example reproduces exactly; rate
    bookkeeping is exact; end-to-end output stays within budget + 32
    tokens of placeholder/separator overhead."""
    rng = random.Random(700)
    for trial in range(1000):
        n = rng.randint(1, 15)
        scored = [
            ScoredSegment(f"u{i}", rng.random(), rng.randint(1, 150), rng.random(), i)
            for i in range(n)
        ]
        budget = CompressionBudget(5.0, rng.randint(1, 400))
        chosen = select_greedy(scored, budget)
        cost = sum(s.token_cost for s in scored if s.unit_id in chosen)
        if len(chosen) >= 2:
            assert cost <= budget.budget_tokens, f"trial {trial}"

    worked = [
        ScoredSegment("s1", 0.9, 150, 0.0, 0),
        ScoredSegment("s2", 0.8, 100, 0.0, 1),
        ScoredSegment("s3", 0.1, 50, 0.0, 2),
    ]
    assert select_greedy(worked, CompressionBudget(5.0, 200)) == {"s1", "s3"}

    # end-to-end bookkeeping on a concrete instance
    instance_path, expected_leaf = _e2e_instance(tmp_path, 0)
    out = tmp_path / "compressed.txt"
    assert main(["compress", str(instance_path), "--rate", "5.0", "--out", str(out)]) == EXIT_OK
    stats = json.loads((tmp_path / "compressed.txt.stats.json").read_text())
    assert stats["achieved_rate"] == stats["initial_tokens"] / stats["compressed_tokens"]
    budget_tokens = math.floor(stats["initial_tokens"] / 5.0)
    assert stats["compressed_tokens"] <= budget_tokens + 32
    _ok(7, "budget respected on 1000 lists; worked example exact; overhead <= 32")


# --- 8. corpus statistics replication ------------------------------------------------


def _bulk_instance(instance_id: str, n_segments: int, n_positive: int) -> DistilledInstance:
    segments = [
        SegmentRecord(
            id=f"{instance_id}-s{i}",
            path="m.py",
            kind="method",
            start_line=1,
            end_line=1,
            line_count=1,
            text="pass",
            role=SemanticRole.GENERIC_UTILITY.value,
        )
        for i in range(n_segments)
    ]
    return DistilledInstance(
        instance_id=instance_id,
        repo="bulk",
        issue_text="i",
        fault_locations=[],
        context_segments=segments,
        minimal_leaf_ids=frozenset(s.id for s in segments[:n_positive]),
        one_minimal_certified=True,
        oracle_calls=0,
    )


def test_c08_corpus_statistics_replication():
    """Synthetic records with the published corpus totals (156,545
    segments, 13,102 positives, 3,157 instances) reproduce relevance
    density 0.084 +/- 0.001 and 49.6 +/- 0.1 segments per instance."""
    total_instances = 3157
    # 1,852 instances of 50 segments plus 1,305 of 49 = 156,545 segments
    sizes = [50] * 1852 + [49] * 1305
    assert sum(sizes) == 156_545
    # 13,102 positives: four per instance, 474 instances get one extra
    positives = [4] * total_instances
    for i in range(474):
        positives[i] += 1
    assert sum(positives) == 13_102

    corpus = [
        _bulk_instance(f"b{i}", sizes[i], positives[i]) for i in range(total_instances)
    ]
    stats = compute_stats(corpus)
    assert stats.instances == 3157
    assert stats.segments == 156_545
    assert stats.positives == 13_102
    assert abs(stats.relevance_density - 0.084) <= 0.001
    assert abs(stats.avg_segments_per_instance - 49.6) <= 0.1
    _ok(
        8,
        f"density {stats.relevance_density:.4f} (target 0.084 +/- 0.001), "
        f"avg {stats.avg_segments_per_instance:.2f} (target 49.6 +/- 0.1)",
    )


# --- 9. mock end-to-end pipeline ------------------------------------------------------


FILLER_NAMES = [
    "alpha_widget",
    "beta_gadget",
    "gamma_helper",
    "delta_mixer",
    "epsilon_probe",
    "zeta_runner",
]


def _e2e_instance(tmp_path, i: int):
    """One synthetic instance: the fault segment mentions every issue
    identifier (maximal heuristic score); fillers are unrelated."""
    target = f"target_routine_{i}"
    issue = f"{target} mangles the frobnication_total_{i}"
    lines = [
        f"def {target}(values):",
        f"    frobnication_total_{i} = 0",
        "    mangles = values",
        "    the = mangles",
        f"    return frobnication_total_{i} + len(the)",
        "",
    ]
    for j, name in enumerate(FILLER_NAMES):
        lines += [
            f"def {name}_{i}_{j}(x):",
            f"    {name}_state = x * {j}",
            f"    {name}_extra = {name}_state + {j}",
            f"    padding_text_{j} = '{name * 4}'",
            f"    return {name}_extra",
            "",
        ]
    source = "\n".join(lines)
    path = write_instance(
        tmp_path / f"e2e-{i}.json",
        tmp_path / f"repo-{i}",
        {f"mod_{i}.py": source},
        instance_id=f"e2e-{i}",
        issue_text=issue,
        fault_locations=[{"path": f"mod_{i}.py", "line": 2}],
    )
    return path, target


def test_c09_mock_end_to_end_pipeline(tmp_path, monkeypatch):
    """distill -> export -> compress over 5 synthetic instances is
    deterministic under a fixed seed; exported positives match the
    summed minimal sets; compression at 5x keeps the fault segment in at
    least 4 of 5 instances.  Under 30 seconds."""
    started = time.perf_counter()
    monkeypatch.chdir(tmp_path)
    instance_paths = [_e2e_instance(tmp_path, i)[0] for i in range(5)]
    targets = [f"target_routine_{i}" for i in range(5)]

    def run_pipeline(tag: str):
        corpus = tmp_path / f"corpus-{tag}.jsonl"
        for path in instance_paths:
            assert main(["--seed", "11", "--no-trace", "distill", str(path), "--out", str(corpus)]) == EXIT_OK
        triples = tmp_path / f"triples-{tag}.jsonl"
        assert main(["export", str(corpus), "--out", str(triples)]) == EXIT_OK
        compressed = []
        for i, path in enumerate(instance_paths):
            out = tmp_path / f"compressed-{tag}-{i}.txt"
            assert main(["compress", str(path), "--rate", "5.0", "--out", str(out)]) == EXIT_OK
            compressed.append(out.read_text())
        return corpus.read_text(), triples.read_text(), compressed

    corpus_a, triples_a, compressed_a = run_pipeline("a")
    corpus_b, triples_b, compressed_b = run_pipeline("b")
    assert corpus_a == corpus_b
    assert triples_a == triples_b
    assert compressed_a == compressed_b

    records = [json.loads(line) for line in corpus_a.splitlines()]
    assert all(r["status"] == "minimized" for r in records)
    triple_rows = [json.loads(line) for line in triples_a.splitlines()]
    assert sum(t["label"] for t in triple_rows) == sum(
        len(r["minimal_leaf_ids"]) for r in records
    )

    kept = sum(1 for text, target in zip(compressed_a, targets) if f"def {target}" in text)
    assert kept >= 4, f"fault segment kept in only {kept}/5 compressed outputs"

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _ok(9, f"pipeline deterministic; positives consistent; {kept}/5 fault segments kept; {elapsed:.1f}s")


# --- 10. GA-ablation harness ------------------------------------------------------------


def test_c10_ga_ablation_harness(tmp_path, monkeypatch, capsys):
    """Distilling a fixture batch with and without the search phase
    reports per-instance success, separating instances whose initial
    context contains distractors (search required) from clean ones."""
    monkeypatch.chdir(tmp_path)
    batch = tmp_path / "batch"
    files = {
        "core.py": module_with_functions(3, "core"),
        "noise.py": module_with_functions(2, "noise"),
    }
    # 4 instances with a distractor outside the fault file, 2 clean
    for i in range(6):
        kwargs = {}
        if i < 4:
            kwargs["mock_distractors"] = [{"path": "noise.py", "line": 2}]
        write_instance(
            batch / f"abl-{i}.json",
            tmp_path / f"repo-{i}",
            files,
            instance_id=f"abl-{i}",
            fault_locations=[{"path": "core.py", "line": 2}],
            mock_required=[{"path": "core.py", "line": 2}],
            **kwargs,
        )

    corpus_ga = tmp_path / "with-ga.jsonl"
    assert main(["--seed", "2", "--no-trace", "distill", "--batch", str(batch), "--out", str(corpus_ga)]) == EXIT_OK
    report_ga = capsys.readouterr().out

    corpus_no = tmp_path / "no-ga.jsonl"
    assert main(["--seed", "2", "--no-trace", "distill", "--batch", str(batch), "--no-ga", "--out", str(corpus_no)]) == EXIT_OK
    report_no = capsys.readouterr().out

    # per-instance success lines exist in both reports
    for i in range(6):
        assert f"abl-{i}:" in report_ga
        assert f"abl-{i}:" in report_no

    records_ga = [json.loads(line) for line in corpus_ga.read_text().splitlines()]
    records_no = [json.loads(line) for line in corpus_no.read_text().splitlines()]
    ga_success = sum(r["status"] == "minimized" for r in records_ga)
    no_success = sum(r["status"] == "minimized" for r in records_no)
    assert ga_success == 6
    assert no_success == 2  # only the distractor-free instances survive
    assert ga_success > no_success
    _ok(10, f"ablation harness: {ga_success}/6 with search vs {no_success}/6 without")
