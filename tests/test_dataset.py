"""Corpus persistence, role classification, triple export, statistics."""

import json
import random

import pytest

from ctxdistill.code_model import SegmentKind, build_tree, leaf_segments
from ctxdistill.dataset import (
    CorpusFormatError,
    DistilledInstance,
    STATUS_MINIMIZED,
    STATUS_UNMINIMIZED,
    SegmentRecord,
    SemanticRole,
    TrainingTriple,
    ZeroPositivesError,
    classify_role,
    compute_stats,
    compute_weights,
    export_triples,
    fault_facts,
    load_corpus,
    save_corpus,
    write_triples,
)
from ctxdistill.instance import FaultLocation, Instance


def _record(seg_id, role=SemanticRole.GENERIC_UTILITY.value, path="m.py", text="x = 1"):
    return SegmentRecord(
        id=seg_id,
        path=path,
        kind="function",
        start_line=1,
        end_line=1,
        line_count=1,
        text=text,
        role=role,
    )


def _instance(instance_id, n_segments, positives, role=SemanticRole.GENERIC_UTILITY.value):
    segments = [_record(f"{instance_id}-s{i}", role) for i in range(n_segments)]
    minimal = frozenset(seg.id for seg in segments[:positives])
    return DistilledInstance(
        instance_id=instance_id,
        repo="demo",
        issue_text="an issue",
        fault_locations=[FaultLocation("m.py", 1)],
        context_segments=segments,
        minimal_leaf_ids=minimal,
        one_minimal_certified=True,
        oracle_calls=5,
        provenance={"ga_generations": 1, "phase2_passes": 3},
        status=STATUS_MINIMIZED,
    )


# --- role classification ------------------------------------------------------


FAULTY_SOURCE = """\
LIMIT = 10

class Config:
    retries = 3
    timeout = 9.5

def fetch(url):
    body = download(url)
    size = LIMIT
    return parse(body, size)

def download(url):
    return url + "!"

def parse(body, size):
    return body[:size]

def tidy(text):
    return text.strip()
"""


def _role_fixture():
    tree = build_tree("t", [("m.py", FAULTY_SOURCE)])
    instance = Instance(
        instance_id="t",
        issue_text="fetch returns the wrong size",
        fault_locations=[FaultLocation("m.py", 8)],  # inside fetch()
        context_files=["m.py"],
        repo_root="/nonexistent",
    )
    segs = {s.kind.value + ":" + str(s.span.start_line): s for s in leaf_segments(tree)}
    return tree, instance, segs


def test_classify_class_header_is_schema():
    tree, instance, segs = _role_fixture()
    header = next(
        s for s in leaf_segments(tree) if s.kind is SegmentKind.CLASS_HEADER
    )
    assert classify_role(header, tree, fault_facts(tree, instance.fault_locations)) is SemanticRole.SCHEMA


def test_classify_declaration_block_is_schema():
    tree, instance, segs = _role_fixture()
    top = next(s for s in leaf_segments(tree) if s.kind is SegmentKind.FILE)
    assert classify_role(top, tree, fault_facts(tree, instance.fault_locations)) is SemanticRole.SCHEMA


def _leaf_containing(tree, needle):
    from ctxdistill.code_model import unit_text

    return next(s for s in leaf_segments(tree) if needle in unit_text(tree, s))


def test_classify_called_function_is_call_chain():
    tree, instance, _ = _role_fixture()
    download = _leaf_containing(tree, "def download")
    assert classify_role(download, tree, fault_facts(tree, instance.fault_locations)) is SemanticRole.CALL_CHAIN


def test_classify_unrelated_helper_is_generic():
    tree, instance, _ = _role_fixture()
    tidy = _leaf_containing(tree, "def tidy")
    assert classify_role(tidy, tree, fault_facts(tree, instance.fault_locations)) is SemanticRole.GENERIC_UTILITY


def test_classify_definition_referenced_by_fault():
    source = (
        "THRESHOLD = compute_threshold()\n"
        "\n"
        "def check(x):\n"
        "    return x > THRESHOLD\n"
    )
    tree = build_tree("t", [("m.py", source)])
    instance = Instance(
        instance_id="t",
        issue_text="check misbehaves",
        fault_locations=[FaultLocation("m.py", 4)],
        context_files=["m.py"],
        repo_root="/nonexistent",
    )
    frag = next(s for s in leaf_segments(tree) if s.kind is SegmentKind.FILE)
    # the fragment defines THRESHOLD, which check() references (not calls)
    assert classify_role(frag, tree, fault_facts(tree, instance.fault_locations)) is SemanticRole.DEFINITION


def test_classify_role_total_and_deterministic():
    rng = random.Random(3)
    tree, instance, _ = _role_fixture()
    facts = fault_facts(tree, instance.fault_locations)
    for seg in leaf_segments(tree):
        first = classify_role(seg, tree, facts)
        second = classify_role(seg, tree, facts)
        assert first is second
        assert isinstance(first, SemanticRole)


# --- persistence ---------------------------------------------------------------


def test_corpus_roundtrip(tmp_path):
    corpus = [_instance("i1", 4, 1), _instance("i2", 3, 2)]
    path = tmp_path / "corpus.jsonl"
    save_corpus(corpus, path)
    loaded = load_corpus(path)
    assert loaded == corpus
    # densities recomputed after the roundtrip agree
    assert compute_stats(loaded).relevance_density == compute_stats(corpus).relevance_density


def test_corpus_empty_file(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text("", encoding="utf-8")
    assert load_corpus(path) == []


def test_corpus_missing_field_reports_line(tmp_path):
    good = json.dumps(_instance("i1", 2, 1).to_json(), sort_keys=True)
    bad = json.dumps({"instance_id": "broken"})
    path = tmp_path / "corpus.jsonl"
    path.write_text(good + "\n" + bad + "\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError) as err:
        load_corpus(path)
    assert "line 2" in str(err.value)


def test_minimal_ids_must_be_subset():
    with pytest.raises(ValueError):
        DistilledInstance(
            instance_id="x",
            repo="r",
            issue_text="i",
            fault_locations=[],
            context_segments=[_record("a")],
            minimal_leaf_ids=frozenset({"phantom"}),
            one_minimal_certified=False,
            oracle_calls=0,
        )


# --- weights and triples ---------------------------------------------------------


def test_class_weight_matches_imbalance_ratio():
    # 143,443 negatives / 13,102 positives, in miniature proportions is
    # impractical; assert the exact ratio arithmetic instead
    corpus = [_instance("i1", 10, 2), _instance("i2", 10, 2)]
    class_w, _ = compute_weights(corpus)
    assert class_w == pytest.approx((20 - 4) / 4)


def test_class_weight_balanced_corpus_is_one():
    corpus = [_instance("i1", 2, 1)]
    class_w, _ = compute_weights(corpus)
    assert class_w == 1.0


def test_role_weight_neutral_when_density_equals_mean():
    corpus = [_instance("i1", 10, 2)]
    _, role_w = compute_weights(corpus)
    assert role_w[SemanticRole.GENERIC_UTILITY.value] == 1.0


def test_role_weights_clamped():
    # schema far denser than the mean, generic far sparser; both clamp
    schema_inst = _instance("s", 5, 5, role=SemanticRole.SCHEMA.value)
    generic_inst = _instance("g", 95, 1, role=SemanticRole.GENERIC_UTILITY.value)
    corpus = [schema_inst, generic_inst]
    _, role_w = compute_weights(corpus)
    # mean density 6/100; schema density 1.0 -> raw 0.06 clamps to 0.5
    assert role_w[SemanticRole.SCHEMA.value] == 0.5
    # generic density 1/95 -> raw 5.7 clamps to 3.0
    assert role_w[SemanticRole.GENERIC_UTILITY.value] == 3.0


def test_export_triples_labels_and_weights():
    corpus = [_instance("i1", 4, 1)]
    triples = list(export_triples(corpus))
    assert len(triples) == 4
    positives = [t for t in triples if t.label == 1]
    assert len(positives) == 1
    assert positives[0].segment_id == "i1-s0"
    class_w, role_w = compute_weights(corpus)
    assert positives[0].weight == pytest.approx(
        class_w * role_w[SemanticRole.GENERIC_UTILITY.value]
    )
    negative = next(t for t in triples if t.label == 0)
    assert negative.weight == pytest.approx(1.0 * role_w[SemanticRole.GENERIC_UTILITY.value])
    assert triples[0].query_text.startswith("ISSUE:\n")


def test_export_skips_unminimized_instances():
    ok = _instance("ok", 3, 1)
    failed = _instance("failed", 3, 0)
    failed.status = STATUS_UNMINIMIZED
    failed.minimal_leaf_ids = frozenset()
    triples = list(export_triples([ok, failed]))
    assert {t.instance_id for t in triples} == {"ok"}


def test_export_total_positive_count_invariant():
    corpus = [_instance("i1", 5, 2), _instance("i2", 7, 3)]
    triples = list(export_triples(corpus))
    assert sum(t.label for t in triples) == sum(len(i.minimal_leaf_ids) for i in corpus)


def test_export_zero_positives_errors():
    inst = _instance("i1", 3, 0)
    with pytest.raises(ZeroPositivesError):
        list(export_triples([inst]))


def test_write_triples_files(tmp_path):
    corpus = [_instance("i1", 4, 1)]
    out = tmp_path / "triples.jsonl"
    count = write_triples(corpus, out)
    assert count == 4
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert set(rows[0]) == {
        "query",
        "segment",
        "label",
        "weight",
        "role",
        "instance_id",
        "segment_id",
    }
    meta = json.loads((tmp_path / "triples.jsonl.meta.json").read_text())
    assert meta["triples"] == 4
    assert meta["role_rules_version"]


# --- statistics -------------------------------------------------------------------


def test_compute_stats_small_fixture():
    corpus = [_instance("i1", 6, 1), _instance("i2", 4, 0)]
    stats = compute_stats(corpus)
    assert stats.instances == 2
    assert stats.segments == 10
    assert stats.positives == 1
    assert stats.relevance_density == pytest.approx(0.10)
    assert stats.avg_segments_per_instance == pytest.approx(5.0)
    assert stats.density_by_size_bucket["1-20"] == pytest.approx(0.10)


def test_compute_stats_empty_corpus():
    stats = compute_stats([])
    assert stats.instances == 0
    assert stats.segments == 0
    assert stats.relevance_density == 0.0
    assert stats.avg_segments_per_instance == 0.0


def test_compute_stats_all_positive():
    stats = compute_stats([_instance("i1", 3, 3)])
    assert stats.relevance_density == 1.0


def test_compute_stats_buckets():
    corpus = [_instance("small", 10, 1), _instance("large", 250, 5)]
    stats = compute_stats(corpus)
    assert stats.density_by_size_bucket["1-20"] == pytest.approx(0.1)
    assert stats.density_by_size_bucket["200+"] == pytest.approx(5 / 250)
    assert stats.density_by_size_bucket["51-100"] == 0.0
