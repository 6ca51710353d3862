"""Corpus persistence, role classification, triple export, statistics."""

import fcntl
import json
import os
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxdistill import cli, dataset
from ctxdistill.code_model import SegmentKind, build_tree, unit_text
from ctxdistill.dataset import (
    CorpusFormatError,
    DistilledInstance,
    STATUS_MINIMIZED,
    STATUS_UNMINIMIZED,
    SegmentRecord,
    SemanticRole,
    ZeroPositivesError,
    append_corpus,
    classify_role,
    compute_stats,
    compute_weights,
    fault_facts,
    load_corpus,
    write_triples,
)
from ctxdistill.instance import FaultLocation, Instance
from ctxdistill.priority import json_field


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
    segs = {s.kind.value + ":" + str(s.span.start_line): s for s in tree.leaves}
    return tree, instance, segs


def test_classify_class_header_is_schema():
    tree, instance, segs = _role_fixture()
    header = next(
        s for s in tree.leaves if s.kind is SegmentKind.CLASS_HEADER
    )
    assert classify_role(header, unit_text(tree, header), fault_facts(tree, instance.fault_locations)) is SemanticRole.SCHEMA


def test_classify_declaration_block_is_schema():
    tree, instance, segs = _role_fixture()
    top = next(s for s in tree.leaves if s.kind is SegmentKind.FILE)
    assert classify_role(top, unit_text(tree, top), fault_facts(tree, instance.fault_locations)) is SemanticRole.SCHEMA


def _leaf_containing(tree, needle):
    return next(s for s in tree.leaves if needle in unit_text(tree, s))


def test_classify_called_function_is_call_chain():
    tree, instance, _ = _role_fixture()
    download = _leaf_containing(tree, "def download")
    assert classify_role(download, unit_text(tree, download), fault_facts(tree, instance.fault_locations)) is SemanticRole.CALL_CHAIN


def test_classify_unrelated_helper_is_generic():
    tree, instance, _ = _role_fixture()
    tidy = _leaf_containing(tree, "def tidy")
    assert classify_role(tidy, unit_text(tree, tidy), fault_facts(tree, instance.fault_locations)) is SemanticRole.GENERIC_UTILITY


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
    frag = next(s for s in tree.leaves if s.kind is SegmentKind.FILE)
    # the fragment defines THRESHOLD, which check() references (not calls)
    assert classify_role(frag, unit_text(tree, frag), fault_facts(tree, instance.fault_locations)) is SemanticRole.DEFINITION


def test_classify_role_total_and_deterministic():
    rng = random.Random(3)
    tree, instance, _ = _role_fixture()
    facts = fault_facts(tree, instance.fault_locations)
    for seg in tree.leaves:
        first = classify_role(seg, unit_text(tree, seg), facts)
        second = classify_role(seg, unit_text(tree, seg), facts)
        assert first is second
        assert isinstance(first, SemanticRole)


# --- persistence ---------------------------------------------------------------


def test_corpus_roundtrip(tmp_path):
    corpus = [_instance("i1", 4, 1), _instance("i2", 3, 2)]
    path = tmp_path / "corpus.jsonl"
    for inst in corpus:
        append_corpus(inst, path)
    loaded = load_corpus(path)
    assert loaded == corpus
    # densities recomputed after the roundtrip agree
    assert compute_stats(loaded).relevance_density == compute_stats(corpus).relevance_density


def test_each_corpus_record_is_one_append_write(tmp_path, monkeypatch):
    writes = []
    real_write = os.write

    def recording(fd, data):
        writes.append((os.fstat(fd).st_ino, bool(fcntl.fcntl(fd, fcntl.F_GETFL) & os.O_APPEND), bytes(data)))
        return real_write(fd, data)

    monkeypatch.setattr(os, "write", recording)
    corpus = [_instance("i1", 4, 1), _instance("é2", 3, 2)]
    path = tmp_path / "corpus.jsonl"
    for inst in corpus:
        append_corpus(inst, path)
    inode = path.stat().st_ino
    lines = [(json.dumps(inst.to_json(), sort_keys=True) + "\n").encode("utf-8") for inst in corpus]
    assert writes == [(inode, True, line) for line in lines]
    assert path.read_bytes() == b"".join(lines)


def test_a_short_corpus_write_names_the_corpus(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "write", lambda fd, data: len(data) - 1)
    path = tmp_path / "corpus.jsonl"
    with pytest.raises(OSError, match=re.escape(f"corpus {path}: wrote ")):
        append_corpus(_instance("i1", 4, 1), path)


def test_corpus_record_without_budget_flag_loads_as_not_exhausted(tmp_path):
    data = _instance("i1", 4, 1).to_json()
    del data["budget_exhausted"]
    path = tmp_path / "corpus.jsonl"
    path.write_text(json.dumps(data) + "\n", encoding="utf-8")
    [loaded] = load_corpus(path)
    assert loaded.budget_exhausted is False
    assert loaded == _instance("i1", 4, 1)


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


def test_a_torn_last_record_is_bad_input_on_its_line(tmp_path, capsys):
    """A record cut mid-line with no final newline, as a killed ``distill``
    can leave the corpus, names its line in ``load_corpus`` and makes
    ``export`` exit 2."""
    lines = [json.dumps(_instance(f"i{i}", 2, 1).to_json(), sort_keys=True) for i in range(3)]
    path = tmp_path / "corpus.jsonl"
    path.write_text("\n".join([*lines[:2], lines[2][: len(lines[2]) // 2]]), encoding="utf-8")
    with pytest.raises(CorpusFormatError, match=re.escape(f"corpus {path}, line 3: invalid JSON")):
        load_corpus(path)
    assert cli.main(["export", str(path), "--out", str(tmp_path / "t.jsonl")]) == cli.EXIT_USAGE
    assert f"corpus {path}, line 3: invalid JSON" in capsys.readouterr().err
    assert not (tmp_path / "t.jsonl").exists()


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


def test_class_weight_without_negatives_is_one(tmp_path):
    # every exported segment is positive: no imbalance, so no down-weighting
    corpus = [_instance("i1", 3, 3)]
    class_w, _ = compute_weights(corpus)
    assert class_w == 1.0
    out = tmp_path / "triples.jsonl"
    assert write_triples(corpus, out) == 3
    weights = [json.loads(line)["weight"] for line in out.read_text().splitlines()]
    assert weights == [1.0, 1.0, 1.0]
    meta = json.loads((tmp_path / "triples.jsonl.meta.json").read_text())
    assert meta["class_weight_positive"] == 1.0


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


def _written_triples(corpus, tmp_path):
    """The triples ``write_triples`` writes for ``corpus``, read back."""
    out = tmp_path / "triples.jsonl"
    write_triples(corpus, out)
    return [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]


def test_export_triples_labels_and_weights(tmp_path):
    corpus = [_instance("i1", 4, 1)]
    triples = _written_triples(corpus, tmp_path)
    assert len(triples) == 4
    positives = [t for t in triples if t["label"] == 1]
    assert len(positives) == 1
    assert positives[0]["segment_id"] == "i1-s0"
    class_w, role_w = compute_weights(corpus)
    assert positives[0]["weight"] == pytest.approx(
        class_w * role_w[SemanticRole.GENERIC_UTILITY.value]
    )
    negative = next(t for t in triples if t["label"] == 0)
    assert negative["weight"] == pytest.approx(1.0 * role_w[SemanticRole.GENERIC_UTILITY.value])
    assert triples[0]["query"].startswith("ISSUE:\n")


def test_export_skips_unminimized_instances(tmp_path):
    ok = _instance("ok", 3, 1)
    failed = _instance("failed", 3, 0)
    failed.status = STATUS_UNMINIMIZED
    failed.minimal_leaf_ids = frozenset()
    triples = _written_triples([ok, failed], tmp_path)
    assert {t["instance_id"] for t in triples} == {"ok"}


def test_export_total_positive_count_invariant(tmp_path):
    corpus = [_instance("i1", 5, 2), _instance("i2", 7, 3)]
    triples = _written_triples(corpus, tmp_path)
    assert sum(t["label"] for t in triples) == sum(len(i.minimal_leaf_ids) for i in corpus)


def test_export_zero_positives_errors(tmp_path):
    inst = _instance("i1", 3, 0)
    with pytest.raises(ZeroPositivesError):
        _written_triples([inst], tmp_path)


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


def test_write_triples_computes_the_weights_once(tmp_path, monkeypatch):
    """Weighting is a full pass over every segment; the triples and the
    sidecar share one."""
    calls = []

    def counted(corpus):
        calls.append(len(corpus))
        return compute_weights(corpus)

    monkeypatch.setattr(dataset, "compute_weights", counted)
    corpus = [_instance("i1", 4, 1), _instance("i2", 3, 2)]
    assert write_triples(corpus, tmp_path / "triples.jsonl") == 7
    assert calls == [2]
    meta = json.loads((tmp_path / "triples.jsonl.meta.json").read_text())
    assert (meta["class_weight_positive"], meta["role_weights"]) == compute_weights(corpus)


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


# --- the segment record's codec, against its literal form ------------------------


def frozen_segment_to_json(record):
    return {
        "id": record.id,
        "path": record.path,
        "kind": record.kind,
        "start_line": record.start_line,
        "end_line": record.end_line,
        "line_count": record.line_count,
        "text": record.text,
        "role": record.role,
    }


def frozen_segment_from_json(data):
    return SegmentRecord(
        id=json_field(data, "id", str),
        path=json_field(data, "path", str),
        kind=json_field(data, "kind", str),
        start_line=json_field(data, "start_line", int),
        end_line=json_field(data, "end_line", int),
        line_count=json_field(data, "line_count", int),
        text=json_field(data, "text", str),
        role=json_field(data, "role", str),
    )


_SEGMENT_KINDS = {"id": str, "path": str, "kind": str, "start_line": int, "end_line": int, "line_count": int, "text": str, "role": str}
_json_scalars = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.floats(allow_nan=True), st.text(max_size=4))


@st.composite
def segment_json(draw):
    """A segment record's JSON object, each value of its own type or,
    now and then, of another type or missing; or a non-object."""
    if draw(st.integers(0, 19)) == 0:
        return draw(st.one_of(_json_scalars, st.lists(st.text(max_size=2), max_size=2)))
    data = {}
    for key, kind in _SEGMENT_KINDS.items():
        choice = draw(st.integers(0, 9))
        if choice == 0:
            continue
        if choice == 1:
            data[key] = draw(_json_scalars)
        else:
            data[key] = draw(st.text(max_size=6) if kind is str else st.integers(-5, 10**6))
    if draw(st.booleans()):
        data = dict(reversed(data.items()))
    return data


@settings(max_examples=400, deadline=None)
@given(segment_json())
def test_segment_record_codec_matches_its_literal_form(data):
    try:
        expected = frozen_segment_from_json(data)
    except ValueError as exc:
        with pytest.raises(ValueError) as err:
            SegmentRecord.from_json(data)
        assert str(err.value) == str(exc)
        return
    record = SegmentRecord.from_json(data)
    assert record == expected
    assert list(record.to_json().items()) == list(frozen_segment_to_json(record).items())
    assert SegmentRecord.from_json(json.loads(json.dumps(record.to_json()))) == record
