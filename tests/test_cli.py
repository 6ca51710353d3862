"""CLI integration tests: commands, exit codes, file outputs."""

import json
import threading

import pytest

from ctxdistill import cli
from ctxdistill.cli import EXIT_EXTERNAL, EXIT_OK, EXIT_PARTIAL, EXIT_USAGE, main
from ctxdistill.oracle import OracleEndpointError

from fixtures import module_with_functions, write_instance

FILES = {
    "pkg/core.py": module_with_functions(3, "core"),
    "pkg/util.py": module_with_functions(2, "util"),
}


@pytest.fixture
def instance_path(tmp_path):
    return write_instance(
        tmp_path / "inst.json",
        tmp_path / "repo",
        FILES,
        fault_locations=[{"path": "pkg/core.py", "line": 2}],
        mock_required=[{"path": "pkg/core.py", "line": 2}],
    )


def _run(args):
    return main([str(a) for a in args])


def test_segment_writes_jsonl(tmp_path, instance_path):
    out = tmp_path / "segments.jsonl"
    assert _run(["segment", instance_path, "--out", out]) == EXIT_OK
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(rows) == 5
    assert set(rows[0]) == {"id", "path", "kind", "start_line", "end_line", "line_count"}


def test_segment_missing_instance_exits_2(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert _run(["segment", missing, "--out", tmp_path / "o.jsonl"]) == EXIT_USAGE
    assert str(missing) in capsys.readouterr().err


def test_segment_zero_context_files(tmp_path):
    path = write_instance(tmp_path / "i.json", tmp_path / "repo", {}, instance_id="empty")
    out = tmp_path / "segments.jsonl"
    assert _run(["segment", path, "--out", out]) == EXIT_OK
    assert out.read_text() == ""


def test_distill_mock_writes_corpus_and_traces(tmp_path, instance_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    corpus = tmp_path / "corpus.jsonl"
    assert _run(["--seed", 3, "distill", instance_path, "--oracle", "mock", "--out", corpus]) == EXIT_OK
    records = [json.loads(line) for line in corpus.read_text().splitlines()]
    assert len(records) == 1
    assert records[0]["status"] == "minimized"
    assert (tmp_path / "traces" / "inst-0.ga.jsonl").exists()
    assert (tmp_path / "traces" / "inst-0.hdd.jsonl").exists()


def test_distill_no_trace_flag(tmp_path, instance_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    corpus = tmp_path / "corpus.jsonl"
    assert _run(["--no-trace", "distill", instance_path, "--out", corpus]) == EXIT_OK
    assert not (tmp_path / "traces").exists()


def test_distill_idempotent_records(tmp_path, instance_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    assert _run(["--seed", 7, "--no-trace", "distill", instance_path, "--out", a]) == EXIT_OK
    assert _run(["--seed", 7, "--no-trace", "distill", instance_path, "--out", b]) == EXIT_OK
    assert a.read_text() == b.read_text()


def test_distill_batch_mode(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    batch = tmp_path / "batch"
    for i in range(3):
        write_instance(
            batch / f"inst{i}.json",
            tmp_path / f"repo{i}",
            FILES,
            instance_id=f"batch-{i}",
            fault_locations=[{"path": "pkg/core.py", "line": 2}],
        )
    corpus = tmp_path / "corpus.jsonl"
    assert _run(["--no-trace", "--parallelism", 2, "distill", "--batch", batch, "--out", corpus]) == EXIT_OK
    records = [json.loads(line) for line in corpus.read_text().splitlines()]
    assert [r["instance_id"] for r in records] == ["batch-0", "batch-1", "batch-2"]


def _batch(tmp_path, n=4):
    batch = tmp_path / "batch"
    for i in range(n):
        required = [{"path": "pkg/core.py", "line": 2 + 4 * (i % 3)}, {"path": "pkg/util.py", "line": 2}]
        write_instance(
            batch / f"inst{i}.json",
            tmp_path / f"repo{i}",
            FILES,
            instance_id=f"batch-{i}",
            fault_locations=[{"path": "pkg/core.py", "line": 2}],
            mock_required=required[: 1 + i % 2],
        )
    return batch


def test_distill_batch_output_does_not_depend_on_parallelism(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    batch = _batch(tmp_path)
    outputs = []
    for workers in (1, 2):
        corpus = tmp_path / f"corpus{workers}.jsonl"
        args = ["--seed", 5, "--parallelism", workers, "distill", "--batch", batch, "--out", corpus]
        assert _run(args) == EXIT_OK
        outputs.append((corpus.read_bytes(), capsys.readouterr().out))
    assert outputs[0] == outputs[1]
    assert outputs[0][1].splitlines() == [f"batch-{i}: minimized" for i in range(4)]


def test_distill_serial_batch_stops_at_the_first_error(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    batch = _batch(tmp_path, n=2)
    started = []

    def failing_distill(instance, *args, **kwargs):
        started.append((instance.instance_id, threading.current_thread() is threading.main_thread()))
        raise RuntimeError("distill failed")

    monkeypatch.setattr(cli, "distill_instance", failing_distill)
    corpus = tmp_path / "corpus.jsonl"
    with pytest.raises(RuntimeError, match="distill failed"):
        _run(["--parallelism", 1, "distill", "--batch", batch, "--out", corpus])
    assert started == [("batch-0", True)]
    assert not corpus.exists()


def test_distill_batch_survives_a_bad_instance(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    batch = _batch(tmp_path, n=3)
    missing = tmp_path / "repo0" / "pkg" / "util.py"
    missing.unlink()
    outputs = []
    for workers in (1, 2):
        corpus = tmp_path / f"corpus{workers}.jsonl"
        args = ["--seed", 5, "--parallelism", workers, "distill", "--batch", batch, "--out", corpus]
        assert _run(args) == EXIT_PARTIAL
        outputs.append((corpus.read_bytes(), capsys.readouterr().out))
    assert outputs[0] == outputs[1]
    records = [json.loads(line) for line in outputs[0][0].decode().splitlines()]
    assert [r["instance_id"] for r in records] == ["batch-1", "batch-2"]
    assert outputs[0][1].splitlines() == [
        f"batch-0: failed: context file not found: {missing}",
        "batch-1: minimized",
        "batch-2: minimized",
    ]


def test_distill_batch_fails_an_instance_id_that_repeats(tmp_path, monkeypatch, capsys):
    """The later file with an id already seen, in input order, fails as bad
    input: no record, no trace file, and the corpus still exports."""
    batch = tmp_path / "batch"
    for name, instance_id, line in (("a", "same-id", 2), ("b", "other", 2), ("c", "same-id", 6)):
        write_instance(
            batch / f"{name}.json",
            tmp_path / f"repo-{name}",
            FILES,
            instance_id=instance_id,
            fault_locations=[{"path": "pkg/core.py", "line": line}],
            mock_required=[{"path": "pkg/core.py", "line": line}],
        )
    alone = tmp_path / "alone"
    alone.mkdir()
    monkeypatch.chdir(alone)
    assert _run(["--seed", 5, "distill", batch / "a.json", "--out", alone / "corpus.jsonl"]) == EXIT_OK
    first_traces = {p.name: p.read_bytes() for p in (alone / "traces").iterdir()}
    capsys.readouterr()

    outputs = []
    for workers in (1, 2):
        run_dir = tmp_path / f"run{workers}"
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)
        corpus = run_dir / "corpus.jsonl"
        args = ["--seed", 5, "--parallelism", workers, "distill", "--batch", batch, "--out", corpus]
        assert _run(args) == EXIT_PARTIAL
        assert {p.name: p.read_bytes() for p in (run_dir / "traces").glob("same-id.*")} == first_traces
        assert _run(["export", corpus, "--out", run_dir / "triples.jsonl"]) == EXIT_OK
        outputs.append((corpus.read_bytes(), capsys.readouterr().out))
    assert outputs[0] == outputs[1]
    records = [json.loads(line) for line in outputs[0][0].decode().splitlines()]
    assert [r["instance_id"] for r in records] == ["same-id", "other"]
    assert outputs[0][1].splitlines() == [
        "same-id: minimized",
        "other: minimized",
        f"{batch / 'c.json'}: failed: instance_id 'same-id' repeats {batch / 'a.json'}",
    ]


def test_distill_single_bad_instance_still_exits_2(tmp_path, instance_path, capsys):
    (tmp_path / "repo" / "pkg" / "util.py").unlink()
    corpus = tmp_path / "corpus.jsonl"
    assert _run(["--no-trace", "distill", instance_path, "--out", corpus]) == EXIT_USAGE
    assert "context file not found" in capsys.readouterr().err
    assert not corpus.exists()


def _spoil(instance_json, fault):
    """Give an instance file bad input that only distilling finds: a
    context file listed twice, a ``mock_required`` id no unit has, or a
    ``mock_required`` locator without a line."""
    data = json.loads(instance_json.read_text(encoding="utf-8"))
    if fault == "duplicate":
        data["context_files"].append(data["context_files"][0])
        message = "context file listed twice: pkg/core.py"
    elif fault == "unknown-id":
        data["mock_required"] = ["pkg/core.py::nope"]
        message = "locator pkg/core.py::nope names no unit of the context"
    else:
        data["mock_required"] = [{"path": "pkg/core.py"}]
        message = "locator {'path': 'pkg/core.py'} needs a path and a line number"
    instance_json.write_text(json.dumps(data), encoding="utf-8")
    return message


@pytest.mark.parametrize("fault", ["duplicate", "unknown-id", "no-line"])
def test_distill_batch_survives_bad_input_found_while_distilling(tmp_path, monkeypatch, capsys, fault):
    monkeypatch.chdir(tmp_path)
    batch = _batch(tmp_path, n=2)
    message = _spoil(batch / "inst0.json", fault)
    corpus = tmp_path / "corpus.jsonl"
    args = ["--seed", 5, "distill", "--batch", batch, "--out", corpus]
    assert _run(args) == EXIT_PARTIAL
    records = [json.loads(line) for line in corpus.read_text().splitlines()]
    assert [r["instance_id"] for r in records] == ["batch-1"]
    assert capsys.readouterr().out.splitlines() == [f"batch-0: failed: {message}", "batch-1: minimized"]


@pytest.mark.parametrize("fault", ["duplicate", "unknown-id", "no-line"])
def test_distill_single_instance_with_bad_input_exits_2(tmp_path, instance_path, capsys, fault):
    message = _spoil(instance_path, fault)
    corpus = tmp_path / "corpus.jsonl"
    assert _run(["--no-trace", "distill", instance_path, "--out", corpus]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not corpus.exists()


@pytest.mark.parametrize("workers", [1, 2])
def test_distill_batch_stops_on_an_endpoint_error(tmp_path, monkeypatch, workers):
    monkeypatch.chdir(tmp_path)
    batch = _batch(tmp_path, n=2)

    def unreachable(instance, *args, **kwargs):
        raise OracleEndpointError("endpoint down")

    monkeypatch.setattr(cli, "distill_instance", unreachable)
    corpus = tmp_path / "corpus.jsonl"
    args = ["--parallelism", workers, "distill", "--batch", batch, "--out", corpus]
    assert _run(args) == EXIT_EXTERNAL
    assert not corpus.exists()


def test_distill_parallelism_zero_exits_2(tmp_path, instance_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    assert _run(["--parallelism", 0, "distill", instance_path, "--out", corpus]) == EXIT_USAGE
    assert "parallelism" in capsys.readouterr().err
    assert not corpus.exists()


def test_distill_batch_with_malformed_instance_distills_the_others(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    batch = _batch(tmp_path, n=3)
    bad = batch / "inst1.json"
    bad.write_text("{not json", encoding="utf-8")
    corpus = tmp_path / "corpus.jsonl"
    assert _run(["--parallelism", 2, "distill", "--batch", batch, "--out", corpus]) == EXIT_PARTIAL
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "batch-0: minimized" and lines[2] == "batch-2: minimized"
    assert lines[1].startswith(f"{bad}: failed: instance file {bad} is not valid JSON")
    assert [json.loads(row)["instance_id"] for row in corpus.read_text().splitlines()] == ["batch-0", "batch-2"]


MALFORMED_ENTRIES = {
    "fault without line": {"fault_location": [{"path": "pkg/core.py"}]},
    "fault without path": {"fault_location": [{"line": 2}]},
    "non-integer line": {"fault_location": [{"path": "pkg/core.py", "line": "two"}]},
    "context file without path": {"context_files": [{"name": "pkg/core.py"}]},
}


@pytest.mark.parametrize("entry", MALFORMED_ENTRIES.values(), ids=MALFORMED_ENTRIES.keys())
def test_distill_malformed_instance_entry_exits_2(tmp_path, monkeypatch, capsys, entry):
    monkeypatch.chdir(tmp_path)
    batch = _batch(tmp_path, n=2)
    bad = batch / "inst1.json"
    bad.write_text(json.dumps({**json.loads(bad.read_text()), **entry}), encoding="utf-8")
    corpus = tmp_path / "corpus.jsonl"
    assert _run(["distill", bad, "--out", corpus]) == EXIT_USAGE
    assert str(bad) in capsys.readouterr().err
    assert not corpus.exists()
    assert _run(["distill", "--batch", batch, "--out", corpus]) == EXIT_PARTIAL
    distilled, failed = capsys.readouterr().out.splitlines()
    assert distilled == "batch-0: minimized" and failed.startswith(f"{bad}: failed: instance file {bad}: ")
    assert [json.loads(row)["instance_id"] for row in corpus.read_text().splitlines()] == ["batch-0"]


def test_distill_requires_instance_xor_batch(tmp_path, instance_path):
    assert _run(["distill", instance_path, "--batch", tmp_path, "--out", tmp_path / "c.jsonl"]) == EXIT_USAGE
    assert _run(["distill", "--out", tmp_path / "c.jsonl"]) == EXIT_USAGE


def test_a_batch_without_its_directory_or_with_a_bad_config_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    batch = _batch(tmp_path, n=2)
    config = tmp_path / "config.json"
    config.write_text("{not json", encoding="utf-8")
    corpus = tmp_path / "corpus.jsonl"
    assert _run(["distill", "--batch", tmp_path / "nope", "--out", corpus]) == EXIT_USAGE
    assert "batch directory not found" in capsys.readouterr().err
    assert _run(["--config", config, "distill", "--batch", batch, "--out", corpus]) == EXIT_USAGE
    assert str(config) in capsys.readouterr().err
    assert not corpus.exists()


def test_distill_budget_exhaustion_exits_3(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = write_instance(
        tmp_path / "i.json",
        tmp_path / "repo",
        FILES,
        instance_id="hard",
        fault_locations=[{"path": "pkg/core.py", "line": 2}],
        mock_required=[{"path": "pkg/core.py", "line": 2}],
        mock_distractors=[{"path": "pkg/core.py", "line": 2}],
    )
    corpus = tmp_path / "corpus.jsonl"
    code = _run(["--no-trace", "--set", "oracle.eval_budget=2", "distill", path, "--out", corpus])
    assert code == EXIT_PARTIAL
    records = [json.loads(line) for line in corpus.read_text().splitlines()]
    assert records[0]["status"] == "unminimized"


@pytest.mark.parametrize("search", [[], ["--no-ga"]])
def test_distill_budget_exhausted_in_phase2_exits_3(tmp_path, instance_path, capsys, search):
    corpus = tmp_path / "corpus.jsonl"
    args = ["--no-trace", "--set", "oracle.eval_budget=3", "distill", instance_path, *search, "--out", corpus]
    assert _run(args) == EXIT_PARTIAL
    assert capsys.readouterr().out == "inst-0: minimized (budget exhausted)\n"
    record = json.loads(corpus.read_text())
    # the third call, a file probe, accepted 3 leaves before the fourth was refused
    assert len(record["minimal_leaf_ids"]) == 3
    assert not record["one_minimal_certified"]


def test_compress_writes_output_and_stats(tmp_path, instance_path):
    out = tmp_path / "compressed.txt"
    assert _run(["compress", instance_path, "--rate", 2.0, "--out", out]) == EXIT_OK
    assert out.exists()
    stats = json.loads((tmp_path / "compressed.txt.stats.json").read_text())
    assert set(stats) == {
        "initial_tokens",
        "compressed_tokens",
        "achieved_rate",
        "latency_seconds",
        "selected_segment_ids",
    }
    assert stats["achieved_rate"] == stats["initial_tokens"] / stats["compressed_tokens"]


def _reject_constant(name):
    raise ValueError(f"{name} is not a JSON number")


@pytest.mark.parametrize("files", [{"pkg/empty.py": ""}, {}], ids=["an empty context file", "no context files"])
def test_compress_that_keeps_nothing_writes_valid_json(tmp_path, files):
    path = write_instance(tmp_path / "inst.json", tmp_path / "repo", files)
    out = tmp_path / "compressed.txt"
    assert _run(["compress", path, "--out", out]) == EXIT_OK
    stats = json.loads((tmp_path / "compressed.txt.stats.json").read_text(), parse_constant=_reject_constant)
    assert stats["compressed_tokens"] == 0
    assert stats["achieved_rate"] is None


def test_compress_rate_validation(tmp_path, instance_path, capsys):
    assert _run(["compress", instance_path, "--rate", 1.0, "--out", tmp_path / "o.txt"]) == EXIT_USAGE


@pytest.mark.parametrize(
    "override",
    [
        "compression.window_tokens=0",
        "compression.stride_tokens=-1",
        "oracle.samples_n=x",
        "ga.population_size=2.5",
        "parallelism=x",
    ],
)
def test_bad_set_value_exits_2(tmp_path, instance_path, capsys, override):
    out = tmp_path / "o.txt"
    assert _run(["--set", override, "compress", instance_path, "--out", out]) == EXIT_USAGE
    assert override.split("=")[0].split(".")[0] in capsys.readouterr().err
    assert not out.exists()


def test_compress_deterministic_output(tmp_path, instance_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    assert _run(["compress", instance_path, "--rate", 3.0, "--out", a]) == EXIT_OK
    assert _run(["compress", instance_path, "--rate", 3.0, "--out", b]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_compress_remote_scorer_unreachable_exits_4(tmp_path, instance_path, monkeypatch):
    monkeypatch.setenv("OCD_SCORER_URL", "http://127.0.0.1:1/never")
    code = _run(["compress", instance_path, "--scorer", "remote", "--out", tmp_path / "o.txt"])
    assert code == EXIT_EXTERNAL


def test_export_and_stats_roundtrip(tmp_path, instance_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    corpus = tmp_path / "corpus.jsonl"
    assert _run(["--no-trace", "distill", instance_path, "--out", corpus]) == EXIT_OK
    triples = tmp_path / "triples.jsonl"
    assert _run(["export", corpus, "--out", triples]) == EXIT_OK
    rows = [json.loads(line) for line in triples.read_text().splitlines()]
    corpus_rows = [json.loads(line) for line in corpus.read_text().splitlines()]
    assert len(rows) == sum(len(r["context_segments"]) for r in corpus_rows)
    stats_out = tmp_path / "stats.json"
    assert _run(["stats", corpus, "--out", stats_out]) == EXIT_OK
    stats = json.loads(stats_out.read_text())
    assert stats["instances"] == 1
    assert stats["positives"] == 1


def _exhausted_then_normal_corpus(tmp_path, instance_path):
    """A corpus of one record whose oracle budget ran out in Phase II,
    then one normal record."""
    corpus = tmp_path / "corpus.jsonl"
    exhausted = ["--no-trace", "--set", "oracle.eval_budget=3", "distill", instance_path, "--out", corpus]
    assert _run(exhausted) == EXIT_PARTIAL
    normal = write_instance(
        tmp_path / "other.json",
        tmp_path / "other-repo",
        FILES,
        instance_id="inst-1",
        fault_locations=[{"path": "pkg/core.py", "line": 2}],
        mock_required=[{"path": "pkg/core.py", "line": 2}],
    )
    assert _run(["--no-trace", "distill", normal, "--out", corpus]) == EXIT_OK
    return corpus


def test_export_skips_a_record_whose_budget_ran_out(tmp_path, instance_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    corpus = _exhausted_then_normal_corpus(tmp_path, instance_path)
    records = [json.loads(line) for line in corpus.read_text().splitlines()]
    assert [(r["status"], r["budget_exhausted"]) for r in records] == [
        ("minimized", True),
        ("minimized", False),
    ]
    triples = tmp_path / "triples.jsonl"
    assert _run(["export", corpus, "--out", triples]) == EXIT_OK
    rows = [json.loads(line) for line in triples.read_text().splitlines()]
    assert rows and {row["instance_id"] for row in rows} == {"inst-1"}


def test_stats_counts_only_what_export_writes(tmp_path, instance_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    corpus = _exhausted_then_normal_corpus(tmp_path, instance_path)
    normal = json.loads(corpus.read_text().splitlines()[1])
    out = tmp_path / "stats.json"
    assert _run(["stats", corpus, "--out", out]) == EXIT_OK
    stats = json.loads(out.read_text())
    assert stats["instances"] == 1
    assert stats["segments"] == len(normal["context_segments"])
    assert stats["positives"] == len(normal["minimal_leaf_ids"])
    triples = tmp_path / "triples.jsonl"
    assert _run(["export", corpus, "--out", triples]) == EXIT_OK
    rows = [json.loads(line) for line in triples.read_text().splitlines()]
    assert stats["positives"] == sum(row["label"] for row in rows)


def test_export_and_stats_skip_an_uncertified_record(tmp_path, instance_path, monkeypatch):
    """A record the certify sweep did not certify may keep a leaf it
    found removable, so its labels are not exported or counted."""
    monkeypatch.chdir(tmp_path)
    corpus = tmp_path / "corpus.jsonl"
    assert _run(["--no-trace", "distill", instance_path, "--out", corpus]) == EXIT_OK
    certified = json.loads(corpus.read_text())
    uncertified = {**certified, "instance_id": "inst-uncertified", "one_minimal_certified": False}
    with open(corpus, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(uncertified) + "\n")
    triples = tmp_path / "triples.jsonl"
    assert _run(["export", corpus, "--out", triples]) == EXIT_OK
    rows = [json.loads(line) for line in triples.read_text().splitlines()]
    assert [row["instance_id"] for row in rows] == ["inst-0"] * len(certified["context_segments"])
    stats_out = tmp_path / "stats.json"
    assert _run(["stats", corpus, "--out", stats_out]) == EXIT_OK
    assert json.loads(stats_out.read_text())["instances"] == 1


def test_export_zero_positive_corpus_exits_3(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = write_instance(
        tmp_path / "i.json",
        tmp_path / "repo",
        FILES,
        instance_id="unsat",
        fault_locations=[{"path": "pkg/core.py", "line": 2}],
        mock_required=[{"path": "pkg/core.py", "line": 2}],
        mock_distractors=[{"path": "pkg/core.py", "line": 2}],
    )
    corpus = tmp_path / "corpus.jsonl"
    _run(["--no-trace", "distill", path, "--out", corpus])
    assert _run(["export", corpus, "--out", tmp_path / "t.jsonl"]) == EXIT_PARTIAL


def test_stats_empty_corpus_ok(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("")
    out = tmp_path / "stats.json"
    assert _run(["stats", corpus, "--out", out]) == EXIT_OK
    assert json.loads(out.read_text())["instances"] == 0


@pytest.mark.parametrize("command", ["export", "stats"])
def test_malformed_corpus_line_exits_2(tmp_path, capsys, command):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(json.dumps({"bad": 1}) + "\n")
    assert _run([command, corpus, "--out", tmp_path / "out.json"]) == EXIT_USAGE
    assert "line 1" in capsys.readouterr().err


@pytest.mark.parametrize("issue_text", ["", None, 7])
def test_compress_instance_without_issue_text_exits_2(tmp_path, capsys, issue_text):
    path = write_instance(tmp_path / "i.json", tmp_path / "repo", FILES, issue_text=issue_text)
    out = tmp_path / "o.txt"
    assert _run(["compress", path, "--rate", 2.0, "--out", out]) == EXIT_USAGE
    assert "issue_text" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("issue_text", ["", None])
def test_distill_instance_without_issue_text_exits_2(tmp_path, monkeypatch, capsys, issue_text):
    monkeypatch.chdir(tmp_path)
    path = write_instance(
        tmp_path / "i.json",
        tmp_path / "repo",
        FILES,
        issue_text=issue_text,
        mock_required=[{"path": "pkg/core.py", "line": 2}],
    )
    corpus = tmp_path / "corpus.jsonl"
    assert _run(["--no-trace", "distill", path, "--out", corpus]) == EXIT_USAGE
    assert "issue_text" in capsys.readouterr().err
    assert not corpus.exists()


@pytest.mark.parametrize("issue_text", ["", None])
@pytest.mark.parametrize("command", ["export", "stats"])
def test_corpus_record_without_issue_text_exits_2(tmp_path, instance_path, monkeypatch, capsys, command, issue_text):
    monkeypatch.chdir(tmp_path)
    corpus = tmp_path / "corpus.jsonl"
    assert _run(["--no-trace", "distill", instance_path, "--out", corpus]) == EXIT_OK
    record = json.loads(corpus.read_text())
    corpus.write_text(json.dumps({**record, "issue_text": issue_text}) + "\n")
    assert _run([command, corpus, "--out", tmp_path / "out.json"]) == EXIT_USAGE
    assert "issue_text" in capsys.readouterr().err


def test_unknown_config_key_exits_2(tmp_path, instance_path):
    config = tmp_path / "run.json"
    config.write_text('{"nonsense": 1}')
    assert _run(["--config", config, "segment", instance_path, "--out", tmp_path / "o.jsonl"]) == EXIT_USAGE



# each case: the command's arguments, run in a directory holding a regular
# file ``blocked``, and the output they cannot write: one under ``blocked``,
# or a sidecar whose name a directory takes
UNWRITABLE = {
    "segment": (["segment", "{inst}", "--out", "blocked/s.jsonl"], "blocked/s.jsonl"),
    "compress": (["compress", "{inst}", "--out", "blocked/c.txt"], "blocked/c.txt"),
    "compress-stats-sidecar": (["compress", "{inst}", "--out", "c.txt"], "c.txt.stats.json"),
    "distill-corpus": (["--no-trace", "distill", "{inst}", "--out", "blocked/c.jsonl"], "blocked/c.jsonl"),
    "distill-trace": (
        ["--set", "paths.traces=blocked/traces", "distill", "{inst}", "--out", "c.jsonl"],
        "blocked/traces/inst-0.ga.jsonl",
    ),
    "export": (["export", "{corpus}", "--out", "blocked/t.jsonl"], "blocked/t.jsonl"),
    "export-meta-sidecar": (["export", "{corpus}", "--out", "t.jsonl"], "t.jsonl.meta.json"),
    "stats": (["stats", "{corpus}", "--out", "blocked/s.json"], "blocked/s.json"),
}


@pytest.mark.parametrize("case", list(UNWRITABLE))
def test_an_output_that_cannot_be_written_exits_2_naming_it(tmp_path, instance_path, monkeypatch, capsys, case):
    monkeypatch.chdir(tmp_path)
    corpus = tmp_path / "corpus.jsonl"
    assert _run(["--no-trace", "distill", instance_path, "--out", corpus]) == EXIT_OK
    capsys.readouterr()
    args, unwritable = UNWRITABLE[case]
    (tmp_path / "blocked").write_text("")
    if not unwritable.startswith("blocked/"):
        (tmp_path / unwritable).mkdir()
    assert _run([a.format(inst=instance_path, corpus=corpus) for a in args]) == EXIT_USAGE
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: cannot write ") and unwritable in line
