"""Malformed input files are bad input, never a traceback and never
silently coerced.

A coverage report, gold patch or context file that does not read, decode
or parse fails its instance: exit 2 alone, exit 3 in a batch that goes
on with the next instance.  An instance file that is not UTF-8, is a
directory or holds a value of the wrong JSON type is bad input like one
that is not JSON: exit 2, and a batch stops before it distills anything.
A config file or corpus that does not read, decode or parse, or a config
value of the wrong JSON type, exits 2 naming the file.  A number that is
NaN or infinite, in a config file, a ``--set`` override or ``--rate``,
exits 2 naming its key or flag.  A corpus record
whose ids, flags, counts, lines, kept ids, status, provenance, fault
locations or segment fields have the wrong JSON type is a corpus format
error (exit 2): ``bool("false")`` is ``True`` and ``int(2.7)`` is 2, so
a coerced record would drop out of ``stats`` or name another line, and
so is a record whose instance id an earlier line holds.  A context file
is read as UTF-8, whatever coding cookie it declares.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from ctxdistill.cli import EXIT_OK, EXIT_PARTIAL, EXIT_USAGE, main
from ctxdistill.instance import InstanceError, load_instance
from ctxdistill.priority import CoverageReport

from fixtures import module_with_functions, write_instance

FILES = {
    "pkg/core.py": module_with_functions(3, "core"),
    "pkg/util.py": module_with_functions(2, "util"),
}

# fault -> (instance key naming the file, or None for a context file; bytes)
SPOILS = {
    "report-not-json": ("coverage_report_path", b"{not json"),
    "report-a-list": ("coverage_report_path", b"[]"),
    "files-a-list": ("coverage_report_path", b'{"files": [1, 2]}'),
    "fraction-line": ("coverage_report_path", b'{"files": {"pkg/core.py": [2.7]}}'),
    "boolean-line": ("coverage_report_path", b'{"files": {"pkg/core.py": [true]}}'),
    "patch-not-utf8": ("gold_patch_path", b"--- a/pkg/core.py\n+++ b/pkg/core.py\n@@ -1 +1 @@\n-\xff\n+x\n"),
    "context-not-utf8": (None, b"x = '\xff'\n"),
}


def _write(path, repo, instance_id="inst-0"):
    return write_instance(
        path,
        repo,
        FILES,
        instance_id=instance_id,
        fault_locations=[{"path": "pkg/core.py", "line": 2}],
        mock_required=[{"path": "pkg/core.py", "line": 2}],
    )


def _spoil(instance_json: Path, fault: str) -> Path:
    """Point an instance at a malformed file; returns that file."""
    key, content = SPOILS[fault]
    data = json.loads(instance_json.read_text(encoding="utf-8"))
    if key is None:
        bad = Path(data["repo_root"]) / "pkg/core.py"
    else:
        bad = instance_json.with_suffix(f".{fault}")
        data[key] = str(bad)
    bad.write_bytes(content)
    instance_json.write_text(json.dumps(data), encoding="utf-8")
    return bad


def _run(args):
    return main([str(a) for a in args])


@pytest.mark.parametrize("nums", [[1, 2.7], [True], ["3"], 5], ids=["fraction", "boolean", "string", "not-a-list"])
def test_a_coverage_line_must_be_a_json_integer(nums):
    with pytest.raises(ValueError, match="a.py"):
        CoverageReport.from_json({"files": {"a.py": nums}})


@pytest.mark.parametrize("data", [{"files": [1, 2]}, [], "files"], ids=["files-a-list", "list", "string"])
def test_a_coverage_report_needs_a_files_object(data):
    with pytest.raises(ValueError, match="files object"):
        CoverageReport.from_json(data)


@pytest.mark.parametrize("fault", SPOILS)
def test_a_single_instance_with_a_malformed_file_exits_2(tmp_path, monkeypatch, capsys, fault):
    monkeypatch.chdir(tmp_path)
    instance = _write(tmp_path / "inst.json", tmp_path / "repo")
    bad = _spoil(instance, fault)
    corpus = tmp_path / "corpus.jsonl"
    assert _run(["--no-trace", "distill", instance, "--out", corpus]) == EXIT_USAGE
    assert str(bad) in capsys.readouterr().err
    assert not corpus.exists()


@pytest.mark.parametrize("fault", SPOILS)
def test_a_batch_goes_on_past_a_malformed_file(tmp_path, monkeypatch, capsys, fault):
    monkeypatch.chdir(tmp_path)
    batch = tmp_path / "batch"
    paths = [_write(batch / f"inst{i}.json", tmp_path / f"repo{i}", f"batch-{i}") for i in range(3)]
    bad = _spoil(paths[1], fault)
    corpus = tmp_path / "corpus.jsonl"
    assert _run(["--no-trace", "distill", "--batch", batch, "--out", corpus]) == EXIT_PARTIAL
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "batch-0: minimized" and lines[2] == "batch-2: minimized"
    assert lines[1].startswith("batch-1: failed: ") and str(bad) in lines[1]
    assert [json.loads(row)["instance_id"] for row in corpus.read_text().splitlines()] == [
        "batch-0",
        "batch-2",
    ]


def test_compress_with_an_undecodable_context_file_exits_2(tmp_path, capsys):
    instance = _write(tmp_path / "inst.json", tmp_path / "repo")
    bad = _spoil(instance, "context-not-utf8")
    out = tmp_path / "o.txt"
    assert _run(["compress", instance, "--rate", 2.0, "--out", out]) == EXIT_USAGE
    assert str(bad) in capsys.readouterr().err
    assert not out.exists()


def _spoil_instance_file(instance_json: Path) -> None:
    """Put a byte that is not UTF-8 into the instance file's issue text."""
    raw = instance_json.read_bytes()
    instance_json.write_bytes(raw.replace(b'"issue_text": "', b'"issue_text": "\xff', 1))


@pytest.mark.parametrize("command", ["segment", "compress", "distill"])
def test_an_instance_file_that_is_not_utf8_exits_2(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    instance = _write(tmp_path / "inst.json", tmp_path / "repo")
    _spoil_instance_file(instance)
    out = tmp_path / "out"
    args = {"segment": ["--out", out], "compress": ["--rate", 2.0, "--out", out], "distill": ["--out", out]}
    assert _run(["--no-trace", command, instance, *args[command]]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert str(instance) in err and "UTF-8" in err
    assert not out.exists()


def test_a_batch_with_an_instance_file_that_is_not_utf8_distills_the_others(tmp_path, monkeypatch, capsys):
    """An instance file fails only its own instance, as the files it
    names do."""
    monkeypatch.chdir(tmp_path)
    batch = tmp_path / "batch"
    paths = [_write(batch / f"inst{i}.json", tmp_path / f"repo{i}", f"batch-{i}") for i in range(3)]
    _spoil_instance_file(paths[1])
    corpus = tmp_path / "corpus.jsonl"
    assert _run(["--no-trace", "distill", "--batch", batch, "--out", corpus]) == EXIT_PARTIAL
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0] == "batch-0: minimized" and lines[2] == "batch-2: minimized"
    assert lines[1].startswith(f"{paths[1]}: failed: instance file {paths[1]} is not UTF-8")
    assert captured.err == ""
    assert [json.loads(row)["instance_id"] for row in corpus.read_text().splitlines()] == ["batch-0", "batch-2"]


def _make_directory(path: Path) -> None:
    path.unlink(missing_ok=True)
    path.mkdir(parents=True)


def _update(change):
    """A fault that rewrites a JSON instance file through ``change``."""

    def spoil(path: Path) -> None:
        data = json.loads(path.read_text(encoding="utf-8"))
        change(data)
        path.write_text(json.dumps(data), encoding="utf-8")

    return spoil


# fault -> how an instance file gets it
INSTANCE_FAULTS = {
    "gold-patch-path-a-number": _update(lambda d: d.update(gold_patch_path=5)),
    "instance-id-null": _update(lambda d: d.update(instance_id=None)),
    "symbol-a-list": _update(lambda d: d["fault_location"][0].update(symbol=["x"])),
    "a-directory": _make_directory,
}


@pytest.mark.parametrize("fault", INSTANCE_FAULTS)
def test_an_instance_file_with_a_fault_exits_2(tmp_path, monkeypatch, capsys, fault):
    monkeypatch.chdir(tmp_path)
    instance = _write(tmp_path / "inst.json", tmp_path / "repo")
    INSTANCE_FAULTS[fault](instance)
    corpus = tmp_path / "corpus.jsonl"
    assert _run(["--no-trace", "distill", instance, "--out", corpus]) == EXIT_USAGE
    assert str(instance) in capsys.readouterr().err
    assert not corpus.exists()


# fault -> the config file's bytes, or None for a directory
CONFIG_FAULTS = {
    "fractional-population-size": b'{"ga": {"population_size": 2.5}}',
    "fractional-parallelism": b'{"parallelism": 2.7}',
    "not-utf8": b'{"paths": {"traces": "\xff"}}',
    "a-directory": None,
    "nan-weight": b'{"weights": {"w_p": NaN}}',
    "infinite-rate": b'{"compression": {"rate": Infinity}}',
    "overflowing-weight": b'{"weights": {"w_c": 1e999}}',
}
# fault -> the key its error must name, where there is one
CONFIG_FAULT_KEYS = {"nan-weight": "weights.w_p", "infinite-rate": "compression.rate", "overflowing-weight": "weights.w_c"}


@pytest.mark.parametrize("fault", CONFIG_FAULTS)
def test_a_config_file_with_a_fault_exits_2(tmp_path, monkeypatch, capsys, fault):
    monkeypatch.chdir(tmp_path)
    instance = _write(tmp_path / "inst.json", tmp_path / "repo")
    config = tmp_path / "run.json"
    if CONFIG_FAULTS[fault] is None:
        config.mkdir()
    else:
        config.write_bytes(CONFIG_FAULTS[fault])
    corpus = tmp_path / "corpus.jsonl"
    assert _run(["--config", config, "--no-trace", "distill", instance, "--out", corpus]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert str(config) in err and CONFIG_FAULT_KEYS.get(fault, "") in err
    assert not corpus.exists()


# case -> (options before and after ``compress``, the key or flag the error must name)
NON_FINITE_OPTIONS = {
    "set-nan-weight": (["--set", "weights.w_p=nan"], [], "weights.w_p"),
    "set-infinite-rate": (["--set", "compression.rate=inf"], [], "compression.rate"),
    "nan-rate": ([], ["--rate", "nan"], "--rate"),
    "infinite-rate": ([], ["--rate", "inf"], "--rate"),
}


@pytest.mark.parametrize("case", NON_FINITE_OPTIONS)
def test_a_non_finite_number_on_the_command_line_exits_2(tmp_path, capsys, case):
    before, after, name = NON_FINITE_OPTIONS[case]
    instance = _write(tmp_path / "inst.json", tmp_path / "repo")
    out = tmp_path / "o.txt"
    assert _run([*before, "compress", instance, *after, "--out", out]) == EXIT_USAGE
    assert name in capsys.readouterr().err
    assert not out.exists()


# fault -> the corpus file's bytes, or None for a directory
CORPUS_FAULTS = {"not-utf8": b'{"instance_id": "\xff"}\n', "a-directory": None}


@pytest.mark.parametrize("command", ["export", "stats"])
@pytest.mark.parametrize("fault", CORPUS_FAULTS)
def test_a_corpus_file_with_a_fault_exits_2(tmp_path, capsys, command, fault):
    corpus = tmp_path / "corpus.jsonl"
    if CORPUS_FAULTS[fault] is None:
        corpus.mkdir()
    else:
        corpus.write_bytes(CORPUS_FAULTS[fault])
    out = tmp_path / "out.json"
    assert _run([command, corpus, "--out", out]) == EXIT_USAGE
    assert str(corpus) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("issue_text", ["", None, 7])
def test_an_instance_built_in_code_needs_an_issue_text(tmp_path, issue_text):
    """Checked when the instance is made, so a distillation never starts."""
    instance = load_instance(_write(tmp_path / "inst.json", tmp_path / "repo"))
    with pytest.raises(InstanceError, match="issue_text"):
        dataclasses.replace(instance, issue_text=issue_text)


def _unkept_segment(record: dict) -> dict:
    """A segment the record does not keep, so that no other check on the
    kept ids sees a changed id."""
    kept = set(record["minimal_leaf_ids"])
    return next(seg for seg in record["context_segments"] if seg["id"] not in kept)


# field -> how a distilled record gets it with the wrong JSON type
WRONG_TYPES = {
    "one_minimal_certified": lambda r: r.update(one_minimal_certified="false"),
    "budget_exhausted": lambda r: r.update(budget_exhausted="false"),
    "oracle_calls": lambda r: r.update(oracle_calls=2.7),
    "start_line": lambda r: r["context_segments"][0].update(start_line=True),
    "id": lambda r: _unkept_segment(r).update(id=3),
    "path": lambda r: _unkept_segment(r).update(path=None),
    "kind": lambda r: _unkept_segment(r).update(kind=["leaf"]),
    "text": lambda r: _unkept_segment(r).update(text=5),
    "role": lambda r: _unkept_segment(r).update(role=7),
    "minimal_leaf_ids": lambda r: r.update(minimal_leaf_ids=dict.fromkeys(r["minimal_leaf_ids"], True)),
    "status": lambda r: r.update(status="weird"),
    "instance_id": lambda r: r.update(instance_id=5),
    "repo": lambda r: r.update(repo=5),
    "provenance": lambda r: r.update(provenance=[]),
    # the error names the entry as an instance file does
    "fault_location": lambda r: r["fault_locations"][0].update(path=5),
}


@pytest.mark.parametrize("command", ["export", "stats"])
@pytest.mark.parametrize("field", WRONG_TYPES)
def test_a_corpus_field_of_the_wrong_type_exits_2(tmp_path, monkeypatch, capsys, command, field):
    monkeypatch.chdir(tmp_path)
    instance = _write(tmp_path / "inst.json", tmp_path / "repo")
    corpus = tmp_path / "corpus.jsonl"
    assert _run(["--no-trace", "distill", instance, "--out", corpus]) == EXIT_OK
    record = json.loads(corpus.read_text())
    WRONG_TYPES[field](record)
    corpus.write_text(json.dumps(record) + "\n")
    capsys.readouterr()
    assert _run([command, corpus, "--out", tmp_path / "out.json"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert str(corpus) in err and "line 1" in err and field in err


@pytest.mark.parametrize("command", ["export", "stats"])
def test_a_corpus_that_repeats_an_instance_id_exits_2(tmp_path, monkeypatch, capsys, command):
    """A batch run twice into one corpus would export every triple twice
    and skew the role weights."""
    monkeypatch.chdir(tmp_path)
    corpus = tmp_path / "corpus.jsonl"
    for i in range(2):
        instance = _write(tmp_path / f"inst{i}.json", tmp_path / f"repo{i}", f"inst-{i}")
        assert _run(["--no-trace", "distill", instance, "--out", corpus]) == EXIT_OK
    assert _run(["--no-trace", "distill", tmp_path / "inst0.json", "--out", corpus]) == EXIT_OK
    capsys.readouterr()
    out = tmp_path / "out.json"
    assert _run([command, corpus, "--out", out]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"corpus {corpus}, line 3: instance_id 'inst-0' repeats line 1" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["segment", "compress", "distill"])
def test_a_context_file_with_a_coding_cookie_is_read_as_utf8(tmp_path, monkeypatch, capsys, command):
    """Context files are UTF-8 whatever their PEP 263 cookie declares."""
    monkeypatch.chdir(tmp_path)
    instance = _write(tmp_path / "inst.json", tmp_path / "repo")
    bad = tmp_path / "repo" / "pkg" / "core.py"
    bad.write_bytes(b"# -*- coding: latin-1 -*-\nname = '\xe9t\xe9'\n")
    out = tmp_path / "out"
    args = {"segment": ["--out", out], "compress": ["--rate", 2.0, "--out", out], "distill": ["--out", out]}
    assert _run(["--no-trace", command, instance, *args[command]]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"context file {bad} is not UTF-8" in err
    assert not out.exists()
