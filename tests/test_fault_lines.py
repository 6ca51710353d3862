"""A line number read from an instance file must be a JSON integer, and
a fault line must also be >= 1.

``int()`` would truncate ``2.7`` to 2 and read ``true`` as 1, so a fault
location or a ``mock_required`` locator would silently name another line
than the file does.  Both readers reject anything but an integer: a bad
fault location stops loading (exit 2, a batch included, as for any
malformed instance file), and a bad locator, found while distilling,
fails its instance (exit 2 alone, exit 3 in a batch that goes on).
"""

from __future__ import annotations

import json

import pytest

from ctxdistill.cli import EXIT_PARTIAL, EXIT_USAGE, main
from ctxdistill.code_model import build_tree
from ctxdistill.instance import FaultLocation, InstanceError, resolve_leaf_locators

from fixtures import module_with_functions, write_instance

FILES = {"pkg/core.py": module_with_functions(3, "core")}
BAD_LINES = {"fraction": 2.7, "boolean": True, "string": "3"}
# an integer below 1 names no line, so such a fault would match no unit
BAD_FAULT_LINES = {**BAD_LINES, "zero": 0, "negative": -5}


def _write(path, repo, instance_id, fault_line=2, locator_line=2):
    return write_instance(
        path,
        repo,
        FILES,
        instance_id=instance_id,
        fault_locations=[{"path": "pkg/core.py", "line": fault_line}],
        mock_required=[{"path": "pkg/core.py", "line": locator_line}],
    )


def _run(args):
    return main([str(a) for a in args])


@pytest.mark.parametrize("line", BAD_FAULT_LINES.values(), ids=BAD_FAULT_LINES.keys())
def test_a_fault_location_line_must_be_an_integer(line):
    with pytest.raises(InstanceError):
        FaultLocation.from_json({"path": "a.py", "line": line})
    assert FaultLocation.from_json({"path": "a.py", "line": 2}).line == 2


@pytest.mark.parametrize("line", BAD_LINES.values(), ids=BAD_LINES.keys())
def test_a_locator_line_must_be_an_integer(line):
    tree = build_tree("t", [("pkg/core.py", FILES["pkg/core.py"])])
    with pytest.raises(InstanceError, match="needs a path and a line number"):
        resolve_leaf_locators(tree, [{"path": "pkg/core.py", "line": line}])
    assert resolve_leaf_locators(tree, [{"path": "pkg/core.py", "line": 2}])


@pytest.mark.parametrize("line", BAD_FAULT_LINES.values(), ids=BAD_FAULT_LINES.keys())
def test_a_bad_fault_line_exits_2(tmp_path, monkeypatch, capsys, line):
    monkeypatch.chdir(tmp_path)
    bad = _write(tmp_path / "batch" / "inst0.json", tmp_path / "repo0", "batch-0", fault_line=line)
    _write(tmp_path / "batch" / "inst1.json", tmp_path / "repo1", "batch-1")
    corpus = tmp_path / "corpus.jsonl"
    entry = f"fault_location entry {{'path': 'pkg/core.py', 'line': {line!r}}}"
    assert _run(["distill", bad, "--out", corpus]) == EXIT_USAGE
    assert entry in capsys.readouterr().err
    assert _run(["compress", bad, "--out", tmp_path / "compressed.txt"]) == EXIT_USAGE
    assert entry in capsys.readouterr().err
    assert not corpus.exists() and not (tmp_path / "compressed.txt").exists()
    assert _run(["distill", "--batch", tmp_path / "batch", "--out", corpus]) == EXIT_PARTIAL
    failed, distilled = capsys.readouterr().out.splitlines()
    assert failed.startswith(f"{bad}: failed: instance file {bad}: ") and distilled == "batch-1: minimized"
    assert [json.loads(row)["instance_id"] for row in corpus.read_text().splitlines()] == ["batch-1"]


@pytest.mark.parametrize("line", BAD_LINES.values(), ids=BAD_LINES.keys())
def test_a_bad_locator_line_fails_its_instance(tmp_path, monkeypatch, capsys, line):
    monkeypatch.chdir(tmp_path)
    bad = _write(tmp_path / "batch" / "inst0.json", tmp_path / "repo0", "batch-0", locator_line=line)
    _write(tmp_path / "batch" / "inst1.json", tmp_path / "repo1", "batch-1")
    message = f"locator {{'path': 'pkg/core.py', 'line': {line!r}}} needs a path and a line number"
    corpus = tmp_path / "corpus.jsonl"
    assert _run(["--no-trace", "distill", bad, "--out", corpus]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not corpus.exists()
    assert _run(["distill", "--batch", tmp_path / "batch", "--out", corpus]) == EXIT_PARTIAL
    assert capsys.readouterr().out.splitlines() == [f"batch-0: failed: {message}", "batch-1: minimized"]
    assert [json.loads(row)["instance_id"] for row in corpus.read_text().splitlines()] == ["batch-1"]
