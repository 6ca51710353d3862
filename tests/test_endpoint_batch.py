"""``distill --oracle llm`` batches through the CLI, with perfbench's
in-process fake endpoint as the transport.

An instance whose endpoint calls fail is one failed instance of its
batch; ``ENDPOINT_FAILURE_LIMIT`` such instances in a row, in input
order, stop the batch with exit 4, and no further instance starts.  A
refusal is an HTTP 400, which the oracle does not retry, so no test
sleeps between attempts.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [p for p in (str(ROOT / "src"), str(ROOT / "perfbench")) if p not in sys.path]

import gen
from workloads import FakeEndpoint

from ctxdistill import oracle
from ctxdistill.cli import ENDPOINT_FAILURE_LIMIT, EXIT_EXTERNAL, EXIT_PARTIAL, main


class Refused(Exception):
    response = SimpleNamespace(status_code=400)


def _llm_batch(tmp_path, monkeypatch, n, refused, slow=()):
    """A batch directory of ``n`` seed-7 ``distill_llm`` instances, in
    input order, and the set of instance indices whose endpoint calls
    began.  The endpoint refuses the instances in ``refused``, after 0.3 s
    for those in ``slow``, and answers the others as perfbench's fake
    endpoint does."""
    planted = gen.generate("distill_llm", 7, tmp_path / "instances", count=n)
    assert len({p.fault_symbol for p in planted}) == n
    batch = tmp_path / "batch"
    batch.mkdir()
    for p in planted:
        shutil.copy(p.instance_path, batch / f"{p.instance_id}.json")
    endpoints = [FakeEndpoint(p) for p in planted]
    started = set()

    def transport(url, payload, headers, timeout):
        prompt = payload["messages"][0]["content"]
        [i] = [i for i, p in enumerate(planted) if p.fault_symbol in prompt]
        started.add(i)
        if i in refused:
            time.sleep(0.3 if i in slow else 0)
            raise Refused("context too long")
        return endpoints[i](url, payload, headers, timeout)

    monkeypatch.setattr(oracle, "http_json", transport)
    monkeypatch.setenv(oracle.ENV_LLM_URL, "http://endpoint.invalid/v1/chat")
    monkeypatch.chdir(tmp_path)
    return batch, [p.instance_id for p in planted], started


def _distill(target, workers, corpus, batch=True):
    args = ["--no-trace", "--parallelism", workers, "distill", *(["--batch"] if batch else []), target]
    return main([str(a) for a in [*args, "--oracle", "llm", "--out", corpus]])


@pytest.mark.parametrize("workers", [1, 2])
def test_refused_instances_apart_fail_alone_and_the_batch_exits_3(tmp_path, monkeypatch, capsys, workers):
    batch, ids, started = _llm_batch(tmp_path, monkeypatch, 5, refused={1, 3})
    corpus = tmp_path / "corpus.jsonl"
    assert _distill(batch, workers, corpus) == EXIT_PARTIAL
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(": ")[:2] for line in lines] == [
        [ids[0], "minimized"],
        [ids[1], "failed"],
        [ids[2], "minimized"],
        [ids[3], "failed"],
        [ids[4], "minimized"],
    ]
    assert [json.loads(line)["instance_id"] for line in corpus.read_text().splitlines()] == ids[::2]
    assert started == set(range(5))
    # the same refusal alone is an external failure
    assert _distill(batch / f"{ids[1]}.json", workers, tmp_path / "one.jsonl", batch=False) == EXIT_EXTERNAL
    assert not (tmp_path / "one.jsonl").exists()


def test_a_serial_batch_stops_after_the_limit_of_refusals_in_a_row(tmp_path, monkeypatch, capsys):
    n = ENDPOINT_FAILURE_LIMIT + 2
    batch, ids, started = _llm_batch(tmp_path, monkeypatch, n, refused=set(range(n)))
    corpus = tmp_path / "corpus.jsonl"
    assert _distill(batch, 1, corpus) == EXIT_EXTERNAL
    out, err = capsys.readouterr()
    failed = [line.split(": ")[:2] for line in out.splitlines()]
    assert failed == [[i, "failed"] for i in ids[:ENDPOINT_FAILURE_LIMIT]]
    assert err.startswith(f"error: the endpoint failed for {ENDPOINT_FAILURE_LIMIT} instances in a row")
    assert started == set(range(ENDPOINT_FAILURE_LIMIT))
    assert not corpus.exists()


def test_a_parallel_batch_that_stops_cancels_its_queued_instances(tmp_path, monkeypatch, capsys):
    """The instances after the limit are slow to be refused, so the
    workers are still busy with them when the batch stops: only those
    already running may have started."""
    workers, n = 2, 10
    batch, ids, started = _llm_batch(
        tmp_path, monkeypatch, n, refused=set(range(n)), slow=set(range(ENDPOINT_FAILURE_LIMIT, n))
    )
    corpus = tmp_path / "corpus.jsonl"
    assert _distill(batch, workers, corpus) == EXIT_EXTERNAL
    failed = [line.split(": ")[:2] for line in capsys.readouterr().out.splitlines()]
    assert failed == [[i, "failed"] for i in ids[:ENDPOINT_FAILURE_LIMIT]]
    assert set(range(ENDPOINT_FAILURE_LIMIT)) <= started <= set(range(ENDPOINT_FAILURE_LIMIT + workers))
    assert not corpus.exists()
