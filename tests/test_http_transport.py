"""Both remote clients over their default transport, ``priority.http_json``,
against a real HTTP server on the loopback interface: the errors they map
and retry are the ones ``requests`` raises, not a stand-in's."""

import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from ctxdistill.code_model import build_tree
from ctxdistill.compressor import RemoteScorer, ScorerError
from ctxdistill.instance import Instance, build_query
from ctxdistill.oracle import LLMOracle, OracleConfig, OracleEndpointError


class _Handler(BaseHTTPRequestHandler):
    """Records each request on the server as (method, path, headers, JSON
    body or ``None``) and answers it with ``server.answer(path, body)``,
    a (status, JSON reply) pair."""

    def do_GET(self):
        self._reply(None)

    def do_POST(self):
        self._reply(json.loads(self.rfile.read(int(self.headers["Content-Length"]))))

    def _reply(self, body):
        self.server.seen.append((self.command, self.path, dict(self.headers), body))
        status, reply = self.server.answer(self.path, body)
        data = json.dumps(reply).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def server(monkeypatch):
    monkeypatch.setenv("no_proxy", "127.0.0.1")  # a proxy setting must not route loopback calls away
    httpd = HTTPServer(("127.0.0.1", 0), _Handler)
    httpd.seen = []
    httpd.url = f"http://127.0.0.1:{httpd.server_port}"
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        yield httpd
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()


def test_the_remote_scorer_reads_its_batch_size_and_scores_over_http(server):
    def answer(path, body):
        if body is None:
            return 200, {"max_batch_size": 3}
        return 200, {"scores": [0.5] * len(body["segments"])}

    server.answer = answer
    scorer = RemoteScorer(base_url=server.url)
    assert scorer.max_batch_size == 3
    query = build_query("issue text", [])
    assert scorer.score_batch(query, [(None, "a"), (None, "b")]) == [0.5, 0.5]
    assert [(method, path, body) for method, path, _, body in server.seen] == [
        ("GET", "/capabilities", None),
        ("POST", "/score", {"query": query.rendered, "segments": ["a", "b"]}),
    ]
    server.answer = lambda path, body: (500, {})
    with pytest.raises(ScorerError, match="500 Server Error"):
        scorer.score_batch(query, [(None, "a")])


def _oracle(tmp_path, url, api_key=None):
    instance = Instance("llm-inst", "an issue", [], ["m.py"], str(tmp_path), test_command="true")
    tree = build_tree(instance.instance_id, [("m.py", "x = 1\n")])
    config = OracleConfig(samples_n=2, timeout_seconds=10)
    return LLMOracle(instance, tree, config, endpoint=url, model="m", api_key=api_key, retry_sleep=0.0)


@pytest.mark.parametrize("status, requests_sent", [(400, 1), (503, 3)])
def test_the_llm_oracle_retries_only_an_error_a_retry_can_change(tmp_path, server, status, requests_sent):
    server.answer = lambda path, body: (status, {"error": "no"})
    oracle = _oracle(tmp_path, f"{server.url}/v1/chat")
    verb = "refused" if status == 400 else "gave no usable reply"
    with pytest.raises(OracleEndpointError, match=f"{verb}.*{status} (Client|Server) Error"):
        oracle._request_completions("prompt")
    assert len(server.seen) == requests_sent


def test_the_llm_oracle_sends_its_key_as_a_bearer_token(tmp_path, server):
    choices = [{"message": {"content": "one"}}, {"message": {"content": "two"}}]
    server.answer = lambda path, body: (200, {"choices": choices})
    oracle = _oracle(tmp_path, f"{server.url}/v1/chat", api_key="sk-test")
    assert oracle._request_completions("prompt") == ["one", "two"]
    [(method, path, headers, body)] = server.seen
    assert (method, path, headers["Authorization"]) == ("POST", "/v1/chat", "Bearer sk-test")
    assert (body["model"], body["n"], body["messages"]) == ("m", 2, [{"role": "user", "content": "prompt"}])
