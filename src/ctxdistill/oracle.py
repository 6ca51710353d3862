"""Sufficiency oracles: decide whether a candidate context still enables
a passing fix.

Two implementations share one interface: a deterministic mock (a context
is sufficient iff it covers a required leaf set and avoids optional
distractors) and an LLM-backed oracle that samples repair patches from a
chat-completion endpoint, applies each to a scratch copy of the repo,
and majority-votes on test outcomes.  ``OracleSession`` wraps either one
with a verdict cache and a hard evaluation budget shared across search
phases.
"""

from __future__ import annotations

import hashlib
import math
import os
import re
import shutil
import subprocess
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from threading import Lock
from typing import Callable, Iterable, Protocol

from .code_model import UnitTree, upward_closure
from .render import render

ENV_LLM_URL = "OCD_LLM_URL"
ENV_LLM_MODEL = "OCD_LLM_MODEL"
ENV_LLM_KEY = "OCD_LLM_KEY"


class OracleBudgetExhausted(RuntimeError):
    """The per-instance evaluation cap was hit."""


class OracleEndpointError(RuntimeError):
    """The LLM endpoint stayed unreachable after retries."""


class PatchApplyError(ValueError):
    pass


@dataclass(frozen=True)
class OracleConfig:
    samples_n: int = 4
    pass_threshold: float = 0.5
    timeout_seconds: int = 300
    cache_enabled: bool = True
    eval_budget: int = 300
    temperature: float = 0.8
    max_tokens: int = 4096

    def __post_init__(self) -> None:
        if self.samples_n < 1:
            raise ValueError("samples_n must be >= 1")
        if not (0 < self.pass_threshold <= 1):
            raise ValueError("pass_threshold must be in (0, 1]")
        if self.timeout_seconds < 1:
            raise ValueError("timeout_seconds must be positive")
        if self.eval_budget < 1:
            raise ValueError("eval_budget must be positive")


@dataclass(frozen=True)
class SampleOutcome:
    patch_text: str | None
    applied: bool
    test_exit_status: int | None
    duration_seconds: float
    timed_out: bool = False


@dataclass(frozen=True)
class OracleVerdict:
    sufficient: bool
    passes: int
    samples: int
    per_sample: tuple[SampleOutcome, ...] = ()
    cache_hit: bool = False


def required_passes(threshold: float, samples: int) -> int:
    return math.ceil(threshold * samples)


def make_verdict(
    passes: int,
    samples: int,
    threshold: float,
    per_sample: Iterable[SampleOutcome] = (),
) -> OracleVerdict:
    if passes > samples:
        raise ValueError("passes cannot exceed samples")
    return OracleVerdict(
        sufficient=passes >= required_passes(threshold, samples),
        passes=passes,
        samples=samples,
        per_sample=tuple(per_sample),
    )


def verdict_cache_key(instance_id: str, included_leaf_ids: Iterable[str]) -> str:
    """Deterministic key over the instance and the sorted leaf-id set."""
    payload = instance_id + "\x00" + "\n".join(sorted(included_leaf_ids))
    return hashlib.sha1(payload.encode("utf-8")).hexdigest()


class Oracle(Protocol):
    def evaluate(self, included_leaf_ids: frozenset[str]) -> OracleVerdict: ...


class MockOracle:
    """Deterministic test double: sufficient iff the required leaves are
    all included and no distractor leaf is.  Monotone when there are no
    distractors.  Safe for concurrent use."""

    def __init__(
        self,
        required: Iterable[str],
        distractors: Iterable[str] = (),
    ):
        self.required = frozenset(required)
        self.distractors = frozenset(distractors)
        self.calls = 0
        self._lock = Lock()

    def evaluate(self, included_leaf_ids: frozenset[str]) -> OracleVerdict:
        with self._lock:
            self.calls += 1
        ok = self.required <= included_leaf_ids and not (
            included_leaf_ids & self.distractors
        )
        return OracleVerdict(sufficient=ok, passes=1 if ok else 0, samples=1)


class OracleSession:
    """Budgeted, cached front door to an oracle.

    ``fresh=True`` bypasses the cache lookup (the verdict is still
    stored), which the certification sweep uses to re-test with new
    evaluations.  Cache hits do not count against the budget.
    """

    def __init__(self, oracle: Oracle, instance_id: str, config: OracleConfig | None = None):
        self.oracle = oracle
        self.instance_id = instance_id
        self.config = config or OracleConfig()
        self.invocations = 0
        self._cache: dict[str, OracleVerdict] = {}
        self._lock = Lock()

    def evaluate(self, included_leaf_ids: frozenset[str], fresh: bool = False) -> OracleVerdict:
        key = verdict_cache_key(self.instance_id, included_leaf_ids)
        if self.config.cache_enabled and not fresh:
            with self._lock:
                cached = self._cache.get(key)
            if cached is not None:
                return replace(cached, cache_hit=True)
        with self._lock:
            if self.invocations >= self.config.eval_budget:
                raise OracleBudgetExhausted(
                    f"oracle budget of {self.config.eval_budget} evaluations exhausted"
                )
            self.invocations += 1
        verdict = self.oracle.evaluate(included_leaf_ids)
        with self._lock:
            self._cache[key] = verdict
        return verdict


# --- unified diff application ------------------------------------------


@dataclass
class _Hunk:
    old_start: int
    old_len: int
    lines: list[str] = field(default_factory=list)


_HUNK_HDR = re.compile(r"^@@ -(\d+)(?:,(\d+))? \+(\d+)(?:,(\d+))? @@")


def _parse_patch_files(patch_text: str) -> list[tuple[str | None, str | None, list[_Hunk]]]:
    files: list[tuple[str | None, str | None, list[_Hunk]]] = []
    old_path: str | None = None
    new_path: str | None = None
    hunks: list[_Hunk] = []

    def flush() -> None:
        nonlocal old_path, new_path, hunks
        if hunks:
            files.append((old_path, new_path, hunks))
        old_path, new_path, hunks = None, None, []

    def clean(raw: str) -> str | None:
        raw = raw.split("\t")[0].strip()
        if raw == "/dev/null":
            return None
        if raw.startswith(("a/", "b/")):
            raw = raw[2:]
        return raw

    for line in patch_text.splitlines():
        if line.startswith("--- "):
            if hunks:
                flush()
            old_path = clean(line[4:])
        elif line.startswith("+++ "):
            new_path = clean(line[4:])
        elif line.startswith("@@"):
            m = _HUNK_HDR.match(line)
            if not m:
                raise PatchApplyError(f"malformed hunk header: {line}")
            old_start = int(m.group(1))
            old_len = int(m.group(2)) if m.group(2) is not None else 1
            hunks.append(_Hunk(old_start, old_len))
        elif hunks and line.startswith((" ", "+", "-")):
            hunks[-1].lines.append(line)
        elif hunks and line == "":
            hunks[-1].lines.append(" ")  # blank context line with stripped prefix
    flush()
    if not files:
        raise PatchApplyError("patch contains no file hunks")
    return files


def apply_patch_text(root: str | Path, patch_text: str) -> list[str]:
    """Apply a unified diff under ``root``; returns the touched paths.

    Context lines are matched exactly; any mismatch raises
    ``PatchApplyError``.
    """
    root = Path(root)
    touched: list[str] = []
    for old_path, new_path, hunks in _parse_patch_files(patch_text):
        target_rel = new_path or old_path
        if target_rel is None:
            raise PatchApplyError("patch entry with no usable path")
        source_rel = old_path
        old_lines: list[str] = []
        if source_rel is not None:
            source_file = root / source_rel
            if not source_file.exists():
                raise PatchApplyError(f"patch target missing: {source_rel}")
            old_lines = source_file.read_text(encoding="utf-8").splitlines()

        out: list[str] = []
        pos = 0
        for hunk in hunks:
            # with a zero-length old side the start names the line *after*
            # which to insert; otherwise it is the first affected line
            anchor = hunk.old_start if hunk.old_len == 0 else hunk.old_start - 1
            if anchor < pos or anchor > len(old_lines):
                raise PatchApplyError(f"hunk out of range at line {hunk.old_start}")
            out.extend(old_lines[pos:anchor])
            pos = anchor
            for body in hunk.lines:
                tag, text = body[0], body[1:]
                if tag == " ":
                    if pos >= len(old_lines) or old_lines[pos] != text:
                        raise PatchApplyError(
                            f"context mismatch at {target_rel}:{pos + 1}"
                        )
                    out.append(text)
                    pos += 1
                elif tag == "-":
                    if pos >= len(old_lines) or old_lines[pos] != text:
                        raise PatchApplyError(
                            f"removed-line mismatch at {target_rel}:{pos + 1}"
                        )
                    pos += 1
                elif tag == "+":
                    out.append(text)
        out.extend(old_lines[pos:])

        if new_path is None:
            (root / source_rel).unlink()
        else:
            target = root / target_rel
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text("\n".join(out) + ("\n" if out else ""), encoding="utf-8")
        touched.append(target_rel)
    return touched


# --- LLM oracle ---------------------------------------------------------

_DIFF_FENCE = re.compile(r"```(?:diff|patch)?\n(.*?)```", re.DOTALL)


def extract_patch(completion: str) -> str | None:
    """Pull a unified diff out of a completion (fenced block preferred)."""
    for block in _DIFF_FENCE.findall(completion):
        if "@@" in block:
            return block
    for marker in ("diff --git ", "--- "):
        idx = completion.find(marker)
        if idx != -1 and "@@" in completion[idx:]:
            return completion[idx:]
    return None


def _default_transport(url: str, payload: dict, headers: dict, timeout: int) -> dict:
    import requests

    response = requests.post(url, json=payload, headers=headers, timeout=timeout)
    response.raise_for_status()
    return response.json()


REPAIR_PROMPT = (
    "You are fixing a bug in a repository. Read the issue, the fault "
    "locations, and the code context, then reply with a unified diff "
    "patch inside a ```diff fence.\n\n{query}\n\nCODE CONTEXT:\n{context}\n"
)


class LLMOracle:
    """Samples n repair patches per evaluation and majority-votes on
    test outcomes.  Each sample runs against a fresh scratch copy of the
    repository; a patch that fails to apply or a test run that times out
    counts as a failing sample."""

    def __init__(
        self,
        instance,
        tree: UnitTree,
        config: OracleConfig | None = None,
        endpoint: str | None = None,
        model: str | None = None,
        api_key: str | None = None,
        transport: Callable[[str, dict, dict, int], dict] | None = None,
        log_dir: str | Path | None = None,
        retry_sleep: float = 1.0,
    ):
        self.instance = instance
        self.tree = tree
        self.config = config or OracleConfig()
        self.endpoint = endpoint or os.environ.get(ENV_LLM_URL, "")
        self.model = model or os.environ.get(ENV_LLM_MODEL, "")
        self.api_key = api_key or os.environ.get(ENV_LLM_KEY, "")
        self.transport = transport or _default_transport
        self.log_dir = Path(log_dir) if log_dir else None
        self.retry_sleep = retry_sleep
        if not self.endpoint:
            raise OracleEndpointError(
                f"no LLM endpoint configured (set {ENV_LLM_URL})"
            )
        if instance.test_command is None:
            raise ValueError("instance has no test_command; required for the LLM oracle")

    def evaluate(self, included_leaf_ids: frozenset[str]) -> OracleVerdict:
        rendered = render(self.tree, upward_closure(self.tree, included_leaf_ids))
        return self.evaluate_rendered(rendered.dump_text())

    def evaluate_rendered(self, rendered_context: str) -> OracleVerdict:
        """Evaluate an already rendered context text."""
        query = self._build_query_text()
        prompt = REPAIR_PROMPT.format(query=query, context=rendered_context)
        completions = self._request_completions(prompt)
        outcomes = [self._run_sample(i, c) for i, c in enumerate(completions)]
        passes = sum(1 for o in outcomes if o.test_exit_status == 0)
        return make_verdict(passes, len(outcomes), self.config.pass_threshold, outcomes)

    def _build_query_text(self) -> str:
        lines = [f"ISSUE:\n{self.instance.issue_text}\n", "FAULT LOCATIONS:"]
        for fl in self.instance.fault_locations:
            suffix = f" [{fl.symbol}]" if fl.symbol else ""
            lines.append(f"- {fl.path}:{fl.line}{suffix}")
        return "\n".join(lines)

    def _request_completions(self, prompt: str) -> list[str]:
        payload = {
            "model": self.model,
            "messages": [{"role": "user", "content": prompt}],
            "n": self.config.samples_n,
            "temperature": self.config.temperature,
            "max_tokens": self.config.max_tokens,
        }
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        last_error: Exception | None = None
        for attempt in range(3):
            try:
                data = self.transport(self.endpoint, payload, headers, self.config.timeout_seconds)
                return [c["message"]["content"] for c in data["choices"]]
            except Exception as exc:  # noqa: BLE001 - endpoint errors vary by client
                last_error = exc
                if attempt < 2:
                    time.sleep(self.retry_sleep * (2**attempt))
        raise OracleEndpointError(f"LLM endpoint unreachable after 3 attempts: {last_error}")

    def _run_sample(self, sample_index: int, completion: str) -> SampleOutcome:
        start = time.perf_counter()
        patch = extract_patch(completion)
        if patch is None:
            return SampleOutcome(None, False, None, time.perf_counter() - start)
        with tempfile.TemporaryDirectory(prefix="ctxdistill-oracle-") as scratch:
            repo_copy = Path(scratch) / "repo"
            shutil.copytree(self.instance.repo_root, repo_copy)
            try:
                apply_patch_text(repo_copy, patch)
            except PatchApplyError:
                return SampleOutcome(patch, False, None, time.perf_counter() - start)
            try:
                proc = subprocess.run(
                    self.instance.test_command,
                    shell=True,
                    cwd=repo_copy,
                    capture_output=True,
                    text=True,
                    timeout=self.config.timeout_seconds,
                )
            except subprocess.TimeoutExpired:
                return SampleOutcome(
                    patch, True, None, time.perf_counter() - start, timed_out=True
                )
            self._write_log(sample_index, proc)
            return SampleOutcome(patch, True, proc.returncode, time.perf_counter() - start)

    def _write_log(self, sample_index: int, proc: subprocess.CompletedProcess) -> None:
        if self.log_dir is None:
            return
        self.log_dir.mkdir(parents=True, exist_ok=True)
        log = self.log_dir / f"{self.instance.instance_id}.sample{sample_index}.log"
        log.write_text(
            f"exit status: {proc.returncode}\n--- stdout ---\n{proc.stdout}\n"
            f"--- stderr ---\n{proc.stderr}\n",
            encoding="utf-8",
        )
