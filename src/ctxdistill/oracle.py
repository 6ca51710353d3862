"""Sufficiency oracles: decide whether a candidate context still enables
a passing fix.

Two implementations share one interface: a deterministic mock (a context
is sufficient iff it covers a required leaf set and avoids optional
distractors) and an LLM-backed oracle that samples repair patches from a
chat-completion endpoint, applies each to a scratch copy of the repo
(one copy per evaluation, reset between patches), and majority-votes on
test outcomes.  ``OracleSession`` wraps either one with a verdict cache
and a hard evaluation budget shared across search phases, and is the one
writer of trace records: one probe record per candidate judged.
"""

from __future__ import annotations

import hashlib
import math
import os
import re
import shutil
import signal
import stat
import subprocess
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path
from threading import Event, Timer
from typing import Callable, Iterable, Protocol

from .code_model import UnitTree, split_lines
from .instance import build_query
from .priority import PatchFormatError, http_json, parse_diff, writing
from .render import render

ENV_LLM_URL = "OCD_LLM_URL"
ENV_LLM_MODEL = "OCD_LLM_MODEL"
ENV_LLM_KEY = "OCD_LLM_KEY"


class OracleBudgetExhausted(RuntimeError):
    """The per-instance evaluation cap was hit."""


class OracleEndpointError(RuntimeError):
    """The LLM endpoint gave no usable reply after retries."""


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
    applied: bool
    test_exit_status: int | None
    duration_seconds: float
    timed_out: bool = False
    reused: bool = False


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
    """Deterministic key over the instance and the sorted leaf-id set: a
    candidate's ``candidate_hash`` in its probe record."""
    payload = instance_id + "\x00" + "\n".join(sorted(included_leaf_ids))
    return hashlib.sha1(payload.encode("utf-8")).hexdigest()


# a trace sink takes one JSON-serializable probe record per judged candidate
TraceWriter = Callable[[dict], None]
TRACE_SCHEMA_VERSION = 2


class Oracle(Protocol):
    def evaluate(self, included_leaf_ids: frozenset[str]) -> OracleVerdict: ...


class MockOracle:
    """Deterministic test double: sufficient iff the required leaves are
    all included and no distractor leaf is.  Monotone when there are no
    distractors."""

    def __init__(
        self,
        required: Iterable[str],
        distractors: Iterable[str] = (),
    ):
        self.required = frozenset(required)
        self.distractors = frozenset(distractors)
        self.calls = 0

    def evaluate(self, included_leaf_ids: frozenset[str]) -> OracleVerdict:
        self.calls += 1
        ok = self.required <= included_leaf_ids and not (
            included_leaf_ids & self.distractors
        )
        return OracleVerdict(sufficient=ok, passes=1 if ok else 0, samples=1)


class OracleSession:
    """Budgeted, cached front door to an oracle, and the one writer of
    probe records.

    The ``pass_level`` decides freshness: a ``certify`` probe, which
    proves 1-minimality only by asking the oracle afresh, skips the cache
    lookup, and every level's verdict is stored.  Cache hits do not count
    against the budget; a call it refuses sets ``exhausted``, the one
    record that it ran out, and raises ``OracleBudgetExhausted``.  The
    cache is keyed by the leaf-id frozenset, which hashes once per set
    object, so it keeps every evaluated set alive until the session goes:
    memory grows with evaluations times leaves, at most ``eval_budget``
    sets (about 10 MB for 300 sets of 860 ids).  With ``cache_enabled``
    off nothing is stored.  A session, like its oracle, belongs to one
    instance and is driven from one thread.

    With a ``trace`` writer, every ``evaluate`` call writes one probe
    record, cache hits included; a call the budget stops writes none.
    The record is flat:

    - ``schema_version`` (``TRACE_SCHEMA_VERSION``), ``seq`` (the
      record's 0-based index in the session), ``pass_level`` (``ga``,
      ``verify``, ``file``, ``function``, ``block`` or ``certify``),
      ``candidate_hash`` (``verdict_cache_key``), ``size`` in leaves,
      ``cache_hit``, ``sufficient``, ``passes`` and ``samples``
    - the caller's phase fields: ``generation`` and ``fitness`` for the
      GA, ``removed_count`` for verify, the ddmin levels and certify

    Only a distill without the GA writes a ``verify`` record: its one
    judgment of the whole context, before Phase II.  With the GA, Phase
    II starts from the set the GA's last record accepted.
    """

    def __init__(
        self,
        oracle: Oracle,
        instance_id: str,
        config: OracleConfig | None = None,
        trace: TraceWriter | None = None,
    ):
        self.oracle = oracle
        self.instance_id = instance_id
        self.config = config or OracleConfig()
        self.trace = trace
        self.invocations = 0
        self.exhausted = False
        self._records = 0
        self._cache: dict[frozenset[str], OracleVerdict] = {}

    def evaluate(
        self,
        included_leaf_ids: frozenset[str],
        pass_level: str,
        **phase_fields: object,
    ) -> OracleVerdict:
        key = frozenset(included_leaf_ids)
        cached = self._cache.get(key) if self.config.cache_enabled and pass_level != "certify" else None
        if cached is not None:
            verdict = replace(cached, cache_hit=True)
        elif self.invocations >= self.config.eval_budget:
            self.exhausted = True
            raise OracleBudgetExhausted(
                f"oracle budget of {self.config.eval_budget} evaluations exhausted"
            )
        else:
            self.invocations += 1
            verdict = self.oracle.evaluate(included_leaf_ids)
            if self.config.cache_enabled:
                self._cache[key] = verdict
        if self.trace is not None:
            self.trace(
                {
                    "schema_version": TRACE_SCHEMA_VERSION,
                    "seq": self._records,
                    "pass_level": pass_level,
                    "candidate_hash": verdict_cache_key(self.instance_id, key),
                    "size": len(key),
                    "cache_hit": verdict.cache_hit,
                    "sufficient": verdict.sufficient,
                    "passes": verdict.passes,
                    "samples": verdict.samples,
                    **phase_fields,
                }
            )
            self._records += 1
        return verdict


# --- unified diff application ------------------------------------------


def apply_patch_text(root: str | Path, patch_text: str) -> list[str]:
    """Apply a unified diff under ``root``; returns the touched paths.

    Context lines are matched exactly, apart from their line breaks; any
    mismatch raises ``PatchApplyError``, and so does a deletion that
    leaves a line, or a path that resolves outside ``root``, names a
    directory or, for a new file, exists.  Nothing is written unless
    every section applies; sections apply in order, so a later section
    on a path sees the earlier sections' result.  Untouched and context
    lines keep their own line break; added lines take the break of the
    file's first line (``\\n`` for a new file or one without breaks).  A
    file ends without a newline when a ``\\ No newline at end of file``
    marker ends its last hunk's new side; a tail no hunk reaches keeps
    the source's final newline or its lack.
    """
    root = Path(root)
    try:
        sections = [s for s in parse_diff(patch_text) if s.hunks]
    except PatchFormatError as exc:
        raise PatchApplyError(str(exc)) from exc
    inside = root.resolve()
    for section in sections:
        if section.old_path is None and section.new_path is None:
            raise PatchApplyError("patch entry with no usable path")
        for rel in filter(None, (section.old_path, section.new_path)):
            if not (root / rel).resolve().is_relative_to(inside):
                raise PatchApplyError(f"patch path escapes the repository: {rel}")
            if (root / rel).exists() and not (root / rel).is_file():
                raise PatchApplyError(f"patch path is not a regular file: {rel}")
        if section.old_path is None and (root / section.new_path).exists():
            raise PatchApplyError(f"patch creates a file that exists: {section.new_path}")

    # each path's new text, or None to delete it; a later section on a
    # planned path reads its planned text, and the disk is written last
    planned: dict[str, str | None] = {}
    touched: list[str] = []
    for section in sections:
        source_rel, new_path = section.old_path, section.new_path
        target_rel = new_path or source_rel
        old_lines: list[str] = []
        # an untouched tail keeps the source's final newline (or its lack)
        final_newline = True
        if source_rel is not None:
            source_file = root / source_rel
            if source_rel in planned:
                source_text = planned[source_rel]
            else:
                source_text = source_file.read_bytes().decode("utf-8") if source_file.exists() else None
            if source_text is None:
                raise PatchApplyError(f"patch target missing: {source_rel}")
            old_lines = split_lines(source_text, keepends=True)
            final_newline = not old_lines or source_text.endswith(("\n", "\r"))
        first = old_lines[0] if old_lines else ""
        newline = first[len(first.rstrip("\r\n")) :] or "\n"
        if not final_newline:
            # every line carries a break until the end decides the last one
            old_lines[-1] += newline

        out: list[str] = []
        pos = 0
        for hunk in section.hunks:
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
                    if pos >= len(old_lines) or old_lines[pos].rstrip("\r\n") != text:
                        raise PatchApplyError(
                            f"context mismatch at {target_rel}:{pos + 1}"
                        )
                    out.append(old_lines[pos])
                    pos += 1
                elif tag == "-":
                    if pos >= len(old_lines) or old_lines[pos].rstrip("\r\n") != text:
                        raise PatchApplyError(
                            f"removed-line mismatch at {target_rel}:{pos + 1}"
                        )
                    pos += 1
                elif tag == "+":
                    out.append(text + newline)
            if pos == len(old_lines):
                final_newline = not hunk.new_missing_newline
        out.extend(old_lines[pos:])
        if out and not final_newline:
            out[-1] = out[-1].rstrip("\r\n")

        if new_path is None and out:
            raise PatchApplyError(f"deletion of {source_rel} leaves lines it does not remove")
        planned[target_rel] = None if new_path is None else "".join(out)
        touched.append(target_rel)
    for rel, text in planned.items():
        target = root / rel
        if text is None:
            target.unlink(missing_ok=True)
        else:
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(text.encode("utf-8"))
    return touched


# --- scratch repository copy --------------------------------------------


class _ScratchCopy:
    """One evaluation's scratch copy of a repository.

    ``checkout`` copies the repository at its first call and, at each
    later call, resets the copy to the original; leaving the ``with``
    block removes it.  The reset compares a walk of the copy with a
    listing taken right after the copy: each entry's type and mode, and
    for all but directories its size, ``st_mtime_ns`` and inode.
    ``copy2`` keeps the source's mtime, so a write by a patch or a test
    changes at least one of these.  The walk goes top-down and follows no
    symlink.  An entry that is new or differs is removed (a symlink is
    unlinked, never followed), and a listed entry that is missing or was
    removed is copied again from the source, after which its inodes are
    listed anew.  A listed directory stays; a changed mode is restored
    before the directory is read.

    A file whose mtime is not older than the copy is never trusted and is
    copied again at every reset: a write within the same tick of a coarse
    filesystem clock would keep its mtime (git calls such entries racy).
    The listing starts at the scratch directory that holds the copy, so
    a copy root that a test removed or replaced is restored, and so is
    anything a test left beside it.  A write that keeps a file's size,
    mtime and inode, as ``os.utime`` can, goes unseen.
    """

    def __init__(self, source: str | Path):
        self.source = str(source)
        self._scratch: tempfile.TemporaryDirectory | None = None
        # path relative to the scratch directory -> (mode, names) for a
        # directory, (mode, size, mtime_ns, inode) for anything else, and
        # None for an untrusted file
        self._listing: dict[str, tuple | None] = {}
        # the filesystem's time when the copy began
        self._copied_ns = 0

    def __enter__(self) -> _ScratchCopy:
        return self

    def __exit__(self, *exc_info) -> None:
        if self._scratch is not None:
            self._scratch.cleanup()

    def checkout(self) -> Path:
        """The root of a copy that equals the source repository."""
        if self._scratch is None:
            self._scratch = tempfile.TemporaryDirectory(prefix="ctxdistill-oracle-")
            shutil.copytree(self.source, self._path("repo"))
            self._copied_ns = os.lstat(self._path("")).st_mtime_ns
            self._record("")
        else:
            self._reset()
        return Path(self._path("repo"))

    def _path(self, rel: str) -> str:
        return os.path.join(self._scratch.name, rel)

    def _record(self, rel: str) -> None:
        path = self._path(rel)
        st = os.lstat(path)
        if not stat.S_ISDIR(st.st_mode):
            fingerprint = (st.st_mode, st.st_size, st.st_mtime_ns, st.st_ino)
            self._listing[rel] = fingerprint if st.st_mtime_ns < self._copied_ns else None
            return
        names = os.listdir(path)
        self._listing[rel] = (st.st_mode, names)
        for name in names:
            self._record(os.path.join(rel, name))

    def _reset(self) -> None:
        pending = [""]
        while pending:
            rel = pending.pop()
            kept = set()
            with os.scandir(self._path(rel)) as entries:
                for entry in entries:
                    child = os.path.join(rel, entry.name)
                    st = entry.stat(follow_symlinks=False)
                    if not self._keep(child, st):
                        _remove(entry.path)
                        continue
                    kept.add(entry.name)
                    if stat.S_ISDIR(st.st_mode):
                        pending.append(child)
            for name in self._listing[rel][1]:
                if name not in kept:
                    self._restore(os.path.join(rel, name))

    def _keep(self, rel: str, st: os.stat_result) -> bool:
        """Whether the entry at ``rel`` matches its listing.  A listed
        directory matches whatever its mode, which is restored here."""
        listed = self._listing.get(rel)
        if listed is None:
            return False
        if stat.S_ISDIR(st.st_mode) and stat.S_ISDIR(listed[0]):
            if st.st_mode != listed[0]:
                os.chmod(self._path(rel), stat.S_IMODE(listed[0]))
            return True
        return listed == (st.st_mode, st.st_size, st.st_mtime_ns, st.st_ino)

    def _restore(self, rel: str) -> None:
        source = os.path.join(self.source, Path(rel).relative_to("repo"))
        if os.path.isdir(source):
            shutil.copytree(source, self._path(rel))
        else:
            shutil.copy2(source, self._path(rel))
        self._record(rel)


def _remove(path: str) -> None:
    """Remove ``path`` without following symlinks.  A directory is opened
    up first, since a test run may have left it unreadable or read-only."""
    if not stat.S_ISDIR(os.lstat(path).st_mode):
        os.unlink(path)
        return
    os.chmod(path, 0o700)
    with os.scandir(path) as entries:
        for entry in entries:
            _remove(entry.path)
    os.rmdir(path)


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


REPAIR_PROMPT = (
    "You are fixing a bug in a repository. Read the issue, the fault "
    "locations, and the code context, then reply with a unified diff "
    "patch inside a ```diff fence.\n\n{query}\nCODE CONTEXT:\n{context}\n"
)


class LLMOracle:
    """Samples n repair patches per evaluation and majority-votes on
    test outcomes.  Each evaluation makes one scratch copy of the
    repository, at its first sample that needs a test run, resets it to
    the original before each later patch, and removes it before it
    returns.  A patch that fails to apply or a test run that times out
    counts as a failing sample.

    An oracle belongs to one instance, so its repository and test command
    are fixed, and a deterministic test gives each patch text one
    outcome.  So each distinct patch is tested once per oracle: a later
    sample with the same patch reuses that outcome (``reused=True``) and
    still counts once in the vote.  Timed-out runs are not reused.
    ``OracleConfig.cache_enabled=False`` turns this off along with the
    verdict cache, for tests that are flaky."""

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
        self.transport = transport or http_json
        self.log_dir = Path(log_dir) if log_dir else None
        self.retry_sleep = retry_sleep
        if not self.endpoint:
            raise OracleEndpointError(
                f"no LLM endpoint configured (set {ENV_LLM_URL})"
            )
        if instance.test_command is None:
            raise ValueError("instance has no test_command; required for the LLM oracle")
        self.query = build_query(instance.issue_text, instance.fault_locations).rendered
        self._outcomes: dict[str, SampleOutcome] = {}

    def evaluate(self, included_leaf_ids: frozenset[str]) -> OracleVerdict:
        rendered = render(self.tree, included_leaf_ids)
        prompt = REPAIR_PROMPT.format(query=self.query, context=rendered.dump_text())
        completions = self._request_completions(prompt)
        with _ScratchCopy(self.instance.repo_root) as repo:
            outcomes = [self._run_sample(c, repo) for c in completions]
        passes = sum(1 for o in outcomes if o.test_exit_status == 0)
        return make_verdict(passes, len(outcomes), self.config.pass_threshold, outcomes)

    def _request_completions(self, prompt: str) -> list[str]:
        """The endpoint's completions, in up to 3 attempts.  A reply with
        no completions is a failed attempt: it would give a verdict of 0
        passes in 0 samples, which the pass threshold calls sufficient.
        A refusal that a retry cannot change, an error whose
        ``response.status_code`` is a 4xx other than 408 and 429 (as
        ``priority.http_json`` raises), ends the attempts at once."""
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
                completions = [c["message"]["content"] for c in data["choices"]]
                if not completions:
                    raise ValueError("endpoint returned no completions")
                return completions
            except Exception as exc:  # noqa: BLE001 - endpoint errors vary by client
                last_error = exc
                status = getattr(getattr(exc, "response", None), "status_code", None)
                if isinstance(status, int) and 400 <= status < 500 and status not in (408, 429):
                    raise OracleEndpointError(f"LLM endpoint refused the request: {exc}") from exc
                if attempt < 2:
                    time.sleep(self.retry_sleep * (2**attempt))
        raise OracleEndpointError(f"LLM endpoint gave no usable reply in 3 attempts: {last_error}")

    def _run_sample(self, completion: object, repo: _ScratchCopy) -> SampleOutcome:
        """A completion that is not a string (a refusal's ``null``) holds
        no patch, like one that holds no diff."""
        start = time.perf_counter()
        patch = extract_patch(completion) if isinstance(completion, str) else None
        if patch is None:
            return SampleOutcome(False, None, time.perf_counter() - start)
        if not self.config.cache_enabled:
            return self._test_patch(patch, start, repo)
        known = self._outcomes.get(patch)
        if known is not None:
            return replace(known, duration_seconds=time.perf_counter() - start, reused=True)
        outcome = self._test_patch(patch, start, repo)
        if not outcome.timed_out:
            self._outcomes[patch] = outcome
        return outcome

    def _test_patch(self, patch: str, start: float, repo: _ScratchCopy) -> SampleOutcome:
        """Apply ``patch`` to the evaluation's scratch copy of the
        repository, which ``repo.checkout`` makes or resets to the
        original, and run the test command there.

        The verdict is the shell's exit status.  Without a log, output goes
        to ``os.devnull``; with one, to temporary files, read once the run
        ends.  Never to pipes, so a background child that keeps them open
        cannot hold the run past the shell's exit.  The wait blocks in
        ``waitpid`` until the shell exits, so the run ends when the shell
        does (a timed ``Popen.wait`` polls, and sees the exit only at its
        next tick, up to 50 ms later).  A watchdog timer enforces
        ``timeout_seconds``: if the wait is still going when it fires, it
        marks the run as timed out and kills the process group, which ends
        the wait.  Once the wait returns, the watchdog is cancelled and
        what is left of the process group is killed, so no process of this
        run writes to the copy while the next patch's reset reads it.  A
        process that leaves the process group, as ``setsid`` does, stays
        out of reach and out of scope."""
        repo_copy = repo.checkout()
        try:
            apply_patch_text(repo_copy, patch)
        except PatchApplyError as exc:
            self._write_log(patch, f"patch not applied: {exc}\n")
            return SampleOutcome(False, None, time.perf_counter() - start)
        if self.log_dir is None:
            status = self._run_test(repo_copy, subprocess.DEVNULL, subprocess.DEVNULL)
        else:
            with (
                tempfile.TemporaryFile("w+", errors="replace") as out,
                tempfile.TemporaryFile("w+", errors="replace") as err,
            ):
                status = self._run_test(repo_copy, out, err)
                out.seek(0)
                err.seek(0)
                head = (
                    f"exit status: {status}"
                    if status is not None
                    else f"timed out after {self.config.timeout_seconds} s"
                )
                stdout, stderr = out.read(), err.read()
                self._write_log(
                    patch, f"{head}\n--- stdout ---\n{stdout}\n--- stderr ---\n{stderr}\n"
                )
        return SampleOutcome(True, status, time.perf_counter() - start, timed_out=status is None)

    def _run_test(self, cwd: Path, out, err) -> int | None:
        """Run the test command in its own process group, as
        ``_test_patch`` describes; ``None`` means it ran out of time."""
        with subprocess.Popen(
            self.instance.test_command,
            shell=True,
            cwd=cwd,
            stdout=out,
            stderr=err,
            start_new_session=True,
        ) as proc:
            expired = Event()

            def expire() -> None:
                # poll() reads None while the wait is blocked, and the exit
                # status once the wait has it: then the run beat the timeout
                if proc.poll() is None:
                    expired.set()
                    _kill_group(proc.pid)

            watchdog = Timer(self.config.timeout_seconds, expire)
            watchdog.start()
            try:
                proc.wait()
            finally:
                watchdog.cancel()
                watchdog.join()
                _kill_group(proc.pid)
        return None if expired.is_set() else proc.returncode

    def _write_log(self, patch: str, text: str) -> None:
        """One log per distinct patch, named by the patch's SHA-1."""
        if self.log_dir is None:
            return
        digest = hashlib.sha1(patch.encode("utf-8")).hexdigest()[:12]
        with writing(self.log_dir / f"{self.instance.instance_id}.{digest}.log", "oracle log") as path:
            path.write_text(text, encoding="utf-8")


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass
