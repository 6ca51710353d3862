"""``build_tree`` pauses the cyclic garbage collector while it builds and
splits each file into lines once.

The collector is enabled again when ``build_tree`` returns or raises,
unless the caller had disabled it, and the tree's ``lines`` table is the
split ``decompose`` made.
"""

from __future__ import annotations

import gc
from unittest import mock

import pytest

from ctxdistill import code_model
from ctxdistill.code_model import build_tree, role_facts, split_lines

from fixtures import BROKEN_SOURCE, CLASS_SOURCE, FORM_FEED_SOURCE, MULTI_BLOCK_SOURCE

FILES = [
    ("m.py", MULTI_BLOCK_SOURCE),
    ("c.py", CLASS_SOURCE),
    ("f.py", FORM_FEED_SOURCE),
    ("broken.py", BROKEN_SOURCE),
    ("crlf.py", "def f():\r\n    x = 1\r\n"),
    ("empty.py", ""),
]


@pytest.fixture
def collector_disabled():
    """Leave the collector disabled for the test, then as it was."""
    enabled = gc.isenabled()
    gc.disable()
    yield
    if enabled:
        gc.enable()


def test_the_collector_is_enabled_after_build_tree_returns():
    assert gc.isenabled()
    build_tree("t", FILES)
    assert gc.isenabled()


@pytest.mark.parametrize("files", [FILES + [FILES[0]]], ids=["a file listed twice"])
def test_the_collector_is_enabled_after_build_tree_raises(files):
    with pytest.raises(ValueError):
        build_tree("t", files)
    assert gc.isenabled()


def test_the_collector_stays_disabled_when_the_caller_disabled_it(collector_disabled):
    build_tree("t", FILES)
    assert not gc.isenabled()
    with pytest.raises(ValueError):
        build_tree("t", FILES + [FILES[0]])
    assert not gc.isenabled()


def test_the_collector_is_paused_while_the_tree_is_built():
    seen = []

    def recording(stmts):
        seen.append(gc.isenabled())
        return role_facts(stmts)

    with mock.patch.object(code_model, "role_facts", recording):
        build_tree("t", FILES)
    assert seen and not any(seen)


def test_the_lines_table_is_the_one_split_of_each_file():
    with mock.patch.object(code_model, "split_lines", wraps=split_lines) as splits:
        tree = build_tree("t", FILES)
    assert splits.call_count == sum(1 for _, source in FILES if source)
    assert tree.lines == {path: split_lines(source) for path, source in FILES}
