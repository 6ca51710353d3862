"""Real code as a gate: the decomposition, render and role contracts over
a fixed sample of the installed Python standard library.

The sample is every 20th file of the sorted ``.py`` files under
``sysconfig.get_paths()["stdlib"]``, outside ``site-packages``.  Files
that are not UTF-8 are skipped and counted: context files are read as
UTF-8.  The test asserts contracts, and that every unit's called names
match a frozen ``ast.walk`` reference, not a hash, so it holds under any
Python version.
"""

from __future__ import annotations

import ast
import sysconfig
from pathlib import Path

import pytest

from ctxdistill.code_model import build_tree, split_lines, unit_text
from ctxdistill.dataset import _called_names, _parse_segment, classify_role, fault_facts
from ctxdistill.render import render
from test_indexes import frozen_called_names

STDLIB = Path(sysconfig.get_paths()["stdlib"])
SAMPLE = sorted(
    p.relative_to(STDLIB).as_posix()
    for p in STDLIB.rglob("*.py")
    if "site-packages" not in p.relative_to(STDLIB).parts
)[::20]


def _problems(path: str, source: str) -> tuple[list[str], int]:
    """The contracts ``source`` breaks, and how many of its units are
    blocks that parse only wrapped in a ``def`` and hold a ``return`` at
    their top level."""
    tree = build_tree("stdlib", [(path, source)])
    problems = []
    if render(tree, tree.unit_order).per_file[0].text != source:
        problems.append("render differs from the source")
    expected_start = 1
    for leaf in tree.leaves:
        if leaf.span.start_line != expected_start:
            problems.append(f"leaf {leaf.id} starts at {leaf.span.start_line}, not {expected_start}")
        expected_start = leaf.span.end_line + 1
        if leaf.facts is None:
            problems.append(f"leaf {leaf.id} has no facts")
    if expected_start - 1 != len(split_lines(source)):
        problems.append(f"leaves end at line {expected_start - 1} of {len(split_lines(source))}")
    facts = fault_facts(tree, [])
    for leaf in tree.leaves:
        classify_role(leaf, unit_text(tree, leaf), facts)
    wrapped_returns = 0
    for uid in tree.unit_order:
        module = _parse_segment(unit_text(tree, tree.index[uid]))
        if _called_names(module) != frozen_called_names(module):
            problems.append(f"unit {uid}'s called names differ from the ast.walk reference")
        wrapped_returns += module is not None and any(type(s) is ast.Return for s in module.body)
    return problems, wrapped_returns


def test_stdlib_sample_keeps_the_tree_contracts():
    if not SAMPLE:
        pytest.skip(f"no .py files under {STDLIB}")
    problems = {}
    skipped = wrapped_returns = 0
    for path in SAMPLE:
        try:
            source = (STDLIB / path).read_bytes().decode("utf-8")
        except UnicodeDecodeError:
            skipped += 1
            continue
        found, wrapped = _problems(path, source)
        wrapped_returns += wrapped
        if found:
            problems[path] = found[:3]
    assert skipped < len(SAMPLE) // 10, f"{skipped} of {len(SAMPLE)} files are not UTF-8"
    assert not problems, problems
    assert wrapped_returns, "no unit of the sample is a wrapped block holding a return"
