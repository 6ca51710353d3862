"""Real code as a gate: the decomposition, render and role contracts over
a fixed sample of the installed Python standard library.

The sample is every 20th file of the sorted ``.py`` files under
``sysconfig.get_paths()["stdlib"]``, outside ``site-packages``.  Files
that are not UTF-8 are skipped and counted: context files are read as
UTF-8.  The test asserts contracts, not a hash, so it holds under any
Python version.
"""

from __future__ import annotations

import sysconfig
from pathlib import Path

import pytest

from ctxdistill.code_model import build_tree, split_lines, unit_text
from ctxdistill.dataset import classify_role, fault_facts
from ctxdistill.render import render

STDLIB = Path(sysconfig.get_paths()["stdlib"])
SAMPLE = sorted(
    p.relative_to(STDLIB).as_posix()
    for p in STDLIB.rglob("*.py")
    if "site-packages" not in p.relative_to(STDLIB).parts
)[::20]


def _problems(path: str, source: str) -> list[str]:
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
    return problems


def test_stdlib_sample_keeps_the_tree_contracts():
    if not SAMPLE:
        pytest.skip(f"no .py files under {STDLIB}")
    problems = {}
    skipped = 0
    for path in SAMPLE:
        try:
            source = (STDLIB / path).read_bytes().decode("utf-8")
        except UnicodeDecodeError:
            skipped += 1
            continue
        found = _problems(path, source)
        if found:
            problems[path] = found[:3]
    assert skipped < len(SAMPLE) // 10, f"{skipped} of {len(SAMPLE)} files are not UTF-8"
    assert not problems, problems
