"""Shared synthetic-source and instance-fixture builders for the tests."""

from __future__ import annotations

import json
import random
from pathlib import Path

from ctxdistill.code_model import UnitTree, build_tree

CLASS_SOURCE = """\
class Shape(Base):
    \"\"\"A docstring.\"\"\"
    sides = 4
    color = "red"
    filled = True

    def area(self):
        return self.w * self.h

    def perimeter(self):
        return 2 * (self.w + self.h)
"""

# the form feed (line 3) is a line break for str.splitlines but not for ast
FORM_FEED_SOURCE = "def a():\n    x = 1\n\x0c\n    return x\n\ndef b():\n    return 2\n"


MULTI_BLOCK_SOURCE = """\
import os
import sys

def locate(path, depth):
    name = os.path.basename(path)
    parts = name.split(".")
    if depth > 0:
        for part in parts:
            if part:
                return part
    return name

def flatten(items):
    out = []
    for item in items:
        out.append(item)
    return out

LIMIT = 10
"""

NESTED_SOURCE = """\
def outer(x):
    base = x + 1

    def inner(y):
        return y * 2

    return inner(base)
"""

BROKEN_SOURCE = """\
def broken(:
    this is not python
"""


def simple_function_source(name: str, offset: int = 0) -> str:
    """One single-block function; decomposes to exactly one leaf."""
    return f"def {name}(x):\n    y = x + {offset}\n    return y\n"


def module_with_functions(n_funcs: int, prefix: str = "fn") -> str:
    """n single-leaf functions separated by blank lines."""
    return "\n".join(simple_function_source(f"{prefix}{i}", i) for i in range(n_funcs))


def random_module(rng: random.Random, max_funcs: int = 3) -> str:
    """Small random module mixing functions, a class, and top-level code."""
    parts = []
    if rng.random() < 0.5:
        parts.append("import os\nVALUE = 3\n")
    for i in range(rng.randint(1, max_funcs)):
        if rng.random() < 0.3:
            parts.append(
                f"def multi{i}(x):\n"
                f"    a = x + {i}\n"
                f"    if a > {i}:\n"
                f"        a = a - 1\n"
                f"    return a\n"
            )
        else:
            parts.append(simple_function_source(f"f{i}", i))
    if rng.random() < 0.4:
        parts.append(
            "class Holder:\n"
            "    slot = 1\n"
            f"    def get{rng.randint(0, 9)}(self):\n"
            "        return self.slot\n"
        )
    return "\n".join(parts)


def random_tree(rng: random.Random, max_files: int = 3, instance_id: str = "synth") -> UnitTree:
    files = [
        (f"pkg/mod{i}.py", random_module(rng))
        for i in range(rng.randint(1, max_files))
    ]
    return build_tree(instance_id, files)


def tree_with_n_function_leaves(n: int, instance_id: str = "flat") -> UnitTree:
    """One file whose function level has exactly n single-leaf functions."""
    return build_tree(instance_id, [("flat.py", module_with_functions(n))])


def pick_leaves(rng: random.Random, tree: UnitTree, k: int) -> frozenset[str]:
    leaves = [seg.id for seg in tree.leaves]
    k = min(k, len(leaves))
    return frozenset(rng.sample(leaves, k))


def write_repo(root: Path, files: dict[str, str]) -> None:
    for rel, text in files.items():
        target = root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text, encoding="utf-8")


def write_instance(
    path: Path,
    repo_root: Path,
    files: dict[str, str],
    instance_id: str = "inst-0",
    issue_text: str = "Something is broken",
    fault_locations: list[dict] | None = None,
    mock_required: list | None = None,
    mock_distractors: list | None = None,
    **extra,
) -> Path:
    """Write a repo plus its instance JSON; returns the instance path."""
    write_repo(repo_root, files)
    data = {
        "instance_id": instance_id,
        "issue_text": issue_text,
        "fault_location": fault_locations or [],
        "context_files": [{"path": rel} for rel in files],
        "repo_root": str(repo_root),
    }
    if mock_required is not None:
        data["mock_required"] = mock_required
    if mock_distractors is not None:
        data["mock_distractors"] = mock_distractors
    data.update(extra)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=2), encoding="utf-8")
    return path
