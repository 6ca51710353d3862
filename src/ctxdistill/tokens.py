"""Token counting for budgets and compression metrics.

The default counter is a deterministic byte-length approximation
(ceil(bytes/4)) so budgets are reproducible offline; counters are looked
up by name in a fixed registry.
"""

from __future__ import annotations

import math
from typing import Callable

TokenCounter = Callable[[str], int]


def bytes4_counter(text: str) -> int:
    return math.ceil(len(text.encode("utf-8")) / 4)


def whitespace_counter(text: str) -> int:
    return len(text.split())


_REGISTRY: dict[str, TokenCounter] = {
    "bytes4": bytes4_counter,
    "whitespace": whitespace_counter,
}


def get_counter(name: str = "bytes4") -> TokenCounter:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(f"unknown token counter: {name!r}") from None
