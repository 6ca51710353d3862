"""Token counting for budgets and compression metrics.

Tokens are a deterministic byte-length approximation, ceil(bytes/4), so
budgets are reproducible offline.
"""

from __future__ import annotations

import math


def count_tokens(text: str) -> int:
    return math.ceil(len(text.encode("utf-8")) / 4)
