"""Phase II under an oracle that errs: the one-sided noisy mock of
``tools/same_outputs.py``, pinned on seed-7 ``distill_paper`` and checked
as a property over random trees and oracle budgets."""

from __future__ import annotations

import importlib.util
import random
import sys
from pathlib import Path

from hypothesis import given, settings, strategies as st

from ctxdistill.hdd import minimize
from ctxdistill.oracle import MockOracle, OracleConfig, OracleSession

from fixtures import pick_leaves, random_tree

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [p for p in (str(ROOT / "src"), str(ROOT / "perfbench")) if p not in sys.path]

_SPEC = importlib.util.spec_from_file_location("same_outputs", ROOT / "tools" / "same_outputs.py")
same_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(same_outputs)


def test_noisy_distill_paper_is_certified_and_nearly_exact():
    # the certify sweep drops each leaf that a false rejection left behind,
    # so every record is certified; in two, a false rejection in the sweep
    # itself made an unneeded leaf look needed
    assert same_outputs.noisy_distill(0.9) == (300, 298, 300, 6152)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    required_count=st.integers(0, 3),
    p=st.sampled_from([0.7, 0.9, 1.0]),
    budget=st.integers(1, 60),
)
def test_minimize_keeps_the_last_accepted_set(seed, required_count, p, budget):
    rng = random.Random(seed)
    tree = random_tree(rng)
    required = pick_leaves(rng, tree, required_count)
    phi = {uid: rng.random() for uid in tree.unit_order}
    # the whole context holds every required leaf and no distractor, so it
    # is sufficient: the start set minimize takes as accepted
    start = frozenset(seg.id for seg in tree.leaves)
    records: list[dict] = []
    oracle = same_outputs.NoisyMock(MockOracle(required), p, str(seed))
    session = OracleSession(oracle, "t", OracleConfig(eval_budget=budget), records.append)

    result = minimize(start, tree, session, phi)

    if not session.exhausted:
        assert result.one_minimal_certified
        if p == 1.0:  # the exact mock is monotone: 1-minimal is the required set
            assert result.retained_leaf_ids == required
    assert required <= result.retained_leaf_ids <= start
    accepted = [r["size"] for r in records if r["sufficient"]]
    assert len(result.retained_leaf_ids) == (accepted[-1] if accepted else len(start))
