"""Decomposition and roles do not depend on the caller's warning filters.

``ast.parse`` warns on an invalid escape sequence (a ``DeprecationWarning``
up to Python 3.11, a ``SyntaxWarning`` from 3.12), and an ``error`` filter
turns that warning into a ``SyntaxError``.  Every parse of a source or a
segment is made with warnings suppressed, so the same source gives the
same units and roles under any filter, no warning escapes, and the
caller's filters are left as they were."""

import sys
import threading
import warnings

from ctxdistill.code_model import build_tree, decompose, unit_text
from ctxdistill.dataset import classify_role, fault_facts
from ctxdistill.instance import FaultLocation

# f's text holds an invalid escape sequence and calls g, the fault's function
SOURCE = 'def f():\n    return g("\\d")\n\ndef g(x):\n    return 1\n'
FAULTS = [FaultLocation("m.py", 5)]


def _units_and_roles():
    tree = build_tree("t", [("m.py", SOURCE)])
    facts = fault_facts(tree, FAULTS)
    roles = [classify_role(leaf, unit_text(tree, leaf), facts).value for leaf in tree.leaves]
    units = [(u.id, u.level, u.kind, u.span, u.fallback) for u in decompose("m.py", SOURCE)]
    return units, roles


def test_an_error_filter_changes_no_unit_and_no_role():
    units, roles = _units_and_roles()
    assert len(units) == 3 and roles == ["call_chain", "definition"]
    before = list(warnings.filters)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        inside = list(warnings.filters)
        assert _units_and_roles() == (units, roles)
        assert warnings.filters == inside
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert _units_and_roles() == (units, roles)
    assert caught == []
    assert warnings.filters == before


def test_parses_on_threads_leave_the_filters_as_they_were():
    """Without the parse lock, two threads' ``catch_warnings`` can restore
    each other's filter lists, leaving an ``ignore`` filter behind."""
    before = list(warnings.filters)
    results, interval = [], sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=lambda: results.extend(decompose("m.py", SOURCE) for _ in range(200)))
            for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(results) == 800 and all(len(units) == 3 for units in results)
    assert warnings.filters == before
