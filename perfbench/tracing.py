"""Span tracing around the program's public functions, from the outside.

``Tracer.install()`` replaces every public function and every public
method of a non-data class in the ``ctxdistill`` modules with a wrapper
that records a span: name, start, end, parent span and instance index.
Spans are kept in flat arrays in memory and written out once, after
the run.  A span's self time is its duration minus the time its child
spans cover, so the self times of all spans under an instance span add
up to that instance's traced wall time.

Generator functions are left unwrapped: their bodies run after the call
returns, so a span around the call would time nothing.  Their work
counts as the caller's self time.
"""

from __future__ import annotations

import dataclasses
import gzip
import importlib
import inspect
import pkgutil
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Callable

# observer(tracer, result) runs after a wrapped call returns
Observer = Callable[["Tracer", object], None]


class Tracer:
    def __init__(self, observers: dict[str, Observer] | None = None):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.instance = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.current_instance = -1
        self.observers = observers or {}
        self.counters: dict[str, float] = defaultdict(float)
        self._restore: list[tuple[object, str, object]] = []

    # --- recording -------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.instance.append(self.current_instance)
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(idx)
        return idx

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        self.start[idx] = perf_counter()
        try:
            yield idx
        finally:
            self.end[idx] = perf_counter()
            self.stack.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        observer = self.observers.get(name)

        def traced(*args, **kwargs):
            idx = self._open(name)
            self.start[idx] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self.stack.pop()
            if observer is not None:
                observer(self, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def ancestor(self, names: tuple[str, ...]) -> str | None:
        """The nearest open span whose name is one of ``names``."""
        for idx in reversed(self.stack):
            name = self.names[self.name[idx]]
            if name in names:
                return name
        return None

    # --- installing wrappers ------------------------------------------------

    def install(self, package: str = "ctxdistill") -> None:
        pkg = importlib.import_module(package)
        modules = [pkg] + [
            importlib.import_module(f"{package}.{info.name}")
            for info in pkgutil.iter_modules(pkg.__path__)
        ]
        wrappers: dict[int, Callable] = {}
        for module in modules[1:]:
            short = module.__name__.rsplit(".", 1)[1]
            for attr, value in vars(module).items():
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(value) and value.__module__ == module.__name__:
                    if not inspect.isgeneratorfunction(value):
                        wrappers[id(value)] = self.wrap(f"{short}.{attr}", value)
                elif _service_class(value, module):
                    for name, member in list(vars(value).items()):
                        if name.startswith("_") or not inspect.isfunction(member):
                            continue
                        self._patch(value, name, self.wrap(f"{short}.{value.__name__}.{name}", member))
        # rebind every module-level reference, including ``from x import y``
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value)) if inspect.isfunction(value) else None
                if wrapper is not None:
                    self._patch(module, attr, wrapper)

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # --- analysis ----------------------------------------------------------------

    def self_times(self) -> array:
        child = array("d", bytes(8 * len(self.start)))
        for idx, parent in enumerate(self.parent):
            if parent >= 0:
                child[parent] += self.end[idx] - self.start[idx]
        return array("d", (self.end[i] - self.start[i] - child[i] for i in range(len(self.start))))

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        selfs = self.self_times()
        out: dict[str, dict[str, float]] = {}
        for idx, nid in enumerate(self.name):
            row = out.setdefault(self.names[nid], {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += self.end[idx] - self.start[idx]
            row["self_s"] += selfs[idx]
        return out

    def write(self, path: Path) -> None:
        """Spans as gzipped TSV: id, parent, instance, name, start, end, self."""
        selfs = self.self_times()
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tparent\tinstance\tname\tstart\tend\tself\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.parent[i]}\t{self.instance[i]}\t{self.names[self.name[i]]}\t"
                    f"{self.start[i]:.9f}\t{self.end[i]:.9f}\t{selfs[i]:.9f}\n"
                )


def _service_class(value: object, module) -> bool:
    """Classes whose methods are layer boundaries: defined in the module,
    not data records, exceptions or protocols."""
    return (
        inspect.isclass(value)
        and value.__module__ == module.__name__
        and not dataclasses.is_dataclass(value)
        and not issubclass(value, BaseException)
        and not getattr(value, "_is_protocol", False)
    )
