"""Out-of-tree span tracer for the repository benchmark.

The tracer wraps the simulator's public callables *from outside*: it
replaces module and class attributes with timing wrappers while it is
installed and puts every original back when it is removed.  Nothing in
``src/`` knows it exists, so an untraced run executes exactly the code a
user runs.

Spans are kept in memory as ``[id, parent, name, start, end, child,
root, thread]`` lists.  ``child`` accumulates the time covered by the
span's children on the same thread, so a span's *self time* is
``end - start - child``.  ``root`` tags every span with the benchmark
phase (one set-up or one measured iteration) it happened in, including
spans opened on the fabric's dispatcher threads.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict

ID, PARENT, NAME, START, END, CHILD, ROOT, THREAD = range(8)


class Tracer:
    """Span recorder plus the attribute patches that feed it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[int, dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        self.samples: dict[int, dict[str, list]] = defaultdict(
            lambda: defaultdict(list)
        )
        self.roots: list[tuple[int, str]] = []
        self.root = -1
        self._ids = itertools.count()
        # Per thread: the open-span stack, plus scratch state the layer
        # wrappers keep per thread (see ``perfbench.layers``).
        self.local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self.t0 = time.perf_counter()

    # -- recording ---------------------------------------------------------
    def stack(self) -> list:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def push(self, name: str) -> list:
        stack = self.stack()
        record = [
            next(self._ids), stack[-1][ID] if stack else -1, name,
            time.perf_counter(), 0.0, 0.0, self.root, threading.get_ident(),
        ]
        stack.append(record)
        return record

    def pop(self, record: list) -> None:
        end = time.perf_counter()
        stack = self.stack()
        stack.pop()
        record[END] = end
        if stack:
            stack[-1][CHILD] += end - record[START]
        self.spans.append(record)

    def add_child(self, name: str, start: float, end: float) -> None:
        """Record a finished span under the current one (a residual
        measured between two wrapped calls rather than around one)."""
        stack = self.stack()
        parent = stack[-1] if stack else None
        self.spans.append([
            next(self._ids), parent[ID] if parent else -1, name, start, end,
            0.0, self.root, threading.get_ident(),
        ])
        if parent is not None:
            parent[CHILD] += end - start

    def count(self, name: str, value: float = 1) -> None:
        # Dispatcher threads count too: ``+=`` is not atomic.
        with self._lock:
            self.counters[self.root][name] += value

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples[self.root][name].append(value)

    def begin_root(self, name: str) -> list:
        """Open a phase root on the calling (main) thread."""
        record = self.push(name)
        self.root = record[ID]
        record[ROOT] = record[ID]
        self.roots.append((record[ID], name))
        return record

    def end_root(self, record: list) -> None:
        self.pop(record)
        self.root = -1

    # -- patching ----------------------------------------------------------
    def patch(self, owner, attr: str, make_wrapper) -> None:
        """Replace ``owner.attr`` by ``make_wrapper(original)``."""
        original = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        wrapper = make_wrapper(original)
        functools.update_wrapper(wrapper, original, updated=())
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def span(self, owner, attr: str, name: str, counter=None) -> None:
        """Wrap ``owner.attr`` in a span called ``name``; ``counter``
        optionally maps ``(args, kwargs, result)`` to counter updates."""
        tracer = self

        def make(original):
            def wrapper(*args, **kwargs):
                record = tracer.push(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer.pop(record)
                if counter is not None:
                    for key, value in counter(args, kwargs, result):
                        tracer.count(key, value)
                return result
            return wrapper

        self.patch(owner, attr, make)

    def counting(self, owner, attr: str, counter) -> None:
        """Wrap ``owner.attr`` to feed counters only, without a span."""
        tracer = self

        def make(original):
            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                for key, value in counter(args, kwargs, result):
                    tracer.count(key, value)
                return result
            return wrapper

        self.patch(owner, attr, make)

    def restore(self) -> None:
        """Put every original attribute back and check that it is back."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
            current = (owner.__dict__[attr] if isinstance(owner, type)
                       else getattr(owner, attr))
            if current is not original:
                raise RuntimeError(f"tracer failed to restore {attr!r}")

    # -- reporting ---------------------------------------------------------
    def root_ids(self, name: str) -> list[int]:
        return [rid for rid, rname in self.roots if rname == name]

    def layer_totals(self) -> dict[int, dict]:
        """Per root: self time per span name, span counts, and how many
        spans of each name ran directly under a span of another name."""
        names = {record[ID]: record[NAME] for record in self.spans}
        totals: dict[int, dict] = defaultdict(lambda: {
            "self": defaultdict(float), "calls": defaultdict(int),
            "under": defaultdict(int), "durations": defaultdict(list),
        })
        for record in self.spans:
            entry = totals[record[ROOT]]
            name = record[NAME]
            duration = record[END] - record[START]
            entry["self"][name] += duration - record[CHILD]
            entry["calls"][name] += 1
            entry["durations"][name].append(duration)
            parent = names.get(record[PARENT])
            if parent is not None:
                entry["under"][(parent, name)] += 1
        return totals

    def write(self, path, header: dict) -> None:
        """Write the header and every span as JSON lines, times relative
        to the tracer's creation."""
        t0 = self.t0
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps(header) + "\n")
            for record in sorted(self.spans, key=lambda r: r[START]):
                out.write(json.dumps({
                    "id": record[ID],
                    "parent": record[PARENT],
                    "name": record[NAME],
                    "start_s": round(record[START] - t0, 9),
                    "end_s": round(record[END] - t0, 9),
                    "self_s": round(
                        record[END] - record[START] - record[CHILD], 9
                    ),
                    "root": record[ROOT],
                    "thread": record[THREAD],
                }) + "\n")
