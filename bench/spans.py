"""In-memory spans around calls into prtrust's public functions.

The benchmark opens a span around each public call it makes, and while a
traced round runs, ``patched`` swaps a few module attributes for wrappers
so that calls the program makes between its own modules (``load_snapshot``
→ ``snapshot_from_dict`` → ``validate``, ``analyze_snapshot`` → the six
metrics and ``summarize``) are spanned too. Nothing under ``src/`` changes;
the originals are restored when the round ends.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """Spans as (name, start, end, parent index); single-threaded callers only."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        record = [name, perf_counter(), None, parent]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def wrap(self, name: str, function):
        @functools.wraps(function)
        def traced(*args, **kwargs):
            with self.span(name):
                return function(*args, **kwargs)
        return traced

    def totals(self) -> dict[str, float]:
        """Summed duration per span name (inclusive of child spans)."""
        out: dict[str, float] = {}
        for name, start, end, _ in self.spans:
            out[name] = out.get(name, 0.0) + (end - start)
        return out

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name: duration minus its children's.

        Spans of one thread nest, so the children of a span never overlap
        and their durations can be subtracted directly.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[i]
        return out

    def records(self) -> list[dict]:
        return [
            {"name": name, "start": start, "end": end, "parent": parent}
            for name, start, end, parent in self.spans
        ]


# (module, attribute, span name): calls made inside the program that the
# benchmark cannot reach from its own call sites.
INNER_CALLS = (
    ("prtrust.corpus", "snapshot_from_dict", "corpus.decode"),
    ("prtrust.corpus", "validate", "corpus.validate"),
    ("prtrust.aggregate", "action_score", "metrics.action"),
    ("prtrust.aggregate", "commitment_score", "metrics.commitment"),
    ("prtrust.aggregate", "competence_score", "metrics.competence"),
    ("prtrust.aggregate", "institutional_score", "metrics.institutional"),
    ("prtrust.aggregate", "personality_score", "metrics.personality"),
    ("prtrust.aggregate", "transferred_detect", "metrics.transferred"),
    ("prtrust.aggregate", "summarize", "aggregate.summarize"),
)


@contextmanager
def patched(tracer: Tracer):
    """Route the program's inner calls through ``tracer`` for the block."""
    import importlib

    saved = []
    try:
        for module_name, attribute, span_name in INNER_CALLS:
            module = importlib.import_module(module_name)
            original = getattr(module, attribute)
            saved.append((module, attribute, original))
            setattr(module, attribute, tracer.wrap(span_name, original))
        yield
    finally:
        for module, attribute, original in reversed(saved):
            setattr(module, attribute, original)
