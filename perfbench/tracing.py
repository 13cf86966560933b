"""Per-layer timing from outside the program.

`Tracer.installed()` replaces public functions of `dowker` at the places
where `cli`, `reducer` and `homology` look them up with wrappers that record
one span per call, and puts the original attributes back on exit.  Spans are
kept in memory as (name, start_ns, end_ns, parent) and written out when the
benchmark ends.  The program itself is not changed.
"""

from __future__ import annotations

import inspect
import json
import time
from contextlib import contextmanager
from importlib import import_module

# span name -> (module holding the attribute, class in it or None, attribute)
WRAPPED = {
    "cli.main": ("dowker.cli", None, "main"),
    "reducer.reduce": ("dowker.cli", None, "reduce"),
    "reducer.format_step_log": ("dowker.cli", None, "format_step_log"),
    "reducer.reduction_step": ("dowker.reducer", None, "reduction_step"),
    "reducer.candidate_vertices": ("dowker.reducer", None, "candidate_vertices"),
    "reducer.comparison_budget": ("dowker.reducer", None, "comparison_budget"),
    "collapse.is_strong_collapsible": ("dowker.reducer", None, "is_strong_collapsible"),
    "collapse.collapse_core": ("dowker.cli", None, "collapse_core"),
    "complexio.parse_toplex_file": ("dowker.cli", None, "parse_toplex_file"),
    "homology.betti_gf2": ("dowker.cli", None, "betti_gf2"),
    "homology.enumerate_simplices": ("dowker.homology", None, "enumerate_simplices"),
    "homology.rank_gf2": ("dowker.homology", None, "rank_gf2"),
    "relation.from_toplexes": ("dowker.relation", "Relation", "from_toplexes"),
    "relation.from_text": ("dowker.relation", "Relation", "from_text"),
    "relation.make_column_irreducible": ("dowker.relation", "Relation", "make_column_irreducible"),
    "relation.is_column_irreducible": ("dowker.relation", "Relation", "is_column_irreducible"),
    "relation.restrict_to_columns": ("dowker.relation", "Relation", "restrict_to_columns"),
    "relation.add_row": ("dowker.relation", "Relation", "add_row"),
    "relation.remove_rows": ("dowker.relation", "Relation", "remove_rows"),
    "relation.to_text": ("dowker.relation", "Relation", "to_text"),
}


class Tracer:
    """Spans of the wrapped calls of one traced pass, and observers that read
    counts from their return values."""

    def __init__(self, observers=None):
        self.spans = []          # [name, start_ns, end_ns, parent index or None]
        self._stack = []
        # span name -> callable(result) run after each call, for counts
        self.observers = dict(observers or {})
        self.missing = []

    def wrap(self, name, fn):
        spans, stack, observe = self.spans, self._stack, self.observers.get(name)

        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, table=WRAPPED):
        """Wrap every function in `table` that exists; restore all on exit.

        A name whose attribute is gone (removed or inlined by a later
        change) is listed in `missing` and simply records no span.
        """
        restore = []
        self.missing = []
        try:
            for name, (module, cls, attr) in table.items():
                try:
                    owner = import_module(module)
                    if cls is not None:
                        owner = getattr(owner, cls)
                    raw = inspect.getattr_static(owner, attr)
                except (ImportError, AttributeError):
                    self.missing.append(name)
                    continue
                own = attr in vars(owner)
                if isinstance(raw, (classmethod, staticmethod)):
                    new = type(raw)(self.wrap(name, raw.__func__))
                elif callable(raw):
                    new = self.wrap(name, raw)
                else:
                    self.missing.append(name)
                    continue
                setattr(owner, attr, new)
                restore.append((owner, attr, raw if own else None))
            yield self
        finally:
            for owner, attr, raw in reversed(restore):
                if raw is None:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, raw)


def layer_times(spans):
    """Per span name: total seconds, self seconds and call count.

    Total counts only the outermost span of a name, so a recursive call is
    not counted twice.  Self time is a span's duration minus its direct
    children's, which nest inside it, so it is never negative.
    """
    out = {}
    child = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            child[parent] += end - start
    for k, (name, start, end, parent) in enumerate(spans):
        rec = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        rec["calls"] += 1
        rec["self_s"] += (end - start - child[k]) / 1e9
        p = parent
        while p is not None and spans[p][0] != name:
            p = spans[p][3]
        if p is None:
            rec["s"] += (end - start) / 1e9
    return out
