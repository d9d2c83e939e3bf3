"""Span tracing for the benchmark's traced run.

The library has no instrumentation of its own, so the traced run rebinds
the public functions listed in ``SPAN_FUNCTIONS`` to pass-through timers:
every name in every ``rwis`` module that refers to such a function (the
module attribute and each ``from x import y`` alias) is replaced, so calls
from one library module into another are caught as well as the benchmark's
own calls.  The originals are restored when ``installed()`` exits.  Nothing
in ``src/`` changes and the wrappers return exactly what the wrapped
function returns.

Each span records its name, start, end, parent span and operation id; a
layer's self time is its span time minus the time its child spans cover.
Spans are kept in memory in flat arrays and written out once, at the end of
the run.
"""

from __future__ import annotations

import gzip
import importlib
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import rwis

SPAN_FUNCTIONS = (
    "cli.main",
    "fileformat.parse_instance",
    "fileformat.write_instance",
    "gen.gen_random",
    "gen.gen_partition",
    "gen.gen_vertex_cover",
    "core.max_weight_is",
    "core.enumerate_independent_sets",
    "scenarios.worst_case_scenario",
    "robust.opt_weight",
    "robust.max_regret_discrete",
    "robust.max_regret_interval",
    "robust.solve_max_min_interval",
    "robust.pareto_frontier",
    "robust.solve_max_min_exact",
    "robust.solve_regret_discrete_exact",
    "robust.fptas_max_min",
    "robust.fptas_regret_discrete",
    "robust.solve_regret_interval_exact",
    "approx.k_approx_regret",
    "approx.midpoint_approx_regret",
)

# Functions that return a generator: their span covers the time spent
# producing items, not the consumer's work between items.
GENERATOR_FUNCTIONS = frozenset({"core.enumerate_independent_sets"})

MODULES = ("approx", "cli", "core", "fileformat", "gen", "robust", "scenarios")


def rwis_modules():
    return [rwis] + [importlib.import_module(f"rwis.{m}") for m in MODULES]


def library_caches() -> dict[str, object]:
    """Every ``functools`` cache in the library, by ``module.name``."""
    out = {}
    for mod in rwis_modules()[1:]:
        for name, obj in vars(mod).items():
            if callable(getattr(obj, "cache_clear", None)) and getattr(
                obj, "__module__", None
            ) == mod.__name__:
                out[f"{mod.__name__.removeprefix('rwis.')}.{name}"] = obj
    return out


class Totals:
    """Per-name call counts, busy seconds, self seconds and item counts."""

    def __init__(self, size: int):
        self.calls = [0] * size
        self.busy = [0.0] * size
        self.self_ = [0.0] * size
        self.items = [0] * size


class Tracer:
    """Spans of the wrapped functions, recorded while ``active`` is set.

    ``totals`` aggregates them per name; ``core.max_weight_is`` calls are
    also charged to ``.first`` or ``.repeat``.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        for name in SPAN_FUNCTIONS:
            self.name_id(name)
        self.name_id("core.max_weight_is.first")
        self.name_id("core.max_weight_is.repeat")
        self.active = False
        self.op = -1
        self._next = 0
        self._stack: list[tuple[int, list]] = []
        self.sid = array("q")
        self.name = array("H")
        self.parent = array("q")
        self.opid = array("l")
        self.start = array("d")
        self.end = array("d")
        self.busy = array("d")
        self.totals = Totals(len(self.names))
        self.origin = time.perf_counter()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def reset_totals(self) -> Totals:
        self.totals = Totals(len(self.names))
        return self.totals

    def total(self, name: str, field: str = "busy"):
        return getattr(self.totals, field)[self._ids[name]]

    def _record(self, sid, nid, parent, t0, t1, busy, child, tag=None):
        self.sid.append(sid)
        self.name.append(nid)
        self.parent.append(-1 if parent is None else parent[0])
        self.opid.append(self.op)
        self.start.append(t0)
        self.end.append(t1)
        self.busy.append(busy)
        if parent is not None:
            parent[1][0] += busy
        t = self.totals
        for i in (nid,) if tag is None else (nid, tag):
            t.calls[i] += 1
            t.busy[i] += busy
            t.self_[i] += busy - child

    def wrap(self, name: str, fn, before=None, after=None):
        """Pass-through timer around `fn`.

        `before(args)` runs ahead of the clock; `after(token)` runs after it
        and may return the id of a second name to charge the call to.
        """
        nid = self.name_id(name)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            token = before(args) if before is not None else None
            parent = stack[-1] if stack else None
            sid = self._next
            self._next += 1
            cell = [0.0]
            stack.append((sid, cell))
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                tag = after(token) if after is not None else None
                self._record(sid, nid, parent, t0, t1, t1 - t0, cell[0], tag)

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, name: str, fn):
        nid = self.name_id(name)
        stack = self._stack
        clock = time.perf_counter

        def produce(it, sid, parent, t0, busy):
            count = 0
            try:
                while True:
                    a = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        busy += clock() - a
                        return
                    busy += clock() - a
                    count += 1
                    yield item
            finally:
                self._record(sid, nid, parent, t0, clock(), busy, 0.0)
                self.totals.items[nid] += count

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            sid = self._next
            self._next += 1
            t0 = clock()
            it = fn(*args, **kwargs)
            return produce(it, sid, parent, t0, clock() - t0)

        traced.__wrapped__ = fn
        return traced

    def _wrappers(self):
        from rwis import core

        out = {}
        prepared = getattr(core, "_prepared", None)
        first = self.name_id("core.max_weight_is.first")
        repeat = self.name_id("core.max_weight_is.repeat")
        parse = self.name_id("fileformat.parse_instance")
        for qualified in SPAN_FUNCTIONS:
            module, attr = qualified.split(".")
            fn = getattr(importlib.import_module(f"rwis.{module}"), attr)
            if qualified in GENERATOR_FUNCTIONS:
                out[id(fn)] = self.wrap_generator(qualified, fn)
            elif qualified == "core.max_weight_is" and hasattr(prepared, "cache_info"):
                # a call is the family's first when it had to build the
                # sorted order and predecessors (a miss in core._prepared)
                out[id(fn)] = self.wrap(
                    qualified,
                    fn,
                    before=lambda args: prepared.cache_info().misses,
                    after=lambda misses: first
                    if prepared.cache_info().misses > misses
                    else repeat,
                )
            elif qualified == "fileformat.parse_instance":
                def count_bytes(args):
                    self.totals.items[parse] += Path(args[0]).stat().st_size

                out[id(fn)] = self.wrap(qualified, fn, before=count_bytes)
            else:
                out[id(fn)] = self.wrap(qualified, fn)
        return out

    @contextmanager
    def installed(self):
        """Rebind every alias of the traced functions for the duration."""
        wrappers = self._wrappers()
        replaced = []
        for mod in rwis_modules():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    replaced.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])
        try:
            yield self
        finally:
            for mod, attr, obj in replaced:
                setattr(mod, attr, obj)

    def write(self, path: Path) -> int:
        """Write all spans as gzip'd tab-separated text; returns the span count."""
        path.parent.mkdir(parents=True, exist_ok=True)
        o = self.origin
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span\tname\tparent\top\tstart_ms\tend_ms\tbusy_ms\n")
            names = self.names
            for i in range(len(self.sid)):
                fh.write(
                    f"{self.sid[i]}\t{names[self.name[i]]}\t{self.parent[i]}\t"
                    f"{self.opid[i]}\t{(self.start[i] - o) * 1e3:.4f}\t"
                    f"{(self.end[i] - o) * 1e3:.4f}\t{self.busy[i] * 1e3:.4f}\n"
                )
        return len(self.sid)
