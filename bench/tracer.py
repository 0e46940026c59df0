"""In-process span tracer over the layer modules of `qshje`.

`install()` wraps every public function and method defined in each layer
module (properties and dunder methods excluded) and rebinds every name under
which another module imported one of them, so `cli`'s direct references to
`solve_pair`, `build_component` and the others are traced too. `uninstall()`
restores the originals, so untraced passes run the program unmodified.

A span is (id, parent, job, name, start, end). Spans are kept in memory, one
flat float array per thread, and written out by `dump()`. A span opened in a
worker thread with nothing open in that thread takes as parent the innermost
span open in the main thread, which is the call that handed out the work.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import threading
import time
from array import array
from collections import defaultdict

import numpy as np

LAYERS = (
    "cli", "config", "domain", "ode_engine", "reduced_action",
    "residuals", "schwarzian", "tables", "reduction",
)
FIELDS = ("id", "parent", "job", "name", "start", "end")


class Tracer:
    def __init__(self, package):
        self.package = package
        # by import, not attribute: the package re-exports a function named
        # `schwarzian` over its submodule of that name
        self.modules = {
            name: importlib.import_module(f"{package.__name__}.{name}") for name in LAYERS
        }
        self.names: list[str] = []
        self.job = -1
        self.counts: dict[tuple[int, str], float] = defaultdict(float)
        self._ids = itertools.count()
        self._main_ident = threading.get_ident()
        self._main_stack: list[int] = []
        self._main_buf = array("d")
        self._local = threading.local()
        self._thread_bufs: list[array] = []
        self._installed = False
        self._rebind = self._plan()

    # -- installation -------------------------------------------------------

    def _targets(self):
        """(owner, attribute, raw value, function, span name) of everything wrapped."""
        for layer, mod in self.modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    yield mod, attr, obj, obj, f"{layer}.{attr}"
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for mname, raw in list(vars(obj).items()):
                        if mname.startswith("_"):
                            continue
                        fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                        if inspect.isfunction(fn):
                            yield obj, mname, raw, fn, f"{layer}.{attr}.{mname}"

    def _plan(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, replacement) for every rebinding."""
        plan, replaced = [], {}
        for owner, attr, raw, fn, name in list(self._targets()):
            wrapped = self._wrap(fn, name)
            if isinstance(raw, (classmethod, staticmethod)):
                plan.append((owner, attr, raw, type(raw)(wrapped)))
            else:
                plan.append((owner, attr, raw, wrapped))
                replaced[id(fn)] = (fn, wrapped)
        # names imported elsewhere, including the package namespace
        for mod in [self.package, *self.modules.values()]:
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj and mod.__name__ != obj.__module__:
                    plan.append((mod, attr, obj, hit[1]))
        return plan

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        for owner, attr, _, replacement in self._rebind:
            setattr(owner, attr, replacement)
        self._installed = True

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._rebind:
            setattr(owner, attr, original)
        self._installed = False

    # -- recording ----------------------------------------------------------

    def _thread_state(self):
        local = self._local
        try:
            return local.stack, local.buf
        except AttributeError:
            local.stack, local.buf = [], array("d")
            self._thread_bufs.append(local.buf)
            return local.stack, local.buf

    def _wrap(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        hook = _HOOKS.get(name)
        sig = inspect.signature(fn) if hook else None
        clock = time.perf_counter
        get_ident = threading.get_ident
        ids = self._ids
        main_ident, main_stack, main_buf = self._main_ident, self._main_stack, self._main_buf
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if get_ident() == main_ident:
                stack, buf = main_stack, main_buf
            else:
                stack, buf = tracer._thread_state()
            parent = stack[-1] if stack else (main_stack[-1] if main_stack else -1)
            job = tracer.job
            if hook is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                counted = hook(bound.arguments)
                args, kwargs = bound.args, bound.kwargs
            sid = next(ids)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                buf.extend((sid, parent, job, nid, t0, t1))
            if hook is not None:
                for key, value in counted(result).items():
                    tracer.counts[(job, key)] += value
            return result

        return wrapper

    def reset(self) -> None:
        del self._main_buf[:]
        self._thread_bufs.clear()
        self._local = threading.local()
        self.counts.clear()

    # -- results ------------------------------------------------------------

    def spans(self) -> np.ndarray:
        """All recorded spans as an (n, 6) array in FIELDS order, sorted by id."""
        bufs = [self._main_buf, *self._thread_bufs]
        flat = np.concatenate([np.frombuffer(b, dtype=float) for b in bufs if len(b)] or [np.zeros(0)])
        table = flat.reshape(-1, len(FIELDS))
        return table[np.argsort(table[:, 0], kind="stable")]

    def dump(self, path_prefix: str) -> None:
        """Write the spans as raw float64 rows plus a JSON header naming them."""
        table = self.spans()
        table.tofile(path_prefix + ".f64")
        with open(path_prefix + ".json", "w", encoding="utf-8") as fh:
            json.dump({"fields": FIELDS, "rows": int(table.shape[0]), "names": self.names}, fh)


# -- counters measured at the traced boundaries -------------------------------
# A hook sees the bound arguments before the call (it may replace them) and
# returns a function that maps the result to counter increments.


class _CountingRows:
    def __init__(self, rows):
        self.rows = rows
        self.n = 0

    def __iter__(self):
        for row in self.rows:
            self.n += 1
            yield row


def _solve_pair(arguments):
    steps = (arguments["grid"].n - 1) * int(arguments["substeps"])
    return lambda pair: {"rk4_steps": steps}


def _write_table(arguments):
    rows = arguments["rows"] = _CountingRows(arguments["rows"])
    return lambda path: {"table_rows": rows.n, "table_bytes": os.path.getsize(path)}


def _write_summary(arguments):
    return lambda path: {"table_bytes": os.path.getsize(path)}


def _probe_lattice(arguments):
    return lambda points: {"probe_points": len(points)}


def _limit_scan(arguments):
    return lambda scan: {"scan_evals": len(scan.points) * len(scan.hbar_values)}


_HOOKS = {
    "ode_engine.solve_pair": _solve_pair,
    "tables.write_table": _write_table,
    "tables.write_summary": _write_summary,
    "residuals.probe_lattice": _probe_lattice,
    "residuals.classical_limit_scan": _limit_scan,
}


# -- analysis -------------------------------------------------------------------

PROBE_SPANS = (
    "residuals.assembled_residual",
    "residuals.component_weighted_sum",
    "residuals.classical_limit_scan",
)


def _covered(groups: np.ndarray, start: np.ndarray, end: np.ndarray, n_groups: int) -> np.ndarray:
    """Length of the union of [start, end) intervals within each group.

    Intervals of one thread never overlap within a group; those of worker
    threads can, so a plain sum would count shared wall time twice.
    """
    if groups.size == 0:
        return np.zeros(n_groups)
    order = np.lexsort((start, groups))
    g, s, e = groups[order], start[order], end[order]
    base = s.min()
    width = e.max() - base + 1.0
    # a cumulative max over (group offset + end) restarts at every group,
    # because each group's offset exceeds every earlier value
    key = g * width + (e - base)
    run = np.maximum.accumulate(key)
    prev = np.empty_like(run)
    prev[0] = -np.inf
    prev[1:] = run[:-1]
    first = np.ones(g.size, dtype=bool)
    first[1:] = g[1:] != g[:-1]
    prev_end = np.where(first, -np.inf, prev - g * width + base)
    piece = np.clip(e - np.maximum(s, prev_end), 0.0, None)
    return np.bincount(g.astype(np.int64), weights=piece, minlength=n_groups)


def analyse(table: np.ndarray, names: list[str]) -> dict:
    """Self time per layer, and calls and inclusive time per span name.

    A span's self time is its duration minus the part of it that its child
    spans cover. Self times add up over threads, so in a `--parallel` job a
    worker's span also counts the time that worker waits for the
    interpreter lock.
    """
    ids, parent, name = table[:, 0], table[:, 1], table[:, 3].astype(np.int64)
    start, end = table[:, 4], table[:, 5]
    dur = end - start
    has_parent = parent >= 0
    pos = np.searchsorted(ids, parent[has_parent])
    covered = _covered(pos.astype(float), start[has_parent], end[has_parent], ids.size)
    self_time = np.clip(dur - covered, 0.0, None)
    n_names = len(names)
    by_name_self = np.bincount(name, weights=self_time, minlength=n_names)
    by_name_incl = np.bincount(name, weights=dur, minlength=n_names)
    by_name_calls = np.bincount(name, minlength=n_names)

    layer_self: dict[str, float] = defaultdict(float)
    for i, full in enumerate(names):
        layer_self[full.split(".", 1)[0]] += float(by_name_self[i])

    probe_ids = [names.index(n) for n in PROBE_SPANS if n in names]
    is_probe = np.isin(name, probe_ids)
    parent_is_probe = np.zeros(ids.size, dtype=bool)
    parent_is_probe[has_parent] = np.isin(name[pos], probe_ids)
    top = is_probe & ~parent_is_probe
    probe_wall = float(_covered(np.zeros(int(top.sum())), start[top], end[top], 1)[0])

    return {
        "spans": int(ids.size),
        "layer_self": dict(layer_self),
        "calls": {n: int(by_name_calls[i]) for i, n in enumerate(names)},
        "inclusive": {n: float(by_name_incl[i]) for i, n in enumerate(names)},
        "probe_wall": probe_wall,
    }
