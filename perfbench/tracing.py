"""Span tracing around the public functions of each tenrank layer.

The wrappers live here, in the benchmark, not in the library: `Tracer.install`
replaces every ``tenrank.*`` module attribute bound to a public function of a
layer module (modules import one another's functions by name) and every public
method of a layer's public classes; `Tracer.restore` puts the original objects
back.  Spans (name, start, end, parent span, item id) stay in memory and are
written out by `Tracer.save`.  Generator functions get a counting wrapper and
no span, because their time interleaves with the caller's.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from typing import Dict, List, Tuple

LAYERS = ("matrix", "_gf2", "_batch", "tensor", "spans", "pivots", "laurent",
          "engine", "io", "cli")
MAX_SPANS = 2_000_000


class Tracer:
    def __init__(self):
        from tenrank.errors import ResourceGuardError

        self._guard_error = ResourceGuardError
        self.modules = {m: importlib.import_module(f"tenrank.{m}") for m in LAYERS}
        self.names: List[str] = []  # span name per id, "<module>.<qualname>"
        self.layer_of: List[str] = []
        self.calls: List[int] = []
        self.incl: List[float] = []  # inclusive seconds, outermost calls only
        self.active: List[int] = []  # open calls per name
        self.self_s: Dict[str, float] = {m: 0.0 for m in LAYERS}
        self.counters: Dict[str, float] = {}
        self.item = -1
        self._stack: List[list] = []
        self._last_guard = None
        self._patches: List[Tuple[object, str, object]] = []
        # span records, appended when a span ends
        self.sp_id = array("i")
        self.sp_name = array("i")
        self.sp_parent = array("i")
        self.sp_item = array("i")
        self.sp_start = array("d")
        self.sp_end = array("d")
        self.dropped = 0
        self._next_span = 0
        self._t0 = time.perf_counter()

    # -- installation ---------------------------------------------------------

    def _targets(self):
        """(owner, attribute, function, span name, layer) for every wrapped callable."""
        out = []
        for layer, mod in self.modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    out.append((mod, attr, obj, f"{layer}.{attr}", layer))
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    for m_attr, m_obj in vars(obj).items():
                        if m_attr.startswith("_") or not inspect.isfunction(m_obj):
                            continue
                        out.append((obj, m_attr, m_obj, f"{layer}.{attr}.{m_attr}", layer))
        return out

    def install(self):
        wrappers = {}
        for owner, attr, fn, name, layer in self._targets():
            if id(fn) in wrappers:
                continue
            nid = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
            self.calls.append(0)
            self.incl.append(0.0)
            self.active.append(0)
            wrappers[id(fn)] = (self._gen_wrapper if inspect.isgeneratorfunction(fn)
                                else self._wrapper)(fn, nid, name)
        self._ids = {n: i for i, n in enumerate(self.names)}
        self._mincov = self._ids.get("spans.mincov_exhaustive", -1)
        # rebind every tenrank module attribute and class attribute holding a wrapped function
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "tenrank" or mod_name.startswith("tenrank.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    self._patch(mod, attr, wrappers[id(obj)])
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for m_attr, m_obj in list(vars(obj).items()):
                        if inspect.isfunction(m_obj) and id(m_obj) in wrappers:
                            self._patch(obj, m_attr, wrappers[id(m_obj)])

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def restore(self):
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    def wrapped(self) -> List[Tuple[object, str, object]]:
        """(owner, attribute, original) of every patched attribute."""
        return list(self._patches)

    # -- wrappers ---------------------------------------------------------------

    def _hook(self, name):
        """Extra counter for a few boundaries, called as hook(args, result)."""
        c = self.counters

        def add(key, n):
            c[key] = c.get(key, 0) + n

        if name == "_batch.batched_rank_mod_p":
            return lambda args, res: add("batch.batched_rank_mod_p.matrices", len(args[0]))
        if name == "tensor.Tensor3.kron":
            return lambda args, res: add("tensor.Tensor3.kron.entries", len(res.entries))
        if name.startswith("io.serialize_"):
            return lambda args, res: add("io.bytes", len(res.encode("utf-8")))
        if name.startswith("io.parse_"):
            return lambda args, res: add("io.bytes", len(args[0].encode("utf-8")))
        if name == "matrix.rref":
            return lambda args, res: add("rref_in_mincov", self.active[self._mincov] > 0)
        return None

    def _wrapper(self, fn, nid, name):
        stack = self._stack
        calls, incl, active = self.calls, self.incl, self.active
        self_s = self.self_s
        layer = self.layer_of[nid]
        clock = time.perf_counter
        hook = self._hook(name)
        guard_error = self._guard_error
        sp_id, sp_name, sp_parent, sp_item = self.sp_id, self.sp_name, self.sp_parent, self.sp_item
        sp_start, sp_end = self.sp_start, self.sp_end
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[nid] += 1
            active[nid] += 1
            sid = tracer._next_span
            tracer._next_span = sid + 1
            frame = [0.0, sid]
            parent = stack[-1][1] if stack else -1
            stack.append(frame)
            start = clock()
            try:
                res = fn(*args, **kwargs)
            except guard_error as exc:
                if exc is not tracer._last_guard:
                    tracer._last_guard = exc
                    tracer.counters["engine.guard_trips"] = \
                        tracer.counters.get("engine.guard_trips", 0) + 1
                raise
            finally:
                end = clock()
                stack.pop()
                active[nid] -= 1
                dur = end - start
                self_s[layer] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if not active[nid]:
                    incl[nid] += dur
                if sid < MAX_SPANS:
                    sp_id.append(sid)
                    sp_name.append(nid)
                    sp_parent.append(parent)
                    sp_item.append(tracer.item)
                    sp_start.append(start - tracer._t0)
                    sp_end.append(end - tracer._t0)
                else:
                    tracer.dropped += 1
            if hook is not None:
                hook(args, res)
            return res

        return wrapper

    def _gen_wrapper(self, fn, nid, name):
        calls, counters, active = self.calls, self.counters, self.active
        tracer = self
        scanned_key = name + ".scanned"
        yielded_key = name + ".yielded"
        watch_mincov = name == "spans.subspaces"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[nid] += 1
            n = 0
            in_mincov = 0
            last = None
            done = False
            try:
                for value in fn(*args, **kwargs):
                    n += 1
                    if watch_mincov and active[tracer._mincov] > 0:
                        in_mincov += 1
                    last = value
                    yield value
                done = True
            finally:
                counters[yielded_key] = counters.get(yielded_key, 0) + n
                if in_mincov:
                    counters["subspaces_in_mincov"] = counters.get("subspaces_in_mincov", 0) + in_mincov
                if name == "tensor.Tensor3.nonzero_items":
                    t = args[0]
                    if done or last is None:
                        seen = len(t.entries) if done else 0
                    else:
                        (i, j, k), _ = last
                        seen = (i * t.dims[1] + j) * t.dims[2] + k + 1
                    counters[scanned_key] = counters.get(scanned_key, 0) + seen

        return wrapper

    # -- results ----------------------------------------------------------------

    def table(self) -> Dict[str, dict]:
        """calls and inclusive seconds per wrapped function."""
        return {n: {"calls": self.calls[i], "s": self.incl[i]}
                for i, n in enumerate(self.names) if self.calls[i]}

    def metric(self, name: str, stat: str) -> float:
        i = self._ids.get(name)
        if i is None:
            raise KeyError(f"{name} is not a wrapped function")
        return float(self.calls[i] if stat == "calls" else self.incl[i])

    def save(self, path: str, meta: dict):
        """Write spans and the per-function table (numpy .npz)."""
        import numpy as np

        np.savez_compressed(
            path,
            id=np.frombuffer(self.sp_id, dtype=np.int32),
            name=np.frombuffer(self.sp_name, dtype=np.int32),
            parent=np.frombuffer(self.sp_parent, dtype=np.int32),
            item=np.frombuffer(self.sp_item, dtype=np.int32),
            start=np.frombuffer(self.sp_start, dtype=np.float64),
            end=np.frombuffer(self.sp_end, dtype=np.float64),
            names=np.array(self.names),
            meta=np.array(json.dumps(dict(meta, table=self.table(), self_s=self.self_s,
                                          counters=self.counters, dropped=self.dropped))),
        )
