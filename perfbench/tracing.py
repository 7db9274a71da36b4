"""Spans around the program's layer entry points, recorded from outside.

The traced run wraps the public entry points of each layer -- methods on
their classes, module functions in every module that imported them, and
the disk shim's ``fsync`` -- with a recorder, without changing a line of
the program.  A span holds its name, start, end, parent span and the id
of the benchmark operation it served.  Spans are kept in memory while the
run measures and written out when it ends; per-layer times and counts,
and each layer's self time, are computed from them afterwards.

Only calls made inside a timed benchmark operation are recorded: the
benchmark's own output checks run with the recorder off.  Pauses of the
cyclic garbage collector are recorded too, wherever they fall.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import importlib
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

perf_counter = time.perf_counter


def entry_points() -> List[Tuple[str, object, str, str]]:
    """(span name, owner, attribute, kind) for every wrapped entry point.

    ``kind`` is ``method`` (plain function on a class), ``classmethod``,
    ``function`` (module function, replaced wherever it was imported) or
    ``instance`` (a bound method on a shared object).
    """
    from repro.replication.replica import Replica
    from repro.security.perm import PermissionResolver
    from repro.security.static import StaticDecider
    from repro.security.view import ViewBuilder
    from repro.security.viewcache import ViewCache
    from repro.security.write import SecureWriteExecutor
    from repro.serving.server import DatabaseServer
    from repro.testing.diskfaults import disk
    from repro.wal.log import WriteAheadLog
    from repro.xmltree.document import XMLDocument
    from repro.xpath.compiler import CompiledXPath
    from repro.xupdate.executor import XUpdateExecutor

    storage = importlib.import_module("repro.storage")
    recover = importlib.import_module("repro.wal.recover")
    compiler = importlib.import_module("repro.xpath.compiler")
    points = [
        ("serving.open", DatabaseServer, "open", "classmethod"),
        ("serving.execute", DatabaseServer, "execute", "method"),
        ("serving.checkpoint", DatabaseServer, "checkpoint", "method"),
        ("security.viewcache.view_for", ViewCache, "view_for", "method"),
        ("security.view.build", ViewBuilder, "build", "method"),
        ("security.perm.resolve", PermissionResolver, "resolve", "method"),
        ("security.perm.note_commit", PermissionResolver, "note_commit", "method"),
        ("security.static.decide", StaticDecider, "decide", "method"),
        ("xpath.compiler.evaluate", CompiledXPath, "evaluate", "method"),
        ("xpath.compiler.evaluate", CompiledXPath, "select", "method"),
        ("xpath.compiler.compile", compiler, "compile_expr", "function"),
        ("security.write.apply", SecureWriteExecutor, "apply", "method"),
        ("xupdate.executor.apply", XUpdateExecutor, "apply", "method"),
        ("xupdate.executor.apply", XUpdateExecutor, "select_path", "method"),
        ("xmltree.document.copy", XMLDocument, "copy", "method"),
        ("wal.log.log_commit", WriteAheadLog, "log_commit", "method"),
        ("wal.log.checkpoint", WriteAheadLog, "checkpoint", "method"),
        ("wal.log.fsync", disk, "fsync", "instance"),
        ("wal.recover.recover", recover, "recover", "function"),
        ("wal.recover.apply_record", recover, "apply_record", "function"),
        ("replication.replica.poll", Replica, "poll", "method"),
        ("storage.dump", storage, "dump_state", "function"),
        ("storage.load", storage, "load_database", "function"),
    ]
    for attr in ("serve", "select", "query", "read_xml", "view"):
        points.append(("serving.read", DatabaseServer, attr, "method"))
    return points


class Tracer:
    """Records spans while :attr:`active`; installs and removes its
    wrappers with :meth:`install` / :meth:`uninstall`."""

    def __init__(self) -> None:
        #: [name, start, end, parent index (-1 for none), operation id]
        self.spans: List[list] = []
        self.op = 0
        self.active = False
        self._stack: List[int] = []
        self._undo: List[Callable[[], None]] = []
        self._gc_start: Optional[float] = None

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def operation(self):
        """Record the calls made inside one benchmark operation."""
        self.op += 1
        self.active = True
        try:
            yield
        finally:
            self.active = False

    def _wrap(self, name: str, fn):
        tracer = self
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # A same-named entry point nested directly in its own span
            # (select -> evaluate, script -> operation) is one call.
            if not tracer.active or (stack and spans[stack[-1]][0] == name):
                return fn(*args, **kwargs)
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, tracer.op]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()

        return traced

    # ------------------------------------------------------------------
    # installing
    # ------------------------------------------------------------------
    def _on_gc(self, phase: str, info: dict) -> None:
        """Collector pauses are recorded as spans of their own, whether
        or not an operation is being timed."""
        if phase == "start":
            self._gc_start = perf_counter()
        elif self._gc_start is not None:
            self.spans.append(["runtime.gc", self._gc_start, perf_counter(), -1, self.op])
            self._gc_start = None

    def install(self) -> None:
        if self._undo:
            return
        gc.callbacks.append(self._on_gc)
        self._undo.append(functools.partial(gc.callbacks.remove, self._on_gc))
        for name, owner, attr, kind in entry_points():
            if kind == "instance":
                setattr(owner, attr, self._wrap(name, getattr(owner, attr)))
                self._undo.append(functools.partial(delattr, owner, attr))
            elif kind == "classmethod":
                original = owner.__dict__[attr]
                setattr(owner, attr, classmethod(self._wrap(name, original.__func__)))
                self._undo.append(functools.partial(setattr, owner, attr, original))
            elif kind == "method":
                original = owner.__dict__[attr]
                setattr(owner, attr, self._wrap(name, original))
                self._undo.append(functools.partial(setattr, owner, attr, original))
            else:
                self._replace_everywhere(name, getattr(owner, attr))

    def _replace_everywhere(self, name: str, original) -> None:
        wrapper = self._wrap(name, original)
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not getattr(module, "__name__", "").startswith("repro") or namespace is None:
                continue
            for key, value in list(namespace.items()):
                if value is original:
                    namespace[key] = wrapper
                    self._undo.append(functools.partial(namespace.__setitem__, key, original))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds.

        A span's self time is its duration minus the time its direct
        child spans cover.
        """
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "seconds": 0.0, "self_seconds": 0.0}
        )
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for index, (name, start, end, _parent, _op) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["seconds"] += end - start
            entry["self_seconds"] += end - start - child_time[index]
        return dict(out)

    def calls_under(self, name: str, ancestor: str) -> Tuple[int, float]:
        """(calls, inclusive seconds) of ``name`` spans that have an
        ``ancestor`` span above them."""
        calls, seconds = 0, 0.0
        spans = self.spans
        for span in spans:
            if span[0] != name:
                continue
            parent = span[3]
            while parent >= 0 and spans[parent][0] != ancestor:
                parent = spans[parent][3]
            if parent >= 0:
                calls += 1
                seconds += span[2] - span[1]
        return calls, seconds

    def write(self, path: str, extra: Optional[dict] = None) -> None:
        """Write every span, and the per-name summary, as JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "op"],
                    "spans": self.spans,
                    "summary": self.summary(),
                    **(extra or {}),
                },
                handle,
            )
