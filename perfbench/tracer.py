"""Spans around calls into the ``aprfm`` layers, recorded from outside.

``Tracer.installed()`` replaces each public function of the layer modules
at every name that binds it in a loaded ``aprfm.*`` module, so that
``from .basis import model_values`` in ``assemble`` is caught as well as
``collocation.build_collocation`` in ``cli``.  A call opens a span only
when it enters a module from outside it: a layer's calls to its own
functions belong to the caller's span.  The one exception is the reference
step of a run, cli's cached lookup of the reference field, which is traced
as part of the reference layer.  Spans (name, start, end, parent) stay in
memory until ``write`` saves them; ``tracemalloc`` gives each span the
peak of traced allocations above what was allocated when it began.

Spans named in ``untracked`` run with ``tracemalloc`` stopped: the oracle's
scalar loops run about 25 times slower under it.  They, the spans around
them and the spans inside them get no memory figure.
"""

import contextlib
import functools
import inspect
import json
import sys
import time
import tracemalloc
from dataclasses import dataclass, field

LAYERS = ("basis", "collocation", "assemble", "solve", "reference", "cli")
REFERENCE_STEP = ("_reference_f", "_reference_rho")


@dataclass
class Span:
    name: str
    id: int
    parent: int
    start: float = 0.0
    end: float = 0.0
    start_bytes: int = 0
    peak_bytes: int = 0
    child_s: float = 0.0
    memory: bool = True  # tracemalloc ran for the whole span
    paused: bool = False  # this span stopped tracemalloc
    info: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.duration - self.child_s

    @property
    def alloc_peak_bytes(self):
        return self.peak_bytes - self.start_bytes if self.memory else None


class Tracer:
    """Records spans for the layer functions while installed.

    ``observers`` maps a span name to ``fn(span, args, kwargs, result)``,
    which may store counts in ``span.info``.
    """

    def __init__(self, observers=None, untracked=()):
        self.observers = dict(observers or {})
        self.untracked = frozenset(untracked)
        self.spans = []
        self._stack = []
        self._ids = 0

    def _enter(self, name):
        tracing = tracemalloc.is_tracing()
        current, peak = tracemalloc.get_traced_memory()
        if self._stack:
            parent = self._stack[-1]
            parent.peak_bytes = max(parent.peak_bytes, peak)
        self._ids += 1
        span = Span(name, self._ids, self._stack[-1].id if self._stack else 0,
                    start_bytes=current, peak_bytes=current, memory=tracing)
        if tracing and name in self.untracked:
            for open_span in self._stack + [span]:
                open_span.memory = False
            span.paused = True
            tracemalloc.stop()
        elif tracing:
            tracemalloc.reset_peak()
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def _exit(self, span):
        span.end = time.perf_counter()
        _, peak = tracemalloc.get_traced_memory()
        span.peak_bytes = max(span.peak_bytes, peak)
        self._stack.pop()
        if self._stack:
            parent = self._stack[-1]
            parent.peak_bytes = max(parent.peak_bytes, span.peak_bytes)
            parent.child_s += span.duration
        if span.paused:
            tracemalloc.start()
        elif tracemalloc.is_tracing():
            tracemalloc.reset_peak()
        self.spans.append(span)

    def _wrap(self, name, module_name, fn):
        observe = self.observers.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if sys._getframe(1).f_globals.get("__name__") == module_name:
                return fn(*args, **kwargs)
            span = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(span)
            if observe is not None:
                observe(span, args, kwargs, result)
            return result

        return traced

    def _targets(self):
        targets = {}
        for layer in LAYERS:
            module = sys.modules[f"aprfm.{layer}"]
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == module.__name__):
                    targets[value] = self._wrap(f"{layer}.{attr}",
                                                module.__name__, value)
        cli = sys.modules["aprfm.cli"]
        for attr in REFERENCE_STEP:
            # called from inside cli, so no module counts as its own
            targets[getattr(cli, attr)] = self._wrap(
                f"reference.{attr.lstrip('_')}", None, getattr(cli, attr))
        return targets

    @contextlib.contextmanager
    def installed(self):
        """Patch every binding of the layer functions, trace, then restore."""
        targets = self._targets()
        patched = []
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "aprfm"
                                      or mod_name.startswith("aprfm.")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = (targets.get(value) if inspect.isfunction(value)
                           else None)
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    patched.append((module, attr, value))
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            yield self
        finally:
            if started:
                tracemalloc.stop()
            for module, attr, value in patched:
                setattr(module, attr, value)

    def write(self, path):
        """Save the spans as JSON lines: name, id, parent, times, memory."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps({
                    "name": span.name, "id": span.id, "parent": span.parent,
                    "start": span.start, "end": span.end,
                    "self_s": span.self_s,
                    "alloc_peak_bytes": span.alloc_peak_bytes,
                    **span.info}) + "\n")
