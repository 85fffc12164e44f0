"""Spans for the traced run, recorded from the benchmark's own files.

A :class:`Tracer` wraps public entry points of the program's modules by
patching the names their callers look up (a module attribute, or a
method on its class) and restores them afterwards.  Spans are kept in
memory; :meth:`Tracer.layer_metrics` turns them into per-layer self times and
counts, and the share of a measured window that no span covers.

A span's self time is its duration minus the time its child spans
cover.  Spans nest per thread.
"""

from __future__ import annotations

import bisect
import functools
import threading
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple


class Span:
    __slots__ = ("name", "parent", "start", "end", "thread", "children_s")

    def __init__(self, name: str, parent: Optional["Span"],
                 start: float, thread: int) -> None:
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.thread = thread
        self.children_s = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def as_dict(self) -> Dict[str, object]:
        return {"name": self.name, "start": self.start, "end": self.end,
                "thread": self.thread,
                "parent": self.parent.name if self.parent else None}


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = {}
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []
        self._lock = threading.Lock()

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str) -> Span:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span = Span(name, stack[-1] if stack else None, perf_counter(),
                    threading.get_ident())
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = perf_counter()
        self._local.stack.pop()
        if span.parent is not None:
            span.parent.children_s += span.seconds
        with self._lock:
            self.spans.append(span)

    def add(self, name: str, amount: float) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    # -- patching ------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str,
             after: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with a wrapper that records a span
        ``name`` around each call.  ``after(args, result)`` runs outside
        the span and may record counts."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(span)
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reports -------------------------------------------------------------

    def self_seconds(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for span in self.spans:
            out[span.name] = out.get(span.name, 0.0) + \
                span.seconds - span.children_s
        return out

    def layer_metrics(self, windows: List[Tuple[float, float]],
                      overhead: float) -> Dict[str, float]:
        """Per-layer self seconds (``<span>_s``) and counts, the share of
        the measured ``windows`` no span covers, and the tracing overhead
        the caller measured."""
        layers: Dict[str, float] = {
            f"{name}_s": seconds
            for name, seconds in self.self_seconds().items()}
        layers.update(self.counts)
        tile_s = layers.get("compress.tile_s")
        if tile_s:
            layers["compress.nodes_per_s"] = \
                self.counts.get("compress.nodes", 0) / tile_s
        layers["trace.unattributed_frac"] = self.uncovered_share(windows)
        layers["trace.overhead_frac"] = overhead
        return layers

    def uncovered_share(self, windows: List[Tuple[float, float]]) -> float:
        """Share of the time in ``windows`` (disjoint ``(start, end)``
        pairs: the measured ops) that no top-level span of any thread
        covers."""
        union: List[List[float]] = []
        for lo, hi in sorted((s.start, s.end) for s in self.spans
                             if s.parent is None):
            if union and lo <= union[-1][1]:
                union[-1][1] = max(union[-1][1], hi)
            else:
                union.append([lo, hi])
        starts = [lo for lo, _ in union]
        wall = covered = 0.0
        for w_lo, w_hi in windows:
            wall += w_hi - w_lo
            i = max(bisect.bisect_right(starts, w_lo) - 1, 0)
            while i < len(union) and union[i][0] < w_hi:
                covered += max(0.0, min(union[i][1], w_hi)
                               - max(union[i][0], w_lo))
                i += 1
        return max(0.0, 1.0 - covered / wall) if wall > 0 else 0.0


def install_program_spans(tracer: Tracer) -> None:
    """Wrap the public entry points of the in-process layers.  Each span
    is named after the per-layer metric it feeds (without ``_s``)."""
    from repro import pipeline, storage
    from repro.compress import compressor, tiling
    from repro.core import program
    from repro.interp import compiled, native, runtime
    from repro.minic import driver
    from repro.parsing.forest import preorder
    from repro.training import strategy

    def count_nodes(args, result):
        tracer.add("compress.nodes", sum(1 for _ in preorder(args[1])))

    tracer.wrap(driver, "compile_source", "minic.compile")
    tracer.wrap(pipeline, "build_forest", "parsing.forest")
    tracer.wrap(strategy.TrainerStrategy, "train", "training.train")
    tracer.wrap(pipeline, "attach_counts", "coding.counts")
    tracer.wrap(program.GrammarProgram, "__init__", "core.program")
    tracer.wrap(compressor, "parse_blocks", "parsing.blocks")
    tracer.wrap(tiling.Tiler, "tile", "compress.tile", after=count_nodes)
    tracer.wrap(compressor, "encode_tree", "parsing.encode")
    tracer.wrap(storage, "save_compressed", "coding.encode")
    tracer.wrap(storage, "load_compressed", "storage.load")
    tracer.wrap(storage, "decode_module_streams", "coding.decode")
    tracer.wrap(compiled.CompiledEngine, "__init__", "interp.tables")
    tracer.wrap(runtime.Machine, "run", "interp.dispatch")
    tracer.wrap(native.NativeEngine, "__init__", "interp.native_open")
    tracer.wrap(native.NativeEngine, "run", "interp.native_run")
