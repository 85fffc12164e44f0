"""Workload ``build``: the offline toolchain.

Train a grammar on a seeded gcc-like corpus with the default strategy,
then compress a held-out set for the first time (a fresh ``Compressor``
per module) and write each as RCX2.  Repeated until ``--seconds`` of
measured work; training and the tiler do almost all of it.  The engines,
the load path and the service stay idle in the measured loop.

Outside the measured loop, every container is checked: it decompresses
to the original module and reloads to the same compressed module.

Then the host phase: the benchmark acts as a long-lived host running
the shipped containers.  Each op starts from a container's bytes with a
fresh ``load_compressed`` and runs one held-out generated module
(``start_*``: load, ``GrammarProgram``, table flattening and native
open dominate) or 8q (``exec_*``: dispatch dominates on the compiled
engine) to completion on one engine, checked against an
``Interpreter1`` reference.  Every container embeds the same grammar,
as in the paper's one-interpreter-per-grammar deployment; a change that
caches across loads must say that it relies on this.
"""

from __future__ import annotations

from typing import Dict, List

from common import (
    PROBE_SHARE, Context, Host, band_notes, clock_gc, coded_bytes,
    drive_engines, drive_engines_apart, engine_metrics, exec_counts,
    gc_ms_per_op, median, now,
    paced_runs, pct, peak_rss_mb, probe_cycle, reference_run, settle,
    timed_op,
)
from inputs import (
    SCALES, compile_all, corpus_source, generated, handwritten,
)
from spans import Tracer, install_program_spans


class Iteration:
    def __init__(self, train_window, grammar) -> None:
        self.train_window = train_window
        #: the trained grammar; kept for the first iteration only, so
        #: that what the benchmark holds does not grow the heap the
        #: program's collections walk from one iteration to the next
        self.grammar = grammar
        self.rules = grammar.total_rules()
        self.windows: Dict[str, tuple] = {}
        #: op times at the nominal machine speed, set once the phase is
        #: over (see _pace)
        self.train_s = 0.0
        self.op_s: Dict[str, float] = {}
        self.containers: Dict[str, bytes] = {}
        self.cmods: Dict[str, object] = {}


def _build_one(grammar, module):
    """First-time compress with a fresh ``Compressor``, then RCX2."""
    from repro import storage
    from repro.compress import compressor
    cmod = compressor.Compressor(grammar).compress_module(module)
    return cmod, storage.save_compressed(cmod, format="rcx2")


def _measure(ctx: Context, corpus, heldout, seconds: float,
             keep_cmods: bool) -> List[Iteration]:
    from repro import pipeline
    res = ctx.result
    iterations: List[Iteration] = []
    res.pace.sample()
    stop_at = now() + seconds
    while now() < stop_at or not iterations:
        _, (grammar, _) = timed_op(res, pipeline.train_grammar, [corpus])
        it = Iteration(res.op_windows[-1], grammar)
        for name, module in heldout.items():
            _, (cmod, data) = timed_op(res, _build_one, grammar, module)
            it.windows[name] = res.op_windows[-1]
            it.containers[name] = data
            if keep_cmods and not iterations:
                it.cmods[name] = cmod
        if iterations:
            it.grammar = None
        iterations.append(it)
    res.pace.sample()
    for it in iterations:
        it.train_s = res.pace.seconds(*it.train_window)
        it.op_s = {name: res.pace.seconds(*w)
                   for name, w in it.windows.items()}
    return iterations


def _check(ctx: Context, first: Iteration, runs: List[Iteration],
           heldout) -> None:
    """Every op's output: the first iteration's containers are checked
    in full, every later one (traced ones too) must equal them byte for
    byte."""
    from repro.compress.decompress import decompress_module
    from repro.parsing.forest import preorder
    from repro.parsing.stackparser import parse_blocks
    from repro.storage import load_compressed, save_compressed, save_module
    res = ctx.result
    original = coded = rcx1 = nodes = 0
    for name, module in heldout.items():
        cmod = first.cmods[name]
        data = first.containers[name]
        res.check(f"decompress:{name}",
                  save_module(decompress_module(cmod)) ==
                  save_module(module), "decompressed module differs")
        res.check(f"reload:{name}",
                  save_compressed(load_compressed(data)) ==
                  save_compressed(cmod), "reloaded RCX2 differs")
        res.fingerprint(f"rcx2:{name}", data)
        original += module.code_bytes
        rcx1 += cmod.code_bytes
        coded += coded_bytes(cmod)
        nodes += sum(sum(1 for _ in preorder(block.tree))
                     for proc in module.procedures
                     for block in parse_blocks(first.grammar, proc.code))
    for it in runs[1:]:
        for name in heldout:
            res.check(f"repeat:{name}",
                      it.containers[name] == first.containers[name],
                      "container differs from the first iteration's")
    res.e2e["code_ratio"] = rcx1 / original
    res.e2e["rcx2_ratio"] = coded / original
    det = res.deterministic
    det["code_ratio"] = res.e2e["code_ratio"]
    det["rcx2_ratio"] = res.e2e["rcx2_ratio"]
    det["training.rules"] = first.grammar.total_rules()
    det["compress.nodes"] = nodes
    if len({it.rules for it in runs}) != 1:
        res.errors.append("training.rules differs between iterations")


def run(ctx: Context) -> None:
    from repro.core.program import GrammarProgram
    from repro.interp.nativebuild import NativeBuildCache
    sc = SCALES[ctx.scale]
    res = ctx.result
    sources = ([("corpus", corpus_source(ctx.seed, sc["build_corpus"]))]
               + generated(ctx.seed, "heldout", sc["heldout"],
                           sc["heldout_funcs"])
               + handwritten())
    tracer = Tracer() if ctx.trace else None

    # Set-up: the mini-C front end compiles every input from source.
    if tracer:
        install_program_spans(tracer)
    setups = paced_runs(res, lambda: compile_all(sources),
                        1 if ctx.trace else sc["build_setup_reps"])
    setup_s = [seconds for seconds, _ in setups]
    modules = setups[-1][1]
    if tracer:
        tracer.restore()
    ctx.mark("setup")
    corpus = modules.pop("corpus")
    heldout = modules
    short = [n for n in heldout if n.startswith("heldout")]
    refs = {n: reference_run(heldout[n]) for n in short + ["8q"]}

    stop_gc = clock_gc(res) if tracer else None
    settle()
    if tracer:
        runs = _measure(ctx, corpus, heldout, ctx.seconds / 2, True)
        untraced_ops = len(res.op_windows)
        install_program_spans(tracer)
        settle()
        traced = _measure(ctx, corpus, heldout, ctx.seconds / 2, False)
        tracer.restore()
        stop_gc()
        traced_ops = slice(untraced_ops, len(res.op_windows))
    else:
        runs = _measure(ctx, corpus, heldout, ctx.seconds, True)
        traced = []
    ctx.mark("loop")
    first = runs[0]
    _check(ctx, first, runs + traced, heldout)
    ctx.mark("check")

    # The host phase: the shipped containers run on both engines
    # (checks + start/exec), a seeded cycle repeated for a share of
    # --seconds on top of the measured loop, in a fresh host process
    # (one traced cycle in this process in a traced run, which reports
    # no end-to-end metrics).
    cycle = probe_cycle(ctx.seed, "build-probe", short, "8q")
    if tracer:
        host = Host(NativeBuildCache(root=ctx.fresh_dir("native")))
        host.build_native(first.containers["8q"])
        install_program_spans(tracer)
        builds0 = sum(GrammarProgram.constructions.values())
        compilations0 = host.native_cache.compilations
        probe_first = len(res.op_windows)
        settle()
        times = drive_engines(ctx, host, first.containers, refs, cycle, 0)
        tracer.restore()
        probe_ops = len(res.op_windows) - probe_first
        builds = sum(GrammarProgram.constructions.values()) - builds0
        compilations = host.native_cache.compilations - compilations0
    else:
        times = drive_engines_apart(ctx, first.containers, refs, cycle,
                                    ctx.seconds * PROBE_SHARE, "8q")
    ctx.mark("probe")

    op_ms = [s * 1e3 for it in runs for s in it.op_s.values()]
    orig_kb = sum(m.code_bytes for m in heldout.values()) / 1024.0
    e2e = res.e2e
    e2e["setup_s"] = median(setup_s)
    e2e["train_s"] = median([it.train_s for it in runs])
    e2e["compress_kb_s"] = median(
        [orig_kb / sum(it.op_s.values()) for it in runs])
    e2e["req_per_s"] = len(op_ms) / (sum(op_ms) / 1e3)
    e2e["req_p50_ms"] = pct(op_ms, 50)
    e2e["req_p90_ms"] = pct(op_ms, 90)
    e2e.update(engine_metrics(times))
    e2e["peak_rss_mb"] = peak_rss_mb()
    res.notes["bands"] = band_notes(times)
    res.notes["pace"] = res.pace.notes()
    res.notes["train_s"] = [it.train_s for it in runs]

    if tracer:
        base = median([it.train_s + sum(it.op_s.values()) for it in runs])
        with_spans = median([it.train_s + sum(it.op_s.values())
                             for it in traced])
        layers = tracer.layer_metrics(
            res.op_windows[traced_ops] + res.op_windows[probe_first:],
            with_spans / base - 1.0)
        layers["compress.nodes"] = layers.get("compress.nodes", 0) / \
            len(traced)
        layers["core.program_builds"] = builds / probe_ops
        layers["interp.native_compilations"] = compilations
        res.layers.update(layers)
        res.layers["training.rules"] = first.grammar.total_rules()
        res.layers["python.gc_ms"] = gc_ms_per_op(res,
                                                  slice(0, untraced_ops))
        res.layers.update(exec_counts(res))
        res.spans = tracer.spans
