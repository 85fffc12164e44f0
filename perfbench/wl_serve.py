"""Workload ``serve``: the compression service under closed-loop load.

Set-up trains the grammar, puts it in a private registry, starts
``repro serve`` as its own process with default flags (single-process
front door, sandboxed native execution, native engine built into a
private cache) and warms it with one request of each kind.  It runs
several times; each server but the last is stopped again.

One load-generator process (this one) drives 2 closed-loop connections:
each sends its next request only after the previous reply.  Each
connection follows its own seeded shuffle of a fixed block of request
kinds (:data:`BLOCK`):

* ``cold``: ``compress`` of a module never sent before (the write path,
  through the tiler);
* ``hot``: ``compress`` of a small repeated set (the derivation cache);
* ``run``: ``run_compressed`` with ``engine: native`` (the read path,
  through the sandbox);
* ``decompress``;
* ``impatient``: ``compress`` of a fresh module with a total deadline
  well below its cold compress time and a seeded ``RetryPolicy(4)``.  A
  ``timeout`` reply is the expected outcome; the abandoned work still
  costs the server.

Replies are stored and checked after the load stops: compress replies
must decompress to the module sent, run replies must equal the
``Interpreter1`` reference, decompress replies the original module.
Before the load, local engine runs of a seeded sample give this
workload's ``start_*`` and ``exec_*`` figures (see :func:`_probe`).
"""

from __future__ import annotations

import os
import random
import re
import signal
import subprocess
import sys
import threading
from typing import Dict, List, Optional

from common import (
    PROBE_SHARE, SRC, Context, Host, band_notes, clock_gc, coded_bytes,
    drive_engines, drive_engines_apart, engine_metrics, exec_counts,
    gc_ms_per_op, median, now,
    paced_runs, pct, peak_rss_mb, probe_cycle, reference_run, seed_for,
    settle,
)
from inputs import (
    SCALES, compile_all, generated, handwritten, host_corpus_source,
)
from spans import Tracer

#: request kinds per block of 20.  The kinds' latencies overlap widely
#: (a request often waits for the other connection's), so p50 falls
#: where run, cold and hot requests mix and p90 where cold, run,
#: decompress and hot do; no percentile sits on a gap between kinds
#: (measured bands: WORKLOADS.md).
BLOCK = {"hot": 5, "run": 8, "cold": 5, "decompress": 1, "impatient": 1}
CONNECTIONS = 2
#: total client deadline of an impatient request, seconds
IMPATIENT_DEADLINE = 0.02
#: seconds of load between two pace samples
WINDOW = 2.0
EXEC = "8q"


class Server:
    """One ``repro serve`` process with its private registry and cache."""

    def __init__(self, ctx: Context, registry_dir) -> None:
        self.log = ctx.fresh_dir("server") / "server.log"
        env = dict(os.environ, PYTHONPATH=str(SRC),
                   REPRO_NATIVE_CACHE=str(ctx.fresh_dir("native")))
        with open(self.log, "wb") as out:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve",
                 "-d", str(registry_dir), "--port", "0"],
                stdout=out, stderr=subprocess.STDOUT, env=env,
                cwd=str(ctx.work))
        self.port = self._wait_port()

    def _wait_port(self, timeout: float = 60.0) -> int:
        deadline = now() + timeout
        while now() < deadline:
            found = re.search(rb"repro service on [\d.]+:(\d+)",
                              self.log.read_bytes())
            if found:
                return int(found.group(1))
            if self.proc.poll() is not None:
                break
            threading.Event().wait(0.01)
        self.stop()
        raise RuntimeError("server did not start: "
                           + self.log.read_text(errors="replace")[-2000:])

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


class Inputs:
    """Everything sent to the server, prepared before set-up."""

    def __init__(self, ctx: Context, sc: Dict[str, int]) -> None:
        from repro.storage import save_module
        self.corpus_source = host_corpus_source(sc["host_corpus"])
        self._seed = ctx.seed
        self._funcs = sc["short_funcs"]
        cold = compile_all(generated(ctx.seed, "cold", sc["cold"],
                                     sc["short_funcs"]))
        hot = compile_all(generated(ctx.seed, "hot", sc["hot"],
                                    sc["short_funcs"])
                          + [s for s in handwritten() if s[0] == EXEC])
        short = compile_all(generated(ctx.seed, "short", sc["short"],
                                      sc["short_funcs"]))
        warm = compile_all(generated(ctx.seed, "warm", 1,
                                     sc["short_funcs"]))
        self.modules = {**cold, **hot, **short, **warm}
        self.data = {name: save_module(m) for name, m in self.modules.items()}
        self.cold = list(cold)
        self.hot = list(hot)
        self.short = list(short)
        self.warm = list(warm)[0]
        #: the shipped RCX2 containers run and decompressed, by name
        self.containers: Dict[str, bytes] = {}
        self.refs = {name: reference_run(self.modules[name])
                     for name in self.short + [EXEC, self.warm]}
        self._next_cold = 0
        self.on_demand = 0
        self._lock = threading.Lock()

    def take_cold(self) -> str:
        """The next module never sent before.  Past the prepared pool
        (a much faster server) more are compiled on demand, in the load
        generator, and counted in the run's notes."""
        from repro.storage import save_module
        with self._lock:
            index = self._next_cold
            self._next_cold += 1
            if index < len(self.cold):
                return self.cold[index]
            from repro.corpus import generate_program
            from repro.minic import driver
            name = f"cold{index}"
            self.modules[name] = driver.compile_source(generate_program(
                self._funcs, seed_for(self._seed, "cold", index)))
            self.data[name] = save_module(self.modules[name])
            self.cold.append(name)
            self.on_demand += 1
            return name


class Setup:
    def __init__(self, train_window, server, grammar) -> None:
        self.train_window = train_window
        #: the whole set-up's window, set by the caller
        self.window = (0.0, 0.0)
        self.server = server
        self.grammar = grammar


def _setup(ctx: Context, inputs: Inputs) -> Setup:
    from repro import pipeline
    from repro.registry import GrammarRegistry
    from repro.service import ServiceClient
    from repro.storage import save_compressed, save_grammar
    from repro.compress.compressor import Compressor
    corpus = compile_all([("corpus", inputs.corpus_source)])["corpus"]
    t0 = now()
    grammar, _ = pipeline.train_grammar([corpus])
    train_window = (t0, now())
    registry_dir = ctx.fresh_dir("registry")
    GrammarRegistry(registry_dir).put_bytes(save_grammar(grammar),
                                            tags=["bench"])
    server = Server(ctx, registry_dir)
    try:
        warm_data = save_compressed(
            Compressor(grammar).compress_module(
                inputs.modules[inputs.warm]), format="rcx2")
        with ServiceClient(port=server.port) as client:
            client.compress(inputs.data[inputs.warm], "bench", "rcx2")
            reply = client.call("run_compressed", {
                "module": warm_data, "args": [], "engine": "native"})
            ctx.result.check(
                "warmup:run", (reply["code"], bytes(reply["output"])) ==
                tuple(inputs.refs[inputs.warm]), "warm-up run differs")
            client.decompress(warm_data)
    except Exception:
        server.stop()
        raise
    return Setup(train_window, server, grammar)


class Record:
    __slots__ = ("kind", "name", "start", "end", "outcome", "reply")

    def __init__(self, kind, name, start, end, outcome, reply) -> None:
        self.kind = kind
        self.name = name
        self.start = start
        self.end = end
        self.outcome = outcome
        self.reply = reply


def _plan(ctx: Context, conn: int) -> List[str]:
    block = [kind for kind, n in BLOCK.items() for _ in range(n)]
    random.Random(seed_for(ctx.seed, "serve-order", conn)).shuffle(block)
    return block


class Load:
    """The closed-loop load generator: one thread per connection."""

    def __init__(self, ctx: Context, inputs: Inputs, port: int) -> None:
        from repro.service import RetryPolicy, ServiceClient
        self.inputs = inputs
        self.records: List[Record] = []
        self.attempts = 0
        self.calls = 0
        self._lock = threading.Lock()
        self.plans = [_plan(ctx, c) for c in range(CONNECTIONS)]
        self.positions = [0] * CONNECTIONS
        self.rngs = [random.Random(seed_for(ctx.seed, "pick", c))
                     for c in range(CONNECTIONS)]
        self.clients = []
        for c in range(CONNECTIONS):
            policy = RetryPolicy(4, rng=random.Random(
                seed_for(ctx.seed, "retry", c)))
            client = ServiceClient(port=port, timeout=120, retry=policy)
            client._call_once = self._counting(client._call_once)
            self.clients.append(client)

    def _counting(self, call_once):
        def counted(*args, **kwargs):
            with self._lock:
                self.attempts += 1
            return call_once(*args, **kwargs)
        return counted

    def close(self) -> None:
        for client in self.clients:
            client.close()

    def _one(self, conn: int, kind: str, tracer: Optional[Tracer]) -> Record:
        from repro.service import ServiceError
        inputs = self.inputs
        client = self.clients[conn]
        rng = self.rngs[conn]
        if kind in ("cold", "impatient"):
            name = inputs.take_cold()
            method, params = "compress", {"module": inputs.data[name],
                                          "grammar": "bench",
                                          "format": "rcx2"}
        elif kind == "hot":
            name = rng.choice(inputs.hot)
            method, params = "compress", {"module": inputs.data[name],
                                          "grammar": "bench",
                                          "format": "rcx2"}
        elif kind == "run":
            name = rng.choice(inputs.short)
            method, params = "run_compressed", {
                "module": inputs.containers[name], "args": [],
                "engine": "native"}
        else:
            name = rng.choice(inputs.short)
            method, params = "decompress", {
                "module": inputs.containers[name]}
        deadline = IMPATIENT_DEADLINE if kind == "impatient" else None
        span = tracer.begin(f"client.{kind}") if tracer else None
        start = now()
        try:
            reply = client.call(method, params, deadline=deadline)
            outcome = "ok"
        except ServiceError as exc:
            reply, outcome = None, exc.code
        end = now()
        if tracer:
            tracer.end(span)
        with self._lock:
            self.calls += 1
        return Record(kind, name, start, end, outcome, reply)

    def drive(self, seconds: float, tracer: Optional[Tracer] = None
              ) -> List[Record]:
        records: List[Record] = []
        stop_at = now() + seconds
        errors: List[BaseException] = []

        def loop(conn: int) -> None:
            plan = self.plans[conn]
            try:
                while now() < stop_at:
                    kind = plan[self.positions[conn] % len(plan)]
                    self.positions[conn] += 1
                    record = self._one(conn, kind, tracer)
                    with self._lock:
                        records.append(record)
            except BaseException as exc:  # surfaced after the join
                errors.append(exc)

        # daemon: a terminated run must not wait out the load window
        threads = [threading.Thread(target=loop, args=(c,), daemon=True)
                   for c in range(CONNECTIONS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            raise errors[0]
        self.records.extend(records)
        return records


def _drive_paced(load: Load, pace, seconds: float,
                 tracer: Optional[Tracer] = None):
    """Drive the load for ``seconds`` in windows of :data:`WINDOW`
    seconds, with a pace sample between two windows (no request is in
    flight while the kernel runs).  Returns the records and the
    windows' ``(start, end)``."""
    records: List[Record] = []
    windows = []
    pace.sample()
    stop_at = now() + seconds
    while now() < stop_at:
        start = now()
        got = load.drive(min(WINDOW, stop_at - start), tracer)
        records += got
        windows.append((start, max([r.end for r in got], default=now())))
        pace.sample()
    return records, windows


def _stats_delta(before: dict, after: dict) -> Dict[str, float]:
    """Server-side per-layer figures between two ``stats`` snapshots."""
    def grammar_sum(snap, *path):
        total = 0
        for g in snap["grammars"].values():
            value = g
            for key in path:
                value = value.get(key, 0) if isinstance(value, dict) else 0
            total += value
        return total

    def compress_requests(snap, outcome=None):
        return sum(n for key, n in
                   snap["counters"]["requests_total"].items()
                   if key.startswith("compress|")
                   and (outcome is None or key == f"compress|{outcome}"))

    def diff(fn, *args):
        return fn(after, *args) - fn(before, *args)

    hits = diff(grammar_sum, "derivation_cache", "hits")
    misses = diff(grammar_sum, "derivation_cache", "misses")
    batches = after["histograms"]["batch_size"]
    batches0 = before["histograms"]["batch_size"]
    return {
        "service.jobs_per_compress":
            diff(grammar_sum, "jobs") / max(diff(compress_requests), 1),
        "service.cache_hit_rate": hits / max(hits + misses, 1),
        "service.batch_mean": (batches["sum"] - batches0["sum"])
            / max(batches["count"] - batches0["count"], 1),
        "service.timeouts": diff(compress_requests, "timeout"),
        "interp.sandbox_spawns":
            after["engine"].get("sandbox", {}).get("spawns", 0),
    }


def _check(ctx: Context, inputs: Inputs,
           records: List[Record]) -> Dict[str, tuple]:
    """Check every reply; identical replies are verified once.  Returns
    ``(original, rcx1, coded)`` byte counts of each cold reply.

    Replies embedding grammars with one content key are decoded under
    one loaded instance of it, so the checker builds decode tables once
    rather than once per reply."""
    from repro.compress.decompress import decompress_module
    from repro.core.program import program_for
    from repro.storage import load_compressed, save_module
    res = ctx.result
    verified: Dict[tuple, bool] = {}
    grammars: Dict[str, object] = {}
    sizes: Dict[str, tuple] = {}
    for rec in records:
        op = f"{rec.kind}:{rec.name}"
        if rec.outcome != "ok":
            res.check(op, rec.kind == "impatient"
                      and rec.outcome == "timeout",
                      f"error reply {rec.outcome!r}")
            continue
        if rec.kind in ("cold", "hot", "impatient"):
            data = bytes(rec.reply["data"])
            key = (rec.name, data)
            if key not in verified:
                cmod = load_compressed(data)
                cmod.grammar = grammars.setdefault(
                    program_for(cmod.grammar).content_key, cmod.grammar)
                verified[key] = save_module(decompress_module(cmod)) == \
                    inputs.data[rec.name]
                if rec.kind == "cold":
                    sizes[rec.name] = (inputs.modules[rec.name].code_bytes,
                                       cmod.code_bytes, coded_bytes(cmod))
            res.check(op, verified[key], "reply does not decompress to "
                      "the module sent")
        elif rec.kind == "run":
            got = (rec.reply["code"], bytes(rec.reply["output"]))
            res.check(op, got == tuple(inputs.refs[rec.name]),
                      f"run reply {got!r}")
        else:
            res.check(op, bytes(rec.reply["data"]) ==
                      inputs.data[rec.name], "decompress reply differs")
    return sizes


def _probe(ctx: Context, inputs: Inputs, grammar, sc):
    """The check phase: local engine runs of a fixed seeded sample (the
    first cold modules) and of 8q, compressed here with the served
    grammar, give this workload's start/exec figures.  They run in a
    fresh host process, before the load, while the server idles.
    Returns the containers and the latency lists."""
    from repro.compress.compressor import Compressor
    from repro.interp.nativebuild import NativeBuildCache
    from repro.storage import save_compressed
    res = ctx.result
    sample = inputs.cold[:sc["short"]]
    probed: Dict[str, bytes] = {}
    for name in sample + [EXEC]:
        probed[name] = save_compressed(
            Compressor(grammar).compress_module(inputs.modules[name]),
            format="rcx2")
        res.fingerprint(f"rcx2:{name}", probed[name])
        if name not in inputs.refs:
            inputs.refs[name] = reference_run(inputs.modules[name])
    # A seeded cycle, repeated for a share of --seconds in a fresh host
    # process (one cycle in this process in a traced run, which reports
    # no end-to-end metrics).
    cycle = probe_cycle(ctx.seed, "serve-probe", sample, EXEC)
    if not ctx.trace:
        return probed, drive_engines_apart(
            ctx, probed, inputs.refs, cycle, ctx.seconds * PROBE_SHARE, EXEC)
    host = Host(NativeBuildCache(root=ctx.fresh_dir("native")))
    host.build_native(probed[EXEC])
    stop_gc = clock_gc(res)
    settle()
    times = drive_engines(ctx, host, probed, inputs.refs, cycle, 0)
    stop_gc()
    return probed, times


def run(ctx: Context) -> None:
    from repro.compress.compressor import Compressor
    from repro.service import ServiceClient
    from repro.storage import save_compressed, save_grammar
    sc = SCALES[ctx.scale]
    res = ctx.result
    inputs = Inputs(ctx, sc)
    ctx.mark("inputs")

    # Trainings of the shipped grammar's corpus on top of the set-ups':
    # train_s is the median over all of them.
    from repro import pipeline
    pace = res.pace
    corpus = compile_all([("corpus", inputs.corpus_source)])["corpus"]
    trains = paced_runs(res, lambda: pipeline.train_grammar([corpus]),
                        0 if ctx.trace else sc["toolchain_reps"])
    grammars = {save_grammar(grammar) for _, (grammar, _) in trains}
    train_s = [seconds for seconds, _ in trains]
    del trains
    setups: List[Setup] = []
    try:
        pace.sample()
        for _ in range(1 if ctx.trace else sc["setup_reps"]):
            if setups:
                setups[-1].server.stop()
            start = now()
            setups.append(_setup(ctx, inputs))
            setups[-1].window = (start, now())
            pace.sample()
        setup = setups[-1]
        grammar = setup.grammar
        for data in grammars:
            res.check("retrain", data == save_grammar(grammar),
                      "training again gave another grammar")
        for name in inputs.short:
            inputs.containers[name] = save_compressed(
                Compressor(grammar).compress_module(inputs.modules[name]),
                format="rcx2")
        ctx.mark("setup")
        probed, times = _probe(ctx, inputs, grammar, sc)
        ctx.mark("probe")
        load = Load(ctx, inputs, setup.server.port)
        try:
            with ServiceClient(port=setup.server.port) as admin:
                half = ctx.seconds / 2 if ctx.trace else ctx.seconds
                settle()
                records, windows = _drive_paced(load, pace, half)
                if ctx.trace:
                    tracer = Tracer()
                    stats1 = admin.stats()
                    attempts0, calls0 = load.attempts, load.calls
                    settle()
                    traced, traced_windows = _drive_paced(load, pace, half,
                                                          tracer)
                    stats2 = admin.stats()
                rss = peak_rss_mb(setup.server.proc.pid)
        finally:
            load.close()
    finally:
        for s in setups:
            s.server.stop()

    ctx.mark("load")
    sizes = _check(ctx, inputs, load.records)
    ctx.mark("check")

    def ms(r: Record) -> float:
        """A request's latency at the nominal machine speed."""
        return pace.seconds(r.start, r.end) * 1e3

    ok = [r for r in records if r.outcome == "ok"]
    ok_ms = [ms(r) for r in ok]
    cold = [r for r in ok if r.kind == "cold"]
    e2e = res.e2e
    e2e["setup_s"] = median([pace.seconds(*s.window) for s in setups])
    e2e["train_s"] = median([pace.seconds(*s.train_window) for s in setups]
                            + train_s)
    e2e["compress_kb_s"] = (
        sum(inputs.modules[r.name].code_bytes for r in cold) / 1024.0
        / sum(ms(r) / 1e3 for r in cold))
    e2e["req_per_s"] = len(ok) / sum(pace.seconds(*w) for w in windows)
    e2e["req_p50_ms"] = pct(ok_ms, 50)
    e2e["req_p90_ms"] = pct(ok_ms, 90)
    e2e["peak_rss_mb"] = rss
    by_kind = {kind: [ms(r) for r in ok if r.kind == kind]
               for kind in BLOCK if kind != "impatient"}
    res.notes["bands"] = band_notes(by_kind)
    res.notes["sent"] = {kind: sum(1 for r in records if r.kind == kind)
                         for kind in BLOCK}
    res.notes["cold_used"] = inputs._next_cold
    res.notes["cold_compiled_on_demand"] = inputs.on_demand

    # Ratios over the cold replies.
    cold_sizes = [sizes[r.name] for r in cold]
    e2e["code_ratio"] = sum(s[1] for s in cold_sizes) / \
        sum(s[0] for s in cold_sizes)
    e2e["rcx2_ratio"] = sum(s[2] for s in cold_sizes) / \
        sum(s[0] for s in cold_sizes)
    # A server reply must equal the local compress of the module the
    # check phase ran.
    replies = {r.name: bytes(r.reply["data"]) for r in ok
               if r.kind in ("cold", "hot")}
    for name, local in probed.items():
        if name in replies:
            res.check(f"reply_is_local:{name}", replies[name] == local,
                      "server reply differs from the local compress")
    e2e.update(engine_metrics(times))
    res.notes["probe_bands"] = band_notes(times)
    res.notes["pace"] = pace.notes()
    res.deterministic["training.rules"] = grammar.total_rules()

    if ctx.trace:
        traced_ms: Dict[str, List[float]] = {}
        for r in traced:
            if r.outcome == "ok":
                traced_ms.setdefault(r.kind, []).append(ms(r))
        base = median(ok_ms)
        with_spans = median([ms(r) for r in traced if r.outcome == "ok"])
        layers = tracer.layer_metrics(traced_windows, with_spans / base - 1.0)
        layers = {k: v for k, v in layers.items()
                  if k.startswith("trace.")}
        layers.update(_stats_delta(stats1, stats2))
        for kind, name in (("cold", "compress_cold"), ("hot", "compress_hot"),
                           ("run", "run"), ("decompress", "decompress")):
            layers[f"service.{name}_ms"] = median(traced_ms.get(kind, []))
        layers["client.retries"] = (load.attempts - attempts0) - \
            (load.calls - calls0)
        layers["training.rules"] = grammar.total_rules()
        layers["python.gc_ms"] = gc_ms_per_op(res, slice(None))
        res.layers.update(layers)
        res.layers.update(exec_counts(res))
        res.spans = tracer.spans
