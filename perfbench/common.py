"""Shared pieces of the benchmark: statistics, the run context, the
result record, the environment record and the local engine host.

Everything here runs inside one benchmark process.  The program under
test is imported from ``<checkout>/src``; the benchmark never edits it.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import pickle
import platform
import random
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
#: scratch space of one run (native build caches, registries, TMPDIR);
#: removed when the run ends
WORK_ROOT = ROOT / ".perfbench_work"
#: what runs leave behind on purpose: result records with their spans,
#: and the per-seed record of deterministic counts
OUT_DIR = ROOT / ".perfbench_out"
STATE_PATH = OUT_DIR / "determinism.json"

now = time.perf_counter
#: the check-phase engine runs of ``build`` and ``serve`` last this share
#: of ``--seconds``, on top of the measured loop
PROBE_SHARE = 0.5
#: time of one reference kernel call (``pace.py``) at the nominal machine
#: speed, ms.  Every timing metric is reported at this speed (see
#: :class:`Pace`).
PACE_NOMINAL_MS = 20.0
#: seconds between two pace samples in a timed phase
PACE_EVERY = 0.5
#: pace samples taken within this many seconds of an op's window set the
#: machine speed for that op
PACE_MARGIN = 1.5


# -- statistics --------------------------------------------------------------

def pct(values: Sequence[float], q: float) -> float:
    """Percentile ``q`` (0..100) with linear interpolation between
    closest ranks; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return pct(values, 50)


def seed_for(seed: int, stream: str, index: int = 0) -> int:
    """The seed of one input stream, derived from the one ``--seed``:
    the first 8 bytes of SHA-256 over ``"<seed>:<stream>:<index>"``."""
    digest = hashlib.sha256(f"{seed}:{stream}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") & 0x7FFFFFFF


# -- the machine's pace ------------------------------------------------------

class Pace:
    """How fast the machine runs through one run.

    The host is shared: the same op takes up to 1.5x longer in a slow
    second than in a quick one.  So in every
    timed phase, at most every :data:`PACE_EVERY` seconds between two
    ops, the benchmark has the reference kernel of ``pace.py`` timed in
    its helper process, and reports each op's time scaled by
    ``PACE_NOMINAL_MS / kernel ms``, the kernel's median over the
    samples within :data:`PACE_MARGIN` seconds of the op.  A change to
    the program moves the scaled times exactly as it moves the wall
    times; a slow period of the host moves the scaled times far less.
    The helper is started at the first sample and stopped by
    :meth:`close`."""

    def __init__(self) -> None:
        #: (time, kernel ms) of every sample
        self.samples: List[Tuple[float, float]] = []
        self._last = float("-inf")
        self._proc: Optional[subprocess.Popen] = None

    def _start(self) -> subprocess.Popen:
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("pace.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self._proc = proc
        if proc.stdout.readline().strip() != "ready":
            raise RuntimeError("pace helper did not start")
        return proc

    def sample(self) -> None:
        proc = self._proc or self._start()
        proc.stdin.write("\n")
        proc.stdin.flush()
        ms = float(proc.stdout.readline())
        self._last = now()
        self.samples.append((self._last, ms))

    def maybe(self) -> None:
        """Sample if the last sample is :data:`PACE_EVERY` seconds old."""
        if now() - self._last >= PACE_EVERY:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """Nominal over measured kernel time around ``[start, end]``:
        below 1 in a slow period.  Falls back to the two samples
        nearest the window when fewer lie within the margin."""
        if not self.samples:
            raise RuntimeError("no pace sample taken")
        near = [ms for t, ms in self.samples
                if start - PACE_MARGIN <= t <= end + PACE_MARGIN]
        if len(near) < 2:
            mid = (start + end) / 2
            near = [ms for _, ms in sorted(
                self.samples, key=lambda s: abs(s[0] - mid))[:2]]
        return PACE_NOMINAL_MS / median(near)

    def seconds(self, start: float, end: float) -> float:
        """The window's length at the nominal machine speed."""
        return (end - start) * self.factor(start, end)

    def notes(self) -> Dict[str, float]:
        ms = [m for _, m in self.samples]
        return {"samples": len(ms), "nominal_ms": PACE_NOMINAL_MS,
                "p10_ms": pct(ms, 10), "p50_ms": pct(ms, 50),
                "p90_ms": pct(ms, 90)}

    def close(self) -> None:
        proc, self._proc = self._proc, None
        if proc is None:
            return
        proc.stdin.close()
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()


# -- the run -----------------------------------------------------------------

class Context:
    """One benchmark run: its arguments, scale, private work directory
    and the result being filled in."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool, scale: str) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.scale = scale
        self.work = WORK_ROOT / f"{workload}-{seed}-{int(trace)}-{os.getpid()}"
        self.result = Result(workload)
        self._dirs = 0
        self._mark = now()

    def mark(self, phase: str) -> None:
        """Record the wall time since the previous mark as ``phase`` in
        the run's notes (where a run's time goes, for tuning)."""
        t = now()
        phases = self.result.notes.setdefault("phase_s", {})
        phases[phase] = phases.get(phase, 0.0) + t - self._mark
        self._mark = t

    def fresh_dir(self, label: str) -> Path:
        """A new empty directory inside this run's work directory."""
        self._dirs += 1
        path = self.work / f"{label}{self._dirs}"
        path.mkdir(parents=True)
        return path

    def open(self) -> None:
        if self.work.exists():
            shutil.rmtree(self.work)
        tmp = self.work / "tmp"
        tmp.mkdir(parents=True)
        # Compilers, tempfile and the server child all write here, never
        # to the system temporary directory.
        os.environ["TMPDIR"] = str(tmp)
        import tempfile
        tempfile.tempdir = None
        os.environ["REPRO_NATIVE_CACHE"] = str(self.fresh_dir("native"))

    def close(self) -> None:
        self.result.pace.close()
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


class Result:
    """Metrics, op outcomes, deterministic counts and the fingerprint of
    one run."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.e2e: Dict[str, float] = {}
        self.layers: Dict[str, float] = {}
        self.attempted = 0
        self.failures: List[Dict[str, str]] = []
        #: counts that must repeat exactly for the same seed
        self.deterministic: Dict[str, float] = {}
        self.errors: List[str] = []
        #: every timed op's (start, end) window and the collector pause
        #: time inside it, ms (see timed_op; pauses are only clocked in
        #: a traced run)
        self.op_windows: List[Tuple[float, float]] = []
        self.op_gc_ms: List[float] = []
        #: collector pause time so far, seconds (see clock_gc)
        self.gc_s = 0.0
        self._gc_start = 0.0
        self.spans: list = []
        self.pace = Pace()
        #: anything else worth keeping in the run's record
        self.notes: Dict[str, object] = {}
        #: artefact label -> SHA-256 of its bytes
        self._artefacts: Dict[str, str] = {}

    def check(self, op: str, ok: bool, detail: str = "") -> bool:
        """Count one op; record it as failed unless ``ok``."""
        self.attempted += 1
        if not ok:
            self.failures.append({"workload": self.workload, "op": op,
                                  "detail": detail[:300]})
        return ok

    def fingerprint(self, label: str, data: bytes) -> None:
        """Record one produced artefact (a container, an output).  An
        artefact produced again must have the same bytes."""
        digest = hashlib.sha256(data).hexdigest()
        if self._artefacts.setdefault(label, digest) != digest:
            self.errors.append(f"{label} differs between repeats")

    @property
    def digest(self) -> str:
        """SHA-256 over every artefact of the run, in label order: the
        same seed must give the same digest."""
        h = hashlib.sha256()
        for label in sorted(self._artefacts):
            h.update(f"{label}\0{self._artefacts[label]}\n".encode())
        return h.hexdigest()


def settle() -> None:
    """Before a timed phase: collect, then move every object alive now
    (inputs, earlier results) out of the collector's sight, so garbage
    collection pauses in the phase scale with the program's own
    allocations and not with what the benchmark holds."""
    gc.collect()
    gc.freeze()


def clock_gc(res: Result) -> Callable[[], None]:
    """Add every collector pause from now on to ``res.gc_s``; returns
    the function that stops the clock.  Used in traced runs only."""
    def on_gc(phase: str, info: dict) -> None:
        if phase == "start":
            res._gc_start = now()
        else:
            res.gc_s += now() - res._gc_start
    gc.callbacks.append(on_gc)
    return lambda: gc.callbacks.remove(on_gc)


def timed(fn: Callable, *args, **kwargs):
    """``(seconds, result)`` of one call."""
    start = now()
    value = fn(*args, **kwargs)
    return now() - start, value


def timed_op(res: Result, fn: Callable, *args):
    """``(seconds, result)`` of one op of a measured loop or check
    phase, wall time; its window is ``res.op_windows[-1]``, to be
    scaled with ``res.pace`` once the phase is over.  Collector pauses
    that fall inside the op stay in its time: garbage the program
    retains costs the ops that follow.  A pace sample may follow the
    op, outside its window."""
    gc_s = res.gc_s
    start = now()
    value = fn(*args)
    end = now()
    res.op_windows.append((start, end))
    res.op_gc_ms.append((res.gc_s - gc_s) * 1e3)
    res.pace.maybe()
    return end - start, value


def paced_runs(res: Result, fn: Callable, reps: int) -> list:
    """Call ``fn()`` ``reps`` times with a pace sample before each and
    after the last; returns ``(seconds at nominal speed, result)`` per
    call."""
    runs = []
    windows = []
    res.pace.sample()
    for _ in range(reps):
        start = now()
        value = fn()
        windows.append((start, now()))
        res.pace.sample()
        runs.append(value)
    return [(res.pace.seconds(*w), v) for w, v in zip(windows, runs)]


def gc_ms_per_op(res: Result, ops: slice) -> float:
    """Mean collector pause time inside the timed ops ``ops``, ms."""
    values = res.op_gc_ms[ops]
    return sum(values) / len(values) if values else 0.0


# -- environment -------------------------------------------------------------

def _first_line(cmd: List[str]) -> Optional[str]:
    # git must not look for a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=30, check=False, cwd=ROOT, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    text = out.stdout.strip()
    return text.splitlines()[0] if out.returncode == 0 and text else None


def source_digest(*roots: Path) -> str:
    """SHA-256 over every Python file under ``roots`` (default ``src/``),
    path and bytes: names the code measured when the checkout is not a
    git repository."""
    h = hashlib.sha256()
    for root in roots or (SRC,):
        for path in sorted(root.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def env_record(seed: int) -> Dict[str, object]:
    from repro.interp.nativebuild import find_compiler
    cc = find_compiler()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cc": _first_line([cc, "--version"]) if cc else None,
        "git_commit": _first_line(["git", "rev-parse", "HEAD"]),
        "source_sha256": source_digest(),
        "seed": seed,
    }


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set size in MB: this process, or ``pid`` (read from
    ``/proc`` while it is still alive)."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# -- determinism across runs -------------------------------------------------

def check_determinism(ctx: Context) -> None:
    """Compare this run's deterministic counts with the first run of the
    same code, workload, seed and mode in this checkout; a difference is
    an error of the run, not noise."""
    code = source_digest(SRC, Path(__file__).parent)[:16]
    key = f"{code}/{ctx.workload}/{ctx.seed}/{int(ctx.trace)}/{ctx.scale}"
    OUT_DIR.mkdir(exist_ok=True)
    try:
        state = json.loads(STATE_PATH.read_text())
    except (OSError, ValueError):
        state = {}
    mine = {k: v for k, v in ctx.result.deterministic.items()}
    mine["fingerprint"] = ctx.result.digest
    previous = state.get(key)
    if previous is None:
        state[key] = mine
        tmp = STATE_PATH.with_suffix(".tmp")
        tmp.write_text(json.dumps(state, indent=1, sort_keys=True))
        os.replace(tmp, STATE_PATH)
        return
    for name, value in mine.items():
        if name in previous and previous[name] != value:
            ctx.result.errors.append(
                f"nondeterministic {name} for seed {ctx.seed}: "
                f"{previous[name]!r} before, {value!r} now")


# -- the local engine host ---------------------------------------------------

class Host:
    """Runs shipped containers the way a deployed host does: every op
    starts from the container's bytes with a fresh ``load_compressed``,
    then runs to completion on one engine.  Names are looked up on their
    modules at call time, so the traced run's wrappers see every call."""

    def __init__(self, native_cache) -> None:
        self.native_cache = native_cache

    def build_native(self, data: bytes) -> None:
        """Build (or find) the native engine for the grammar ``data``
        embeds.  The key is that of the grammar as loaded from a
        container, which is not the key of the trained grammar object."""
        from repro import storage
        self.native_cache.load(storage.load_compressed(data).grammar)

    def run(self, data: bytes, engine: str):
        """``(code, output, dispatches, instret)`` of one op."""
        from repro import storage
        from repro.interp import compiled, native, runtime
        cmod = storage.load_compressed(data)
        if engine == "compiled":
            machine = runtime.Machine(cmod, compiled.CompiledEngine(cmod))
            code = machine.run()
            return (code, bytes(machine.output), machine.dispatches,
                    machine.instret)
        run = native.NativeEngine(cmod, cache=self.native_cache).run()
        return run.code, run.output, run.dispatches, run.instret


def reference_run(module):
    """``(code, output)`` of the uncompressed module on ``Interpreter1``:
    the reference every engine result is checked against."""
    from repro.pipeline import run
    return run(module)


ENGINES = ("compiled", "native")


def engine_cycle(seed: int, stream: str, short: Sequence[str], long: str,
                 long_compiled: int, long_native: int,
                 native_starts: int = 1) -> List[Tuple[str, str, str]]:
    """A seeded cycle of engine ops ``(kind, engine, name)``: every
    short program once on the compiled and ``native_starts`` times on
    the native engine (``start``), and ``long`` ``long_compiled`` times
    on the compiled and ``long_native`` times on the native engine
    (``exec``)."""
    ops = [("start", "compiled", name) for name in short]
    ops += [("start", "native", name) for name in short] * native_starts
    ops += [("exec", "compiled", long)] * long_compiled
    ops += [("exec", "native", long)] * long_native
    random.Random(seed_for(seed, stream)).shuffle(ops)
    return ops


def probe_cycle(seed: int, stream: str, short: Sequence[str],
                long: str) -> List[Tuple[str, str, str]]:
    """The check-phase cycle of ``build`` and ``serve``: every short
    program once on the compiled and twice on the (much faster) native
    engine, ``long`` once per three short programs on the compiled
    engine and once per short program on the native one."""
    return engine_cycle(seed, stream, short, long,
                        max(1, len(short) // 3), len(short), 2)


def drive_engines(ctx: Context, host: Host, containers: Dict[str, bytes],
                  refs: Dict[str, tuple], cycle, seconds: float
                  ) -> Dict[str, List[float]]:
    """Run ``cycle`` over and over, bytes -> output, until ``seconds``
    have passed (at least one whole cycle), checking every result.
    Returns latency lists (ms at the nominal machine speed) keyed
    ``<kind>_<engine>``."""
    res = ctx.result
    windows: Dict[str, List[Tuple[float, float]]] = {}
    res.pace.sample()
    stop_at = now() + seconds
    done = 0
    while now() < stop_at or done < len(cycle):
        kind, engine, name = cycle[done % len(cycle)]
        _, got = timed_op(res, host.run, containers[name], engine)
        done += 1
        windows.setdefault(f"{kind}_{engine}", []).append(res.op_windows[-1])
        check_run(ctx, f"{kind}_{engine}:{name}", got, refs[name])
    res.pace.sample()
    return {kind: [res.pace.seconds(*w) * 1e3 for w in ws]
            for kind, ws in windows.items()}


def drive_engines_apart(ctx: Context, containers: Dict[str, bytes],
                        refs: Dict[str, tuple], cycle, seconds: float,
                        build_from: str) -> Dict[str, List[float]]:
    """:func:`drive_engines` in a fresh host process (``host.py``),
    which builds the native engine from ``containers[build_from]`` into
    a private cache first.  Every result is checked here.  The host's
    pace samples go to the run's notes as ``host_pace``."""
    work = ctx.fresh_dir("host")
    job, out = work / "job.pickle", work / "result.pickle"
    job.write_bytes(pickle.dumps({
        "src": str(SRC), "containers": containers, "cycle": cycle,
        "seconds": seconds, "build_from": build_from,
        "native_root": str(ctx.fresh_dir("native"))}))
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("host.py")),
         str(job), str(out)],
        capture_output=True, text=True, timeout=seconds + 600, check=False)
    if proc.returncode != 0:
        raise RuntimeError("host process failed: " + proc.stderr[-2000:])
    result = pickle.loads(out.read_bytes())
    times: Dict[str, List[float]] = {}
    for kind, engine, name, ms, got in result["ops"]:
        times.setdefault(f"{kind}_{engine}", []).append(ms)
        check_run(ctx, f"{kind}_{engine}:{name}", got, refs[name])
    ctx.result.notes["host_pace"] = result["pace"]
    return times


def engine_metrics(times: Dict[str, List[float]]) -> Dict[str, float]:
    """``start_*_p50_ms``/``start_*_p90_ms`` and ``exec_*_ms`` (median)
    of :func:`drive_engines` latencies."""
    out: Dict[str, float] = {}
    for engine in ENGINES:
        start = times[f"start_{engine}"]
        out[f"start_{engine}_p50_ms"] = pct(start, 50)
        out[f"start_{engine}_p90_ms"] = pct(start, 90)
        out[f"exec_{engine}_ms"] = median(times[f"exec_{engine}"])
    return out


def band_notes(times: Dict[str, List[float]]) -> Dict[str, object]:
    """Where the overall p50 and p90 of ``times`` (latency lists by op
    kind) fall: each kind's p10/p50/p90, and for each overall
    percentile the kinds of the ops within 5 percentile points of it.
    A percentile on a boundary between kinds would show one kind below
    it and another above, with a gap in between."""
    notes: Dict[str, object] = {
        kind: {"n": len(ms), "p10_ms": pct(ms, 10), "p50_ms": pct(ms, 50),
               "p90_ms": pct(ms, 90)}
        for kind, ms in times.items()}
    ordered = sorted((ms, kind) for kind, values in times.items()
                     for ms in values)
    for q in (50, 90):
        lo = int(len(ordered) * (q - 5) / 100)
        hi = max(int(len(ordered) * (q + 5) / 100), lo + 1)
        near: Dict[str, int] = {}
        for _, kind in ordered[lo:hi]:
            near[kind] = near.get(kind, 0) + 1
        notes[f"p{q}"] = {"ms": pct([ms for ms, _ in ordered], q),
                          "window_ms": [ordered[lo][0],
                                        ordered[min(hi, len(ordered)) - 1][0]],
                          "kinds_near": near}
    return notes


def coded_bytes(cmod) -> int:
    """Bytes of the RCX2 range-coded derivation streams of ``cmod``."""
    from repro.coding.model import model_for
    from repro.coding.stream import encode_module_streams
    from repro.core.program import program_for
    program = program_for(cmod.grammar)
    return len(encode_module_streams(program, model_for(program),
                                     [p.code for p in cmod.procedures]))


#: operators 8q executes on every engine, under any grammar
EIGHTQ_INSTRET = 684_685


def exec_counts(res: "Result", long: str = "8q") -> Dict[str, float]:
    """The per-layer dispatch and operator counts of ``long``'s compiled
    runs."""
    det = res.deterministic
    return {
        "interp.dispatches": det.get(f"interp.dispatches:exec_compiled:{long}",
                                     0),
        "interp.instret": det.get(f"interp.instret:{long}", 0),
    }


def check_run(ctx: Context, op: str, got: tuple, ref: tuple) -> None:
    code, output, dispatches, instret = got
    ctx.result.check(op, (code, output) == tuple(ref),
                     f"got {(code, output[:60])!r}, "
                     f"expected {(ref[0], ref[1][:60])!r}")
    name = op.split(":", 1)[1]
    ctx.result.fingerprint(f"output:{name}", output)
    if name == "8q" and instret != EIGHTQ_INSTRET:
        ctx.result.errors.append(f"8q executed {instret} operators on "
                                 f"{op}, expected {EIGHTQ_INSTRET}")
    det = ctx.result.deterministic
    for key, value in ((f"interp.dispatches:{op}", dispatches),
                       (f"interp.instret:{name}", instret)):
        if det.setdefault(key, value) != value:
            ctx.result.errors.append(
                f"{key} differs between repeats: {det[key]} vs {value}")
