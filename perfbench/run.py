"""The repository benchmark: ``build`` and ``serve``.

Run from the root of a checkout::

    python3 perfbench/run.py --workload build --seed 1 --seconds 30 --trace 0

``--trace 0`` measures and prints every end-to-end metric named in
``BENCHMARK.json``; ``--trace 1`` splits the measured time into an
untraced and a traced half and prints every per-layer metric, with the
tracing overhead and the share of traced wall time no span covers.
Every timing is reported at a nominal machine speed (``common.Pace``).
Either way the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines
before it give the environment, the run's fingerprint and any failed
op; the full record, spans included, goes to ``.perfbench_out/``.

The program is imported from ``src/`` of the checkout and is never
changed; all scratch files live in ``.perfbench_work/`` and are removed
when the run ends.  Exit code 2 means the run could not be made at all.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

from common import (
    OUT_DIR, SPEC_PATH, SRC, Context, check_determinism, env_record,
)


def _workloads():
    import wl_build
    import wl_serve
    return {"build": wl_build.run, "serve": wl_serve.run}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("build", "serve"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="input sizes; 'tiny' is for the schema test only")
    return p.parse_args(argv)


def _metrics(ctx: Context, spec: dict) -> dict:
    res = ctx.result
    if ctx.trace:
        names = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        # The start p90s are end-to-end figures without a bound.
        values = {**res.e2e, **res.layers}
    else:
        names = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
        values = dict(res.e2e)
        values["ok_frac"] = 1.0 - len(res.failures) / res.attempted
    missing = [name for name, _ in names
               if name not in values and not ctx.trace]
    if missing:
        raise RuntimeError(f"workload {ctx.workload} did not measure "
                           f"{', '.join(missing)}")
    # Per-layer metrics of layers this workload leaves idle read 0.
    return {name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in names}


def main(argv=None) -> int:
    args = _parse(argv)
    # A terminated run still stops its server and removes its scratch
    # files: SIGTERM unwinds through the ``finally`` blocks.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {SRC}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads(SPEC_PATH.read_text())
    ctx = Context(args.workload, args.seed, args.seconds,
                  bool(args.trace), args.scale)
    ctx.open()
    try:
        _workloads()[args.workload](ctx)
        check_determinism(ctx)
        metrics = _metrics(ctx, spec)
    finally:
        ctx.close()
    res = ctx.result
    env = env_record(args.seed)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "scale": args.scale,
        "env": env, "fingerprint": res.digest,
        "deterministic": res.deterministic, "errors": res.errors,
        "failures": res.failures, "metrics": metrics,
        "layers_all": res.layers, "notes": res.notes,
        "spans": [s.as_dict() for s in res.spans],
    }
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / (f"{args.workload}-seed{args.seed}-trace{args.trace}"
                     f"-{args.scale}.json")
    out.write_text(json.dumps(record))
    print("env " + json.dumps(env, sort_keys=True))
    print(f"fingerprint workload={args.workload} seed={args.seed} "
          f"sha256={res.digest}")
    for failure in res.failures:
        print("FAILED " + json.dumps(failure, sort_keys=True))
    for error in res.errors:
        print("ERROR " + error)
    print(json.dumps({
        "correct": not res.failures and not res.errors,
        "attempted": res.attempted,
        "failed": len(res.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
