"""A long-lived host running shipped containers, in a fresh process.

``common.drive_engines_apart`` starts this script with two paths: a
pickled job (the program's ``src`` directory, the containers, the
seeded cycle of ``(kind, engine, name)`` ops, the seconds to run, the
container whose grammar the native engine is built from and a private
native build cache) and the file to write the pickled result to.

The engine is built first, untimed.  Then the cycle runs over and over,
bytes -> output, until the seconds have passed (at least one whole
cycle), with pace samples between ops (``common.Pace``).  The result
holds every op's latency at the nominal machine speed and what it
returned; the caller checks every result.

A fresh process gives every run the same starting state.  Run inside a
benchmark process that had trained grammars, compiled hundreds of
modules or served a load, the same ops took up to 1.5x longer in some
runs than in others, and the pace did not follow.
"""

import pickle
import sys
from pathlib import Path


def main(job_path: str, out_path: str) -> None:
    job = pickle.loads(Path(job_path).read_bytes())
    sys.path.insert(0, job["src"])
    from common import Host, Pace, now, settle
    from repro.interp.nativebuild import NativeBuildCache
    containers, cycle = job["containers"], job["cycle"]
    host = Host(NativeBuildCache(root=job["native_root"]))
    host.build_native(containers[job["build_from"]])
    pace = Pace()
    try:
        ops = []
        settle()
        pace.sample()
        stop_at = now() + job["seconds"]
        while now() < stop_at or len(ops) < len(cycle):
            kind, engine, name = cycle[len(ops) % len(cycle)]
            start = now()
            got = host.run(containers[name], engine)
            ops.append(((start, now()), kind, engine, name, got))
            pace.maybe()
        pace.sample()
        result = {
            "ops": [(kind, engine, name, pace.seconds(*window) * 1e3, got)
                    for window, kind, engine, name, got in ops],
            "pace": pace.notes(),
        }
    finally:
        pace.close()
    Path(out_path).write_bytes(pickle.dumps(result))


if __name__ == "__main__":
    main(*sys.argv[1:])
