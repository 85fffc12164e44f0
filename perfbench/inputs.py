"""Seeded inputs.  Every input derives from the one ``--seed`` through
:func:`common.seed_for`; the program under test only ever sees the
generated sources and modules.

Sources are generated here (cheap, not timed); compiling them with the
mini-C front end is the program's work and is timed as set-up.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from common import seed_for

#: sizes per scale; ``tiny`` exists for the schema test
SCALES: Dict[str, Dict[str, int]] = {
    "full": {
        "build_corpus": 60,     # gcc-like generated functions (build)
        "host_corpus": 40,      # ... for the grammar serve ships
        "heldout": 16,          # generated held-out modules (build)
        "heldout_funcs": 16,
        "short": 24,            # short generated programs (serve)
        "short_funcs": 4,
        "cold": 200,            # fresh modules prepared for serve
        "hot": 3,               # repeated modules (serve)
        "setup_reps": 3,
        "build_setup_reps": 5,  # build's set-up is short: more of them
        # trainings of serve's corpus on top of those in set-up, for
        # train_s
        "toolchain_reps": 4,
    },
    "tiny": {
        "build_corpus": 4, "host_corpus": 4, "heldout": 2,
        "heldout_funcs": 2, "short": 2, "short_funcs": 2, "cold": 40,
        "hot": 1, "setup_reps": 2, "build_setup_reps": 2,
        "toolchain_reps": 1,
    },
}

Sources = List[Tuple[str, str]]


def corpus_source(seed: int, scale: int) -> str:
    """The seeded gcc-like training corpus of ``build``."""
    from repro.corpus import gcclike
    return gcclike(scale, seed_for(seed, "corpus"))


def host_corpus_source(scale: int) -> str:
    """The corpus of the one grammar ``serve`` ships: the
    library's own gcc-like input, the same for every seed, so the seed
    varies the programs a host runs and not the grammar it runs them
    with."""
    from repro.corpus import gcclike
    return gcclike(scale)


def generated(seed: int, stream: str, count: int, funcs: int) -> Sources:
    from repro.corpus import generate_program
    return [(f"{stream}{i}",
             generate_program(funcs, seed_for(seed, stream, i)))
            for i in range(count)]


def handwritten() -> Sources:
    from repro.corpus import EIGHTQ, GZ, LCCLIKE
    return [("lcc", LCCLIKE), ("gzip", GZ), ("8q", EIGHTQ)]


def compile_all(sources: Sources):
    """Compile sources with the mini-C front end, in order."""
    from repro.minic import driver
    return {name: driver.compile_source(src) for name, src in sources}
