"""The reference kernel of :class:`common.Pace`, in a process of its own.

Reads one line per sample from standard input and answers with the
time of one kernel call, in ms.  The kernel is fixed work that depends
on nothing in the program under test, in two parts:

* pure Python: random lookups in a dict of 200,000 entries (its time
  follows the host's caches and memory, which neighbours on a shared
  host load too), a sort of tuples and hash-consing of small object
  trees;
* fresh memory: mapping 8 MB and touching every page, the page faults
  a growing heap, a freed arena or an opened shared object cost.

On a shared 2-CPU host the sum tracks the program's ops (which swing by
up to 1.5x from one second to the next) at a log-log slope near 1; the
first part alone under-tracks loads and native starts, and a loop that
fits in a core's caches swings twice as much as the program does.  It
runs in its own process so that its memory never counts in the
benchmark process's peak and its garbage never in the program's
collections.  End of input ends the process.
"""

import gc
import mmap
import random
import sys
from time import perf_counter

TABLE_SIZE = 200_000
LOOKUPS = 10_000
#: fresh anonymous mappings per call, and the size of each
MAPPINGS = 2
MAPPING_BYTES = 4 << 20
PAGE = mmap.PAGESIZE


class Node:
    __slots__ = ("op", "kids", "val")

    def __init__(self, op, kids, val):
        self.op = op
        self.kids = kids
        self.val = val

    def size(self):
        return 1 + sum(kid.size() for kid in self.kids)


def _tree(rng, depth):
    if depth == 0:
        return Node(rng.randrange(8), [], rng.randrange(100))
    return Node(rng.randrange(8),
                [_tree(rng, depth - 1) for _ in range(rng.randrange(1, 4))],
                0)


def _shape(node):
    if not node.kids:
        return (node.op, node.val)
    return (node.op, tuple(_shape(kid) for kid in node.kids))


def kernel(table, keys):
    total = 0
    for key in keys:
        total += table[key]
    pairs = [(table[key], key) for key in keys[:4_000]]
    pairs.sort()
    rng = random.Random(5)
    seen = {}
    for _ in range(3):
        tree = _tree(rng, 6)
        shape = _shape(tree)
        seen[shape] = seen.get(shape, 0) + tree.size()
    for _ in range(MAPPINGS):
        fresh = mmap.mmap(-1, MAPPING_BYTES)
        for offset in range(0, MAPPING_BYTES, PAGE):
            fresh[offset] = 1
        fresh.close()
    return total + len(pairs) + len(seen)


def main():
    gc.disable()
    table = {i: (i * 2654435761) % 1_000_003 for i in range(TABLE_SIZE)}
    rng = random.Random(1)
    keys = [rng.randrange(TABLE_SIZE) for _ in range(LOOKUPS)]
    kernel(table, keys)
    print("ready", flush=True)
    for _ in sys.stdin:
        start = perf_counter()
        kernel(table, keys)
        print((perf_counter() - start) * 1e3, flush=True)


if __name__ == "__main__":
    main()
