"""A fixed piece of work that measures how fast the host is right now.

The benchmark's machine is shared: the same code runs up to a third
slower for stretches of tens of seconds to minutes, and a 28-second run
can sit inside one such stretch.  ``yardstick()`` does the same work every
time, with the mix of work the program does (Prüfer decoding, BFS over
adjacency lists, sorting tuples, many tiny LAPACK solves and one larger
one), and uses nothing from fiedlertrees, so a change to the program
cannot move it.  The worker times it between the operations of a pass,
about once a second, and ``scaled_pass_s`` divides each stretch of
operations by the mean of the two yardsticks around it (see README.md,
"Host speed").
"""

from __future__ import annotations

import functools
import heapq
import statistics
import time

import numpy as np

#: about the usual yardstick time on the machine of README.md's reference
#: figures; pass_s is scaled to a host on which the yardstick takes this
REFERENCE_S = 0.1

_N = 40  # tree order of the Python part
_WORDS = 800  # Prüfer words decoded per yardstick
_SMALL = 1000  # tiny symmetric eigensolves
_BIG = 360  # order of the one larger eigensolve


@functools.cache
def _matrices() -> tuple[np.ndarray, np.ndarray]:
    """Fixed symmetric matrices, made on first use (with numpy.random, which
    fiedlertrees does not import) so that importing this module adds
    nothing to the worker's set-up."""
    rng = np.random.default_rng(20081006)
    small = rng.standard_normal((_SMALL, 10, 10))
    big = rng.standard_normal((_BIG, _BIG))
    return small + small.transpose(0, 2, 1), big + big.T


def _decode(word: list[int], n: int) -> list[list[int]]:
    degree = [1] * n
    for v in word:
        degree[v] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    adj: list[list[int]] = [[] for _ in range(n)]
    for v in word:
        leaf = heapq.heappop(leaves)
        adj[leaf].append(v)
        adj[v].append(leaf)
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u, v = heapq.heappop(leaves), heapq.heappop(leaves)
    adj[u].append(v)
    adj[v].append(u)
    return adj


def _depth_profile(adj: list[list[int]]) -> tuple:
    depth = {0: 0}
    queue = [0]
    for u in queue:
        for w in adj[u]:
            if w not in depth:
                depth[w] = depth[u] + 1
                queue.append(w)
    return tuple(sorted((depth[v], len(adj[v])) for v in depth))


def _work() -> float:
    state = 12345
    profiles = set()
    for _ in range(_WORDS):
        word = []
        for _ in range(_N - 2):
            state = (state * 1103515245 + 12345) % 2**31
            word.append(state % _N)
        profiles.add(_depth_profile(_decode(word, _N)))
    total = float(len(profiles))
    small, big = _matrices()
    for m in small:
        total += np.linalg.eigh(m)[0][0]
    total += np.linalg.eigh(big)[0][0]
    return total


def yardstick() -> float:
    """Seconds the fixed work takes now."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


def scaled_pass_s(segments: list[list[list[float]]]) -> float:
    """Median pass time on a host where the yardstick takes REFERENCE_S.
    ``segments`` holds, for each pass, its stretches of operations as
    ``[seconds, yardstick before, yardstick after]``; each stretch is
    divided by the mean of its two yardsticks."""
    return REFERENCE_S * statistics.median(
        sum(seconds / ((before + after) / 2) for seconds, before, after in segs)
        for segs in segments
    )
