"""Input generators and reference checks, written without powerpaint so
that they can check its outputs.

Graphs here are plain ``(n, edges)`` pairs and adjacency lists. The
program only ever sees the graph6 lines that ``graph6_line`` makes.
"""

from __future__ import annotations

import random
from collections import deque

FOSTER_LCF = ([17, -9, 37, -37, 9, -17], 15)   # 90 vertices, girth 10
MCGEE_LCF = ([12, 7, -7], 8)                    # 24 vertices, girth 7


def lcf_edges(shifts: list[int], reps: int) -> tuple[int, list[tuple[int, int]]]:
    """Cubic Hamiltonian graph from LCF notation ``shifts^reps``: the
    cycle 0..n-1 plus the chord i -- i + shift[i] for every i."""
    n = len(shifts) * reps
    edges = set()
    for i in range(n):
        for j in ((i + 1) % n, (i + shifts[i % len(shifts)]) % n):
            edges.add((min(i, j), max(i, j)))
    return n, sorted(edges)


def covering_lift(n: int, edges: list[tuple[int, int]], fold: int,
                  rng: random.Random) -> list[tuple[int, int]]:
    """Random ``fold``-fold covering lift: vertex (v, i) is v * fold + i
    and each base edge uv becomes a random perfect matching between the
    fibres of u and v. A lift has the base's degrees and at least its
    girth, but may be disconnected."""
    lifted = []
    for u, v in edges:
        perm = list(range(fold))
        rng.shuffle(perm)
        lifted.extend((u * fold + i, v * fold + perm[i]) for i in range(fold))
    return lifted


def adjacency(n: int, edges) -> list[list[int]]:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return [sorted(a) for a in adj]


def bfs_depths(adj: list[list[int]], s: int, radius: int | None = None) -> dict[int, int]:
    """Hop distance from s to every vertex within ``radius``."""
    depth = {s: 0}
    queue = deque([s])
    while queue:
        u = queue.popleft()
        if radius is not None and depth[u] == radius:
            continue
        for v in adj[u]:
            if v not in depth:
                depth[v] = depth[u] + 1
                queue.append(v)
    return depth


def girth_upto(adj: list[list[int]], max_len: int) -> int | None:
    """Length of a shortest cycle if it is at most ``max_len``, else
    None. BFS to radius max_len // 2 from every vertex: a cycle of
    length L through s closes within radius floor(L / 2)."""
    best = None
    radius = max_len // 2
    for s in range(len(adj)):
        depth = {s: 0}
        parent = {s: -1}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if v not in depth:
                    if depth[u] < radius:
                        depth[v] = depth[u] + 1
                        parent[v] = u
                        queue.append(v)
                elif v != parent[u]:
                    cyc = depth[u] + depth[v] + 1
                    if cyc <= max_len and (best is None or cyc < best):
                        best = cyc
    return best


def moore_radius(n: int, delta: int) -> int:
    """Least r with 1 + delta * sum_{i<r} (delta-1)^i >= n: no vertex of
    a graph with maximum degree delta on n vertices has smaller
    eccentricity, so the diameter is at least this."""
    r, reach, layer = 0, 1, delta
    while reach < n:
        reach += layer
        layer *= delta - 1
        r += 1
    return r


def bound_d(k: int, delta: int) -> int:
    """D(k, delta) = delta * sum_{i=1..k} (delta-1)^(i-1)."""
    return delta * sum((delta - 1) ** (i - 1) for i in range(1, k + 1))


def power_adjacency(adj: list[list[int]], k: int) -> list[tuple[int, ...]]:
    """Reference k-th power: each vertex's ball of radius k, minus itself."""
    return [tuple(sorted(v for v in bfs_depths(adj, s, k) if v != s))
            for s in range(len(adj))]


def graph6_line(n: int, adj) -> str:
    """graph6 encoding (short or 4-byte long header) of a graph given by
    its adjacency lists: bit (row, col) for row < col is column-major."""
    if n <= 62:
        out = bytearray([n + 63])
    else:
        out = bytearray([126, 63 + (n >> 12 & 63), 63 + (n >> 6 & 63),
                         63 + (n & 63)])
    nbits = n * (n - 1) // 2
    bits = bytearray(nbits + (-nbits) % 6)
    for u in range(n):
        for v in adj[u]:
            if u < v:
                bits[v * (v - 1) // 2 + u] = 1
    for i in range(0, len(bits), 6):
        b = bits[i:i + 6]
        out.append(63 + (b[0] << 5 | b[1] << 4 | b[2] << 3 | b[3] << 2
                         | b[4] << 1 | b[5]))
    return out.decode("ascii")


def is_cycle(adj: list[list[int]], cyc) -> bool:
    """True if ``cyc`` is a simple cycle of the graph, in order."""
    m = len(cyc)
    return (m >= 3 and len(set(cyc)) == m
            and all(cyc[(i + 1) % m] in adj[cyc[i]] for i in range(m)))


def invariant_mismatches(adj: list[list[int]], pinned: dict) -> list[str]:
    """Check a generated graph against its pinned invariants:
    ``n``, ``degree`` (regular), ``girth_min`` / ``girth_max`` (girth in
    that range; ``girth_max`` ends the search early), ``ecc0_min``
    (eccentricity of vertex 0, a diameter lower bound) and
    ``connected``. Returns one line per mismatch."""
    bad = []
    n = len(adj)
    if n != pinned["n"]:
        bad.append(f"n={n}, pinned {pinned['n']}")
    if any(len(a) != pinned["degree"] for a in adj):
        bad.append(f"not {pinned['degree']}-regular")
    depth = bfs_depths(adj, 0)
    if (len(depth) == n) != pinned["connected"]:
        bad.append(f"connected={len(depth) == n}")
    ecc0 = max(depth.values())
    if ecc0 < pinned["ecc0_min"]:
        bad.append(f"eccentricity of 0 is {ecc0} < {pinned['ecc0_min']}")
    limit = pinned["girth_max"]
    g = girth_upto(adj, limit)
    if g is None or g < pinned["girth_min"]:
        bad.append(f"girth {g if g is not None else f'> {limit}'} "
                   f"outside [{pinned['girth_min']}, {limit}]")
    return bad
