"""Immutable simple graphs with the metric and structural queries the
painter strategies rely on: graph powers, girth, diameter, 2k-cycle
enumeration, case classification and the special frame used by the
main strategy.

Local metric queries (cycle pruning, frames, orders) are depth-bounded
BFS balls (``ball``) of radius at most k+1 around the vertices they
concern. Powers, ``girth``, ``diameter`` and the cycle search's roots
read one sweep that grows every vertex's ball at once, as bitsets, and
``classify`` computes only the facts that decide its label.
"""

from __future__ import annotations

from collections import defaultdict, deque
from itertools import count, islice
from typing import Iterable, NamedTuple, Optional

from .errors import (
    CapExceededError,
    GraphConstructionError,
    NoFrameError,
    PreconditionError,
)

UNREACHABLE = -1

DEFAULT_CYCLE_CAP = 10 ** 6


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1.

    Adjacency is stored as sorted tuples in ``adj`` and as bitmasks in
    ``masks``: bit u of ``masks[v]`` is set iff u is a neighbor of v, so
    "has v a neighbor in the set S" is one AND. The masks take at most
    n²/8 bytes, the same order as each of the at most three transient
    bitset lists of the ball sweep (``_balls``). Construction validates
    simplicity and symmetry; connectivity is recorded in ``connected``.
    """

    __slots__ = ("n", "adj", "masks", "connected")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 1:
            raise GraphConstructionError("graph needs at least one vertex")
        neigh = [set() for _ in range(n)]
        edge = None
        try:
            for edge in edges:
                u, v = edge
                if not (0 <= u < n and 0 <= v < n):
                    raise GraphConstructionError(
                        f"edge ({u},{v}) out of range")
                if u == v:
                    raise GraphConstructionError(f"self-loop at {u}")
                neigh[u].add(v)
                neigh[v].add(u)
        except (TypeError, ValueError) as exc:
            raise GraphConstructionError(f"malformed edge {edge!r}") from exc
        self.n = n
        self.adj = tuple(tuple(sorted(s)) for s in neigh)
        self.masks = tuple(sum(1 << u for u in s) for s in neigh)
        self.connected = _connected(self.adj)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    @property
    def max_degree(self) -> int:
        return max(map(len, self.adj))

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]

    def num_edges(self) -> int:
        return sum(len(a) for a in self.adj) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def distances(self) -> "DistanceMatrix":
        return DistanceMatrix.from_graph(self)

    def is_regular(self) -> bool:
        return len(set(map(len, self.adj))) == 1

    def __eq__(self, other):
        return isinstance(other, Graph) and self.adj == other.adj

    def __hash__(self):
        return hash(self.adj)

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.num_edges()})"


def _connected(adj) -> bool:
    """Whether vertex 0 reaches every vertex over the rows ``adj``: the
    rule for ``Graph.connected``, whichever constructor made the rows."""
    seen, todo = {0}, [0]
    for v in todo:
        for u in adj[v]:
            if u not in seen:
                seen.add(u)
                todo.append(u)
    return len(seen) == len(adj)


def _from_adj(adj: list[tuple[int, ...]], masks: list[int],
              connected: bool) -> Graph:
    """Wrap adjacency rows and their bitmasks as a Graph without
    validating them. It trusts that each row is a sorted tuple of
    vertices in range, that the rows are symmetric and loop-free, that
    ``masks[v]`` has exactly the bits of ``adj[v]``, and that
    ``connected`` is true of them. Its two callers meet this by
    construction: ``kth_power`` reads rows and masks off a ball sweep of
    a valid graph (distance is symmetric, v leaves its own ball), and
    ``gen_io.parse_graph6`` decodes an upper triangle whose every bit
    names one pair row < col < n. Every other outside input goes
    through ``Graph(n, edges)``."""
    g = object.__new__(Graph)
    g.n = len(adj)
    g.adj = tuple(adj)
    g.masks = tuple(masks)
    g.connected = connected
    return g


class DistanceMatrix:
    """All-pairs hop counts, materialized via BFS from every vertex.

    Unreachable pairs carry the sentinel ``UNREACHABLE`` (-1).
    """

    __slots__ = ("n", "dist")

    def __init__(self, n: int, dist: list[list[int]]):
        self.n = n
        self.dist = dist

    @classmethod
    def from_graph(cls, g: Graph) -> "DistanceMatrix":
        rows = []
        for s in range(g.n):
            row = [UNREACHABLE] * g.n
            row[s] = 0
            queue = deque([s])
            while queue:
                u = queue.popleft()
                du = row[u]
                for v in g.adj[u]:
                    if row[v] == UNREACHABLE:
                        row[v] = du + 1
                        queue.append(v)
            rows.append(row)
        return cls(g.n, rows)

    def __call__(self, u: int, v: int) -> int:
        return self.dist[u][v]


def bound_D(k: int, delta: int) -> int:
    """Maximum possible degree of the k-th power of a graph with maximum
    degree ``delta``: delta * sum_{i=1..k} (delta-1)^(i-1).

    Computed exactly with arbitrary-precision integers, by the geometric
    series' closed form delta * ((delta-1)^k - 1) / (delta - 2): with
    delta >= 3 the division is exact.
    """
    if k < 1:
        raise PreconditionError(f"k must be >= 1, got {k}")
    if delta < 3:
        raise PreconditionError(f"maximum degree must be >= 3, got {delta}")
    return delta * ((delta - 1) ** k - 1) // (delta - 2)


def ball(g: Graph, sources: Iterable[int],
         radius: Optional[int] = None) -> dict[int, int]:
    """Hop distance from the nearest source to every vertex within
    ``radius`` (every reachable vertex when None), in BFS order."""
    dist = {s: 0 for s in sources}
    frontier = list(dist)
    depth = 0
    while frontier and depth != radius:
        depth += 1
        nxt = []
        for u in frontier:
            for v in g.adj[u]:
                if v not in dist:
                    dist[v] = depth
                    nxt.append(v)
        frontier = nxt
    return dist


def _balls(g: Graph):
    """Yield the balls B(v, r) of all vertices v as a list of bitsets
    (bit u of entry v is set iff d(u, v) <= r) for r = 0, 1, ..., R, the
    last radius at which some ball grows (the diameter, if connected).
    Each level ORs neighbor rows into a new copy of the last one, for
    the rows not yet full."""
    full, cur = (1 << g.n) - 1, [1 << v for v in range(g.n)]
    rows = [v for v in range(g.n) if cur[v] != full]
    yield cur
    while rows:
        prev, cur = cur, cur[:]
        for v in rows:
            for u in g.adj[v]:
                cur[v] |= prev[u]
        if not g.connected and cur == prev:  # else some row grew
            return
        yield cur
        rows = [v for v in rows if cur[v] != full]


def diameter(g: Graph) -> int:
    """Largest distance in a connected graph: ``_balls``' level count."""
    if not g.connected:
        raise PreconditionError("diameter requires a connected graph")
    return sum(1 for _ in _balls(g)) - 1


def distance_order(g: Graph, targets: Iterable[int], head=(),
                   tail=()) -> tuple[int, ...]:
    """``head``, then every other vertex by decreasing distance to
    ``targets`` (ties by id), then ``tail``."""
    d = ball(g, targets)
    fixed = set(head) | set(tail)
    rest = [u for u in range(g.n) if u not in fixed]
    rest.sort(key=d.__getitem__, reverse=True)  # stable: ties ascend
    return tuple(head) + tuple(rest) + tuple(tail)


def kth_power(g: Graph, k: int) -> Graph:
    """Graph on the same vertices with edges between all pairs at
    distance 1..k in ``g``. Bit u of ``reach[v]``, level min(k, R) of
    ``_balls``, is set iff u is within k hops of v; the mask of v is
    ``reach[v]`` without v. Distance is symmetric, so each pair u > v is
    decoded once, from v: past position v of its reversed binary
    string, and goes to both rows."""
    if k < 1:
        raise PreconditionError(f"k must be >= 1, got {k}")
    if not g.connected:
        raise PreconditionError("kth_power requires a connected graph")
    if k == 1:
        return g
    for reach in islice(_balls(g), k + 1):
        pass
    # Rows are loop-free once v is removed, symmetric, and connected. The
    # masks are made in place once the sweep is gone; the rows take their
    # entries from one ``ids`` list. Row v gets its part below v, in
    # ascending order, from the earlier vertices, then its part above v:
    # it is sorted and final, and only later vertices' rows stay lists.
    masks, ids = reach, list(range(g.n))
    rows = [[] for _ in ids]
    for v in ids:
        masks[v] ^= 1 << v
        bits = bin(masks[v])[:1:-1]
        row, i = rows[v], bits.find("1", v + 1)
        while i >= 0:
            u = ids[i]
            row.append(u)
            rows[u].append(v)
            i = bits.find("1", i + 1)
        rows[v] = tuple(row)
    return _from_adj(rows, masks, True)


def girth(g: Graph) -> Optional[int]:
    """Length of a shortest cycle, or None for a forest.

    Tree count: for r >= 1, v and B = B(v, r-1), sum deg(x) over x in B
    is at least |B| + |B(v, r)| - 2 (G[B] is connected, and each vertex
    at distance r has a neighbor at distance r-1), with equality iff the
    BFS from v to depth r is a tree: G[B] is a tree and each vertex at
    distance r has one neighbor at distance r-1. The sum is delta * |B|
    less (delta - d) * |B & V_d| per degree class V_d, d < delta.

    A failure closes a walk of length <= 2r through a non-tree edge, so
    a cycle no longer. A vertex on a cycle of length L <= 2r fails at r:
    at most one vertex of it is at distance r, so its edges would all be
    tree edges. So the girth exceeds 2r iff every vertex passes at r; at
    the first failing r it is 2r-1 iff some edge uv has a vertex at
    distance r-1 from both ends (an odd walk through uv; a shortest cycle
    is isometric), else 2r. Radius R+1 repeats R, which tests exhausted
    components; a forest never fails.
    """
    return _sweep(g, _balls(g))[0]


def _tree_test(g: Graph):
    """``failing(inner, outer)``: the vertices, ascending, that fail the
    tree count of ``girth`` given the levels B(., r-1) and B(., r)."""
    degrees = list(map(len, g.adj))
    delta = max(degrees)
    low = {delta - d: sum(1 << v for v, e in enumerate(degrees) if e == d)
           for d in set(degrees) - {delta}}  # the classes V_d, d < delta

    def failing(inner, outer):
        excess = [(delta - 1) * a.bit_count() + 2 - b.bit_count()
                  for a, b in zip(inner, outer)]
        for c, m in low.items():
            excess = [e - c * (a & m).bit_count()
                      for e, a in zip(excess, inner)]
        return [v for v, e in enumerate(excess) if e]
    return failing


def _sweep(g: Graph, balls, k: Optional[int] = None):
    """Run the tree count over ``balls``, a fresh ``_balls(g)``: return
    (girth, roots failing at radius k, or at the girth's radius if k is
    None, and the last level taken that grew). It stops at the girth and
    radius k, or when no ball grows. It keeps B(r-2) for the odd test:
    at most three bitset lists are alive at once."""
    failing = _tree_test(g)
    gir = before = None
    inner = next(balls)
    for r in count(1):
        outer = next(balls, inner)
        fails = failing(inner, outer) if r > 1 else []  # none fail at 1
        if fails and gir is None:  # the ends of the odd test's edge fail
            odd = any(inner[u] & inner[v] & ~(before[u] | before[v])
                      for u in fails for v in g.adj[u] if u < v)
            gir = 2 * r - 1 if odd else 2 * r
        if k is None or r <= k:
            roots = fails
        if outer is inner or gir and (k is None or r >= k):
            return gir, roots, r - 1 if outer is inner else r
        before, inner = inner, outer


def _cycles(g: Graph, length: int, roots: Iterable[int]):
    """Yield every simple cycle of ``length`` vertices whose least
    vertex s is in ``roots`` once, from s towards the smaller of its two
    cycle neighbors; raise ``CapExceededError`` past the cap.

    DFS from each root s over vertices > s, pruned by the radius
    length//2 ball of s: a vertex that still needs r more steps to get
    back to s must lie within distance r of it.
    """
    found = 0
    for s in roots:
        dist = ball(g, [s], length // 2)
        path, on_path, stack = [s], {s}, [iter(g.adj[s])]
        while stack:
            remaining = length - len(path)
            for v in stack[-1]:
                if (v > s and v not in on_path
                        and dist.get(v, length) <= remaining):
                    break
            else:
                stack.pop()
                on_path.discard(path.pop())
                continue
            if remaining > 1:
                path.append(v)
                on_path.add(v)
                stack.append(iter(g.adj[v]))
            elif path[1] < v:  # v is adjacent to s; one orientation only
                found += 1
                if found > DEFAULT_CYCLE_CAP:
                    raise CapExceededError(f"more than {DEFAULT_CYCLE_CAP} "
                                           f"cycles of length {length}")
                yield path + [v]


def enumerate_cycles(g: Graph, length: int) -> list[list[int]]:
    """All simple cycles of exactly ``length`` vertices, each reported
    once up to rotation/reflection, in the canonical form of
    ``_cycles``; at most ``DEFAULT_CYCLE_CAP`` of them. Only roots that
    fail the tree count at radius ceil(length/2) are searched."""
    if length < 3:
        raise PreconditionError(f"cycle length must be >= 3, got {length}")
    _, roots, _ = _sweep(g, _balls(g), (length + 1) // 2)
    return list(_cycles(g, length, roots))


class StructuralReport(NamedTuple):
    n: int
    max_degree: int
    is_regular: bool
    girth: Optional[int]          # None means acyclic (infinite girth)
    diameter: int
    two_k_cycles: tuple[tuple[int, ...], ...]
    two_k_cycles_disjoint: bool

    def to_dict(self) -> dict:
        return self._asdict()


def structural_report(g: Graph, k: int) -> StructuralReport:
    """Girth, diameter, regularity and the exhaustive list of cycles of
    length exactly 2k, with the pairwise vertex-disjointness flag, from
    one ball sweep; the cycle search starts at the roots failing at k."""
    if k < 2:
        raise PreconditionError(f"k must be >= 2, got {k}")
    if not g.connected:
        raise PreconditionError("structural_report requires a connected graph")
    balls = _balls(g)
    gir, roots, radius = _sweep(g, balls, k)
    cycles = list(_cycles(g, 2 * k, roots))
    return StructuralReport(
        n=g.n,
        max_degree=g.max_degree,
        is_regular=g.is_regular(),
        girth=gir,
        diameter=radius + sum(1 for _ in balls),
        two_k_cycles=tuple(tuple(c) for c in cycles),
        two_k_cycles_disjoint=_intersecting_pair(cycles) is None,
    )


class CaseLabel(NamedTuple):
    """Outcome of the case analysis routing a graph to a strategy.

    ``kind`` is one of NonRegular, ShortCycle, IntersectingTwoKCycles,
    MainCase. Witness fields are populated per kind.
    """
    kind: str
    low_degree_vertex: Optional[int] = None
    short_cycle: Optional[tuple[int, ...]] = None
    intersecting_cycles: Optional[tuple[tuple[int, ...], tuple[int, ...]]] = None

    NON_REGULAR = "NonRegular"
    SHORT_CYCLE = "ShortCycle"
    INTERSECTING = "IntersectingTwoKCycles"
    MAIN_CASE = "MainCase"

    def to_dict(self) -> dict:
        out = {"kind": self.kind}
        if self.low_degree_vertex is not None:
            out["low_degree_vertex"] = self.low_degree_vertex
        if self.short_cycle is not None:
            out["short_cycle"] = list(self.short_cycle)
        if self.intersecting_cycles is not None:
            out["intersecting_cycles"] = [list(c) for c in self.intersecting_cycles]
        return out


def classify(g: Graph, k: int,
             report: Optional[StructuralReport] = None) -> CaseLabel:
    """First matching label in priority order: NonRegular, ShortCycle,
    IntersectingTwoKCycles, else MainCase.

    Each fact is read from ``report`` when one is given, else computed,
    and only when it can decide the label: the 2k-cycles when the girth
    is exactly 2k (below it ShortCycle fires, above it there are none).
    Without a report, the girth's sweep gives the roots of the shortest
    cycles (and at girth 2k of the 2k-cycles): those failing at its end.

    No diameter step is needed: a graph that reaches MainCase has
    diameter above k. Fix v. Girth >= 2k makes the radius-(k-1) ball of
    v a tree, and two length-k paths from v that end at the same vertex
    close a 2k-cycle through v. So |ball(v, k)| >= 1 + D - c(v), where
    D = D(k, delta) and c(v) counts the 2k-cycles through v. Disjoint
    2k-cycles give c(v) <= 1, so diameter <= k would make G a Moore
    graph (n = D + 1) or a graph of defect 1 (n = D). Neither exists for
    k >= 3 and delta >= 3 (Damerell 1973; Bannai & Ito 1973, 1981;
    surveyed in Miller & Siran, "Moore graphs and beyond", Electron. J.
    Combin. Dynamic Survey DS14).
    """
    if k < 3:
        raise PreconditionError(f"k must be >= 3, got {k}")
    if not g.connected:
        raise PreconditionError("classify requires a connected graph")
    degrees = list(map(len, g.adj))
    delta = max(degrees)
    if delta < 3:
        raise PreconditionError(f"maximum degree must be >= 3, got {delta}")
    if min(degrees) < delta:  # the witness is the least such vertex
        return CaseLabel(CaseLabel.NON_REGULAR, low_degree_vertex=next(
            v for v, d in enumerate(degrees) if d < delta))
    gir, roots, _ = (_sweep(g, _balls(g)) if report is None
                     else (report.girth, range(g.n), None))
    if gir is not None and gir < 2 * k:
        return CaseLabel(CaseLabel.SHORT_CYCLE,
                         short_cycle=tuple(next(_cycles(g, gir, roots))))
    if gir == 2 * k:
        pair = _intersecting_pair(list(_cycles(g, 2 * k, roots))
                                  if report is None else report.two_k_cycles)
        if pair is not None:
            return CaseLabel(CaseLabel.INTERSECTING, intersecting_cycles=pair)
    return CaseLabel(CaseLabel.MAIN_CASE)


def _intersecting_pair(cycles):
    """The first pair (i, j), i < j, of cycles sharing a vertex, or None
    when they are pairwise disjoint. The least cycle i that meets any
    other one meets only later ones."""
    where = defaultdict(list)
    for j, c in enumerate(cycles):
        for v in c:
            where[v].append(j)
    for i, c in enumerate(cycles):
        j = min((x for v in c for x in where[v] if x != i), default=None)
        if j is not None:
            return (tuple(c), tuple(cycles[j]))
    return None


class SpecialFrame(NamedTuple):
    """The distinguished vertices and vertex order driving the main
    painter: x1,y1 at distance k+1 with neighbors x2,y2 also far apart,
    a connecting path P, the late vertices v,w on P, and the global
    coloring order ending with w then v."""
    x1: int
    x2: int
    y1: int
    y2: int
    path: tuple[int, ...]
    v: int
    w: int
    order: tuple[int, ...]

    def frame_vertices(self) -> tuple[int, int, int, int]:
        return (self.x1, self.x2, self.y1, self.y2)


def _lex_least_shortest_path(g: Graph, src: int, dst: int) -> list[int]:
    """Lexicographically least among shortest src->dst paths, by greedy
    descent over distances to dst (neighbor ids ascend already)."""
    d = ball(g, [dst])
    path = [src]
    u = src
    while u != dst:
        u = min(v for v in g.adj[u] if d[v] == d[u] - 1)
        path.append(u)
    return path


def find_special_frame(g: Graph, k: int,
                       label: Optional[CaseLabel] = None) -> SpecialFrame:
    """Deterministic search for a special frame in a MainCase graph.

    Scans (x1,y1) pairs in lexicographic order, then neighbor pairs
    (x2,y2) in id order, accepting the first pair at mutual distance
    >= k+1; ``_build_frame`` places v and w on a shortest x1-y1 path.
    ``label`` is the case label of (g, k) when the caller already has it.
    """
    if k < 3:
        raise PreconditionError(f"k must be >= 3, got {k}")
    if label is None:
        label = classify(g, k)
    if label.kind != CaseLabel.MAIN_CASE:
        raise PreconditionError(
            f"the special frame requires MainCase, got {label.kind}")
    for x1 in range(g.n):
        sphere = sorted(y for y, d in ball(g, [x1], k + 1).items()
                        if d == k + 1)
        near = {x2: ball(g, [x2], k) for x2 in g.adj[x1]}
        for y1 in sphere:
            for x2 in g.adj[x1]:
                for y2 in g.adj[y1]:
                    if y2 not in near[x2]:
                        return _build_frame(g, x1, x2, y1, y2)
    raise NoFrameError(
        "no (x1,x2,y1,y2) frame found in a MainCase graph; "
        "this contradicts the case analysis and indicates a bug")


def _build_frame(g: Graph, x1: int, x2: int, y1: int, y2: int) -> SpecialFrame:
    """The frame on a pair the search accepted at d(x1, y1) = k + 1; each
    invariant holds by construction. y1 is on the radius-(k+1) sphere of
    x1, x2 and y2 come from the adjacency rows of x1 and y1, and y2 is
    outside B(x2, k) by the search's test. path[i] is at distance i from
    x1 and k + 1 - i from y1 (len(path) = k + 2), so v = path[2] is within
    k of all four: at 2 from x1, <= 3 from x2, k - 1 from y1 and <= k from
    y2. w = path[3] (at 3 from x1, k - 2 from y1) is never x2; it is y2
    only if k = 3, and then w = path[1] (at 1 and k) is not x2, or y2
    would be at 2 from x2. So x1, x2, v, y1, y2 (at 0, 1, 2, k + 1, >= k
    from x1) and w are six distinct vertices, and ``distance_order`` puts
    every other one of the connected g between them: the order is a
    permutation.
    """
    path = _lex_least_shortest_path(g, x1, y1)
    v = path[2]
    w = path[3] if path[3] != y2 else path[1]
    order = distance_order(g, (v, w), head=(x1, x2, y1, y2), tail=(w, v))
    return SpecialFrame(x1=x1, x2=x2, y1=y1, y2=y2, path=tuple(path),
                        v=v, w=w, order=order)
