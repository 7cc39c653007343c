"""Immutable simple graphs with the metric and structural queries the
painter strategies rely on: graph powers, girth, diameter, 2k-cycle
enumeration, case classification and the special frame used by the
main strategy.

Local metric queries (cycle pruning, frames, orders) are depth-bounded
BFS balls (``ball``) of radius at most k+1 around the vertices they
concern. Powers and the two whole-graph metrics, ``girth`` and
``diameter``, grow every vertex's ball at once, as bitsets, and
``classify`` computes only the facts that decide its label.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import asdict, dataclass
from typing import Iterable, Optional

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
    n²/8 bytes, the same order as the transient bitsets of ``girth``
    and ``diameter``. Construction validates simplicity and symmetry;
    connectivity is recorded in ``connected``.
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
        self.connected = len(ball(self, [0])) == n

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    @property
    def max_degree(self) -> int:
        return max(len(a) for a in self.adj)

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]

    def num_edges(self) -> int:
        return sum(len(a) for a in self.adj) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def distances(self) -> "DistanceMatrix":
        return DistanceMatrix.from_graph(self)

    def is_regular(self) -> bool:
        return len({len(a) for a in self.adj}) == 1

    def __eq__(self, other):
        return isinstance(other, Graph) and self.adj == other.adj

    def __hash__(self):
        return hash(self.adj)

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.num_edges()})"


def _from_adj(adj: list[tuple[int, ...]], masks: list[int],
              connected: bool) -> Graph:
    """Wrap adjacency rows and their bitmasks as a Graph without
    validating them. It trusts that each row is a sorted tuple of
    vertices in range, that the rows are symmetric and loop-free, that
    ``masks[v]`` has exactly the bits of ``adj[v]``, and that
    ``connected`` is true of them. Outside input goes through
    ``Graph(n, edges)``."""
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

    Computed exactly with arbitrary-precision integers.
    """
    if k < 1:
        raise PreconditionError(f"k must be >= 1, got {k}")
    if delta < 3:
        raise PreconditionError(f"maximum degree must be >= 3, got {delta}")
    return delta * sum((delta - 1) ** (i - 1) for i in range(1, k + 1))


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


def diameter(g: Graph) -> int:
    """Largest distance in a connected graph. Bit u of ``reach[v]`` is
    set once u is within ``level`` hops of v; each level ORs neighbor
    rows into every row not yet full, until every row is full."""
    if not g.connected:
        raise PreconditionError("diameter requires a connected graph")
    full = (1 << g.n) - 1
    reach = [1 << v for v in range(g.n)]
    level, rows = 0, [v for v in range(g.n) if reach[v] != full]
    while rows:
        level += 1
        prev = reach[:]
        for v in rows:
            for u in g.adj[v]:
                reach[v] |= prev[u]
        rows = [v for v in rows if reach[v] != full]
    return level


def distance_order(g: Graph, targets: Iterable[int], head=(),
                   tail=()) -> tuple[int, ...]:
    """``head``, then every other vertex by decreasing distance to
    ``targets`` (ties by id), then ``tail``."""
    d = ball(g, targets)
    fixed = set(head) | set(tail)
    rest = sorted((u for u in range(g.n) if u not in fixed),
                  key=lambda u: (-d[u], u))
    return tuple(head) + tuple(rest) + tuple(tail)


def kth_power(g: Graph, k: int) -> Graph:
    """Graph on the same vertices with edges between all pairs at
    distance 1..k in ``g``. As in ``diameter``, each level ORs neighbor
    rows into ``reach``, so after k levels bit u of ``reach[v]`` is set
    iff u is within k hops of v. The mask of v is ``reach[v]`` without
    v, and its sorted neighbors are the positions of the ones in its
    reversed binary string."""
    if k < 1:
        raise PreconditionError(f"k must be >= 1, got {k}")
    if not g.connected:
        raise PreconditionError("kth_power requires a connected graph")
    if k == 1:
        return g
    reach = [1 << v for v in range(g.n)]
    for _ in range(k):
        prev = reach[:]
        for v in range(g.n):
            for u in g.adj[v]:
                reach[v] |= prev[u]
    # Rows are loop-free once v is removed, and symmetric because
    # distance is; a power of a connected graph is connected. The masks
    # are made in place and the last level is dropped first, so one
    # bitset per vertex is alive; the rows take their entries from one
    # ``ids`` list, so they hold n int objects rather than one per entry.
    del prev
    masks, rows = reach, []
    ids = list(range(g.n))
    for v in range(g.n):
        masks[v] ^= 1 << v
        bits = bin(masks[v])[:1:-1]
        row, i = [], bits.find("1")
        while i >= 0:
            row.append(ids[i])
            i = bits.find("1", i + 1)
        rows.append(tuple(row))
    return _from_adj(rows, masks, True)


def girth(g: Graph) -> Optional[int]:
    """Length of a shortest cycle, or None for a forest.

    Grows every vertex's BFS levels at once, as bitsets (the all-sources
    form of Itai & Rodeh, SIAM J. Comput. 7, 1978): ``front[v]`` holds
    the vertices at distance exactly d from v, ``seen[v]`` those within
    d. At level d = 0, 1, ..., with u, u' neighbors of v:

    - odd: ``front[v]`` meets some ``front[u]``: a cycle of length 2d+1;
    - even: ``front[u]`` and ``front[u']`` meet outside ``seen[v]``: a
      cycle of length 2d+2.

    Sound: the two shortest paths to the common vertex, closed through
    v, form a closed walk of that length that uses the edge vu once, so
    it holds a cycle no longer.
    Complete: a shortest cycle is isometric, so on one of length 2d+1
    or 2d+2 through v the far vertex meets its rule's condition. No
    level below d fired, so the girth is at least 2d+1, and the first
    level that fires gives it.
    """
    front = [1 << v for v in range(g.n)]
    seen = front[:]
    rows, level = range(g.n), 0
    while rows:
        even = False
        nxt = [0] * g.n
        for v in rows:
            outside = ~seen[v]
            near = far = 0
            for u in g.adj[v]:
                f = front[u]
                near |= f
                f &= outside
                if far & f:
                    even = True
                far |= f
            if front[v] & near:
                return 2 * level + 1
            nxt[v] = far
            seen[v] |= far
        if even:
            return 2 * level + 2
        front, level = nxt, level + 1
        rows = [v for v in rows if front[v]]
    return None


def _cycles(g: Graph, length: int):
    """Yield every simple cycle of ``length`` vertices once, starting at
    its least vertex s and heading to the smaller of s's two cycle
    neighbors.

    DFS from each root s over vertices > s, pruned by the radius
    length//2 ball of s: a vertex that still needs r more steps to get
    back to s must lie within distance r of it.
    """
    for s in range(g.n):
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
                yield path + [v]


def enumerate_cycles(g: Graph, length: int) -> list[list[int]]:
    """All simple cycles of exactly ``length`` vertices, each reported
    once up to rotation/reflection, in the canonical form of
    ``_cycles``; at most ``DEFAULT_CYCLE_CAP`` of them."""
    if length < 3:
        raise PreconditionError(f"cycle length must be >= 3, got {length}")
    cap = DEFAULT_CYCLE_CAP
    found: list[list[int]] = []
    for c in _cycles(g, length):
        found.append(c)
        if len(found) > cap:
            raise CapExceededError(f"more than {cap} cycles of length {length}")
    return found


@dataclass(frozen=True)
class StructuralReport:
    n: int
    max_degree: int
    is_regular: bool
    girth: Optional[int]          # None means acyclic (infinite girth)
    diameter: int
    two_k_cycles: tuple[tuple[int, ...], ...]
    two_k_cycles_disjoint: bool

    def to_dict(self) -> dict:
        return asdict(self)


def structural_report(g: Graph, k: int) -> StructuralReport:
    """Girth, diameter, regularity and the exhaustive list of cycles of
    length exactly 2k, with the pairwise vertex-disjointness flag. The
    cycles are enumerated only when the girth is at most 2k."""
    if k < 2:
        raise PreconditionError(f"k must be >= 2, got {k}")
    if not g.connected:
        raise PreconditionError("structural_report requires a connected graph")
    gir = girth(g)
    cycles = [] if gir is None or gir > 2 * k else enumerate_cycles(g, 2 * k)
    return StructuralReport(
        n=g.n,
        max_degree=g.max_degree,
        is_regular=g.is_regular(),
        girth=gir,
        diameter=diameter(g),
        two_k_cycles=tuple(tuple(c) for c in cycles),
        two_k_cycles_disjoint=_intersecting_pair(cycles) is None,
    )


@dataclass(frozen=True)
class CaseLabel:
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
    if g.max_degree < 3:
        raise PreconditionError(
            f"maximum degree must be >= 3, got {g.max_degree}")
    delta = g.max_degree
    for v in range(g.n):
        if g.degree(v) < delta:
            return CaseLabel(CaseLabel.NON_REGULAR, low_degree_vertex=v)
    gir = girth(g) if report is None else report.girth
    if gir is not None and gir < 2 * k:
        return CaseLabel(CaseLabel.SHORT_CYCLE,
                         short_cycle=tuple(next(_cycles(g, gir))))
    if gir == 2 * k:
        pair = _intersecting_pair(enumerate_cycles(g, 2 * k) if report is None
                                  else report.two_k_cycles)
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


@dataclass(frozen=True)
class SpecialFrame:
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
    >= k+1. v sits at distance exactly 2 from x1 on the path; w is v's
    path neighbor toward y1 unless that vertex is y2. ``label``
    is the case label of (g, k) when the caller already has it.
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
                        return _build_frame(g, k, x1, x2, y1, y2)
    raise NoFrameError(
        "no (x1,x2,y1,y2) frame found in a MainCase graph; "
        "this contradicts the case analysis and indicates a bug")


def _build_frame(g: Graph, k: int, x1: int, x2: int, y1: int,
                 y2: int) -> SpecialFrame:
    path = _lex_least_shortest_path(g, x1, y1)
    v = path[2]
    after, before = path[3], path[1]
    # path[i] is at distance i from x1, so after (3) is never x2 (1) and
    # before (1) is never y2 (>= k). after is y2 only when k = 3, and then
    # before is not x2: y2 would lie at distance 2 from x2, inside the
    # radius-k ball the frame search excludes.
    w = after if after != y2 else before
    order = distance_order(g, (v, w), head=(x1, x2, y1, y2), tail=(w, v))
    frame = SpecialFrame(x1=x1, x2=x2, y1=y1, y2=y2, path=tuple(path),
                         v=v, w=w, order=order)
    _check_frame(g, k, frame)
    return frame


def _check_frame(g: Graph, k: int, f: SpecialFrame):
    near_v, near_w = ball(g, [f.v], k), ball(g, [f.w], k)
    ok = (
        ball(g, [f.x1], k + 1).get(f.y1) == k + 1
        and g.has_edge(f.x1, f.x2) and g.has_edge(f.y1, f.y2)
        and f.y2 not in ball(g, [f.x2], k)
        and f.w not in (f.x2, f.y2)
        and all(z in near_v for z in f.frame_vertices())
        and f.x1 in near_w and f.y1 in near_w
        and len(f.path) == k + 2
        and sorted(f.order) == list(range(g.n))
    )
    if not ok:
        raise NoFrameError(f"constructed frame violates its invariants: {f}")
