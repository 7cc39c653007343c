import math
import random

import pytest

import networkx as nx

from powerpaint import graph
from powerpaint.errors import (
    CapExceededError,
    GraphConstructionError,
    NoFrameError,
    PreconditionError,
)
from powerpaint.gen_io import (
    complete,
    cycle,
    heawood,
    lcf,
    mcgee,
    path,
    petersen,
    random_regular,
)
from powerpaint.graph import (
    CaseLabel,
    Graph,
    ball,
    bound_D,
    classify,
    diameter,
    distance_order,
    enumerate_cycles,
    find_special_frame,
    girth,
    kth_power,
    structural_report,
)
from test_golden_analysis import FOSTER_LCF, GRAPHS, KS, TUTTE_COXETER_LCF


def to_nx(g: Graph) -> nx.Graph:
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges())
    return G


def canonical_cycle(cycle) -> tuple[int, ...]:
    """``cycle`` from its least vertex, towards the smaller of that
    vertex's two cycle neighbours."""
    i = cycle.index(min(cycle))
    c = list(cycle[i:]) + list(cycle[:i])
    return tuple(c if c[1] < c[-1] else c[:1] + c[:0:-1])


def bfs_is_tree(g: Graph, v: int, r: int) -> bool:
    """Whether the BFS from ``v`` to depth ``r`` is a tree: no vertex has
    two neighbors one level up, and every edge inside B(v, r-1) joins a
    vertex to its parent."""
    depth, parent, frontier = {v: 0}, {v: None}, [v]
    for d in range(1, r + 1):
        nxt = []
        for x in frontier:
            for y in g.adj[x]:
                if y not in depth:
                    depth[y], parent[y] = d, x
                    nxt.append(y)
        frontier = nxt
    for x, dx in depth.items():
        if sum(depth.get(y) == dx - 1 for y in g.adj[x]) > 1:
            return False
        if dx < r and any(depth.get(y, r) < r and y != parent[x]
                          and x != parent[y] for y in g.adj[x]):
            return False
    return True


class TestBound:
    @pytest.mark.parametrize("delta", [3, 4, 5])
    def test_square_is_delta_squared(self, delta):
        assert bound_D(2, delta) == delta ** 2

    def test_cubic_third_power(self):
        assert bound_D(3, 3) == 21

    def test_power_one_is_delta(self):
        for delta in (3, 4, 7):
            assert bound_D(1, delta) == delta

    def test_hand_evaluated_sum(self):
        # 4 * (1 + 3 + 9)
        assert bound_D(3, 4) == 52

    def test_rejects_small_delta(self):
        with pytest.raises(PreconditionError):
            bound_D(2, 2)
        with pytest.raises(PreconditionError):
            bound_D(0, 3)

    def test_exact_at_large_parameters(self):
        k, delta = 20, 10
        assert bound_D(k, delta) == delta * (9 ** k - 1) // 8

    def test_matches_the_sum_it_closes(self):
        for delta in range(3, 11):
            for k in range(1, 61):
                assert bound_D(k, delta) == delta * sum(
                    (delta - 1) ** (i - 1) for i in range(1, k + 1))

    def test_closed_form_at_k_one_million(self):
        # the sum of a million powers would take minutes
        assert bound_D(10 ** 6, 3) == 3 * (2 ** 10 ** 6 - 1)


class TestGraphInvariants:
    def test_rejects_self_loop(self):
        with pytest.raises(GraphConstructionError, match="self-loop"):
            Graph(2, [(0, 0)])

    @pytest.mark.parametrize("edge", [(0, 2), (-1, 0)])
    def test_rejects_out_of_range_edge(self, edge):
        with pytest.raises(GraphConstructionError, match="out of range"):
            Graph(2, [edge])

    @pytest.mark.parametrize("edge", [(0.5, 1), ("0", 1), (1.0, 0),
                                      (0, 1, 2), (0,)])
    def test_rejects_malformed_edge(self, edge):
        with pytest.raises(GraphConstructionError, match="malformed edge"):
            Graph(2, [edge])

    def test_rejects_empty_graph(self):
        with pytest.raises(GraphConstructionError, match="at least one"):
            Graph(0, [])

    def test_parallel_edges_collapse(self):
        g = Graph(2, [(0, 1), (1, 0)])
        assert g.num_edges() == 1

    def test_adjacency_symmetric_sorted(self):
        rng = random.Random(2)
        # n > 64: the masks span several machine words
        dense = Graph(70, [(u, v) for u in range(70) for v in range(u)
                           if rng.random() < 0.3])
        for g in (Graph(4, [(2, 0), (3, 1), (0, 3)]),
                  random_regular(130, 3, 1), dense):
            for u in range(g.n):
                assert isinstance(g.adj[u], tuple)
                assert list(g.adj[u]) == sorted(g.adj[u])
                assert g.masks[u] == sum(1 << v for v in g.adj[u])
                for v in g.adj[u]:
                    assert u in g.adj[v]

    def test_connectivity_flag(self):
        assert Graph(3, [(0, 1), (1, 2)]).connected
        assert not Graph(3, [(0, 1)]).connected


class TestDistances:
    def test_matches_networkx(self):
        for seed in range(5):
            g = random_regular(12, 3, seed)
            lengths = dict(nx.all_pairs_shortest_path_length(to_nx(g)))
            d = g.distances()
            for u in range(g.n):
                for v in range(g.n):
                    assert d(u, v) == lengths[u][v]

    def test_adjacency_iff_distance_one(self):
        g = petersen()
        d = g.distances()
        for u in range(g.n):
            for v in range(g.n):
                assert (d(u, v) == 1) == g.has_edge(u, v)

    @pytest.mark.parametrize("radius", [0, 1, 2, 3, None])
    def test_ball_matches_networkx(self, radius):
        for seed in range(3):
            g = random_regular(30, 3, seed)
            G = to_nx(g)
            for sources in ([0], [4, 17], [1, 2, 29]):
                theirs = nx.multi_source_dijkstra_path_length(
                    G, set(sources), cutoff=radius)
                mine = ball(g, sources, radius)
                assert mine == theirs
                assert list(mine.values()) == sorted(mine.values())


class TestDiameter:
    def test_matches_networkx_on_random_connected_graphs(self):
        # A random spanning tree keeps every draw connected; extra edges
        # at each density range from trees to nearly complete graphs.
        rng = random.Random(8)
        for n in range(1, 31):
            for density in (0.0, 0.05, 0.2, 0.6):
                edges = [(v, rng.randrange(v)) for v in range(1, n)]
                edges += [(u, v) for u in range(n) for v in range(u + 1, n)
                          if rng.random() < density]
                g = Graph(n, edges)
                assert diameter(g) == nx.diameter(to_nx(g)), (n, edges)

    def test_pinned_graphs(self):
        assert diameter(Graph(1, [])) == 0
        assert diameter(complete(2)) == 1
        for n in range(1, 12):
            assert diameter(path(n)) == n - 1
            assert diameter(complete(n)) == min(n - 1, 1)
        for n in range(3, 12):
            assert diameter(cycle(n)) == n // 2
        assert [diameter(b()) for b in (petersen, heawood, mcgee)] == [2, 3, 4]

    def test_disconnected_graph_rejected(self):
        # No ball ever fills; the sweep would stop when none grows, at the
        # largest eccentricity within a component. The diameter is
        # undefined.
        g = Graph(4, [(0, 1), (2, 3)])
        with pytest.raises(PreconditionError):
            diameter(g)


class TestGirth:
    def test_matches_networkx_on_random_graphs(self):
        # No spanning tree: the draws include forests and disconnected
        # graphs, whose girth is the least over their components.
        rng = random.Random(9)
        for n in range(1, 31):
            for density in (0.0, 0.05, 0.2, 0.6):
                edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                         if rng.random() < density]
                g = Graph(n, edges)
                expected = nx.girth(to_nx(g))
                assert girth(g) == (None if expected == math.inf
                                    else expected), (n, edges)
        for seed in range(10):
            g = random_regular(14, 3, seed)
            assert girth(g) == nx.girth(to_nx(g))

    def test_pinned_graphs(self):
        assert girth(Graph(1, [])) is None
        assert girth(complete(2)) is None
        for n in range(1, 12):
            assert girth(path(n)) is None
        for n in range(3, 12):
            assert girth(cycle(n)) == n
        assert girth(complete(4)) == 3
        assert [girth(b()) for b in (petersen, heawood, mcgee)] == [5, 6, 7]
        assert girth(lcf(*TUTTE_COXETER_LCF)) == 8
        assert girth(lcf(*FOSTER_LCF)) == 10

    def test_tree_count_matches_bfs(self):
        # A vertex fails the tree count at radius r iff a dict BFS from it
        # finds a second parent, or an edge inside B(v, r-1) that is not
        # in the BFS tree. Radii past the last level repeat it.
        rng = random.Random(34)
        graphs = [random_regular(2 * rng.randint(3, 12), rng.choice((3, 4)),
                                 seed) for seed in range(20)]
        for _ in range(60):
            n = rng.randint(1, 24)
            density = rng.choice((0.05, 0.1, 0.2, 0.4))
            graphs.append(Graph(n, [(u, v) for u in range(n)
                                    for v in range(u + 1, n)
                                    if rng.random() < density]))
        for g in graphs:
            failing = graph._tree_test(g)
            levels = list(graph._balls(g))
            last = len(levels) - 1
            for r in range(1, last + 3):
                got = failing(levels[min(r - 1, last)], levels[min(r, last)])
                assert got == [v for v in range(g.n)
                               if not bfs_is_tree(g, v, r)], (g.edges(), r)

    def test_shortest_cycle_in_later_component(self):
        # A path on 0..5, then a 4-cycle on 6..9 beside a 7-cycle.
        edges = [(i, i + 1) for i in range(5)]
        edges += [(6, 7), (7, 8), (8, 9), (9, 6)]
        edges += [(10 + i, 10 + (i + 1) % 7) for i in range(7)]
        assert girth(Graph(17, edges)) == 4


class TestKthPower:
    def test_petersen_squared_is_k10(self):
        assert kth_power(petersen(), 2) == complete(10)

    def test_power_one_identity(self):
        g = petersen()
        assert kth_power(g, 1) == g

    def test_c6_cubed_complete(self):
        assert kth_power(cycle(6), 3) == complete(6)

    def test_matches_networkx_power(self):
        # The unchecked rows, masks and flag equal what the validating
        # constructor builds from networkx's power (Graph.__eq__ compares
        # adj only). n > 64: the masks span several machine words.
        rng = random.Random(36)
        graphs = ([Graph(1, []), path(2), path(9), lcf(*FOSTER_LCF)]
                  + [random_regular(12, 3, seed) for seed in range(5)]
                  + [random_regular(100, 3, 7)])
        for n in (5, 20, 70):  # a random tree plus random chords
            edges = [(v, rng.randrange(v)) for v in range(1, n)]
            edges += [(u, v) for u in range(n) for v in range(u)
                      if rng.random() < 0.05]
            graphs.append(Graph(n, edges))
        for g in graphs:
            for k in (1, 2, 3, 4):
                got = kth_power(g, k)
                expected = Graph(g.n, nx.power(to_nx(g), k).edges())
                assert ((got.adj, got.masks, got.connected)
                        == (expected.adj, expected.masks, True)), (g, k)
                assert hash(got) == hash(expected)

    def test_monotone_in_k(self):
        g = mcgee()
        prev = set()
        for k in range(1, 5):
            cur = set(kth_power(g, k).edges())
            assert prev <= cur
            prev = cur

    def test_degree_bound_over_random_cubic(self):
        m = bound_D(3, 3)
        count = 0
        for seed in range(60):
            n = 10 + 2 * (seed % 8)
            g = random_regular(n, 3, seed)
            count += 1
            g3 = kth_power(g, 3)
            assert all(g3.degree(v) <= m for v in range(n))
        assert count >= 50

    def test_tightness_on_mcgee(self):
        g3 = kth_power(mcgee(), 3)
        assert all(g3.degree(v) == 21 for v in range(24))


class TestStructuralReport:
    def test_petersen(self):
        r = structural_report(petersen(), 3)
        assert (r.girth, r.diameter, r.is_regular, r.max_degree) == (5, 2, True, 3)

    def test_c6_single_cycle(self):
        r = structural_report(cycle(6), 3)
        assert r.girth == 6 and r.diameter == 3
        assert len(r.two_k_cycles) == 1
        assert r.two_k_cycles_disjoint

    def test_heawood_intersecting_six_cycles(self):
        r = structural_report(heawood(), 3)
        assert r.girth == 6 and r.diameter == 3
        assert len(r.two_k_cycles) > 1
        assert not r.two_k_cycles_disjoint

    def test_mcgee(self):
        r = structural_report(mcgee(), 3)
        assert r.girth == 7 and r.diameter == 4
        assert r.two_k_cycles == ()

    def test_acyclic_girth_none(self):
        assert girth(path(5)) is None

    def test_cycle_count_matches_networkx(self):
        for g in (heawood(), petersen()):
            for length in (5, 6, 8):
                ours = enumerate_cycles(g, length)
                theirs = [c for c in nx.simple_cycles(to_nx(g), length_bound=length)
                          if len(c) == length]
                assert len(ours) == len(theirs)
                for c in ours:
                    assert len(set(c)) == length

    def test_cycles_match_networkx_canonically(self):
        # Forests, disconnected and non-regular graphs; the densities keep
        # the cycle counts far below the cap.
        rng = random.Random(31)
        for _ in range(80):
            n = rng.randint(1, 22)
            density = rng.choice((0.05, 0.1, 0.15, 0.2))
            g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                          if rng.random() < density])
            G = to_nx(g)
            for length in range(3, 9):
                ours = [tuple(c) for c in enumerate_cycles(g, length)]
                assert all(c == canonical_cycle(c) for c in ours)
                theirs = sorted(canonical_cycle(c) for c in nx.simple_cycles(
                    G, length_bound=length) if len(c) == length)
                assert sorted(ours) == theirs, (n, g.edges(), length)

    def test_report_matches_separate_queries(self):
        rng = random.Random(32)
        graphs = [build() for build in GRAPHS.values()]
        for _ in range(40):
            n = rng.randint(1, 24)
            density = rng.choice((0.0, 0.05, 0.1))
            edges = [(v, rng.randrange(v)) for v in range(1, n)]
            edges += [(u, v) for u in range(n) for v in range(u + 1, n)
                      if rng.random() < density]
            graphs.append(Graph(n, edges))
        for g in graphs:
            for k in (2, 3, 4):
                r = structural_report(g, k)
                cycles = tuple(map(tuple, enumerate_cycles(g, 2 * k)))
                assert (r.girth, r.diameter, r.two_k_cycles) == (
                    girth(g), diameter(g), cycles), (g, k)

    def test_cycle_cap(self, monkeypatch):
        assert len(enumerate_cycles(complete(6), 3)) == 20
        monkeypatch.setattr(graph, "DEFAULT_CYCLE_CAP", 5)
        with pytest.raises(CapExceededError):
            enumerate_cycles(complete(6), 3)

    def test_shortest_cycle_witness(self):
        g = petersen()
        c = classify(g, 3).short_cycle
        assert len(c) == 5
        for i in range(5):
            assert g.has_edge(c[i], c[(i + 1) % 5])


class TestClassify:
    def test_k4_short_cycle(self):
        label = classify(complete(4), 3)
        assert label.kind == CaseLabel.SHORT_CYCLE
        assert len(label.short_cycle) == 3

    def test_heawood_intersecting(self):
        label = classify(heawood(), 3)
        assert label.kind == CaseLabel.INTERSECTING
        c1, c2 = label.intersecting_cycles
        assert len(c1) == len(c2) == 6
        assert set(c1) & set(c2)

    def test_mcgee_main_case(self):
        assert classify(mcgee(), 3).kind == CaseLabel.MAIN_CASE

    def test_non_regular_first(self):
        g = Graph(10, petersen().edges()[1:])
        label = classify(g, 3)
        assert label.kind == CaseLabel.NON_REGULAR
        assert g.degree(label.low_degree_vertex) == 2

    def test_non_regular_witness_is_the_least_low_vertex(self):
        # degrees 3, 3, 2, 2, 3, 1, 3, 2, 2, 3: vertex 5 is lower than
        # vertex 2, but 2 is the least vertex of degree below 3
        drop = {(2, 3), (5, 7), (5, 8)}
        g = Graph(10, [e for e in petersen().edges() if e not in drop])
        assert [g.degree(v) for v in range(10)] == [3, 3, 2, 2, 3, 1,
                                                    3, 2, 2, 3]
        assert g.connected and g.max_degree == 3 and not g.is_regular()
        assert classify(g, 3) == CaseLabel(CaseLabel.NON_REGULAR,
                                           low_degree_vertex=2)

    def test_ball_counting_bound(self):
        # classify's argument that MainCase forces diameter > k: in a
        # regular graph of girth >= 2k, |ball(v, k)| >= 1 + D - c(v),
        # where c(v) counts the 2k-cycles through v.
        rows = tight = 0
        for name, build in GRAPHS.items():
            g = build()
            gir = girth(g)
            for k in KS:
                if not g.is_regular() or (gir is not None and gir < 2 * k):
                    continue
                D = bound_D(k, g.max_degree)
                c = [0] * g.n
                for cyc in enumerate_cycles(g, 2 * k):
                    for v in cyc:
                        c[v] += 1
                for v in range(g.n):
                    size = len(ball(g, [v], k))
                    assert size >= 1 + D - c[v], (name, k, v)
                    tight += size == 1 + D - c[v]
                rows += 1
        assert rows and tight
        # Tight on every McGee vertex at k = 3: 22 = 1 + 21.
        assert {len(ball(mcgee(), [v], 3)) for v in range(24)} == {22}

    def test_rejects_small_k_or_degree(self):
        with pytest.raises(PreconditionError):
            classify(petersen(), 2)
        with pytest.raises(PreconditionError):
            classify(cycle(6), 3)


# The (graph, k) rows of tests/data/golden_analysis.json labelled MainCase.
MAIN_CASES = [("mcgee", 3), ("tutte_coxeter", 3)] + [
    (name, k) for name in ("foster", "foster_lift2", "foster_lift3",
                           "foster_lift5") for k in (3, 4)]


class TestSpecialFrame:
    @pytest.mark.parametrize("name,k", MAIN_CASES,
                             ids=[f"{n}_k{k}" for n, k in MAIN_CASES])
    def test_frame_invariants(self, name, k):
        # Everything the frame search guarantees by construction (see
        # find_special_frame), recomputed from BFS distances in g.
        g = GRAPHS[name]()
        f = find_special_frame(g, k)
        d = {z: ball(g, [z]) for z in (f.x1, f.x2, f.y1, f.y2, f.v, f.w)}
        assert d[f.x1][f.y1] == k + 1
        assert g.has_edge(f.x1, f.x2) and g.has_edge(f.y1, f.y2)
        assert d[f.x2][f.y2] >= k + 1
        assert len(f.path) == k + 2
        assert f.path[0] == f.x1 and f.path[-1] == f.y1
        for a, b in zip(f.path, f.path[1:]):
            assert g.has_edge(a, b)
        assert f.v == f.path[2] and f.w in (f.path[1], f.path[3])
        assert d[f.v][f.x1] >= 2 and d[f.v][f.y1] >= 2
        assert f.w not in (f.x2, f.y2)
        assert all(d[f.v][z] <= k for z in f.frame_vertices())
        assert d[f.w][f.x1] <= k and d[f.w][f.y1] <= k
        assert sorted(f.order) == list(range(g.n))
        assert f.order[:4] == f.frame_vertices()
        assert f.order[-2:] == (f.w, f.v)

    def test_order_shape(self):
        g = mcgee()
        f = find_special_frame(g, 3)
        assert sorted(f.order) == list(range(g.n))
        assert f.order[:4] == (f.x1, f.x2, f.y1, f.y2)
        assert f.order[-2:] == (f.w, f.v)
        d = g.distances()
        mids = f.order[4:-2]
        dists = [min(d(u, f.v), d(u, f.w)) for u in mids]
        assert dists == sorted(dists, reverse=True)

    def test_distance_order(self):
        # path 0-1-2-3-4-5: distances to {2} are 2,1,0,1,2,3.
        g = path(6)
        assert distance_order(g, [2]) == (5, 0, 4, 1, 3, 2)
        assert distance_order(g, [2], head=(4,), tail=(2, 1)) == \
            (4, 5, 0, 3, 2, 1)
        assert distance_order(g, [0, 5], tail=(0,)) == (2, 3, 1, 4, 5, 0)

    def test_precondition_failures(self):
        with pytest.raises(PreconditionError):
            find_special_frame(petersen(), 3)
        with pytest.raises(PreconditionError):
            find_special_frame(cycle(6), 3)

    @pytest.mark.parametrize("build", [lambda: complete(4), petersen, heawood],
                             ids=["K4", "petersen", "heawood"])
    def test_no_frame_at_diameter_at_most_k(self, build):
        # A graph of diameter <= k labelled MainCase (which classify's
        # argument rules out) has no (x1, y1) at distance k + 1.
        g = build()
        assert diameter(g) <= 3
        with pytest.raises(NoFrameError, match="contradicts"):
            find_special_frame(g, 3, label=CaseLabel(CaseLabel.MAIN_CASE))

    def test_deterministic(self):
        assert find_special_frame(mcgee(), 3) == find_special_frame(mcgee(), 3)
