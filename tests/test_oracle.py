import gc
import hashlib
import itertools
import random
from itertools import combinations

import pytest

from powerpaint import oracle
from powerpaint.errors import (CapExceededError, PowerPaintError,
                               PreconditionError)
from powerpaint.game import TokenBudgets
from powerpaint.gen_io import complete, cycle, path, petersen, prism
from powerpaint.graph import Graph, kth_power
from powerpaint.oracle import (
    LISTER,
    PAINTER,
    PaintabilitySolver,
    _clique_painter_wins,
    _peel,
    solve_choosability,
    solve_paintability,
)

uni = TokenBudgets.uniform


class TestPaintability:
    def test_odd_cycle_not_two_paintable(self):
        assert solve_paintability(cycle(5), uni(5, 2)) == LISTER

    def test_c5_three_paintable(self):
        assert solve_paintability(cycle(5), uni(5, 3)) == PAINTER

    def test_even_cycles_two_paintable(self):
        assert solve_paintability(cycle(4), uni(4, 2)) == PAINTER
        assert solve_paintability(cycle(6), uni(6, 2)) == PAINTER

    def test_p3_two_paintable(self):
        assert solve_paintability(path(3), uni(3, 2)) == PAINTER

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_clique_thresholds(self, n):
        assert solve_paintability(complete(n), uni(n, n)) == PAINTER
        assert solve_paintability(complete(n), uni(n, n - 1)) == LISTER

    def test_budget_monotonicity(self):
        graphs = [cycle(4), cycle(5), path(4), complete(3),
                  Graph(4, [(0, 1), (1, 2), (2, 3), (0, 2)])]
        for g in graphs:
            last = LISTER
            for t in range(1, g.n + 1):
                w = solve_paintability(g, uni(g.n, t))
                if last == PAINTER:
                    assert w == PAINTER
                last = w

    def test_pointwise_monotonicity(self):
        g = cycle(4)
        for f in itertools.product((1, 2), repeat=4):
            if solve_paintability(g, TokenBudgets(list(f))) == PAINTER:
                bigger = TokenBudgets([x + 1 for x in f])
                assert solve_paintability(g, bigger) == PAINTER

    def test_memo_transparency(self):
        graphs = [cycle(5), path(4), complete(4),
                  Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0),
                            (0, 3)])]
        for g in graphs:
            for t in (1, 2, 3):
                expected = PAINTER if _raw_minimax(g, [t] * g.n) else LISTER
                assert solve_paintability(g, uni(g.n, t)) == expected, (g, t)

    def test_random_sweep_matches_raw_minimax(self):
        rng = random.Random(7)
        for i in range(90):
            n = rng.randint(2, 6)
            p = (0.3, 0.5, 0.7)[i % 3]
            g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                          if rng.random() < p])
            f = [rng.randint(1, 3) for _ in range(n)]
            expected = PAINTER if _raw_minimax(g, f) else LISTER
            assert solve_paintability(g, TokenBudgets(f)) == expected, (
                g.edges(), f)

    def test_replies_are_the_maximal_independent_sets(self):
        g = path(6)
        solver = PaintabilitySolver(g, uni(6, 2))

        def as_sets(vs, forced=()):
            replies = list(solver._replies(sum(1 << v for v in vs),
                                           sum(1 << v for v in forced)))
            assert len(replies) == len(set(replies))
            for colored, touched in replies:
                assert touched == _union(g, colored)
            return {frozenset(v for v in vs if m >> v & 1) for m, _ in replies}

        assert as_sets([0, 1, 2, 3, 4]) == {
            frozenset(s) for s in ([0, 2, 4], [0, 3], [1, 3], [1, 4])}
        assert as_sets([1, 2, 3, 5]) == {
            frozenset(s) for s in ([1, 3, 5], [2, 5])}
        assert as_sets([4]) == {frozenset([4])}
        # forced vertices: an adjacent pair leaves no reply, and otherwise
        # the replies are the maximal independent sets that contain them
        assert as_sets([0, 1, 2, 3, 4], forced=[2, 3]) == set()
        assert as_sets([0, 1, 2, 3, 4], forced=[3]) == {
            frozenset(s) for s in ([0, 3], [1, 3])}
        assert as_sets([0, 1, 2, 3, 4], forced=[0, 4]) == {
            frozenset([0, 2, 4])}

    def test_forced_replies_on_random_reveals(self):
        # the maximal independent subsets of the reveal that contain the
        # forced set, in the order of an include-first walk along the
        # vertices, which is the order the search tries them in
        rng = random.Random(13)
        for i in range(200):
            n = rng.randint(1, 9)
            g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                          if rng.random() < (0.2, 0.4, 0.6)[i % 3]])
            reveal = rng.randrange(1, 1 << n)
            forced = rng.randrange(1 << n) & reveal
            vs = [v for v in range(n) if reveal >> v & 1]
            independent = [m for m in range(1 << n) if not m & ~reveal
                           and not m & _union(g, m)]
            expected = sorted(
                (m for m in independent if m & forced == forced
                 and not any(m | 1 << v in independent for v in vs
                             if not m >> v & 1)),
                key=lambda m: [not m >> v & 1 for v in vs])
            solver = PaintabilitySolver(g, uni(n, 1))
            got = [m for m, _ in solver._replies(reveal, forced)]
            assert got == expected, (g.edges(), reveal, forced)

    def test_vertex_cap(self):
        g = cycle(13)
        with pytest.raises(CapExceededError):
            solve_paintability(g, uni(13, 2))

    def test_vertex_cap_is_read_per_solver(self, monkeypatch):
        monkeypatch.setattr(oracle, "DEFAULT_VERTEX_CAP", 13)
        g = cycle(13)
        assert solve_paintability(g, uni(13, 2)) == LISTER

    def test_budgets_above_every_degree_are_decided_at_the_root(self):
        # peeling deletes every vertex at the root, whatever the budgets
        for g, t in [(complete(11), 12), (cycle(12), 10 ** 9)]:
            solver = PaintabilitySolver(g, uni(g.n, t))
            assert solver.solve() == PAINTER
            assert len(solver.memo) == 0

    def test_winning_reveal_reported(self):
        g = cycle(5)
        solver = PaintabilitySolver(g, uni(5, 2))
        reveal = solver.winning_reveal({v: 2 for v in range(5)})
        assert reveal is not None and reveal
        g4 = cycle(4)
        solver = PaintabilitySolver(g4, uni(4, 2))
        assert solver.winning_reveal({v: 2 for v in range(4)}) is None

    @pytest.mark.parametrize("n", [3, 7])
    def test_budget_length_must_match(self, n):
        with pytest.raises(PowerPaintError,
                           match="budget length does not match vertex count"):
            solve_paintability(cycle(5), uni(n, 2))


K33 = Graph(6, [(i, j) for i in range(3) for j in range(3, 6)])


@pytest.mark.parametrize("g, t, verdict, states, digest", [
    (cycle(10), 2, PAINTER, 29, "c2e8dd8f4e3b72609f1efe9cd97c1605"),
    (prism(4), 3, PAINTER, 11, "1ecdfbe8b06510381d7ac05c8646e4c9"),
    (K33, 3, PAINTER, 10, "a51351872ca1160d2e1168cbe3caace2"),
    (K33, 2, LISTER, 12, "cd7b127de46a0ca6276bd814cea89bb6"),
    (petersen(), 2, LISTER, 16, "dec769636b289fc1b06107c818198f06"),
    (cycle(5), 2, LISTER, 1, "b45cbace3cb9442e6bcd03594ab50ba7"),
], ids=["C10/2", "prism4/3", "K33/3", "K33/2", "Petersen/2", "C5/2"])
def test_search_is_pinned(g, t, verdict, states, digest):
    # the verdict, the memo's size and its every entry: a faster node
    # must search the same states and store the same verdicts
    solver = PaintabilitySolver(g, uni(g.n, t))
    assert solver.solve() == verdict
    assert len(solver.memo) == states
    memo = repr(sorted(solver.memo.items())).encode()
    assert hashlib.md5(memo).hexdigest() == digest


def test_a_solve_leaves_no_cyclic_garbage():
    gc.collect()
    gc.disable()
    try:
        for g, t in [(cycle(10), 2), (prism(4), 3)]:
            PaintabilitySolver(g, uni(g.n, t)).solve()
        solver = PaintabilitySolver(petersen(), uni(10, 2))
        assert solver.winning_reveal({v: 2 for v in range(10)})
        del solver
        assert gc.collect() == 0
    finally:
        gc.enable()


class TestPeeling:
    @pytest.mark.parametrize("g, t", [(cycle(12), 3), (cycle(9), 3),
                                      (path(8), 2)])
    def test_peelable_roots_need_no_search(self, g, t):
        solver = PaintabilitySolver(g, uni(g.n, t))
        assert solver.solve() == PAINTER
        assert len(solver.memo) == 0

    def test_budgets_near_degree_match_raw_minimax(self):
        # budgets deg-1, deg, deg+1 put vertices on both sides of the
        # peeling threshold; every lister win's reveal is checked too
        rng = random.Random(11)
        wins = {PAINTER: 0, LISTER: 0}
        for i in range(400):
            n = rng.randint(2, 6)
            p = (0.3, 0.5, 0.7)[i % 3]
            g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                          if rng.random() < p])
            f = [max(1, g.degree(v) + rng.choice((-1, 0, 1)))
                 for v in range(n)]
            expected = PAINTER if _raw_minimax(g, f) else LISTER
            solver = PaintabilitySolver(g, TokenBudgets(f))
            assert solver.solve() == expected, (g.edges(), f)
            wins[expected] += 1
            if expected == LISTER:
                reveal = solver.winning_reveal(dict(enumerate(f)))
                assert _reveal_wins(g, f, reveal), (g.edges(), f, reveal)
        assert min(wins.values()) >= 100, wins

    def test_worklist_peel_matches_naive_fixpoint(self):
        rng = random.Random(3)
        for i in range(300):
            n = rng.randint(1, 10)
            g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                          if rng.random() < (0.2, 0.4, 0.6)[i % 3]])
            alive = rng.randrange(1 << n)
            tokens = tuple(rng.randint(1, 5) for _ in range(n))
            expected = {v for v in range(n) if alive >> v & 1}
            while low := {v for v in expected
                          if tokens[v] > len(expected.intersection(g.adj[v]))}:
                expected -= low
            peeled = _peel(g.masks, alive, tokens)
            assert peeled == sum(1 << v for v in expected), (
                g.edges(), alive, tokens)

    def test_peel_from_the_colored_neighbours_matches_full_peel(self):
        # a reply to a peeled state can newly peel only the neighbours of
        # the vertices it colors
        rng = random.Random(17)
        checked = peeled = 0
        for i in range(300):
            n = rng.randint(2, 9)
            g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                          if rng.random() < (0.3, 0.5, 0.7)[i % 3]])
            tokens = tuple(rng.randint(1, max(1, g.degree(v)))
                           for v in range(n))
            alive = _peel(g.masks, (1 << n) - 1, tokens)
            solver = PaintabilitySolver(g, uni(n, 1))
            reveals = list(solver._reveals(alive))
            if not reveals:
                continue
            for reveal in rng.sample(reveals, min(4, len(reveals))):
                forced = sum(1 << v for v in range(n)
                             if reveal >> v & 1 and tokens[v] == 1)
                for colored, touched in solver._replies(reveal, forced):
                    new_tokens = tuple(t - ((reveal & ~colored) >> v & 1)
                                       for v, t in enumerate(tokens))
                    rest = alive & ~colored
                    full = _peel(g.masks, rest, new_tokens)
                    assert _peel(g.masks, rest, new_tokens,
                                 touched & rest) == full, (
                        g.edges(), alive, tokens, reveal, colored)
                    checked += 1
                    peeled += full != rest
        assert checked >= 500 and peeled >= 100, (checked, peeled)


def _union(g, subset):
    """The union of the neighbourhoods of the vertices in ``subset``."""
    return sum(1 << u for u in set().union(
        *(g.adj[v] for v in range(g.n) if subset >> v & 1)))


class TestRevealDominance:
    @staticmethod
    def _no_isolated_subsets(g, alive):
        vs = [v for v in range(g.n) if alive >> v & 1]
        return {sum(1 << v for v in s)
                for r in range(1, len(vs) + 1)
                for s in itertools.combinations(vs, r)
                if all(any(u in g.adj[v] for u in s) for v in s)}

    @pytest.mark.parametrize("g, count", [(cycle(10), 276), (prism(4), 165)])
    def test_root_reveals_have_no_isolated_vertex(self, g, count):
        solver = PaintabilitySolver(g, uni(g.n, 2))
        alive = (1 << g.n) - 1
        reveals = list(solver._reveals(alive))
        assert len(reveals) == len(set(reveals)) == count
        assert set(reveals) == self._no_isolated_subsets(g, alive)
        assert reveals[0] == alive

    def test_reveals_on_random_alive_sets(self):
        rng = random.Random(5)
        for i in range(60):
            n = rng.randint(1, 8)
            g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                          if rng.random() < 0.4])
            alive = rng.randrange(1 << n)
            solver = PaintabilitySolver(g, uni(n, 1))
            reveals = list(solver._reveals(alive))
            assert len(reveals) == len(set(reveals))
            assert set(reveals) == self._no_isolated_subsets(g, alive), (
                g.edges(), alive)

    def test_seven_and_eight_vertices_match_raw_minimax(self):
        # budgets deg-1..deg+1, capped at 3 to keep the shortcut-free
        # reference near 2 s; every lister win's reveal is checked too
        rng = random.Random(2)
        wins = {PAINTER: 0, LISTER: 0}
        for i in range(12):
            n = rng.randint(7, 8)
            p = (0.4, 0.6)[i % 2]
            g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                          if rng.random() < p])
            f = [max(1, min(3, g.degree(v) + rng.choice((-1, 0, 1))))
                 for v in range(n)]
            expected = PAINTER if _raw_minimax(g, f) else LISTER
            solver = PaintabilitySolver(g, TokenBudgets(f))
            assert solver.solve() == expected, (g.edges(), f)
            wins[expected] += 1
            if expected == LISTER:
                reveal = solver.winning_reveal(dict(enumerate(f)))
                assert _reveal_wins(g, f, reveal), (g.edges(), f, reveal)
        assert min(wins.values()) >= 3, wins

    def test_winning_reveal_avoids_peeled_vertices(self):
        # C5 at 2 tokens is a lister win; the pendant vertex 5 with 2
        # tokens peels, so the reveal comes from the cycle alone
        g = Graph(6, [(i, (i + 1) % 5) for i in range(5)] + [(0, 5)])
        f = [2] * 6
        reveal = PaintabilitySolver(g, TokenBudgets(f)).winning_reveal(
            dict(enumerate(f)))
        assert reveal and 5 not in reveal
        assert _reveal_wins(g, f, reveal)


def _reveal_wins(g, tokens, reveal):
    """True if every independent subset of the reveal drains a vertex
    to zero or leaves a state that ``_raw_minimax`` scores as a lister
    win."""
    reveal = sorted(reveal)
    for m in range(2 ** len(reveal)):
        colored = {v for i, v in enumerate(reveal) if m >> i & 1}
        if any(u in g.adj[v] for u in colored for v in colored):
            continue
        drained = [v for v in reveal if v not in colored]
        if any(tokens[v] == 1 for v in drained):
            continue
        left = [t - (v in drained) for v, t in enumerate(tokens)]
        alive = [v for v in range(g.n) if v not in colored]
        if _raw_minimax(g, left, alive):
            return False
    return True


class TestCliqueFastPath:
    def test_formula_matches_general_search(self):
        # cross-check the sorted-token criterion against a shortcut-free
        # minimax on every clique state within desk reach
        for n, max_tok in ((2, 4), (3, 4), (4, 3)):
            g = complete(n)
            for f in itertools.product(range(1, max_tok + 1), repeat=n):
                assert _clique_painter_wins(f) == _raw_minimax(g, f), (n, f)

    def test_petersen_squared_thresholds(self):
        k10 = kth_power(petersen(), 2)
        assert solve_paintability(k10, uni(10, 9)) == LISTER
        assert solve_paintability(k10, uni(10, 10)) == PAINTER


def _raw_minimax(g, tokens, alive=None):
    """Reference solver with no clique shortcut, no peeling and no
    reply pruning; its memo is keyed by the unpeeled state. ``alive``
    defaults to every vertex."""
    adj = g.adj
    memo = {}

    def independent(vs):
        return all(v not in adj[u] for i, u in enumerate(vs)
                   for v in vs[i + 1:])

    def painter_wins(alive, tok):
        if not alive:
            return True
        key = (alive, tuple(sorted(tok.items())))
        if key in memo:
            return memo[key]
        result = _raw_search(alive, tok)
        memo[key] = result
        return result

    def _raw_search(alive, tok):
        for r in range(1, 2 ** len(alive)):
            reveal = [v for i, v in enumerate(alive) if r >> i & 1]
            survives = False
            # every reply is tried, the largest first, so painter wins
            # are found without draining through the small replies
            for m in sorted(range(2 ** len(reveal)),
                            key=lambda m: -bin(m).count("1")):
                indep = tuple(v for i, v in enumerate(reveal) if m >> i & 1)
                if not independent(indep):
                    continue
                new_alive = tuple(v for v in alive if v not in indep)
                new_tok = dict(tok)
                dead = False
                for v in reveal:
                    if v in indep:
                        del new_tok[v]
                    else:
                        new_tok[v] -= 1
                        if new_tok[v] == 0:
                            dead = True
                if dead:
                    continue
                if painter_wins(new_alive, new_tok):
                    survives = True
                    break
            if not survives:
                return False
        return True

    alive = tuple(range(g.n)) if alive is None else tuple(alive)
    return painter_wins(alive, {v: tokens[v] for v in alive})


class TestChoosability:
    def test_even_cycle_two_choosable(self):
        assert solve_choosability(cycle(4), 2)
        assert solve_choosability(cycle(6), 2)

    def test_c5_not_two_choosable(self):
        assert not solve_choosability(cycle(5), 2)

    def test_k4_not_three_choosable(self):
        assert not solve_choosability(complete(4), 3)

    def test_cliques_choosable_at_n(self):
        for n in (2, 3, 4):
            assert solve_choosability(complete(n), n)
            assert not solve_choosability(complete(n), n - 1) or n == 1

    def test_complete_bipartite_choosability(self):
        # K2,3 is 2-choosable (a theta graph); K2,4 is the classic
        # bipartite graph that is not
        k23 = Graph(5, [(i, j) for i in range(2) for j in range(2, 5)])
        assert solve_choosability(k23, 2)
        k24 = Graph(6, [(i, j) for i in range(2) for j in range(2, 6)])
        assert not solve_choosability(k24, 2)
        assert solve_choosability(k24, 3)

    @pytest.mark.parametrize("edges, t, verdict", [
        ([(i, (i + 1) % 5) for i in range(5)], 2, False),
        ([(i, j) for i in range(2) for j in range(2, 6)], 2, False),
        ([(i, j) for i in range(2) for j in range(2, 6)], 3, True),
    ])
    def test_pendant_vertex_keeps_verdict(self, edges, t, verdict):
        n = max(max(e) for e in edges) + 1
        assert solve_choosability(Graph(n, edges), t) == verdict
        assert solve_choosability(Graph(n + 1, edges + [(0, n)]), t) == verdict

    def test_caps(self):
        with pytest.raises(CapExceededError,
                           match="^9 vertices exceeds choosability cap 8$"):
            solve_choosability(cycle(9), 2)
        with pytest.raises(CapExceededError):
            solve_choosability(cycle(9), 3)  # every vertex would peel
        with pytest.raises(CapExceededError,
                           match="^list size 5 exceeds choosability cap 4$"):
            solve_choosability(cycle(4), 5)


def _reference_choosability(game_graph: Graph, t: int) -> bool:
    """A set-based enumeration of canonical list assignments, kept as
    an independent check of ``solve_choosability``: the same caps, peel
    and order, with the prefix colourings walked over tuples and sets."""
    n = game_graph.n
    if n > 8:
        raise CapExceededError(f"{n} vertices exceeds choosability cap 8")
    if t > 4:
        raise CapExceededError(f"list size {t} exceeds choosability cap 4")
    if t < 1:
        raise PreconditionError("list size must be >= 1")
    adj = game_graph.masks
    core = _peel(adj, (1 << n) - 1, [t] * n)
    if core.bit_count() <= 1:
        return True

    # Put the highest-degree vertex last: its list choice is the one
    # eliminated analytically, and prefix vertices keep graph edges early.
    order = sorted((v for v in range(n) if core >> v & 1),
                   key=lambda v: ((adj[v] & core).bit_count(), v))
    last = order[-1]
    prefix = order[:-1]
    prefix_index = {v: i for i, v in enumerate(prefix)}
    earlier_nb = [[prefix_index[u] for u in game_graph.adj[v]
                   if u in prefix_index and prefix_index[u] < i]
                  for i, v in enumerate(prefix)]
    last_neighbors = [i for i, v in enumerate(prefix) if adj[last] >> v & 1]

    lists: list[tuple[int, ...]] = [()] * len(prefix)

    def last_vertex_blocked(used: int) -> bool:
        # Intersect colors on last's neighborhood over all proper
        # prefix colorings, starting from every color in use (at least
        # t: the first prefix vertex brings t new ones); >= t shared
        # colors means some list for the last vertex is uncolorable.
        blocked = set(range(used))
        coloring = [0] * len(prefix)

        def colorings(i: int) -> bool:
            if i == len(prefix):
                blocked.intersection_update(
                    coloring[j] for j in last_neighbors)
                return len(blocked) >= t
            for c in lists[i]:
                if all(coloring[j] != c for j in earlier_nb[i]):
                    coloring[i] = c
                    if not colorings(i + 1):
                        return False
            return True

        return colorings(0)

    def assign(i: int, used: int) -> bool:
        """Enumerate canonical lists for prefix vertex i; False once a
        bad assignment is found."""
        if i == len(prefix):
            return not last_vertex_blocked(used)
        for new in range(t + 1):
            fresh = tuple(range(used, used + new))
            for old in combinations(range(used), t - new):
                lists[i] = old + fresh
                if not assign(i + 1, used + new):
                    return False
        return True

    return assign(0, 0)


def _cored_graphs(seed, count):
    """Seeded random (graph, t) pairs whose t-peeled core keeps at least
    two vertices: t = 2 on up to 7 vertices, t = 3 on up to 5."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        t = rng.choice((2, 2, 3))
        n = rng.randint(t + 1, 7 if t == 2 else 5)
        p = rng.choice((0.3, 0.45, 0.6, 0.8))
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                      if rng.random() < p])
        if _peel(g.masks, (1 << n) - 1, [t] * n).bit_count() >= 2:
            out.append((g, t))
    return out


def test_choosability_matches_the_set_based_reference():
    cases = _cored_graphs(19, 240)
    verdicts = [_reference_choosability(g, t) for g, t in cases]
    assert min(verdicts.count(True), verdicts.count(False)) >= 10
    for (g, t), verdict in zip(cases, verdicts):
        assert solve_choosability(g, t) == verdict, (g.edges(), t)
