import itertools
import random

import pytest

from powerpaint.errors import CapExceededError
from powerpaint.game import TokenBudgets
from powerpaint.gen_io import complete, cycle, path, petersen, prism
from powerpaint.graph import Graph, kth_power
from powerpaint.oracle import (
    LISTER,
    PAINTER,
    PaintabilitySolver,
    _clique_painter_wins,
    greedy_color,
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
        solver = PaintabilitySolver(path(6), uni(6, 2))

        def as_sets(vs):
            replies = list(solver._replies(vs))
            assert len(replies) == len(set(replies))
            return {frozenset(v for v in vs if m >> v & 1) for m in replies}

        assert as_sets([0, 1, 2, 3, 4]) == {
            frozenset(s) for s in ([0, 2, 4], [0, 3], [1, 3], [1, 4])}
        assert as_sets([1, 2, 3, 5]) == {
            frozenset(s) for s in ([1, 3, 5], [2, 5])}
        assert as_sets([4]) == {frozenset([4])}

    def test_vertex_cap(self):
        g = cycle(13)
        with pytest.raises(CapExceededError):
            solve_paintability(g, uni(13, 2))

    def test_caps_env_override(self, monkeypatch):
        monkeypatch.setenv("POWERPAINT_CAPS", "13,128")
        g = cycle(13)
        assert solve_paintability(g, uni(13, 2)) == LISTER

    def test_winning_reveal_reported(self):
        g = cycle(5)
        solver = PaintabilitySolver(g, uni(5, 2))
        reveal = solver.winning_reveal(set(range(5)), {v: 2 for v in range(5)})
        assert reveal is not None and reveal
        g4 = cycle(4)
        solver = PaintabilitySolver(g4, uni(4, 2))
        assert solver.winning_reveal(set(range(4)),
                                     {v: 2 for v in range(4)}) is None


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


def _raw_minimax(g, tokens):
    """Reference solver with no clique shortcut and no state
    abstraction (memo keys are exact states, not canonical forms)."""
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
            for m in range(2 ** len(reveal)):
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

    return painter_wins(tuple(range(g.n)),
                        {v: tokens[v] for v in range(g.n)})


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

    def test_paintable_implies_choosable_small(self):
        graphs = [cycle(4), cycle(5), path(4), complete(3), prism(3),
                  Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])]
        for g in graphs:
            for t in (2, 3):
                if solve_paintability(g, uni(g.n, t)) == PAINTER:
                    assert solve_choosability(g, t), (g, t)

    def test_caps(self):
        with pytest.raises(CapExceededError):
            solve_choosability(cycle(9), 2)
        with pytest.raises(CapExceededError):
            solve_choosability(cycle(4), 5)


class TestGreedyColor:
    def test_triangle_needs_three(self):
        col = greedy_color(complete(3), [0, 1, 2])
        assert sorted(col.values()) == [1, 2, 3]

    def test_petersen_squared_needs_ten(self):
        k10 = kth_power(petersen(), 2)
        col = greedy_color(k10, list(range(10)))
        assert len(set(col.values())) == 10

    def test_proper_and_within_bound(self):
        from powerpaint.gen_io import mcgee
        from powerpaint.painters import dispatch_painter
        g = mcgee()
        _, _, order = dispatch_painter(g, 3)
        g3 = kth_power(g, 3)
        col = greedy_color(g3, list(order))
        assert max(col.values()) <= 21 + 1
        for u, v in g3.edges():
            assert col[u] != col[v]
