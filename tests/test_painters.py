import pytest

from powerpaint import graph, painters
from powerpaint.errors import PreconditionError, StrategyInvariantViolation
from powerpaint.game import (
    GameState,
    TokenBudgets,
    play_game,
    pressure_lister,
    random_lister,
    validate_transcript,
)
from powerpaint.gen_io import (
    complete,
    cycle,
    heawood,
    mcgee,
    petersen,
    random_regular,
)
from powerpaint.graph import CaseLabel, Graph, bound_D, kth_power
from powerpaint.oracle import oracle_lister
from powerpaint.painters import (
    TheoremPainter,
    clique_painter,
    dispatch_painter,
    greedy_scan_painter,
    main_theorem_painter,
)
from test_golden_analysis import GRAPHS, KS, foster_lift


def fresh_state(budgets):
    return GameState(budgets)


class TestGreedyScan:
    def test_clique_one_per_round(self):
        g = complete(3)
        p = greedy_scan_painter([0, 1, 2])
        state = fresh_state(TokenBudgets.uniform(3, 3))
        assert p.choose_colors(state, g, {0, 1, 2}) == {0}

    def test_independent_set_all_colored(self):
        g = Graph(3, [])
        p = greedy_scan_painter([0, 1, 2])
        state = fresh_state(TokenBudgets.uniform(3, 1))
        assert p.choose_colors(state, g, {0, 1, 2}) == {0, 1, 2}

    def test_c4_scan_colors_opposite_pair(self):
        g = cycle(4)
        p = greedy_scan_painter([0, 1, 2, 3])
        state = fresh_state(TokenBudgets.uniform(4, 2))
        assert p.choose_colors(state, g, {0, 1, 2, 3}) == {0, 2}

    def test_rejects_non_permutation(self):
        with pytest.raises(PreconditionError):
            greedy_scan_painter([0, 0, 1])


class TestCliquePainter:
    def test_min_token_rule(self):
        g = complete(2)
        p = clique_painter()
        state = fresh_state(TokenBudgets([2, 1]))
        assert p.choose_colors(state, g, {0, 1}) == {1}

    def test_ties_by_id(self):
        g = complete(3)
        state = fresh_state(TokenBudgets.uniform(3, 2))
        assert clique_painter().choose_colors(state, g, {1, 2}) == {1}

    def test_k4_budget_4_beats_oracle_adversary(self):
        g = complete(4)
        budgets = TokenBudgets.uniform(4, 4)
        t = play_game(g, budgets, oracle_lister(g, budgets), clique_painter())
        assert t.winner == "painter"

    def test_k4_budget_3_loses_to_oracle_adversary(self):
        g = complete(4)
        budgets = TokenBudgets.uniform(4, 3)
        t = play_game(g, budgets, oracle_lister(g, budgets), clique_painter())
        assert t.winner == "lister"

    def test_k4_budget_4_beats_implemented_listers(self):
        g = complete(4)
        budgets = TokenBudgets.uniform(4, 4)
        for lister in [pressure_lister()] + [random_lister(s) for s in range(50)]:
            assert play_game(g, budgets, lister, clique_painter()).winner == \
                "painter"


class TestTheoremPainter:
    def test_precondition_on_petersen(self):
        with pytest.raises(PreconditionError):
            main_theorem_painter(petersen(), 3)

    def test_beats_random_listers_on_mcgee(self):
        g = mcgee()
        painter = TheoremPainter(g, 3, check_slack=True)
        game_graph = kth_power(g, 3)
        budgets = TokenBudgets.uniform(g.n, painter.M - 1)
        for seed in range(200):
            t = play_game(game_graph, budgets, random_lister(seed), painter)
            assert t.winner == "painter"
            assert validate_transcript(game_graph, budgets, t) is None
            assert painter.slack_violations == []
            assert sum(painter.constraint_count) > 0

    def test_beats_pressure_lister_on_mcgee(self):
        g = mcgee()
        painter = main_theorem_painter(g, 3)
        game_graph = kth_power(g, 3)
        budgets = TokenBudgets.uniform(g.n, painter.M - 1)
        t = play_game(game_graph, budgets, pressure_lister(), painter)
        assert t.winner == "painter"

    def test_no_counters_stay_in_range(self):
        g = mcgee()
        painter = main_theorem_painter(g, 3)
        game_graph = kth_power(g, 3)
        budgets = TokenBudgets.uniform(g.n, painter.M - 1)
        for seed in range(50):
            play_game(game_graph, budgets, random_lister(seed), painter)
            assert 0 <= painter.no_v <= 2
            assert 0 <= painter.no_w <= 2

    def test_deterministic_transcripts(self):
        g = mcgee()
        painter = main_theorem_painter(g, 3)
        game_graph = kth_power(g, 3)
        budgets = TokenBudgets.uniform(g.n, painter.M - 1)
        t1 = play_game(game_graph, budgets, random_lister(11), painter)
        t2 = play_game(game_graph, budgets, random_lister(11), painter)
        assert t1.to_json() == t2.to_json()

    def test_invariant_violation_on_starved_budget(self):
        # Far below the proven budget the strategy must eventually let a
        # vertex starve, and it reports that loudly instead of losing
        # silently.
        g = mcgee()
        painter = main_theorem_painter(g, 3)
        game_graph = kth_power(g, 3)
        budgets = TokenBudgets.uniform(g.n, 3)
        raised = False
        for seed in range(20):
            try:
                play_game(game_graph, budgets, pressure_lister(), painter)
            except StrategyInvariantViolation:
                raised = True
                break
        assert raised

    def test_frame_vertices_colored_before_exhaustion(self):
        g = mcgee()
        painter = main_theorem_painter(g, 3)
        game_graph = kth_power(g, 3)
        budgets = TokenBudgets.uniform(g.n, painter.M - 1)
        f = painter.frame
        for seed in range(100):
            t = play_game(game_graph, budgets, random_lister(seed), painter)
            colored_round = {}
            revealed_uncolored = {z: 0 for z in f.frame_vertices()}
            for r in t.rounds:
                for v in r.colored:
                    colored_round[v] = r.index
                for z in revealed_uncolored:
                    if z in r.revealed and colored_round.get(z, 10 ** 9) > r.index:
                        revealed_uncolored[z] += 1
            for z in (f.x1, f.y1):
                assert z in colored_round
                assert revealed_uncolored[z] < painter.M - 1


class TestDispatch:
    def test_non_regular_route(self):
        pet = petersen()
        g = Graph(10, pet.edges()[1:])
        painter, label, order = dispatch_painter(g, 3)
        assert label.kind == CaseLabel.NON_REGULAR
        target = label.low_degree_vertex
        assert g.degree(target) == 2
        assert order[-1] == target
        d = g.distances()
        dists = [d(u, target) for u in order]
        assert dists == sorted(dists, reverse=True)

    def test_short_cycle_route(self):
        painter, label, order = dispatch_painter(petersen(), 3)
        assert label.kind == CaseLabel.SHORT_CYCLE
        assert len(label.short_cycle) == 5
        v, w = order[-2], order[-1]
        assert petersen().has_edge(v, w)
        assert v in label.short_cycle and w in label.short_cycle

    def test_intersecting_route(self):
        painter, label, order = dispatch_painter(heawood(), 3)
        assert label.kind == CaseLabel.INTERSECTING
        w, v = order[-2], order[-1]
        c1, c2 = label.intersecting_cycles
        assert v in set(c1) & set(c2)
        assert heawood().has_edge(v, w)

    def test_main_route(self):
        painter, label, order = dispatch_painter(mcgee(), 3)
        assert label.kind == CaseLabel.MAIN_CASE
        assert isinstance(painter, TheoremPainter)
        assert order == painter.frame.order

    def test_builds_no_power_graph(self, monkeypatch):
        # The painter judges conflicts in the game graph it is handed.
        calls = []

        def counting(g, k):
            calls.append(k)
            return kth_power(g, k)

        monkeypatch.setattr(graph, "kth_power", counting)
        monkeypatch.setattr(painters, "kth_power", counting)
        dispatch_painter(mcgee(), 3)
        assert calls == []

    @pytest.mark.parametrize("builder", [
        mcgee, lambda: random_regular(200, 3, 1),
        lambda: random_regular(200, 3, 2)], ids=["mcgee", "rr200_1", "rr200_2"])
    def test_builds_no_distance_matrix(self, builder, monkeypatch):
        # Every query on the analysis path is a ball or the bitset
        # diameter; none needs the n^2 all-pairs matrix.
        calls = []
        monkeypatch.setattr(graph.DistanceMatrix, "from_graph",
                            lambda g: calls.append(g))
        g = builder()
        graph.structural_report(g, 3)
        graph.classify(g, 3)
        dispatch_painter(g, 3)
        assert calls == []

    def test_lazy_classify_matches_report_path(self):
        # The lazy decision reads the same facts as the full report.
        cases = [(build(), k) for build in GRAPHS.values() for k in KS]
        cases += [(random_regular(n, d, seed), k) for n in (10, 14, 20, 40)
                  for d in (3, 4) for seed in range(5) for k in (3, 4)]
        kinds = set()
        for g, k in cases:
            label = graph.classify(g, k)
            assert label == graph.classify(
                g, k, report=graph.structural_report(g, k)), (g, k)
            kinds.add(label.kind)
        assert {CaseLabel.NON_REGULAR, CaseLabel.SHORT_CYCLE,
                CaseLabel.INTERSECTING, CaseLabel.MAIN_CASE} == kinds

    def test_no_cycle_enumeration_above_girth(self, monkeypatch):
        # A Foster lift has girth >= 10 > 2k: it has no 2k-cycle to list.
        calls = []
        real = graph.enumerate_cycles

        def counting(g, length):
            calls.append(length)
            return real(g, length)

        monkeypatch.setattr(graph, "enumerate_cycles", counting)
        g = foster_lift(5, 5)
        report = graph.structural_report(g, 3)
        assert report.two_k_cycles == () and report.girth >= 10
        assert graph.classify(g, 3).kind == CaseLabel.MAIN_CASE
        dispatch_painter(g, 3)
        assert calls == []

    @pytest.mark.parametrize("builder,k", [
        (mcgee, 3), (lambda: foster_lift(5, 5), 3),
        (lambda: foster_lift(5, 5), 4)], ids=["mcgee3", "lift5_3", "lift5_4"])
    def test_classify_never_computes_diameter(self, builder, k, monkeypatch):
        # classify has no diameter step: a graph that reaches MainCase
        # has diameter above k (see its docstring), so none is computed.
        calls = []
        real = graph.diameter
        monkeypatch.setattr(graph, "diameter",
                            lambda g: calls.append(g) or real(g))
        assert graph.classify(builder(), k).kind == CaseLabel.MAIN_CASE
        assert calls == []

    def test_rejects_bad_inputs(self):
        with pytest.raises(PreconditionError):
            dispatch_painter(petersen(), 2)
        with pytest.raises(PreconditionError):
            dispatch_painter(cycle(8), 3)

    @pytest.mark.parametrize("builder,kind", [
        (lambda: Graph(10, petersen().edges()[1:]), CaseLabel.NON_REGULAR),
        (petersen, CaseLabel.SHORT_CYCLE),
        (heawood, CaseLabel.INTERSECTING),
    ])
    def test_fallback_routes_never_lose(self, builder, kind):
        g = builder()
        painter, label, _ = dispatch_painter(g, 3)
        assert label.kind == kind
        game_graph = kth_power(g, 3)
        budgets = TokenBudgets.uniform(g.n, bound_D(3, 3) - 1)
        for seed in range(100):
            t = play_game(game_graph, budgets, random_lister(seed), painter)
            assert t.winner == "painter"
        t = play_game(game_graph, budgets, pressure_lister(), painter)
        assert t.winner == "painter"
