import hashlib
import random

import pytest

from powerpaint import graph, painters
from powerpaint.errors import PreconditionError
from powerpaint.game import (
    GameState,
    PressureLister,
    RandomLister,
    TokenBudgets,
    play_game,
    validate_transcript,
)
from powerpaint.gen_io import (
    complete,
    cycle,
    heawood,
    lcf,
    mcgee,
    petersen,
    random_regular,
)
from powerpaint.graph import CaseLabel, Graph, bound_D, kth_power
from powerpaint.oracle import OracleLister
from powerpaint.painters import (
    CliquePainter,
    GreedyScanPainter,
    TheoremPainter,
    certify,
    dispatch_painter,
)
from powerpaint.selftest import (ScriptLister, late_vertex_attacks,
                                 outside_frame)
from test_golden_analysis import (FOSTER_LCF, GRAPHS, KS, TUTTE_COXETER_LCF,
                                  foster_lift)
from test_oracle import _raw_minimax


def fresh_state(budgets):
    return GameState(budgets)


def drains(f, game_graph):
    """For z = x2 and z = y2: {v, z, u} for each u outside the frame,
    then {v, z}, so z's last-chance rule fires."""
    return [ScriptLister(f"drain_{z}", [{f.v, z, u} for u in outside_frame(
        f, game_graph, f.v)] + [{f.v, z}]) for z in (f.x2, f.y2)]


# The four MainCase instances the frame rules are played on.
FRAME_CASES = pytest.mark.parametrize("builder,k", [
    (mcgee, 3), (lambda: lcf(*TUTTE_COXETER_LCF), 3),
    (lambda: lcf(*FOSTER_LCF), 3), (lambda: lcf(*FOSTER_LCF), 4)],
    ids=["mcgee3", "tutte_coxeter3", "foster3", "foster4"])


class ConverseLister:
    """``certify``'s converse for a scan in ``order``: each round reveals
    the violator u with its earliest alive neighbor before it in
    ``order``, u alone once none is left, and everything alive once u is
    colored. The scan colors the neighbor, so u loses a token a round."""

    name = "converse"

    def __init__(self, game_graph, order, u):
        self.u = u
        self.earlier = [x for x in order[:order.index(u)]
                        if game_graph.has_edge(u, x)]

    def reset(self):
        pass

    def choose_reveal(self, state, game_graph):
        if self.u not in state.tokens:
            return set(state.tokens)
        x = next((x for x in self.earlier if x in state.tokens), None)
        return {self.u} if x is None else {self.u, x}


class TestGreedyScan:
    def test_scan_matches_the_order_walk(self):
        # The scan visits the reveal sorted by rank; the walk it replaced
        # went through the whole order. Both color the same set, in the
        # greedy painter's call and in the theorem painter's, which
        # leaves the frame four out after coloring some of them.
        def walk(order, masks, revealed, colored, block, skip):
            for u in order:
                if u in revealed and u not in skip and not block >> u & 1:
                    colored.add(u)
                    block |= masks[u]
            return colored

        rng = random.Random(21)
        for _ in range(400):
            n = rng.randint(1, 30)
            p = rng.choice((0.1, 0.3, 0.6))
            g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                          if rng.random() < p])
            order = rng.sample(range(n), n)
            rank, masks = painters._rank(order), g.masks
            revealed = {v for v in range(n) if rng.random() < 0.5}
            assert painters._scan(rank, masks, revealed, set()) == walk(
                order, masks, revealed, set(), 0, ())
            four = set(rng.sample(range(n), min(n, 4)))
            pre, block = set(), 0
            for z in sorted(four & revealed):
                if rng.random() < 0.5 and not block >> z & 1:
                    pre.add(z)
                    block |= masks[z]
            assert painters._scan(
                rank, masks, revealed - four, set(pre), block) == walk(
                    order, masks, revealed, set(pre), block, four)

    def test_clique_one_per_round(self):
        g = complete(3)
        p = GreedyScanPainter([0, 1, 2])
        state = fresh_state(TokenBudgets.uniform(3, 3))
        assert p.choose_colors(state, g, {0, 1, 2}) == {0}

    def test_independent_set_all_colored(self):
        g = Graph(3, [])
        p = GreedyScanPainter([0, 1, 2])
        state = fresh_state(TokenBudgets.uniform(3, 1))
        assert p.choose_colors(state, g, {0, 1, 2}) == {0, 1, 2}

    def test_c4_scan_colors_opposite_pair(self):
        g = cycle(4)
        p = GreedyScanPainter([0, 1, 2, 3])
        state = fresh_state(TokenBudgets.uniform(4, 2))
        assert p.choose_colors(state, g, {0, 1, 2, 3}) == {0, 2}

    def test_rejects_non_permutation(self):
        with pytest.raises(PreconditionError):
            GreedyScanPainter([0, 0, 1])


class TestCliquePainter:
    def test_min_token_rule(self):
        g = complete(2)
        p = CliquePainter()
        state = fresh_state(TokenBudgets([2, 1]))
        assert p.choose_colors(state, g, {0, 1}) == {1}

    def test_ties_by_id(self):
        g = complete(3)
        state = fresh_state(TokenBudgets.uniform(3, 2))
        assert CliquePainter().choose_colors(state, g, {1, 2}) == {1}

    def test_k4_budget_4_beats_oracle_adversary(self):
        g = complete(4)
        budgets = TokenBudgets.uniform(4, 4)
        t = play_game(g, budgets, OracleLister(g, budgets), CliquePainter())
        assert t.winner == "painter"

    def test_k4_budget_3_loses_to_oracle_adversary(self):
        g = complete(4)
        budgets = TokenBudgets.uniform(4, 3)
        t = play_game(g, budgets, OracleLister(g, budgets), CliquePainter())
        assert t.winner == "lister"

    def test_k4_budget_4_beats_implemented_listers(self):
        g = complete(4)
        budgets = TokenBudgets.uniform(4, 4)
        for lister in [PressureLister()] + [RandomLister(s) for s in range(50)]:
            assert play_game(g, budgets, lister, CliquePainter()).winner == \
                "painter"


class TestTheoremPainter:
    def test_precondition_on_petersen(self):
        with pytest.raises(PreconditionError):
            TheoremPainter(petersen(), 3)

    def test_beats_random_listers_on_mcgee(self):
        g = mcgee()
        painter = TheoremPainter(g, 3)
        game_graph = kth_power(g, 3)
        budgets = TokenBudgets.uniform(g.n, painter.M - 1)
        for seed in range(200):
            t = play_game(game_graph, budgets, RandomLister(seed), painter)
            assert t.winner == "painter"
            assert validate_transcript(game_graph, budgets, t) is None

    def test_beats_pressure_lister_on_mcgee(self):
        g = mcgee()
        painter = TheoremPainter(g, 3)
        game_graph = kth_power(g, 3)
        budgets = TokenBudgets.uniform(g.n, painter.M - 1)
        t = play_game(game_graph, budgets, PressureLister(), painter)
        assert t.winner == "painter"

    def test_no_counters_stay_in_range(self):
        g = mcgee()
        painter = TheoremPainter(g, 3)
        game_graph = kth_power(g, 3)
        budgets = TokenBudgets.uniform(g.n, painter.M - 1)
        listers = ([RandomLister(seed) for seed in range(50)]
                   + late_vertex_attacks(painter.frame, game_graph)
                   + drains(painter.frame, game_graph))
        for lister in listers:
            play_game(game_graph, budgets, lister, painter)
            assert 0 <= painter.no_v <= 2
            assert 0 <= painter.no_w <= 2

    def test_deterministic_transcripts(self):
        g = mcgee()
        painter = TheoremPainter(g, 3)
        game_graph = kth_power(g, 3)
        budgets = TokenBudgets.uniform(g.n, painter.M - 1)
        t1 = play_game(game_graph, budgets, RandomLister(11), painter)
        t2 = play_game(game_graph, budgets, RandomLister(11), painter)
        assert t1.to_json() == t2.to_json()

    def test_starved_budget_is_a_lister_win(self):
        # Far below the bound the pressure lister starves a vertex; the
        # referee records the loss and the transcript validates.
        g = mcgee()
        painter = TheoremPainter(g, 3)
        game_graph = kth_power(g, 3)
        budgets = TokenBudgets.uniform(g.n, 3)
        t = play_game(game_graph, budgets, PressureLister(), painter)
        assert (t.winner, t.loser_vertex, len(t.rounds)) == ("lister", 0, 3)
        assert validate_transcript(game_graph, budgets, t) is None

    @FRAME_CASES
    def test_late_vertex_attacks_lose(self, builder, k):
        # Rule (iv) firing one reveal before the last token let each of
        # these sequences starve v or w in round D - 1.
        g = builder()
        painter, _, _ = dispatch_painter(g, k)
        game_graph = kth_power(g, k)
        budgets = TokenBudgets.uniform(g.n, painter.M - 1)
        for lister in late_vertex_attacks(painter.frame, game_graph):
            t = play_game(game_graph, budgets, lister, painter)
            assert t.winner == "painter", lister.name
            assert validate_transcript(game_graph, budgets, t) is None

    def test_decisions_pinned(self):
        # One digest over the main painter's games on McGee^3 and Foster^4
        # at M - 1 tokens: any change to a decision shows here.
        h = hashlib.md5()
        for g, k in ((mcgee(), 3), (lcf(*FOSTER_LCF), 4)):
            painter, _, _ = dispatch_painter(g, k)
            game_graph = kth_power(g, k)
            budgets = TokenBudgets.uniform(g.n, painter.M - 1)
            listers = ([RandomLister(s) for s in range(50)]
                       + [PressureLister()]
                       + late_vertex_attacks(painter.frame, game_graph)
                       + drains(painter.frame, game_graph))
            for lister in listers:
                t = play_game(game_graph, budgets, lister, painter)
                h.update(t.to_json().encode() + b"\n")
        assert h.hexdigest() == "3758a03d524a423ec01c0c736196423d"

    def test_frame_vertices_colored_before_exhaustion(self):
        g = mcgee()
        painter = TheoremPainter(g, 3)
        game_graph = kth_power(g, 3)
        budgets = TokenBudgets.uniform(g.n, painter.M - 1)
        f = painter.frame
        listers = ([RandomLister(seed) for seed in range(100)]
                   + late_vertex_attacks(f, game_graph)
                   + drains(f, game_graph))
        for lister in listers:
            t = play_game(game_graph, budgets, lister, painter)
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


def _lister_beats_scan(g, order, f):
    """Exhaustive search: can some lister beat the scan in ``order`` on
    g with budgets f? The painter's reply is the scan, so the search
    branches over reveals only, memoised on (alive mask, tokens)."""
    rank, masks = painters._rank(order), g.masks
    memo = {}

    def wins(alive, tokens):
        if (alive, tokens) not in memo:
            reveals = (r for r in range(1, alive + 1) if r & alive == r)
            memo[alive, tokens] = any(drains(alive, tokens, r)
                                      for r in reveals)
        return memo[alive, tokens]

    def drains(alive, tokens, reveal):
        revealed = {v for v in range(g.n) if reveal >> v & 1}
        colored = painters._scan(rank, masks, revealed, set())
        left = list(tokens)
        for v in revealed - colored:
            left[v] -= 1
            if not left[v]:
                return True
        rest = alive & ~sum(1 << v for v in colored)
        return bool(rest) and wins(rest, tuple(left))

    return wins((1 << g.n) - 1, tuple(f))


class TestCertificate:
    def test_golden_cases(self):
        # The scan is proved for every vertex of every fallback route;
        # on MainCase the priority rules are left with v and w only.
        rows = {"main": 0, "fallback": 0}
        for name in GRAPHS:
            g = GRAPHS[name]()
            for k in KS:
                painter, label, order = dispatch_painter(g, k)
                budgets = TokenBudgets.uniform(
                    g.n, bound_D(k, g.max_degree) - 1)
                game_graph = kth_power(g, k)
                if label.kind == CaseLabel.MAIN_CASE:
                    f = painter.frame
                    assert certify(game_graph, order, budgets) == {f.v, f.w}
                    rows["main"] += 1
                else:
                    assert certify(game_graph, order, budgets) == set(), (
                        name, k)
                    rows["fallback"] += 1
        assert rows == {"main": 10, "fallback": 35}

    @FRAME_CASES
    def test_converse_starves_each_violator(self, builder, k):
        # A scan painter beats every lister iff certify finds no
        # violator: the converse lister starves each one in exactly
        # D - 1 rounds. On the frame order the violators are v and w,
        # and the main painter's frame rules win the same scripts.
        g = builder()
        painter, _, frame_order = dispatch_painter(g, k)
        game_graph = kth_power(g, k)
        d = bound_D(k, g.max_degree)
        budgets = TokenBudgets.uniform(g.n, d - 1)
        f = painter.frame
        assert certify(game_graph, frame_order, budgets) == {f.v, f.w}
        for order in (tuple(range(g.n)), frame_order):
            targets = certify(game_graph, order, budgets)
            assert targets
            for u in sorted(targets):
                lister = ConverseLister(game_graph, order, u)
                t = play_game(game_graph, budgets, lister,
                              GreedyScanPainter(order))
                assert (t.winner, t.loser_vertex, len(t.rounds)) == (
                    "lister", u, d - 1), (order == frame_order, u)
                assert validate_transcript(game_graph, budgets, t) is None
                if order == frame_order:
                    t = play_game(game_graph, budgets, lister, painter)
                    assert t.winner == "painter", u
                    assert validate_transcript(game_graph, budgets,
                                               t) is None

    def test_clique_boundary(self):
        k3, order = complete(3), (0, 1, 2)
        assert certify(k3, order, TokenBudgets.uniform(3, 2)) == {2}
        assert certify(k3, order, TokenBudgets.uniform(3, 3)) == set()
        assert certify(k3, order, TokenBudgets([1, 2, 3])) == set()
        assert certify(k3, order, TokenBudgets([1, 2, 2])) == {2}

    def test_certified_cases_are_painter_wins(self):
        # Budgets of back(u) or back(u) + 1 put every case on the
        # boundary. The reference is the shortcut-free minimax, not
        # solve_paintability, whose peeling is the certificate's own
        # argument applied vertex by vertex.
        rng = random.Random(13)
        certified = 0
        for i in range(600):
            n = rng.randint(2, 6)
            g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                          if rng.random() < (0.3, 0.5, 0.7)[i % 3]])
            order = rng.sample(range(n), n)
            back = [len(set(order[:order.index(u)]) & set(g.adj[u]))
                    for u in range(n)]
            f = [max(1, b + rng.choice((0, 1, 1))) for b in back]
            if not certify(g, order, TokenBudgets(f)):
                assert f == [b + 1 for b in back]
                assert _raw_minimax(g, f), (g.edges(), order, f)
                certified += 1
        assert certified >= 250, certified

    def test_converse_by_exhaustive_search(self):
        # certify is exact for the scan: a lister beats the scan in
        # ``order`` iff certify names a violator.
        rng = random.Random(22)
        lister_wins = 0
        for i in range(600):
            n = rng.randint(1, 6)
            g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                          if rng.random() < (0.3, 0.5, 0.7)[i % 3]])
            order = rng.sample(range(n), n)
            f = [rng.randint(1, 3) for _ in range(n)]
            beaten = _lister_beats_scan(g, order, f)
            assert beaten == bool(certify(g, order, TokenBudgets(f))), (
                g.edges(), order, f)
            lister_wins += beaten
        assert 200 <= lister_wins <= 400, lister_wins


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
            t = play_game(game_graph, budgets, RandomLister(seed), painter)
            assert t.winner == "painter"
        t = play_game(game_graph, budgets, PressureLister(), painter)
        assert t.winner == "painter"
