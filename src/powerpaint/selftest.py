"""The paper's acceptance criteria as one table of checks.

Each row of ``CHECKS`` is one criterion: its name, the wall-time bound
it must meet, and ``check(full)``, which raises AssertionError on the
first failed condition and otherwise returns a one-line summary. With
``full`` a row plays the acceptance counts; quick mode plays a prefix of
the same sequence. ``powerpaint selftest [--full]`` runs the table
through ``run_selftest``, and ``tests/test_acceptance.py`` runs each row
as one pytest test with ``full=True``.
"""

from __future__ import annotations

import random
import sys
import time
import traceback
from typing import Callable, NamedTuple

from .game import (TokenBudgets, play_game, pressure_lister, random_lister,
                   validate_transcript)
from .gen_io import (complete, cycle, heawood, mcgee, parse_graph6, path,
                     petersen, prism, random_regular, write_graph6)
from .graph import Graph, bound_D, kth_power
from .oracle import (LISTER, PAINTER, oracle_lister, solve_choosability,
                     solve_paintability)
from .painters import CaseLabel, certify, clique_painter, dispatch_painter

uni = TokenBudgets.uniform


class Check(NamedTuple):
    name: str
    bound_s: float
    check: Callable[[bool], str]


def require(ok: bool, what: str) -> None:
    """Fail the running check. An explicit raise, so ``python -O``
    cannot turn it off."""
    if not ok:
        raise AssertionError(what)


def _painter_wins_all(game_graph, budgets, painter, listers, what):
    """Play one game per lister; each transcript must validate and end
    in a painter win."""
    for lister in listers:
        t = play_game(game_graph, budgets, lister, painter)
        bad = validate_transcript(game_graph, budgets, t)
        require(bad is None, f"{what}: invalid transcript: {bad}")
        require(t.winner == "painter", f"{what}: the {lister.name} lister "
                f"(seed {getattr(lister, 'seed', None)}) won: vertex "
                f"{t.loser_vertex} ran out in round {len(t.rounds)}")


class ScriptLister:
    """Reveals the uncolored part of each scripted set in turn, skipping
    a set with none; once the script is spent, every uncolored vertex."""

    def __init__(self, name, script):
        self.name, self.script = name, script

    def reset(self):
        self.rest = iter(self.script)

    def choose_reveal(self, state, game_graph):
        for s in self.rest:
            left = s.intersection(state.tokens)
            if left:
                return left
        return set(state.tokens)


def outside_frame(f, game_graph, t):
    """t's G^k-neighbors other than x1, x2, y1, y2, v and w, by id."""
    return sorted(set(game_graph.adj[t]) - {f.x1, f.x2, f.y1, f.y2, f.v, f.w})


def late_vertex_attacks(f, game_graph):
    """Reveal sequences aimed at the late vertex t = v or w, each with x1
    and y1 in both roles (a first, b last): {t, a}; {t, u, b} for each u
    outside the frame; then three rounds that end on {t, b}. t loses a
    token in every round, D - 1 in all. With rule (iv) one token earlier
    each starved t in round D - 1."""
    attacks = []
    for a, b in ((f.x1, f.y1), (f.y1, f.x1)):
        for t, tail in ((f.v, [{f.x2, f.y2, b}, {f.w, b}, {b}]),
                        (f.w, [{f.x2, b}, {f.y2, b}, {b}])):
            script = ([{t, a}] + [{t, u, b} for u in outside_frame(
                f, game_graph, t)] + [{t} | s for s in tail])
            attacks.append(ScriptLister(f"attack_{t}_{a}", script))
    return attacks


def criterion_1_bound_formula(full: bool) -> str:
    for delta in (3, 4, 5):
        require(bound_D(2, delta) == delta ** 2, f"D(2,{delta})")
    require(bound_D(3, 3) == 21, "D(3,3)")
    return "D(2,3..5)=9,16,25 and D(3,3)=21"


def criterion_2_moore_sharpness(full: bool) -> str:
    k10 = kth_power(petersen(), 2)
    require(k10 == complete(10), "Petersen^2 is not K10")
    require(solve_paintability(k10, uni(10, 9)) == LISTER, "K10 at 9")
    require(solve_paintability(k10, uni(10, 10)) == PAINTER, "K10 at 10")
    return "Petersen^2=K10, lister@9 / painter@10"


def criterion_3_oracle_ground_truth(full: bool) -> str:
    cases = [(f"K{n}", complete(n), t, PAINTER if t == n else LISTER)
             for n in (2, 3, 4) for t in (n, n - 1)]
    cases += [("C4", cycle(4), 2, PAINTER), ("C6", cycle(6), 2, PAINTER),
              ("C5", cycle(5), 2, LISTER), ("C5", cycle(5), 3, PAINTER),
              ("P3", path(3), 2, PAINTER)]
    for name, g, t, winner in cases:
        require(solve_paintability(g, uni(g.n, t)) == winner,
                f"{name} at {t} tokens is not a {winner} win")
    return "K2..K4 thresholds, C4/C5/C6, P3"


def _named_small_graphs() -> dict[str, Graph]:
    """Connected graphs on <= 6 vertices used for the choosability sweep."""
    return {
        "K2": complete(2), "K3": complete(3), "K4": complete(4),
        "K5": complete(5), "K6": complete(6),
        "C3": cycle(3), "C4": cycle(4), "C5": cycle(5), "C6": cycle(6),
        "P2": path(2), "P3": path(3), "P4": path(4), "P5": path(5),
        "P6": path(6),
        "star_K1_3": Graph(4, [(0, 1), (0, 2), (0, 3)]),
        "star_K1_5": Graph(6, [(0, i) for i in range(1, 6)]),
        "paw": Graph(4, [(0, 1), (1, 2), (2, 0), (2, 3)]),
        "diamond": Graph(4, [(0, 1), (1, 2), (2, 0), (0, 3), (2, 3)]),
        "bull": Graph(5, [(0, 1), (1, 2), (2, 0), (1, 3), (2, 4)]),
        "house": Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)]),
        "butterfly": Graph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4),
                               (4, 2)]),
        "K2,3": Graph(5, [(i, j) for i in range(2) for j in range(2, 5)]),
        "K3,3": Graph(6, [(i, j) for i in range(3) for j in range(3, 6)]),
        "prism": prism(3),
        "octahedron": Graph(6, [(i, j) for i in range(6)
                                for j in range(i + 1, 6) if j != i + 3]),
        "wheel_W5": Graph(6, [(5, i) for i in range(5)]
                          + [(i, (i + 1) % 5) for i in range(5)]),
    }


def criterion_4_paintable_implies_choosable(full: bool) -> str:
    graphs = _named_small_graphs()
    require(len(graphs) >= 20, "fewer than 20 sweep graphs")
    require(all(g.n <= 6 for g in graphs.values()), "sweep graph over 6")
    checked = 0
    for t in range(1, 4 if full else 3):
        for name, g in graphs.items():
            if solve_paintability(g, uni(g.n, t)) == PAINTER:
                require(solve_choosability(g, t),
                        f"{name} is {t}-paintable but not {t}-choosable")
                checked += 1
    return f"{checked} painter-positive cases verified choosable"


def criterion_5_theorem_at_desk_scale(full: bool) -> str:
    g = mcgee()
    game_graph = kth_power(g, 3)
    require(all(game_graph.degree(v) == 21 for v in range(24)),
            "McGee^3 is not 21-regular")
    painter, label, order = dispatch_painter(g, 3)
    require(label.kind == CaseLabel.MAIN_CASE, f"McGee is {label.kind}")
    f = painter.frame
    late = certify(game_graph, order, uni(24, 20))
    require(late == {f.v, f.w}, f"scan violators {late}, not v and w")
    # The pressure lister, the attacks and the painter are deterministic:
    # one game each.
    randoms = 1000 if full else 50
    attacks = late_vertex_attacks(f, game_graph)
    listers = ([random_lister(seed) for seed in range(1, randoms + 1)]
               + [pressure_lister()] + attacks)
    _painter_wins_all(game_graph, uni(24, 20), painter, listers, "McGee^3")
    return (f"scan certified but for v and w, {randoms} random games, the "
            f"pressure game and {len(attacks)} late-vertex attacks, all "
            f"painter wins")


def criterion_6_fallback_routes(full: bool) -> str:
    budget = bound_D(3, 3) - 1
    require(budget == 20, f"budget {budget}")
    seeds = range(1, 201 if full else 31)
    routes = [(Graph(10, petersen().edges()[1:]), CaseLabel.NON_REGULAR),
              (petersen(), CaseLabel.SHORT_CYCLE),
              (heawood(), CaseLabel.INTERSECTING)]
    for g, kind in routes:
        painter, label, order = dispatch_painter(g, 3)
        require(label.kind == kind, f"{kind} graph labelled {label.kind}")
        game_graph, budgets = kth_power(g, 3), uni(g.n, budget)
        bad = certify(game_graph, order, budgets)
        require(not bad, f"{kind}: scan violators {bad}")
        _painter_wins_all(game_graph, budgets, painter,
                          [random_lister(seed) for seed in seeds], kind)
    # the clique strategy against the exact adversary replayed from the
    # oracle, pressure and random listers
    k4, budgets = complete(4), uni(4, 4)
    listers = ([oracle_lister(k4, budgets), pressure_lister()]
               + [random_lister(seed) for seed in range(1, 51)])
    _painter_wins_all(k4, budgets, clique_painter(), listers, "K4 clique")
    return (f"3 routes certified, {len(seeds)} games each + clique vs "
            f"exact adversary, pressure and 50 random listers")


def criterion_7_structural_invariants(full: bool) -> str:
    m = bound_D(3, 3)
    sizes = [10, 12, 14, 16, 18, 20, 22, 24]
    count = 100 if full else 20
    for seed in range(count):
        g = random_regular(sizes[seed % len(sizes)], 3, seed)
        g3 = kth_power(g, 3)
        require(g3.max_degree <= m, f"cubic graph {seed}: G^3 degree over {m}")
        _, _, order = dispatch_painter(g, 3)
        bad = certify(g3, order, uni(g.n, m - 1))
        require(not bad, f"cubic graph {seed}: scan violators {bad}")
    mc3 = kth_power(mcgee(), 3)
    require(all(mc3.degree(v) == m for v in range(24)), "McGee^3 not tight")
    return f"{count} cubic graphs bounded by {m} and certified, McGee tight"


def criterion_8_round_trips(full: bool) -> str:
    trips, games = (1000, 50) if full else (200, 10)
    rng = random.Random(2024)
    for _ in range(trips):
        n = rng.randint(1, 24)
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                      if rng.random() < 0.35])
        require(parse_graph6(write_graph6(g)) == g,
                f"graph6 round trip changed {g.edges()}")
    g = heawood()
    painter, _, _ = dispatch_painter(g, 3)
    _painter_wins_all(kth_power(g, 3), uni(g.n, 20), painter,
                      [random_lister(seed) for seed in range(games)],
                      "Heawood^3")
    return f"{trips} graph6 round trips + {games} validated transcripts"


CHECKS = [
    Check("criterion_1_bound_formula", 0.01, criterion_1_bound_formula),
    Check("criterion_2_moore_sharpness", 60, criterion_2_moore_sharpness),
    Check("criterion_3_oracle_ground_truth", 60,
          criterion_3_oracle_ground_truth),
    Check("criterion_4_paintable_implies_choosable", 600,
          criterion_4_paintable_implies_choosable),
    Check("criterion_5_theorem_at_desk_scale", 900,
          criterion_5_theorem_at_desk_scale),
    Check("criterion_6_fallback_routes", 600, criterion_6_fallback_routes),
    Check("criterion_7_structural_invariants", 60,
          criterion_7_structural_invariants),
    Check("criterion_8_round_trips", 60, criterion_8_round_trips),
]


def run_check(row: Check, full: bool) -> str:
    """Run one row within its time bound and return its summary."""
    t0 = time.perf_counter()
    summary = row.check(full)
    elapsed = time.perf_counter() - t0
    require(elapsed < row.bound_s,
            f"took {elapsed:.3f}s, over the {row.bound_s}s bound")
    return f"{summary} in {elapsed:.3f}s"


def run_selftest(full: bool = False) -> int:
    """Run every row, printing PASS or FAIL for each and carrying on
    past a failure. Returns 0 if every row passed, else 1."""
    failed = 0
    for row in CHECKS:
        try:
            print(f"PASS {row.name}: {run_check(row, full)}")
        except Exception as exc:  # report, keep going
            failed += 1
            traceback.print_exc()
            print(f"FAIL {row.name}: {type(exc).__name__}: {exc}")
    if failed:
        print(f"{failed} of {len(CHECKS)} checks failed", file=sys.stderr)
        return 1
    print(f"all {len(CHECKS)} checks passed")
    return 0
