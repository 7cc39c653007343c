"""Painter strategies: the main strategy built around the special
frame and its priority rules, the distance-order greedy scan that
powers the fallback cases, the clique strategy, and a dispatcher that
routes a graph through the full case analysis.

Every painter plays the game it is handed: conflicts are judged in the
``game_graph`` passed to ``choose_colors`` and token counts are read
from the ``GameState``.
"""

from __future__ import annotations

from typing import Optional

from .errors import PreconditionError, StrategyInvariantViolation
from .graph import (
    CaseLabel,
    Graph,
    bound_D,
    classify,
    distance_order,
    find_special_frame,
    # Unused here; perfbench's tracer patches these module attributes.
    kth_power,
    structural_report,
)
from .game import GameState


def _scan(order, adj, revealed, colored, skip=()):
    """The greedy scan: in ``order``, color each revealed vertex outside
    ``skip`` none of whose neighbors in ``adj`` is colored this round."""
    for u in order:
        if u in revealed and u not in skip and colored.isdisjoint(adj[u]):
            colored.add(u)
    return colored


def certify(game_graph: Graph, order, budgets) -> set[int]:
    """The static twin of ``_scan``: the vertices u with back(u) >=
    budgets[u], back(u) being u's game-graph neighbors earlier in
    ``order``. The scan leaves a revealed u uncolored only if an earlier
    neighbor was colored that round, and each vertex is colored once, so
    u loses at most back(u) tokens: an empty result proves the scan wins
    against every lister (Schauz, EJC 16 (2009) R77; Zhu, EJC 16 (2009)
    R127)."""
    pos = {u: i for i, u in enumerate(order)}
    return {u for u in order if sum(
        pos[x] < pos[u] for x in game_graph.adj[u]) >= budgets[u]}


class GreedyScanPainter:
    """Scans a fixed vertex order each round and colors every revealed
    vertex whose game-graph neighbors are all uncolored this round.
    Colors from earlier rounds never conflict: each round is one fresh
    color."""

    name = "greedy"

    def __init__(self, order):
        self.order = tuple(order)
        if sorted(self.order) != list(range(len(self.order))):
            raise PreconditionError("order must be a permutation of 0..n-1")

    def reset(self):
        pass

    def choose_colors(self, state: GameState, game_graph: Graph,
                      revealed: set[int]) -> set[int]:
        return _scan(self.order, game_graph.adj, revealed, set())


class CliquePainter:
    """For clique game graphs: colors exactly one revealed vertex, the
    one with fewest remaining tokens (ties by id). No dispatch route
    returns it; ``--painter clique`` and selftest criterion 6 play it."""

    name = "clique"

    def reset(self):
        pass

    def choose_colors(self, state: GameState, game_graph: Graph,
                      revealed: set[int]) -> set[int]:
        pick = min(revealed, key=lambda v: (state.tokens[v], v))
        return {pick}


def greedy_scan_painter(order) -> GreedyScanPainter:
    return GreedyScanPainter(order)


def clique_painter() -> CliquePainter:
    return CliquePainter()


class TheoremPainter:
    """The main-case strategy. Plays on the k-th power of a regular
    graph with girth >= 2k and disjoint 2k-cycles, hence diameter >= k+1
    (see ``classify``), with uniform budgets M-1, M the degree bound.
    ``label`` is the case label of (g, k) when the caller already has it.

    Per round, four frame vertices x1,x2,y1,y2 are handled by priority
    rules that steer their colors away from the lists of the two late
    vertices v and w; everything else is colored by the greedy scan in
    the frame order, which starts with the frame four and ends with w
    then v. ``certify`` proves that scan for every vertex but v and w.
    """

    name = "theorem"

    def __init__(self, g: Graph, k: int, label: Optional[CaseLabel] = None):
        if label is None:
            label = classify(g, k)
        if label.kind != CaseLabel.MAIN_CASE:
            raise PreconditionError(
                f"theorem painter requires MainCase, got {label.kind}")
        self.frame = find_special_frame(g, k, label=label)
        self.M = bound_D(k, g.max_degree)
        self.reset()

    def reset(self):
        self.no_v = 0
        self.no_w = 0

    # -- helpers ----------------------------------------------------------

    @staticmethod
    def _live_in(pair, revealed, colored):
        return [z for z in pair if z in revealed and z not in colored]

    # -- the strategy -----------------------------------------------------

    def choose_colors(self, state: GameState, game_graph: Graph,
                      revealed: set[int]) -> set[int]:
        f = self.frame
        M = self.M
        adj = game_graph.adj
        colored: set[int] = set()
        v_in_s = f.v in revealed
        w_in_s = f.w in revealed
        x1y1 = (f.x1, f.y1)
        x2y2 = (f.x2, f.y2)

        # (i) both ends revealed: color both (they are non-adjacent in G^k).
        live1 = self._live_in(x1y1, revealed, colored)
        if len(live1) == 2:
            colored.update(live1)
        else:
            # (ii)/(iii) steer x1/y1 onto a color missing from L(v)/L(w).
            if live1 and self.no_v == 0 and not v_in_s:
                colored.add(live1[0])
            live1 = self._live_in(x1y1, revealed, colored)
            if live1 and self.no_w == 0 and not w_in_s:
                colored.add(live1[0])
            # (iv) last-chance coloring of x1/y1: budget minus tokens
            # counts the earlier uncolored reveals, + 1 this one.
            for z in self._live_in(x1y1, revealed, colored):
                if state.budgets[z] - state.tokens[z] + 1 >= M - 2:
                    colored.add(z)

        # (v) both of x2,y2 revealed and free of same-round conflicts.
        live2 = self._live_in(x2y2, revealed, colored)
        if (len(live2) == 2
                and colored.isdisjoint(adj[f.x2])
                and colored.isdisjoint(adj[f.y2])):
            colored.update(live2)
        else:
            # (vi) color x2/y2 on a color missing from L(v).
            if not v_in_s:
                for z in self._live_in(x2y2, revealed, colored):
                    if colored.isdisjoint(adj[z]):
                        colored.add(z)
            # (vii) last-chance coloring of x2/y2.
            for z in self._live_in(x2y2, revealed, colored):
                if (state.budgets[z] - state.tokens[z] + 1 >= M - 4
                        and colored.isdisjoint(adj[z])):
                    colored.add(z)

        # Greedy scan over everything but the frame four; w then v last.
        _scan(f.order, adj, revealed, colored, skip=f.frame_vertices())

        self._update_counters(state, revealed, colored)
        self._check_tokens(state, revealed, colored)
        return colored

    # -- bookkeeping ------------------------------------------------------

    def _update_counters(self, state, revealed, colored):
        f = self.frame
        hits = sum(1 for z in (f.x1, f.y1) if z in colored)
        if hits:
            self.no_v += hits - (1 if f.v in revealed else 0)
            self.no_w += hits - (1 if f.w in revealed else 0)
        if not (0 <= self.no_v <= 2 and 0 <= self.no_w <= 2):
            raise StrategyInvariantViolation(
                f"NO counters left range: NO_v={self.no_v} NO_w={self.no_w} "
                f"round {state.round}")

    def _check_tokens(self, state, revealed, colored):
        for z in revealed - colored:
            if state.tokens[z] == 1:
                raise StrategyInvariantViolation(
                    f"vertex {z} exhausts its budget uncolored in round "
                    f"{state.round}")


def main_theorem_painter(g: Graph, k: int, **kwargs) -> TheoremPainter:
    return TheoremPainter(g, k, **kwargs)


def _late_pair(cyc, v):
    """v and the smaller of its two neighbors on the cycle ``cyc``."""
    i = cyc.index(v)
    return v, min(cyc[(i + 1) % len(cyc)], cyc[(i - 1) % len(cyc)])


def dispatch_painter(g: Graph, k: int):
    """Route a graph through the case analysis.

    Returns (painter, label, order) where ``order`` is the coloring
    order the painter scans: the special frame's order for MainCase,
    else a distance order that ends at the fallback case's witness.
    """
    label = classify(g, k)
    if label.kind == CaseLabel.MAIN_CASE:
        painter = main_theorem_painter(g, k, label=label)
        return painter, label, painter.frame.order
    if label.kind == CaseLabel.NON_REGULAR:
        targets = tail = (label.low_degree_vertex,)
    elif label.kind == CaseLabel.SHORT_CYCLE:
        targets = tail = _late_pair(label.short_cycle, min(label.short_cycle))
    else:  # IntersectingTwoKCycles: v in both cycles, w last but one
        c1, c2 = label.intersecting_cycles
        v, w = _late_pair(c1, min(set(c1) & set(c2)))
        targets, tail = (v, w), (w, v)
    order = distance_order(g, targets, tail=tail)
    return greedy_scan_painter(order), label, order
