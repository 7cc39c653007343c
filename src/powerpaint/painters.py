"""Painter strategies: the main-case strategy on the special frame, the
distance-order greedy scan of the fallback cases, the clique strategy,
and a dispatcher that routes a graph through the case analysis. Every
painter plays the game it is handed: conflicts are judged in the
``game_graph`` passed to ``choose_colors``, token counts read from the
``GameState``.
"""

from __future__ import annotations

from typing import Optional

from .errors import PreconditionError
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


def _rank(order):
    """rank[u] is u's position in ``order``."""
    return {u: i for i, u in enumerate(order)}


def _scan(rank, masks, revealed, colored, block=0):
    """The greedy scan: visit the revealed vertices by ``rank`` and color
    each none of whose neighbors in ``masks`` is colored this round.
    ``block`` is the OR of the masks of ``colored``: the vertices with a
    colored neighbor. A round costs the size of its reveal, not n."""
    for u in sorted(revealed, key=rank.__getitem__):
        if not block >> u & 1:
            colored.add(u)
            block |= masks[u]
    return colored


def certify(game_graph: Graph, order, budgets) -> set[int]:
    """The static twin of ``_scan`` in ``order``: the vertices u with
    back(u) >= budgets[u], back(u) being u's game-graph neighbors earlier
    in ``order``. The scan leaves a revealed u uncolored only if an
    earlier neighbor was colored that round, and each vertex is colored
    once, so u loses at most back(u) tokens: an empty result proves the
    scan wins against every lister (Schauz, EJC 16 (2009) R77; Zhu, EJC
    16 (2009) R127)."""
    rank = _rank(order)
    return {u for u in order if sum(
        rank[x] < rank[u] for x in game_graph.adj[u]) >= budgets[u]}


class GreedyScanPainter:
    """Visits the revealed vertices in a fixed order and colors each one
    with no game-graph neighbor colored this round. Colors from earlier
    rounds never conflict: each round is one fresh color."""

    name = "greedy"

    def __init__(self, order):
        self.order = tuple(order)
        if sorted(self.order) != list(range(len(self.order))):
            raise PreconditionError("order must be a permutation of 0..n-1")
        self.rank = _rank(self.order)

    def reset(self):
        pass

    def choose_colors(self, state: GameState, game_graph: Graph,
                      revealed: set[int]) -> set[int]:
        return _scan(self.rank, game_graph.masks, revealed, set())


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


class TheoremPainter(GreedyScanPainter):
    """The main-case strategy. Plays on the k-th power of a regular
    graph with girth >= 2k and disjoint 2k-cycles, hence diameter >= k+1
    (see ``classify``), with uniform budgets M-1, M the degree bound.
    ``label`` is the case label of (g, k) when the caller already has it.

    The greedy scan in the frame order (ending w, v) colors all but the
    frame four; ``certify`` proves it for all but v and w. With up to M
    and M - 1 earlier neighbors, v needs two savings and w one: neighbors
    not colored in a v-round (w-round) of their own.

    The frame four go first, by one rule over two rows (pair, steer,
    last). A pair's free vertices are its revealed ones with no neighbor
    colored this round. Both free: color both. One free, z: color it if
    steer holds (z's color is then missing from v's or w's list) or if
    z has at most ``M - last`` tokens. In the paper's numbering:

    - row 1: (x1, y1), steer (NO_v = 0 and v not revealed) or (NO_w = 0
      and w not revealed), last M - 1: rules (i), (ii)/(iii), (iv);
    - row 2: (x2, y2), steer v not revealed, last M - 4: (v)-(vii).

    That is the seven rules exactly: a pair is never adjacent in G^k (the
    frame search draws y1 at distance k + 1 from x1 and y2 outside x2's
    radius-k ball), so coloring both is legal, otherwise at most one is
    free and (ii) then (iii) is one disjunction; row 1 sees no colors.
    The counters stay in 0 <= NO_v, NO_w <= 2, the range the steer's
    ``no_v == 0`` reads: a round that colors h >= 1 of x1, y1 adds
    h - [v revealed] >= 0 to NO_v (likewise w), and each is colored once.

    Why M - 1, z's last token: (x2, y2) gives v one saving, so (x1, y1)
    must give the other. At M - 2 a lister revealing {v, x1}, then y1 with
    v each round, drains y1 by (iv) within the M - 3 v-rounds left, and v
    starves in round M - 1 (likewise w). At M - 1 that takes M - 2 rounds,
    one too many, and y1 is still colored on its last token. This argues
    the case for the known sequences (``selftest.late_vertex_attacks``); it
    does not prove a win against every lister.
    """

    name = "theorem"

    def __init__(self, g: Graph, k: int, label: Optional[CaseLabel] = None):
        self.frame = find_special_frame(g, k, label=label)
        self.M = bound_D(k, g.max_degree)
        super().__init__(self.frame.order)
        self.reset()

    def reset(self):
        self.no_v = self.no_w = 0

    def choose_colors(self, state: GameState, game_graph: Graph,
                      revealed: set[int]) -> set[int]:
        f = self.frame
        masks = game_graph.masks
        colored: set[int] = set()
        block = 0
        v_out = f.v not in revealed
        rows = (((f.x1, f.y1), (self.no_v == 0 and v_out)
                 or (self.no_w == 0 and f.w not in revealed), self.M - 1),
                ((f.x2, f.y2), v_out, self.M - 4))
        for pair, steer, last in rows:
            free = [z for z in pair if z in revealed and not block >> z & 1]
            if len(free) == 1:
                z = free[0]
                # budgets - tokens counts z's earlier uncolored reveals.
                if not (steer
                        or state.budgets[z] - state.tokens[z] + 1 >= last):
                    continue
            for z in free:
                colored.add(z)
                block |= masks[z]
        _scan(self.rank, masks, revealed.difference(f.frame_vertices()),
              colored, block)

        hits = (f.x1 in colored) + (f.y1 in colored)
        if hits:
            self.no_v += hits - (not v_out)
            self.no_w += hits - (f.w in revealed)
        return colored


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
    if label.kind == CaseLabel.NON_REGULAR:
        targets = tail = (label.low_degree_vertex,)
    elif label.kind == CaseLabel.SHORT_CYCLE:
        targets = tail = _late_pair(label.short_cycle, min(label.short_cycle))
    elif label.kind == CaseLabel.INTERSECTING:  # v in both, w last but one
        c1, c2 = label.intersecting_cycles
        v, w = _late_pair(c1, min(set(c1) & set(c2)))
        targets, tail = (v, w), (w, v)
    painter = (TheoremPainter(g, k, label=label)
               if label.kind == CaseLabel.MAIN_CASE
               else GreedyScanPainter(distance_order(g, targets, tail=tail)))
    return painter, label, painter.order
