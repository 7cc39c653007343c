"""Ground truth at desk scale: exact paintability by memoized game-tree
search (with a closed-form fast path for clique states), brute-force
choosability, and a greedy coloring baseline.

Caps may be overridden with the POWERPAINT_CAPS environment variable,
formatted "vertices,total_tokens" (e.g. "14,160").
"""

from __future__ import annotations

import os
from itertools import combinations
from typing import Optional

from .errors import CapExceededError, PreconditionError
from .game import GameState, TokenBudgets
from .graph import Graph

PAINTER = "painter"
LISTER = "lister"

DEFAULT_VERTEX_CAP = 12
DEFAULT_TOKEN_CAP = 128


def _caps():
    vertex_cap, token_cap = DEFAULT_VERTEX_CAP, DEFAULT_TOKEN_CAP
    env = os.environ.get("POWERPAINT_CAPS")
    if env:
        parts = env.split(",")
        try:
            if parts[0].strip():
                vertex_cap = int(parts[0])
            if len(parts) >= 2 and parts[1].strip():
                token_cap = int(parts[1])
        except ValueError:
            raise PreconditionError(
                f"POWERPAINT_CAPS must be 'vertices,total_tokens', "
                f"got {env!r}") from None
    return vertex_cap, token_cap


def _clique_painter_wins(tokens: tuple[int, ...]) -> bool:
    """On a clique, the painter wins iff the ascending token sequence
    satisfies f_i >= i for all i.

    Necessity: with >= i vertices of budget < i, the lister repeatedly
    reveals those vertices; the painter colors at most one per round
    while the rest drain. Sufficiency: coloring the revealed vertex of
    minimum budget preserves the condition (a violation among >= i
    survivors with budget <= i-1 would imply >= i+1 vertices of budget
    <= i before the round). Cross-checked against the general search in
    the test suite.
    """
    return all(f >= i for i, f in enumerate(sorted(tokens), start=1))


def _is_clique(adj_masks: list[int], alive_mask: int, n: int) -> bool:
    for v in range(n):
        if alive_mask >> v & 1:
            if alive_mask & ~(adj_masks[v] | 1 << v):
                return False
    return True


class PaintabilitySolver:
    """Exact minimax for the online list-coloring game.

    States are (alive set, token vector); the memo key relabels alive
    vertices in ascending id so that states equal up to deleting
    colored vertices coincide. Clique states short-circuit through the
    sorted-token criterion. The painter only ever colors a maximal
    independent subset of the reveal. Coloring a superset J of I leaves
    the successor of I minus the vertices of J not in I, with the same
    tokens on every vertex left, and a painter who wins on a graph wins
    on each of its induced subgraphs (Zhu 2009).
    """

    def __init__(self, game_graph: Graph, budgets: TokenBudgets):
        vertex_cap, token_cap = _caps()
        if game_graph.n > vertex_cap:
            raise CapExceededError(
                f"{game_graph.n} vertices exceeds cap {vertex_cap}")
        if budgets.total() > token_cap:
            raise CapExceededError(
                f"total budget {budgets.total()} exceeds cap {token_cap}")
        self.g = game_graph
        self.n = game_graph.n
        self.adj_masks = [0] * self.n
        for u in range(self.n):
            for v in game_graph.adj[u]:
                self.adj_masks[u] |= 1 << v
        self.budgets = budgets
        self.memo = {}

    def solve(self) -> str:
        alive = (1 << self.n) - 1
        tokens = tuple(self.budgets.f)
        return PAINTER if self._painter_wins(alive, tokens) else LISTER

    def winning_reveal(self, alive_vertices, tokens_by_vertex) -> Optional[set[int]]:
        """A reveal from which every painter reply loses, or None if the
        state is painter-winning."""
        alive = 0
        tokens = [0] * self.n
        for v in alive_vertices:
            alive |= 1 << v
            tokens[v] = tokens_by_vertex[v]
        if self._painter_wins(alive, tuple(tokens)):
            return None
        for reveal in self._reveals(alive):
            if not self._painter_survives(alive, tuple(tokens), reveal):
                return {v for v in range(self.n) if reveal >> v & 1}
        raise AssertionError("lister-winning state with no winning reveal")

    # -- internals ---------------------------------------------------------

    def _key(self, alive: int, tokens: tuple[int, ...]):
        vs = [v for v in range(self.n) if alive >> v & 1]
        index = {v: i for i, v in enumerate(vs)}
        edges = frozenset(
            (index[u], index[v]) for u in vs for v in self.g.adj[u]
            if alive >> v & 1 and u < v)
        return (tuple(tokens[v] for v in vs), edges)

    def _reveals(self, alive: int):
        sub = alive
        while sub:
            yield sub
            sub = (sub - 1) & alive
        # empty set excluded: lister must reveal something

    def _painter_wins(self, alive: int, tokens: tuple[int, ...]) -> bool:
        if alive == 0:
            return True
        if _is_clique(self.adj_masks, alive, self.n):
            return _clique_painter_wins(
                tuple(tokens[v] for v in range(self.n) if alive >> v & 1))
        key = self._key(alive, tokens)
        if key not in self.memo:
            self.memo[key] = all(self._painter_survives(alive, tokens, reveal)
                                 for reveal in self._reveals(alive))
        return self.memo[key]

    def _painter_survives(self, alive: int, tokens: tuple[int, ...],
                          reveal: int) -> bool:
        """True if some maximal independent subset of the reveal leads
        the painter to a winning successor."""
        vs = [v for v in range(self.n) if reveal >> v & 1]
        for colored in self._replies(vs):
            new_tokens = list(tokens)
            for v in vs:
                if not colored >> v & 1:
                    if new_tokens[v] == 1:
                        break
                    new_tokens[v] -= 1
            else:
                if self._painter_wins(alive & ~colored, tuple(new_tokens)):
                    return True
        return False

    def _replies(self, vs: list[int]):
        """The maximal independent subsets of the revealed vertices
        ``vs``, as masks, each generated once and only when asked for."""
        adj = self.adj_masks
        reveal = sum(1 << v for v in vs)

        def rec(i: int, chosen: int, blocked: int):
            if i == len(vs):
                if not reveal & ~(chosen | blocked):
                    yield chosen
                return
            v = vs[i]
            if not blocked >> v & 1:
                yield from rec(i + 1, chosen | 1 << v, blocked | adj[v])
            yield from rec(i + 1, chosen, blocked)

        yield from rec(0, 0, 0)


def solve_paintability(game_graph: Graph, budgets: TokenBudgets) -> str:
    """Winner of the game under optimal play: "painter" or "lister"."""
    return PaintabilitySolver(game_graph, budgets).solve()


class OracleLister:
    """Plays minimax-perfect reveals computed on the fly: a provably
    winning reveal when one exists, otherwise the full alive set."""

    name = "oracle"

    def __init__(self, game_graph: Graph, budgets: TokenBudgets):
        self.solver = PaintabilitySolver(game_graph, budgets)

    def reset(self):
        pass

    def choose_reveal(self, state: GameState, game_graph: Graph) -> set[int]:
        win = self.solver.winning_reveal(state.alive, state.tokens)
        if win is not None:
            return win
        return set(state.alive)


def oracle_lister(game_graph: Graph, budgets: TokenBudgets) -> OracleLister:
    return OracleLister(game_graph, budgets)


# ---------------------------------------------------------------------------
# choosability

def solve_choosability(game_graph: Graph, t: int) -> bool:
    """True iff every assignment of t-element color lists admits a
    proper coloring from the lists.

    Assignments are enumerated up to color renaming: colors are
    integers introduced in increasing order along the vertex sequence,
    which visits every assignment exactly once per renaming class. For
    the last vertex the adversary's choice is eliminated analytically:
    an assignment of the first n-1 lists extends to a bad one iff at
    least t colors appear on the last vertex's neighborhood under every
    proper coloring of the prefix.
    """
    n = game_graph.n
    if n > 8:
        raise CapExceededError(f"{n} vertices exceeds choosability cap 8")
    if t > 4:
        raise CapExceededError(f"list size {t} exceeds choosability cap 4")
    if t < 1:
        raise PreconditionError("list size must be >= 1")
    if n == 1:
        return True

    # Put the highest-degree vertex last: its list choice is the one
    # eliminated analytically, and prefix vertices keep graph edges early.
    order = sorted(range(n), key=lambda v: (game_graph.degree(v), v))
    last = order[-1]
    prefix = order[:-1]
    prefix_index = {v: i for i, v in enumerate(prefix)}
    earlier_nb = [[prefix_index[u] for u in game_graph.adj[v]
                   if u in prefix_index and prefix_index[u] < i]
                  for i, v in enumerate(prefix)]
    last_neighbors = [i for i, v in enumerate(prefix)
                      if game_graph.has_edge(v, last)]

    lists: list[tuple[int, ...]] = [()] * len(prefix)

    def last_vertex_blocked() -> bool:
        # Intersect colors on last's neighborhood over all proper
        # prefix colorings; >= t shared colors means some list for the
        # last vertex is uncolorable.
        blocked: Optional[set[int]] = None
        coloring = [0] * len(prefix)

        def colorings(i: int):
            nonlocal blocked
            if blocked is not None and len(blocked) < t:
                return False
            if i == len(prefix):
                cols = {coloring[j] for j in last_neighbors}
                blocked = cols if blocked is None else blocked & cols
                return not (blocked is not None and len(blocked) < t)
            for c in lists[i]:
                if all(coloring[j] != c for j in earlier_nb[i]):
                    coloring[i] = c
                    if not colorings(i + 1):
                        return False
            return True

        colorings(0)
        if blocked is None:
            return True  # prefix itself has no proper coloring
        return len(blocked) >= t

    def assign(i: int, used: int) -> bool:
        """Enumerate canonical lists for prefix vertex i; False once a
        bad assignment is found."""
        if i == len(prefix):
            return not last_vertex_blocked()
        for new in range(t + 1):
            fresh = tuple(range(used, used + new))
            for old in combinations(range(used), t - new):
                lists[i] = old + fresh
                if not assign(i + 1, used + new):
                    return False
        return True

    return assign(0, 0)


def greedy_color(game_graph: Graph, order) -> dict[int, int]:
    """First-fit proper coloring along the order; colors are positive
    integers, at most max degree + 1 of them."""
    if sorted(order) != list(range(game_graph.n)):
        raise PreconditionError("order must be a permutation of 0..n-1")
    coloring: dict[int, int] = {}
    for u in order:
        taken = {coloring[v] for v in game_graph.adj[u] if v in coloring}
        c = 1
        while c in taken:
            c += 1
        coloring[u] = c
    return coloring
