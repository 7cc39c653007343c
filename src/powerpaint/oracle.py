"""Ground truth at desk scale: exact paintability by memoized game-tree
search (with degree peeling and a closed-form fast path for clique
states), and brute-force choosability on the peeled core.
"""

from __future__ import annotations

from itertools import combinations
from typing import Optional

from .errors import CapExceededError, PowerPaintError, PreconditionError
from .game import GameState, TokenBudgets
from .graph import Graph

PAINTER = "painter"
LISTER = "lister"

DEFAULT_VERTEX_CAP = 12
DEFAULT_TOKEN_CAP = 128


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


def _peel(adj: tuple[int, ...], alive: int, tokens) -> int:
    """The alive mask left once every vertex with more tokens than
    alive neighbours is deleted, repeatedly. A deletion lowers only its
    neighbours' degrees, so only they are checked again."""
    todo = alive
    while todo:
        v = (todo & -todo).bit_length() - 1
        todo ^= 1 << v
        if tokens[v] > (adj[v] & alive).bit_count():
            alive ^= 1 << v
            todo |= adj[v] & alive
    return alive


def _is_clique(adj_masks: tuple[int, ...], alive_mask: int, n: int) -> bool:
    for v in range(n):
        if alive_mask >> v & 1:
            if alive_mask & ~(adj_masks[v] | 1 << v):
                return False
    return True


class PaintabilitySolver:
    """Exact minimax for the online list-coloring game.

    States are (alive set, token vector). The memo key is the peeled
    state itself: the alive mask and the tokens on alive vertices.
    Clique states short-circuit through the sorted-token criterion. The
    painter only ever colors a maximal independent subset of the reveal.
    Coloring a superset J of I leaves the successor of I minus the
    vertices of J not in I, with the same tokens on every vertex left,
    and a painter who wins on a graph wins on each of its induced
    subgraphs (Zhu 2009).

    Every state is peeled first: an alive vertex v with more tokens
    than alive neighbours is deleted, repeatedly. The verdict is
    unchanged. Deleting v cannot turn a painter win into a loss (again
    induced subgraphs). Conversely, the painter follows a winning
    strategy on the rest and adds v to its reply whenever v is revealed
    and no neighbour of v is colored that round. Each round that reveals
    v and leaves it uncolored colors one of its neighbours, and each
    neighbour is colored once, so v loses at most deg(v) < tokens[v]
    tokens (Schauz 2009; Zhu 2009).

    The lister only ever reveals a set S in which every vertex has a
    neighbour inside S. Say v has none. Every maximal reply to S is
    I + v for a maximal reply I to S - v, and both drain the same
    vertices, so the successor of S is that of S - v minus v: if the
    painter survives S - v, it survives S. So removing isolated vertices
    from a winning reveal one at a time keeps it winning, and ends either
    at a reveal with no isolated vertex or at a singleton {v}. A winning
    {v} means the lister wins on the state without v; by induction on the
    alive set, some reveal with no isolated vertex wins there, and it
    wins on the full state too (again induced subgraphs). A peeled state
    has no isolated vertex, so its full alive set is always revealed.
    """

    def __init__(self, game_graph: Graph, budgets: TokenBudgets):
        if len(budgets) != game_graph.n:
            raise PowerPaintError("budget length does not match vertex count")
        if game_graph.n > DEFAULT_VERTEX_CAP:
            raise CapExceededError(
                f"{game_graph.n} vertices exceeds cap {DEFAULT_VERTEX_CAP}")
        if sum(budgets) > DEFAULT_TOKEN_CAP:
            raise CapExceededError(
                f"total budget {sum(budgets)} exceeds cap {DEFAULT_TOKEN_CAP}")
        self.n = game_graph.n
        self.adj_masks = game_graph.masks
        self.budgets = budgets
        self.memo = {}

    def solve(self) -> str:
        alive = (1 << self.n) - 1
        return PAINTER if self._painter_wins(alive, self.budgets) else LISTER

    def winning_reveal(self, tokens_by_vertex) -> Optional[set[int]]:
        """A reveal from which every painter reply loses, or None if the
        state is painter-winning. ``tokens_by_vertex`` maps each
        uncolored vertex to its tokens left, as ``GameState.tokens``."""
        alive = 0
        tokens = [0] * self.n
        for v, left in tokens_by_vertex.items():
            alive |= 1 << v
            tokens[v] = left
        if self._painter_wins(alive, tuple(tokens)):
            return None
        # a reveal that wins on the peeled core wins on the full state
        core = _peel(self.adj_masks, alive, tokens)
        for reveal in self._reveals(core):
            if not self._painter_survives(core, tuple(tokens), reveal):
                return {v for v in range(self.n) if reveal >> v & 1}
        raise AssertionError("lister-winning state with no winning reveal")

    # -- internals ---------------------------------------------------------

    def _reveals(self, alive: int):
        """The nonempty subsets of ``alive`` in which every vertex has a
        neighbour inside the subset."""
        adj = self.adj_masks
        sub = alive
        while sub:
            if all(adj[v] & sub for v in range(self.n) if sub >> v & 1):
                yield sub
            sub = (sub - 1) & alive

    def _painter_wins(self, alive: int, tokens: tuple[int, ...]) -> bool:
        alive = _peel(self.adj_masks, alive, tokens)
        if alive == 0:
            return True
        alive_tokens = tuple(tokens[v] for v in range(self.n)
                             if alive >> v & 1)
        if _is_clique(self.adj_masks, alive, self.n):
            return _clique_painter_wins(alive_tokens)
        key = (alive, alive_tokens)
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
    winning reveal when one exists, otherwise every uncolored vertex."""

    name = "oracle"

    def __init__(self, game_graph: Graph, budgets: TokenBudgets):
        self.solver = PaintabilitySolver(game_graph, budgets)

    def reset(self):
        pass

    def choose_reveal(self, state: GameState, game_graph: Graph) -> set[int]:
        win = self.solver.winning_reveal(state.tokens)
        return set(state.tokens) if win is None else win


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

    The caps apply to the input graph, which is first peeled with t
    tokens on every vertex: a vertex with fewer than t kept neighbours
    is deleted, repeatedly, since coloring the rest and then such
    vertices last, greedily, always finds a free color in a t-list. The
    enumeration runs on the core.
    """
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
