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
CHOOSABILITY_VERTEX_CAP = 8
CHOOSABILITY_LIST_CAP = 4


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


def _peel(adj: tuple[int, ...], alive: int, tokens,
          todo: Optional[int] = None) -> int:
    """The alive mask left once every vertex with more tokens than
    alive neighbours is deleted, repeatedly. A deletion lowers only its
    neighbours' degrees, so only they are checked again. ``todo`` (every
    alive vertex by default) is the set to check first; a caller may
    pass fewer when it knows the others pass."""
    if todo is None:
        todo = alive
    while todo:
        v = (todo & -todo).bit_length() - 1
        todo ^= 1 << v
        if tokens[v] > (adj[v] & alive).bit_count():
            alive ^= 1 << v
            todo |= adj[v] & alive
    return alive


_BITS_BOUND = 1 << DEFAULT_VERTEX_CAP  # fixed at import: at most 4096 keys
_BITS: dict[int, tuple[int, ...]] = {}  # masks below the bound, from first use


def _bits(mask: int) -> tuple[int, ...]:
    """The vertices of ``mask``, ascending."""
    try:
        return _BITS[mask]
    except KeyError:
        out = tuple(v for v in range(mask.bit_length()) if mask >> v & 1)
    if mask < _BITS_BOUND:
        _BITS[mask] = out
    return out


class PaintabilitySolver:
    """Exact minimax for the online list-coloring game.

    States are (alive set, token vector). The memo key is the peeled
    state itself: the alive mask and the tokens on alive vertices.
    Clique states short-circuit through the sorted-token criterion. The
    painter only ever colors a maximal independent subset of the reveal.
    Coloring a superset J of I leaves the successor of I minus the
    vertices of J not in I, with the same tokens on every vertex left,
    and a painter who wins on a graph wins on each of its induced
    subgraphs (Zhu 2009). A revealed vertex with one token left dies
    unless colored, so only the maximal independent sets that contain
    every such vertex are tried, and none if two of them are adjacent.

    Every state is peeled first: an alive vertex v with more tokens
    than alive neighbours is deleted, repeatedly. The verdict is
    unchanged. Deleting v cannot turn a painter win into a loss (again
    induced subgraphs). Conversely, the painter follows a winning
    strategy on the rest and adds v to its reply whenever v is revealed
    and no neighbour of v is colored that round. Each round that reveals
    v and leaves it uncolored colors one of its neighbours, and each
    neighbour is colored once, so v loses at most deg(v) < tokens[v]
    tokens (Schauz 2009; Zhu 2009). Peeling thus bounds each state's
    tokens on v by v's alive degree, so only the vertex cap is needed.
    A reply is applied to a peeled state and tokens only fall, so only
    the neighbours of the colored vertices can newly peel: the
    successor's peel starts from them alone. All replies to a reveal
    share one token vector with every revealed vertex drained: colored
    vertices leave the alive set, and the peel, the memo key and the
    forced set read only alive vertices' tokens. The replies are walked
    include-first: greedily, stacking only the skip of each vertex colored.

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
        budgets = TokenBudgets(budgets)
        if len(budgets) != game_graph.n:
            raise PowerPaintError("budget length does not match vertex count")
        if game_graph.n > DEFAULT_VERTEX_CAP:
            raise CapExceededError(
                f"{game_graph.n} vertices exceeds cap {DEFAULT_VERTEX_CAP}")
        self.n = game_graph.n
        self.adj_masks = game_graph.masks
        self.budgets = budgets
        self.memo = {}
        self._nbr = None  # nbr[S]: the union of S's neighbourhoods

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
            if type(v) is not int or not 0 <= v < self.n:
                raise PreconditionError(
                    f"vertex {v!r} is not in 0..{self.n - 1}")
            if type(left) is not int or left < 1:
                raise PreconditionError(f"vertex {v} has {left!r} tokens")
            alive |= 1 << v
            tokens[v] = left
        if self._painter_wins(alive, tuple(tokens)):
            return None
        # a reveal that wins on the peeled core wins on the full state,
        # and _painter_survives peels successors from a peeled state
        core = _peel(self.adj_masks, alive, tokens)
        for reveal in self._reveals(core):
            if not self._painter_survives(core, tuple(tokens), reveal):
                return set(_bits(reveal))
        raise AssertionError("lister-winning state with no winning reveal")

    # -- internals ---------------------------------------------------------

    def _reveals(self, alive: int):
        """The nonempty subsets of ``alive`` in which every vertex has a
        neighbour inside the subset, in descending order."""
        nbr = self._nbr
        if nbr is None:
            nbr = self._nbr = [0]
            for m in self.adj_masks:
                nbr += [s | m for s in nbr]
        sub = alive
        while sub:
            if not sub & ~nbr[sub]:
                yield sub
            sub = (sub - 1) & alive

    def _painter_wins(self, alive: int, tokens: tuple[int, ...],
                      todo: Optional[int] = None) -> bool:
        adj = self.adj_masks
        alive = _peel(adj, alive, tokens, todo)
        if alive == 0:
            return True
        vs = _bits(alive)
        alive_tokens = tuple([tokens[v] for v in vs])
        if all(alive & ~adj[v] == 1 << v for v in vs):
            return _clique_painter_wins(alive_tokens)
        key = (alive, alive_tokens)
        if key not in self.memo:
            self.memo[key] = all(self._painter_survives(alive, tokens, reveal)
                                 for reveal in self._reveals(alive))
        return self.memo[key]

    def _painter_survives(self, alive: int, tokens: tuple[int, ...],
                          reveal: int) -> bool:
        """True if some maximal independent subset of the reveal that
        colors every one-token vertex leads the painter to a winning
        successor. ``alive`` must be peeled under ``tokens``."""
        drained = list(tokens)
        forced = 0
        for v in _bits(reveal):
            if drained[v] == 1:
                forced |= 1 << v
            drained[v] -= 1
        drained = tuple(drained)
        for colored, touched in self._replies(reveal, forced):
            rest = alive & ~colored
            if self._painter_wins(rest, drained, touched & rest):
                return True
        return False

    def _replies(self, reveal: int, forced: int):
        """The maximal independent subsets of ``reveal`` that contain
        ``forced``, as ``(colored, touched)`` masks, where ``touched`` is
        the union of the colored vertices' neighbourhoods. Each is
        generated once, include-first along the vertices, and only when
        asked for; there are none if ``forced`` is not independent."""
        adj = self.adj_masks
        touched = 0
        for v in _bits(forced):
            touched |= adj[v]
        if touched & forced:
            return
        free = reveal & ~(forced | touched)
        vs = _bits(free)
        stack = [(0, forced, touched)]
        while stack:
            i, colored, touched = stack.pop()
            for j in range(i, len(vs)):
                v = vs[j]
                if not touched >> v & 1:
                    stack.append((j + 1, colored, touched))
                    colored |= 1 << v
                    touched |= adj[v]
            if not free & ~(colored | touched):
                yield colored, touched


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

    Lists and color sets are int masks, color c being bit c. One
    recursion, ``shared``, walks the proper prefix colorings depth
    first and narrows ``common``, at first every color in use (at least
    t), to the colors that each of them puts on the last vertex's
    neighborhood. It stops once fewer than t remain.

    The caps apply to the input graph, which is first peeled with t
    tokens on every vertex: a vertex with fewer than t kept neighbours
    is deleted, repeatedly, since coloring the rest and then such
    vertices last, greedily, always finds a free color in a t-list. The
    enumeration runs on the core.
    """
    n = game_graph.n
    if n > CHOOSABILITY_VERTEX_CAP:
        raise CapExceededError(f"{n} vertices exceeds choosability cap "
                               f"{CHOOSABILITY_VERTEX_CAP}")
    if t > CHOOSABILITY_LIST_CAP:
        raise CapExceededError(f"list size {t} exceeds choosability cap "
                               f"{CHOOSABILITY_LIST_CAP}")
    if t < 1:
        raise PreconditionError("list size must be >= 1")
    adj = game_graph.masks
    core = _peel(adj, (1 << n) - 1, [t] * n)
    if core.bit_count() <= 1:
        return True

    # Put the highest-degree vertex last: its list choice is the one
    # eliminated analytically, and prefix vertices keep graph edges early.
    *prefix, last = sorted(_bits(core),
                           key=lambda v: ((adj[v] & core).bit_count(), v))
    lists = [0] * len(prefix)
    color = [0] * n  # the color bit of each colored prefix vertex, else 0

    def shared(i: int, seen: int, common: int) -> int:
        """``common`` narrowed by each proper coloring of prefix[i:]
        that extends the colored prefix[:i], whose colors on the last
        vertex's neighborhood are ``seen``."""
        if i == len(prefix):
            return common & seen
        v = prefix[i]
        free = lists[i]
        for u in game_graph.adj[v]:
            free &= ~color[u]
        on_last = adj[last] >> v & 1
        while free:
            c = free & -free
            free ^= c
            color[v] = c
            common = shared(i + 1, seen | c if on_last else seen, common)
            if common.bit_count() < t:
                break
        color[v] = 0
        return common

    def assign(i: int, used: int) -> bool:
        """Enumerate canonical lists for prefix vertex i; False once a
        bad assignment is found."""
        if i == len(prefix):
            return shared(0, 0, (1 << used) - 1).bit_count() < t
        for new in range(t + 1):
            fresh = (1 << used + new) - (1 << used)
            for old in combinations(range(used), t - new):
                lists[i] = fresh | sum(1 << c for c in old)
                if not assign(i + 1, used + new):
                    return False
        return True

    return assign(0, 0)
