"""Referee for the online list-coloring game: round loop, legality
checks, transcripts, and the baseline adversaries.

Each round r stands for one color: the Lister reveals the set of alive
vertices whose lists contain color r, the Painter immediately colors an
independent subset of them. A vertex whose reveal budget hits zero
uncolored loses the game for the Painter.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Optional

from .errors import IllegalListerMove, IllegalPainterMove, PowerPaintError
from .graph import Graph


class TokenBudgets:
    """Per-vertex reveal budgets (list sizes)."""

    def __init__(self, f: list[int]):
        if any(x < 1 for x in f):
            raise PowerPaintError("every budget must be >= 1")
        self.f = tuple(f)

    @classmethod
    def uniform(cls, n: int, t: int) -> "TokenBudgets":
        return cls([t] * n)

    def __getitem__(self, v: int) -> int:
        return self.f[v]

    def total(self) -> int:
        return sum(self.f)

    def __len__(self):
        return len(self.f)

    def __eq__(self, other):
        return isinstance(other, TokenBudgets) and self.f == other.f


class GameState:
    """Mutable per-game state; strategies must treat it as read-only."""

    def __init__(self, budgets: TokenBudgets):
        self.alive = set(range(len(budgets)))
        self.tokens = {v: budgets[v] for v in self.alive}
        self.round = 0  # 1-based once play starts

    def color(self, v: int):
        self.alive.discard(v)
        del self.tokens[v]


@dataclass
class Round:
    index: int
    revealed: tuple[int, ...]
    colored: tuple[int, ...]


@dataclass
class Transcript:
    n: int
    budgets: TokenBudgets
    painter_name: str
    lister_name: str
    seed: Optional[int]
    rounds: list[Round] = field(default_factory=list)
    winner: str = ""                      # "painter" | "lister"
    loser_vertex: Optional[int] = None
    k: Optional[int] = None

    def to_json(self) -> str:
        obj = {
            "header": {
                "n": self.n,
                "k": self.k,
                "budget": list(self.budgets.f),
                "painter": self.painter_name,
                "lister": self.lister_name,
                "seed": self.seed,
            },
            "rounds": [
                {"round": r.index,
                 "revealed": sorted(r.revealed),
                 "colored": sorted(r.colored)}
                for r in self.rounds
            ],
            "winner": self.winner,
        }
        if self.loser_vertex is not None:
            obj["loser_vertex"] = self.loser_vertex
        return json.dumps(obj)

    @classmethod
    def from_json(cls, text: str) -> "Transcript":
        obj = json.loads(text)
        h = obj["header"]
        t = cls(
            n=h["n"],
            budgets=TokenBudgets(h["budget"]),
            painter_name=h["painter"],
            lister_name=h["lister"],
            seed=h.get("seed"),
            k=h.get("k"),
        )
        t.rounds = [
            Round(index=r["round"], revealed=tuple(r["revealed"]),
                  colored=tuple(r["colored"]))
            for r in obj["rounds"]
        ]
        t.winner = obj["winner"]
        t.loser_vertex = obj.get("loser_vertex")
        return t


def _is_independent(game_graph: Graph, vs) -> bool:
    vs = list(vs)
    for i in range(len(vs)):
        for j in range(i + 1, len(vs)):
            if game_graph.has_edge(vs[i], vs[j]):
                return False
    return True


def play_game(game_graph: Graph, budgets: TokenBudgets, lister, painter,
              max_rounds: Optional[int] = None, seed: Optional[int] = None,
              k: Optional[int] = None) -> Transcript:
    """Run one full game and return a validated transcript.

    ``lister.choose_reveal(state, graph)`` returns a nonempty subset of
    alive vertices; ``painter.choose_colors(state, graph, revealed)``
    returns an independent subset of it. Both are reset() at game start
    so strategy instances can be reused across games.
    """
    if len(budgets) != game_graph.n:
        raise PowerPaintError("budget length does not match vertex count")
    if max_rounds is None:
        max_rounds = budgets.total()
    for strat in (lister, painter):
        reset = getattr(strat, "reset", None)
        if reset is not None:
            reset()
    state = GameState(budgets)
    t = Transcript(n=game_graph.n, budgets=budgets,
                   painter_name=getattr(painter, "name", type(painter).__name__),
                   lister_name=getattr(lister, "name", type(lister).__name__),
                   seed=seed, k=k)
    while state.alive:
        if state.round >= max_rounds:
            raise PowerPaintError(
                f"game exceeded {max_rounds} rounds; referee bug")
        state.round += 1
        revealed = set(lister.choose_reveal(state, game_graph))
        if not revealed:
            raise IllegalListerMove(f"empty reveal, round {state.round}")
        if not revealed.issubset(state.alive):
            raise IllegalListerMove(
                f"revealed dead/colored vertex, round {state.round}")
        colored = set(painter.choose_colors(state, game_graph, revealed))
        if not colored.issubset(revealed):
            raise IllegalPainterMove(
                f"colored vertex not revealed, round {state.round}")
        if not _is_independent(game_graph, colored):
            raise IllegalPainterMove(f"dependent set, round {state.round}")
        t.rounds.append(Round(index=state.round,
                              revealed=tuple(sorted(revealed)),
                              colored=tuple(sorted(colored))))
        for v in colored:
            state.color(v)
        loser = None
        for v in revealed - colored:
            state.tokens[v] -= 1
            if state.tokens[v] == 0 and loser is None:
                loser = v
        if loser is not None:
            t.winner = "lister"
            t.loser_vertex = loser
            return t
    t.winner = "painter"
    return t


def validate_transcript(game_graph: Graph, budgets: TokenBudgets,
                        t: Transcript) -> Optional[str]:
    """Replay a transcript; return None if legal and consistent, else a
    description of the first violated rule."""
    if t.n != game_graph.n or len(budgets) != game_graph.n:
        return "header vertex count mismatch"
    state = GameState(budgets)
    expected_winner = None
    loser = None
    for i, r in enumerate(t.rounds, start=1):
        if r.index != i:
            return f"round index {r.index} out of sequence, round {i}"
        state.round = i
        revealed, colored = set(r.revealed), set(r.colored)
        if expected_winner is not None:
            return f"play continues after the game ended, round {i}"
        if not revealed:
            return f"empty reveal, round {i}"
        if not revealed.issubset(state.alive):
            return f"revealed vertex not alive, round {i}"
        if not colored.issubset(revealed):
            return f"colored vertex not revealed, round {i}"
        if not _is_independent(game_graph, colored):
            return f"dependent set, round {i}"
        for v in colored:
            state.color(v)
        for v in revealed - colored:
            state.tokens[v] -= 1
            if state.tokens[v] == 0 and loser is None:
                loser = v
        if loser is not None:
            expected_winner = "lister"
    if expected_winner is None:
        if state.alive:
            return "transcript ends with uncolored vertices and no loser"
        expected_winner = "painter"
    if t.winner != expected_winner:
        return f"recorded winner {t.winner!r}, replay says {expected_winner!r}"
    if expected_winner == "lister" and t.loser_vertex != loser:
        return f"recorded loser {t.loser_vertex}, replay says {loser}"
    return None


# ---------------------------------------------------------------------------
# baseline Listers

class RandomLister:
    """Reveals a uniformly random nonempty subset of alive vertices:
    each alive vertex independently with probability 1/2, resampling
    empty draws. Deterministic per seed."""

    name = "random"

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(seed)

    def reset(self):
        self.rng = random.Random(self.seed)

    def choose_reveal(self, state: GameState, game_graph: Graph) -> set[int]:
        alive = sorted(state.alive)
        while True:
            picked = {v for v in alive if self.rng.random() < 0.5}
            if picked:
                return picked


class PressureLister:
    """Targets the alive vertex with fewest remaining tokens (ties by
    id) and reveals its alive closed neighborhood in the game graph."""

    name = "pressure"

    def reset(self):
        pass

    def choose_reveal(self, state: GameState, game_graph: Graph) -> set[int]:
        target = min(state.alive, key=lambda v: (state.tokens[v], v))
        reveal = {target}
        reveal.update(v for v in game_graph.adj[target] if v in state.alive)
        return reveal


def random_lister(seed: int) -> RandomLister:
    return RandomLister(seed)


def pressure_lister() -> PressureLister:
    return PressureLister()
