"""Referee for the online list-coloring game: round loop, legality
checks, transcripts, and the baseline adversaries.

Each round r stands for one color: the Lister reveals the set of uncolored
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


class TokenBudgets(tuple):
    """Per-vertex reveal budgets (list sizes): a tuple of ints >= 1,
    checked once when it is built."""

    def __new__(cls, f):
        self = super().__new__(cls, f)
        for x in self:
            if type(x) is not int:
                raise PowerPaintError(f"budget {x!r} is not an integer")
            if x < 1:
                raise PowerPaintError("every budget must be >= 1")
        return self

    @classmethod
    def uniform(cls, n: int, t: int) -> "TokenBudgets":
        return cls([t] * n)


class GameState:
    """Mutable per-game state; strategies must treat it as read-only.
    ``tokens`` maps each uncolored vertex to the tokens it has left, so
    its keys are the uncolored vertices; coloring a vertex deletes it."""

    def __init__(self, budgets: TokenBudgets):
        self.budgets = budgets
        self.tokens = dict(enumerate(budgets))
        self.round = 0  # 1-based once play starts


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
                "budget": list(self.budgets),
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
        """Parse one line of ``to_json``. Invalid JSON, a missing key, a
        wrong container type, a non-integer count or id or a bad budget
        raises PowerPaintError."""
        try:
            obj = json.loads(text)
            h = obj["header"]
            t = cls(
                n=_int(h["n"], "n"),
                budgets=TokenBudgets(h["budget"]),
                painter_name=h["painter"],
                lister_name=h["lister"],
                seed=h.get("seed"),
                k=h.get("k"),
            )
            t.rounds = [
                Round(index=_int(r["round"], "round"),
                      revealed=tuple(_int(v, "vertex") for v in r["revealed"]),
                      colored=tuple(_int(v, "vertex") for v in r["colored"]))
                for r in obj["rounds"]
            ]
            t.winner = obj["winner"]
            loser = obj.get("loser_vertex")
        except KeyError as exc:
            raise PowerPaintError(f"transcript has no {exc} field") from exc
        except (TypeError, AttributeError, ValueError) as exc:
            raise PowerPaintError(f"malformed transcript: {exc}") from exc
        t.loser_vertex = None if loser is None else _int(loser, "vertex")
        return t


def _int(x, what: str) -> int:
    """A count, id or round index read from a transcript. JSON numbers
    such as 2.0 or true compare equal to ints, so they would pass the
    replay's checks and fail later, or never."""
    if type(x) is not int:
        raise PowerPaintError(f"transcript {what} {x!r} is not an integer")
    return x


def _check_reveal(state: GameState, revealed: set[int]) -> None:
    """The Lister's rule: a nonempty set of uncolored vertices."""
    if not revealed:
        raise IllegalListerMove(f"empty reveal, round {state.round}")
    if revealed.difference(state.tokens):
        raise IllegalListerMove(
            f"revealed vertex not alive, round {state.round}")


def _apply_coloring(game_graph: Graph, state: GameState, revealed: set[int],
                    colored: set[int]) -> Optional[int]:
    """Color the set, drain the rest of the reveal, return the least loser.
    The set is independent iff it misses the OR of its neighbor masks."""
    if not colored <= revealed:
        raise IllegalPainterMove(
            f"colored vertex not revealed, round {state.round}")
    masks = game_graph.masks
    bits = block = 0
    for v in colored:
        bits |= 1 << v
        block |= masks[v]
    if block & bits:
        raise IllegalPainterMove(f"dependent set, round {state.round}")
    tokens = state.tokens
    for v in colored:
        del tokens[v]
    losers = []
    for v in revealed - colored:
        left = tokens[v] = tokens[v] - 1
        if not left:
            losers.append(v)
    return min(losers) if losers else None


def play_game(game_graph: Graph, budgets: TokenBudgets, lister, painter,
              seed: Optional[int] = None,
              k: Optional[int] = None) -> Transcript:
    """Run one full game and return a validated transcript.

    Each player has a ``name``, recorded in the transcript, and
    ``reset()``, called at game start so instances can be reused across
    games. ``lister.choose_reveal(state, game_graph)`` returns a nonempty
    subset of the uncolored vertices, which are the keys of
    ``state.tokens``; ``painter.choose_colors(state, game_graph,
    revealed)`` returns an independent subset of it.
    """
    if len(budgets) != game_graph.n:
        raise PowerPaintError("budget length does not match vertex count")
    max_rounds = sum(budgets)
    lister.reset()
    painter.reset()
    state = GameState(budgets)
    t = Transcript(n=game_graph.n, budgets=budgets,
                   painter_name=painter.name, lister_name=lister.name,
                   seed=seed, k=k)
    while state.tokens:
        if state.round >= max_rounds:
            raise PowerPaintError(
                f"game exceeded {max_rounds} rounds; referee bug")
        state.round += 1
        revealed = set(lister.choose_reveal(state, game_graph))
        _check_reveal(state, revealed)
        colored = set(painter.choose_colors(state, game_graph, revealed))
        loser = _apply_coloring(game_graph, state, revealed, colored)
        t.rounds.append(Round(index=state.round,
                              revealed=tuple(sorted(revealed)),
                              colored=tuple(sorted(colored))))
        if loser is not None:
            t.winner, t.loser_vertex = "lister", loser
            return t
    t.winner = "painter"
    return t


def validate_transcript(game_graph: Graph, budgets: TokenBudgets,
                        t: Transcript) -> Optional[str]:
    """Replay a transcript; return None if legal and consistent, else a
    description of the first violated rule."""
    if t.n != game_graph.n or len(budgets) != game_graph.n:
        return "header vertex count mismatch"
    if t.budgets != budgets:
        return "header budget mismatch"
    state = GameState(budgets)
    loser = None
    for i, r in enumerate(t.rounds, start=1):
        if r.index != i:
            return f"round index {r.index} out of sequence, round {i}"
        if loser is not None:
            return f"play continues after the game ended, round {i}"
        state.round = i
        revealed, colored = set(r.revealed), set(r.colored)
        try:
            _check_reveal(state, revealed)
            loser = _apply_coloring(game_graph, state, revealed, colored)
        except (IllegalListerMove, IllegalPainterMove) as exc:
            return str(exc)
    if loser is None and state.tokens:
        return "transcript ends with uncolored vertices and no loser"
    expected_winner = "painter" if loser is None else "lister"
    if t.winner != expected_winner:
        return f"recorded winner {t.winner!r}, replay says {expected_winner!r}"
    if t.loser_vertex != loser:
        return f"recorded loser {t.loser_vertex}, replay says {loser}"
    return None


# ---------------------------------------------------------------------------
# baseline Listers

class RandomLister:
    """Reveals a uniformly random nonempty subset of uncolored vertices:
    each uncolored vertex independently with probability 1/2, resampling
    empty draws. Deterministic per seed."""

    name = "random"

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(seed)

    def reset(self):
        self.rng = random.Random(self.seed)

    def choose_reveal(self, state: GameState, game_graph: Graph) -> set[int]:
        uncolored = sorted(state.tokens)
        rand = self.rng.random
        while True:
            picked = {v for v in uncolored if rand() < 0.5}
            if picked:
                return picked


class PressureLister:
    """Targets the uncolored vertex with fewest remaining tokens (ties by
    id) and reveals its uncolored closed neighborhood in the game graph."""

    name = "pressure"

    def reset(self):
        pass

    def choose_reveal(self, state: GameState, game_graph: Graph) -> set[int]:
        tokens = state.tokens
        target = min(tokens, key=lambda v: (tokens[v], v))
        reveal = {target}
        reveal.update(v for v in game_graph.adj[target] if v in tokens)
        return reveal


# Called by perfbench/workloads.py and perfbench/test_smoke.py.
def random_lister(seed: int) -> RandomLister:
    return RandomLister(seed)


# Called by perfbench/workloads.py.
def pressure_lister() -> PressureLister:
    return PressureLister()
