import itertools
import json
import math
import random
import re

import pytest

from powerpaint.errors import (
    IllegalListerMove,
    IllegalPainterMove,
    PowerPaintError,
)
from powerpaint.game import (
    GameState,
    Round,
    TokenBudgets,
    Transcript,
    PressureLister,
    RandomLister,
    _apply_coloring,
    play_game,
    validate_transcript,
)
from powerpaint.gen_io import complete, cycle, mcgee, path
from powerpaint.graph import Graph
from powerpaint.oracle import OracleLister
from powerpaint.painters import CliquePainter, GreedyScanPainter, TheoremPainter
from powerpaint.selftest import ScriptLister


class ScriptedLister:
    name = "scripted"

    def __init__(self, reveals):
        self.reveals = list(reveals)
        self.i = 0

    def reset(self):
        self.i = 0

    def choose_reveal(self, state, game_graph):
        r = self.reveals[self.i]
        self.i += 1
        return set(r)


class ScriptedPainter:
    name = "scripted"

    def __init__(self, moves):
        self.moves = list(moves)
        self.i = 0

    def reset(self):
        self.i = 0

    def choose_colors(self, state, game_graph, revealed):
        m = self.moves[self.i]
        self.i += 1
        return set(m)


class TestReferee:
    def test_k2_budget_one_forced_loss(self):
        g = complete(2)
        t = play_game(g, TokenBudgets.uniform(2, 1),
                      ScriptedLister([{0, 1}]), GreedyScanPainter([0, 1]))
        assert t.winner == "lister"
        assert t.loser_vertex == 1

    def test_k2_budget_two_painter_wins(self):
        g = complete(2)
        for seed in range(20):
            t = play_game(g, TokenBudgets.uniform(2, 2),
                          RandomLister(seed), GreedyScanPainter([0, 1]))
            assert t.winner == "painter"

    def test_p3_budget_two_painter_wins(self):
        g = path(3)
        for seed in range(50):
            # distance order toward endpoint 0: the middle vertex is
            # always scanned before an adjacent endpoint can block it
            t = play_game(g, TokenBudgets.uniform(3, 2),
                          RandomLister(seed), GreedyScanPainter([2, 1, 0]))
            assert t.winner == "painter"

    def test_empty_reveal_rejected(self):
        with pytest.raises(IllegalListerMove):
            play_game(complete(2), TokenBudgets.uniform(2, 2),
                      ScriptedLister([set()]), GreedyScanPainter([0, 1]))

    def test_dead_vertex_reveal_rejected(self):
        g = complete(2)
        lister = ScriptedLister([{0}, {0}])
        painter = ScriptedPainter([{0}, set()])
        with pytest.raises(IllegalListerMove):
            play_game(g, TokenBudgets.uniform(2, 2), lister, painter)

    def test_non_subset_coloring_rejected(self):
        with pytest.raises(IllegalPainterMove):
            play_game(complete(2), TokenBudgets.uniform(2, 2),
                      ScriptedLister([{0}]), ScriptedPainter([{1}]))

    def test_dependent_set_rejected(self):
        with pytest.raises(IllegalPainterMove):
            play_game(complete(2), TokenBudgets.uniform(2, 2),
                      ScriptedLister([{0, 1}]), ScriptedPainter([{0, 1}]))

    def test_simultaneous_losers_least_vertex_recorded(self):
        # two vertices run out in one round: the referee and the
        # validator both name the least one, whatever the set's order
        s = set()
        s.add(9)
        s.add(1)
        g = path(10)
        budgets = TokenBudgets.uniform(10, 1)
        t = play_game(g, budgets, ScriptedLister([s]),
                      ScriptedPainter([set()]))
        assert (t.winner, t.loser_vertex) == ("lister", 1)
        assert validate_transcript(g, budgets, t) is None

    def test_empty_coloring_is_legal(self):
        g = complete(2)
        lister = ScriptedLister([{0}, {0}, {1}, {1}])
        painter = ScriptedPainter([set(), {0}, set(), {1}])
        t = play_game(g, TokenBudgets.uniform(2, 2), lister, painter)
        assert t.winner == "painter"

    def test_round_bound(self):
        g = cycle(5)
        budgets = TokenBudgets.uniform(5, 3)
        for seed in range(20):
            t = play_game(g, budgets, RandomLister(seed),
                          GreedyScanPainter(range(5)))
            assert len(t.rounds) <= sum(budgets)

    def test_progress_measure_strictly_decreases(self):
        g = cycle(5)
        budgets = TokenBudgets.uniform(5, 3)
        t = play_game(g, budgets, RandomLister(3),
                      GreedyScanPainter(range(5)))
        state = GameState(budgets)
        measure = sum(state.tokens.values()) + len(state.tokens)
        for r in t.rounds:
            for v in r.colored:
                del state.tokens[v]
            for v in set(r.revealed) - set(r.colored):
                state.tokens[v] -= 1
            new_measure = sum(state.tokens.values()) + len(state.tokens)
            assert new_measure < measure
            measure = new_measure

    def test_winner_soundness(self):
        g = cycle(4)
        for seed in range(30):
            t = play_game(g, TokenBudgets.uniform(4, 2),
                          RandomLister(seed), GreedyScanPainter(range(4)))
            colored = [v for r in t.rounds for v in r.colored]
            if t.winner == "painter":
                assert sorted(colored) == list(range(4))
            assert len(colored) == len(set(colored))


class TestTranscript:
    def run_one(self):
        g = cycle(4)
        budgets = TokenBudgets.uniform(4, 2)
        t = play_game(g, budgets, RandomLister(5),
                      GreedyScanPainter(range(4)), seed=5, k=1)
        return g, budgets, t

    def test_emitted_transcripts_validate(self):
        g, budgets, t = self.run_one()
        assert validate_transcript(g, budgets, t) is None

    def test_json_round_trip(self):
        g, budgets, t = self.run_one()
        t2 = Transcript.from_json(t.to_json())
        assert validate_transcript(g, budgets, t2) is None
        assert t2 == t
        obj = json.loads(t.to_json())
        assert set(obj["header"]) == {"n", "k", "budget", "painter",
                                      "lister", "seed"}

    def test_equality_reads_every_field(self):
        _, _, t = self.run_one()
        for name in vars(t):
            other = Transcript.from_json(t.to_json())
            setattr(other, name, "changed")
            assert other != t, name

    def test_colored_not_revealed_violation(self):
        g, budgets, t = self.run_one()
        bad = Transcript.from_json(t.to_json())
        bad.rounds[0] = Round(1, bad.rounds[0].revealed, (3,)) \
            if 3 not in bad.rounds[0].revealed else \
            Round(1, tuple(v for v in bad.rounds[0].revealed if v != 3), (3,))
        msg = validate_transcript(g, budgets, bad)
        assert msg and "round 1" in msg

    def test_dependent_set_violation(self):
        g = complete(3)
        budgets = TokenBudgets.uniform(3, 3)
        bad = Transcript(n=3, budgets=budgets, painter_name="x",
                         lister_name="y", seed=None)
        bad.rounds = [Round(1, (0, 1, 2), (0, 1))]
        bad.winner = "painter"
        msg = validate_transcript(g, budgets, bad)
        assert "dependent set, round 1" in msg

    def test_wrong_winner_detected(self):
        g, budgets, t = self.run_one()
        bad = Transcript.from_json(t.to_json())
        bad.winner = "lister" if t.winner == "painter" else "painter"
        assert validate_transcript(g, budgets, bad) is not None


# (case, header budget, rounds, winner, loser, expected message, round
# named in it); each is replayed on K2 with one token per vertex.
REJECTIONS = [
    ("vertex count", [1, 1, 1], [], "painter", None,
     "header vertex count mismatch", None),
    ("budget", [2, 2], [(1, (0,), (0,)), (2, (1,), (1,))], "painter", None,
     "header budget mismatch", None),
    ("index", [1, 1], [(2, (0,), (0,))], "painter", None,
     "round index 2 out of sequence", 1),
    ("after end", [1, 1], [(1, (0, 1), (0,)), (2, (1,), (1,))], "lister", 1,
     "play continues after the game ended", 2),
    ("empty reveal", [1, 1], [(1, (), ())], "painter", None,
     "empty reveal", 1),
    ("not alive", [1, 1], [(1, (0,), (0,)), (2, (0,), ())], "painter", None,
     "revealed vertex not alive", 2),
    ("unfinished", [1, 1], [(1, (0,), (0,))], "painter", None,
     "transcript ends with uncolored vertices and no loser", None),
    ("loser", [1, 1], [(1, (0, 1), (0,))], "lister", 0,
     "recorded loser 0, replay says 1", None),
]


@pytest.mark.parametrize("case,budget,rounds,winner,loser,expected,round_i",
                         REJECTIONS, ids=[c[0] for c in REJECTIONS])
def test_validator_rejections(case, budget, rounds, winner, loser, expected,
                              round_i):
    t = Transcript(n=len(budget), budgets=TokenBudgets(budget),
                   painter_name="x", lister_name="y", seed=None)
    t.rounds = [Round(*r) for r in rounds]
    t.winner, t.loser_vertex = winner, loser
    msg = validate_transcript(complete(2), TokenBudgets.uniform(2, 1), t)
    assert msg is not None and expected in msg
    if round_i is not None:
        assert f"round {round_i}" in msg


# JSON values that compare equal to a vertex id or round index but are
# not ints: (case, key, value), set in round 1 or, for the loser, at
# the top level of a legal lister win on K2 with one token each.
NON_INT_FIELDS = [
    ("float colored", "colored", [0.0]),
    ("bool revealed", "revealed", [True, 0]),
    ("float round", "round", 1.0),
    ("string round", "round", "1"),
    ("float loser", "loser_vertex", 1.0),
]


def k2_lister_win(seed=None):
    """A legal transcript as a dict: K2, one token each, the lister
    wins at vertex 1."""
    return {"header": {"n": 2, "k": 1, "budget": [1, 1], "painter": "x",
                       "lister": "y", "seed": seed},
            "rounds": [{"round": 1, "revealed": [0, 1], "colored": [0]}],
            "winner": "lister", "loser_vertex": 1}


@pytest.mark.parametrize("case,key,value", NON_INT_FIELDS,
                         ids=[c[0] for c in NON_INT_FIELDS])
def test_from_json_rejects_non_integer_ids(case, key, value):
    obj = k2_lister_win()
    legal = Transcript.from_json(json.dumps(obj))
    assert validate_transcript(complete(2), TokenBudgets.uniform(2, 1),
                               legal) is None
    (obj if key == "loser_vertex" else obj["rounds"][0])[key] = value
    with pytest.raises(PowerPaintError, match="is not an integer"):
        Transcript.from_json(json.dumps(obj))


# Header and result fields of the wrong JSON type: (case, key, value,
# message part), set in the legal transcript above; a null k or seed
# is legal.
BAD_HEADER_FIELDS = [
    ("string k", "k", "three", "transcript k 'three' is not an integer"),
    ("float k", "k", 3.0, "transcript k 3.0 is not an integer"),
    ("list seed", "seed", [1], r"transcript seed \[1\] is not an integer"),
    ("int painter", "painter", 5, "transcript painter 5 is not a string"),
    ("null lister", "lister", None,
     "transcript lister None is not a string"),
    ("bool winner", "winner", True, "transcript winner True is not a string"),
]


@pytest.mark.parametrize("case,key,value,expected", BAD_HEADER_FIELDS,
                         ids=[c[0] for c in BAD_HEADER_FIELDS])
def test_from_json_rejects_bad_header_fields(case, key, value, expected):
    obj = k2_lister_win(seed=7)
    legal = Transcript.from_json(json.dumps(obj))
    assert (legal.k, legal.seed) == (1, 7)
    obj["header"]["k"] = obj["header"]["seed"] = None
    nulls = Transcript.from_json(json.dumps(obj))
    assert (nulls.k, nulls.seed) == (None, None)
    (obj if key == "winner" else obj["header"])[key] = value
    with pytest.raises(PowerPaintError, match=expected):
        Transcript.from_json(json.dumps(obj))


# Lines that are not transcripts: (case, JSON text, message part).
MALFORMED = [
    ("empty object", "{}", "no 'header' field"),
    ("list", "[]", "malformed transcript"),
    ("null rounds", json.dumps({
        "header": {"n": 2, "budget": [1, 1], "painter": "x", "lister": "y"},
        "rounds": None, "winner": "painter"}), "malformed transcript"),
    ("string n", json.dumps({
        "header": {"n": "2", "budget": [1, 1], "painter": "x", "lister": "y"},
        "rounds": [], "winner": "painter"}), "n '2' is not an integer"),
    ("no winner", json.dumps({
        "header": {"n": 2, "budget": [1, 1], "painter": "x", "lister": "y"},
        "rounds": []}), "no 'winner' field"),
    ("list header", json.dumps({"header": [2], "rounds": []}),
     "malformed transcript"),
    ("not JSON", "{", "malformed transcript"),
] + [(f"{name} budget", json.dumps({
    "header": {"n": 3, "budget": [b] * 3, "painter": "x", "lister": "y"},
    "rounds": [], "winner": "painter"}), f"budget {b!r} is not an integer")
    for name, b in (("float", 1.5), ("bool", True), ("integral float", 2.0))]


@pytest.mark.parametrize("case,text,expected", MALFORMED,
                         ids=[c[0] for c in MALFORMED])
def test_from_json_rejects_malformed_lines(case, text, expected):
    with pytest.raises(PowerPaintError, match=expected):
        Transcript.from_json(text)


def test_budgets_read_a_generator_once():
    budgets = TokenBudgets(x for x in [2, 3, 1])
    assert budgets == (2, 3, 1) and isinstance(budgets, tuple)


# Entries that compare like a whole number of tokens but are not one,
# and entries below 1: (case, entry, expected message).
BAD_BUDGETS = [
    ("float", 1.5, "budget 1.5 is not an integer"),
    ("integral float", 2.0, "budget 2.0 is not an integer"),
    ("bool", True, "budget True is not an integer"),
    ("string", "3", "budget '3' is not an integer"),
    ("zero", 0, "every budget must be >= 1"),
    ("negative", -2, "every budget must be >= 1"),
]


@pytest.mark.parametrize("case,entry,expected", BAD_BUDGETS,
                         ids=[c[0] for c in BAD_BUDGETS])
def test_budgets_reject_a_bad_entry(case, entry, expected):
    with pytest.raises(PowerPaintError, match=re.escape(expected)):
        TokenBudgets([2, entry, 2])
    with pytest.raises(PowerPaintError, match=re.escape(expected)):
        TokenBudgets.uniform(3, entry)


def _accepts(g: Graph, colored: set[int]) -> bool:
    state = GameState(TokenBudgets.uniform(g.n, 1))
    try:
        _apply_coloring(g, state, set(colored), set(colored))
    except IllegalPainterMove:
        return False
    return True


class TestIndependence:
    def test_rejects_exactly_the_sets_with_an_adjacent_pair(self):
        rng = random.Random(5)
        for n in range(1, 25):
            for density in (0.0, 0.05, 0.2, 0.6):
                g = Graph(n, [(u, v) for u in range(n)
                              for v in range(u + 1, n)
                              if rng.random() < density])
                for _ in range(10):
                    colored = {v for v in range(n) if rng.random() < 0.5}
                    dependent = any(g.has_edge(u, v) for u, v in
                                    itertools.combinations(colored, 2))
                    assert _accepts(g, colored) != dependent, (n, colored)

    def test_only_edge_joins_the_last_two_vertices(self):
        g = Graph(6, [(4, 5)])
        assert not _accepts(g, set(range(6)))
        assert _accepts(g, set(range(5)))
        assert _accepts(g, {0, 1, 2, 3, 5})


class TestListers:
    def test_random_single_alive(self):
        g = complete(1)
        state = GameState(TokenBudgets.uniform(1, 1))
        assert RandomLister(3).choose_reveal(state, g) == {0}

    def test_random_deterministic_per_seed(self):
        g = cycle(4)
        s1 = GameState(TokenBudgets.uniform(4, 2))
        s2 = GameState(TokenBudgets.uniform(4, 2))
        l1, l2 = RandomLister(9), RandomLister(9)
        a = [l1.choose_reveal(s1, g) for _ in range(5)]
        b = [l2.choose_reveal(s2, g) for _ in range(5)]
        assert a == b
        l1.reset()
        assert [l1.choose_reveal(s1, g) for _ in range(5)] == a

    def test_random_uniform_over_nonempty_subsets(self):
        g = complete(4)
        state = GameState(TokenBudgets.uniform(4, 1))
        lister = RandomLister(42)
        n = 10 ** 4
        counts = {}
        for _ in range(n):
            s = frozenset(lister.choose_reveal(state, g))
            counts[s] = counts.get(s, 0) + 1
        p = 1 / 15
        sigma = math.sqrt(n * p * (1 - p))
        assert len(counts) == 15
        for c in counts.values():
            assert abs(c - n * p) <= 5 * sigma

    def test_pressure_clique_reveals_all(self):
        g = complete(3)
        state = GameState(TokenBudgets.uniform(3, 2))
        assert PressureLister().choose_reveal(state, g) == {0, 1, 2}

    def test_pressure_targets_min_tokens(self):
        g = complete(2)
        state = GameState(TokenBudgets([1, 3]))
        assert PressureLister().choose_reveal(state, g) == {0, 1}

    def test_pressure_closed_neighborhood_only(self):
        g = path(3)  # 0-1-2
        state = GameState(TokenBudgets([1, 5, 5]))
        assert PressureLister().choose_reveal(state, g) == {0, 1}


# Every player the package ships, built fresh. play_game calls reset()
# and records name with no fallback, and transcripts tell players apart
# by name.
BUILT_IN_PLAYERS = {
    "GreedyScanPainter": lambda: GreedyScanPainter([0, 1, 2]),
    "CliquePainter": CliquePainter,
    "TheoremPainter": lambda: TheoremPainter(mcgee(), 3),
    "RandomLister": lambda: RandomLister(1),
    "PressureLister": PressureLister,
    "OracleLister": lambda: OracleLister(complete(3),
                                         TokenBudgets.uniform(3, 3)),
}
PLAYERS = dict(BUILT_IN_PLAYERS,
               ScriptLister=lambda: ScriptLister("script", [{0}]))


@pytest.mark.parametrize("build", PLAYERS.values(), ids=list(PLAYERS))
def test_player_protocol(build):
    player = build()
    assert isinstance(player.name, str) and player.name
    player.reset()
    assert (hasattr(type(player), "choose_colors")
            or hasattr(type(player), "choose_reveal"))


def test_built_in_player_names_distinct():
    names = [build().name for build in BUILT_IN_PLAYERS.values()]
    assert len(set(names)) == len(names), names
