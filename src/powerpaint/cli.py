"""Command-line surface: analyze, power, play, verify, generate,
selftest. JSON results go to stdout, diagnostics to stderr.

Exit codes: 0 success, 1 the lister won a ``play`` game (the referee
names the vertex in its transcript) or a ``selftest`` check failed,
2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import gen_io
from .errors import PowerPaintError
from .game import PressureLister, RandomLister, TokenBudgets, play_game
from .graph import (CaseLabel, Graph, bound_D, classify, kth_power,
                    structural_report)
from .oracle import solve_choosability, solve_paintability
from .painters import (CliquePainter, GreedyScanPainter, TheoremPainter,
                       dispatch_painter)


def _add_graph_args(p: argparse.ArgumentParser):
    p.add_argument("--input", help="graph6 or DIMACS .col file")
    p.add_argument("--family", choices=gen_io.FAMILIES,
                   help="named graph family instead of --input")
    p.add_argument("--n", type=int, help="family size parameter")
    p.add_argument("--degree", type=int, help="family degree parameter")
    p.add_argument("--depth", type=int, help="regular_tree depth")
    p.add_argument("--gen-seed", type=int, dest="gen_seed",
                   help="seed for random_regular")


def _load_graph(args) -> Graph:
    if args.input and args.family:
        raise PowerPaintError("pass --input or --family, not both")
    if args.input:
        return gen_io.load_graph_file(args.input)
    if args.family:
        spec = gen_io.GraphFamilySpec(
            family=args.family, n=args.n, degree=args.degree,
            depth=args.depth, seed=args.gen_seed)
        return gen_io.named_graph(spec)
    raise PowerPaintError("no graph given: pass --input or --family")


def _dispatch(g: Graph, k: int):
    painter, label, _ = dispatch_painter(g, k)
    return painter, label.kind


# name -> builder: a painter and its reported route from (g, k), a lister
# from the game seed
PAINTERS = {
    "dispatch": _dispatch,
    "theorem": lambda g, k: (TheoremPainter(g, k), CaseLabel.MAIN_CASE),
    "greedy": lambda g, k: (GreedyScanPainter(range(g.n)), None),
    "clique": lambda g, k: (CliquePainter(), None),
}
LISTERS = {"random": RandomLister, "pressure": lambda seed: PressureLister()}


def cmd_analyze(args) -> int:
    g = _load_graph(args)
    report = structural_report(g, args.k)
    label = classify(g, args.k, report=report)
    print(json.dumps({"report": report.to_dict(), "case": label.to_dict()}))
    return 0


def _write_graph(g: Graph, output) -> int:
    line = gen_io.write_graph6(g)
    if output:
        with open(output, "w") as fh:
            fh.write(line + "\n")
    else:
        print(line)
    return 0


def cmd_power(args) -> int:
    return _write_graph(kth_power(_load_graph(args), args.k), args.output)


def cmd_play(args) -> int:
    if args.games < 1:
        raise PowerPaintError(f"--games must be at least 1, got {args.games}")
    g = _load_graph(args)
    k = args.k
    game_graph = kth_power(g, k)
    budget = args.budget
    if budget is None:
        budget = bound_D(k, g.max_degree) - 1
    budgets = TokenBudgets.uniform(g.n, budget)
    painter, route = PAINTERS[args.painter](g, k)
    wins = {"painter": 0, "lister": 0}
    transcripts = []
    for i in range(args.games):
        game_seed = args.seed + i  # documented derivation: base seed + index
        lister = LISTERS[args.lister](game_seed)
        t = play_game(game_graph, budgets, lister, painter,
                      seed=game_seed, k=k)
        wins[t.winner] += 1
        if args.transcript:
            transcripts.append(t.to_json())
    if args.transcript:
        with open(args.transcript, "w") as fh:
            fh.write("\n".join(transcripts) + "\n")
    print(json.dumps({
        "games": args.games, "budget": budget, "route": route,
        "painter": args.painter, "lister": args.lister,
        "painter_wins": wins["painter"], "lister_wins": wins["lister"],
    }))
    return 0 if wins["lister"] == 0 else 1


def cmd_verify(args) -> int:
    g = _load_graph(args)
    if args.mode == "paintability":
        verdict = solve_paintability(
            g, TokenBudgets.uniform(g.n, args.budget))
        print(json.dumps({"mode": "paintability", "budget": args.budget,
                          "winner": verdict}))
    else:
        ok = solve_choosability(g, args.budget)
        print(json.dumps({"mode": "choosability", "budget": args.budget,
                          "choosable": ok}))
    return 0


def cmd_generate(args) -> int:
    return _write_graph(_load_graph(args), args.output)


def cmd_selftest(args) -> int:
    from .selftest import run_selftest
    return run_selftest(full=args.full)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="powerpaint",
        description="Graph powers, case analysis, and online "
                    "list-coloring games.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="structural report and case label")
    _add_graph_args(p)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("power", help="write the k-th power as graph6")
    _add_graph_args(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--output")
    p.set_defaults(func=cmd_power)

    p = sub.add_parser("play", help="play games on the k-th power")
    _add_graph_args(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--painter", default="dispatch", choices=list(PAINTERS))
    p.add_argument("--lister", default="random", choices=list(LISTERS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--games", type=int, default=1)
    p.add_argument("--budget", type=int,
                   help="override the default bound-minus-one budget")
    p.add_argument("--transcript", help="write JSON transcripts here")
    p.set_defaults(func=cmd_play)

    p = sub.add_parser("verify", help="exact oracle verdict")
    _add_graph_args(p)
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--mode", default="paintability",
                   choices=["paintability", "choosability"])
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("generate", help="emit a named graph as graph6")
    _add_graph_args(p)
    p.add_argument("--output")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("selftest", help="run the built-in check suite")
    p.add_argument("--full", action="store_true",
                   help="full game counts instead of the quick pass")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PowerPaintError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
