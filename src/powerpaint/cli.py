"""Command-line surface: analyze, power, play, verify, generate,
selftest. JSON results go to stdout, diagnostics to stderr.

Exit codes: 0 success (and painter never lost), 1 a game or property
failed (including a painter breaking its own invariants), 2 usage or
input error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import gen_io
from .errors import PowerPaintError, StrategyInvariantViolation
from .game import (
    TokenBudgets,
    play_game,
    pressure_lister,
    random_lister,
    validate_transcript,
)
from .graph import Graph, bound_D, classify, kth_power, structural_report
from .oracle import solve_choosability, solve_paintability
from .painters import (clique_painter, dispatch_painter, greedy_scan_painter,
                       main_theorem_painter)


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


def _make_lister(name: str, seed: int):
    if name == "random":
        return random_lister(seed)
    if name == "pressure":
        return pressure_lister()
    raise PowerPaintError(f"unknown lister {name!r}")


def _make_painter(name: str, g: Graph, k: int):
    if name == "dispatch":
        painter, label, _ = dispatch_painter(g, k)
        return painter, label.kind
    if name == "theorem":
        return main_theorem_painter(g, k), "MainCase"
    if name == "greedy":
        return greedy_scan_painter(range(g.n)), None
    if name == "clique":
        return clique_painter(), None
    raise PowerPaintError(f"unknown painter {name!r}")


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
    painter, route = _make_painter(args.painter, g, k)
    wins = {"painter": 0, "lister": 0}
    transcripts = []
    for i in range(args.games):
        game_seed = args.seed + i  # documented derivation: base seed + index
        lister = _make_lister(args.lister, game_seed)
        t = play_game(game_graph, budgets, lister, painter,
                      seed=game_seed, k=k)
        bad = validate_transcript(game_graph, budgets, t)
        if bad is not None:
            raise PowerPaintError(f"transcript failed validation: {bad}")
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
    p.add_argument("--painter", default="dispatch",
                   choices=["dispatch", "theorem", "greedy", "clique"])
    p.add_argument("--lister", default="random",
                   choices=["random", "pressure"])
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
    except StrategyInvariantViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except PowerPaintError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
