"""Smoke test of the benchmark at tiny sizes: every workload on two
seeds, untraced and traced, plus the cross-checks of its generators
and of its play loop against the CLI.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import inputs, workloads
from perfbench import run as bench

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

_runs = {}


def tiny(workload, seed, trace):
    key = (workload, seed, trace)
    if key not in _runs:
        _runs[key] = bench.run(workloads, workload, seed, 0.2, trace, tiny=True)
    return _runs[key]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_reported_with_unit(workload, seed, trace):
    result, _ = tiny(workload, seed, trace)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert ({m: v["unit"] for m, v in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in declared})
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_runs_emit_a_span_per_layer_function():
    seen = set()
    for workload in workloads.WORKLOADS:
        _, r = tiny(workload, 0, 1)
        seen |= set(r.tracer.names)
    expected = {s for s in workloads.LAYER_SPANS
                if not s.startswith("oracle.")
                or s.split(".", 2)[2] in workloads.TINY_CASES}
    assert expected <= seen
    assert {s for s in seen if s.startswith("oracle.")} <= set(workloads.LAYER_SPANS)


def test_traced_play_reports_self_time_and_margin():
    _, r = tiny("play", 0, 1)
    m = workloads.per_layer_metrics(r)
    assert 0 < m["game.play_game_self_s"]
    assert m["game.margin_min"] >= 1
    assert 0 < m["painters.colored_per_revealed"] <= 1


def test_wrong_pinned_verdict_is_counted(monkeypatch):
    cases = [c if c[0] != "C5_2" else c[:3] + ("painter", c[4])
             for c in workloads.PAINT_CASES]
    monkeypatch.setattr(workloads, "PAINT_CASES", cases)
    result, _ = bench.run(workloads, "oracle", 0, 0.2, 0, tiny=True)
    assert not result["correct"] and result["failed"] >= 1


def test_lcf_gives_mcgee_and_foster():
    nx = pytest.importorskip("networkx")
    from powerpaint import gen_io
    n, edges = inputs.lcf_edges(*inputs.MCGEE_LCF)
    ref = gen_io.mcgee()
    assert nx.is_isomorphic(nx.Graph(edges), nx.Graph(ref.edges()))
    n, adj, pinned = workloads.foster()
    assert inputs.invariant_mismatches(adj, pinned) == []


def test_graph6_line_matches_program_writer():
    from powerpaint import gen_io
    n, edges = inputs.lcf_edges(*inputs.FOSTER_LCF)
    adj = inputs.adjacency(n, edges)
    g = gen_io.parse_graph6(inputs.graph6_line(n, adj))
    assert [list(a) for a in g.adj] == adj
    assert gen_io.write_graph6(g) == inputs.graph6_line(n, adj)


def test_cli_play_matches_bench_loop(tmp_path):
    from powerpaint import cli, game, gen_io, graph, painters
    n, adj, _ = workloads.foster()
    path = tmp_path / "foster.g6"
    path.write_text(inputs.graph6_line(n, adj) + "\n")
    base, games = 7 * workloads.SEED_STRIDE, 12
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["play", "--input", str(path), "--k", "4",
                         "--seed", str(base), "--games", str(games),
                         "--transcript", str(tmp_path / "t.jsonl")])
    reported = json.loads(out.getvalue())

    g = gen_io.parse_graph6(path.read_text())
    gk = graph.kth_power(g, 4)
    painter, label, _ = painters.dispatch_painter(g, 4)
    budgets = game.TokenBudgets.uniform(n, inputs.bound_d(4, 3) - 1)
    wins, transcripts = {"painter": 0, "lister": 0}, []
    r = workloads.Run("play", 7, 0, 0, tiny=True)
    for i in range(games):
        t, problems = workloads.play_game_checked(
            r, gk, budgets, painter, game.random_lister(base + i), base + i, 4)
        assert problems == []
        wins[t.winner] += 1
        transcripts.append(t.to_json())
    assert code == 0
    assert reported["games"] == games and reported["budget"] == 44
    assert reported["route"] == label.kind == "MainCase"
    assert (reported["painter_wins"], reported["lister_wins"]) == (
        wins["painter"], wins["lister"])
    assert (tmp_path / "t.jsonl").read_text().splitlines() == transcripts


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "play", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
