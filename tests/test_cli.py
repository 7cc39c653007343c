import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import powerpaint
from powerpaint import cli, selftest
from powerpaint.cli import LISTERS, PAINTERS, main
from powerpaint.game import (TokenBudgets, Transcript, play_game,
                             validate_transcript)
from powerpaint.gen_io import mcgee, parse_graph6, petersen, write_graph6
from powerpaint.graph import kth_power


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGenerate:
    def test_petersen_to_stdout(self, capsys):
        code, out, _ = run(capsys, "generate", "--family", "petersen")
        assert code == 0
        assert parse_graph6(out.strip()) == petersen()

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "g.g6"
        code, _, _ = run(capsys, "generate", "--family", "cycle", "--n", "5",
                         "--output", str(target))
        assert code == 0
        g = parse_graph6(target.read_text().strip())
        assert g.n == 5 and g.num_edges() == 5

    def test_unknown_family_exits_2(self, capsys):
        with pytest.raises(SystemExit) as e:
            run(capsys, "generate", "--family", "nosuch")
        assert e.value.code == 2

    def test_missing_parameter_exits_2(self, capsys):
        code, _, err = run(capsys, "generate", "--family", "complete")
        assert code == 2
        assert "error" in err

    def test_parameter_the_family_does_not_take_exits_2(self, capsys):
        code, out, err = run(capsys, "generate", "--family", "petersen",
                             "--n", "7", "--degree", "9")
        assert code == 2
        assert out == ""
        assert err == "error: family 'petersen' takes no parameter 'n'\n"

    @pytest.mark.parametrize("flag", ["--n", "--degree", "--depth",
                                      "--gen-seed"])
    def test_family_parameter_with_input_exits_2(self, tmp_path, capsys,
                                                 flag):
        target = tmp_path / "g.g6"
        target.write_text(write_graph6(petersen()) + "\n")
        code, out, err = run(capsys, "generate", "--input", str(target),
                             flag, "5")
        assert code == 2
        assert out == ""
        assert err == f"error: {flag} applies to --family, not --input\n"


class TestAnalyze:
    def test_petersen_short_cycle(self, capsys):
        code, out, _ = run(capsys, "analyze", "--family", "petersen",
                           "--k", "3")
        assert code == 0
        obj = json.loads(out)
        assert obj["case"]["kind"] == "ShortCycle"
        assert obj["report"]["girth"] == 5

    def test_file_input(self, tmp_path, capsys):
        path = tmp_path / "g.g6"
        run(capsys, "generate", "--family", "mcgee", "--output", str(path))
        code, out, _ = run(capsys, "analyze", "--input", str(path),
                           "--k", "3")
        assert code == 0
        assert json.loads(out)["case"]["kind"] == "MainCase"

    def test_dimacs_input(self, tmp_path, capsys):
        path = tmp_path / "g.col"
        path.write_text("p edge 4 6\n" + "".join(
            f"e {u} {v}\n" for u in range(1, 5) for v in range(u + 1, 5)))
        code, out, _ = run(capsys, "analyze", "--input", str(path),
                           "--k", "3")
        assert code == 0
        assert json.loads(out)["case"]["kind"] == "ShortCycle"

    def test_dimacs_n_over_the_cap_exits_2(self, tmp_path, capsys):
        path = tmp_path / "big.col"
        path.write_text("p edge 258048 0\n")
        code, _, err = run(capsys, "analyze", "--input", str(path),
                           "--k", "3")
        assert code == 2
        assert "exceeds the cap 258047" in err and "(line 1)" in err


class TestPower:
    def test_petersen_squared(self, capsys):
        code, out, _ = run(capsys, "power", "--family", "petersen",
                           "--k", "2")
        assert code == 0
        g = parse_graph6(out.strip())
        assert g.num_edges() == 45


class TestPlay:
    def test_mcgee_dispatch_wins(self, capsys):
        code, out, _ = run(capsys, "play", "--family", "mcgee", "--k", "3",
                           "--painter", "dispatch", "--lister", "random",
                           "--seed", "7", "--games", "20")
        assert code == 0
        obj = json.loads(out)
        assert obj["painter_wins"] == 20 and obj["lister_wins"] == 0
        assert obj["route"] == "MainCase"
        assert obj["budget"] == 20

    def test_transcripts_validate(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        code, _, _ = run(capsys, "play", "--family", "mcgee", "--k", "3",
                         "--seed", "3", "--games", "5",
                         "--transcript", str(path))
        assert code == 0
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 5
        game_graph = kth_power(mcgee(), 3)
        budgets = TokenBudgets.uniform(24, 20)
        for line in lines:
            t = Transcript.from_json(line)
            assert validate_transcript(game_graph, budgets, t) is None

    def test_unwritable_transcript_exits_2_before_any_game(
            self, tmp_path, capsys, monkeypatch):
        played = []

        def counting_play_game(*args, **kwargs):
            played.append(kwargs["seed"])
            return play_game(*args, **kwargs)

        monkeypatch.setattr(cli, "play_game", counting_play_game)
        path = tmp_path / "no_such_dir" / "t.jsonl"
        code, out, err = run(capsys, "play", "--family", "mcgee", "--k", "3",
                             "--seed", "1", "--games", "50",
                             "--transcript", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and str(path) in err
        assert played == []

    def test_reproducible_output(self, capsys):
        args = ("play", "--family", "heawood", "--k", "3", "--seed", "11",
                "--games", "10")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_theorem_painter_loss_exits_1(self, tmp_path, capsys):
        # budget 12 starves the theorem painter on the McGee cube in the
        # first game; the referee records it and the other games play on
        path = tmp_path / "t.jsonl"
        code, out, err = run(capsys, "play", "--family", "mcgee", "--k", "3",
                             "--painter", "theorem", "--budget", "12",
                             "--seed", "0", "--games", "3",
                             "--transcript", str(path))
        assert code == 1 and err == ""
        obj = json.loads(out)
        assert (obj["painter_wins"], obj["lister_wins"]) == (2, 1)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 3
        game_graph = kth_power(mcgee(), 3)
        budgets = TokenBudgets.uniform(24, 12)
        t = Transcript.from_json(lines[0])
        assert (t.winner, t.loser_vertex) == ("lister", 9)
        assert validate_transcript(game_graph, budgets, t) is None

    def test_theorem_painter_off_main_case_exits_2(self, capsys):
        code, out, err = run(capsys, "play", "--family", "petersen", "--k",
                             "3", "--painter", "theorem", "--seed", "1")
        assert code == 2
        assert out == ""
        assert err == ("error: the special frame requires MainCase, "
                       "got ShortCycle\n")

    def test_budget_too_long_to_write_exits_2(self):
        # D(15000, 3) - 1 has 4516 digits: json.dumps of the summary would
        # raise after the game, a traceback with the lister-won exit code.
        env = dict(os.environ, PYTHONINTMAXSTRDIGITS="4300",
                   PYTHONPATH=str(Path(powerpaint.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "powerpaint.cli", "play", "--family",
             "petersen", "--k", "15000", "--seed", "1"],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == (
            "error: the budget at --k 15000 has more than 4300 digits, "
            "Python's limit for integer string conversion "
            "(PYTHONINTMAXSTRDIGITS)\n")
        assert "Traceback" not in proc.stderr

    def test_loss_exits_1(self, capsys):
        # starved budget forces losses on the greedy painter
        code, out, _ = run(capsys, "play", "--family", "petersen", "--k", "3",
                           "--painter", "greedy", "--lister", "pressure",
                           "--seed", "1", "--games", "1", "--budget", "2")
        assert code == 1
        assert json.loads(out)["lister_wins"] == 1

    def test_simultaneous_losers_validate(self, capsys):
        # vertices 14 and 15 run out in the same round; the validator
        # must agree with the referee on the loser
        code, out, err = run(capsys, "play", "--family", "mcgee", "--k", "3",
                             "--painter", "clique", "--lister", "random",
                             "--seed", "12", "--games", "1", "--budget", "5")
        assert code == 1, err
        assert json.loads(out)["lister_wins"] == 1

    @pytest.mark.parametrize("painter,route", [
        ("dispatch", "MainCase"), ("theorem", "MainCase"),
        ("greedy", None), ("clique", None)])
    @pytest.mark.parametrize("lister", ["random", "pressure"])
    def test_every_painter_and_lister_plays(self, capsys, painter, route,
                                            lister):
        code, out, err = run(capsys, "play", "--family", "mcgee", "--k", "3",
                             "--painter", painter, "--lister", lister,
                             "--seed", "1")
        obj = json.loads(out)
        assert (obj["painter"], obj["lister"], obj["route"]) == (
            painter, lister, route), err
        assert code == (1 if obj["lister_wins"] else 0)

    @pytest.mark.parametrize("flag,table", [("--painter", PAINTERS),
                                            ("--lister", LISTERS)])
    def test_unknown_player_lists_the_table(self, capsys, flag, table):
        with pytest.raises(SystemExit) as e:
            run(capsys, "play", "--family", "mcgee", "--k", "3", "--seed",
                "1", flag, "nosuch")
        assert e.value.code == 2
        choices = ", ".join(repr(name) for name in table)
        assert f"(choose from {choices})" in capsys.readouterr().err

    @pytest.mark.parametrize("games", ["0", "-1"])
    def test_nonpositive_games_exits_2(self, capsys, games):
        code, out, err = run(capsys, "play", "--family", "mcgee", "--k", "3",
                             "--seed", "1", "--games", games)
        assert code == 2
        assert out == "" and err.startswith("error: ")


class TestVerify:
    def test_c5_budget_2_lister(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "cycle", "--n", "5",
                           "--budget", "2")
        assert code == 0
        assert json.loads(out)["winner"] == "lister"

    def test_choosability_mode(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "cycle", "--n", "4",
                           "--budget", "2", "--mode", "choosability")
        assert code == 0
        assert json.loads(out)["choosable"] is True

    def test_choosability_mode_false_verdict(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "complete", "--n",
                           "4", "--budget", "3", "--mode", "choosability")
        assert code == 0
        assert json.loads(out)["choosable"] is False

    def test_caps_env_is_ignored(self, capsys, monkeypatch):
        monkeypatch.setenv("POWERPAINT_CAPS", "abc")
        code, out, _ = run(capsys, "verify", "--family", "cycle", "--n",
                           "5", "--budget", "2")
        assert code == 0
        assert json.loads(out)["winner"] == "lister"

    def test_budget_above_every_degree_is_a_painter_win(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "complete", "--n",
                           "11", "--budget", "12")
        assert code == 0
        assert json.loads(out)["winner"] == "painter"

    def test_cap_exceeded_exits_2(self, capsys):
        code, _, err = run(capsys, "verify", "--family", "mcgee",
                           "--budget", "2")
        assert code == 2
        assert "error" in err


class TestUsage:
    def test_no_graph_exits_2(self, capsys):
        code, _, err = run(capsys, "analyze", "--k", "3")
        assert code == 2

    def test_both_inputs_exit_2(self, tmp_path, capsys):
        path = tmp_path / "g.g6"
        path.write_text("Bw\n")
        code, _, _ = run(capsys, "analyze", "--input", str(path),
                         "--family", "petersen", "--k", "3")
        assert code == 2

    def test_missing_file_exits_2(self, capsys):
        code, _, _ = run(capsys, "analyze", "--input", "/nonexistent.g6",
                         "--k", "3")
        assert code == 2

    @pytest.mark.parametrize("name,content", [
        ("g.col", b"p edge x 1\n"),
        ("g.col", b"p edge 3 1\ne 1\n"),
        ("g.col", b"p edge 3 1\ne 1 x\n"),
        ("g.g6", b"\xff\xfe"),
    ])
    def test_malformed_input_exits_2(self, tmp_path, capsys, name, content):
        path = tmp_path / name
        path.write_bytes(content)
        code, out, err = run(capsys, "analyze", "--input", str(path),
                             "--k", "3")
        assert code == 2
        assert out == "" and err.startswith("error: ")


class TestSelftest:
    def test_quick_pass_succeeds(self, capsys):
        assert main(["selftest"]) == 0

    def test_failing_row_is_reported_and_later_rows_run(self, capsys,
                                                         monkeypatch):
        def broken(full):
            raise AssertionError("planted failure")

        rows = list(selftest.CHECKS)
        rows[2] = rows[2]._replace(check=broken)
        monkeypatch.setattr(selftest, "CHECKS", rows)
        code, out, _ = run(capsys, "selftest")
        assert code == 1
        lines = out.splitlines()
        assert f"FAIL {rows[2].name}: AssertionError: planted failure" in lines
        for row in rows[3:]:
            assert any(line.startswith(f"PASS {row.name}: ")
                       for line in lines)

    def test_require_survives_python_O(self):
        # ``require`` is an explicit raise; an ``assert`` would vanish
        # under -O and let every row pass.
        env = dict(os.environ,
                   PYTHONPATH=str(Path(powerpaint.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-O", "-c",
             "from powerpaint.selftest import require; "
             "require(False, 'planted failure')"],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode != 0
        assert "AssertionError: planted failure" in proc.stderr
