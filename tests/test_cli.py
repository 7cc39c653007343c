import json

import pytest

from powerpaint.cli import main
from powerpaint.game import TokenBudgets, Transcript, validate_transcript
from powerpaint.gen_io import mcgee, parse_graph6, petersen
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

    def test_reproducible_output(self, capsys):
        args = ("play", "--family", "heawood", "--k", "3", "--seed", "11",
                "--games", "10")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_painter_invariant_failure_exits_1(self, capsys):
        # budget 12 starves the theorem painter on the McGee cube
        code, out, err = run(capsys, "play", "--family", "mcgee", "--k", "3",
                             "--painter", "theorem", "--budget", "12",
                             "--seed", "0")
        assert code == 1
        assert out == "" and err.startswith("error: ")

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

    def test_malformed_caps_env_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("POWERPAINT_CAPS", "abc")
        code, out, err = run(capsys, "verify", "--family", "cycle", "--n",
                             "5", "--budget", "2")
        assert code == 2
        assert out == "" and err.startswith("error: ")
        assert "POWERPAINT_CAPS" in err

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
