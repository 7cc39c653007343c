import os
import re

import pytest

from powerpaint.cli import build_parser, main
from powerpaint.gen_io import FAMILIES

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "README.md")) as fh:
    README = fh.read()


def test_library_example_runs():
    section = README[README.index("## Library"):]
    snippet = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(snippet, "README.md", "exec"), {})


def test_cli_family_list_matches_parser():
    listed = re.search(r"`--family` generates one\s+of: (.*?) \(with",
                       README, re.S).group(1)
    assert set(re.split(r",\s*", listed.strip())) == set(FAMILIES)


CLI_BLOCK = re.search(r"```\n(.*?)```", README[README.index("## CLI"):],
                      re.S).group(1)
CLI_COMMANDS = [line.split("#")[0].split()
                for line in CLI_BLOCK.replace("\\\n", " ").splitlines()]


def test_cli_examples_parse():
    assert len(CLI_COMMANDS) >= 6
    parser = build_parser()
    for words in CLI_COMMANDS:
        assert words[0] == "powerpaint"
        parser.parse_args(words[1:])


# selftest --full is tests/test_acceptance.py, row by row.
@pytest.mark.parametrize("words", [
    w for w in CLI_COMMANDS if w[1:] != ["selftest", "--full"]],
    ids=lambda words: words[1])
def test_cli_examples_run(words, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(words[1:]) == 0
