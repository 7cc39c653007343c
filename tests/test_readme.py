import os
import re

from powerpaint.cli import build_parser
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


def test_cli_examples_parse():
    section = README[README.index("## CLI"):]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    commands = [line.split("#")[0].split()
                for line in block.replace("\\\n", " ").splitlines()]
    assert len(commands) >= 6
    parser = build_parser()
    for words in commands:
        assert words[0] == "powerpaint"
        parser.parse_args(words[1:])
