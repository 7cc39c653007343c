import os
import re

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
