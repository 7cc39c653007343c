"""Acceptance suite: one test per row of the criteria table in
``powerpaint.selftest``, each at the full acceptance counts. Run with
-s or -v to see each row's PASS line with its measured result. One more
test holds the package to explicit raises: ``python -O`` strips assert
statements, so none may stand in for a check.
"""

import ast
import os

from powerpaint.selftest import CHECKS, run_check

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src", "powerpaint")


def _acceptance_test(row):
    def test():
        print(f"PASS {row.name}: {run_check(row, full=True)}")
    return test


for _row in CHECKS:
    globals()[f"test_{_row.name}"] = _acceptance_test(_row)


def test_package_has_no_assert_statement():
    # selftest.require and the library's checks raise explicitly.
    found = []
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name)) as fh:
                tree = ast.parse(fh.read(), name)
            found += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)]
    assert found == []
