"""Acceptance suite: one test per row of the criteria table in
``powerpaint.selftest``, each at the full acceptance counts. Run with
-s or -v to see each row's PASS line with its measured result. Two more
tests hold the package to explicit raises (``python -O`` strips assert
statements, so none may stand in for a check) and to no unused import.
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


# Imported by name only so that perfbench's tracer can patch them there.
TRACED_IMPORTS = {("painters.py", "kth_power"),
                  ("painters.py", "structural_report")}


def test_package_has_no_unused_import():
    found = []
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py") and name != "__init__.py":
            with open(os.path.join(PACKAGE, name)) as fh:
                tree = ast.parse(fh.read(), name)
            imported, read = {}, set()
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    for a in node.names:
                        imported[a.asname or a.name.partition(".")[0]] = node
                elif (isinstance(node, ast.ImportFrom)
                      and node.module != "__future__"):
                    for a in node.names:
                        imported[a.asname or a.name] = node
                elif isinstance(node, ast.Name) and isinstance(node.ctx,
                                                               ast.Load):
                    read.add(node.id)
            found += [f"{name}:{node.lineno} {imp}"
                      for imp, node in imported.items()
                      if imp not in read and (name, imp) not in TRACED_IMPORTS]
    assert found == []
