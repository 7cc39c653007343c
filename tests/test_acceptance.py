"""Acceptance suite: one test per row of the criteria table in
``powerpaint.selftest``, each at the full acceptance counts. Run with
-s or -v to see each row's PASS line with its measured result.
"""

from powerpaint.selftest import CHECKS, run_check


def _acceptance_test(row):
    def test():
        print(f"PASS {row.name}: {run_check(row, full=True)}")
    return test


for _row in CHECKS:
    globals()[f"test_{_row.name}"] = _acceptance_test(_row)
