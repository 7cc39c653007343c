"""What ``import powerpaint`` loads, and the printed form of its
named-tuple records."""

import os
import subprocess
import sys

from powerpaint import classify, petersen, prism, structural_report

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


def loaded_after_import(prelude, names):
    """The modules among ``names`` present after running ``prelude`` and
    then ``import powerpaint`` in a fresh ``python -S``."""
    code = (f"import sys\n{prelude}\nimport powerpaint\n"
            f"print(' '.join(m for m in {names!r} if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.split()


def test_import_loads_neither_dataclasses_nor_inspect():
    assert loaded_after_import("", ("dataclasses", "inspect")) == []


def test_import_loads_no_json():
    # transcripts import json in to_json/from_json, when they are used
    assert loaded_after_import("", ("json",)) == []


def test_import_loads_no_re_of_its_own():
    # json (for transcripts) and, before Python 3.13, typing import re
    # themselves: load them first and drop re, so that only an import
    # made by the package can bring it back.
    prelude = ("import json, typing\n"
               "for m in [m for m in sys.modules\n"
               "          if m == 're' or m.startswith('re.')]:\n"
               "    del sys.modules[m]")
    assert loaded_after_import(prelude, ("re",)) == []


def test_report_and_label_print_as_before():
    report = structural_report(prism(3), 2)
    assert repr(report) == (
        "StructuralReport(n=6, max_degree=3, is_regular=True, girth=3, "
        "diameter=2, two_k_cycles=((0, 1, 4, 3), (0, 2, 5, 3), "
        "(1, 2, 5, 4)), two_k_cycles_disjoint=False)")
    assert report.to_dict() == {
        "n": 6, "max_degree": 3, "is_regular": True, "girth": 3,
        "diameter": 2,
        "two_k_cycles": ((0, 1, 4, 3), (0, 2, 5, 3), (1, 2, 5, 4)),
        "two_k_cycles_disjoint": False}
    label = classify(petersen(), 3)
    assert repr(label) == (
        "CaseLabel(kind='ShortCycle', low_degree_vertex=None, "
        "short_cycle=(0, 1, 2, 3, 4), intersecting_cycles=None)")
    assert label.to_dict() == {"kind": "ShortCycle",
                               "short_cycle": [0, 1, 2, 3, 4]}
    # a named tuple: equal to the plain tuple of its fields
    assert label == ("ShortCycle", None, (0, 1, 2, 3, 4), None)
