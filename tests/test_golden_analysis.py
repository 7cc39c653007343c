"""Golden gate for the analysis pipeline: structural report, case label,
dispatch route and order, special frame and the graph6 of G^k, pinned
per (graph, k) in ``tests/data/golden_analysis.json``.

Regenerate the data only when a change of output is intended:

    PYTHONPATH=src python tests/test_golden_analysis.py --regenerate
"""

import hashlib
import json
import os
import random
import sys

import pytest

from powerpaint import graph, painters
from powerpaint.errors import PowerPaintError
from powerpaint.gen_io import (heawood, mcgee, petersen, random_regular,
                               write_graph6)
from powerpaint.graph import (
    CaseLabel,
    Graph,
    classify,
    find_special_frame,
    kth_power,
    structural_report,
)
from powerpaint.painters import dispatch_painter

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                    "golden_analysis.json")
KS = (3, 4, 5)

TUTTE_COXETER_LCF = ([-13, -9, 7, -7, 9, 13], 5)
FOSTER_LCF = ([17, -9, 37, -37, 9, -17], 15)


def lcf(shifts, reps) -> Graph:
    """Cubic Hamiltonian graph from LCF notation ``shifts^reps``."""
    n = len(shifts) * reps
    return Graph(n, [(i, j) for i in range(n)
                     for j in ((i + 1) % n, (i + shifts[i % len(shifts)]) % n)])


def foster_lift(fold: int, seed: int) -> Graph:
    """Connected random ``fold``-fold covering lift of the Foster graph:
    each base edge uv becomes a random matching between the fibres."""
    base = lcf(*FOSTER_LCF)
    rng = random.Random(seed)
    while True:
        edges = []
        for u, v in base.edges():
            perm = list(range(fold))
            rng.shuffle(perm)
            edges += [(u * fold + i, v * fold + perm[i]) for i in range(fold)]
        g = Graph(base.n * fold, edges)
        if g.connected:
            return g


def mcgee_minus_edge() -> Graph:
    g = mcgee()
    return Graph(g.n, g.edges()[1:])


GRAPHS = {
    "mcgee": mcgee,
    "heawood": heawood,
    "petersen": petersen,
    "foster": lambda: lcf(*FOSTER_LCF),
    "tutte_coxeter": lambda: lcf(*TUTTE_COXETER_LCF),
    "foster_lift2": lambda: foster_lift(2, 2),
    "foster_lift3": lambda: foster_lift(3, 3),
    "foster_lift5": lambda: foster_lift(5, 5),
    **{f"rr{d}_{n}": (lambda n=n, d=d: random_regular(n, d, 1000 * d + n))
       for d in (3, 4) for n in (20, 60, 200)},
    "mcgee_minus_edge": mcgee_minus_edge,
}


def md5(obj) -> str:
    text = obj if isinstance(obj, str) else json.dumps(obj, sort_keys=True)
    return hashlib.md5(text.encode()).hexdigest()


def record(g: Graph, k: int) -> dict:
    """Everything the pipeline decides about (g, k); long outputs hashed."""
    report = structural_report(g, k).to_dict()
    out = {
        "girth": report["girth"],
        "diameter": report["diameter"],
        "two_k_cycles": len(report["two_k_cycles"]),
        "report_md5": md5(report),
        "label": classify(g, k).to_dict(),
        "power_graph6_md5": md5(write_graph6(kth_power(g, k))),
    }
    try:
        painter, label, order = dispatch_painter(g, k)
    except PowerPaintError as exc:
        out["dispatch_error"] = type(exc).__name__
    else:
        out["painter"] = type(painter).__name__
        out["dispatch_label"] = label.to_dict()
        out["order_md5"] = md5(list(order))
    if out["label"]["kind"] == CaseLabel.MAIN_CASE:
        f = find_special_frame(g, k)
        out["frame"] = [f.x1, f.x2, f.y1, f.y2, list(f.path), f.v, f.w]
        out["frame_order_md5"] = md5(list(f.order))
    return out


def cases():
    return [(name, k) for name in GRAPHS for k in KS]


def load():
    with open(DATA) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name,k", cases())
def test_pipeline_matches_golden(name, k):
    assert record(GRAPHS[name](), k) == load()[f"{name}/k{k}"]


def test_golden_covers_every_route():
    kinds = {r["label"]["kind"] for r in load().values()}
    assert {CaseLabel.NON_REGULAR, CaseLabel.SHORT_CYCLE,
            CaseLabel.INTERSECTING, CaseLabel.MAIN_CASE} == kinds


def test_dispatch_classifies_main_case_once(monkeypatch):
    calls = []
    real = graph.classify

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(graph, "classify", counting)
    monkeypatch.setattr(painters, "classify", counting)
    painter, label, _ = dispatch_painter(lcf(*FOSTER_LCF), 4)
    assert label.kind == CaseLabel.MAIN_CASE
    assert isinstance(painter, painters.TheoremPainter)
    assert calls == [4]


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(__doc__)
    os.makedirs(os.path.dirname(DATA), exist_ok=True)
    golden = {f"{name}/k{k}": record(GRAPHS[name](), k) for name, k in cases()}
    with open(DATA, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
