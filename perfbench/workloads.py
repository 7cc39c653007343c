"""The three workloads, each a single-threaded closed loop: the next
operation starts when the previous one and its checks have finished.

- ``play``: games on Foster^4 (one operation = one game).
- ``analyze``: four ~1000-vertex graph6 lines through report, classify,
  power, painter, graph6 output and one game (one operation = one pass
  over the four lines).
- ``oracle``: a fixed list of exact verdicts (one operation = one pass
  over the list).

Every operation is timed on the process CPU clock around the program
calls only; the checks of its outputs run outside the timed region.
After every 50 ms of CPU time, at the next boundary between program
calls, the run also times a fixed reference kernel written in the
bench (``tick``). The host's speed drifts by 10-25% between runs, and
the kernel drifts with it, so end-to-end times are divided by the run's
kernel speed (``speed``) and reported at the reference speed.
The program is called through module attributes (``graph.kth_power``,
not an imported name) so that the tracer's patches see every call.
"""

from __future__ import annotations

import math
import random
import resource
import statistics
import sys
import time
from collections import defaultdict

import powerpaint.game as game
import powerpaint.gen_io as gen_io
import powerpaint.graph as graph
import powerpaint.oracle as oracle
import powerpaint.painters as painters

from . import inputs
from .tracing import TracedLister, TracedPainter, Tracer, clock_ns

WORKLOADS = ("play", "analyze", "oracle")
SETUP_REPS = 3
PRESSURE_EVERY = 10          # every 10th game of `play` uses the pressure lister
SEED_STRIDE = 1_000_000      # game seeds of run seed s are s * SEED_STRIDE + i
REFERENCE_KERNEL_NS = 4_000_000   # kernel time at the reference speed
TICK_EVERY_NS = 50_000_000        # run the kernel after 50 ms of CPU time

# Oracle cases: (name, graph constructor, budget, pinned verdict, relabel).
# The seed relabels the vertices of the cases marked True. The solver's
# memo key depends on vertex ids, so relabeling C10, C9, prism(4), P8 or
# C6 moves their cost by up to 2.3x (C10/2: 4.3 s natural, 9-10 s
# relabeled); those keep the natural labels so the list's cost does not
# depend on the seed.


def _cycle(n):
    return n, [(i, (i + 1) % n) for i in range(n)]


def _path(n):
    return n, [(i, i + 1) for i in range(n - 1)]


def _prism(m):
    edges = []
    for i in range(m):
        edges += [(i, (i + 1) % m), (m + i, m + (i + 1) % m), (i, m + i)]
    return 2 * m, edges


def _k33():
    return 6, [(i, j) for i in range(3) for j in range(3, 6)]


def _petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return 10, outer + inner + [(i, 5 + i) for i in range(5)]


PAINT_CASES = [
    ("C9_3", lambda: _cycle(9), 3, "painter", False),
    ("C10_2", lambda: _cycle(10), 2, "painter", False),
    ("prism4_3", lambda: _prism(4), 3, "painter", False),
    ("P8_2", lambda: _path(8), 2, "painter", False),
    ("K33_3", _k33, 3, "painter", True),
    ("K33_2", _k33, 2, "lister", True),
    ("Petersen_2", _petersen, 2, "lister", True),
    ("Petersen2_9", _petersen, 9, "lister", True),     # game graph Petersen^2 = K10
    ("Petersen2_10", _petersen, 10, "painter", True),
    ("C5_2", lambda: _cycle(5), 2, "lister", True),
]
CHOOSE_CASES = [
    ("C6_3", lambda: _cycle(6), 3, True, False),
    ("P6_2", lambda: _path(6), 2, True, True),
]
TINY_CASES = {"K33_2", "Petersen_2", "Petersen2_9", "Petersen2_10", "C5_2",
              "P6_2"}

# Spans recorded in traced runs: (owner, attribute, span name, count).
# Functions imported by name into `painters` are patched there as well.
PATCHES = [
    (gen_io, "parse_graph6", "gen_io.parse_graph6",
     lambda a, r: len(a[0].strip())),
    (gen_io, "write_graph6", "gen_io.write_graph6", lambda a, r: len(r)),
    (graph.Graph, "distances", "graph.distances", None),
    (graph, "kth_power", "graph.kth_power", lambda a, r: r.num_edges()),
    (painters, "kth_power", "graph.kth_power", lambda a, r: r.num_edges()),
    (graph, "girth", "graph.girth", None),
    (graph, "enumerate_cycles", "graph.enumerate_cycles", lambda a, r: len(r)),
    (graph, "structural_report", "graph.structural_report", None),
    (painters, "structural_report", "graph.structural_report", None),
    (graph, "classify", "graph.classify", None),
    (painters, "classify", "graph.classify", None),
    (graph, "find_special_frame", "graph.find_special_frame", None),
    (painters, "find_special_frame", "graph.find_special_frame", None),
    (painters, "dispatch_painter", "painters.dispatch_painter", None),
    (game, "play_game", "game.play_game", None),
    (game, "validate_transcript", "game.validate_transcript", None),
]

# Every named layer function; a traced run of all three workloads
# records a span for each.
LAYER_SPANS = sorted({p[2] for p in PATCHES} | {
    "painters.choose_colors", "game.choose_reveal"} | {
    f"oracle.paint.{c[0]}" for c in PAINT_CASES} | {
    f"oracle.choose.{c[0]}" for c in CHOOSE_CASES})


class Run:
    """Counts, timings and the tracer of one benchmark run."""

    def __init__(self, workload, seed, seconds, trace, tiny):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.tiny = tiny
        self.tracer = Tracer() if trace else None
        self.attempted = 0
        self.failed = 0
        self.setup_s: list[float] = []
        self.op_s: list[float] = []          # untraced operations
        self.traced_op_s: list[float] = []
        self.setup_units: list[int] = []
        self.loop_units: list[int] = []      # traced operations
        self.transcripts: list = []          # traced games: (transcript, budgets)
        self.kernel_ns: list[int] = []
        self.kernel_weight: list[int] = []
        self._kernel_adj = inputs.adjacency(*inputs.lcf_edges(*inputs.FOSTER_LCF))
        self._last_tick = clock_ns()
        self._op_ns = 0

    def call(self, fn, *args, **kwargs):
        """Call the program, adding its CPU time to the current
        operation, then ``tick``."""
        t0 = clock_ns()
        result = fn(*args, **kwargs)
        self._op_ns += clock_ns() - t0
        self.tick()
        return result

    def tick(self):
        """Time the reference kernel once if 50 ms of CPU time have
        passed since the last tick, weighting the sample by that time."""
        elapsed = clock_ns() - self._last_tick
        if elapsed < TICK_EVERY_NS:
            return
        t0 = clock_ns()
        inputs.girth_upto(self._kernel_adj, 10)
        self.kernel_ns.append(clock_ns() - t0)
        self.kernel_weight.append(elapsed)
        self._last_tick = clock_ns()

    def speed(self) -> float:
        """Time-weighted median kernel time of the run over the reference
        kernel time: above 1 when the host ran slower than the reference."""
        if not self.kernel_ns:
            self._last_tick -= TICK_EVERY_NS
            self.tick()
        pairs = sorted(zip(self.kernel_ns, self.kernel_weight))
        half, acc = sum(self.kernel_weight) / 2, 0
        for k, w in pairs:
            acc += w
            if acc >= half:
                return k / REFERENCE_KERNEL_NS

    def check(self, problems: list[str], what: str) -> bool:
        """Count one attempted operation; it failed if it has problems."""
        self.attempted += 1
        if problems:
            self.failed += 1
            if self.failed <= 5:
                print(f"FAIL {self.workload} {what}: {'; '.join(problems)}",
                      file=sys.stderr)
        return not problems

    def setup(self, build):
        """Run ``build()`` SETUP_REPS times (once when tiny); it returns
        (result, CPU ns of input generation and program set-up). Traced
        runs record its spans under negative unit ids. Returns the last
        build's result."""
        reps = 1 if self.tiny else SETUP_REPS
        for rep in range(reps):
            unit = -1 - rep
            if self.tracer is not None:
                self.tracer.unit = unit
                with self.tracer.install(PATCHES):
                    built, timed_ns = build()
            else:
                built, timed_ns = build()
            self.setup_s.append(timed_ns / 1e9)
            self.setup_units.append(unit)
        return built

    def loop(self, op):
        """Call ``op(unit, tracer)`` until the run's seconds of wall time
        have passed. ``op`` makes its program calls through ``call`` and
        returns False if one raised; the CPU time of the calls of every
        other operation is recorded. A traced run spends its first third
        untraced, for the overhead figure, and the rest traced."""
        start = time.monotonic()
        self._last_tick = clock_ns()
        unit = 0
        untraced_until = (self.seconds / 3 if self.tracer is not None
                          else self.seconds)
        while time.monotonic() - start < untraced_until or unit == 0:
            self._op_ns = 0
            if op(unit, None):
                self.op_s.append(self._op_ns / 1e9)
            unit += 1
        if self.tracer is None:
            return
        with self.tracer.install(PATCHES):
            first = unit
            while time.monotonic() - start < self.seconds or unit == first:
                self.tracer.unit = unit
                self._op_ns = 0
                if op(unit, self.tracer):
                    self.traced_op_s.append(self._op_ns / 1e9)
                self.loop_units.append(unit)
                unit += 1


# ---------------------------------------------------------------------------
# play

def foster():
    """Foster graph from LCF, with its pinned invariants."""
    n, edges = inputs.lcf_edges(*inputs.FOSTER_LCF)
    pinned = dict(n=90, degree=3, connected=True, ecc0_min=8, girth_min=10,
                  girth_max=10)
    return n, inputs.adjacency(n, edges), pinned


def play_game_checked(run, gk, budgets, painter, lister, game_seed, k):
    """One timed game plus its validation. Returns (transcript,
    problems)."""
    t = run.call(game.play_game, gk, budgets, lister, painter,
                 seed=game_seed, k=k)
    bad = run.call(game.validate_transcript, gk, budgets, t)
    problems = []
    if bad is not None:
        problems.append(f"invalid transcript: {bad}")
    if t.winner != "painter":
        problems.append(f"lister won at vertex {t.loser_vertex}")
    return t, problems


def lister_for(i: int, base: int):
    if i % PRESSURE_EVERY == PRESSURE_EVERY - 1:
        return game.pressure_lister()
    return game.random_lister(base + i)


def power_problems(gk, ref_adj, k, delta) -> list[str]:
    problems = []
    if [tuple(a) for a in gk.adj] != ref_adj:
        problems.append(f"G^{k} differs from the radius-{k} balls")
    if gk.max_degree > inputs.bound_d(k, delta):
        problems.append(f"G^{k} max degree {gk.max_degree} > D")
    return problems


def run_play(run: Run):
    k = 4
    n, adj, pinned = foster()
    run.check(inputs.invariant_mismatches(adj, pinned), "Foster invariants")
    ref_power = inputs.power_adjacency(adj, k)
    budget = inputs.bound_d(k, 3) - 1
    budgets = game.TokenBudgets.uniform(n, budget)

    def build():
        t0 = clock_ns()
        n_, edges = inputs.lcf_edges(*inputs.FOSTER_LCF)
        line = inputs.graph6_line(n_, inputs.adjacency(n_, edges))
        g = gen_io.parse_graph6(line)
        gk = graph.kth_power(g, k)
        painter, label, order = painters.dispatch_painter(g, k)
        return (g, gk, painter, label, order), clock_ns() - t0

    g, gk, painter, label, order = run.setup(build)
    problems = power_problems(gk, ref_power, k, 3)
    if [list(a) for a in g.adj] != adj:
        problems.append("parsed Foster differs from the generated one")
    if label.kind != "MainCase":
        problems.append(f"label {label.kind}, pinned MainCase")
    if sorted(order) != list(range(n)):
        problems.append("painter order is not a permutation")
    run.check(problems, "Foster set-up")

    base = run.seed * SEED_STRIDE
    traced_painter = (TracedPainter(painter, run.tracer)
                      if run.tracer is not None else None)

    def op(i, tracer):
        lister = lister_for(i, base)
        p = painter
        if tracer is not None:
            lister, p = TracedLister(lister, tracer), traced_painter
        try:
            t, problems = play_game_checked(run, gk, budgets, p, lister,
                                            base + i, k)
        except Exception as exc:  # a raising game is a counted failure
            run.check([repr(exc)], f"game {i}")
            return False
        run.check(problems, f"game {i}")
        if tracer is not None:
            run.transcripts.append((t, budgets))
        return True

    run.loop(op)


# ---------------------------------------------------------------------------
# analyze

def analyze_inputs(seed: int, tiny: bool):
    """The corpus: two covering lifts of Foster (MainCase) and two random
    cubic graphs (ShortCycle), at k = 3 and k = 4. A disconnected lift,
    or a random cubic graph without a cycle shorter than 2k (about 1 in
    700 at n = 1000, k = 3), is redrawn from the seed."""
    fold, n_rr = (2, 60) if tiny else (11, 1000)
    fn, fedges = inputs.lcf_edges(*inputs.FOSTER_LCF)
    corpus = []
    for j, k in enumerate((3, 4)):
        rng = random.Random(seed * 1000 + j)
        while True:
            edges = inputs.covering_lift(fn, fedges, fold, rng)
            adj = inputs.adjacency(fn * fold, edges)
            if len(inputs.bfs_depths(adj, 0)) == fn * fold:
                break
        pinned = dict(n=fn * fold, degree=3, connected=True, girth_min=10,
                      girth_max=12,
                      ecc0_min=max(k + 1, inputs.moore_radius(fn * fold, 3)))
        corpus.append((f"lift{fold}_k{k}", adj, k, "MainCase", pinned))
    for j, k in enumerate((3, 4)):
        attempt = 0
        while True:
            g = gen_io.random_regular(n_rr, 3, seed * 1000 + 10 * j + attempt)
            adj = [list(a) for a in g.adj]
            if inputs.girth_upto(adj, 2 * k - 1) is not None:
                break
            attempt += 1
        pinned = dict(n=n_rr, degree=3, connected=True, girth_min=3,
                      girth_max=2 * k - 1,
                      ecc0_min=inputs.moore_radius(n_rr, 3))
        corpus.append((f"cubic{n_rr}_k{k}", adj, k, "ShortCycle", pinned))
    return corpus


def report_problems(ref, report, label) -> list[str]:
    """Check a structural report and case label against the reference
    facts computed by the bench at set-up."""
    adj, k, kind, girth, ecc0 = (ref["adj"], ref["k"], ref["kind"],
                                 ref["girth"], ref["ecc0"])
    problems = []
    if (report.n, report.max_degree, report.is_regular) != (len(adj), 3, True):
        problems.append("report n/degree/regularity")
    if report.girth != girth:
        problems.append(f"report girth {report.girth}, reference {girth}")
    if not ecc0 <= report.diameter <= 2 * ecc0:
        problems.append(f"report diameter {report.diameter}, eccentricity "
                        f"of 0 is {ecc0}")
    if any(len(c) != 2 * k or not inputs.is_cycle(adj, c)
           for c in report.two_k_cycles):
        problems.append("a reported 2k-cycle is not a 2k-cycle")
    if girth > 2 * k and report.two_k_cycles:
        problems.append("2k-cycles reported below the girth")
    if label.kind != kind:
        problems.append(f"label {label.kind}, pinned {kind}")
    elif kind == "ShortCycle" and not (
            len(label.short_cycle) == girth
            and inputs.is_cycle(adj, label.short_cycle)):
        problems.append("short-cycle witness is not a shortest cycle")
    return problems


def run_analyze(run: Run):
    def build():
        t0 = clock_ns()
        corpus = analyze_inputs(run.seed, run.tiny)
        encoded = [inputs.graph6_line(len(adj), adj) for _, adj, *_ in corpus]
        return (corpus, encoded), clock_ns() - t0

    corpus, encoded = run.setup(build)
    cases = []
    for (name, adj, k, kind, pinned), line in zip(corpus, encoded):
        if run.check(inputs.invariant_mismatches(adj, pinned), f"{name} invariants"):
            ref = dict(name=name, adj=adj, k=k, kind=kind, line=line,
                       girth=inputs.girth_upto(adj, pinned["girth_max"]),
                       ecc0=max(inputs.bfs_depths(adj, 0).values()),
                       power=inputs.power_adjacency(adj, k),
                       budgets=game.TokenBudgets.uniform(
                           len(adj), inputs.bound_d(k, 3) - 1))
            cases.append(ref)
    base = run.seed * SEED_STRIDE

    def op(p, tracer):
        problems = []
        raised = False
        for j, ref in enumerate(cases):
            name, adj, k, kind, line, budgets = (
                ref["name"], ref["adj"], ref["k"], ref["kind"], ref["line"],
                ref["budgets"])
            game_seed = base + p * len(cases) + j
            try:
                h = run.call(gen_io.parse_graph6, line)
                report = run.call(graph.structural_report, h, k)
                label = run.call(graph.classify, h, k, report=report)
                gk = run.call(graph.kth_power, h, k)
                painter, dlabel, order = run.call(painters.dispatch_painter, h, k)
                out = run.call(gen_io.write_graph6, gk)
                lister = game.random_lister(game_seed)
                if tracer is not None:
                    painter = TracedPainter(painter, tracer)
                    lister = TracedLister(lister, tracer)
                t, game_problems = play_game_checked(
                    run, gk, budgets, painter, lister, game_seed, k)
            except Exception as exc:  # a raising line is a counted failure
                problems.append(f"{name}: {exc!r}")
                raised = True
                continue
            if tracer is not None:
                run.transcripts.append((t, budgets))
            if [list(a) for a in h.adj] != adj:
                problems.append(f"{name}: parsed graph differs")
            problems += [f"{name}: {x}" for x in
                         report_problems(ref, report, label)
                         + power_problems(gk, ref["power"], k, 3)
                         + game_problems]
            if dlabel.kind != kind or sorted(order) != list(range(len(adj))):
                problems.append(f"{name}: dispatch label {dlabel.kind} or order")
            if out != inputs.graph6_line(gk.n, gk.adj):
                problems.append(f"{name}: graph6 of G^k differs from reference")
        run.check(problems, f"pass {p}")
        return not raised

    run.loop(op)


# ---------------------------------------------------------------------------
# oracle

def oracle_inputs(seed: int, tiny: bool):
    rng = random.Random(seed)
    out = []
    for name, build, t, verdict, relabel in PAINT_CASES + CHOOSE_CASES:
        if tiny and name not in TINY_CASES:
            continue
        n, edges = build()
        if relabel:
            perm = list(range(n))
            rng.shuffle(perm)
            edges = [(perm[u], perm[v]) for u, v in edges]
        mode = "paint" if isinstance(verdict, str) else "choose"
        power = 2 if name.startswith("Petersen2") else 1
        out.append((f"{mode}.{name}", n, inputs.adjacency(n, edges), t,
                    verdict, power))
    return out


def paint_verdict(g, t):
    solver = oracle.PaintabilitySolver(g, game.TokenBudgets.uniform(g.n, t))
    return solver.solve(), len(solver.memo)


def choose_verdict(g, t):
    return oracle.solve_choosability(g, t), 0


def run_oracle(run: Run):
    def build():
        t0 = clock_ns()
        built = []
        for name, n, adj, t, verdict, power in oracle_inputs(run.seed, run.tiny):
            g = gen_io.parse_graph6(inputs.graph6_line(n, adj))
            if power > 1:
                g = graph.kth_power(g, power)
            built.append((name, adj, g, t, verdict, power))
        return built, clock_ns() - t0

    cases = run.setup(build)
    for name, adj, g, t, verdict, power in cases:
        ref = inputs.power_adjacency(adj, power)
        run.check([] if [tuple(a) for a in g.adj] == ref
                  else ["game graph differs from reference"], name)
    ids = {}

    def op(p, tracer):
        problems = []
        raised = False
        for name, adj, g, t, verdict, power in cases:
            fn = paint_verdict if name.startswith("paint.") else choose_verdict
            try:
                if tracer is None:
                    got, states = run.call(fn, g, t)
                else:
                    if name not in ids:
                        ids[name] = tracer.name_id(f"oracle.{name}")
                    got, states = run.call(tracer.call, ids[name], fn, (g, t),
                                           count=lambda a, r: r[1])
            except Exception as exc:  # a raising verdict is a counted failure
                problems.append(f"{name}: {exc!r}")
                raised = True
                continue
            if got != verdict:
                problems.append(f"{name}: {got!r}, pinned {verdict!r}")
        run.check(problems, f"pass {p}")
        return not raised

    run.loop(op)


RUNNERS = {"play": run_play, "analyze": run_analyze, "oracle": run_oracle}


# ---------------------------------------------------------------------------
# metrics

END_TO_END = [
    ("setup_s", "s"), ("ops_per_s", "1/s"), ("op_ms_p50", "ms"),
    ("op_ms_p99", "ms"), ("peak_rss_mb", "MB"),
]
GRAPH_LAYERS = ["distances", "kth_power", "girth", "enumerate_cycles",
                "structural_report", "classify", "find_special_frame"]
PER_LAYER = (
    [("gen_io.parse_graph6_s", "s"), ("gen_io.write_graph6_s", "s"),
     ("gen_io.graph6_bytes", "bytes")]
    + [(f"graph.{x}_s", "s") for x in GRAPH_LAYERS]
    + [("graph.power_edges", "count"), ("graph.two_k_cycles", "count"),
       ("graph.classify_calls", "count"),
       ("painters.dispatch_painter_s", "s"),
       ("painters.choose_colors_us_p50", "us"),
       ("painters.choose_colors_us_p99", "us"),
       ("painters.colored_per_revealed", "ratio"),
       ("game.play_game_self_s", "s"), ("game.choose_reveal_s", "s"),
       ("game.validate_transcript_s", "s"), ("game.game_ms_p99", "ms"),
       ("game.rounds_per_game", "count"), ("game.margin_min", "count")]
    + [m for c in PAINT_CASES for m in (
        (f"oracle.paint.{c[0]}_s", "s"),
        (f"oracle.paint.{c[0]}.memo_states", "count"))]
    + [(f"oracle.choose.{c[0]}_s", "s") for c in CHOOSE_CASES]
    + [("trace.overhead_frac", "ratio"), ("bench.kernel_ms_p50", "ms")]
)


def nearest_rank(values, q: float) -> float:
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def margin(t, budgets) -> int:
    """Fewest tokens left on a vertex while it was uncolored."""
    misses = defaultdict(int)
    for r in t.rounds:
        colored = set(r.colored)
        for v in r.revealed:
            if v not in colored:
                misses[v] += 1
    return min(budgets[v] - misses[v] for v in range(t.n))


def end_to_end_metrics(run: Run, import_s: float) -> dict:
    """Times in CPU seconds, scaled to the reference speed."""
    speed = run.speed()
    ops = [x / speed for x in run.op_s]
    return {
        "setup_s": (import_s + statistics.median(run.setup_s)) / speed,
        "ops_per_s": len(ops) / sum(ops),
        "op_ms_p50": statistics.median(ops) * 1e3,
        "op_ms_p99": nearest_rank(ops, 0.99) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer_metrics(run: Run) -> dict:
    tr = run.tracer
    loop_units = set(run.loop_units)
    dur = defaultdict(lambda: defaultdict(int))     # name -> unit -> ns
    cnt = defaultdict(lambda: defaultdict(int))
    calls = defaultdict(lambda: defaultdict(int))
    game_ns = defaultdict(int)      # play_game span -> its ns + validation ns
    choose_us = []
    last_game = -1
    for i, (unit, parent, name, start, end, count) in enumerate(tr.spans()):
        d = end - start
        dur[name][unit] += d
        cnt[name][unit] += count
        calls[name][unit] += 1
        if name == "game.play_game":
            dur["game.play_game_self"][unit] += d
            last_game = i
        if parent >= 0 and tr.names[tr.name_of[parent]] == "game.play_game":
            dur["game.play_game_self"][unit] -= d
        if unit in loop_units:
            if name == "game.play_game":
                game_ns[i] += d
            elif name == "game.validate_transcript" and last_game >= 0:
                game_ns[last_game] += d
            elif name == "painters.choose_colors":
                choose_us.append(d / 1e3)

    def per_unit(table, name, scale=1.0):
        by_unit = table.get(name, {})
        for units in (run.loop_units, run.setup_units):
            vals = [by_unit.get(u, 0) for u in units]
            if any(vals):
                return statistics.median(vals) * scale
        return 0.0

    out = {}
    out["gen_io.parse_graph6_s"] = per_unit(dur, "gen_io.parse_graph6", 1e-9)
    out["gen_io.write_graph6_s"] = per_unit(dur, "gen_io.write_graph6", 1e-9)
    out["gen_io.graph6_bytes"] = (per_unit(cnt, "gen_io.parse_graph6")
                                  + per_unit(cnt, "gen_io.write_graph6"))
    for x in GRAPH_LAYERS:
        out[f"graph.{x}_s"] = per_unit(dur, f"graph.{x}", 1e-9)
    out["graph.power_edges"] = per_unit(cnt, "graph.kth_power")
    out["graph.two_k_cycles"] = per_unit(cnt, "graph.enumerate_cycles")
    out["graph.classify_calls"] = per_unit(calls, "graph.classify")
    out["painters.dispatch_painter_s"] = per_unit(
        dur, "painters.dispatch_painter", 1e-9)
    out["painters.choose_colors_us_p50"] = (
        statistics.median(choose_us) if choose_us else 0.0)
    out["painters.choose_colors_us_p99"] = (
        nearest_rank(choose_us, 0.99) if choose_us else 0.0)
    out["painters.colored_per_revealed"] = (
        tr.colored / tr.revealed if tr.revealed else 0.0)
    out["game.play_game_self_s"] = per_unit(dur, "game.play_game_self", 1e-9)
    out["game.choose_reveal_s"] = per_unit(dur, "game.choose_reveal", 1e-9)
    out["game.validate_transcript_s"] = per_unit(
        dur, "game.validate_transcript", 1e-9)
    out["game.game_ms_p99"] = (nearest_rank(list(game_ns.values()), 0.99) / 1e6
                               if game_ns else 0.0)
    games = run.transcripts
    out["game.rounds_per_game"] = (
        statistics.median(len(t.rounds) for t, _ in games) if games else 0.0)
    out["game.margin_min"] = min((margin(t, b) for t, b in games), default=0)
    for c in PAINT_CASES:
        out[f"oracle.paint.{c[0]}_s"] = per_unit(dur, f"oracle.paint.{c[0]}", 1e-9)
        out[f"oracle.paint.{c[0]}.memo_states"] = per_unit(
            cnt, f"oracle.paint.{c[0]}")
    for c in CHOOSE_CASES:
        out[f"oracle.choose.{c[0]}_s"] = per_unit(dur, f"oracle.choose.{c[0]}", 1e-9)
    out["trace.overhead_frac"] = (statistics.median(run.traced_op_s)
                                  / statistics.median(run.op_s) - 1)
    out["bench.kernel_ms_p50"] = REFERENCE_KERNEL_NS * run.speed() / 1e6
    return out
