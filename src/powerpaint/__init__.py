"""Graph powers, the Brooks-style degree bound for them, and the online
list-coloring (Lister/Painter) game with a Painter strategy for each
case of the analysis. ``certify`` proves every fallback route, and the
main-case scan for every vertex but v and w; the main case's frame
rules are only tested, against the listers here. An exact game-tree
oracle is the ground truth at small scale.
"""

from .errors import (
    CapExceededError,
    GiveUpError,
    GraphConstructionError,
    IllegalListerMove,
    IllegalPainterMove,
    NoFrameError,
    ParseError,
    PowerPaintError,
    PreconditionError,
)
from .graph import (
    CaseLabel,
    DistanceMatrix,
    Graph,
    SpecialFrame,
    StructuralReport,
    bound_D,
    classify,
    diameter,
    find_special_frame,
    girth,
    kth_power,
    structural_report,
)
from .gen_io import (
    GraphFamilySpec,
    complete,
    cycle,
    heawood,
    mcgee,
    named_graph,
    parse_dimacs,
    parse_graph6,
    path,
    petersen,
    prism,
    random_regular,
    regular_tree,
    write_graph6,
)
from .game import (
    GameState,
    TokenBudgets,
    Transcript,
    play_game,
    pressure_lister,
    random_lister,
    validate_transcript,
)
from .painters import (
    certify,
    clique_painter,
    dispatch_painter,
    greedy_scan_painter,
    main_theorem_painter,
)
from .oracle import (
    oracle_lister,
    solve_choosability,
    solve_paintability,
)

__version__ = "0.1.0"
