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
    PressureLister,
    RandomLister,
    TokenBudgets,
    Transcript,
    play_game,
    validate_transcript,
)
from .painters import (
    CliquePainter,
    GreedyScanPainter,
    TheoremPainter,
    certify,
    dispatch_painter,
)
from .oracle import (
    OracleLister,
    solve_choosability,
    solve_paintability,
)

__version__ = "0.1.0"
