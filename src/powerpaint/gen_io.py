"""Graph ingestion and generation: graph6 read/write, DIMACS .col
reading, the named graphs used throughout the tests, and a pairing-model
random regular generator.

A graph6 body character is 63 plus a 6-bit group of edge bits, which is
one base64 digit, so the codec is ``binascii`` base64 and a translation
table between the two alphabets. Bit strings become integers only in
base 2, which ``int_max_str_digits`` does not limit.

Randomness comes from ``random.Random`` (Mersenne Twister), which is
specified by the Python standard library and produces identical streams
on every platform, so seeded corpora are reproducible byte-for-byte.
"""

from __future__ import annotations

import binascii
import random
from typing import Optional

from .errors import GiveUpError, ParseError, PreconditionError
from .graph import Graph

# ---------------------------------------------------------------------------
# graph6

_G6_MAX_LONG = 258047
_B64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_G6_CHARS = bytes(range(63, 127))
_TO_G6 = bytes.maketrans(_B64, _G6_CHARS)
_FROM_G6 = bytes.maketrans(_G6_CHARS, _B64)


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 line (short or 4-byte long size header)."""
    line = text.strip()
    if line.startswith(">>graph6<<"):
        line = line[len(">>graph6<<"):]
    if not line:
        raise ParseError("empty graph6 line", offset=0)
    data = line.encode()
    if data.translate(None, _G6_CHARS):  # some byte outside 63..126
        i = next(i for i, c in enumerate(data) if not 63 <= c <= 126)
        raise ParseError(f"character {data[i:i+1]!r} outside 63..126",
                         offset=i)
    pos = 0
    if data[0] == 126:  # '~'
        if len(data) >= 2 and data[1] == 126:
            raise ParseError("8-byte graph6 size header not supported",
                             offset=0)
        if len(data) < 4:
            raise ParseError("truncated long size header", offset=len(data))
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        pos = 4
    else:
        n = data[0] - 63
        pos = 1
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) - pos != nbytes:
        raise ParseError(
            f"expected {nbytes} body bytes for n={n}, got {len(data) - pos}",
            offset=pos)
    raw = binascii.a2b_base64(
        data[pos:].translate(_FROM_G6) + b"A" * (-nbytes % 4))
    bits = format(int.from_bytes(raw, "big"),
                  f"0{8 * len(raw)}b")[:nbytes * 6]
    i = bits.find("1", nbits)
    if i >= 0:
        raise ParseError("nonzero padding bits", offset=pos + i // 6)
    if n == 0:
        raise ParseError("graph6 with zero vertices", offset=0)
    # Bit i is the pair (row, col) with i = col*(col-1)/2 + row, row < col.
    edges = []
    col, first = 1, 0
    i = bits.find("1")
    while i >= 0:
        while i >= first + col:
            first += col
            col += 1
        edges.append((i - first, col))
        i = bits.find("1", i + 1)
    return Graph(n, edges)


def write_graph6(g: Graph) -> str:
    """Encode a graph as one canonical graph6 line."""
    n = g.n
    if n > _G6_MAX_LONG:
        raise PreconditionError(f"n={n} exceeds graph6 long-form limit")
    if n <= 62:
        header = [n + 63]
    else:
        header = [126, 63 + ((n >> 12) & 63), 63 + ((n >> 6) & 63),
                  63 + (n & 63)]
    nbits = n * (n - 1) // 2
    if not nbits:
        return bytes(header).decode("ascii")
    bits = bytearray(b"0") * (nbits + (-nbits) % 24)
    for col in range(1, n):
        first = col * (col - 1) // 2
        for row in g.adj[col]:
            if row >= col:
                break
            bits[first + row] = 49  # '1'
    raw = int(bits, 2).to_bytes(len(bits) // 8, "big")
    body = binascii.b2a_base64(raw, newline=False)[:(nbits + 5) // 6]
    return (bytes(header) + body.translate(_TO_G6)).decode("ascii")


# ---------------------------------------------------------------------------
# DIMACS .col (read-only)

def parse_dimacs(text: str) -> Graph:
    """DIMACS .col: 'p edge N M' header then 'e u v' lines, 1-based."""
    n = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise ParseError(
                    f"duplicate problem line {raw!r} (line {lineno})")
            if len(parts) < 3 or parts[1] not in ("edge", "edges", "col"):
                raise ParseError(f"bad problem line {raw!r} (line {lineno})")
            n = _dimacs_int(parts[2], raw, lineno)
            if n > _G6_MAX_LONG:
                raise ParseError(f"{n} vertices exceeds the cap "
                                 f"{_G6_MAX_LONG} in {raw!r} (line {lineno})")
        elif parts[0] == "e":
            if n is None:
                raise ParseError(f"edge before problem line (line {lineno})")
            if len(parts) < 3:
                raise ParseError(f"bad edge line {raw!r} (line {lineno})")
            u, v = (_dimacs_int(x, raw, lineno) for x in parts[1:3])
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(f"edge ({u},{v}) out of range (line {lineno})")
            edges.append((u - 1, v - 1))
        else:
            raise ParseError(f"unrecognized line {raw!r} (line {lineno})")
    if n is None:
        raise ParseError("missing problem line")
    return Graph(n, edges)


def _dimacs_int(word: str, raw: str, lineno: int) -> int:
    try:
        return int(word)
    except ValueError:
        raise ParseError(
            f"bad integer {word!r} in {raw!r} (line {lineno})") from None


def load_graph_file(path: str) -> Graph:
    """Dispatch on extension: .col is DIMACS, anything else graph6, of
    which only the first non-empty line is read."""
    try:
        if path.endswith(".col"):
            with open(path) as fh:
                return parse_dimacs(fh.read())
        with open(path, "rb") as fh:
            for line in fh:
                if line.strip():
                    return parse_graph6(line.decode())
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not text: {exc}") from None
    raise ParseError(f"no graphs in {path}")


# ---------------------------------------------------------------------------
# named graphs

# The Petersen graph is not Hamiltonian, so it has no LCF notation and
# is kept as static data; the unit tests pin all three cages' graph6.
_PETERSEN_EDGES = [
    (0, 1), (0, 4), (0, 5), (1, 2), (1, 6), (2, 3), (2, 7), (3, 4), (3, 8),
    (4, 9), (5, 7), (5, 8), (6, 8), (6, 9), (7, 9),
]


def lcf(shifts: list[int], reps: int) -> Graph:
    """Cubic Hamiltonian graph from LCF notation ``shifts^reps`` (Frucht
    1977): the n-cycle plus a chord from i to i + shifts[i % len(shifts)]."""
    n = len(shifts) * reps
    return Graph(n, [(i, j) for i in range(n)
                     for j in ((i + 1) % n, (i + shifts[i % len(shifts)]) % n)])


def petersen() -> Graph:
    return Graph(10, _PETERSEN_EDGES)


def heawood() -> Graph:
    return lcf([5, -5], 7)


def mcgee() -> Graph:
    return lcf([12, 7, -7], 8)


def complete(n: int) -> Graph:
    if n < 1:
        raise PreconditionError("complete graph needs n >= 1")
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise PreconditionError("cycle needs n >= 3")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    if n < 1:
        raise PreconditionError("path needs n >= 1")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def prism(n: int = 3) -> Graph:
    """Circular ladder: two n-cycles joined by rungs (2n vertices)."""
    if n < 3:
        raise PreconditionError("prism needs n >= 3")
    edges = []
    for i in range(n):
        edges.append((i, (i + 1) % n))
        edges.append((n + i, n + (i + 1) % n))
        edges.append((i, n + i))
    return Graph(2 * n, edges)


def regular_tree(degree: int, depth: int) -> Graph:
    """Tree whose internal vertices all have the given degree: the root
    has ``degree`` children, other internal vertices degree-1."""
    if degree < 2 or depth < 1:
        raise PreconditionError("regular_tree needs degree >= 2, depth >= 1")
    edges = []
    frontier = [0]
    next_id = 1
    for level in range(depth):
        fanout = degree if level == 0 else degree - 1
        new_frontier = []
        for u in frontier:
            for _ in range(fanout):
                edges.append((u, next_id))
                new_frontier.append(next_id)
                next_id += 1
        frontier = new_frontier
    return Graph(next_id, edges)


DEFAULT_PAIRING_ATTEMPTS = 10 ** 4


def random_regular(n: int, degree: int, seed: int) -> Graph:
    """Pairing-model sample of a simple connected degree-regular graph.

    Shuffles n*degree stubs and pairs them consecutively; rejects draws
    with loops, parallel edges, or a disconnected result, and gives up
    after ``DEFAULT_PAIRING_ATTEMPTS`` draws.
    """
    if degree < 1 or n < degree + 1:
        raise PreconditionError(f"need n >= degree+1, got n={n} degree={degree}")
    if (n * degree) % 2 != 0:
        raise PreconditionError(f"n*degree must be even, got {n}*{degree}")
    if degree == 1 and n > 2:
        raise PreconditionError(
            f"the only connected 1-regular graph is K2, got n={n}")
    rng = random.Random(seed)
    stubs_template = [v for v in range(n) for _ in range(degree)]
    for _ in range(DEFAULT_PAIRING_ATTEMPTS):
        stubs = stubs_template[:]
        rng.shuffle(stubs)
        edges = {(min(e), max(e)) for e in zip(stubs[::2], stubs[1::2])}
        if len(edges) == n * degree // 2 and all(u < v for u, v in edges):
            g = Graph(n, edges)
            if g.connected:
                return g
    raise GiveUpError(
        f"no simple connected {degree}-regular graph on {n} vertices "
        f"after {DEFAULT_PAIRING_ATTEMPTS} pairing attempts")


# family -> builder, named after it; its parameters are ``named_graph``'s
_FAMILIES = {build.__name__: build for build in (
    petersen, heawood, mcgee, complete, cycle, path, prism, random_regular,
    regular_tree)}
FAMILIES = tuple(_FAMILIES)


def named_graph(family: str, *, n: Optional[int] = None,
                degree: Optional[int] = None, depth: Optional[int] = None,
                seed: Optional[int] = None) -> Graph:
    """The graph of a named family, built from the parameters its builder
    takes; a parameter the builder gives no default is required, and
    one it does not take is refused."""
    if family not in _FAMILIES:
        raise PreconditionError(
            f"unknown family {family!r} (known: {FAMILIES})")
    build = _FAMILIES[family]
    given = {"n": n, "degree": degree, "depth": depth, "seed": seed}
    code = build.__code__
    params = code.co_varnames[:code.co_argcount]
    for name, value in given.items():
        if value is not None and name not in params:
            raise PreconditionError(
                f"family {family!r} takes no parameter {name!r}")
    # the last len(__defaults__) parameters have defaults
    required = params[:len(params) - len(build.__defaults__ or ())]
    args = {}
    for name in params:
        if given[name] is not None:
            args[name] = given[name]
        elif name in required:
            raise PreconditionError(
                f"family {family!r} requires parameter {name!r}")
    return build(**args)
