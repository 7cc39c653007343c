import random
import sys

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powerpaint import gen_io
from powerpaint.errors import GiveUpError, ParseError, PreconditionError
from powerpaint.gen_io import (
    FAMILIES,
    complete,
    cycle,
    heawood,
    lcf,
    load_graph_file,
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
from powerpaint.graph import Graph, diameter, girth, kth_power


def random_graph(rng: random.Random, max_n: int = 20) -> Graph:
    n = rng.randint(1, max_n)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < 0.3]
    return Graph(n, edges)


def fields(g: Graph):
    """Everything a Graph holds: ``Graph.__eq__`` compares ``adj`` only,
    and ``parse_graph6`` builds the masks and the flag unchecked."""
    return g.n, g.adj, g.masks, g.connected


def to_graph6(g: Graph) -> str:
    """networkx's graph6 line for ``g``, the reference encoder."""
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges())
    return nx.to_graph6_bytes(G, header=False).decode().strip()


def assert_padding_rejected(n: int, body: str):
    """Setting any padding bit of the last body character of an n-vertex
    graph6 body raises ParseError at that character, under the short
    header (where n allows one) and under the long one."""
    nbits = n * (n - 1) // 2
    if nbits % 6 == 0:
        return
    headers = ["~" + "".join(chr(63 + (n >> s & 63)) for s in (12, 6, 0))]
    if n <= 62:
        headers.append(chr(63 + n))
    for header in headers:
        for bit in range(6 - nbits % 6):
            bad = body[:-1] + chr(63 + (ord(body[-1]) - 63 | 1 << bit))
            with pytest.raises(ParseError) as e:
                parse_graph6(header + bad)
            assert e.value.offset == len(header) + len(body) - 1, (n, bit)


class TestGraph6:
    def test_triangle_encoding(self):
        g = parse_graph6("Bw")
        assert g.n == 3 and g.num_edges() == 3

    def test_k1_writes_at_sign(self):
        assert write_graph6(Graph(1, [])) == "@"

    def test_round_trip_literal(self):
        assert write_graph6(parse_graph6("Bw")) == "Bw"

    def test_round_trip_corpus(self):
        rng = random.Random(12345)
        flags = set()
        for _ in range(1000):
            g = random_graph(rng)
            assert fields(parse_graph6(write_graph6(g))) == fields(g)
            flags.add(g.connected)
        assert flags == {False, True}

    def test_matches_networkx_encoding(self):
        rng = random.Random(7)
        for _ in range(50):
            g = random_graph(rng)
            assert write_graph6(g) == to_graph6(g)

    def test_long_form_header(self):
        g = path(70)
        line = write_graph6(g)
        assert line.startswith("~")
        assert parse_graph6(line) == g

    @pytest.mark.parametrize("density", [0.1, 0.6, 1.0])
    def test_round_trip_every_size_to_69(self, density):
        # Every n ends its body at a different place in a base64 group;
        # density 1.0 fills the last group with ones up to the padding.
        rng = random.Random(int(density * 100))
        for n in range(1, 70):
            g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                          if rng.random() < density])
            line = write_graph6(g)
            header = 1 if n <= 62 else 4
            assert len(line) == header + (n * (n - 1) // 2 + 5) // 6
            assert line == to_graph6(g)
            assert fields(parse_graph6(line)) == fields(g)
            assert_padding_rejected(n, line[header:])

    def test_long_header_bytes_match_networkx(self):
        # n = 63..110 is 48 consecutive sizes, so n(n-1)/2 takes every
        # residue mod 24 that it can take.
        sizes = range(63, 111)
        assert ({n * (n - 1) // 2 % 24 for n in sizes}
                == {n * (n - 1) // 2 % 24 for n in range(1, 49)})
        rng = random.Random(3)
        for density in (0.2, 1.0):
            for n in [*sizes, 130]:
                g = Graph(n, [(u, v) for u in range(n)
                              for v in range(u + 1, n)
                              if density == 1.0 or rng.random() < density])
                theirs = to_graph6(g)
                assert write_graph6(g) == theirs
                assert fields(parse_graph6(theirs)) == fields(g)
                assert_padding_rejected(n, theirs[4:])

    def test_padding_error_offset(self):
        # K3 has 3 edge bits; 'x' = 111001 also sets the last padding bit
        # of the one body byte, at offset 1.
        with pytest.raises(ParseError) as e:
            parse_graph6("Bx")
        assert e.value.offset == 1

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="no int/str digit limit on this Python")
    def test_round_trip_under_strictest_digit_limit(self):
        # Base-2 conversions are exempt from the limit; a base-10 one on
        # these ~500k-bit bodies would raise ValueError.
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            for s in range(2):
                g = kth_power(random_regular(1000, 3, s), 3)
                assert parse_graph6(write_graph6(g)) == g
        finally:
            sys.set_int_max_str_digits(old)

    def test_rejects_bad_characters(self):
        with pytest.raises(ParseError) as e:
            parse_graph6("B\x1f")
        assert e.value.offset == 1

    def test_rejects_non_ascii(self):
        # must not be read as "B?", the empty graph on 3 vertices
        with pytest.raises(ParseError) as e:
            parse_graph6("B\u00e9")
        assert e.value.offset == 1

    def test_rejects_nonzero_padding(self):
        # K1 body must be empty; force a padded nonzero byte via K2's "A"
        # header with bad trailing bits: 'A' + '_' has bit 1 set after pad.
        with pytest.raises(ParseError):
            parse_graph6("A" + chr(63 + 1))

    def test_rejects_wrong_length(self):
        with pytest.raises(ParseError):
            parse_graph6("Bww")

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 25), st.random_module())
    def test_round_trip_property(self, n, rnd):
        rng = random.Random(rnd.seed)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.4]
        g = Graph(n, edges)
        assert parse_graph6(write_graph6(g)) == g


class TestDimacs:
    def test_basic_read(self):
        text = "c a triangle\np edge 3 3\ne 1 2\ne 2 3\ne 1 3\n"
        g = parse_dimacs(text)
        assert g.n == 3 and g.num_edges() == 3

    def test_rejects_missing_header(self):
        with pytest.raises(ParseError):
            parse_dimacs("e 1 2\n")

    def test_rejects_out_of_range(self):
        with pytest.raises(ParseError):
            parse_dimacs("p edge 2 1\ne 1 5\n")

    @pytest.mark.parametrize("text,lineno", [
        ("p edge 3 2\ne 1 2\ne 2 3\np edge 5 0\n", 4),
        ("p edge 5 1\ne 4 5\np edge 3 0\n", 3),
    ])
    def test_rejects_a_second_problem_line(self, text, lineno):
        with pytest.raises(ParseError, match=(
                rf"^duplicate problem line .* \(line {lineno}\)$")):
            parse_dimacs(text)

    @pytest.mark.parametrize("text,lineno", [
        ("c header next\np edge x 1\n", 2),
        ("p edge 3 1\ne 1\n", 2),
        ("p edge 3 1\ne 1 x\n", 2),
    ])
    def test_malformed_lines_name_the_line(self, text, lineno):
        with pytest.raises(ParseError, match=f"line {lineno}"):
            parse_dimacs(text)

    def test_rejects_n_over_the_cap_before_building(self):
        # One over graph6's long-form limit; no Graph is built.
        with pytest.raises(ParseError, match=(
                r"^258048 vertices exceeds the cap 258047 in "
                r"'p edge 258048 0' \(line 2\)$")):
            parse_dimacs("c too big\np edge 258048 0\n")

    @pytest.mark.parametrize("name", ["g.g6", "g.col"])
    def test_undecodable_file_is_a_parse_error(self, tmp_path, name):
        target = tmp_path / name
        target.write_bytes(b"\xff\xfe")
        with pytest.raises(ParseError):
            load_graph_file(str(target))


class TestLoadGraphFile:
    @pytest.mark.parametrize("content", [b"Bw\nbad line\n",
                                         b"\n  \nBw\n\xff\xfe\n"])
    def test_reads_only_the_first_graph6_line(self, tmp_path, content):
        target = tmp_path / "g.g6"
        target.write_bytes(content)
        assert load_graph_file(str(target)).edges() == [(0, 1), (0, 2), (1, 2)]

    @pytest.mark.parametrize("content", [b"", b"\n \n", b"bad line\nBw\n"])
    def test_no_graph_on_the_first_line_is_a_parse_error(self, tmp_path,
                                                         content):
        target = tmp_path / "g.g6"
        target.write_bytes(content)
        with pytest.raises(ParseError):
            load_graph_file(str(target))


class TestNamedGraphs:
    @pytest.mark.parametrize("builder,n,deg,g,diam", [
        (petersen, 10, 3, 5, 2),
        (heawood, 14, 3, 6, 3),
        (mcgee, 24, 3, 7, 4),
    ])
    def test_cage_signatures(self, builder, n, deg, g, diam):
        graph = builder()
        assert graph.n == n
        assert all(graph.degree(v) == deg for v in range(n))
        assert girth(graph) == g
        assert diameter(graph) == diam

    @pytest.mark.parametrize("builder,line", [
        (petersen, "IheA@GUAo"),
        (heawood, "MhEGHC@AI?_PC@_G_"),
        (mcgee, "WhCGGD@?G?`@_@??_GG_@??C?GGC?H??C?@@?C?GG??o?@@"),
    ])
    def test_cage_labelling_is_pinned(self, builder, line):
        # the golden data and the benchmark inputs depend on these labels
        assert write_graph6(builder()) == line

    def test_complete(self):
        g = complete(4)
        assert all(g.degree(v) == 3 for v in range(4))
        assert girth(g) == 3

    def test_cycle_path_prism(self):
        assert girth(cycle(5)) == 5
        assert path(4).num_edges() == 3
        pr = prism(3)
        assert pr.n == 6 and all(pr.degree(v) == 3 for v in range(6))

    def test_regular_tree(self):
        t = regular_tree(3, 2)
        assert t.n == 1 + 3 + 6
        internal = [v for v in range(t.n) if t.degree(v) > 1]
        assert all(t.degree(v) == 3 for v in internal)

    def test_family_dispatch(self):
        assert FAMILIES == ("petersen", "heawood", "mcgee", "complete",
                            "cycle", "path", "prism", "random_regular",
                            "regular_tree")
        params = {"petersen": {}, "heawood": {}, "mcgee": {},
                  "complete": {"n": 5}, "cycle": {"n": 5}, "path": {"n": 5},
                  "prism": {"n": 5},
                  "random_regular": {"n": 5, "degree": 2, "seed": 0},
                  "regular_tree": {"degree": 2, "depth": 2}}
        assert tuple(params) == FAMILIES
        for family in FAMILIES:
            g = named_graph(family, **params[family])
            assert g.n >= 5 and g.connected, family
        assert named_graph("cycle", n=5) == cycle(5)
        assert named_graph("prism") == prism(3)
        assert named_graph("prism", n=4) == prism(4)
        assert named_graph("mcgee") == mcgee()
        with pytest.raises(PreconditionError, match=(
                r"^unknown family 'nosuch' \(known: \('petersen', "
                r"'heawood', .*'regular_tree'\)\)$")):
            named_graph("nosuch")
        with pytest.raises(PreconditionError, match=(
                "^family 'complete' requires parameter 'n'$")):
            named_graph("complete")
        with pytest.raises(PreconditionError, match=(
                "^family 'random_regular' requires parameter 'seed'$")):
            named_graph("random_regular", n=6, degree=3)
        with pytest.raises(PreconditionError, match=(
                "^family 'regular_tree' requires parameter 'degree'$")):
            named_graph("regular_tree")
        with pytest.raises(PreconditionError, match=(
                "^family 'petersen' takes no parameter 'n'$")):
            named_graph("petersen", n=7, degree=9)
        with pytest.raises(PreconditionError, match=(
                "^family 'cycle' takes no parameter 'seed'$")):
            named_graph("cycle", n=5, seed=1)

    def test_lcf_single_shift_is_k33(self):
        # [3]^6 joins each vertex to the three of opposite parity
        assert lcf([3], 6) == Graph(6, [(u, v) for u in range(0, 6, 2)
                                        for v in range(1, 6, 2)])


class TestRandomRegular:
    def test_regular_connected(self):
        for seed in range(30):
            g = random_regular(10, 3, seed)
            assert g.connected
            assert all(g.degree(v) == 3 for v in range(10))

    def test_deterministic_per_seed(self):
        assert random_regular(10, 3, 1) == random_regular(10, 3, 1)
        # distinct seeds almost surely differ on this size
        assert any(random_regular(10, 3, 1) != random_regular(10, 3, s)
                   for s in range(2, 10))

    def test_k4_unique_cubic_on_four(self):
        for seed in range(5):
            assert random_regular(4, 3, seed) == complete(4)

    def test_parity_precondition(self):
        with pytest.raises(PreconditionError):
            random_regular(5, 3, 0)

    def test_too_few_vertices(self):
        with pytest.raises(PreconditionError):
            random_regular(3, 3, 0)

    def test_one_regular_is_only_k2(self):
        with pytest.raises(PreconditionError):
            random_regular(4, 1, 0)
        for seed in range(5):
            assert random_regular(2, 1, seed) == complete(2)

    def test_give_up(self, monkeypatch):
        monkeypatch.setattr(gen_io, "DEFAULT_PAIRING_ATTEMPTS", 0)
        with pytest.raises(GiveUpError):
            random_regular(6, 3, 0)
