import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powerpaint.errors import GiveUpError, ParseError, PreconditionError
from powerpaint.gen_io import (
    GraphFamilySpec,
    complete,
    cycle,
    heawood,
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
from powerpaint.graph import Graph, girth


def random_graph(rng: random.Random, max_n: int = 20) -> Graph:
    n = rng.randint(1, max_n)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < 0.3]
    return Graph(n, edges)


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
        for _ in range(1000):
            g = random_graph(rng)
            assert parse_graph6(write_graph6(g)) == g

    def test_matches_networkx_encoding(self):
        rng = random.Random(7)
        for _ in range(50):
            g = random_graph(rng)
            G = nx.Graph()
            G.add_nodes_from(range(g.n))
            G.add_edges_from(g.edges())
            theirs = nx.to_graph6_bytes(G, header=False).decode().strip()
            assert write_graph6(g) == theirs

    def test_long_form_header(self):
        g = path(70)
        line = write_graph6(g)
        assert line.startswith("~")
        assert parse_graph6(line) == g

    @pytest.mark.parametrize("density", [0.1, 0.6])
    def test_round_trip_every_size_to_69(self, density):
        rng = random.Random(int(density * 100))
        for n in range(1, 70):
            g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                          if rng.random() < density])
            line = write_graph6(g)
            header = 1 if n <= 62 else 4
            assert len(line) == header + (n * (n - 1) // 2 + 5) // 6
            assert parse_graph6(line) == g

    def test_long_header_bytes_match_networkx(self):
        rng = random.Random(3)
        g = Graph(130, [(u, v) for u in range(130) for v in range(u + 1, 130)
                        if rng.random() < 0.2])
        G = nx.Graph()
        G.add_nodes_from(range(g.n))
        G.add_edges_from(g.edges())
        theirs = nx.to_graph6_bytes(G, header=False).decode().strip()
        assert write_graph6(g) == theirs
        assert parse_graph6(theirs) == g

    def test_padding_error_offset(self):
        # K3 has 3 edge bits; 'x' = 111001 also sets the last padding bit
        # of the one body byte, at offset 1.
        with pytest.raises(ParseError) as e:
            parse_graph6("Bx")
        assert e.value.offset == 1

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
        ("c header next\np edge x 1\n", 2),
        ("p edge 3 1\ne 1\n", 2),
        ("p edge 3 1\ne 1 x\n", 2),
    ])
    def test_malformed_lines_name_the_line(self, text, lineno):
        with pytest.raises(ParseError, match=f"line {lineno}"):
            parse_dimacs(text)

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
        assert graph.distances().diameter() == diam

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
        g = named_graph(GraphFamilySpec("cycle", n=5))
        assert g == cycle(5)
        with pytest.raises(PreconditionError):
            named_graph(GraphFamilySpec("nosuch"))
        with pytest.raises(PreconditionError):
            named_graph(GraphFamilySpec("complete"))  # missing n


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

    def test_give_up(self):
        with pytest.raises(GiveUpError):
            random_regular(6, 3, 0, max_attempts=0)
