"""Incidence graph construction, clique certification, and exports.

The built adjacency is compared against a direct evaluation of the edge
predicate over all vertex pairs for every design small enough, across both
the id order and random point orders; the clique checker is compared against
full m-subset enumeration, witness included; exports are pinned
byte-for-byte on hand-worked graphs and compared byte-for-byte with an
edge-list exporter on random and packing graphs.  The hypothesis properties
run derandomized, so the suite draws the same examples on every run.
"""

import random
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramsey_forge import (
    EXPORT_FORMATS,
    Design,
    IncidenceGraph,
    OrderedDesign,
    affine_plane,
    build_gamma,
    check_clique_free,
    export_graph,
    greedy_independent_set,
    grid_line_design,
    incidence_count,
    projective_plane,
    random_packing,
    trim_to_n,
)
from ramsey_forge import incidence_graphs
from ramsey_forge.incidence_graphs import MAX_GRAPH_VERTICES
from oracles import (
    adjacency_by_block_pairs,
    brute_force_adjacency,
    export_by_edge_list,
    first_clique_brute,
    greedy_by_retiring_blocks,
    has_clique_brute,
)
from strategies import packings, random_graphs

# Keeps the m-subset enumeration of first_clique_brute at desk scale.
MAX_ORACLE_VERTICES = 24


def _planted_clique_graph(size):
    """A complete graph on fabricated incidence pairs (test hook)."""
    vertices = tuple((i, i) for i in range(size))
    full = (1 << size) - 1
    adjacency = tuple(full ^ (1 << i) for i in range(size))
    return IncidenceGraph(vertices=vertices, adjacency=adjacency, m=size)


def test_vertex_counts(fano, ag22):
    g = build_gamma(OrderedDesign.id_order(fano))
    assert g.n_vertices == incidence_count(fano) == 21
    g = build_gamma(OrderedDesign.id_order(ag22))
    assert g.n_vertices == 12
    single = Design(2, ((0, 1),), strength=2)
    g = build_gamma(OrderedDesign.id_order(single))
    assert g.n_vertices == 2
    assert g.edge_count == 0
    assert g.m == 3


def test_build_gamma_rejects_invalid_designs():
    bad = Design(4, ((0, 1, 2), (0, 1, 3)), strength=2)
    with pytest.raises(ValueError, match="packing"):
        build_gamma(OrderedDesign.id_order(bad))


def test_build_gamma_refuses_graphs_over_the_vertex_cap(fano, monkeypatch):
    singletons = Design(
        MAX_GRAPH_VERTICES + 1,
        tuple((x,) for x in range(MAX_GRAPH_VERTICES + 1)),
        strength=1,
    )
    with pytest.raises(
        ValueError, match="graph would have 65537 vertices, above the cap of 65536"
    ):
        build_gamma(OrderedDesign.id_order(singletons))
    # the count is the incidence count, checked before any row is built
    monkeypatch.setattr(incidence_graphs, "MAX_GRAPH_VERTICES", 21)
    assert build_gamma(OrderedDesign.id_order(fano)).n_vertices == 21
    monkeypatch.setattr(incidence_graphs, "MAX_GRAPH_VERTICES", 20)
    with pytest.raises(ValueError, match="21 vertices, above the cap of 20"):
        build_gamma(OrderedDesign.id_order(fano))


def test_ordered_design_requires_a_permutation(fano):
    with pytest.raises(ValueError):
        OrderedDesign(fano, tuple(range(6)))
    with pytest.raises(ValueError):
        OrderedDesign(fano, (0, 0, 1, 2, 3, 4, 5))


def test_two_block_graph_pinned_by_hand():
    # blocks {0,1} and {0,2}, id order; vertices in rank-then-block order:
    #   0:(0,B0)  1:(0,B1)  2:(1,B0)  3:(2,B1)
    # edges: (0,B0)-(2,B1) because 0 < 2 and 0 in B1;
    #        (0,B1)-(1,B0) because 0 < 1 and 0 in B0
    design = Design(3, ((0, 1), (0, 2)), strength=2)
    g = build_gamma(OrderedDesign.id_order(design))
    assert g.vertices == ((0, 0), (0, 1), (1, 0), (2, 1))
    assert g.adjacency == (0b1000, 0b0100, 0b0010, 0b0001)
    assert export_graph(g, "dimacs") == b"p edge 4 2\ne 1 4\ne 2 3\n"
    assert export_graph(g, "edge-json") == b'{"n":4,"edges":[[0,3],[1,2]]}\n'


def test_adjacency_matches_brute_force_edge_rule(fano, ag22, ag23, grid2):
    designs = [
        fano,
        ag22,
        ag23,
        grid2,
        Design(2, ((0, 1),), strength=2),
        Design(3, ((0, 1), (0, 2)), strength=2),
    ]
    for seed in range(4):
        designs.append(random_packing(8, 3, 2, 4, seed=seed))
    designs.append(random_packing(10, 4, 3, 4, seed=11))
    for design in designs:
        assert incidence_count(design) <= 40
        orders = [OrderedDesign.id_order(design)] + [
            OrderedDesign.random_order(design, seed) for seed in range(3)
        ]
        for od in orders:
            g = build_gamma(od)
            expected = brute_force_adjacency(design, od.order, g.vertices)
            assert list(g.adjacency) == expected


@settings(max_examples=150, derandomize=True, deadline=None)
@given(packings((1, 2, 3, 4), MAX_ORACLE_VERTICES))
def test_adjacency_matches_brute_force_on_random_packings(od):
    g = build_gamma(od)
    assert list(g.adjacency) == brute_force_adjacency(od.design, od.order, g.vertices)


def test_build_gamma_matches_block_pair_builder_at_scale():
    designs = [
        projective_plane(7),
        projective_plane(11),
        affine_plane(7),
        grid_line_design(3),
        trim_to_n(777)[0],
        random_packing(40, 6, 3, 80, seed=1),
        random_packing(30, 6, 4, 120, seed=2),
    ]
    for design in designs:
        orders = [OrderedDesign.id_order(design)] + [
            OrderedDesign.random_order(design, seed) for seed in (1, 2)
        ]
        for od in orders:
            g = build_gamma(od)
            assert (g.vertices, g.adjacency) == adjacency_by_block_pairs(
                design, od.order
            )
            assert list(greedy_independent_set(g).vertices) == (
                greedy_by_retiring_blocks(design, od.order, g.vertices)
            )


def test_point_fibers_are_independent(fano):
    for seed in range(3):
        od = OrderedDesign.random_order(fano, seed)
        g = build_gamma(od)
        by_point = {}
        for idx, (x, _b) in enumerate(g.vertices):
            by_point.setdefault(x, []).append(idx)
        for members in by_point.values():
            for i in members:
                for j in members:
                    if i != j:
                        assert not (g.adjacency[i] >> j) & 1


def test_constructed_graphs_are_triangle_free(fano, ag23):
    for design in (fano, ag23):
        g = build_gamma(OrderedDesign.id_order(design))
        assert check_clique_free(g, 3) is None
        assert not has_clique_brute(g.adjacency, 3)


def test_clique_freeness_is_order_invariant(fano, ag22):
    """The forbidden-clique guarantee may not depend on the point order."""
    cases = [
        (fano, 3),
        (ag22, 3),
        (random_packing(10, 4, 3, 4, seed=2), 4),
    ]
    for design, m in cases:
        for seed in range(20):
            g = build_gamma(OrderedDesign.random_order(design, seed))
            assert check_clique_free(g, m) is None


def test_planted_triangle_is_found():
    g = _planted_clique_graph(3)
    witness = check_clique_free(g, 3)
    assert witness == (0, 1, 2)
    for u in witness:
        for v in witness:
            if u != v:
                assert (g.adjacency[u] >> v) & 1


@settings(max_examples=200, derandomize=True, deadline=None)
@given(random_graphs(13))
def test_clique_search_matches_enumeration_on_random_graphs(g):
    for m in range(1, 7):
        assert check_clique_free(g, m) == first_clique_brute(g.adjacency, m)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(packings((3, 4), MAX_ORACLE_VERTICES))
def test_packing_graphs_are_clique_free_under_random_orders(od):
    g = build_gamma(od)
    assert g.n_vertices <= MAX_ORACLE_VERTICES
    assert check_clique_free(g, g.m) is None
    assert first_clique_brute(g.adjacency, g.m) is None
    # one size down, cliques may exist and the witness must be the first
    m = g.m - 1
    assert check_clique_free(g, m) == first_clique_brute(g.adjacency, m)


def test_witness_is_lexicographically_first():
    # two disjoint triangles: {0,1,2} and {3,4,5}
    vertices = tuple((i, i) for i in range(6))
    adjacency = [0] * 6
    for clique in ((0, 1, 2), (3, 4, 5)):
        for u in clique:
            for v in clique:
                if u != v:
                    adjacency[u] |= 1 << v
    g = IncidenceGraph(vertices=vertices, adjacency=tuple(adjacency), m=3)
    assert check_clique_free(g, 3) == (0, 1, 2)


def test_k4_detection_uses_the_recursive_path():
    g4 = _planted_clique_graph(4)
    assert check_clique_free(g4, 4) == (0, 1, 2, 3)
    assert check_clique_free(g4, 5) is None
    # strength-3 packing graphs are K4-free but may hold triangles
    design = random_packing(10, 4, 3, 4, seed=5)
    g = build_gamma(OrderedDesign.id_order(design))
    assert g.m == 4
    assert check_clique_free(g, 4) is None
    assert not has_clique_brute(g.adjacency, 4)


def test_export_of_edgeless_graph():
    design = Design(2, ((0, 1),), strength=2)
    g = build_gamma(OrderedDesign.id_order(design))
    assert export_graph(g, "dimacs") == b"p edge 2 0\n"
    assert export_graph(g, "edge-json") == b'{"n":2,"edges":[]}\n'


@st.composite
def _graphs_with_isolated_vertices(draw):
    """Symmetric graphs on 0-40 vertices, a random share of them isolated."""
    n = draw(st.integers(0, 40))
    density = draw(st.integers(0, 100))
    rng = random.Random(draw(st.integers(0, 2**32)))
    isolated = set(rng.sample(range(n), draw(st.integers(0, n))))
    adjacency = [0] * n
    for u, v in combinations(range(n), 2):
        if u not in isolated and v not in isolated and rng.randrange(100) < density:
            adjacency[u] |= 1 << v
            adjacency[v] |= 1 << u
    return IncidenceGraph(
        vertices=tuple((i, i) for i in range(n)), adjacency=tuple(adjacency), m=3
    )


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_graphs_with_isolated_vertices())
def test_export_matches_edge_list_reference_on_random_graphs(g):
    for fmt in EXPORT_FORMATS:
        assert export_graph(g, fmt) == export_by_edge_list(g.adjacency, fmt)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(packings((1, 2, 3, 4), MAX_ORACLE_VERTICES))
def test_export_matches_edge_list_reference_on_packing_graphs(od):
    g = build_gamma(od)
    for fmt in EXPORT_FORMATS:
        assert export_graph(g, fmt) == export_by_edge_list(g.adjacency, fmt)


def test_export_peak_memory_stays_near_the_output_size():
    # the row chunks plus the joined output make about twice the output;
    # formatting a full edge list first peaks at 17-20 times the output
    g = build_gamma(OrderedDesign.random_order(projective_plane(11), 3))
    for fmt in EXPORT_FORMATS:
        tracemalloc.start()
        try:
            size = len(export_graph(g, fmt))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * size, (fmt, peak, size)


def test_export_is_byte_stable(fano):
    od = OrderedDesign.id_order(fano)
    first = export_graph(build_gamma(od), "dimacs")
    second = export_graph(build_gamma(od), "dimacs")
    assert first == second
    header = first.splitlines()[0].split()
    assert header == [b"p", b"edge", b"21", b"42"]
    assert len(first.splitlines()) == 1 + 42


def test_export_rejects_unknown_format(fano):
    g = build_gamma(OrderedDesign.id_order(fano))
    with pytest.raises(ValueError):
        export_graph(g, "graphml")


def test_incidence_graph_rejects_broken_adjacency():
    with pytest.raises(ValueError):  # asymmetric
        IncidenceGraph(vertices=((0, 0), (1, 1)), adjacency=(0b10, 0b00), m=3)
    with pytest.raises(ValueError):  # self-loop
        IncidenceGraph(vertices=((0, 0),), adjacency=(0b1,), m=3)
    with pytest.raises(ValueError):  # stray bit
        IncidenceGraph(vertices=((0, 0),), adjacency=(0b10,), m=3)
    with pytest.raises(ValueError):  # duplicate vertex
        IncidenceGraph(vertices=((0, 0), (0, 0)), adjacency=(0, 0), m=3)


def test_affine_graph_vertex_count_formula():
    for p in (2, 3):
        plane = affine_plane(p)
        g = build_gamma(OrderedDesign.id_order(plane))
        assert g.n_vertices == p**3 + p**2


def test_empty_design_yields_empty_graph():
    g = build_gamma(OrderedDesign.id_order(Design(0, (), strength=2)))
    assert g.n_vertices == 0
    assert check_clique_free(g, 3) is None
    assert export_graph(g, "dimacs") == b"p edge 0 0\n"
