"""Independent sets and the bound chain.

The greedy set is pinned to one vertex per block on every instance and
order; the exact branch-and-bound optimum is compared against full 2**v
subset enumeration on random graphs and against the earlier recursive solver
on packing graphs under random orders; all closed-form bounds are checked
both on hand-worked values and as inequalities across constructed and random
designs.  The hypothesis properties run derandomized.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramsey_forge import (
    BoundsReport,
    Design,
    IncidenceGraph,
    IndependentSet,
    OrderedDesign,
    bounds_report,
    build_gamma,
    chromatic_lower_bound,
    exact_max_independent_set,
    greedy_independent_set,
    grid_line_design,
    incidence_count,
    largest_block_set,
    projective_plane,
    random_packing,
    ravsky_lower_bound,
    ravsky_quadratic_check,
    trim_to_n,
    upper_bound_alpha,
    verify_independent,
)
from oracles import enumerate_alpha, exact_by_recursive_bnb, greedy_by_retiring_blocks
from strategies import packings, random_graphs


def _gamma(design, seed=None):
    od = (
        OrderedDesign.id_order(design)
        if seed is None
        else OrderedDesign.random_order(design, seed)
    )
    return od, build_gamma(od)


def test_greedy_sizes_on_reference_designs(fano, ag23, grid2):
    for design, expected in ((fano, 7), (ag23, 12), (grid2, 8)):
        od, g = _gamma(design)
        s = greedy_independent_set(g)
        assert s.size == expected == len(design.blocks)
        assert verify_independent(g, s)


def test_greedy_always_returns_one_vertex_per_block(fano, ag22, grid2):
    designs = [fano, ag22, grid2, trim_to_n(37)[0]]
    for seed in range(4):
        designs.append(random_packing(9, 3, 2, 4, seed=seed))
    for design in designs:
        for seed in range(4):
            od, g = _gamma(design, seed)
            s = greedy_independent_set(g)
            assert s.size == len(design.blocks)
            assert verify_independent(g, s)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    strength=st.integers(1, 4),
    block_size=st.integers(1, 6),
    extra_points=st.integers(0, 8),
    target_blocks=st.integers(0, 8),
    seed=st.integers(0, 2**32),
    order_seed=st.integers(0, 2**32),
)
def test_greedy_matches_retiring_pass_on_random_packings(
    strength, block_size, extra_points, target_blocks, seed, order_seed
):
    design = random_packing(
        block_size + extra_points, block_size, strength, target_blocks, seed
    )
    od, g = _gamma(design, order_seed)
    greedy = greedy_independent_set(g)
    assert list(greedy.vertices) == greedy_by_retiring_blocks(
        design, od.order, g.vertices
    )


def test_largest_block_set(fano, grid2):
    od, g = _gamma(fano)
    s = largest_block_set(fano, g)
    assert s.size == 3
    assert verify_independent(g, s)

    whole = Design(4, ((0, 1, 2, 3),), strength=2)
    od, g = _gamma(whole)
    assert largest_block_set(whole, g).size == 4

    grid3 = grid_line_design(3)
    od, g = _gamma(grid3)
    assert largest_block_set(grid3, g).size == 3

    # pigeonhole floor on every instance
    for design in (fano, grid2, grid3):
        od, g = _gamma(design)
        s = largest_block_set(design, g)
        assert s.size >= math.ceil(design.point_count / len(design.blocks))


def test_largest_block_set_requires_blocks(fano):
    od, g = _gamma(fano)
    with pytest.raises(ValueError):
        largest_block_set(Design(0, (), strength=2), g)


def test_exact_on_edgeless_graph():
    g = IncidenceGraph(
        vertices=tuple((i, i) for i in range(5)), adjacency=(0,) * 5, m=3
    )
    assert exact_max_independent_set(g).size == 5


def test_exact_on_planted_triangles():
    vertices = tuple((i, i) for i in range(6))
    adjacency = [0] * 6
    for clique in ((0, 1, 2), (3, 4, 5)):
        for u in clique:
            for v in clique:
                if u != v:
                    adjacency[u] |= 1 << v
    g = IncidenceGraph(vertices=vertices, adjacency=tuple(adjacency), m=3)
    assert exact_max_independent_set(g).size == 2  # one vertex per triangle


def test_exact_matches_enumeration_on_ag22(ag22):
    od, g = _gamma(ag22)
    assert g.n_vertices == 12
    exact = exact_max_independent_set(g)
    assert verify_independent(g, exact)
    assert exact.size == enumerate_alpha(g.adjacency)


def test_exact_matches_enumeration_on_random_packings():
    for seed in range(12):
        design = random_packing(5 + seed % 5, 2 + seed % 2, 2, 3, seed=seed)
        od, g = _gamma(design)
        assert g.n_vertices <= 22
        assert exact_max_independent_set(g).size == enumerate_alpha(g.adjacency)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(random_graphs(16))
def test_exact_matches_enumeration_on_random_graphs(g):
    exact = exact_max_independent_set(g)
    assert verify_independent(g, exact)
    assert exact.size == enumerate_alpha(g.adjacency)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(packings((1, 2, 3, 4), max_vertices=100, max_extra_points=14))
def test_exact_matches_recursive_solver_on_packing_graphs(od):
    g = build_gamma(od)
    exact = exact_max_independent_set(g, vertex_budget=100)
    assert verify_independent(g, exact)
    assert exact.size == len(exact_by_recursive_bnb(g.adjacency))
    block = largest_block_set(od.design, g)
    assert block.size <= exact.size <= upper_bound_alpha(od.design)


def test_exact_refuses_graphs_over_budget(ag23):
    od, g = _gamma(ag23)  # 36 vertices
    with pytest.raises(ValueError):
        exact_max_independent_set(g, vertex_budget=20)


def test_verify_independent(fano):
    od, g = _gamma(fano)
    assert verify_independent(g, IndependentSet((0,), "exact"))
    u = next(i for i in range(g.n_vertices) if g.adjacency[i])
    v = (g.adjacency[u] & -g.adjacency[u]).bit_length() - 1
    assert not verify_independent(g, IndependentSet(tuple(sorted((u, v))), "exact"))
    with pytest.raises(IndexError):
        verify_independent(g, IndependentSet((999,), "exact"))


def test_upper_bound(fano, ag22, grid2):
    assert upper_bound_alpha(fano) == 14
    assert upper_bound_alpha(ag22) == 10
    assert upper_bound_alpha(grid2) == 11 + 8


def test_chromatic_lower_bound(fano, ag23):
    assert chromatic_lower_bound(fano) == Fraction(3, 2)
    assert chromatic_lower_bound(ag23) == Fraction(36, 21) == Fraction(12, 7)
    assert chromatic_lower_bound(Design(1, ((0,),), strength=2)) == Fraction(1, 2)
    for p in (2, 3, 5):
        plane = projective_plane(p)
        assert chromatic_lower_bound(plane) == Fraction(p + 1, 2)


def test_ravsky_lower_bound_values(fano, grid2):
    assert ravsky_lower_bound(1) == pytest.approx(2 ** (1 / 3) - 2 / 3)
    assert ravsky_lower_bound(21) < upper_bound_alpha(fano)
    assert ravsky_lower_bound(16) < upper_bound_alpha(grid2)
    values = [ravsky_lower_bound(n) for n in range(1, 50)]
    assert values == sorted(values)
    with pytest.raises(ValueError):
        ravsky_lower_bound(0)


def test_ravsky_quadratic_check(fano, ag22):
    # Fano sits exactly on the boundary: 7 * (42 + 21) == 441 == 21**2
    assert 7 * (7 * 7 - 7 + 21) == 21 * 21
    assert ravsky_quadratic_check(fano)
    assert ravsky_quadratic_check(ag22)  # 4 * 42 = 168 >= 144
    assert ravsky_quadratic_check(Design(1, ((0,),), strength=2))
    with pytest.raises(ValueError):
        ravsky_quadratic_check(Design(2, ((0, 1),), strength=3))


def test_ravsky_holds_on_constructed_and_random_designs(fano, ag22, ag23, grid2):
    designs = [fano, ag22, ag23, grid2, trim_to_n(57)[0]]
    for seed in range(30):
        designs.append(
            random_packing(6 + seed % 7, 2 + seed % 3, 2, 4, seed=seed)
        )
    for design in designs:
        assert ravsky_quadratic_check(design)
        n = incidence_count(design)
        assert upper_bound_alpha(design) > ravsky_lower_bound(n)


def test_sandwich_on_exactly_solved_instances(fano, ag22, ag23, grid2):
    designs = [fano, ag22, ag23, grid2, trim_to_n(40)[0]]
    for design in designs:
        od, g = _gamma(design)
        if g.n_vertices > 64:
            continue
        alpha = exact_max_independent_set(g).size
        a, b = design.point_count, len(design.blocks)
        assert b <= alpha <= a + b
        assert alpha >= math.ceil(a / b)
        assert greedy_independent_set(g).size <= alpha


def test_half_approximation_when_blocks_dominate(fano, ag22, ag23):
    for design in (fano, ag22, ag23):
        a, b = design.point_count, len(design.blocks)
        assert a <= b
        od, g = _gamma(design)
        greedy = greedy_independent_set(g)
        assert 2 * greedy.size >= a + b


def test_bounds_report_assembly(fano):
    od, g = _gamma(fano)
    row = bounds_report(fano, g, family="projective", param="2")
    assert (row.n_vertices, row.a, row.b) == (21, 7, 7)
    assert (row.greedy, row.block, row.upper) == (7, 3, 14)
    assert row.chromatic_lb == Fraction(3, 2)
    assert row.exact == enumerate_alpha(g.adjacency)
    assert row.order_seed is None

    csv_row = row.csv_row()
    assert len(csv_row) == len(BoundsReport.CSV_FIELDS)
    assert csv_row == [
        "projective", "2", "", "21", "7", "7", "7", "3", "11", "14", "3", "2",
        "7.7508111640680974",
    ]

    doc = row.as_dict()
    assert list(doc) == list(BoundsReport.CSV_FIELDS)
    assert doc["chromatic_lb_num"] == 3 and doc["chromatic_lb_den"] == 2


def test_bounds_report_skips_exact_over_budget(fano):
    od, g = _gamma(fano)
    row = bounds_report(fano, g, family="projective", param="2", exact_budget=10)
    assert row.exact is None
    assert row.csv_row()[8] == ""
    assert row.as_dict()["exact"] is None


def test_bounds_report_rejects_inconsistent_rows():
    with pytest.raises(ValueError):
        BoundsReport(
            family="x", param="", order_seed=None, n_vertices=21, a=7, b=7,
            greedy=6, block=3, exact=None, upper=14,
            chromatic_lb=Fraction(3, 2), ravsky_lb=1.0,
        )
    with pytest.raises(ValueError):
        BoundsReport(
            family="x", param="", order_seed=None, n_vertices=21, a=7, b=7,
            greedy=7, block=3, exact=15, upper=14,
            chromatic_lb=Fraction(3, 2), ravsky_lb=1.0,
        )
