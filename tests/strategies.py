"""Hypothesis strategies shared by the property tests.

Every draw is seeded through hypothesis, so the derandomized tests that use
these strategies see the same examples on every run.
"""

import random
from itertools import combinations

from hypothesis import strategies as st

from ramsey_forge import IncidenceGraph, OrderedDesign, random_packing


@st.composite
def random_graphs(draw, max_n, min_n=0):
    """Symmetric graphs on min_n..max_n vertices, from edgeless to complete."""
    n = draw(st.integers(min_n, max_n))
    density = draw(st.integers(0, 100))
    rng = random.Random(draw(st.integers(0, 2**32)))
    adjacency = [0] * n
    for u, v in combinations(range(n), 2):
        if rng.randrange(100) < density:
            adjacency[u] |= 1 << v
            adjacency[v] |= 1 << u
    return IncidenceGraph(
        vertices=tuple((i, i) for i in range(n)), adjacency=tuple(adjacency), m=3
    )


@st.composite
def fibered_graphs(draw, max_n):
    """Random graphs on 0..max_n vertices whose point ids repeat in runs.

    Vertex i is labelled (point id, i), and consecutive vertices share a
    point id in runs of one to four.  Each run of two or more is either
    stripped of its internal edges, as a point's fiber in a built graph is,
    or given at least one internal edge, so the clique search meets both
    independent runs and runs it must search vertex by vertex.
    """
    n = draw(st.integers(0, max_n))
    density = draw(st.integers(0, 100))
    rng = random.Random(draw(st.integers(0, 2**32)))
    adjacency = [0] * n
    for u, v in combinations(range(n), 2):
        if rng.randrange(100) < density:
            adjacency[u] |= 1 << v
            adjacency[v] |= 1 << u
    vertices = []
    while len(vertices) < n:
        start = len(vertices)
        run = range(start, min(n, start + rng.randint(1, 4)))
        vertices += [(start, v) for v in run]
        if len(run) < 2:
            continue
        if rng.randrange(2):
            inside = sum(1 << v for v in run)
            for v in run:
                adjacency[v] &= ~inside
        else:
            u, v = rng.sample(run, 2)
            adjacency[u] |= 1 << v
            adjacency[v] |= 1 << u
    return IncidenceGraph(
        vertices=tuple(vertices), adjacency=tuple(adjacency), m=3
    )


@st.composite
def graphs_with_triangles(draw, max_n):
    """Random graphs on 3..max_n vertices with triangles planted on random
    triples.  The first sits on vertices 0, 1 and 2, so the greedy clique
    cover grown from the lowest vertex starts with a clique of three or
    more and the exact solver takes its colour-class search."""
    adjacency = list(draw(random_graphs(max_n, min_n=3)).adjacency)
    n = len(adjacency)
    rng = random.Random(draw(st.integers(0, 2**32)))
    triples = [(0, 1, 2)]
    triples += [rng.sample(range(n), 3) for _ in range(draw(st.integers(0, n)))]
    for triple in triples:
        for u, v in combinations(triple, 2):
            adjacency[u] |= 1 << v
            adjacency[v] |= 1 << u
    return IncidenceGraph(
        vertices=tuple((i, i) for i in range(n)), adjacency=tuple(adjacency), m=3
    )


@st.composite
def packings(draw, strengths, max_vertices, max_extra_points=6):
    """A seeded random packing with as many blocks as ``max_vertices``
    incidences allow, under a random point order."""
    strength = draw(st.sampled_from(strengths))
    block_size = draw(st.integers(1, 6))
    extra_points = draw(st.integers(0, max_extra_points))
    # accepted blocks add block_size incidences each; the singleton blocks
    # for uncovered points add at most extra_points more
    design = random_packing(
        block_size + extra_points,
        block_size,
        strength,
        (max_vertices - extra_points) // block_size,
        seed=draw(st.integers(0, 2**32)),
    )
    return OrderedDesign.random_order(design, draw(st.integers(0, 2**32)))
