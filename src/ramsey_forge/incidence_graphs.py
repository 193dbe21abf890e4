"""Incidence-pair graphs over ordered designs.

Given a design whose points carry a strict total order, the incidence graph
has one vertex per incidence pair (x, B) and joins (x, B1) to (y, B2)
exactly when B1 != B2, the smaller of the two points belongs to the *other*
pair's block, i.e. for x < y: x is a member of B2.  Pairs sharing a point or
a block are never adjacent.  When the design is a valid strength-(m-1)
packing the graph contains no clique of size m; :func:`check_clique_free`
certifies that exhaustively and returns a witness whenever it fails.

Adjacency is stored as one bit row per vertex (arbitrary-precision ints),
which makes common-neighborhood intersections single AND operations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .designs import Design, incidence_count, validate_packing

EXPORT_FORMATS = ("dimacs", "edge-json")

# build_gamma refuses designs with more incidence pairs than this: the bit
# rows of a graph this size take at most vertices**2 / 8 bytes = 512 MiB.
MAX_GRAPH_VERTICES = 2**16


@dataclass(frozen=True)
class OrderedDesign:
    """A design plus a strict total order on its points.

    ``order[i]`` is the point of rank i (the i-th smallest).  The order is
    an explicit input because the edge set, not its proven properties,
    depends on it.
    """

    design: Design
    order: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "order", tuple(self.order))
        if sorted(self.order) != list(range(self.design.point_count)):
            raise ValueError("order must be a permutation of the point ids")

    @classmethod
    def id_order(cls, design: Design) -> "OrderedDesign":
        return cls(design, tuple(range(design.point_count)))

    @classmethod
    def random_order(cls, design: Design, seed: int) -> "OrderedDesign":
        order = list(range(design.point_count))
        random.Random(seed).shuffle(order)
        return cls(design, tuple(order))


@dataclass(frozen=True)
class IncidenceGraph:
    """Undirected graph on incidence pairs.

    ``vertices[i]`` is the (point id, block index) pair of vertex i.
    ``adjacency[i]`` is a bit row over vertex indices;  ``m`` is the clique
    size the source design forbids (its strength + 1).

    Layout contract: the vertex list is the graph's only index.  A graph
    from :func:`build_gamma` lists its pairs by (point rank, block index),
    so each point's pairs are consecutive and the first pair of a block in
    vertex order belongs to that block's order-minimal point, which the
    greedy independent set relies on.
    """

    vertices: tuple[tuple[int, int], ...]
    adjacency: tuple[int, ...]
    m: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", tuple(tuple(v) for v in self.vertices))
        object.__setattr__(self, "adjacency", tuple(self.adjacency))
        n = len(self.vertices)
        if len(self.adjacency) != n:
            raise ValueError("adjacency must have one bit row per vertex")
        for i, row in enumerate(self.adjacency):
            if row < 0 or row >> n:
                raise ValueError(f"adjacency row {i} has bits outside 0..{n - 1}")
            if (row >> i) & 1:
                raise ValueError(f"vertex {i} is adjacent to itself")
            rest = row
            while rest:
                lsb = rest & -rest
                j = lsb.bit_length() - 1
                rest ^= lsb
                if not (self.adjacency[j] >> i) & 1:
                    raise ValueError(f"adjacency is not symmetric at ({i}, {j})")
        if len(set(self.vertices)) != n:
            raise ValueError("duplicate incidence pair among vertices")

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adjacency) // 2


def build_gamma(od: OrderedDesign) -> IncidenceGraph:
    """Build the incidence graph of a validated ordered design.

    Raises ValueError above ``MAX_GRAPH_VERTICES`` vertices or when the
    design fails :func:`validate_packing`.  Vertices are listed by (point
    rank, block index), so a point's pairs form one bit range, its fiber.
    The row of (x, B1) is the fibers of B1's earlier points, OR the columns
    (pair masks) of the blocks through x above x's fiber, minus B1's column.
    """
    design = od.design
    n = incidence_count(design)
    if n > MAX_GRAPH_VERTICES:
        raise ValueError(
            f"graph would have {n} vertices, above the cap of {MAX_GRAPH_VERTICES}"
        )
    report = validate_packing(design)
    if not report.valid:
        raise ValueError(
            f"design violates the packing conditions "
            f"({report.total_violations} violation(s); first: {report.violations[0]})"
        )
    blocks_of: list[list[int]] = [[] for _ in range(design.point_count)]
    for bi, block in enumerate(design.blocks):
        for x in block:
            blocks_of[x].append(bi)

    vertices: list[tuple[int, int]] = []
    column = [0] * len(design.blocks)
    for x in od.order:
        for bi in blocks_of[x]:
            column[bi] |= 1 << len(vertices)
            vertices.append((x, bi))

    adjacency: list[int] = []
    earlier = [0] * len(design.blocks)
    for x in od.order:
        x_blocks = blocks_of[x]
        fiber = ((1 << len(x_blocks)) - 1) << len(adjacency)
        later = 0
        for bi in x_blocks:
            later |= column[bi]
        later &= -(1 << fiber.bit_length())
        for bi in x_blocks:
            adjacency.append((earlier[bi] | later) & ~column[bi])
            earlier[bi] |= fiber

    return IncidenceGraph(
        vertices=tuple(vertices),
        adjacency=tuple(adjacency),
        m=design.strength + 1,
    )


def check_clique_free(g: IncidenceGraph, m: int) -> Optional[tuple[int, ...]]:
    """Exhaustively search for an m-clique; None certifies there is none.

    A found clique is returned as the lexicographically first witness in
    vertex-index order.  One depth-first search serves every m: the clique
    so far is extended by each candidate v in ascending order, and the
    candidates for the next vertex are those above v that are adjacent to v
    and to the whole clique (one AND of bit rows).  A branch is cut only
    when fewer candidates remain than vertices are still needed, so the
    search stays exhaustive.
    """
    if m < 1:
        raise ValueError("clique size must be >= 1")
    adj = g.adjacency
    clique: list[int] = []

    def extend(rest: int, need: int) -> bool:
        if not need:
            return True
        while rest:
            lsb = rest & -rest
            v = lsb.bit_length() - 1
            rest ^= lsb
            nxt = rest & adj[v]
            if nxt.bit_count() >= need - 1:
                clique.append(v)
                if extend(nxt, need - 1):
                    return True
                clique.pop()
        return False

    return tuple(clique) if extend((1 << g.n_vertices) - 1, m) else None


def export_graph(g: IncidenceGraph, fmt: str) -> bytes:
    """Serialize the graph; byte-exact across runs for the same graph.

    dimacs: "p edge n m" header then one "e u v" line per undirected edge,
    1-based, u < v, ascending.  edge-json: {"n": ..., "edges": [[u, v], ...]}
    with the same edge ordering, 0-based.  Built as one chunk per vertex row,
    joined once; edge-json pairs lead with a comma, cut from the first pair.
    """
    if fmt == "dimacs":
        base, head, sep, tail = 1, "e {0} ", "\ne {0} ", "\n"
        chunks = [f"p edge {g.n_vertices} {g.edge_count}\n".encode("ascii")]
    elif fmt == "edge-json":
        base, head, sep, tail = 0, ",[{0},", "],[{0},", "]"
        chunks = [f'{{"n":{g.n_vertices},"edges":['.encode("ascii")]
    else:
        raise ValueError(f"unsupported export format: {fmt!r}")
    for u, row in enumerate(g.adjacency):
        label, row, ends = u + base, row >> (u + 1), []
        while row:
            lsb = row & -row
            ends.append(label + lsb.bit_length())
            row ^= lsb
        if ends:
            chunks.append((head + sep.join(map(str, ends)) + tail).format(label).encode())
    if fmt == "edge-json":
        chunks[1:2] = [chunk[1:] for chunk in chunks[1:2]]
        chunks.append(b"]}\n")
    return b"".join(chunks)
