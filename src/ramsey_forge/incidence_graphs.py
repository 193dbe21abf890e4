"""Incidence-pair graphs over ordered designs.

Given a design whose points carry a strict total order, the incidence graph
has one vertex per incidence pair (x, B) and joins (x, B1) to (y, B2)
exactly when B1 != B2, the smaller of the two points belongs to the *other*
pair's block, i.e. for x < y: x is a member of B2.  Pairs sharing a point or
a block are never adjacent.  When the design is a valid strength-(m-1)
packing the graph contains no clique of size m; :func:`check_clique_free`
certifies that exhaustively and returns a witness whenever it fails.  It
searches one point fiber at a time: a point's pairs are pairwise
non-adjacent, so the other members of a clique that starts in the fiber lie
among the fiber's neighbours above it, and one search there clears the
whole fiber.  A fiber where that search finds a clique, and any run of
vertices that is not independent, is searched vertex by vertex.

Adjacency is stored as one bit row per vertex (arbitrary-precision ints),
which makes common-neighborhood intersections single AND operations.
:func:`write_graph` streams a graph to a binary file one vertex row at a
time, as DIMACS or edge-json.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import BinaryIO, Optional

from .designs import Design, InvalidPacking, incidence_count, validate_packing

EXPORT_FORMATS = ("dimacs", "edge-json")

# The one size budget for designs and graphs: the bit rows of a graph this
# size take at most vertices**2 / 8 bytes = 512 MiB.
MAX_GRAPH_VERTICES = 2**16


def _check_graph_size(vertices: int) -> None:
    if vertices > MAX_GRAPH_VERTICES:
        raise ValueError(
            f"graph would have {vertices} vertices, above the cap of "
            f"{MAX_GRAPH_VERTICES}"
        )


def _point_ids(design: Design) -> range:
    if design.point_count > MAX_GRAPH_VERTICES:
        raise ValueError(
            f"design has {design.point_count} points, above the graph cap of "
            f"{MAX_GRAPH_VERTICES}"
        )
    return range(design.point_count)


@dataclass(frozen=True)
class OrderedDesign:
    """A design plus a strict total order on its points.

    ``order[i]`` is the point of rank i (the i-th smallest).  The order is
    an explicit input because the edge set, not its proven properties,
    depends on it.  A valid packing covers every point, so the constructors
    refuse more points than the graph cap before building an order.
    """

    design: Design
    order: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "order", tuple(self.order))
        if sorted(self.order) != list(range(self.design.point_count)):
            raise ValueError("order must be a permutation of the point ids")

    @classmethod
    def id_order(cls, design: Design) -> "OrderedDesign":
        return cls(design, tuple(_point_ids(design)))

    @classmethod
    def random_order(cls, design: Design, seed: int) -> "OrderedDesign":
        order = list(_point_ids(design))
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

    Raises ValueError above ``MAX_GRAPH_VERTICES`` vertices, InvalidPacking
    when :func:`validate_packing` fails.  Vertices are listed by (point
    rank, block index), so a point's pairs form one bit range, its fiber.
    The row of (x, B1) is the fibers of B1's earlier points, OR the columns
    (pair masks) of the blocks through x above x's fiber, minus B1's column.
    """
    design = od.design
    _check_graph_size(incidence_count(design))
    report = validate_packing(design)
    if not report.valid:
        raise InvalidPacking(report)
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
    vertex-index order.  The search walks the vertex list in runs of equal
    point id, a point's fiber.  When a run is an independent set, every
    clique whose smallest vertex lies in it has all its other m - 1 members
    among the run's neighbours above the run's last index, so one search for
    an (m-1)-clique there (inside the OR of the run's rows) rules out the
    whole run.  A run with an internal edge, or whose search finds a
    clique, falls back to the per-vertex search over its own vertices:
    each v in ascending order, with the neighbours above v as candidates,
    which returns the first witness.  Both searches share one depth-first
    extension: the clique so far is extended by each candidate v in
    ascending order, and the candidates for the next vertex are those above
    v that are adjacent to v and to the whole clique (one AND of bit rows).
    A branch is cut only when fewer candidates remain than vertices are
    still needed, so the search stays exhaustive for any vertex list.
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

    points = [x for x, _ in g.vertices]
    n = len(points)
    start = 0
    while start < n:
        end = start + 1
        while end < n and points[end] == points[start]:
            end += 1
        union = 0
        for v in range(start, end):
            union |= adj[v]
        independent = not (union >> start) & ((1 << (end - start)) - 1)
        if not independent or extend(union >> end << end, m - 1):
            for v in range(start, end):
                clique[:] = [v]
                if extend(adj[v] >> (v + 1) << (v + 1), m - 1):
                    return tuple(clique)
        start = end
    return None


def write_graph(g: IncidenceGraph, fmt: str, out: BinaryIO) -> None:
    """Write the graph to the binary stream ``out``; byte-exact across runs.

    dimacs: "p edge n m" header then one "e u v" line per undirected edge,
    1-based, u < v, ascending.  edge-json: {"n": ..., "edges": [[u, v], ...]}
    with the same edge ordering, 0-based.  The header, one chunk per vertex
    row and the edge-json tail go to ``out`` in turn, so beyond the graph the
    writer holds one row's text; edge-json pairs lead with a comma, cut from
    the first pair.  A row's upper neighbours are read off its reversed
    binary string with ``str.find``, one C scan per row.  Pass a file opened
    for binary writing, or an ``io.BytesIO`` to get the bytes.
    """
    if fmt == "dimacs":
        base, cut, head, sep, tail = 1, 0, "e {0} ", "\ne {0} ", "\n"
        out.write(f"p edge {g.n_vertices} {g.edge_count}\n".encode("ascii"))
    elif fmt == "edge-json":
        base, cut, head, sep, tail = 0, 1, ",[{0},", "],[{0},", "]"
        out.write(f'{{"n":{g.n_vertices},"edges":['.encode("ascii"))
    else:
        raise ValueError(f"unsupported export format: {fmt!r}")
    for u, row in enumerate(g.adjacency):
        row >>= u + 1
        if not row:
            continue
        label = u + base
        bits = format(row, "b")[::-1]
        ends = []
        i = bits.find("1")
        while i >= 0:
            ends.append(label + 1 + i)
            i = bits.find("1", i + 1)
        chunk = (head + sep.join(map(str, ends)) + tail).format(label)
        out.write(chunk[cut:].encode())
        cut = 0
    if fmt == "edge-json":
        out.write(b"]}\n")
