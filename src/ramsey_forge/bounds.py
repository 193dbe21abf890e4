"""Independent sets and bounds for incidence-pair graphs.

Three constructive sets: the greedy pass that takes, for each block, the
incidence pair of its order-minimal point (always exactly one vertex per
block), the set of all pairs of a largest block, and an exact optimum from
branch-and-bound for desk-scale graphs.  Alongside them, the closed-form
bounds: points + blocks as an independence cap, the chromatic ratio
incidences / (points + blocks), and the Ravsky incidence inequalities for
rectangle-free strength-2 designs.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from heapq import heappop, heappush
from typing import Iterator, Optional

from .designs import Design, incidence_count
from .incidence_graphs import IncidenceGraph

DEFAULT_EXACT_BUDGET = 64


@dataclass(frozen=True)
class IndependentSet:
    """A set of pairwise non-adjacent vertices with its provenance tag."""

    vertices: tuple[int, ...]
    source: str  # greedy | block | exact

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", tuple(self.vertices))
        if list(self.vertices) != sorted(set(self.vertices)):
            raise ValueError("vertices must be strictly ascending")
        if self.source not in ("greedy", "block", "exact"):
            raise ValueError(f"unknown source tag {self.source!r}")

    @property
    def size(self) -> int:
        return len(self.vertices)


def verify_independent(g: IncidenceGraph, s: IndependentSet) -> bool:
    """True iff no two members of ``s`` are adjacent in ``g``."""
    mask = 0
    for v in s.vertices:
        if not 0 <= v < g.n_vertices:
            raise IndexError(f"vertex index {v} out of range")
        mask |= 1 << v
    return all((g.adjacency[v] & mask) == 0 for v in s.vertices)


def greedy_independent_set(g: IncidenceGraph) -> IndependentSet:
    """One vertex per block: the incidence pair of its order-minimal point.

    The vertices are listed by point rank, so one linear pass takes each
    block's first pair in vertex order.  Two chosen pairs either share
    their point or the lower-ranked of the two minima lies outside the
    other block (else it would be that block's minimum), so the set is
    independent for any point order and has exactly one vertex per
    block.
    """
    first: dict[int, int] = {}
    for v, (_x, bi) in enumerate(g.vertices):
        first.setdefault(bi, v)
    return IndependentSet(tuple(first.values()), "greedy")


def largest_block_set(design: Design, g: IncidenceGraph) -> IndependentSet:
    """All incidence pairs of a maximum-cardinality block.

    Vertices sharing a block are never adjacent, so this is independent by
    construction.  By pigeonhole its size is at least ceil(points / blocks).
    """
    if not design.blocks:
        raise ValueError("design has no blocks")
    best = max(range(len(design.blocks)), key=lambda i: len(design.blocks[i]))
    return IndependentSet(
        tuple(v for v, (_x, bi) in enumerate(g.vertices) if bi == best), "block"
    )


def _members(mask: int) -> Iterator[int]:
    """The indices of the set bits of ``mask``, ascending."""
    while mask:
        lsb = mask & -mask
        yield lsb.bit_length() - 1
        mask ^= lsb


def _min_degree_set(adjacency: tuple[int, ...], alive: int) -> int:
    """Mask of an independent set that repeatedly takes a least-degree
    residual vertex (ties toward the lowest index) and deletes its closed
    neighbourhood.  Degrees are kept up to date edge by edge and the next
    vertex comes off a heap whose stale entries are skipped, so the pass
    costs O((vertices + edges) log vertices)."""
    deg = {v: (adjacency[v] & alive).bit_count() for v in _members(alive)}
    heap = sorted((d, v) for v, d in deg.items())
    chosen = 0
    while heap:
        d, v = heappop(heap)
        if deg.get(v) != d:
            continue
        chosen |= 1 << v
        gone = (adjacency[v] & alive) | (1 << v)
        alive ^= gone
        for u in _members(gone):
            del deg[u]
            for w in _members(adjacency[u] & alive):
                deg[w] -= 1
                heappush(heap, (deg[w], w))
    return chosen


def _clique_cover(adjacency: tuple[int, ...], alive: int, floor: int):
    """Greedy clique cover of ``alive`` that grows every clique from the
    lowest remaining vertex.  Returns the number of cliques and the
    ``(vertex, clique index)`` pairs of the cliques numbered above
    ``floor`` (from 1), in cover order."""
    tail = []
    k = 0
    rem = alive
    while rem:
        k += 1
        cand = rem
        while cand:
            lsb = cand & -cand
            v = lsb.bit_length() - 1
            rem ^= lsb
            if k > floor:
                tail.append((v, k))
            cand = (cand ^ lsb) & adjacency[v]
    return k, tail


def _max_degree_search(adj: tuple[int, ...], alive: int, best_mask: int) -> int:
    """Binary branch-and-bound; returns the best mask found.

    Each node makes one pass over the residual graph that builds the
    greedy clique cover and reads every vertex's residual degree.  The
    node is pruned when the cover cannot beat the incumbent, and takes the
    whole residual set once it has no edges; otherwise it branches on a
    maximum-degree vertex, include or exclude, exclude searched first.
    """
    best_size = best_mask.bit_count()
    stack = [(alive, 0, 0)]
    while stack:
        alive, chosen, size = stack.pop()
        cover = 0
        branch, branch_deg = -1, 0
        rem = alive
        while rem:
            cand = rem
            while cand:
                lsb = cand & -cand
                v = lsb.bit_length() - 1
                rem ^= lsb
                row = adj[v]
                deg = (row & alive).bit_count()
                if deg > branch_deg:
                    branch, branch_deg = v, deg
                cand = (cand ^ lsb) & row
            cover += 1
        if size + cover <= best_size:
            continue
        if branch_deg == 0:
            best_size, best_mask = size + cover, chosen | alive
            continue
        bit = 1 << branch
        stack.append((alive & ~(adj[branch] | bit), chosen | bit, size + 1))
        stack.append((alive & ~bit, chosen, size))
    return best_mask


def _colour_class_search(
    adj: tuple[int, ...], alive: int, tail: list, best_mask: int
) -> int:
    """Colour-class branch-and-bound over the clique cover ``tail`` of
    ``alive``; returns the best mask found.

    A frame ``[P, chosen, size, tail]`` tries one tail vertex per step,
    last clique first, and each tried vertex leaves P.  So when v of
    clique k comes up, P lies in cliques 1..k and no independent set of P
    has more than k vertices: the frame is dropped once ``size + k``
    cannot beat the incumbent.  Otherwise ``P & ~N[v]`` becomes a child,
    taken whole if it has no edges, else given a tail of the cliques of
    its own cover numbered above ``best - size``.
    """
    best_size = best_mask.bit_count()
    stack = [[alive, 0, 0, tail]]
    while stack:
        frame = stack[-1]
        p, chosen, size, tail = frame
        if not tail:
            stack.pop()
            continue
        v, k = tail.pop()
        if size + k <= best_size:
            stack.pop()
            continue
        bit = 1 << v
        p ^= bit
        frame[0] = p
        child = p & ~adj[v]
        chosen |= bit
        size += 1
        cover, child_tail = _clique_cover(adj, child, best_size - size)
        if cover == child.bit_count():  # no edges left: take them all
            if size + cover > best_size:
                best_size, best_mask = size + cover, chosen | child
        elif child_tail:
            stack.append([child, chosen, size, child_tail])
    return best_mask


def exact_max_independent_set(
    g: IncidenceGraph, vertex_budget: int = DEFAULT_EXACT_BUDGET
) -> IndependentSet:
    """Exact maximum independent set by branch-and-bound.

    The incumbent starts as the min-degree greedy set.  The search is
    chosen once, from the root's greedy clique cover: a clique of three or
    more vertices means the graph has triangles, and the colour-class
    search runs; otherwise (every triangle-free graph) the max-degree
    search does.  On triangle-free graphs colour-class branching takes an
    order of magnitude more nodes, hence the rule.  Both searches keep
    their nodes on an explicit stack, so the depth is not bounded by the
    recursion limit.  Fully deterministic, including the witness.  Graphs
    larger than ``vertex_budget`` are refused.
    """
    n = g.n_vertices
    if n > vertex_budget:
        raise ValueError(
            f"graph has {n} vertices, above the exact budget {vertex_budget}"
        )
    adj = g.adjacency
    alive = (1 << n) - 1
    best_mask = _min_degree_set(adj, alive)
    _, tail = _clique_cover(adj, alive, 0)
    # three pairs in a row with one clique index: a triangle
    if any(tail[i][1] == tail[i + 2][1] for i in range(len(tail) - 2)):
        best_mask = _colour_class_search(adj, alive, tail, best_mask)
    else:
        best_mask = _max_degree_search(adj, alive, best_mask)
    return IndependentSet(tuple(_members(best_mask)), "exact")


def upper_bound_alpha(design: Design) -> int:
    """Independence cap of the incidence graph: points + blocks."""
    return design.point_count + len(design.blocks)


def chromatic_lower_bound(design: Design) -> Fraction:
    """Exact rational chromatic bound: incidences / (points + blocks)."""
    return Fraction(incidence_count(design), upper_bound_alpha(design))


def ravsky_lower_bound(n: int) -> float:
    """Floor on points + blocks of any rectangle-free strength-2 design
    with ``n`` incidence pairs: cbrt(2 n**2) - (2/3) cbrt(n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return (2.0 * n * n) ** (1.0 / 3.0) - (2.0 / 3.0) * n ** (1.0 / 3.0)


def ravsky_quadratic_check(design: Design) -> bool:
    """Exact-integer form of the incidence inequality for strength-2 designs.

    With a points, b blocks and n incidences, checks
    a * (b**2 - b + n) >= n**2, which holds for every valid strength-2
    design because its incidence matrix is rectangle-free.
    """
    if design.strength != 2:
        raise ValueError("the incidence inequality applies to strength-2 designs")
    a = design.point_count
    b = len(design.blocks)
    n = incidence_count(design)
    return a * (b * b - b + n) >= n * n


def any_n_alpha_cap(n: int) -> float:
    """Crude cap, 48 * cbrt(2) * n**(2/3), on points + blocks of the
    trimmed any-size family with ``n`` incidences."""
    return 48.0 * 2.0 ** (1.0 / 3.0) * float(n) ** (2.0 / 3.0)


@dataclass(frozen=True)
class BoundsReport:
    """All bounds for one graph, plus the provenance columns reports carry.

    ``exact`` is None when the graph exceeded the exact-solver budget; it is
    never estimated.  Sandwich invariants are enforced at construction:
    greedy equals the block count, and block <= exact <= upper with
    greedy <= exact whenever exact is present.
    """

    family: str
    param: str
    order_seed: Optional[int]
    n_vertices: int
    a: int
    b: int
    greedy: int
    block: int
    exact: Optional[int]
    upper: int
    chromatic_lb: Fraction
    ravsky_lb: float

    def __post_init__(self) -> None:
        if self.greedy != self.b:
            raise ValueError("greedy set size must equal the block count")
        if not self.block <= self.upper:
            raise ValueError("block set size exceeds the independence cap")
        if self.exact is not None:
            if not self.block <= self.exact <= self.upper:
                raise ValueError("exact alpha outside [block, upper]")
            if self.greedy > self.exact:
                raise ValueError("greedy set larger than exact alpha")

    def as_dict(self) -> dict:
        doc: dict = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "chromatic_lb":
                doc["chromatic_lb_num"] = value.numerator
                doc["chromatic_lb_den"] = value.denominator
            else:
                doc[f.name] = value
        return doc

    def csv_row(self) -> list[str]:
        return ["" if v is None else str(v) for v in self.as_dict().values()]


def bounds_report(
    design: Design,
    g: IncidenceGraph,
    *,
    family: str,
    param: str,
    order_seed: Optional[int] = None,
    exact_budget: int = DEFAULT_EXACT_BUDGET,
) -> BoundsReport:
    """Assemble every bound for a design and its graph into a report row,
    checking each reported independent set against ``g`` (AssertionError)."""
    greedy = greedy_independent_set(g)
    block = largest_block_set(design, g)
    exact: Optional[IndependentSet] = None
    if g.n_vertices <= exact_budget:
        exact = exact_max_independent_set(g, exact_budget)
    for s in (greedy, block, exact):
        if s is not None and not verify_independent(g, s):
            raise AssertionError(f"{s.source} set failed its independence check")
    return BoundsReport(
        family=family,
        param=param,
        order_seed=order_seed,
        n_vertices=g.n_vertices,
        a=design.point_count,
        b=len(design.blocks),
        greedy=greedy.size,
        block=block.size,
        exact=None if exact is None else exact.size,
        upper=upper_bound_alpha(design),
        chromatic_lb=chromatic_lower_bound(design),
        ravsky_lb=ravsky_lower_bound(g.n_vertices),
    )
