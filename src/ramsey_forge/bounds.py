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

# Coefficient of the crude n**(2/3) cap on points + blocks for the trimmed
# any-size family: 48 * cbrt(2).
ANY_N_ALPHA_COEFFICIENT = 48.0 * 2.0 ** (1.0 / 3.0)


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
    independent for any point order and has exactly ``block_count``
    vertices.
    """
    first: dict[int, int] = {}
    for v, (_x, bi) in enumerate(g.vertices):
        first.setdefault(bi, v)
    return IndependentSet(tuple(first.values()), "greedy")


def largest_block_set(design: Design, g: IncidenceGraph) -> IndependentSet:
    """All incidence pairs of a maximum-cardinality block.

    Vertices sharing a block are never adjacent, so this is independent by
    construction; it is re-verified here anyway rather than trusted.  Its
    size is at least ceil(point_count / block_count) by pigeonhole.
    """
    if not design.blocks:
        raise ValueError("design has no blocks")
    best = max(range(len(design.blocks)), key=lambda i: len(design.blocks[i]))
    s = IndependentSet(
        tuple(v for v, (_x, bi) in enumerate(g.vertices) if bi == best), "block"
    )
    if not verify_independent(g, s):
        raise AssertionError("largest-block set failed its independence check")
    return s


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


def exact_max_independent_set(
    g: IncidenceGraph, vertex_budget: int = DEFAULT_EXACT_BUDGET
) -> IndependentSet:
    """Exact maximum independent set by branch-and-bound.

    The incumbent starts as the min-degree greedy set.  Each node makes one
    pass over the residual graph: a greedy clique cover that grows every
    clique from the lowest remaining vertex, reading each vertex's residual
    degree as it is visited.  The node is pruned when the cover cannot beat
    the incumbent, and takes the whole residual set once it has no edges;
    otherwise it branches on a maximum-degree vertex, include (delete its
    closed neighbourhood) or exclude.  The nodes live on an explicit stack,
    exclude child on top, so the depth is not bounded by the recursion
    limit.  Fully deterministic, including the witness.  Graphs larger than
    ``vertex_budget`` are refused.
    """
    n = g.n_vertices
    if n > vertex_budget:
        raise ValueError(
            f"graph has {n} vertices, above the exact budget {vertex_budget}"
        )
    adj = g.adjacency
    best_mask = _min_degree_set(adj, (1 << n) - 1)
    best_size = best_mask.bit_count()
    stack = [((1 << n) - 1, 0, 0)]
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
    return ANY_N_ALPHA_COEFFICIENT * float(n) ** (2.0 / 3.0)


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

    CSV_FIELDS = (
        "family",
        "param",
        "order_seed",
        "n_vertices",
        "a",
        "b",
        "greedy",
        "block",
        "exact",
        "upper",
        "chromatic_lb_num",
        "chromatic_lb_den",
        "ravsky_lb",
    )

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
    """Assemble every bound for a design and its graph into a report row."""
    greedy = greedy_independent_set(g)
    block = largest_block_set(design, g)
    exact: Optional[int] = None
    if g.n_vertices <= exact_budget:
        exact = exact_max_independent_set(g, exact_budget).size
    return BoundsReport(
        family=family,
        param=param,
        order_seed=order_seed,
        n_vertices=g.n_vertices,
        a=design.point_count,
        b=len(design.blocks),
        greedy=greedy.size,
        block=block.size,
        exact=exact,
        upper=upper_bound_alpha(design),
        chromatic_lb=chromatic_lower_bound(design),
        ravsky_lb=ravsky_lower_bound(g.n_vertices),
    )
