"""Explicit design families.

Four constructions, all strength 2 unless noted: projective planes of prime
order, affine planes of prime order, the integer grid-line packing, and an
exact-incidence-count trim of an affine plane that exists for every target
size.  A seeded random packing generator rounds these out for exercising
strengths above 2.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from itertools import combinations

from .designs import MAX_REGISTERED_SUBSETS, Design
from .incidence_graphs import MAX_GRAPH_VERTICES, _check_graph_size

# random_packing stops after this many consecutive rejected samples.
REJECTION_BUDGET = 1000


def _is_small_prime(p: int) -> bool:
    """Trial division, safe only because no caller passes a large p: the
    planes gate their incidence count first (p <= 39 passes), trim_to_n
    gates n first (it stops at p = 41), and p < 2 fails ``p > 1`` at once."""
    return p > 1 and all(p % d for d in range(2, math.isqrt(p) + 1))


def _require_prime(p: int) -> None:
    if not _is_small_prime(p):
        raise ValueError(f"p={p}: prime required")


def _normalized_triples(p: int) -> list[tuple[int, int, int]]:
    """Projective points/lines: homogeneous triples, first nonzero coord 1."""
    triples = [(1, a, b) for a in range(p) for b in range(p)]
    triples += [(0, 1, a) for a in range(p)]
    triples.append((0, 0, 1))
    return triples


def projective_plane(p: int) -> Design:
    """Projective plane of prime order p as a strength-2 design.

    Points and blocks are both indexed by the p**2 + p + 1 normalized
    homogeneous triples over the p-element field; point x lies on line L
    exactly when the dot product x . L vanishes mod p.  Every block has
    p + 1 points, every point lies in p + 1 blocks, and any two distinct
    points share exactly one block.  ValueError is raised first when the
    (p**2 + p + 1)(p + 1) incidences exceed ``MAX_GRAPH_VERTICES`` (p >= 40).
    """
    _check_graph_size((p * p + p + 1) * (p + 1))
    _require_prime(p)
    triples = _normalized_triples(p)
    blocks = []
    for line in triples:
        members = tuple(
            i
            for i, pt in enumerate(triples)
            if (pt[0] * line[0] + pt[1] * line[1] + pt[2] * line[2]) % p == 0
        )
        blocks.append(members)
    labels = tuple(f"({x}:{y}:{z})" for x, y, z in triples)
    return Design(
        point_count=len(triples), blocks=tuple(blocks), strength=2, labels=labels
    )


def affine_plane(p: int) -> Design:
    """Affine plane of prime order p as a strength-2 design.

    Points are the pairs (x, y) over the p-element field (id = x*p + y);
    blocks are the p**2 lines y = m*x + c followed by the p vertical lines
    x = c.  That gives p**2 points and p**2 + p blocks of p points each,
    with every point pair on exactly one block.  ValueError is raised first
    when the p**3 + p**2 incidences exceed ``MAX_GRAPH_VERTICES`` (p >= 40);
    :func:`trim_to_n` builds larger planes, of which it keeps a prefix.
    """
    _check_graph_size(p**3 + p**2)
    return _affine_plane(p)


def _affine_plane(p: int) -> Design:
    """:func:`affine_plane` without its graph-size gate."""
    _require_prime(p)
    blocks = []
    for m in range(p):
        for c in range(p):
            blocks.append(tuple(x * p + (m * x + c) % p for x in range(p)))
    for c in range(p):
        blocks.append(tuple(c * p + y for y in range(p)))
    labels = tuple(f"({i // p},{i % p})" for i in range(p * p))
    return Design(point_count=p * p, blocks=tuple(blocks), strength=2, labels=labels)


def grid_line_design(N: int) -> Design:
    """Integer grid-line packing: N**3 blocks of N points each.

    Blocks are the lines {(x, m*x + b) : 1 <= x <= N} for slopes
    1 <= m <= N and intercepts 1 <= b <= N**2, drawn inside the grid
    [1, N] x [1, 2*N**2].  The point set is restricted to grid points that
    lie on at least one of these lines (the full grid would contain
    uncovered points).  Two points share at most one line, so the result is
    a valid strength-2 design with N**4 incidence pairs.  ValueError is
    raised first when N**4 exceeds ``MAX_GRAPH_VERTICES`` (N > 16).
    """
    _check_graph_size(N**4)
    if N < 1:
        raise ValueError("N must be >= 1")
    lines = [
        tuple((x, m * x + b) for x in range(1, N + 1))
        for m in range(1, N + 1)
        for b in range(1, N * N + 1)
    ]
    return _on_covered_points(lines, lambda pt: f"({pt[0]},{pt[1]})")


def _on_covered_points(blocks, label) -> Design:
    """Strength-2 design on exactly the points that ``blocks`` cover.

    The covered points are numbered 0, 1, ... in ascending order, each
    block is rewritten in those numbers, and ``label(point)`` names each.
    """
    covered = sorted({pt for block in blocks for pt in block})
    index = {pt: i for i, pt in enumerate(covered)}
    return Design(
        point_count=len(covered),
        blocks=tuple(tuple(index[pt] for pt in block) for block in blocks),
        strength=2,
        labels=tuple(label(pt) for pt in covered),
    )


@dataclass(frozen=True)
class TrimTrace:
    """Provenance of a :func:`trim_to_n` run.

    ``removed`` lists the deleted incidences as (block index, point id)
    pairs in the coordinates of the *untrimmed* affine plane of order ``p``;
    the trimmed design itself relabels points densely.
    """

    n: int
    k: int
    p: int
    removed: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "removed", tuple((b, pt) for b, pt in self.removed)
        )
        if not self.n <= self.k**3 + self.k**2 <= 6 * self.n:
            raise ValueError("cube parameter k out of its admissible band")
        if not self.k <= self.p <= 2 * self.k:
            raise ValueError("prime p outside [k, 2k]")
        if len(self.removed) != self.p**3 + self.p**2 - self.n:
            raise ValueError("removed-incidence count does not match n")


@functools.cache
def _trim_walk(p: int) -> tuple[Design, tuple[tuple[int, int], ...]]:
    """The affine plane of order p and :func:`trim_to_n`'s walk over it.

    Built once per p: under the graph cap trims use 13 primes, p <= 41.
    """
    base = _affine_plane(p)
    walk = [(i, block[0]) for i, block in enumerate(base.blocks)]
    walk += [(i, pt) for i, block in enumerate(base.blocks) for pt in block[1:]]
    return base, tuple(walk)


def trim_to_n(n: int) -> tuple[Design, TrimTrace]:
    """Strength-2 design with exactly ``n`` incidence pairs, for any n >= 1.

    Picks the smallest k with k**3 + k**2 >= n (then k**3 + k**2 <= 6n holds
    as well) and the smallest prime p in [k, 2k] (Bertrand's postulate).  One
    walk lists the incidences of the affine plane of order p: each block's
    first point in block order, then each block's remaining points, block by
    block.  The design keeps the walk's first n incidences, restricted (and
    densely relabelled) to the points they cover, so it passes validation;
    the trace's ``removed`` is the rest of the walk reversed: last block
    backwards, largest point first.  Its graph has n vertices, so ValueError
    is raised first when n exceeds ``MAX_GRAPH_VERTICES``.
    """
    _check_graph_size(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    k = 1
    while k**3 + k**2 < n:
        k += 1
    p = next(q for q in range(k, 2 * k + 1) if _is_small_prime(q))
    base, walk = _trim_walk(p)
    kept: list[list[int]] = [[] for _ in base.blocks]
    for i, pt in walk[:n]:
        kept[i].append(pt)
    design = _on_covered_points([b for b in kept if b], base.labels.__getitem__)
    return design, TrimTrace(n=n, k=k, p=p, removed=tuple(reversed(walk[n:])))


def random_packing(
    point_count: int,
    block_size: int,
    strength: int,
    target_blocks: int,
    seed: int,
) -> Design:
    """Seeded random packing: rejection-sample blocks, then cover leftovers.

    Random ``block_size``-subsets are accepted only when they introduce no
    duplicated ``strength``-subset; sampling stops at ``target_blocks``
    accepted blocks or after ``REJECTION_BUDGET`` consecutive rejections.
    Points still uncovered afterwards are wrapped in singleton blocks, so
    the result always validates.  Same inputs, same design.  The target is
    first cut to the packing bound C(point_count, strength) // C(block_size,
    strength), which never changes the design; then ValueError is raised if
    the design could exceed ``MAX_GRAPH_VERTICES`` incidences or its blocks
    ``MAX_REGISTERED_SUBSETS`` strength-subsets.
    """
    if block_size < 1 or strength < 1:
        raise ValueError("block_size and strength must be >= 1")
    if block_size > point_count:
        raise ValueError("block_size cannot exceed point_count")
    if target_blocks < 0:
        raise ValueError("target_blocks must be >= 0")
    # past the graph cap the gate below fails anyway; this skips a huge comb()
    if strength <= block_size and point_count <= MAX_GRAPH_VERTICES:
        fit = math.comb(point_count, strength) // math.comb(block_size, strength)
        target_blocks = min(target_blocks, fit)
    _check_graph_size(target_blocks * block_size + point_count)
    subsets = math.comb(block_size, strength) * max(target_blocks, 1)
    if subsets > MAX_REGISTERED_SUBSETS:
        raise ValueError(
            f"sampling would list {subsets} {strength}-subsets, above the "
            f"cap of {MAX_REGISTERED_SUBSETS}"
        )
    rng = random.Random(seed)
    owner: set[tuple[int, ...]] = set()
    accepted: list[tuple[int, ...]] = []
    rejections = 0
    while len(accepted) < target_blocks and rejections < REJECTION_BUDGET:
        block = tuple(sorted(rng.sample(range(point_count), block_size)))
        subsets = list(combinations(block, strength))
        if any(s in owner for s in subsets):
            rejections += 1
            continue
        owner.update(subsets)
        accepted.append(block)
        rejections = 0
    covered = {pt for block in accepted for pt in block}
    blocks = accepted + [(pt,) for pt in range(point_count) if pt not in covered]
    return Design(point_count=point_count, blocks=tuple(blocks), strength=strength)
