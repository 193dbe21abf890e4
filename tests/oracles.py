"""Brute-force oracles, independent of the library's code paths.

Each oracle evaluates a definition directly: the edge predicate over all
vertex pairs, independence over all 2**v vertex subsets, cliques over all
vertex m-subsets, and the packing conditions over all block pairs.  They are
deliberately slow and only usable at desk scale.  The greedy oracle keeps an
earlier, procedural formulation of the greedy pass as a reference, and the
export oracle the earlier exporter that formats one explicit edge list.
"""

import json
from itertools import combinations

import numpy as np

ENUMERATION_CAP = 22


def brute_force_adjacency(design, order, vertices):
    """Edge predicate applied to every ordered vertex pair.

    An edge joins (x, B1) and (y, B2) exactly when the blocks differ and the
    lower-ranked of the two points belongs to the other pair's block.
    """
    rank = {x: r for r, x in enumerate(order)}
    block_sets = [set(block) for block in design.blocks]
    n = len(vertices)
    rows = [0] * n
    for i in range(n):
        x, b1 = vertices[i]
        for j in range(n):
            if i == j:
                continue
            y, b2 = vertices[j]
            if b1 == b2 or x == y:
                continue
            if rank[x] < rank[y]:
                lo_point, hi_block = x, b2
            else:
                lo_point, hi_block = y, b1
            if lo_point in block_sets[hi_block]:
                rows[i] |= 1 << j
    return rows


def greedy_by_retiring_blocks(design, order, vertices):
    """Greedy one-per-block set as an ordered pass that retires blocks.

    Walk the points by ascending rank; take the current point's pair with
    every still-live block containing it, then retire those blocks.
    Returns the chosen vertex indices, ascending.
    """
    index = {v: i for i, v in enumerate(vertices)}
    blocks_of = [[] for _ in range(design.point_count)]
    for bi, block in enumerate(design.blocks):
        for x in block:
            blocks_of[x].append(bi)
    alive = [True] * len(design.blocks)
    chosen = []
    for x in order:
        for bi in blocks_of[x]:
            if alive[bi]:
                chosen.append(index[(x, bi)])
                alive[bi] = False
    return sorted(chosen)


def export_by_edge_list(adjacency, fmt):
    """DIMACS or edge-json bytes formatted from the full ascending edge list.

    The edges are the pairs u < v with bit v set in row u, found by testing
    every pair.
    """
    n = len(adjacency)
    edges = [(u, v) for u, v in combinations(range(n), 2) if (adjacency[u] >> v) & 1]
    if fmt == "dimacs":
        lines = [f"p edge {n} {len(edges)}"]
        lines.extend(f"e {u + 1} {v + 1}" for u, v in edges)
        return ("\n".join(lines) + "\n").encode("ascii")
    assert fmt == "edge-json"
    doc = {"n": n, "edges": [[u, v] for u, v in edges]}
    return (json.dumps(doc, separators=(",", ":")) + "\n").encode("ascii")


def enumerate_alpha(adjacency):
    """Maximum independent set size by enumerating all 2**v subsets."""
    v = len(adjacency)
    assert v <= ENUMERATION_CAP, "enumeration oracle capped for runtime"
    masks = np.arange(1 << v, dtype=np.uint32)
    ok = np.ones(masks.shape, dtype=bool)
    for i, row in enumerate(adjacency):
        picked = (masks >> np.uint32(i)) & np.uint32(1)
        conflict = (masks & np.uint32(row)) != 0
        ok &= ~((picked == 1) & conflict)
    return int(np.bitwise_count(masks[ok]).max())


def first_clique_brute(adjacency, m):
    """The lexicographically first m pairwise adjacent vertices, or None.

    ``combinations`` yields the m-subsets in lexicographic order, so the
    first hit is the first witness.
    """
    n = len(adjacency)
    for subset in combinations(range(n), m):
        if all(
            (adjacency[u] >> w) & 1 for u, w in combinations(subset, 2)
        ):
            return subset
    return None


def has_clique_brute(adjacency, m):
    """Whether any m vertices are pairwise adjacent, by full enumeration."""
    return first_clique_brute(adjacency, m) is not None


def naive_packing_valid(design):
    """The three packing conditions evaluated straight off the definition."""
    if any(len(block) == 0 for block in design.blocks):
        return False
    covered = {p for block in design.blocks for p in block}
    if covered != set(range(design.point_count)):
        return False
    for i in range(len(design.blocks)):
        for j in range(i + 1, len(design.blocks)):
            shared = set(design.blocks[i]) & set(design.blocks[j])
            if len(shared) >= design.strength:
                return False
    return True


def incidence_matrix_has_rectangle(design):
    """2x2 all-ones submatrix search over all point pairs x block pairs."""
    member = [
        [p in block for block in design.blocks] for p in range(design.point_count)
    ]
    for p, q in combinations(range(design.point_count), 2):
        for b1, b2 in combinations(range(len(design.blocks)), 2):
            if member[p][b1] and member[p][b2] and member[q][b1] and member[q][b2]:
                return True
    return False
