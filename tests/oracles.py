"""Brute-force oracles, independent of the library's code paths.

Each oracle evaluates a definition directly: the edge predicate over all
vertex pairs, independence over all 2**v vertex subsets, cliques over all
vertex m-subsets, and the packing conditions over all block pairs.  They are
deliberately slow and only usable at desk scale.  The greedy oracle keeps an
earlier, procedural formulation of the greedy pass as a reference, the
export oracle the earlier exporter that formats one explicit edge list, and
the branch-and-bound oracle the earlier recursive exact solver, and the
block-pair oracle the earlier graph builder that sets both ends of every
edge through a pair-to-index dict.
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


def adjacency_by_block_pairs(design, order):
    """Vertices and bit rows of the incidence graph, edge by edge.

    For every block B2 and every pair of its members x < y (by rank), join
    (y, B2) to each (x, B1) with B1 != B2.  Vertices are listed by (point
    rank, block index).
    """
    rank = [0] * design.point_count
    for r, x in enumerate(order):
        rank[x] = r
    blocks_of = [[] for _ in range(design.point_count)]
    for bi, block in enumerate(design.blocks):
        for x in block:
            blocks_of[x].append(bi)

    vertices = []
    for x in order:
        for bi in blocks_of[x]:
            vertices.append((x, bi))
    index = {v: i for i, v in enumerate(vertices)}

    adjacency = [0] * len(vertices)
    for b2, block in enumerate(design.blocks):
        members = sorted(block, key=rank.__getitem__)
        for lo in range(len(members)):
            x = members[lo]
            x_blocks = blocks_of[x]
            for hi in range(lo + 1, len(members)):
                w = index[(members[hi], b2)]
                for b1 in x_blocks:
                    if b1 == b2:
                        continue
                    v = index[(x, b1)]
                    adjacency[v] |= 1 << w
                    adjacency[w] |= 1 << v
    return tuple(vertices), tuple(adjacency)


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


def _clique_cover_bound(adjacency, alive):
    """Greedy clique cover of the induced subgraph; its size caps alpha."""
    count = 0
    rem = alive
    while rem:
        v_lsb = rem & -rem
        v = v_lsb.bit_length() - 1
        rem ^= v_lsb
        cand = rem & adjacency[v]
        while cand:
            u_lsb = cand & -cand
            u = u_lsb.bit_length() - 1
            rem ^= u_lsb
            cand = (cand ^ u_lsb) & adjacency[u]
        count += 1
    return count


def exact_by_recursive_bnb(adjacency):
    """A maximum independent set, ascending, by recursive branch-and-bound.

    The library's earlier solver: branch on a maximum-degree residual vertex
    (ties toward the lowest index), include before exclude, prune by the
    greedy clique cover, starting from an empty incumbent.  The recursion
    depth grows with the graph, so keep inputs to about a hundred vertices.
    """
    n = len(adjacency)
    adj = adjacency
    best_size = 0
    best_mask = 0

    def bnb(alive, chosen, size):
        nonlocal best_size, best_mask
        if alive == 0:
            if size > best_size:
                best_size, best_mask = size, chosen
            return
        if size + _clique_cover_bound(adj, alive) <= best_size:
            return
        branch = -1
        branch_deg = -1
        rest = alive
        while rest:
            lsb = rest & -rest
            v = lsb.bit_length() - 1
            rest ^= lsb
            deg = (adj[v] & alive).bit_count()
            if deg > branch_deg:
                branch, branch_deg = v, deg
        if branch_deg == 0:
            size += alive.bit_count()
            if size > best_size:
                best_size, best_mask = size, chosen | alive
            return
        bit = 1 << branch
        bnb(alive & ~(adj[branch] | bit), chosen | bit, size + 1)
        bnb(alive & ~bit, chosen, size)

    bnb((1 << n) - 1, 0, 0)
    return tuple(v for v in range(n) if (best_mask >> v) & 1)


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
