#!/usr/bin/env python3
"""Plane-based triangle-free graphs and their bound chain.

For a projective plane of prime order p the incidence graph has
(p^2 + p + 1)(p + 1) vertices, no triangles, a greedy independent set of
exactly one vertex per line, and an independence number capped by
points + lines = 2(p^2 + p + 1).  Affine planes behave the same with their
own counts.  This script builds both families at small orders, certifies
triangle-freeness exhaustively, and tabulates every bound, including the
exact optimum where the graph is small enough to solve.
"""

from fractions import Fraction

from ramsey_forge import (
    OrderedDesign,
    affine_plane,
    build_gamma,
    check_clique_free,
    chromatic_lower_bound,
    exact_max_independent_set,
    greedy_independent_set,
    largest_block_set,
    projective_plane,
    upper_bound_alpha,
)

EXACT_BUDGET = 64


def survey(name, design):
    od = OrderedDesign.id_order(design)
    g = build_gamma(od)
    witness = check_clique_free(g, 3)
    exact = "-"
    if g.n_vertices <= EXACT_BUDGET:
        exact = exact_max_independent_set(g).size
    chrom = chromatic_lower_bound(design)
    print(
        f"  {name:<10} {g.n_vertices:>6} {g.edge_count:>7} "
        f"{'yes' if witness is None else 'NO':>9} "
        f"{greedy_independent_set(g).size:>7} "
        f"{largest_block_set(design, g).size:>6} {str(exact):>6} "
        f"{upper_bound_alpha(design):>6} {str(chrom):>8}"
    )
    assert witness is None
    return chrom


def main():
    print("Triangle-free graphs from finite planes")
    print()
    header = (
        f"  {'family':<10} {'verts':>6} {'edges':>7} {'tri-free':>9} "
        f"{'greedy':>7} {'block':>6} {'exact':>6} {'upper':>6} {'chi>=':>8}"
    )

    print("Projective planes PG(2, p): points = lines = p^2 + p + 1")
    print(header)
    for p in (2, 3, 5, 7):
        chrom = survey(f"PG(2,{p})", projective_plane(p))
        assert chrom == Fraction(p + 1, 2)
    print()

    print("Affine planes AG(2, p): p^2 points, p^2 + p lines")
    print(header)
    for p in (2, 3, 5):
        survey(f"AG(2,{p})", affine_plane(p))
    print()

    print("Both families keep greedy >= (points + lines) / 2, so the linear")
    print("greedy pass is a 1/2-approximation of the maximum independent set:")
    for p in (2, 3, 5):
        for name, plane in (
            (f"PG(2,{p})", projective_plane(p)),
            (f"AG(2,{p})", affine_plane(p)),
        ):
            od = OrderedDesign.id_order(plane)
            g = build_gamma(od)
            greedy = greedy_independent_set(g).size
            cap = upper_bound_alpha(plane)
            assert 2 * greedy >= cap
            print(f"  {name:<10} greedy={greedy:<4} cap={cap:<4} ratio={greedy / cap:.3f}")


if __name__ == "__main__":
    main()
