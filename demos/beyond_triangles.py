#!/usr/bin/env python3
"""Past triangles: packings of higher strength forbid larger cliques.

A design in which any m points share at most one block yields an incidence
graph with no (m + 1)-clique.  Strength 2 gives the triangle-free families;
strength 3 packings give K4-free graphs, strength 4 gives K5-free, and so
on.  Good explicit packings of strength 3 and 4 are the raw material for
clique-constrained Ramsey graphs beyond the triangle case, so this script
samples seeded random packings, certifies their clique-freeness
exhaustively, and shows the independence bounds still sandwich the exact
optimum.
"""

from ramsey_forge import (
    OrderedDesign,
    build_gamma,
    check_clique_free,
    exact_max_independent_set,
    greedy_independent_set,
    random_packing,
    upper_bound_alpha,
    validate_packing,
)


def survey(strength, seeds, points, block_size, target):
    m = strength + 1
    print(
        f"strength-{strength} packings -> K{m}-free graphs "
        f"({points} points, blocks of {block_size}, target {target}):"
    )
    print(f"  {'seed':>5} {'blocks':>7} {'verts':>6} {'K{}-free'.format(m):>8} "
          f"{'greedy':>7} {'exact':>6} {'upper':>6}")
    for seed in seeds:
        design = random_packing(points, block_size, strength, target, seed=seed)
        assert validate_packing(design).valid
        od = OrderedDesign.id_order(design)
        g = build_gamma(od)
        witness = check_clique_free(g, m)
        assert witness is None
        greedy = greedy_independent_set(g)
        exact = exact_max_independent_set(g).size if g.n_vertices <= 64 else "-"
        upper = upper_bound_alpha(design)
        if isinstance(exact, int):
            assert greedy.size <= exact <= upper
        print(
            f"  {seed:>5} {len(design.blocks):>7} {g.n_vertices:>6} "
            f"{'yes':>8} {greedy.size:>7} {str(exact):>6} {upper:>6}"
        )
    print()


def main():
    print("Clique-freeness beyond m = 3")
    print()
    survey(strength=3, seeds=range(6), points=12, block_size=4, target=5)
    survey(strength=4, seeds=range(4), points=14, block_size=5, target=4)
    print("Every graph above was certified by exhaustive clique search, not")
    print("by the construction theorem alone.")


if __name__ == "__main__":
    main()
