#!/usr/bin/env python3
"""Triangle-free graphs from integer lines in the plane.

Take the N^3 lines y = m*x + b (slopes 1..N, intercepts 1..N^2) restricted
to x = 1..N.  Each line holds N grid points and two grid points share at
most one line, so the incidence graph on the N^4 point-line pairs is
triangle-free.  Here the greedy independent set has size N^3 = (N^4)^(3/4):
unlike the plane families (exponent 2/3), this family's independence number
grows like vertices^(3/4).
"""

from ramsey_forge import (
    OrderedDesign,
    build_gamma,
    check_clique_free,
    export_graph,
    greedy_independent_set,
    grid_line_design,
    rectangle_free,
    upper_bound_alpha,
)


def main():
    print("Grid-line family")
    print()
    print(f"  {'N':>3} {'points':>7} {'blocks':>7} {'verts':>7} "
          f"{'tri-free':>9} {'rect-free':>10} {'greedy':>7} {'upper':>6}")
    for N in (1, 2, 3, 4):
        design = grid_line_design(N)
        od = OrderedDesign.id_order(design)
        g = build_gamma(od)
        assert check_clique_free(g, 3) is None
        greedy = greedy_independent_set(g)
        assert greedy.size == N**3
        assert greedy.size**4 == g.n_vertices**3  # greedy = verts^(3/4)
        print(
            f"  {N:>3} {design.point_count:>7} {len(design.blocks):>7} "
            f"{g.n_vertices:>7} {'yes':>9} "
            f"{'yes' if rectangle_free(design) else 'NO':>10} "
            f"{greedy.size:>7} {upper_bound_alpha(design):>6}"
        )
    print()

    design = grid_line_design(2)
    print("The N=2 instance, block by block (labels are (x, y) grid points):")
    assert design.labels is not None
    for i, block in enumerate(design.blocks):
        pts = " ".join(design.labels[p] for p in block)
        print(f"  line {i}: {pts}")
    print()

    g = build_gamma(OrderedDesign.id_order(design))
    print("Its graph in DIMACS form (reproducible byte-for-byte):")
    print(export_graph(g, "dimacs").decode().rstrip())


if __name__ == "__main__":
    main()
