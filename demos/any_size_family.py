#!/usr/bin/env python3
"""A triangle-free graph with bounded independence number for EVERY size.

Plane constructions only exist at special vertex counts.  To hit an
arbitrary target n, pick the smallest k with k^3 + k^2 >= n (then
k^3 + k^2 <= 6n automatically), take the smallest prime p in [k, 2k], and
delete incidences from the affine plane of order p until exactly n remain.
The result always stays a valid strength-2 packing, so its graph is
triangle-free with points + blocks below the crude cap 48 * cbrt(2) * n^(2/3).

The deletion walk is deterministic (last block backwards, largest point
first), so every run reproduces the same design and the same trace.
"""

import math

from ramsey_forge import (
    OrderedDesign,
    any_n_alpha_cap,
    build_gamma,
    check_clique_free,
    greedy_independent_set,
    trim_to_n,
    upper_bound_alpha,
)


def show_trace(n):
    design, trace = trim_to_n(n)
    print(f"  n={n}: k={trace.k}, p={trace.p}, removed {len(trace.removed)} incidences")
    if trace.removed:
        head = ", ".join(f"(block {b}, point {x})" for b, x in trace.removed[:4])
        more = "" if len(trace.removed) <= 4 else f", ... ({len(trace.removed)} total)"
        print(f"        first deletions: {head}{more}")
    return design


def main():
    print("Exact-size trimmed family")
    print()
    print("Sample traces (which incidences were deleted, and why):")
    for n in (10, 12, 100):
        show_trace(n)
    print()

    print("Bound chain for n = 1..120:")
    print(f"  {'n':>4} {'a':>4} {'b':>4} {'a+b':>5} {'cap':>8} {'greedy':>7} {'tri-free':>9}")
    worst_ratio = 0.0
    for n in range(1, 121):
        design, trace = trim_to_n(n)
        od = OrderedDesign.id_order(design)
        g = build_gamma(od)
        assert g.n_vertices == n
        witness = check_clique_free(g, 3)
        assert witness is None
        greedy = greedy_independent_set(g)
        assert greedy.size == len(design.blocks)
        cap = any_n_alpha_cap(n)
        total = upper_bound_alpha(design)
        assert total <= math.ceil(cap)
        worst_ratio = max(worst_ratio, total / cap)
        if n % 12 == 0 or n <= 3:
            print(
                f"  {n:>4} {design.point_count:>4} {len(design.blocks):>4} "
                f"{total:>5} {cap:>8.1f} {greedy.size:>7} {'yes':>9}"
            )
    print()
    print(f"Largest observed (points + blocks) / cap ratio: {worst_ratio:.4f}")
    print("The cap is deliberately crude; the family sits far below it.")


if __name__ == "__main__":
    main()
