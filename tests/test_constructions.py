"""Construction families and their counting identities.

The plane constructors are cross-checked against enumeration (pair coverage,
block sizes, point degrees), the grid family against its closed-form counts,
and the exact-size trim against hand-traced runs, its invariant chain
n <= k^3 + k^2 <= 6n, k <= p <= 2k for every n up to 300, the earlier
two-loop trim in ``oracles.trim_by_popping``, and the oracle's own choice of
k and p at both ends of every band under the graph cap.  The planes' prime
check is pinned on every order their size gates admit.  Grid designs are
pinned by the sha256 of their JSON.  The random packing is checked against
its caps and against ``oracles.random_packing_uncut``, which samples toward
the target as given, uncut by the packing bound.  Each constructor's
graph-cap gate is checked at the family's largest member, one step past it,
and far past it.
"""

import hashlib
import time
from collections import Counter
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramsey_forge import (
    TrimTrace,
    affine_plane,
    constructions,
    design_to_json,
    fisher_holds,
    grid_line_design,
    incidence_count,
    is_steiner,
    projective_plane,
    random_packing,
    rectangle_free,
    trim_to_n,
    validate_packing,
)
from ramsey_forge.designs import MAX_REGISTERED_SUBSETS
from ramsey_forge.incidence_graphs import MAX_GRAPH_VERTICES

from oracles import (
    prime_by_definition,
    random_packing_uncut,
    trim_by_popping,
    trim_parameters,
)


def test_prime_field_rejects_composite_order():
    # every order the graph cap admits (p <= 39) builds when prime and is
    # refused as composite otherwise; negative orders pass the size gate
    points = {projective_plane: lambda p: p * p + p + 1, affine_plane: lambda p: p * p}
    for construct, count in points.items():
        for p in range(-5, 40):
            if prime_by_definition(p):
                assert construct(p).point_count == count(p), (construct, p)
            else:
                with pytest.raises(ValueError, match=f"^p={p}: prime required$"):
                    construct(p)
        # composite 40, prime 41 and composite 10**30: the gate answers first
        start = time.perf_counter()
        for p in (40, 41, 10**30):
            with pytest.raises(ValueError, match="^graph would have .* above the cap"):
                construct(p)
        assert time.perf_counter() - start < 1


def _pair_coverage(design):
    counts = Counter()
    for block in design.blocks:
        counts.update(combinations(block, 2))
    return counts


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_projective_plane_counts(p):
    plane = projective_plane(p)
    expected = p * p + p + 1
    assert plane.point_count == expected
    assert len(plane.blocks) == expected
    assert all(len(block) == p + 1 for block in plane.blocks)
    degrees = Counter(pt for block in plane.blocks for pt in block)
    assert all(degrees[pt] == p + 1 for pt in range(expected))
    coverage = _pair_coverage(plane)
    assert len(coverage) == expected * (expected - 1) // 2
    assert set(coverage.values()) == {1}
    for b1, b2 in combinations(plane.blocks, 2):
        assert len(set(b1) & set(b2)) == 1
    assert validate_packing(plane).valid


def test_projective_plane_rejects_non_primes():
    for bad in (0, 1, 4, 6):
        with pytest.raises(ValueError):
            projective_plane(bad)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_affine_plane_counts(p):
    plane = affine_plane(p)
    assert plane.point_count == p * p
    assert len(plane.blocks) == p * p + p
    assert all(len(block) == p for block in plane.blocks)
    coverage = _pair_coverage(plane)
    assert len(coverage) == p * p * (p * p - 1) // 2
    assert set(coverage.values()) == {1}
    assert is_steiner(plane, p)
    assert fisher_holds(plane)
    assert validate_packing(plane).valid


def test_affine_plane_rejects_non_primes():
    with pytest.raises(ValueError):
        affine_plane(4)


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_grid_line_design_counts(N):
    design = grid_line_design(N)
    assert len(design.blocks) == N**3
    assert all(len(block) == N for block in design.blocks)
    assert incidence_count(design) == N**4
    assert rectangle_free(design)
    assert validate_packing(design).valid


def test_grid_covered_points_match_direct_enumeration():
    # recompute the covered grid points without the Design machinery
    covered = {
        (x, m * x + b)
        for m in range(1, 3)
        for b in range(1, 5)
        for x in range(1, 3)
    }
    design = grid_line_design(2)
    assert design.point_count == len(covered) == 11
    assert design.labels is not None
    assert set(design.labels) == {f"({a},{b})" for a, b in covered}


@pytest.mark.parametrize(
    "N, digest",
    [
        (1, "fcaef5216a62d4f1678f5fa43f8fbd00befa39e211e13c0ade295937c4584e0a"),
        (2, "1e50284044d8ee58bfda45215dde6bb4fcceadebb7e73d3c6f3e4f5e7819e53d"),
        (3, "177b2ca6407f23a8876ae99627b19336675ea41985981027797348c7357809d5"),
        (4, "db3a69d8b05328b7ddd5691e8bef59cb9401fc2218d923314e147a22e1cd6677"),
        (16, "9b5797f76fa8b0c893f54d34a21874fd78b9f536b336462cdc2a0026f5c745ca"),
    ],
)
def test_grid_design_json_is_pinned(N, digest):
    text = design_to_json(grid_line_design(N))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_grid_rejects_zero():
    with pytest.raises(ValueError):
        grid_line_design(0)


def test_trim_exact_fit_removes_nothing():
    design, trace = trim_to_n(12)
    assert (trace.k, trace.p) == (2, 2)
    assert trace.removed == ()
    assert incidence_count(design) == 12


def test_trim_10_matches_hand_trace():
    # AG(2,2) blocks in construction order:
    #   {0,2} {1,3} {0,3} {1,2} {0,1} {2,3}
    # two removals walk from the last block, largest point first
    design, trace = trim_to_n(10)
    assert (trace.n, trace.k, trace.p) == (10, 2, 2)
    assert trace.removed == ((5, 3), (4, 1))
    assert incidence_count(design) == 10
    assert validate_packing(design).valid


def test_trim_100_picks_k5_p5():
    design, trace = trim_to_n(100)
    assert (trace.k, trace.p) == (5, 5)
    assert len(trace.removed) == 50
    assert incidence_count(design) == 100


def test_trim_rejects_zero():
    with pytest.raises(ValueError):
        trim_to_n(0)


def test_trim_invariants_over_full_range():
    for n in range(1, 301):
        design, trace = trim_to_n(n)
        assert incidence_count(design) == n
        assert trace.n <= trace.k**3 + trace.k**2 <= 6 * trace.n
        assert trace.k <= trace.p <= 2 * trace.k
        assert len(trace.removed) == trace.p**3 + trace.p**2 - n
        assert all(block for block in design.blocks)
        assert validate_packing(design).valid  # also: every point covered


def test_trim_matches_the_two_loop_oracle():
    # the kept walk prefix and its reversed tail against popping from the back
    for n in [*range(1, 1501), 4000, 20000, 65536]:
        assert trim_to_n(n) == trim_by_popping(n), n


def test_trim_picks_the_oracles_prime_in_every_band():
    # p depends only on k, so the first and last n of each band k = 1..40
    # reach every prime check a trim makes under the graph cap
    for k in range(1, 41):
        first = (k - 1) ** 3 + (k - 1) ** 2 + 1
        last = min(k**3 + k**2, MAX_GRAPH_VERTICES)
        for n in (first, last):
            trace = trim_to_n(n)[1]
            assert trim_parameters(n) == (trace.k, trace.p) and trace.k == k, n
    assert trace.p == 41


@pytest.mark.parametrize(
    "build, largest, above, far, incidences",
    [
        (projective_plane, 37, 41, 10**18 + 3, lambda p: (p * p + p + 1) * (p + 1)),
        (affine_plane, 37, 41, 10007, lambda p: p**3 + p**2),
        (grid_line_design, 16, 17, 1000, lambda N: N**4),
        (lambda n: trim_to_n(n)[0], 65536, 65537, 10**9, lambda n: n),
    ],
    ids=["projective", "affine", "grid", "trim"],
)
def test_each_constructor_gates_its_graph_size(build, largest, above, far, incidences):
    # the largest member builds; past it the gate refuses before any work,
    # even where testing primality or listing the design would not finish
    design = build(largest)
    assert incidence_count(design) == incidences(largest) <= MAX_GRAPH_VERTICES
    for size in (above, far):
        message = (
            f"^graph would have {incidences(size)} vertices, above the cap of 65536$"
        )
        with pytest.raises(ValueError, match=message):
            build(size)


def test_trim_builds_each_affine_plane_once(monkeypatch):
    # a sweep over n = 1..600 needs the planes of five orders, and builds
    # each once; the oracle builds its own planes and pins the designs
    plane = constructions._affine_plane
    built = []

    def counting_plane(p):
        built.append(p)
        return plane(p)

    monkeypatch.setattr(constructions, "_affine_plane", counting_plane)
    constructions._trim_walk.cache_clear()
    try:
        for n in range(1, 601):
            assert trim_to_n(n) == trim_by_popping(n), n
    finally:
        constructions._trim_walk.cache_clear()
    assert built == [2, 3, 5, 7, 11]


def test_trim_builds_affine_planes_above_their_gate():
    # n = 52,023..65,536 needs the plane of order 41, which affine_plane refuses
    assert trim_to_n(65536)[1].p == 41
    assert trim_to_n(52023)[1].p == 41
    assert trim_to_n(52022)[1].p == 37


def test_trim_trace_rejects_inconsistent_fields():
    with pytest.raises(ValueError):
        TrimTrace(n=10, k=9, p=11, removed=())
    with pytest.raises(ValueError):
        TrimTrace(n=10, k=2, p=7, removed=((5, 3), (4, 1)))
    with pytest.raises(ValueError):
        TrimTrace(n=10, k=2, p=2, removed=())


def test_random_packing_is_reproducible():
    a = random_packing(12, 4, 3, 6, seed=1)
    b = random_packing(12, 4, 3, 6, seed=1)
    assert a == b
    c = random_packing(12, 4, 3, 6, seed=2)
    assert c != a


def test_random_packing_validates_and_covers():
    for seed in range(8):
        design = random_packing(12, 4, 3, 6, seed=seed)
        assert design.strength == 3
        assert validate_packing(design).valid
        non_singletons = [b for b in design.blocks if len(b) > 1]
        assert len(non_singletons) <= 6


def test_random_packing_single_full_block():
    design = random_packing(5, 5, 2, 1, seed=99)
    assert design.blocks == ((0, 1, 2, 3, 4),)
    assert validate_packing(design).valid


def test_random_packing_rejects_impossible_parameters():
    with pytest.raises(ValueError):
        random_packing(3, 4, 2, 1, seed=0)
    with pytest.raises(ValueError):
        random_packing(3, 0, 2, 1, seed=0)
    with pytest.raises(ValueError):
        random_packing(3, 2, 0, 1, seed=0)
    with pytest.raises(ValueError):
        random_packing(3, 2, 2, -4, seed=0)


def test_random_packing_refuses_oversized_subset_lists(monkeypatch):
    # C(60, 30) subsets of one sampled block: refused before any is listed
    with pytest.raises(ValueError, match="30-subsets, above the cap"):
        random_packing(60, 60, 30, 1, seed=0)
    with pytest.raises(ValueError, match="above the cap"):
        random_packing(60, 60, 30, 0, seed=0)
    # a target at the cap is cut to the one block that fits before counting
    at_cap = MAX_REGISTERED_SUBSETS // 5
    assert random_packing(5, 5, 1, at_cap, seed=0).blocks == ((0, 1, 2, 3, 4),)
    # closed-form boundary below the packing bound C(10, 1) // C(2, 1) = 5:
    # C(2, 1) * target_blocks against a cap of 8
    monkeypatch.setattr(constructions, "MAX_REGISTERED_SUBSETS", 8)
    random_packing(10, 2, 1, 4, seed=0)
    with pytest.raises(ValueError, match="10 1-subsets, above the cap of 8"):
        random_packing(10, 2, 1, 5, seed=0)


def test_random_packing_cuts_the_target_to_the_packing_bound():
    # 10 points hold at most C(10, 2) // C(3, 2) = 15 blocks of 3 at
    # strength 2, so a target of 10**7 lists no more subsets than 15 would
    design = random_packing(10, 3, 2, 10**7, seed=0)
    assert design == random_packing(10, 3, 2, 15, seed=0)
    assert len(design.blocks) == 12
    assert validate_packing(design).valid


def test_random_packing_refuses_designs_above_the_graph_cap():
    # the singleton blocks alone would give one vertex per point
    with pytest.raises(
        ValueError, match="graph would have 65537 vertices, above the cap of 65536"
    ):
        random_packing(MAX_GRAPH_VERTICES + 1, 1, 1, 0, seed=0)
    with pytest.raises(ValueError, match="above the cap of 65536"):
        random_packing(10**9, 1, 1, 0, seed=0)


@settings(max_examples=300)
@given(point_count=st.integers(1, 12), data=st.data())
def test_random_packing_matches_the_uncut_sampler(point_count, data):
    block_size = data.draw(st.integers(1, point_count))
    strength = data.draw(st.integers(1, block_size + 1))
    if strength <= block_size:
        bound = comb(point_count, strength) // comb(block_size, strength)
    else:
        bound = point_count  # every block is accepted; no bound applies
    target = data.draw(st.integers(0, 3 * bound))
    seed = data.draw(st.integers(0, 2**32))
    assert random_packing(
        point_count, block_size, strength, target, seed
    ) == random_packing_uncut(point_count, block_size, strength, target, seed)
