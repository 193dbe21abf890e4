"""Packing validation, structure predicates, and the design JSON format.

Claims exercised here:
  - validate_packing reports exactly the three failure kinds, with witnesses,
    truncating at 100 witnesses while keeping the exact total, and counts
    uncovered points without walking all of them
  - structural problems (ids out of range, unsorted blocks) raise at
    construction and never appear in reports
  - strength-2 validity coincides with rectangle-freeness of the incidence
    matrix, and both match a brute-force 2x2 submatrix search
  - Steiner / pairwise-balanced predicates agree with direct enumeration
  - validity is invariant under block permutation and point relabeling
  - the subset scan refuses, in closed form and before any work, designs
    with more strength-subsets than MAX_REGISTERED_SUBSETS
  - the design JSON round-trips every random packing of strength 1-4
  - each witness kind prints as the sentence verify and the errors show
"""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramsey_forge import designs
from ramsey_forge import (
    Design,
    DuplicatedSubset,
    EmptyBlock,
    UncoveredPoint,
    ValidationReport,
    design_from_json,
    design_to_json,
    fisher_holds,
    incidence_count,
    is_pairwise_balanced,
    is_steiner,
    random_packing,
    rectangle_free,
    validate_packing,
)
from oracles import incidence_matrix_has_rectangle, naive_packing_valid
from strategies import packings


def test_fano_is_valid(fano_by_hand):
    report = validate_packing(fano_by_hand)
    assert report.valid
    assert report.violations == ()
    assert report.total_violations == 0


def test_report_validity_is_its_violation_count():
    assert not ValidationReport((), total_violations=150).valid
    with pytest.raises(ValueError, match="cannot carry witnesses"):
        ValidationReport((EmptyBlock(0),), total_violations=0)


def test_duplicated_pair_reported():
    design = Design(4, ((0, 1, 2), (0, 1, 3)), strength=2)
    report = validate_packing(design)
    assert not report.valid
    assert report.violations == (DuplicatedSubset((0, 1), 0, 1),)


def test_single_point_block_is_vacuously_valid():
    design = Design(1, ((0,),), strength=2)
    assert validate_packing(design).valid


def test_empty_block_reported():
    design = Design(2, ((0, 1), ()), strength=2)
    report = validate_packing(design)
    assert report.violations == (EmptyBlock(1),)


def test_uncovered_point_reported():
    design = Design(3, ((0, 1),), strength=2)
    report = validate_packing(design)
    assert report.violations == (UncoveredPoint(2),)


@pytest.mark.parametrize(
    "witness, text",
    [
        (EmptyBlock(1), "block 1 is empty"),
        (UncoveredPoint(2), "point 2 lies in no block"),
        (DuplicatedSubset((1,), 0, 1), "subset {1} in blocks 0 and 1"),
        (DuplicatedSubset((0, 1), 0, 1), "pair {0, 1} in blocks 0 and 1"),
        (DuplicatedSubset((0, 1, 2), 3, 5), "subset {0, 1, 2} in blocks 3 and 5"),
    ],
)
def test_witness_str(witness, text):
    assert str(witness) == text


def test_witness_list_truncates_but_total_is_exact():
    big = tuple(range(15))
    design = Design(15, (big, big), strength=2)  # every pair duplicated
    report = validate_packing(design)
    assert report.total_violations == 105  # C(15, 2)
    assert len(report.violations) == 100


def test_uncovered_points_are_counted_not_listed():
    # one pair among 10**12 points: the coverage check never walks them all
    report = validate_packing(Design(10**12, ((0, 1),), strength=2))
    assert report.total_violations == 10**12 - 2
    assert report.violations == tuple(UncoveredPoint(p) for p in range(2, 102))
    # witnesses in point order between the covered ones, after the empty blocks
    report = validate_packing(Design(8, ((1, 3), (), (5,)), strength=2))
    assert report.violations == (
        EmptyBlock(1), *(UncoveredPoint(p) for p in (0, 2, 4, 6, 7))
    )
    assert report.total_violations == 6
    # 99 empty blocks leave room for one uncovered witness of 199
    report = validate_packing(Design(200, ((),) * 99 + ((5,),), strength=2))
    assert report.violations[98:] == (EmptyBlock(98), UncoveredPoint(0))
    assert report.total_violations == 99 + 199


def test_subset_scan_refuses_designs_over_the_budget(fano_by_hand, monkeypatch):
    # C(60, 30) ~ 1.2e17 subsets: refused at once instead of enumerated
    whole = Design(60, (tuple(range(60)),), strength=30)
    with pytest.raises(ValueError, match="above the cap of 10000000"):
        validate_packing(whole)
    # the count is the closed form sum of C(|B|, strength): 7 * 3 for Fano
    monkeypatch.setattr(designs, "MAX_REGISTERED_SUBSETS", 21)
    assert validate_packing(fano_by_hand).valid
    assert rectangle_free(fano_by_hand)
    monkeypatch.setattr(designs, "MAX_REGISTERED_SUBSETS", 20)
    with pytest.raises(ValueError, match="21 2-subsets"):
        validate_packing(fano_by_hand)
    with pytest.raises(ValueError, match="above the cap of 20"):
        rectangle_free(fano_by_hand)


def test_structural_errors_raise():
    with pytest.raises(ValueError):
        Design(2, ((0, 2),), strength=2)  # id out of range
    with pytest.raises(ValueError):
        Design(3, ((0, 0),), strength=2)  # duplicate id in block
    with pytest.raises(ValueError):
        Design(3, ((1, 0),), strength=2)  # not ascending
    with pytest.raises(ValueError):
        Design(3, ((0, 1, 2),), strength=0)
    with pytest.raises(ValueError):
        Design(2, ((0, 1),), strength=2, labels=("only-one",))


def test_strength_one_means_disjoint_blocks():
    assert validate_packing(Design(3, ((0,), (1,), (2,)), strength=1)).valid
    report = validate_packing(Design(2, ((0, 1), (1,)), strength=1))
    assert report.violations == (DuplicatedSubset((1,), 0, 1),)


def test_strength_three_checks_triples_not_pairs():
    # blocks share a pair but no triple: fine at strength 3
    ok = Design(6, ((0, 1, 2, 3), (0, 1, 4, 5)), strength=3)
    assert validate_packing(ok).valid
    bad = Design(5, ((0, 1, 2, 3), (0, 1, 2, 4)), strength=3)
    report = validate_packing(bad)
    assert report.violations == (DuplicatedSubset((0, 1, 2), 0, 1),)


def test_validity_matches_naive_oracle_on_random_packings():
    for seed in range(20):
        design = random_packing(
            point_count=6 + seed % 5,
            block_size=2 + seed % 3,
            strength=2,
            target_blocks=3,
            seed=seed,
        )
        assert validate_packing(design).valid == naive_packing_valid(design)


def _relabeled_shuffle(design, seed):
    rng = random.Random(seed)
    blocks = list(design.blocks)
    rng.shuffle(blocks)
    relabel = list(range(design.point_count))
    rng.shuffle(relabel)
    return Design(
        design.point_count,
        tuple(tuple(sorted(relabel[p] for p in block)) for block in blocks),
        strength=design.strength,
    )


def test_validity_is_order_insensitive(fano_by_hand):
    assert validate_packing(_relabeled_shuffle(fano_by_hand, 7)).valid
    # an invalid design keeps its exact violation count under relabeling
    bad = Design(4, ((0, 1, 2), (0, 1, 3)), strength=2)
    for seed in range(5):
        moved = _relabeled_shuffle(bad, seed)
        report = validate_packing(moved)
        assert not report.valid
        assert report.total_violations == 1


def test_is_steiner_on_fano(fano_by_hand):
    assert is_steiner(fano_by_hand, 3)
    assert not is_steiner(fano_by_hand, 2)  # wrong block size
    # removing any block uncovers its pairs
    pruned = Design(7, fano_by_hand.blocks[1:], strength=2)
    assert not is_steiner(pruned, 3)


def test_ag22_is_the_complete_pair_design(ag22):
    # independent enumeration: the 6 blocks are exactly all 2-subsets of 4 points
    assert sorted(ag22.blocks) == sorted(combinations(range(4), 2))
    assert is_steiner(ag22, 2)


def test_is_pairwise_balanced(fano_by_hand, grid2):
    assert is_pairwise_balanced(fano_by_hand)
    # a singleton block breaks the at-least-two-points condition
    with_singleton = Design(3, ((0, 1), (0, 2), (1, 2), (2,)), strength=2)
    assert validate_packing(with_singleton).valid
    assert not is_pairwise_balanced(with_singleton)
    assert not is_pairwise_balanced(grid2)
    with pytest.raises(ValueError):
        is_pairwise_balanced(Design(2, ((0, 1),), strength=3))


def test_grid2_has_a_covered_but_unjoined_pair(grid2):
    # exhibit two points that lie in blocks yet share none: same x-column
    # points are never on a common line
    pair_owner = set()
    for block in grid2.blocks:
        pair_owner.update(combinations(block, 2))
    missing = [
        pair for pair in combinations(range(grid2.point_count), 2)
        if pair not in pair_owner
    ]
    assert missing, "expected at least one uncovered pair"


def test_incidence_count(fano_by_hand, ag22):
    assert incidence_count(fano_by_hand) == 21
    assert incidence_count(ag22) == 12
    assert incidence_count(Design(0, (), strength=2)) == 0


def test_rectangle_free(fano_by_hand, grid2):
    assert rectangle_free(fano_by_hand)
    assert not rectangle_free(Design(2, ((0, 1), (0, 1)), strength=2))
    assert rectangle_free(grid2)
    # agreement with the brute-force 2x2 submatrix search
    assert incidence_matrix_has_rectangle(fano_by_hand) is False
    assert incidence_matrix_has_rectangle(grid2) is False
    assert incidence_matrix_has_rectangle(
        Design(2, ((0, 1), (0, 1)), strength=2)
    )


@st.composite
def _random_designs(draw):
    """Structurally sound designs over 1-7 points, most of them invalid."""
    point_count = draw(st.integers(1, 7))
    block = st.sets(st.integers(0, point_count - 1)).map(sorted).map(tuple)
    blocks = draw(st.lists(block, max_size=6))
    return Design(point_count, tuple(blocks), strength=draw(st.integers(1, 3)))


@settings(max_examples=150)
@given(_random_designs())
def test_rectangle_free_matches_matrix_search(design):
    assert rectangle_free(design) != incidence_matrix_has_rectangle(design)


def test_valid_strength2_designs_are_rectangle_free(fano_by_hand, ag22, grid2):
    for design in (fano_by_hand, ag22, grid2):
        assert validate_packing(design).valid
        assert rectangle_free(design)
    for seed in range(10):
        design = random_packing(8, 3, 2, 4, seed=seed)
        assert validate_packing(design).valid
        assert rectangle_free(design)


def test_fisher_holds(fano_by_hand, ag23):
    assert fisher_holds(fano_by_hand)  # 7 <= 7
    assert fisher_holds(ag23)  # 9 <= 12
    assert not fisher_holds(Design(3, ((0, 1, 2),), strength=2))


def test_fisher_and_de_bruijn_on_constructed_planes(fano_by_hand, ag22, ag23):
    """Steiner designs with block size below the point count, and pairwise
    balanced designs with no all-covering block, never have more points
    than blocks."""
    from ramsey_forge import affine_plane, projective_plane

    instances = [fano_by_hand, ag22, ag23]
    instances += [projective_plane(p) for p in (2, 3, 5)]
    instances += [affine_plane(p) for p in (2, 3, 5)]
    for design in instances:
        block_sizes = {len(block) for block in design.blocks}
        k = block_sizes.pop()
        assert not block_sizes  # uniform block size on these instances
        assert is_steiner(design, k)
        assert k < design.point_count
        assert fisher_holds(design)
        assert is_pairwise_balanced(design)
        assert all(len(block) < design.point_count for block in design.blocks)
        assert design.point_count <= len(design.blocks)


def test_json_round_trip(fano):
    text = design_to_json(fano)
    back = design_from_json(text)
    assert back == fano
    assert design_to_json(back) == text


@settings(max_examples=100)
@given(packings((1, 2, 3, 4), max_vertices=40))
def test_json_round_trip_on_random_packings(od):
    text = design_to_json(od.design)
    back = design_from_json(text)
    assert back == od.design
    assert design_to_json(back) == text


def test_json_rejects_malformed_documents():
    with pytest.raises(ValueError):
        design_from_json("not json at all {")
    with pytest.raises(ValueError):
        design_from_json('{"point_count": 2, "strength": 2}')  # no blocks
    with pytest.raises(ValueError):
        design_from_json(
            '{"point_count": 2, "strength": 2, "blocks": [[0, 1]], "extra": 1}'
        )
    with pytest.raises(ValueError):
        design_from_json('{"point_count": 2, "strength": 2, "blocks": [[1, 0]]}')
    with pytest.raises(ValueError):
        design_from_json('{"point_count": 2, "strength": 2, "blocks": [[0, 5]]}')
    with pytest.raises(ValueError):  # JSON booleans are not integers
        design_from_json('{"point_count": true, "strength": true, "blocks": [[0]]}')
    with pytest.raises(ValueError):
        design_from_json('{"point_count": 2, "strength": 2, "blocks": [[false, true]]}')
