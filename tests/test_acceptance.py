"""Acceptance suite: one test per criterion, zero tolerance on counts.

Each test prints a PASS/FAIL line with its elapsed time (run with ``-s`` to
see them).  Criteria, in order:

  1  projective family counts, triangle-freeness, greedy/upper/chromatic
  2  affine family counts plus exact alpha inside [greedy, upper]
  3  exact-size family for every n in 1..300 with the n**(2/3) cap
  4  grid-line family counts and rectangle-freeness
  5  exact solver vs full 2**v enumeration on 50 random packings
  6  greedy is a half-approximation on the Steiner/PBD instances
  7  incidence inequalities on every constructed + random strength-2 design
  8  K4-/K5-freeness for strength-3/-4 packings
  9  order robustness on 20 random point orders
 10  byte-identical sweep reports across runs
"""

import math
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from ramsey_forge import (
    OrderedDesign,
    affine_plane,
    any_n_alpha_cap,
    build_gamma,
    check_clique_free,
    chromatic_lower_bound,
    exact_max_independent_set,
    greedy_independent_set,
    grid_line_design,
    incidence_count,
    is_pairwise_balanced,
    is_steiner,
    projective_plane,
    random_packing,
    ravsky_lower_bound,
    ravsky_quadratic_check,
    rectangle_free,
    trim_to_n,
    upper_bound_alpha,
    validate_packing,
    verify_independent,
)
from oracles import enumerate_alpha

SRC = Path(__file__).resolve().parent.parent / "src"


@contextmanager
def criterion(label):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {label}: FAIL ({time.perf_counter() - start:.2f}s)")
        raise
    print(f"criterion {label}: PASS ({time.perf_counter() - start:.2f}s)")


def _graph(design, seed=None):
    od = (
        OrderedDesign.id_order(design)
        if seed is None
        else OrderedDesign.random_order(design, seed)
    )
    return od, build_gamma(od)


def test_criterion_1_projective_family():
    with criterion("1 (projective family)"):
        for p in (2, 3, 5, 7):
            plane = projective_plane(p)
            od, g = _graph(plane)
            assert g.n_vertices == (p * p + p + 1) * (p + 1)
            assert check_clique_free(g, 3) is None
            greedy = greedy_independent_set(g)
            assert greedy.size == p * p + p + 1
            assert verify_independent(g, greedy)
            assert upper_bound_alpha(plane) == 2 * (p * p + p + 1)
            assert chromatic_lower_bound(plane) == Fraction(p + 1, 2)


def test_criterion_2_affine_family():
    with criterion("2 (affine family)"):
        for p in (2, 3, 5):
            plane = affine_plane(p)
            od, g = _graph(plane)
            assert g.n_vertices == p**3 + p**2
            assert check_clique_free(g, 3) is None
            greedy = greedy_independent_set(g)
            assert greedy.size == p * p + p
            assert upper_bound_alpha(plane) == 2 * p * p + p
            if p in (2, 3):  # 12 and 36 vertices: exactly solvable
                alpha = exact_max_independent_set(g).size
                assert greedy.size <= alpha <= upper_bound_alpha(plane)


def test_criterion_3_any_n_family():
    with criterion("3 (exact-size family, n = 1..300)"):
        for n in range(1, 301):
            design, trace = trim_to_n(n)
            od, g = _graph(design)
            assert g.n_vertices == n
            assert check_clique_free(g, 3) is None
            greedy = greedy_independent_set(g)
            assert greedy.size == len(design.blocks)
            assert upper_bound_alpha(design) <= math.ceil(any_n_alpha_cap(n))
            assert trace.n <= trace.k**3 + trace.k**2 <= 6 * trace.n
            assert trace.k <= trace.p <= 2 * trace.k


def test_criterion_4_grid_family():
    with criterion("4 (grid-line family)"):
        for N in (1, 2, 3, 4):
            design = grid_line_design(N)
            od, g = _graph(design)
            assert g.n_vertices == N**4
            assert check_clique_free(g, 3) is None
            greedy = greedy_independent_set(g)
            assert greedy.size == N**3
            # greedy equals vertices**(3/4) exactly, as an integer identity
            assert greedy.size**4 == g.n_vertices**3
            assert rectangle_free(design)


def _small_random_packings():
    """50 seeded strength-2 packings, each with at most 20 incidences."""
    designs = []
    for seed in range(50):
        points = 5 + seed % 5
        size = 2 + seed % 2
        target = 2 + (seed // 2) % (2 if size == 3 else 3)
        designs.append(random_packing(points, size, 2, target, seed=seed))
    return designs


def test_criterion_5_exact_oracle_equivalence():
    with criterion("5 (exact solver vs 2**v enumeration, 50 packings)"):
        for design in _small_random_packings():
            od, g = _graph(design)
            assert g.n_vertices <= 20
            alpha = exact_max_independent_set(g).size
            assert alpha == enumerate_alpha(g.adjacency)
            a, b = design.point_count, len(design.blocks)
            assert b <= alpha <= a + b
            assert alpha >= math.ceil(a / b)


def test_criterion_6_half_approximation():
    with criterion("6 (half-approximation on Steiner/PBD instances)"):
        instances = []
        for p in (2, 3, 5, 7):
            plane = projective_plane(p)
            assert is_steiner(plane, p + 1)
            assert is_pairwise_balanced(plane)
            instances.append(plane)
        for p in (2, 3, 5):
            plane = affine_plane(p)
            assert is_steiner(plane, p)
            assert is_pairwise_balanced(plane)
            instances.append(plane)
        for design in instances:
            a, b = design.point_count, len(design.blocks)
            assert a <= b
            od, g = _graph(design)
            greedy = greedy_independent_set(g)
            assert 2 * greedy.size >= upper_bound_alpha(design)


def test_criterion_7_ravsky_checks():
    with criterion("7 (incidence inequalities)"):
        designs = [projective_plane(p) for p in (2, 3, 5, 7)]
        designs += [affine_plane(p) for p in (2, 3, 5)]
        designs += [grid_line_design(N) for N in (1, 2, 3, 4)]
        designs += [trim_to_n(n)[0] for n in range(1, 101, 7)]
        for seed in range(100):
            designs.append(
                random_packing(6 + seed % 8, 2 + seed % 3, 2, 1 + seed % 5, seed=seed)
            )
        for design in designs:
            assert validate_packing(design).valid
            assert ravsky_quadratic_check(design)
            n = incidence_count(design)
            assert upper_bound_alpha(design) > ravsky_lower_bound(n)


def test_criterion_8_higher_clique_freeness():
    with criterion("8 (K4/K5-freeness of strength-3/-4 packings)"):
        for seed in range(20):
            design = random_packing(10 + seed % 5, 4, 3, 4 + seed % 3, seed=seed)
            od, g = _graph(design)
            assert g.n_vertices <= 60
            assert g.m == 4
            assert check_clique_free(g, 4) is None
        for seed in range(5):
            design = random_packing(12 + seed, 5, 4, 4, seed=seed)
            od, g = _graph(design)
            assert g.n_vertices <= 60
            assert g.m == 5
            assert check_clique_free(g, 5) is None


def test_criterion_9_order_robustness():
    with criterion("9 (order robustness on the 7-point plane)"):
        plane = projective_plane(2)
        alphas = []
        for seed in range(20):
            od, g = _graph(plane, seed)
            assert check_clique_free(g, 3) is None
            greedy = greedy_independent_set(g)
            assert greedy.size == 7
            alpha = exact_max_independent_set(g).size
            alphas.append(alpha)
            assert 7 <= alpha <= 14
        print(f"  recorded exact alphas across orders: {sorted(set(alphas))}")


def test_criterion_10_sweep_determinism(tmp_path):
    with criterion("10 (sweep determinism, n = 1..100)"):
        outputs = []
        for name in ("first.csv", "second.csv"):
            path = tmp_path / name
            proc = subprocess.run(
                [
                    sys.executable, "-m", "ramsey_forge", "sweep",
                    "--n", "1..100", "--out", str(path),
                ],
                env=dict(os.environ, PYTHONPATH=str(SRC)),
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]
        assert len(outputs[0].splitlines()) == 101  # header + one row per n
