import pytest
from hypothesis import settings

from ramsey_forge import Design, affine_plane, grid_line_design, projective_plane

# Every property test draws the same examples on every run, with no time
# limit per example; each @settings only sets its example count.
settings.register_profile("derandomized", derandomize=True, deadline=None)
settings.load_profile("derandomized")

# Fano plane written out by hand (lines {i, i+1, i+3} mod 7), so design-level
# tests do not depend on the plane constructor they help validate.
FANO_BLOCKS = (
    (0, 1, 3),
    (1, 2, 4),
    (2, 3, 5),
    (3, 4, 6),
    (0, 4, 5),
    (1, 5, 6),
    (0, 2, 6),
)


@pytest.fixture
def fano_by_hand():
    return Design(point_count=7, blocks=FANO_BLOCKS, strength=2)


@pytest.fixture
def fano():
    return projective_plane(2)


@pytest.fixture
def ag22():
    return affine_plane(2)


@pytest.fixture
def ag23():
    return affine_plane(3)


@pytest.fixture
def grid2():
    return grid_line_design(2)
