"""Seeded draws of the random density families, pinned value by value: a
change of draw order or of arithmetic shows here, not only as two runs of one
tree disagreeing."""

import numpy as np
import pytest

from cube_transport import unit_cube_grid
from cube_transport.families import random_center_test_function, random_smooth_density


@pytest.mark.parametrize("dim,m,density,center,after", [
    pytest.param(1, 8, [1.751198252078252, 0.11730145859130435, 1.0428768427579755],
                 [0.7225995384724088, 0.34793802240270566, -0.563590957763833],
                 1.4844055856837017, id="1d"),
    pytest.param(2, 5, [7.549933693867024, 0.9288620022090985, 0.3108987396703584],
                 [-0.9609506359641976, -0.171166465094152, -2.7617732760227645],
                 -0.25228975964635664, id="2d"),
])
def test_seeded_field_draws_are_pinned(dim, m, density, center, after):
    # cells 0, 3 and the last; then the stream position after both draws
    grid = unit_cube_grid(dim, m)
    rng = np.random.default_rng(2024)
    f = random_smooth_density(rng, grid)
    u = random_center_test_function(rng, grid)
    assert f.values.ravel()[[0, 3, -1]].tolist() == density
    assert u.ravel()[[0, 3, -1]].tolist() == center
    assert rng.normal() == after
