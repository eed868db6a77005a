"""Seeded draws of the random density families, pinned value by value: a
change of draw order or of arithmetic shows here, not only as two runs of one
tree disagreeing."""

import numpy as np
import pytest

from cube_transport import Grid, unit_cube_grid
from cube_transport.families import (draw_trig_coeffs, random_center_test_function,
                                     random_smooth_density, trig_density)


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


def test_seeded_field_draws_on_an_off_origin_grid_are_pinned():
    grid = Grid(2, 4, [-1.0, -1.0], 2.0)
    rng = np.random.default_rng(5)
    u = random_center_test_function(rng, grid)
    f = trig_density(draw_trig_coeffs(rng, 2, 0.3), grid)
    assert u.ravel()[[1, 6, -1]].tolist() == [-2.364017373895707, -3.609562575355297,
                                              2.0779927303270638]
    assert f.values.ravel()[[1, 6, -1]].tolist() == [0.23553535248288188, 0.5247101481566275,
                                                     0.22074597177808086]
