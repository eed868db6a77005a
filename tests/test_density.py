"""Grid geometry, spec parsing, density builders, convexity diagnostics."""

import dataclasses
import itertools
import tracemalloc
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import loop_oracles

from cube_transport import (
    ConvexPower,
    CustomGrid,
    DegenerateDensityError,
    DensityError,
    EquicorrelatedGaussian,
    ExponentialTilt,
    Grid,
    GridDensity,
    RestrictedGaussian,
    Uniform,
    build_density,
    check_midpoint_log_concavity,
    estimate_axis_convexity_ratio,
    estimate_diag_second_derivative_bound,
    marginalize_last,
    normalize,
    spec_from_dict,
    unit_cube_grid,
)
from cube_transport import cli, density, families
from cube_transport.density import _FULL_SCAN_MAX_CELLS, _midpoint_directions
from cube_transport.families import (draw_trig_coeffs, random_center_test_function,
                                     random_logconcave_spec_nd, random_smooth_density,
                                     trig_density)


# ---------------------------------------------------------------- grid


def test_unit_grid_geometry():
    grid = unit_cube_grid(2, 8)
    assert grid.h == pytest.approx(1.0 / 8)
    assert grid.shape == (8, 8)
    assert grid.n_cells == 64
    assert grid.cell_volume == pytest.approx(1.0 / 64)
    np.testing.assert_allclose(grid.axis_nodes(0), np.linspace(0.0, 1.0, 9))
    np.testing.assert_allclose(grid.axis_centers(0), (np.arange(8) + 0.5) / 8)


def test_grid_is_dim_and_m_on_the_unit_cube():
    # origin and side are the cube's constants, not fields
    with pytest.raises(TypeError):
        Grid(2, 4, [0.0, 0.5], 1.0)
    assert [f.name for f in dataclasses.fields(Grid)] == ["dim", "cells_per_axis"]
    assert (Grid.origin, Grid.side) == (0.0, 1.0)
    assert Grid(2, 4) == unit_cube_grid(2, 4)
    assert hash(Grid(2, 4)) == hash(unit_cube_grid(2, 4))
    assert Grid(2, 4) != Grid(2, 5) and Grid(2, 4) != Grid(3, 4)


def test_cell_index_interior_and_clamping():
    grid = unit_cube_grid(1, 10)
    x = np.array([0.05, 0.999, 0.0, 1.0, -3.0, 4.0])
    np.testing.assert_array_equal(grid.cell_index(x), [0, 9, 0, 9, 0, 9])
    # every axis has the same nodes, so (N, dim) points take one call
    points = np.array([[0.1, 0.6], [0.3, 1.3], [0.99, -0.49]])
    np.testing.assert_array_equal(unit_cube_grid(2, 4).cell_index(points),
                                  [[0, 2], [1, 3], [3, 0]])
    assert unit_cube_grid(1, 8).cell_index(0.3) == 2


def test_axis_nodes_and_centers_name_their_axis():
    grid = unit_cube_grid(2, 4)
    for coordinates in (grid.axis_nodes, grid.axis_centers):
        with pytest.raises(TypeError):
            coordinates()
    np.testing.assert_array_equal(grid.axis_nodes(1), [0.0, 0.25, 0.5, 0.75, 1.0])
    np.testing.assert_array_equal(grid.axis_centers(1), [0.125, 0.375, 0.625, 0.875])


def test_cell_index_is_the_node_rule_for_every_m_to_5000():
    # at every node, the floats on either side of it, points off the cube,
    # +-inf and nan, cell_index is the last node <= x, clamped to the cube
    off = np.array([1e-3, 1.0, 1e3])
    for m in range(1, 5001):
        grid = unit_cube_grid(1, m)
        nodes = grid.axis_nodes(0)
        x = np.concatenate([nodes, np.nextafter(nodes, -np.inf), np.nextafter(nodes, np.inf),
                            -off, 1.0 + off, [-np.inf, np.inf, np.nan]])
        want = np.clip(np.searchsorted(nodes, x, "right") - 1, 0, m - 1)
        np.testing.assert_array_equal(grid.cell_index(x), want)
        np.testing.assert_array_equal(grid.cell_index(nodes[:-1]), np.arange(m))


def test_cell_index_is_the_node_rule_on_random_grids():
    # (N, dim) points on unit grids of random dim and m < 5000, each column
    # the nodes, the floats on either side of them, points off the cube, +-inf
    # and nan in its own order: every coordinate lies in the node rule's cell
    rng = np.random.default_rng(29)
    for _ in range(200):
        dim, m = int(rng.integers(1, 5)), int(rng.integers(1, 5000))
        grid = unit_cube_grid(dim, m)
        nodes = grid.axis_nodes(0)
        x = np.concatenate([nodes, np.nextafter(nodes, -np.inf), np.nextafter(nodes, np.inf),
                            rng.uniform(-2.0, 3.0, 50), [-np.inf, np.inf, np.nan]])
        points = np.stack([rng.permutation(x) for _ in range(dim)], axis=1)
        want = np.clip(np.searchsorted(nodes, points, "right") - 1, 0, m - 1)
        np.testing.assert_array_equal(grid.cell_index(points), want)


@pytest.mark.parametrize("args, match", [
    ((1, 2 ** 53), "two ulps"),
    ((1, 2 ** 52), "two ulps"),
    ((1, 2 ** 51), "two ulps"),
    ((2, 3.7), "cells_per_axis must be an integer"),
    ((2.0, 3), "dim must be an integer"),
    ((True, 3), "dim must be an integer"),
    ((1, "8"), "cells_per_axis must be an integer"),
], ids=["cells-narrower-than-an-ulp", "m-2^52", "m-2^51", "m-3.7", "dim-2.0", "dim-bool", "m-string"])
def test_grid_rejects_cells_without_floats_and_non_integral_sizes(args, match):
    # 2^53 cells are half an ulp of 1 wide, 2^52 cells one ulp, 2^51 cells
    # two; unit_cube_grid(2, 3.7) built 3 cells per axis
    with pytest.raises(DensityError, match=match):
        Grid(*args)


@pytest.mark.parametrize("grid", [unit_cube_grid(1, 2 ** 24), Grid(1, 2 ** 51 - 1),
                                  Grid(1, np.int64(5))],
                         ids=["unit-2^24", "unit-2^51-1", "numpy-int"])
def test_grid_accepts_narrow_cells_that_hold_floats(grid):
    # 2^24 unit cells are 2^28 ulps of 1 wide; 2^51 - 1 cells, the most,
    # just over two
    x = np.array([0, 1, 3, grid.cells_per_axis]) * grid.h
    np.testing.assert_array_equal(grid.cell_index(x), [0, 1, 3, grid.cells_per_axis - 1])


def test_drop_last_axis():
    grid = unit_cube_grid(3, 4)
    assert grid.drop_last_axis() == unit_cube_grid(2, 4)
    with pytest.raises(DensityError, match="1d grid"):
        unit_cube_grid(1, 4).drop_last_axis()


# ---------------------------------------------------------------- builders


def test_uniform_mass_one():
    d = build_density(Uniform(), unit_cube_grid(2, 16))
    assert d.total_mass == pytest.approx(1.0, abs=1e-12)
    assert np.ptp(d.values) == 0.0


def test_exponential_tilt_matches_closed_form():
    # exact midpoint values of exp(t x) / (e^t - 1) * t on [0, 1]
    t = 1.7
    grid = unit_cube_grid(1, 256)
    d = build_density(ExponentialTilt((t,)), grid)
    centers = grid.axis_centers(0)
    z = (np.exp(t) - 1.0) / t
    # builder normalizes by the grid sum, not the continuum integral, so
    # compare shapes cell by cell after matching total mass
    expected = np.exp(t * centers)
    expected *= d.values.sum() / expected.sum()
    np.testing.assert_allclose(d.values, expected, rtol=1e-12)
    # the grid normalizer tends to the continuum one as m grows
    assert d.values[128] * z == pytest.approx(np.exp(t * centers[128]), rel=1e-4)


def test_restricted_gaussian_shape():
    grid = unit_cube_grid(1, 64)
    d = build_density(RestrictedGaussian((0.5,), ((4.0,),)), grid)
    x = grid.axis_centers(0) - 0.5
    expected = np.exp(-2.0 * x**2)
    expected /= expected.sum() * grid.cell_volume
    np.testing.assert_allclose(d.values, expected, rtol=1e-12)


def test_convex_power_requires_positive_argument():
    grid = unit_cube_grid(1, 8)
    with pytest.raises(DensityError, match="must stay positive"):
        build_density(ConvexPower(-0.5, (1.0,), 2.0), grid)


def test_convex_power_linear_density():
    grid = unit_cube_grid(1, 200)
    d = build_density(ConvexPower(0.0, (2.0,), 1.0), grid)
    x = grid.axis_centers(0)
    np.testing.assert_allclose(d.values, 2.0 * x / (2.0 * x).mean() , rtol=1e-12)


def test_custom_grid_round_trips_values():
    grid = unit_cube_grid(2, 4)
    vals = np.arange(1.0, 17.0).reshape(4, 4)
    d = build_density(CustomGrid(vals), grid)
    np.testing.assert_allclose(d.values * d.total_mass / 1.0,
                               vals / (vals.sum() * grid.cell_volume) * d.total_mass)


def test_equicorrelated_inverse_covariance():
    spec = EquicorrelatedGaussian(scale=0.2)
    inv = np.asarray(spec.inverse_covariance(3))
    cov = 0.04 * (np.eye(3) + np.ones((3, 3)))
    np.testing.assert_allclose(inv @ cov, np.eye(3), atol=1e-12)


def test_build_rejects_a_spec_of_no_variant():
    # a config object, not a spec: check_shapes names its class
    with pytest.raises(DensityError, match="unknown density spec dict"):
        build_density({"variant": "uniform"}, unit_cube_grid(1, 4))


def test_build_rejects_negative_values():
    grid = unit_cube_grid(1, 4)
    with pytest.raises(DensityError):
        build_density(CustomGrid(np.array([1.0, -0.5, 1.0, 1.0])), grid)


def test_normalize_zero_mass_degenerate():
    grid = unit_cube_grid(1, 4)
    d = GridDensity(grid, np.zeros(4))
    with pytest.raises(DegenerateDensityError):
        normalize(d)


def test_normalize_idempotent():
    grid = unit_cube_grid(2, 8)
    rng = np.random.default_rng(3)
    d = normalize(GridDensity(grid, rng.uniform(0.5, 2.0, grid.shape)))
    again = normalize(d)
    np.testing.assert_allclose(again.values, d.values, rtol=1e-14)
    assert d.is_normalized()


# ---------------------------------------------------------------- open centers


def test_open_centers_broadcast_to_the_full_meshes():
    grid = unit_cube_grid(3, 5)
    x = grid.open_centers()
    assert [a.shape for a in x] == [(5, 1, 1), (1, 5, 1), (1, 1, 5)]
    mesh = loop_oracles.full_mesh(grid)
    assert all(np.array_equal(a, b) and a.shape == grid.shape
               for a, b in zip(grid.centers_mesh(), mesh))
    assert np.array_equal(grid.centers(), np.stack([c.reshape(-1) for c in mesh], axis=1))


@st.composite
def field_cases(draw):
    """A grid with d = 1-5 and m from 1, and a seed."""
    dim = draw(st.integers(min_value=1, max_value=5))
    m = draw(st.integers(min_value=1, max_value=(64, 24, 10, 6, 4)[dim - 1]))
    return Grid(dim, m), draw(st.integers(min_value=0, max_value=2 ** 32))


def every_spec(grid, rng):
    dim = grid.dim
    yield Uniform()
    yield ExponentialTilt(tuple(rng.uniform(-3.0, 3.0, dim)))
    spec = random_logconcave_spec_nd(rng, dim, grid.origin, grid.side)
    yield spec
    # a sparse inverse covariance: zero entries add no term
    yield RestrictedGaussian(spec.center, tuple(map(tuple, np.diag(rng.uniform(0.5, 4.0, dim)))))
    yield EquicorrelatedGaussian(float(rng.uniform(0.05, 1.0)))
    direction = rng.uniform(-2.0, 2.0, dim)
    for power in (1.0, 2.0, 0.5, float(rng.uniform(-3.0, 4.0))):
        yield ConvexPower(1.0 + float(np.abs(direction).sum()), tuple(direction), power)
    yield CustomGrid(rng.uniform(0.1, 2.0, grid.shape))


@given(case=field_cases())
@settings(max_examples=150, deadline=None)
def test_fields_are_bitwise_the_full_mesh_fields(case):
    grid, seed = case
    rng = np.random.default_rng(seed)
    for spec in every_spec(grid, rng):
        got, want = build_density(spec, grid), loop_oracles.build_density(spec, grid)
        assert np.array_equal(got.values, want.values), spec
    coeffs = draw_trig_coeffs(rng, grid.dim)
    for omega in (2.0 * np.pi, np.pi):
        assert np.array_equal(families._mode_field(coeffs, grid, omega),
                              loop_oracles.mode_field(coeffs, grid, omega))
    want = normalize(GridDensity(grid, np.exp(loop_oracles.mode_field(coeffs, grid, 2.0 * np.pi))))
    assert np.array_equal(trig_density(coeffs, grid).values, want.values)
    state = rng.bit_generator.state
    u = random_center_test_function(rng, grid)
    rng.bit_generator.state = state
    scale = 1.0 / np.arange(1, families.MAX_FREQUENCY + 1, dtype=float)[:, None]
    coeffs = rng.normal(0.0, scale, size=(grid.dim, families.MAX_FREQUENCY, 2))
    assert np.array_equal(u, loop_oracles.mode_field(coeffs, grid, np.pi) + rng.normal(0.0, 0.5))
    assert np.array_equal(cli._linear_product_target(grid).values,
                          loop_oracles.linear_product_target(grid).values)


def test_field_builders_peak_at_a_few_value_arrays():
    # full meshes cost dim arrays for the coordinates alone, and one more per
    # operation of each term; open centers leave the value array, the
    # normalized copy and one term or temporary
    grid = unit_cube_grid(3, 64)
    rng = np.random.default_rng(11)
    coeffs = draw_trig_coeffs(rng, 3)
    builders = [(spec, lambda spec=spec: build_density(spec, grid))
                for spec in every_spec(grid, rng)]
    builders += [("trig_density", lambda: trig_density(coeffs, grid)),
                 ("random_center_test_function", lambda: random_center_test_function(rng, grid)),
                 ("linear_product_target", lambda: cli._linear_product_target(grid))]
    for name, build in builders:
        tracemalloc.start()
        try:
            build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * grid.n_cells * 8, (name, peak / (grid.n_cells * 8))


@pytest.mark.parametrize("dim, m", [(1, 1024), (2, 256), (4, 16), (10, 4)])
def test_cell_masses_are_the_normalized_product(dim, m):
    grid = unit_cube_grid(dim, m)
    d = GridDensity(grid, np.random.default_rng([dim, m]).uniform(0.1, 2.0, grid.shape))
    w = d.values.reshape(-1) * grid.cell_volume
    np.testing.assert_array_equal(d.cell_masses(), w / w.sum())


def test_cell_masses_make_one_value_sized_array():
    d = GridDensity(unit_cube_grid(10, 4), np.ones((4,) * 10))
    tracemalloc.start()
    try:
        d.cell_masses()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * d.values.nbytes, peak / d.values.nbytes


# ---------------------------------------------------------------- diagnostics


def brute_force_axis_ratio(d: GridDensity) -> float:
    """Triple loop over same-axis center triples with even gaps, with the
    library's float expression and its floor at 1."""
    worst = 1.0
    vals = d.values
    for axis in range(d.grid.dim):
        moved = np.moveaxis(vals, axis, -1).reshape(-1, d.grid.cells_per_axis)
        m = moved.shape[1]
        for row in moved:
            for i in range(m):
                for k in range(i + 2, m, 2):
                    j = (i + k) // 2
                    worst = max(worst, float(2.0 * row[j] / (row[i] + row[k])))
    return worst


def spy_lines(monkeypatch, name: str) -> list:
    """Spy on density.<name>, the chord bounds (_chord_prune) or the full scan
    (_gap_scan): the number of lines handed to it, per call."""
    calls = []
    real = getattr(density, name)

    def spy(lines, *args):
        calls.append(lines.shape[1])
        return real(lines, *args)

    monkeypatch.setattr(density, name, spy)
    return calls


def pruned_lines(monkeypatch) -> list:
    return spy_lines(monkeypatch, "_chord_prune")


@pytest.mark.parametrize("dim,m,kind,full_scan_max", [
    pytest.param(1, 9, "random", _FULL_SCAN_MAX_CELLS, id="1-9"),
    pytest.param(2, 5, "random", _FULL_SCAN_MAX_CELLS, id="2-5"),
    pytest.param(1, 257, "gaussian", _FULL_SCAN_MAX_CELLS, id="1-257-gaussian"),
    pytest.param(1, 257, "random", _FULL_SCAN_MAX_CELLS, id="1-257-random"),
    pytest.param(2, 64, "gaussian", 63, id="2-64-gaussian-pruned"),
    pytest.param(2, 33, "tilt", 2, id="2-33-tilt-pruned"),
])
def test_axis_ratio_matches_brute_force(monkeypatch, dim, m, kind, full_scan_max):
    rng = np.random.default_rng(11 + dim)
    grid = unit_cube_grid(dim, m)
    if kind == "random":
        d = normalize(GridDensity(grid, rng.uniform(0.2, 3.0, grid.shape)))
    elif kind == "gaussian":
        d = build_density(random_logconcave_spec_nd(rng, dim, grid.origin, grid.side), grid)
    else:
        d = build_density(ExponentialTilt(tuple(rng.uniform(-3.0, 3.0, dim))), grid)
    monkeypatch.setattr(density, "_FULL_SCAN_MAX_CELLS", full_scan_max)
    calls = pruned_lines(monkeypatch)
    assert estimate_axis_convexity_ratio(d) == brute_force_axis_ratio(d)
    # log-concave lines above the size cut go through the pruning
    assert (sum(calls) > 0) == (kind != "random" and m > full_scan_max)


def test_axis_ratio_matches_gap_scan_at_benchmark_size(monkeypatch):
    # d=2 m=1024, the size where the pruning pays most: bit for bit the full scan
    grid = unit_cube_grid(2, 1024)
    spec = random_logconcave_spec_nd(np.random.default_rng([1, 1]), 2, grid.origin, grid.side)
    d = build_density(spec, grid)
    want = loop_oracles.axis_convexity_ratio(d)
    calls = pruned_lines(monkeypatch)
    scanned = spy_lines(monkeypatch, "_gap_scan")
    assert estimate_axis_convexity_ratio(d) == want
    # every line is certified, and the bounds leave none to the full scan
    assert calls == [1024, 1024]
    assert scanned == [0, 0]


def test_axis_ratio_scans_a_kinked_line_in_full(monkeypatch):
    # -log f = max(-i, -i / 2 - 50) / 50 turns less steep at cell 100: the
    # ratio peaks near 1.058 at an interior half-gap, far above L (near 1.005,
    # the ratios at h = 1 and at the widest gap), so the chord bound leaves the
    # line to the full scan
    i = np.arange(257.0)
    psi = 0.02 * np.maximum(-i, -0.5 * i - 50.0)
    d = GridDensity(unit_cube_grid(1, 257), np.exp(-psi))
    want = loop_oracles.axis_convexity_ratio(d)
    scale = max(1.0, float(np.abs(psi).max()))
    low, full = density._chord_prune(d.values[:, None], psi[:, None], scale, 1.0)
    assert low < 1.01 < 1.05 < want and full.tolist() == [True]
    calls = pruned_lines(monkeypatch)
    scanned = spy_lines(monkeypatch, "_gap_scan")
    assert estimate_axis_convexity_ratio(d) == want
    assert (calls, scanned) == ([1], [1])


def test_axis_ratio_of_uniform_is_one():
    # on both sides of the size cut between the full scan and the pruning
    for m in (8, _FULL_SCAN_MAX_CELLS, _FULL_SCAN_MAX_CELLS + 1):
        d = build_density(Uniform(), unit_cube_grid(2, m))
        assert estimate_axis_convexity_ratio(d) == 1.0


@pytest.mark.parametrize("slope", [-2.0, 1e-3, 0.7])
def test_axis_ratio_certifies_lines_convex_up_to_rounding(monkeypatch, slope):
    # a tilt's -log f has unit second differences of a few eps S: certified
    # and pruned. Raising -log f at one cell by 1e-10 makes a concave unit step
    # of 2e-10, beyond the certificate's 32 eps S (S <= 512 here): that line
    # is scanned in full
    grid = unit_cube_grid(1, 257)
    psi = slope * np.arange(257.0)
    calls = pruned_lines(monkeypatch)
    for bump, pruned in ((0.0, [1]), (1e-10, [0]), (1e-8, [0])):
        bent = psi.copy()
        bent[100] += bump
        d = GridDensity(grid, np.exp(-bent))
        calls.clear()
        assert estimate_axis_convexity_ratio(d) == brute_force_axis_ratio(d)
        assert calls == pruned


def test_axis_ratio_of_steep_gaussian_warns_nothing(monkeypatch):
    # cell values span about 300 orders of magnitude: chord slopes near 5 per
    # cell, log(-b / a) of slopes far apart and e^(a h) far out of range
    calls = pruned_lines(monkeypatch)
    for dim, m in ((1, 257), (2, 160)):
        grid = unit_cube_grid(dim, m)
        centre = np.array([0.1, 0.8][:dim])
        # psi = a |x - centre|^2 / 2 reaches 690 at the farthest cell
        a = 2.0 * 690.0 / ((grid.centers() - centre) ** 2).sum(axis=1).max()
        d = build_density(RestrictedGaussian(tuple(centre), tuple(map(tuple, a * np.eye(dim)))),
                          grid)
        assert 295.0 < np.log10(d.values.max()) - np.log10(d.values.min()) < 305.0
        calls.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = estimate_axis_convexity_ratio(d)
        assert got == loop_oracles.axis_convexity_ratio(d)
        assert sum(calls) > 0


def test_midpoint_log_concavity_accepts_gaussian():
    grid = unit_cube_grid(2, 16)
    d = build_density(RestrictedGaussian((0.5, 0.5), ((3.0, 0.5), (0.5, 2.0))), grid)
    ok, worst = check_midpoint_log_concavity(d)
    assert ok
    assert worst <= 1e-9


def test_midpoint_log_concavity_rejects_bimodal():
    grid = unit_cube_grid(1, 32)
    x = grid.axis_centers(0)
    bimodal = np.exp(-40.0 * (x - 0.2) ** 2) + np.exp(-40.0 * (x - 0.8) ** 2)
    d = normalize(GridDensity(grid, bimodal))
    ok, worst = check_midpoint_log_concavity(d)
    assert not ok
    assert worst > 1e-3


@st.composite
def midpoint_cases(draw):
    """A density on a grid with d <= 3 and m <= 16: a restricted Gaussian, an
    exponential tilt, a non-log-concave trigonometric density, or a tilt whose
    -log f carries a defect of size 1e-10 to 1e-8, either at one cell or as a
    concave bend along one axis (unit defect eps, gap-t defect t^2 eps)."""
    dim = draw(st.integers(min_value=1, max_value=3))
    m = draw(st.integers(min_value=1, max_value=16))
    grid = unit_cube_grid(dim, m)
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2 ** 32)))
    kind = draw(st.sampled_from(["gaussian", "tilt", "trig", "cell", "bend"]))
    if kind == "gaussian":
        return build_density(random_logconcave_spec_nd(rng, dim, grid.origin, grid.side), grid)
    if kind == "trig":
        return random_smooth_density(rng, grid, amplitude=draw(st.floats(0.05, 2.0)))
    idx = np.indices(grid.shape)
    psi = sum(rng.uniform(-3.0, 3.0) * ix for ix in idx) / m
    if kind != "tilt":
        # the listed sizes sit below tol = 1e-9 at unit step and above it at gap 2
        eps = draw(st.one_of(st.floats(min_value=1e-10, max_value=1e-8),
                             st.sampled_from([3e-10, 5e-10, 9e-10])))
        if kind == "cell":
            psi[tuple(rng.integers(0, m, size=dim))] += eps
        else:
            psi = psi - 0.5 * eps * idx[int(rng.integers(0, dim))] ** 2
    return GridDensity(grid, np.exp(-psi))


@given(d=midpoint_cases(), tol=st.sampled_from([0.0, 1e-15, 1e-12, 1e-9, 1e-9, 1e-6]))
@settings(max_examples=500, deadline=None)
def test_midpoint_log_concavity_matches_full_gap_scan(d, tol):
    got = check_midpoint_log_concavity(d, tol)
    want = loop_oracles.midpoint_log_concavity(d, tol)
    assert got[0] == want[0]
    gap = (d.grid.cells_per_axis - 1) // 2
    unit_decides = 4 * np.finfo(float).eps * gap ** 2 <= tol
    if loop_oracles.midpoint_log_concavity(d, tol, max_gap=1)[1] > 0.0 or not unit_decides:
        assert got == want  # the full scan ran: the same worst, bit for bit
    else:
        assert got == (True, 0.0)


@st.composite
def ratio_cases(draw):
    """midpoint_cases, or a density whose lines are hard on the ratio's
    pruning, on grids with d <= 2 and m <= 300 (1d) or 48 (2d): an
    off-centre sharp peak; a convex polyhedral -log f, where f(c - h) +
    f(c + h) has an interior minimum over h; a constant or a near-constant
    tilt, whose bounds tie with L; or a tilt whose -log f bends concavely by
    eps-sized steps, at the edge of the convexity certificate."""
    kind = draw(st.sampled_from(["midpoint", "peak", "kink", "flat", "bent"]))
    if kind == "midpoint":
        return draw(midpoint_cases())
    dim = draw(st.integers(min_value=1, max_value=2))
    m = draw(st.integers(min_value=3, max_value=300 if dim == 1 else 48))
    grid = unit_cube_grid(dim, m)
    idx = np.indices(grid.shape).astype(float)
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2 ** 32)))
    if kind == "peak":
        # psi = sum |i - peak|^p, p in [1, 2], scaled so that f spans up to 1e300
        peak = rng.uniform(-0.5, m - 0.5, dim)
        psi = sum(np.abs(ix - c) ** draw(st.floats(1.0, 2.0)) for ix, c in zip(idx, peak))
        psi *= draw(st.floats(1e-3, 690.0)) / max(psi.max(), 1e-300)
    elif kind == "kink":
        # psi = the max of 2-4 affine functions: at a kink where psi turns less
        # steep, the ratio peaks at an interior h that only the scan finds
        planes = rng.normal(size=(draw(st.integers(2, 4)), dim + 1))
        psi = np.max([p[0] + sum(c * ix for c, ix in zip(p[1:], idx)) for p in planes], axis=0)
        psi *= draw(st.floats(1e-3, 30.0)) / m
    elif kind == "flat":
        slopes = draw(st.lists(st.sampled_from([0.0, 1e-16, 1e-13, 1e-9, 1e-6, -1e-12]),
                               min_size=dim, max_size=dim))
        psi = sum(s * ix for s, ix in zip(slopes, idx)) + draw(st.floats(-5.0, 5.0))
    else:
        tilt = sum(rng.uniform(-3.0, 3.0) * ix for ix in idx) / m
        bend = draw(st.sampled_from([1e-17, 1e-16, 1e-15, 3e-15, 1e-14, 1e-13]))
        psi = tilt - 0.5 * bend * idx[int(rng.integers(0, dim))] ** 2
    return GridDensity(grid, np.exp(-psi))


@given(d=ratio_cases())
@settings(max_examples=400, deadline=None)
def test_axis_ratio_matches_full_gap_scan(d):
    want = loop_oracles.axis_convexity_ratio(d)
    assert estimate_axis_convexity_ratio(d) == want
    # every line longer than 2 cells through the pruning, too
    with mock.patch.object(density, "_FULL_SCAN_MAX_CELLS", 2):
        assert estimate_axis_convexity_ratio(d) == want


@st.composite
def convex_lines(draw):
    """-log f along one line of 7 to 200 cells, convex: a polyhedral kink, a
    power of the distance to a peak anywhere, or a tilt."""
    m = draw(st.integers(min_value=7, max_value=200))
    i = np.arange(m, dtype=float)
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2 ** 32)))
    kind = draw(st.sampled_from(["kink", "peak", "tilt"]))
    if kind == "kink":
        planes = rng.normal(size=(draw(st.integers(2, 4)), 2))
        psi = np.max([a + b * i for a, b in planes], axis=0)
    elif kind == "peak":
        psi = np.abs(i - rng.uniform(-0.5, m - 0.5)) ** draw(st.floats(1.0, 2.0))
    else:
        psi = rng.normal() * i
    psi = psi * draw(st.floats(1e-3, 300.0)) / max(np.abs(psi).max(), 1e-300)
    return psi[:, None]


@given(psi=convex_lines())
@settings(max_examples=300, deadline=None)
def test_chord_bounds_cover_every_ratio_and_are_tight(psi):
    # each centre c of the left half (widest half-gap H = c): with the library's
    # rounding allowance, the screen and the chord bound both exceed the largest
    # log ratio at half-gaps 2..H - 1; and the closed form is the chord bound,
    # max over real h in [2, H - 1] of log 2 - log(e^(a h) + e^(b h))
    f = np.exp(-psi)
    m, k = len(psi), (len(psi) - 1) // 2
    scale = max(1.0, float(np.abs(psi).max()))
    screened = density._screen_exceeds(psi, k, -np.inf)
    assert screened.shape == (k - 2, 1) and screened.all()
    for c in range(3, k + 1):
        h = np.arange(2, c)
        top = float(np.log(2.0 * f[c, 0] / (f[c - h, 0] + f[c + h, 0])).max())
        floor = top - np.finfo(float).eps * (scale * (2.0 * m * m + 128.0) + 4.0 * abs(top))
        assert density._screen_exceeds(psi, k, floor)[c - 3, 0]
        one = (np.array([c]), np.array([0]))
        assert density._chord_bound_exceeds(psi, *one, floor)[0]
        a, b = (psi[c, 0] - psi[0, 0]) / c, (psi[c, 0] - psi[2 * c, 0]) / c
        grid = np.linspace(2.0, c - 1.0, 20001)
        chord = float((np.log(2.0) - np.logaddexp(a * grid, b * grid)).max())
        assert not density._chord_bound_exceeds(psi, *one, chord + 1e-6 * (1.0 + abs(chord)))[0]


def test_midpoint_log_concavity_scans_every_gap_when_tol_is_below_rounding():
    # a tilt whose unit ratios all read >= 1 while its gap-2 ratio rounds to
    # 1 - 2^-53: at tol = 0 the unit steps cannot decide, so every gap is scanned
    d = GridDensity(unit_cube_grid(1, 5), np.array(
        [1.0, 1.1008828180804853, 1.2119429791448308, 1.3342072022338203, 1.4688057846984481]))
    assert loop_oracles.midpoint_log_concavity(d, max_gap=1)[1] == 0.0
    assert check_midpoint_log_concavity(d, 0.0) == (False, 2.0 ** -53)
    assert check_midpoint_log_concavity(d, 0.0) == loop_oracles.midpoint_log_concavity(d, 0.0)
    assert check_midpoint_log_concavity(d) == (True, 0.0)


def test_midpoint_log_concavity_bend_below_tol_at_unit_step():
    # unit defect 5e-10 <= tol, but 4 * 5e-10 > tol at gap 2: the full scan decides
    grid = unit_cube_grid(2, 9)
    i = np.indices(grid.shape)[0]
    d = GridDensity(grid, np.exp(0.5 * 5e-10 * i ** 2))
    assert 0.0 < loop_oracles.midpoint_log_concavity(d, max_gap=1)[1] <= 1e-9
    ok, worst = check_midpoint_log_concavity(d)
    assert not ok
    assert (ok, worst) == loop_oracles.midpoint_log_concavity(d)


def test_midpoint_log_concavity_lists_directions_once_and_only_for_a_gap(monkeypatch):
    calls = []

    def spy(dim):
        calls.append(dim)
        return _midpoint_directions(dim)

    monkeypatch.setattr("cube_transport.density._midpoint_directions", spy)
    for dim in (1, 3, 12):
        # m = 2 leaves no cell triple, so no direction is listed
        assert check_midpoint_log_concavity(build_density(Uniform(), unit_cube_grid(dim, 2))) \
            == (True, 0.0)
    assert calls == []
    # a unit defect below tol: the unit pass and the full scan share one list
    i = np.indices((9, 9))[0]
    assert not check_midpoint_log_concavity(GridDensity(unit_cube_grid(2, 9),
                                                        np.exp(0.5 * 5e-10 * i ** 2)))[0]
    assert calls == [2]


def _step(x, u, k):
    return tuple(c + k * e for c, e in zip(x, u))


def _second_difference(psi, x, u, t):
    """psi(x - t u) + psi(x + t u) - 2 psi(x), or None off the grid."""
    lo, hi = _step(x, u, -t), _step(x, u, t)
    if not all(0 <= c < psi.shape[0] for c in lo + hi):
        return None
    return psi[lo] + psi[hi] - 2 * psi[x]


@pytest.mark.parametrize("dim,m", [(1, 9), (2, 6), (3, 5)])
def test_gap_second_difference_is_tent_sum_of_unit_ones(dim, m):
    # exact arithmetic: along every direction u, the gap-t second difference
    # at x is the sum over |k| < t of (t - |k|) times the unit one at x + k u,
    # so unit-step convexity gives convexity at every gap
    rng = np.random.default_rng([dim, m])
    psi = np.array([Fraction(int(p), int(q)) for p, q in
                    zip(rng.integers(-50, 50, m ** dim), rng.integers(1, 9, m ** dim))],
                   dtype=object).reshape((m,) * dim)
    checked = 0
    for u in _midpoint_directions(dim):
        for x in itertools.product(range(m), repeat=dim):
            for t in range(2, m):
                gap = _second_difference(psi, x, u, t)
                if gap is not None:
                    ks = range(1 - t, t)
                    units = [_second_difference(psi, _step(x, u, k), u, 1) for k in ks]
                    assert gap == sum((t - abs(k)) * d2 for k, d2 in zip(ks, units))
                    checked += 1
    assert checked > 0


def test_unit_convex_psi_is_convex_at_every_gap_exactly():
    # psi, a sum of convex sequences of lattice projections, is unit-step
    # convex in exact arithmetic; then it is convex at every gap, and the
    # float check accepts exp(-psi)
    m = 7
    idx = np.indices((m, m))
    psi = np.zeros((m, m), dtype=object)
    for a, b in ((1, 0), (0, 1), (1, 1), (1, -1), (2, 1)):
        proj = a * idx[0] + b * idx[1]
        psi = psi + np.vectorize(lambda z: Fraction(abs(z - 3)) + Fraction(z * z, 7))(proj)
    points = list(itertools.product(range(m), repeat=2))
    for t in (1, 2, 3):
        diffs = [_second_difference(psi, x, u, t) for u in _midpoint_directions(2) for x in points]
        assert all(d2 >= 0 for d2 in diffs if d2 is not None)
    d = GridDensity(unit_cube_grid(2, m), np.exp(-psi.astype(float) / 10.0))
    assert check_midpoint_log_concavity(d) == (True, 0.0)


def test_diag_second_derivative_exact_for_standard_gaussian():
    # psi = |x|^2 / 2 has second difference exactly 1 along every direction
    grid = unit_cube_grid(2, 12)
    d = build_density(RestrictedGaussian((0.5, 0.5), ((1.0, 0.0), (0.0, 1.0))), grid)
    est = estimate_diag_second_derivative_bound(d)
    assert est == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("dim,m", [(1, 300), (2, 40), (3, 12)])
def test_diag_second_derivative_is_the_per_axis_maximum_bitwise(dim, m):
    # the centered second differences of -log f along each axis, divided by h^2
    rng = np.random.default_rng([dim, m])
    grid = unit_cube_grid(dim, m)
    for d in (build_density(random_logconcave_spec_nd(rng, dim, grid.origin, grid.side), grid),
              random_smooth_density(rng, grid, amplitude=1.0)):
        psi = -np.log(d.values)
        want = max(float(((np.moveaxis(psi, k, -1)[..., :-2] - 2.0 * np.moveaxis(psi, k, -1)[..., 1:-1]
                           + np.moveaxis(psi, k, -1)[..., 2:]) / grid.h ** 2).max())
                   for k in range(dim))
        assert estimate_diag_second_derivative_bound(d) == want


def test_diag_second_derivative_zero_for_uniform():
    d = build_density(Uniform(), unit_cube_grid(2, 8))
    assert estimate_diag_second_derivative_bound(d) == pytest.approx(0.0, abs=1e-10)


# ---------------------------------------------------------------- marginals


def test_marginalize_last_preserves_mass():
    rng = np.random.default_rng(5)
    grid = unit_cube_grid(3, 6)
    d = normalize(GridDensity(grid, rng.uniform(0.1, 1.0, grid.shape)))
    marg = marginalize_last(d)
    assert marg.grid == unit_cube_grid(2, 6)
    assert marg.total_mass == pytest.approx(d.total_mass, rel=1e-12)


# ---------------------------------------------------------------- spec parsing


SPEC_DICTS = [
    pytest.param({"variant": "uniform"}, Uniform(), id="Uniform"),
    pytest.param({"variant": "exponential_tilt", "tilt": [0.3, -1.2]},
                 ExponentialTilt((0.3, -1.2)), id="ExponentialTilt"),
    pytest.param({"variant": "restricted_gaussian", "center": [0.5, 0.5],
                  "inverse_covariance": [[2.0, 0.1], [0.1, 1.0]]},
                 RestrictedGaussian((0.5, 0.5), ((2.0, 0.1), (0.1, 1.0))),
                 id="RestrictedGaussian"),
    pytest.param({"variant": "convex_power", "offset": 1, "direction": [1.0, 0.5], "power": 2.0},
                 ConvexPower(1.0, (1.0, 0.5), 2.0), id="ConvexPower"),
    pytest.param({"variant": "equicorrelated_gaussian", "scale": 0.1},
                 EquicorrelatedGaussian(scale=0.1), id="EquicorrelatedGaussian"),
    pytest.param({"variant": "custom_grid", "values": [[1, 2, 3], [4, 5, 6], [7, 8, 9]]},
                 CustomGrid(np.arange(1.0, 10.0).reshape(3, 3)), id="CustomGrid"),
]


def test_spec_dicts_cover_every_variant():
    assert sorted(p.values[0]["variant"] for p in SPEC_DICTS) == sorted(density.SPEC_VARIANTS)


@pytest.mark.parametrize("raw, expected", SPEC_DICTS)
def test_spec_dict_round_trip(raw, expected):
    # a config object parses into the spec class its variant names, which
    # carries each of its fields back with the axes the class gives the field
    spec = spec_from_dict(raw)
    assert type(spec) is density.SPEC_VARIANTS[raw["variant"]] is type(expected)
    axes = {f.name: f.metadata["axes"] for f in dataclasses.fields(spec)}
    assert set(raw) == {"variant", *axes}
    for name, n_axes in axes.items():
        got, want = getattr(spec, name), getattr(expected, name)
        assert np.ndim(got) == (np.ndim(raw[name]) if n_axes is None else n_axes), name
        if isinstance(want, np.ndarray):
            assert np.array_equal(got, want) and got.dtype == np.float64
        else:
            assert got == want and type(got) is type(want), name


@pytest.mark.parametrize("scale", [0.0, -0.2, float("inf"), float("nan")])
def test_equicorrelated_scale_must_be_finite_and_positive(scale):
    with pytest.raises(DensityError, match="scale must be finite and positive"):
        EquicorrelatedGaussian(scale)


@pytest.mark.parametrize("spec", [
    RestrictedGaussian((0.5, 0.5), (4.0, 0.0, 0.0, 1.0)),
    RestrictedGaussian(((0.5, 0.5),), ((4.0, 0.0), (0.0, 1.0))),
    ExponentialTilt(((1.0,), (2.0,))),
    CustomGrid(np.ones(16)),
    CustomGrid(np.ones((2, 8))),
], ids=["flat-inverse-covariance", "nested-center", "column-tilt", "flat-values",
        "2x8-values"])
def test_fields_of_the_grids_size_but_not_its_shape_are_rejected(spec):
    # nothing is reshaped: a (2, 8) array is no 4x4 grid
    with pytest.raises(DensityError, match=r"has shape \("):
        build_density(spec, unit_cube_grid(2, 4))


# ---------------------------------------------------------------- properties


@given(t=st.floats(min_value=-3.0, max_value=3.0),
       m=st.integers(min_value=4, max_value=64))
@settings(max_examples=25, deadline=None)
def test_tilt_always_midpoint_log_concave(t, m):
    d = build_density(ExponentialTilt((t,)), unit_cube_grid(1, m))
    ok, worst = check_midpoint_log_concavity(d)
    assert ok, worst


@given(m=st.integers(min_value=2, max_value=32), dim=st.integers(min_value=1, max_value=3))
@settings(max_examples=20, deadline=None)
def test_normalized_mass_is_one(m, dim):
    rng = np.random.default_rng(m * 7 + dim)
    grid = unit_cube_grid(dim, m)
    d = normalize(GridDensity(grid, rng.uniform(0.01, 5.0, grid.shape)))
    assert d.total_mass == pytest.approx(1.0, abs=1e-10)
