"""Triangular transport on the cube: anchors, structure, pushforward."""

import dataclasses
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import loop_oracles
from cube_transport import (
    DensityError,
    ExponentialTilt,
    GridDensity,
    Uniform,
    build_density,
    check_facet_preservation,
    check_lemma_lambda,
    check_prop_quadratic,
    check_theorem31,
    check_tire_le_entropy,
    displacement_cost,
    estimate_axis_convexity_ratio,
    knothe_map,
    marginalize_last,
    monotone_map,
    normalize,
    pushforward_error,
    relative_entropy,
    tire_bracket,
    unit_cube_grid,
)
from cube_transport import cli, knothe
from cube_transport.functionals import triangular_coupling, triangular_coupling_cost
from cube_transport.families import (draw_trig_coeffs, random_logconcave_spec_nd,
                                     random_smooth_density, trig_density)


def product_pair(m=64):
    grid = unit_cube_grid(2, m)
    f = build_density(Uniform(), grid)
    cx = grid.axis_centers(0)
    g = normalize(GridDensity(grid, 4.0 * np.outer(cx, cx)))
    return f, g


# ---------------------------------------------------------------- anchor


def test_product_target_cost():
    # independent coordinates: each axis pays integral (sqrt-x)^2 = 1/30
    f, g = product_pair()
    tmap = knothe_map(f, g)
    cost = displacement_cost(tmap, f)
    assert cost == pytest.approx(2.0 / 30.0, abs=2e-3)


def test_product_target_tire_matches_entropy():
    f, g = product_pair()
    tire = tire_bracket(f, g)
    entropy = relative_entropy(g, f)
    # closed form 2 (log 2 - 1/2); the bracket sits below it
    assert entropy == pytest.approx(2.0 * (np.log(2.0) - 0.5), abs=2e-3)
    assert tire <= entropy + 1e-9
    assert tire == pytest.approx(entropy, abs=2e-2)


def test_product_map_is_coordinatewise():
    # for product densities the triangular map acts independently per axis
    f, g = product_pair(32)
    tmap = knothe_map(f, g)
    pts = np.array([[0.25, 0.25], [0.25, 0.81], [0.7, 0.25]])
    out = tmap.evaluate(pts)
    # the second coordinate map is the 1d monotone map for 2x, T(x) = sqrt(x)
    np.testing.assert_allclose(out[0, 1], 0.5, atol=5e-3)
    # first coordinate of the image depends only on the first input coordinate
    assert out[0, 0] == pytest.approx(out[1, 0], abs=1e-9)
    # second coordinate map is the same on every fiber
    assert out[0, 1] == pytest.approx(out[2, 1], abs=5e-3)


def test_identity_on_equal_densities():
    rng = np.random.default_rng(2)
    grid = unit_cube_grid(2, 16)
    d = normalize(GridDensity(grid, rng.uniform(0.5, 2.0, grid.shape)))
    tmap = knothe_map(d, d)
    # equal rows give equal ends on every piece, and slope 1
    assert displacement_cost(tmap, d) == 0.0
    assert tire_bracket(d, d, tmap) == 0.0
    centers = np.stack(np.meshgrid(*[grid.axis_centers(a) for a in range(2)],
                                   indexing="ij"), axis=-1).reshape(-1, 2)
    np.testing.assert_allclose(tmap.evaluate(centers), centers, atol=1e-10)


# ---------------------------------------------------------------- structure


def test_triangular_dependence():
    # leading coordinate of the image never depends on trailing inputs
    rng = np.random.default_rng(7)
    grid = unit_cube_grid(2, 16)
    f = random_smooth_density(rng, grid)
    g = random_smooth_density(rng, grid)
    tmap = knothe_map(f, g)
    x1 = rng.uniform(0.05, 0.95)
    pts = np.column_stack([np.full(9, x1), np.linspace(0.05, 0.95, 9)])
    out = tmap.evaluate(pts)
    assert np.ptp(out[:, 0]) < 1e-12
    # and the trailing coordinate is increasing along the fiber
    assert np.all(np.diff(out[:, 1]) > -1e-12)


def test_base_map_is_marginal_map():
    rng = np.random.default_rng(8)
    grid = unit_cube_grid(2, 24)
    f = random_smooth_density(rng, grid)
    g = random_smooth_density(rng, grid)
    tmap = knothe_map(f, g)
    fm, gm = marginalize_last(f), marginalize_last(g)
    base = monotone_map(fm, gm)
    # at the source nodes and between them: both are T itself
    x = np.concatenate([fm.grid.axis_nodes(0), rng.uniform(0.0, 1.0, 200)])
    np.testing.assert_allclose(tmap.evaluate(np.column_stack([x, np.full(len(x), 0.5)]))[:, 0],
                               base.evaluate(x[:, None])[:, 0], rtol=0, atol=1e-14)


def test_displacement_shape_and_evaluate_consistency():
    # the exact cost against the midpoint rule for |T x - x|^2 f on a grid 32
    # times finer: T is piecewise linear, so the two agree to O((h / 32)^2)
    rng = np.random.default_rng(9)
    grid = unit_cube_grid(2, 12)
    f = random_smooth_density(rng, grid)
    g = random_smooth_density(rng, grid)
    tmap = knothe_map(f, g)
    fine = unit_cube_grid(2, 12 * 32)
    pts = fine.centers()
    out = tmap.evaluate(pts)
    assert out.shape == pts.shape
    weights = f.values[tuple(grid.cell_index(pts).T)]
    midpoint = float((((out - pts) ** 2).sum(axis=1) * weights).sum() * fine.cell_volume)
    assert midpoint == pytest.approx(displacement_cost(tmap, f), rel=1e-3)


def test_three_dimensional_map_runs():
    rng = np.random.default_rng(10)
    grid = unit_cube_grid(3, 8)
    f = random_smooth_density(rng, grid)
    g = random_smooth_density(rng, grid)
    tmap = knothe_map(f, g)
    assert tmap.grid.dim == 3
    assert [t.shape for t in tmap.target_cdfs] == [(1, 9), (8, 9), (64, 9)]
    assert check_facet_preservation(tmap).passed
    assert displacement_cost(tmap, f) >= 0.0


@pytest.mark.parametrize("dim", [1, 2])
def test_degenerate_source_raises(dim):
    # a profile with a cell too light to move the CDF along axis 0 gives a
    # base map that is not strictly increasing
    grid = unit_cube_grid(dim, 4)
    profile = np.array([1.0, 1e-300, 1.0, 1.0]).reshape((4,) + (1,) * (dim - 1))
    f = GridDensity(grid, np.broadcast_to(profile, grid.shape).copy())
    with pytest.raises(DensityError, match="not strictly increasing"):
        knothe_map(f, build_density(Uniform(), grid))


@pytest.mark.parametrize("light", [1, 3])
@pytest.mark.parametrize("axis", [0, 1])
def test_target_cell_too_light_to_move_its_cdf_raises(light, axis):
    # along axis 0 the marginal map jumps, along axis 1 every fiber map
    grid = unit_cube_grid(2, 4)
    profile = np.ones(4)
    profile[light] = 1e-300
    g = GridDensity(grid, np.broadcast_to(np.expand_dims(profile, 1 - axis), grid.shape).copy())
    with pytest.raises(DensityError, match="not strictly increasing"):
        knothe_map(build_density(Uniform(), grid), g)


@pytest.mark.parametrize("side", ["source", "target"])
@pytest.mark.parametrize("axis", [0, 1, 2])
def test_cell_too_light_at_any_level_raises(side, axis):
    # a light cell along axis k moves no CDF row of the level-k tables
    grid = unit_cube_grid(3, 4)
    profile = np.ones(4)
    profile[2] = 1e-300
    light = GridDensity(grid, np.broadcast_to(
        profile.reshape([4 if k == axis else 1 for k in range(3)]), grid.shape).copy())
    uniform = build_density(Uniform(), grid)
    pair = (light, uniform) if side == "source" else (uniform, light)
    with pytest.raises(DensityError, match="not strictly increasing"):
        knothe_map(*pair)


def probe_points(grid, rng):
    """Samples inside the cube, grid nodes, and points on and beyond the faces."""
    lattice = np.stack(np.meshgrid(*[grid.axis_nodes(a)[::max(1, grid.cells_per_axis // 8)]
                                     for a in range(grid.dim)], indexing="ij"), axis=-1)
    outside = rng.uniform(-0.2, 1.2, (500, grid.dim))
    return np.concatenate([rng.uniform(0.0, 1.0, (2000, grid.dim)),
                           lattice.reshape(-1, grid.dim), outside])


def assert_equals_loop_oracle(f, g, rng):
    """Each level's cost and deficit against one monotone map per coupling
    atom, and the map against the per-point np.interp walk."""
    tmap = knothe_map(f, g)
    costs, deficits = loop_oracles.knothe_levels(f, g)
    np.testing.assert_allclose(tmap.square_sums / 3.0, costs, rtol=1e-12, atol=1e-300)
    np.testing.assert_allclose(tmap.deficits, deficits, rtol=1e-12, atol=1e-300)
    pts = probe_points(f.grid, rng)
    np.testing.assert_allclose(tmap.evaluate(pts), loop_oracles.knothe_evaluate(f, g, pts),
                               rtol=0, atol=1e-12)
    return tmap


@pytest.mark.parametrize("dim,m", [(1, 300), (2, 64), (3, 16), (4, 8)])
def test_knothe_map_equals_loop_oracle(dim, m):
    # seeded pairs like the benchmark's (log-concave source, smooth target),
    # the product anchor and a source onto itself: level sums and evaluation
    # match the per-atom loops, and every facet point maps to itself
    rng = np.random.default_rng([dim, m, 1])
    grid = unit_cube_grid(dim, m)
    pairs = [(build_density(Uniform(), grid),
              normalize(GridDensity(grid, np.prod(np.stack(grid.centers_mesh()), axis=0))))]
    for _ in range(2):
        pairs.append((build_density(random_logconcave_spec_nd(rng, dim, grid.origin, grid.side),
                                    grid),
                      random_smooth_density(rng, grid, amplitude=0.5)))
    pairs.append((pairs[-1][0], pairs[-1][0]))  # equal CDFs: every node is a tie
    for f, g in pairs:
        tmap = assert_equals_loop_oracle(f, g, rng)
        if dim == 1:  # and against the plain-float walk along the 1d pieces
            deficit, cost, _ = loop_oracles.monotone_map_integrals(f.values, g.values, grid)
            assert displacement_cost(tmap, f) == pytest.approx(cost, rel=1e-12, abs=0.0)
            assert tire_bracket(f, g, tmap) == pytest.approx(deficit, rel=1e-12, abs=0.0)
        assert check_facet_preservation(tmap).lhs == 0.0


@given(dim=st.integers(min_value=1, max_value=4), data=st.data())
@settings(max_examples=60, deadline=None)
def test_knothe_map_equals_loop_oracle_property(dim, data):
    # unnormalized cell values; a zero cell must raise the oracle's error
    m = data.draw(st.integers(min_value=2, max_value=6 if dim < 4 else 3))
    grid = unit_cube_grid(dim, m)
    cells = st.lists(st.one_of(st.integers(min_value=0, max_value=4).map(float),
                               st.floats(min_value=1e-3, max_value=1.0)),
                     min_size=m ** dim, max_size=m ** dim)
    f = GridDensity(grid, np.array(data.draw(cells)).reshape(grid.shape))
    g = GridDensity(grid, np.array(data.draw(cells)).reshape(grid.shape))
    try:
        loop_oracles.knothe_levels(f, g)
    except DensityError as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            knothe_map(f, g)
        return
    assert_equals_loop_oracle(f, g, np.random.default_rng(m))


def test_one_walk_merges_each_fiber_pair_once(monkeypatch):
    # level 0 merges its one pair, and level k + 1 one pair per atom of level
    # k: the atoms of the coupling of the map's own 1- and 2-axis marginals
    rng = np.random.default_rng(31)
    grid = unit_cube_grid(3, 6)
    f = build_density(random_logconcave_spec_nd(rng, 3, grid.origin, grid.side), grid)
    g = random_smooth_density(rng, grid, amplitude=0.5)
    lead = [(f.values.sum(axis=-1), g.values.sum(axis=-1))]
    lead.insert(0, tuple(x.sum(axis=-1) for x in lead[0]))
    atoms = [len(triangular_coupling(*pair)[2]) for pair in lead]
    assert 1 < atoms[0] < atoms[1]
    merge, walk = knothe._merge, knothe._walk
    rows, levels = [], []

    def merge_spy(F, G):
        rows.append(len(F))
        return merge(F, G)

    def walk_spy(*args):
        levels.append([])
        for batch in walk(*args):
            levels[-1].append(batch[0])
            yield batch
    monkeypatch.setattr(knothe, "_merge", merge_spy)
    monkeypatch.setattr(knothe, "_walk", walk_spy)
    knothe_map(f, g)
    assert sum(rows) == 1 + atoms[0] + atoms[1]
    assert levels == [[0, 1, 2]]
    rows.clear()
    levels.clear()
    triangular_coupling(f.values, g.values)
    assert sum(rows) == 1 + atoms[0] + atoms[1]
    assert levels == [[0, 1, 2]]


def _walk_outputs(f, g, masses):
    tmap = knothe_map(f, g)
    return ([tmap.source_cdfs, tmap.target_cdfs, tmap.square_sums, tmap.deficits],
            triangular_coupling(*masses), triangular_coupling_cost(f, g))


@pytest.mark.parametrize("batch", [1, 1 << 62], ids=["one-pair", "whole-level"])
def test_walk_batch_size_moves_no_output(monkeypatch, batch):
    # batches of one fiber pair, or of a whole level, against the default
    # size: the maps' tables and level sums, the coupling's atoms and its
    # cost stay bitwise equal. The (2, 512) pair spans 64 default batches;
    # the coupling side also gets zero-mass cells and rows
    rng = np.random.default_rng(41)
    cases = []
    for dim, m in [(2, 512), (3, 16)]:
        grid = unit_cube_grid(dim, m)
        f = build_density(random_logconcave_spec_nd(rng, dim, grid.origin, grid.side), grid)
        g = random_smooth_density(rng, grid, amplitude=0.5)
        holes = [x.values * (rng.uniform(size=grid.shape) > 0.3) for x in (f, g)]
        holes[0][1] = 0.0
        cases.append((f, g, [d / d.sum() for d in holes]))
    want = [_walk_outputs(*case) for case in cases]
    monkeypatch.setattr(knothe, "WALK_BATCH", batch)
    for case, (tables, atoms, cost) in zip(cases, want):
        got_tables, got_atoms, got_cost = _walk_outputs(*case)
        for got, expected in zip(got_tables, tables):
            assert all(np.array_equal(x, y) for x, y in zip(got, expected))
        for got, expected in zip(got_atoms, atoms):
            assert np.array_equal(got, expected)
        assert got_cost == cost


def _oracle_cases():
    """Dyadic uniform -> prod 2 x_i anchors, whose CDFs meet at interior
    values, m = 2 pairs, and zero-mass cells and rows (coupling only)."""
    rng = np.random.default_rng(43)
    cases = []
    for dim, m in [(1, 16), (2, 8), (3, 4), (4, 4)]:
        grid = unit_cube_grid(dim, m)
        cases.append((f"anchor-d{dim}-m{m}", build_density(Uniform(), grid),
                      loop_oracles.linear_product_target(grid)))
    for dim in range(1, 5):
        grid = unit_cube_grid(dim, 2)
        cases.append((f"m2-d{dim}", *(GridDensity(grid, rng.uniform(0.1, 1.0, grid.shape))
                                       for _ in range(2))))
    for dim, m in [(2, 5), (3, 4)]:
        grid = unit_cube_grid(dim, m)
        a, b = (rng.uniform(0.0, 1.0, grid.shape) * (rng.uniform(size=grid.shape) > 0.4)
                for _ in range(2))
        a[0], b[-1], a[(m - 1,) * (dim - 1)] = 0.0, 0.0, 0.0  # zero rows at every level
        cases.append((f"zeros-d{dim}-m{m}", GridDensity(grid, a + (a.sum() == 0)),
                      GridDensity(grid, b + (b.sum() == 0))))
    return cases


@pytest.mark.parametrize("name,f,g", _oracle_cases(),
                         ids=lambda x: x if isinstance(x, str) else "")
def test_walk_edge_cases_equal_loop_oracles(name, f, g):
    # the map's level sums and the coupling's atoms and cost against the
    # per-fiber loops, with every numpy warning an error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a, b = (d.cell_masses().reshape(d.grid.shape) for d in (f, g))
        i, j, w = triangular_coupling(a, b)
        for got, want in zip((i, j, w), loop_oracles.triangular_coupling(a, b)):
            assert np.array_equal(got, want)
        assert triangular_coupling_cost(f, g) == loop_oracles.triangular_coupling_cost(f, g)
        if name.startswith("zeros"):
            assert 0 in a.sum(axis=-1) and 0 in b.sum(axis=-1)
            return
        if name.startswith("anchor"):
            tmap = knothe_map(f, g)
            F, G = tmap.source_cdfs[-1], tmap.target_cdfs[-1]
            assert np.intersect1d(F[0, 1:-1], G[0, 1:-1]).size > 0  # interior ties
        assert_equals_loop_oracle(f, g, np.random.default_rng(7))


def _peak_bytes(fn, *args):
    """(tracemalloc peak of fn(*args), its result)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def _piece_bound(a, b, i, j):
    """The walk's bound on the last level's pieces: per pair of rows of the
    atoms (i, j), its positive cells of a and of b, less 1."""
    m = a.shape[-1]
    rows = np.unique(np.stack([i // m, j // m]), axis=1)
    cells = [np.count_nonzero(x.reshape(-1, m) > 0, axis=1) for x in (a, b)]
    return int((cells[0][rows[0]] + cells[1][rows[1]] - 1).sum())


@pytest.mark.parametrize("dim,m", [(1, 50), (2, 16), (3, 8), (4, 4)])
def test_coupling_of_positive_masses_fills_its_bound(dim, m):
    # (2m - 1)^d atoms, as many as the positive-cell bound, written into
    # arrays of exactly that size
    rng = np.random.default_rng([dim, m, 47])
    a, b = (rng.uniform(0.1, 1.0, (m,) * dim) for _ in range(2))
    atoms = triangular_coupling(a, b / b.sum() * a.sum())
    assert _piece_bound(a, b, *atoms[:2]) == len(atoms[2]) == (2 * m - 1) ** dim
    assert all(x.base.shape == (len(x),) for x in atoms)


@pytest.mark.parametrize("name,f,g", _oracle_cases(),
                         ids=lambda x: x if isinstance(x, str) else "")
def test_coupling_stays_within_its_bound(name, f, g):
    # zero-mass cells lower the bound with the pieces; a level shared by two
    # CDF rows inside (0, 1), as in the anchors, merges two pieces, and the
    # atoms are then a prefix of arrays of the bound
    a, b = (d.cell_masses().reshape(d.grid.shape) for d in (f, g))
    atoms = triangular_coupling(a, b)
    bound = _piece_bound(a, b, *atoms[:2])
    assert len(atoms[2]) <= bound
    assert (len(atoms[2]) < bound) == name.startswith("anchor")
    assert all(x.base.shape == (bound,) for x in atoms)


@pytest.mark.parametrize("dim,m", [(2, 256), (3, 32)])
def test_coupling_peak_memory_is_near_what_it_returns(dim, m):
    # the atoms are written in place: no per-batch parts and no concatenated
    # copy, which alone would double the peak
    rng = np.random.default_rng([dim, m, 53])
    grid = unit_cube_grid(dim, m)
    f = build_density(random_logconcave_spec_nd(rng, dim, grid.origin, grid.side), grid)
    g = random_smooth_density(rng, grid, amplitude=0.5)
    a, b = (d.cell_masses().reshape(grid.shape) for d in (f, g))
    peak, atoms = _peak_bytes(triangular_coupling, a, b)
    assert peak < 1.75 * sum(x.nbytes for x in atoms)


def test_knothe_map_peak_memory():
    # the d = 2, m = 256 map returns about 1 MiB of CDF tables; the walk
    # holds each level's pairs and per-pair sums, and one batch's merge
    rng = np.random.default_rng(59)
    grid = unit_cube_grid(2, 256)
    f = build_density(random_logconcave_spec_nd(rng, 2, grid.origin, grid.side), grid)
    g = random_smooth_density(rng, grid, amplitude=0.5)
    assert _peak_bytes(knothe_map, f, g)[0] < 5 * 2 ** 20


def test_evaluate_interpolates_at_nodes_and_outside():
    # node hits, the last node and points beyond either end: the ends map
    # onto the ends exactly
    f, g = product_pair(8)
    tmap = knothe_map(f, g)
    x = np.array([-0.5, 0.0, 0.125, 0.3, 0.999, 1.0, 1.5])
    pts = np.column_stack([np.full(len(x), 0.3), x])
    out = tmap.evaluate(pts)
    np.testing.assert_allclose(out, loop_oracles.knothe_evaluate(f, g, pts), rtol=0, atol=1e-15)
    assert out[0, 1] == 0.0 and out[1, 1] == 0.0
    assert out[5, 1] == 1.0 and out[6, 1] == 1.0


@pytest.mark.parametrize("pts", [
    np.array([[0.5, np.nan]]),
    np.array([[np.inf, 0.5]]),
    np.array([[0.5, 0.5, 0.5]]),
    np.array([0.5, 0.5, 0.5]),
    np.zeros((2, 2, 2)),
])
def test_evaluate_rejects_bad_points(pts):
    f, g = product_pair(8)
    with pytest.raises(DensityError):
        knothe_map(f, g).evaluate(pts)


# ---------------------------------------------------------------- pushforward


def test_facet_preservation_anchor():
    f, g = product_pair()
    rep = check_facet_preservation(knothe_map(f, g))
    assert rep.passed
    assert rep.lhs == 0.0
    assert rep.rhs == pytest.approx(2.0 / 64.0)


def test_facet_points_are_the_first_layers_moved_onto_the_facets():
    # against the points read off the full (cells, dim) centers array
    grid = unit_cube_grid(3, 5)
    tmap = knothe_map(*(GridDensity(grid, np.ones(grid.shape)),) * 2)
    seen = []
    tmap.evaluate = lambda pts: seen.append(pts) or pts
    check_facet_preservation(tmap)
    centers = grid.centers().reshape(grid.shape + (3,))
    want = []
    for axis in range(3):
        for face in (0.0, 1.0):
            layer = np.take(centers, 0, axis=axis).reshape(-1, 3)
            layer[:, axis] = face
            want.append(layer)
    assert np.array_equal(seen[0], np.concatenate(want))


def test_facet_check_builds_no_centers_array():
    # the (cells, dim) centers array would take 16 MiB at d = 2, m = 1024
    f = build_density(Uniform(), unit_cube_grid(2, 1024))
    tmap = knothe_map(f, f)
    tracemalloc.start()
    try:
        assert check_facet_preservation(tmap).lhs == 0.0
        assert tracemalloc.get_traced_memory()[1] < 2 ** 20
    finally:
        tracemalloc.stop()


def test_pushforward_marginals_close():
    f, g = product_pair()
    tmap = knothe_map(f, g)
    n = 100000
    err = pushforward_error(tmap, f, g, n_samples=n, seed=0)
    # the exact map pushes f onto g: sampling error only, no 2h allowance
    assert err <= 2.0 / np.sqrt(n)


@pytest.mark.parametrize("use", [
    lambda tmap, f, g: displacement_cost(tmap, f),
    lambda tmap, f, g: tire_bracket(f, g, tmap),
    lambda tmap, f, g: pushforward_error(tmap, f, g, n_samples=100),
], ids=["displacement_cost", "tire_bracket", "pushforward_error"])
def test_map_of_another_grid_is_rejected(use):
    # the 8x8 anchor map of uniform -> prod 2x_i on the 16x16 pair: same
    # dimension, so only the grid check can tell it is the wrong map
    tmap = knothe_map(*product_pair(8))
    with pytest.raises(DensityError, match="^map and density grids differ$"):
        use(tmap, *product_pair(16))


MAP_READERS = {  # reader of (tmap, f, g), its dimension, whether it reads g
    "displacement_cost": (lambda tmap, f, g: displacement_cost(tmap, f), 2, False),
    "tire_bracket": (lambda tmap, f, g: tire_bracket(f, g, tmap), 2, True),
    "pushforward_error": (lambda tmap, f, g: pushforward_error(tmap, f, g, n_samples=100),
                          2, True),
    "thm-3.1": (lambda tmap, f, g: check_theorem31(f, g, 1.0, tmap).lhs, 2, True),
    "lem-4.1": (lambda tmap, f, g: check_tire_le_entropy(f, g, tmap).lhs, 2, True),
    "prop-2.1": (lambda tmap, f, g: check_prop_quadratic(f, g, 1.0, tmap).lhs, 1, True),
    "lem-2.2": (lambda tmap, f, g: check_lemma_lambda(f, g, tmap).lhs, 1, True),
}


@pytest.mark.parametrize("name", MAP_READERS)
def test_map_of_another_pair_is_rejected(name):
    # a map built on the pair's grid for another source, or for the readers
    # of g another target, once read that pair's numbers (lem-4.1 lhs
    # 0.1914 for uniform -> tilt against the pair's own 0.3830); an equal
    # copy of the map's own pair reads what the pair itself reads
    use, dim, reads_g = MAP_READERS[name]
    grid = unit_cube_grid(dim, 16)
    f, g = build_density(Uniform(), grid), loop_oracles.linear_product_target(grid)
    other = build_density(ExponentialTilt(np.linspace(1.0, -2.0, dim)), grid)
    wrong = knothe_map(f, other) if reads_g else knothe_map(other, g)
    with pytest.raises(DensityError, match="^map was built for another pair of densities$"):
        use(wrong, f, g)
    tmap = knothe_map(f, g)
    assert use(tmap, *(GridDensity(grid, d.values.copy()) for d in (f, g))) == use(tmap, f, g)


def test_density_edited_after_its_map_was_built_is_refused():
    # a map passes the pair check on the identity of its densities, so a
    # density whose values changed in place would read the old map's numbers
    # (a tilt written into g: tire_bracket 0.3830 by the old map, 0.1914 by its own)
    grid = unit_cube_grid(2, 16)
    f, g = build_density(Uniform(), grid), loop_oracles.linear_product_target(grid)
    tmap = knothe_map(f, g)
    before = tire_bracket(f, g, tmap)
    tilt = build_density(ExponentialTilt((1.0, -2.0)), grid)
    with pytest.raises(ValueError, match="read-only"):
        g.values[:] = tilt.values
    assert tire_bracket(f, g, tmap) == before


def test_axis_marginal_cdf_is_cdf():
    rng = np.random.default_rng(12)
    grid = unit_cube_grid(2, 16)
    g = random_smooth_density(rng, grid)
    nodes, cdf = g.marginal_cdf(1)
    assert cdf[0] == 0.0
    assert cdf[-1] == pytest.approx(1.0, abs=1e-9)
    assert np.all(np.diff(cdf) >= 0.0)
    assert len(nodes) == len(cdf)


# ---------------------------------------------------------------- inequality


def test_theorem_quadratic_bound_anchor():
    f, g = product_pair()
    ratio = max(estimate_axis_convexity_ratio(f), estimate_axis_convexity_ratio(g))
    rep = check_theorem31(f, g, ratio, knothe_map(f, g))
    assert rep.passed
    assert rep.constant_used == pytest.approx(40.0 / 9.0)
    assert rep.lhs == pytest.approx(2.0 / 30.0, abs=2e-3)


@pytest.mark.parametrize("seed", range(5))
def test_theorem_quadratic_bound_random_logconcave(seed):
    rng = np.random.default_rng(100 + seed)
    grid = unit_cube_grid(2, 24)
    f = build_density(random_logconcave_spec_nd(rng, 2, grid.origin, grid.side), grid)
    g = build_density(random_logconcave_spec_nd(rng, 2, grid.origin, grid.side), grid)
    ratio = max(estimate_axis_convexity_ratio(f), estimate_axis_convexity_ratio(g))
    rep = check_theorem31(f, g, ratio, knothe_map(f, g))
    assert rep.passed


def test_tire_bracket_invariant_under_target_scaling():
    # the map reads normalized CDFs and cell masses, so scaling g by 2 leaves
    # the bracket bitwise unchanged, and scaling f by 2 doubles it
    f, g = product_pair(32)
    tire = tire_bracket(f, g)
    assert tire_bracket(f, GridDensity(g.grid, 2.0 * g.values)) == tire
    assert tire_bracket(GridDensity(f.grid, 2.0 * f.values), g) == 2.0 * tire


def test_tire_bracket_below_entropy_under_refinement():
    for m in (16, 32, 64):
        f, g = product_pair(m)
        tire = tire_bracket(f, g)
        ent = relative_entropy(g, f)
        assert tire <= ent + 1e-9


# ---------------------------------------------------------------- refinement

# A seeded log-concave source onto a seeded smooth target, in 2d at
# m = 16 -> 32 and in 3d at m = 8 -> 16 (the pairs whose quadrature drift
# the roadmap records). The pinned (cost, bracket) are those of the earlier
# node-table map, whose fibers read g by multilinear interpolation and whose
# cost and bracket were cell-center quadratures with finite-difference
# gradients.
QUADRATURE_VALUES = {
    (2, 16): ((0.056194489888416244, 0.4450187846590428),
              (0.0576369957157186, 0.509836130038689)),
    (3, 8): ((0.03809392793343597, 0.25131125125947007),
             (0.04016801237020652, 0.32151792962932707)),
}


@pytest.mark.parametrize("dim,m,key", [(2, 16, [0, 1]), (3, 8, [3, 1])])
def test_exact_values_move_less_under_refinement_than_the_quadrature(dim, m, key):
    rng = np.random.default_rng(key)
    spec = random_logconcave_spec_nd(rng, dim, np.zeros(dim), 1.0)
    coeffs = draw_trig_coeffs(rng, dim, 0.5)
    values = []
    for cells in (m, 2 * m):
        grid = unit_cube_grid(dim, cells)
        f, g = build_density(spec, grid), trig_density(coeffs, grid)
        tmap = knothe_map(f, g)
        values.append((displacement_cost(tmap, f), tire_bracket(f, g, tmap)))
    coarse, fine = QUADRATURE_VALUES[(dim, m)]
    for k in range(2):
        exact_move = abs(values[1][k] - values[0][k])
        quadrature_move = abs(fine[k] - coarse[k])
        assert exact_move < 0.25 * quadrature_move


# ---------------------------------------------------------------- planted defects

# facet-preservation and pushforward-ks hold by construction for the exact
# map; each must still fail on a planted defect


def _verify_knothe(**overrides):
    """The suite's rows by name, the first of each name (the 64^2 anchor's)."""
    cfg = cli.load_config(None, {"pairs": 1, **overrides})
    rows = {}
    for r in cli.suite_verify_knothe(cfg)["reports"]:
        rows.setdefault(r.name, r)
    return rows


def test_verify_knothe_rows_hold_on_the_exact_map():
    rows = _verify_knothe()
    assert rows["facet-preservation"].lhs == 0.0
    assert rows["pushforward-ks"].lhs <= 2.0 / np.sqrt(cli.DEFAULTS["n_samples"])
    assert all(r.passed for r in rows.values())


def test_facet_row_fails_when_a_facet_point_moves(monkeypatch):
    def shifted(f, g):
        tmap = knothe_map(f, g)
        exact = tmap.evaluate

        def evaluate(points):
            out = exact(points)
            out[0, 0] += 3.0 * tmap.grid.h  # the first point lies on the facet x_0 = 0
            return out
        tmap.evaluate = evaluate
        return tmap
    monkeypatch.setattr(cli, "knothe_map", shifted)
    rep = _verify_knothe()["facet-preservation"]
    assert rep.lhs == pytest.approx(3.0 / 64.0) and not rep.passed


def test_pushforward_row_fails_for_the_identity_on_a_non_uniform_target(monkeypatch):
    # the anchor's uniform source mapped by the identity keeps its uniform
    # marginals, a quarter away in KS from the target's marginals 2x. The
    # planted map records g as its target, or the pair check would refuse it
    monkeypatch.setattr(cli, "knothe_map",
                        lambda f, g: dataclasses.replace(knothe_map(f, f), target=g))
    rep = _verify_knothe()["pushforward-ks"]
    assert rep.lhs == pytest.approx(0.25, abs=0.01) and not rep.passed
