"""Entropy, Legendre bound, exact quadratic coupling, triangular coupling."""

import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import cube_transport
import loop_oracles
import lp_oracles
from cube_transport import functionals
from cube_transport import (
    ConvexPower,
    DensityError,
    ExponentialTilt,
    Grid,
    GridDensity,
    RestrictedGaussian,
    Uniform,
    build_density,
    check_tire_le_entropy,
    check_transport_entropy_sandwich,
    estimate_axis_convexity_ratio,
    exact_w2_small,
    knothe_map,
    legendre_tire_bound,
    normalize,
    relative_entropy,
    tire_bracket,
    triangular_coupling,
    triangular_coupling_cost,
    unit_cube_grid,
)
from cube_transport.knothe import check_theorem31
from cube_transport.families import (draw_trig_coeffs, random_logconcave_spec_1d,
                                     random_logconcave_spec_nd, random_smooth_density,
                                     trig_density)


# ---------------------------------------------------------------- entropy


def test_entropy_zero_on_equal():
    d = build_density(ExponentialTilt((0.8,)), unit_cube_grid(1, 64))
    assert relative_entropy(d, d) == 0.0


def test_entropy_closed_form_linear_target():
    f = build_density(Uniform(), unit_cube_grid(1, 2048))
    g = build_density(ConvexPower(0.0, (2.0,), 1.0), unit_cube_grid(1, 2048))
    assert relative_entropy(g, f) == pytest.approx(np.log(2.0) - 0.5, abs=1e-3)


def test_entropy_nonnegative_random():
    rng = np.random.default_rng(31)
    grid = unit_cube_grid(2, 16)
    for _ in range(10):
        f = normalize(GridDensity(grid, rng.uniform(0.1, 3.0, grid.shape)))
        g = normalize(GridDensity(grid, rng.uniform(0.1, 3.0, grid.shape)))
        assert relative_entropy(g, f) >= 0.0


def test_entropy_infinite_off_support():
    grid = unit_cube_grid(1, 4)
    f = normalize(GridDensity(grid, np.array([1.0, 1.0, 0.0, 0.0])))
    g = normalize(GridDensity(grid, np.array([0.0, 1.0, 1.0, 0.0])))
    assert relative_entropy(g, f) == np.inf
    # cells where the numerator vanishes contribute nothing
    h = normalize(GridDensity(grid, np.array([1.0, 1.0, 1.0, 1.0])))
    assert np.isfinite(relative_entropy(f, h))
    assert relative_entropy(f, h) == pytest.approx(np.log(2.0), abs=1e-12)


def test_entropy_requires_normalized():
    grid = unit_cube_grid(1, 4)
    f = GridDensity(grid, np.full(4, 2.0))
    g = normalize(GridDensity(grid, np.ones(4)))
    with pytest.raises(ValueError):
        relative_entropy(f, g)


# ---------------------------------------------------------------- pair preconditions


# each function of a source f and a target g, called on the pair
PAIR_FUNCTIONS = {
    "knothe_map": knothe_map,
    "check_theorem31": lambda f, g: check_theorem31(f, g, 1.0, knothe_map(f, g)),
    "relative_entropy": lambda f, g: relative_entropy(g, f),
    "legendre_tire_bound": legendre_tire_bound,
    "exact_w2_small": exact_w2_small,
    "triangular_coupling_cost": triangular_coupling_cost,
    "check_tire_le_entropy": lambda f, g: check_tire_le_entropy(f, g, knothe_map(f, g)),
    "check_transport_entropy_sandwich": lambda f, g: check_transport_entropy_sandwich(f, g, 1.0),
}


@pytest.mark.parametrize("g_grid", [unit_cube_grid(2, 5), unit_cube_grid(3, 4)],
                         ids=["other-m", "other-dim"])
@pytest.mark.parametrize("name", PAIR_FUNCTIONS)
def test_pair_functions_need_one_grid(name, g_grid):
    f = build_density(Uniform(), unit_cube_grid(2, 4))
    with pytest.raises(DensityError, match="^source and target must share the same grid$"):
        PAIR_FUNCTIONS[name](f, build_density(Uniform(), g_grid))


@pytest.mark.parametrize("name", ["check_tire_le_entropy", "check_transport_entropy_sandwich"])
def test_entropy_comparisons_need_a_log_concave_source(name):
    # a dip in one cell breaks midpoint log-concavity along its row
    grid = unit_cube_grid(2, 4)
    values = np.ones(grid.shape)
    values[1, 1] = 0.1
    f, g = normalize(GridDensity(grid, values)), build_density(Uniform(), grid)
    with pytest.raises(DensityError,
                       match=r"^source must be midpoint-log-concave \(violation \d"):
        PAIR_FUNCTIONS[name](f, g)


# ---------------------------------------------------------------- legendre


def test_legendre_zero_for_identity():
    f = build_density(Uniform(), unit_cube_grid(1, 128))
    assert legendre_tire_bound(f, f) == pytest.approx(0.0, abs=1e-9)


def test_legendre_dominates_tire_1d():
    rng = np.random.default_rng(41)
    grid = unit_cube_grid(1, 128)
    for _ in range(6):
        f = build_density(random_logconcave_spec_1d(rng), grid)
        g = build_density(random_logconcave_spec_1d(rng), grid)
        tmap = knothe_map(f, g)
        assert legendre_tire_bound(f, g) >= tire_bracket(f, g, tmap) - 1e-6


def test_legendre_dominates_tire_2d():
    rng = np.random.default_rng(42)
    grid = unit_cube_grid(2, 12)
    for _ in range(3):
        f = build_density(random_logconcave_spec_nd(rng, 2, grid.origin, grid.side), grid)
        g = build_density(random_logconcave_spec_nd(rng, 2, grid.origin, grid.side), grid)
        assert legendre_tire_bound(f, g) >= tire_bracket(f, g) - 1e-6


# The exact bracket against the Legendre bound, whose gradients are finite
# differences while the bracket's are distributional: nothing ties the two,
# so the eq-4.2 rows are guarded on the tire suite's pairs and on the
# benchmark's 64^2 pair. Largest bracket/bound ratios: 0.519 (tire suite,
# seed 4, a 1d pair; 0.370 in 2d) and 0.346 (64^2, seed 2).


def test_exact_bracket_stays_below_the_legendre_bound_on_the_tire_pairs():
    from cube_transport import cli
    ratios = []
    for seed in range(8):
        rows = cli.suite_tire(cli.load_config(None, {"seed": seed}))["reports"]
        ratios += [r.lhs / r.rhs for r in rows if r.name == "eq-4.2"]
    assert len(ratios) == 8 * (1 + cli.DEFAULTS["pairs"])
    assert max(ratios) < 1.0


@pytest.mark.parametrize("seed", range(8))
def test_exact_bracket_stays_below_the_legendre_bound_at_64_squared(seed):
    # the Legendre pair of the exact-coupling benchmark: its rng first jitters
    # six pinned LP targets (54 normals), then draws this pair
    rng = np.random.default_rng([seed, 2])
    rng.normal(size=54)
    grid = unit_cube_grid(2, 64)
    f = build_density(random_logconcave_spec_nd(rng, 2, grid.origin, grid.side), grid)
    g = random_smooth_density(rng, grid, amplitude=0.5)
    assert tire_bracket(f, g) < legendre_tire_bound(f, g)


def test_lem41_excess_at_exponential_tilts_shrinks_like_h_squared():
    # In the continuum Ent - bracket is a Bregman gap of psi = -log f, zero
    # for the linear psi of an exponential tilt; on grid data a remainder of
    # either sign is left, and the exact bracket can exceed the entropy. Over
    # 1d tilts onto smooth targets, those exceeding at m = 64: the worst
    # excess, and that of the worst ratio (1.00054), shrink at least 3x per
    # doubling of m.
    excess = []
    for seed in range(300):
        rng = np.random.default_rng([seed, 7])
        spec = random_logconcave_spec_1d(rng)
        coeffs = draw_trig_coeffs(rng, 1, 0.5)
        if not isinstance(spec, ExponentialTilt):
            continue
        row = []
        for m in (64, 128, 256):
            grid = unit_cube_grid(1, m)
            f, g = build_density(spec, grid), trig_density(coeffs, grid)
            row.append((tire_bracket(f, g), relative_entropy(g, f)))
            if row[0][0] <= row[0][1]:
                break
        else:
            excess.append(row)
    assert len(excess) >= 20
    worst_ratio = max(excess, key=lambda row: row[0][0] / row[0][1])
    assert worst_ratio[0][0] / worst_ratio[0][1] == pytest.approx(1.00054, abs=1e-5)
    worst = [max(row[k][0] - row[k][1] for row in excess) for k in range(3)]
    cited = [b - e for b, e in worst_ratio]
    for gaps in (worst, cited):
        assert gaps[0] > 0 and abs(gaps[1]) <= gaps[0] / 3 and abs(gaps[2]) <= abs(gaps[1]) / 3


def _legendre_pair(kind, grid, rng):
    """A log-concave Gaussian source and a target of the given kind; "anchor"
    is the tire suite's uniform source onto prod 2 x_i."""
    f = build_density(random_logconcave_spec_nd(rng, grid.dim, grid.origin, grid.side), grid)
    if kind == "anchor":
        vals = np.prod([2.0 * c for c in grid.centers_mesh()], axis=0)
        return build_density(Uniform(), grid), normalize(GridDensity(grid, vals))
    if kind == "uniform":  # every last-axis line collinear
        return f, build_density(Uniform(), grid)
    if kind == "tilt":  # -log g affine
        return f, build_density(ExponentialTilt(tuple(rng.normal(0.0, 2.0, grid.dim))), grid)
    if kind == "gaussian":  # -log g convex: every point a hull vertex
        return f, build_density(random_logconcave_spec_nd(rng, grid.dim, grid.origin,
                                                          grid.side), grid)
    vals = random_smooth_density(rng, grid, amplitude=0.5).values.copy()
    m = grid.cells_per_axis
    if kind == "zero-rows":  # whole slabs across the first axis off the support
        vals[:m // 4] = 0.0
        vals[m // 2] = 0.0
    elif kind == "zero-line":  # gaps in every line, and a whole last-axis line
        vals[..., 1::5] = 0.0
        if grid.dim > 1:
            vals[(m // 3,) * (grid.dim - 1)] = 0.0
    return f, normalize(GridDensity(grid, vals))


def _assert_legendre_matches_dense_oracle(f, g):
    want = lp_oracles.dense_legendre_tire_bound(f, g)
    assert abs(legendre_tire_bound(f, g) - want) <= 1e-15 * max(1.0, abs(want))


@pytest.mark.parametrize("kind", ["anchor", "uniform", "tilt", "gaussian", "smooth",
                                  "zero-rows", "zero-line"])
@pytest.mark.parametrize("dim,m", [(1, 512), (2, 16), (2, 64), (2, 128), (3, 25)])
def test_legendre_matches_dense_oracle(dim, m, kind):
    rng = np.random.default_rng([dim, m, len(kind)])
    _assert_legendre_matches_dense_oracle(*_legendre_pair(kind, unit_cube_grid(dim, m), rng))


@st.composite
def legendre_pairs(draw):
    dim = draw(st.integers(min_value=1, max_value=3))
    m = draw(st.integers(min_value=2, max_value=6))
    grid = unit_cube_grid(dim, m)
    f = draw(st.lists(st.floats(min_value=0.05, max_value=1.0),
                      min_size=m ** dim, max_size=m ** dim))
    g = draw(st.lists(st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=1.0)),
                      min_size=m ** dim, max_size=m ** dim))
    assume(sum(g) > 0)
    return tuple(normalize(GridDensity(grid, np.reshape(x, grid.shape))) for x in (f, g))


@given(pair=legendre_pairs())
@settings(max_examples=200, deadline=None)
def test_legendre_matches_dense_oracle_property(pair):
    _assert_legendre_matches_dense_oracle(*pair)


def _peak_mib(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def test_legendre_peak_memory():
    rng = np.random.default_rng(2)
    grid = unit_cube_grid(2, 64)  # the size of the benchmark's Legendre pair
    f = build_density(random_logconcave_spec_nd(rng, 2, grid.origin, grid.side), grid)
    g = random_smooth_density(rng, grid, amplitude=0.5)
    assert _peak_mib(legendre_tire_bound, f, g) <= 8.0
    f, g = _legendre_pair("smooth", unit_cube_grid(3, 25), rng)
    assert (_peak_mib(legendre_tire_bound, f, g)
            <= _peak_mib(lp_oracles.dense_legendre_tire_bound, f, g) / 4)


def test_legendre_cell_limit_raises_before_any_work():
    # zero cells would fail the positivity check, so the limit must come first
    grid = unit_cube_grid(1, functionals.LEGENDRE_CELL_LIMIT + 1)
    d = GridDensity(grid, np.zeros(grid.shape))
    with pytest.raises(DensityError, match=r"cells\^2 / m; limit is 16384 cells"):
        legendre_tire_bound(d, d)


# ---------------------------------------------------------------- exact W2


def _marginal_error(plan, a, b):
    """Largest gap between the plan's row and column sums and the masses a, b."""
    row = np.bincount(plan.source_index, weights=plan.weights, minlength=len(a))
    col = np.bincount(plan.target_index, weights=plan.weights, minlength=len(b))
    return max(np.abs(row - a).max(), np.abs(col - b).max())


def test_w2_zero_on_equal():
    rng = np.random.default_rng(50)
    grid = unit_cube_grid(2, 6)
    d = normalize(GridDensity(grid, rng.uniform(0.2, 2.0, grid.shape)))
    w2sq, plan = exact_w2_small(d, d)
    assert w2sq == pytest.approx(0.0, abs=1e-12)
    masses = (d.values * grid.cell_volume).ravel()
    assert _marginal_error(plan, masses, masses) < 1e-12


def test_w2_two_cell_hand_value():
    # all mass moves one cell to the right: squared distance h^2 = 1/4
    grid = unit_cube_grid(1, 2)
    f = GridDensity(grid, np.array([2.0, 0.0]))
    g = GridDensity(grid, np.array([0.0, 2.0]))
    w2sq, plan = exact_w2_small(f, g)
    assert w2sq == pytest.approx(0.25, abs=1e-12)
    assert plan.weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_w2_plan_marginals_match_masses():
    rng = np.random.default_rng(51)
    grid = unit_cube_grid(2, 5)
    f = normalize(GridDensity(grid, rng.uniform(0.1, 1.0, grid.shape)))
    g = normalize(GridDensity(grid, rng.uniform(0.1, 1.0, grid.shape)))
    w2sq, plan = exact_w2_small(f, g)
    assert w2sq > 0.0
    fm = (f.values * grid.cell_volume).ravel()
    gm = (g.values * grid.cell_volume).ravel()
    assert _marginal_error(plan, fm, gm) < 1e-9
    src = np.bincount(plan.source_index, weights=plan.weights, minlength=25)
    np.testing.assert_allclose(src, fm, atol=1e-9)


def test_w2_respects_cell_cap():
    grid = unit_cube_grid(2, 80)  # 6400 cells > 4096
    d = build_density(Uniform(), grid)
    with pytest.raises(ValueError):
        exact_w2_small(d, d)


def test_w2_symmetric():
    rng = np.random.default_rng(52)
    grid = unit_cube_grid(1, 40)
    f = normalize(GridDensity(grid, rng.uniform(0.1, 1.0, 40)))
    g = normalize(GridDensity(grid, rng.uniform(0.1, 1.0, 40)))
    ab, _ = exact_w2_small(f, g)
    ba, _ = exact_w2_small(g, f)
    assert ab == pytest.approx(ba, rel=1e-9, abs=1e-12)


def _assert_certified(f, g, cost, plan):
    """The plan's certificate, checked from its duals alone: the plan is
    feasible and costs ``cost``, no reduced cost over all cell pairs (priced
    in chunks of about 2^22 pairs) is below -W2_PRICING_TOL, and the dual
    objective is within the rounding allowance of the cost."""
    a, b = f.cell_masses(), g.cell_masses()
    centers = f.grid.centers()
    n = len(a)
    assert np.all(plan.weights > 0)
    assert _marginal_error(plan, a, b) <= 1e-9
    moved = ((centers[plan.source_index] - centers[plan.target_index]) ** 2).sum(axis=1)
    assert plan.weights @ moved == pytest.approx(cost, rel=1e-12, abs=1e-15)
    assert plan.u.shape == plan.v.shape == (n,) and plan.v[-1] == 0.0
    smallest, step = np.inf, max(1, (1 << 22) // n)
    for s in range(0, n, step):
        rc = ((centers[s:s + step, None, :] - centers[None, :, :]) ** 2).sum(axis=-1)
        smallest = min(smallest, float((rc - plan.u[s:s + step, None] - plan.v).min()))
    assert smallest >= -functionals.W2_PRICING_TOL
    assert smallest == pytest.approx(plan.min_reduced_cost, abs=1e-12)
    diameter_sq = float(((centers.max(axis=0) - centers.min(axis=0)) ** 2).sum())
    rounding = 4 * n * np.finfo(float).eps * (np.abs(plan.u).max() + np.abs(plan.v).max()
                                               + diameter_sq)
    dual = a @ plan.u + b @ plan.v + min(0.0, smallest) * a.sum()
    assert abs(cost - dual) <= rounding
    assert plan.lower_bound <= cost <= plan.lower_bound + 2 * rounding


def _assert_matches_dense_oracle(f, g):
    """Cost equals the dense LP's to 1e-9, the plan has the marginals to
    1e-9, and the certificate holds: no reduced cost below -1e-9, and the
    lower bound within 1e-9 below the cost."""
    cost, plan = exact_w2_small(f, g)
    a, b = f.cell_masses(), g.cell_masses()
    want, _ = lp_oracles.dense_w2(a, b, f.grid.centers())
    assert abs(cost - want) <= 1e-9
    assert _marginal_error(plan, a, b) <= 1e-9
    assert plan.min_reduced_cost >= -1e-9
    assert plan.lower_bound <= cost <= plan.lower_bound + 1e-9
    assert np.all(plan.weights > 0)
    _assert_certified(f, g, cost, plan)
    return cost, plan


@pytest.mark.parametrize("dim,m", [(1, 64), (1, 192), (2, 8), (2, 16), (2, 24), (3, 4), (3, 8)])
def test_w2_matches_dense_oracle(dim, m):
    # seeded pairs like the benchmark's: log-concave source, smooth target.
    # On a 2-core machine the dense LP takes about 7 s at 24^2 and 5 s at 8^3.
    rng = np.random.default_rng([7, dim, m])
    grid = unit_cube_grid(dim, m)
    f = build_density(random_logconcave_spec_nd(rng, dim, grid.origin, grid.side), grid)
    g = random_smooth_density(rng, grid, amplitude=0.25)
    _assert_matches_dense_oracle(f, g)


def _crossed_gaussians(m):
    # opposite correlations: the triangular couplings are far from optimal.
    # Seeded with those of both axis orders, the LP certifies m = 8 and 12 in
    # one round of 33 and 211 simplex iterations; m = 16 takes four rounds,
    # of 645, 18, 121 and 2 iterations
    grid = unit_cube_grid(2, m)
    return (build_density(RestrictedGaussian((0.4, 0.6), ((3.0, 2.0), (2.0, 3.0))), grid),
            build_density(RestrictedGaussian((0.6, 0.4), ((3.0, -2.0), (-2.0, 3.0))), grid))


def test_w2_matches_dense_oracle_over_several_rounds():
    _, plan = _assert_matches_dense_oracle(*_crossed_gaussians(16))
    assert len(plan.iterations) > 2


def test_w2_matches_dense_oracle_with_zero_cells():
    rng = np.random.default_rng(53)
    grid = unit_cube_grid(2, 8)
    fv, gv = rng.uniform(0.1, 1.0, grid.shape), rng.uniform(0.1, 1.0, grid.shape)
    fv[2:5, 1:4] = 0.0
    gv[:, 6:] = 0.0
    gv[0, 0] = 0.0
    f, g = GridDensity(grid, fv), GridDensity(grid, gv)
    cost, plan = _assert_matches_dense_oracle(f, g)
    assert cost > 0.0
    assert not np.any(f.cell_masses()[plan.source_index] == 0)
    assert not np.any(g.cell_masses()[plan.target_index] == 0)


def test_w2_completes_the_tree_with_row_slacks_on_zero_mass_cells(monkeypatch):
    # a zero-mass cell carries no seed column, and the equal pair's seed is
    # the identity coupling, so the seed's spanning forest leaves each such
    # cell, or each identity pair, a tree of its own. Each tree takes one
    # basic row, but the one that holds the dropped last target row
    bases = []
    tree = functionals._tree_basis

    def spy(*args):
        bases.append(tree(*args))
        return bases[-1]

    monkeypatch.setattr(functionals, "_tree_basis", spy)
    rng = np.random.default_rng(55)
    grid = unit_cube_grid(2, 8)
    fv, gv = rng.uniform(0.1, 1.0, grid.shape), rng.uniform(0.1, 1.0, grid.shape)
    fv[1:3, 2:6] = 0.0
    gv[5:, :] = 0.0
    gv[-1, -1] = 1.0  # the dropped last target row keeps its mass
    f, g = normalize(GridDensity(grid, fv)), normalize(GridDensity(grid, gv))
    equal = normalize(GridDensity(grid, rng.uniform(0.2, 2.0, grid.shape)))
    for (source, target), slacks in (((f, g), 8 + 23), ((equal, equal), 63)):
        _assert_matches_dense_oracle(source, target)
        cols, rows = bases.pop()
        assert rows.sum() == slacks
        assert cols.sum() + rows.sum() == 2 * grid.n_cells - 1


@pytest.mark.parametrize("dim,m,zeros", [(1, 12, False), (2, 6, False), (2, 6, True),
                                         (3, 3, True)])
def test_tree_basis_is_nonsingular_and_spans_every_cell_of_positive_mass(dim, m, zeros):
    # the basis matrix, the incidence columns of the basic pairs and the unit
    # columns of the basic rows, has full rank 2n - 1
    rng = np.random.default_rng([56, dim, m])
    grid = unit_cube_grid(dim, m)
    a, b = rng.uniform(0.1, 1.0, (2, grid.n_cells))
    if zeros:
        a[rng.choice(grid.n_cells, grid.n_cells // 4, replace=False)] = 0.0
        b[rng.choice(grid.n_cells - 1, grid.n_cells // 4, replace=False)] = 0.0
    a, b = a / a.sum(), b / b.sum()
    i, j, w = triangular_coupling(a.reshape(grid.shape), b.reshape(grid.shape))
    n = grid.n_cells
    cols, rows = functionals._tree_basis(i, j, w, n)
    basis = np.zeros((2 * n - 1, cols.sum() + rows.sum()))
    for k, (p, q) in enumerate(zip(i[cols], j[cols])):
        basis[p, k] = 1.0
        if q < n - 1:
            basis[n + q, k] = 1.0
    basis[np.flatnonzero(rows), cols.sum() + np.arange(rows.sum())] = 1.0
    assert basis.shape == (2 * n - 1, 2 * n - 1)
    assert np.linalg.matrix_rank(basis) == 2 * n - 1
    # heaviest first: the tree holds the heaviest pair and every cell of positive mass
    assert cols[np.argmax(w)]
    touched = np.zeros(2 * n, dtype=bool)
    touched[i[cols]] = touched[n + j[cols]] = True
    assert np.array_equal(touched, np.concatenate([a, b]) > 0)


def test_w2_matches_dense_oracle_on_equal_densities():
    rng = np.random.default_rng(54)
    grid = unit_cube_grid(2, 12)
    d = normalize(GridDensity(grid, rng.uniform(0.2, 2.0, grid.shape)))
    cost, plan = _assert_matches_dense_oracle(d, d)
    assert cost == pytest.approx(0.0, abs=1e-12)
    assert len(plan.iterations) == 1


def test_w2_calls_linprog_with_the_sparse_cost_first(monkeypatch):
    # the benchmark tracer counts LP variables from functionals.linprog's first argument
    # and simplex iterations from the nit of its result
    sizes = []
    solve = functionals.linprog

    def spy(c, **kwargs):
        sizes.append(len(c))
        return solve(c, **kwargs)

    monkeypatch.setattr(functionals, "linprog", spy)
    f, g = _crossed_gaussians(16)
    _, plan = exact_w2_small(f, g)
    assert len(sizes) == len(plan.iterations) > 1
    assert sizes == sorted(sizes) and sizes[-1] < f.grid.n_cells ** 2 // 4


def test_w2_rounds_after_the_first_start_from_the_kept_basis(monkeypatch):
    # one HiGHS model across rounds: the first solve starts from the tree
    # basis of the mean of the cyclic orders' triangular couplings (a feasible
    # plan), and every later one from the last basis, so it takes fewer
    # simplex iterations; the plan records each round's iterations
    calls, strategies = [], []
    solve = functionals.linprog

    def spy(c, **kwargs):
        res = solve(c, **kwargs)
        calls.append((c, kwargs["start"], res.nit))
        strategies.append(kwargs["highs"].getOptionValue("simplex_strategy")[1])
        return res

    monkeypatch.setattr(functionals, "linprog", spy)
    f, g = _crossed_gaussians(16)
    _, plan = _assert_matches_dense_oracle(f, g)
    assert len(calls) == len(plan.iterations) == 4
    assert plan.iterations == tuple(nit for _, _, nit in calls)
    (_, start, first), later = calls[0], calls[1:]
    assert start is not None
    assert strategies == [4, 4, 4, 4]  # HiGHS's primal simplex in every round at 256 cells
    assert all(start is None and nit < first for _, start, nit in later)


@pytest.mark.parametrize("m", [24, 64])
@pytest.mark.parametrize("noise", [0.0, 1e-9, 1e-6, 1e-3])
def test_pricing_equals_partitioning_every_row(m, noise):
    # certifying duals, perturbed so that more and more rows price a new
    # column: the benchmark's first 2d pair at 24^2 (one chunk), and zero
    # duals, which certify the identity coupling, at 64^2 (four chunks)
    _, source, target = _BENCH_LP_PAIRS_2D[0]
    grid = unit_cube_grid(2, m)
    centers = grid.centers()
    if m == 24:
        _, plan = exact_w2_small(build_density(source, grid), trig_density(target, grid))
        u, v = plan.u, plan.v
    else:
        u, v = np.zeros(grid.n_cells), np.zeros(grid.n_cells)
    rng = np.random.default_rng([57, m])
    u = u + noise * rng.standard_normal(len(u))
    v = v + noise * rng.standard_normal(len(v))
    got = functionals._price(centers, u, v)
    want = lp_oracles.price_every_row(centers, u, v, functionals.W2_COLUMNS_PER_ROW,
                                      functionals.W2_PRICING_TOL)
    assert got[0] == want[0]
    assert np.array_equal(got[1], want[1])
    if noise == 0.0:
        assert len(got[1]) == 0  # a certifying round prices nothing
    if noise >= 1e-6:
        assert len(got[1]) > 0


def test_w2_names_the_scipy_it_needs(monkeypatch):
    monkeypatch.setitem(sys.modules, "scipy.optimize._highspy._core", None)
    d = build_density(Uniform(), unit_cube_grid(1, 4))
    with pytest.raises(ImportError, match=r"scipy>=1\.15"):
        exact_w2_small(d, d)


@pytest.mark.parametrize("key,value", [("primal_feasibility_tolerance", 1e-12),
                                       ("dual_feasibility_tolerance", -1.0),
                                       ("no_such_option", 1.0)])
def test_w2_raises_when_highs_rejects_an_option(monkeypatch, key, value):
    # 1e-12 is below the 1e-10 floor of HiGHS's feasibility tolerances: the
    # call returns kError and would leave the tolerance where it was
    monkeypatch.setitem(functionals.LP_OPTIONS, key, value)
    d = build_density(Uniform(), unit_cube_grid(1, 4))
    with pytest.raises(RuntimeError, match=re.escape(f"setOptionValue({key!r}, {value!r})")):
        exact_w2_small(d, d)


def test_w2_raises_when_highs_rejects_the_start(monkeypatch):
    # a start plan with the wrong number of columns gives a basis with the
    # wrong number of column statuses, which setBasis rejects
    f, g = _crossed_gaussians(16)
    solve = functionals.linprog

    def short_start(c, start=None, **kwargs):
        return solve(c, start=None if start is None else start[:-1], **kwargs)
    monkeypatch.setattr(functionals, "linprog", short_start)
    with pytest.raises(RuntimeError, match="setBasis"):
        exact_w2_small(f, g)


def test_w2_raises_when_round_cap_hit_without_certificate(monkeypatch):
    f, g = _crossed_gaussians(16)
    _, plan = exact_w2_small(f, g)
    assert len(plan.iterations) > 1
    monkeypatch.setattr(functionals, "W2_MAX_ROUNDS", len(plan.iterations) - 1)
    with pytest.raises(RuntimeError, match="certificate"):
        exact_w2_small(f, g)


@pytest.mark.parametrize("dim,m", [(1, 24), (2, 8), (2, 12), (3, 4), (3, 6)])
def test_w2_seeds_with_the_triangular_coupling_of_every_cyclic_axis_order(monkeypatch, dim, m):
    calls, lp_costs, lp_starts = [], [], []
    couple, solve = functionals.triangular_coupling, functionals.linprog

    def spy(a, b):
        calls.append((a, b))
        return couple(a, b)

    def lp_spy(c, **kwargs):
        lp_costs.append(c)
        lp_starts.append(kwargs["start"])
        return solve(c, **kwargs)

    monkeypatch.setattr(functionals, "triangular_coupling", spy)
    monkeypatch.setattr(functionals, "linprog", lp_spy)
    rng = np.random.default_rng([9, dim, m])
    grid = unit_cube_grid(dim, m)
    f = build_density(random_logconcave_spec_nd(rng, dim, grid.origin, grid.side), grid)
    g = random_smooth_density(rng, grid, amplitude=0.5)
    cost, plan = exact_w2_small(f, g)
    a, b = _masses(f), _masses(g)
    orders = [np.roll(np.arange(dim), -k) for k in range(dim)]  # (0, ..., d-1), (1, ..., 0), ...
    assert len(calls) == dim
    centers, triangular, seed = grid.centers(), [], []
    for (got_a, got_b), order in zip(calls, orders):
        assert np.array_equal(got_a, np.transpose(a, order))
        assert np.array_equal(got_b, np.transpose(b, order))
        # the order's atoms, mapped back to cells of the grid, couple f and g
        i, j, w = couple(got_a, got_b)
        flat = np.transpose(np.arange(grid.n_cells).reshape(grid.shape), order).reshape(-1)
        i, j = flat[i], flat[j]
        np.testing.assert_allclose(np.bincount(i, weights=w, minlength=grid.n_cells),
                                   a.ravel(), rtol=0, atol=1e-15)
        np.testing.assert_allclose(np.bincount(j, weights=w, minlength=grid.n_cells),
                                   b.ravel(), rtol=0, atol=1e-15)
        triangular.append(float(w @ ((centers[i] - centers[j]) ** 2).sum(axis=1)))
        seed.append(i * grid.n_cells + j)
    # the first LP runs over the union of those atoms, sorted by flat pair
    # index, and starts from the mean of the couplings
    i, j = np.divmod(np.unique(np.concatenate(seed)), grid.n_cells)
    assert np.array_equal(lp_costs[0], ((centers[i] - centers[j]) ** 2).sum(axis=1))
    assert lp_costs[0] @ lp_starts[0] == pytest.approx(np.mean(triangular), rel=1e-13)
    for masses, ends in ((a, i), (b, j)):
        np.testing.assert_allclose(np.bincount(ends, weights=lp_starts[0],
                                               minlength=grid.n_cells),
                                   masses.ravel(), rtol=0, atol=1e-15)
    # the first order is the coupling of triangular_coupling_cost
    assert triangular[0] == pytest.approx(triangular_coupling_cost(f, g), rel=1e-13)
    assert plan.lower_bound <= min(triangular) and cost <= min(triangular) + 1e-12


# the pinned 2d pairs of the exact-coupling benchmark: (cells per axis,
# source, trig_density coefficients of the target before its seeded 1% jitter)
_BENCH_TARGET = np.array([[[0.3, -0.2], [0.1, 0.05], [0.02, -0.04]],
                          [[-0.25, 0.15], [0.08, -0.1], [0.03, 0.01]]])
_BENCH_LP_PAIRS_2D = [
    (16, RestrictedGaussian((0.4, 0.6), ((3.0, 1.0), (1.0, 2.0))), _BENCH_TARGET),
    (16, RestrictedGaussian((0.55, 0.45), ((2.0, -0.5), (-0.5, 4.0))), _BENCH_TARGET[::-1]),
    (24, RestrictedGaussian((0.4, 0.6), ((3.0, 1.0), (1.0, 2.0))), _BENCH_TARGET),
]


@pytest.mark.parametrize("m,source,target", _BENCH_LP_PAIRS_2D, ids=["16-0", "16-1", "24"])
@pytest.mark.parametrize("jitter_seed", [None, 1, 2])
def test_w2_certifies_the_benchmark_pairs_in_one_round(m, source, target, jitter_seed):
    grid = unit_cube_grid(2, m)
    if jitter_seed is not None:
        target = target + 0.01 * np.random.default_rng(jitter_seed).normal(size=target.shape)
    f, g = build_density(source, grid), trig_density(target, grid)
    _, plan = exact_w2_small(f, g)
    assert len(plan.iterations) == 1
    assert plan.min_reduced_cost >= -1e-9


def test_w2_certifies_the_cell_cap_from_its_duals(monkeypatch):
    # the benchmark's first 2d pair, unjittered, at 64^2 = 4096 cells, where
    # the dense oracle would take hours: the duals alone certify the cost.
    # On a 2-core machine it solves in about 4.3 s, in five rounds of 24,204,
    # 3,368, 3,333, 270 and 94 simplex iterations (the first by the dual
    # simplex, 1.8 s), and the 48^2 pair in about 1 s
    strategies = []
    solve = functionals.linprog

    def spy(c, **kwargs):
        res = solve(c, **kwargs)
        strategies.append(kwargs["highs"].getOptionValue("simplex_strategy")[1])
        return res

    monkeypatch.setattr(functionals, "linprog", spy)
    _, source, target = _BENCH_LP_PAIRS_2D[0]
    grid = unit_cube_grid(2, 64)
    assert grid.n_cells == functionals.W2_CELL_LIMIT
    f, g = build_density(source, grid), trig_density(target, grid)
    cost, plan = exact_w2_small(f, g)
    assert len(plan.iterations) > 1
    # above W2_PRIMAL_CELLS the first solve is HiGHS's dual simplex, the rest its primal
    assert strategies == [1] + [4] * (len(plan.iterations) - 1)
    _assert_certified(f, g, cost, plan)


# a small 2d LP and a row-sum certificate, each of which loads one of scipy's
# compiled modules; values() gives their results bitwise
_SCIPY_CALLS = """
import hashlib, json, sys
from cube_transport import RestrictedGaussian, Uniform, build_density, exact_w2_small
from cube_transport import unit_cube_grid
from cube_transport.sampler import equicorrelated_row_sums
grid = unit_cube_grid(2, 4)
f = build_density(RestrictedGaussian((0.3, 0.6), ((8.0, 0.0), (0.0, 8.0))), grid)
g = build_density(Uniform(), grid)
def values():
    sums, log10_bound = equicorrelated_row_sums(256, 1000, 0)
    return [float(exact_w2_small(f, g)[0]).hex(), log10_bound.hex(),
            hashlib.sha256(sums.tobytes()).hexdigest()]
"""
_SLOW_SCIPY = ("scipy.optimize", "scipy.sparse", "scipy.special", "scipy.linalg", "scipy.spatial")
_COMPILED = ("scipy.optimize._highspy._core", "scipy.special._special_ufuncs")


def _fresh_python(code: str) -> str:
    """stdout of ``code`` run in a new interpreter that imports this package."""
    src = os.path.dirname(os.path.dirname(cube_transport.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path))
    assert run.returncode == 0, run.stderr
    return run.stdout


def test_import_leaves_slow_scipy_modules_unloaded():
    # the CLI's import loads none of scipy's slow packages, and the LP and
    # the row sums load only the two compiled modules they read
    code = (_SCIPY_CALLS + "import cube_transport.cli\nvalues()\n"
            f"print(json.dumps([[m for m in {_SLOW_SCIPY!r} if m in sys.modules], "
            f"[m for m in {_COMPILED!r} if m in sys.modules]]))")
    slow, compiled = json.loads(_fresh_python(code))
    assert slow == []
    assert compiled == list(_COMPILED)


_IMPORT_ORDERS = {
    # scipy's packages imported after the library's loads reuse its modules
    "library-first": f"""
first = values()
core, ufuncs = (sys.modules[m] for m in {_COMPILED!r})
import scipy.optimize, scipy.special
assert [sys.modules[m] for m in {_COMPILED!r}] == [core, ufuncs]
lp = scipy.optimize.linprog([1.0, 2.0], A_eq=[[1.0, 1.0]], b_eq=[1.0])
assert lp.status == 0 and lp.fun == 1.0, lp
assert scipy.special.log_ndtr is ufuncs.log_ndtr
assert values() == first
print(json.dumps(first))
""",
    # the library reuses the modules scipy's packages loaded
    "scipy-first": f"""
import scipy.optimize, scipy.special
from cube_transport.density import _scipy_compiled
assert _scipy_compiled("optimize._highspy._core", "_Highs") is sys.modules[{_COMPILED[0]!r}]
ufuncs = _scipy_compiled("special._special_ufuncs", "log_ndtr", "special")
assert ufuncs is sys.modules[{_COMPILED[1]!r}]
print(json.dumps(values()))
""",
    # no compiled file is found: both loads import scipy's packages instead
    "fallback": f"""
import importlib.machinery
importlib.machinery.EXTENSION_SUFFIXES = []
out = values()
assert all(m in sys.modules for m in ("scipy.optimize", "scipy.special"))
from cube_transport.density import _scipy_compiled
unknown = _scipy_compiled("special._special_ufuncs", "no_such_ufunc", "special")
assert unknown is sys.modules["scipy.special"]
print(json.dumps(out))
""",
}


@pytest.mark.parametrize("order", sorted(_IMPORT_ORDERS))
def test_scipy_loads_give_the_same_values_in_any_import_order(order):
    calls = {}
    exec(_SCIPY_CALLS, calls)
    assert json.loads(_fresh_python(_SCIPY_CALLS + _IMPORT_ORDERS[order])) == calls["values"]()


# ---------------------------------------------------------------- couplings


def test_triangular_coupling_marginals_exact():
    rng = np.random.default_rng(60)
    fm = rng.uniform(0.1, 1.0, 12)
    fm /= fm.sum()
    gm = rng.uniform(0.1, 1.0, 12)
    gm /= gm.sum()
    src, tgt, w = triangular_coupling(fm, gm)
    np.testing.assert_allclose(np.bincount(src, weights=w, minlength=12), fm, atol=1e-12)
    np.testing.assert_allclose(np.bincount(tgt, weights=w, minlength=12), gm, atol=1e-12)
    assert np.all(w > 0.0)


def test_triangular_coupling_is_monotone_1d():
    # in one dimension the rule is the monotone rearrangement, which is
    # the optimal quadratic coupling; check against the LP oracle
    rng = np.random.default_rng(61)
    grid = unit_cube_grid(1, 32)
    f = normalize(GridDensity(grid, rng.uniform(0.1, 1.0, 32)))
    g = normalize(GridDensity(grid, rng.uniform(0.1, 1.0, 32)))
    lp, _ = exact_w2_small(f, g)
    tri = triangular_coupling_cost(f, g)
    assert tri == pytest.approx(lp, rel=1e-10, abs=1e-12)


def test_triangular_cost_at_least_lp_2d():
    rng = np.random.default_rng(62)
    grid = unit_cube_grid(2, 7)
    for _ in range(5):
        f = normalize(GridDensity(grid, rng.uniform(0.1, 1.0, grid.shape)))
        g = normalize(GridDensity(grid, rng.uniform(0.1, 1.0, grid.shape)))
        lp, _ = exact_w2_small(f, g)
        tri = triangular_coupling_cost(f, g)
        assert lp <= tri + 1e-10


def test_triangular_identity_coupling_costs_nothing():
    grid = unit_cube_grid(2, 6)
    d = build_density(Uniform(), grid)
    assert triangular_coupling_cost(d, d) == pytest.approx(0.0, abs=1e-14)


def _assert_same_triples(got, want):
    assert len(got) == len(want) == 3
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def _masses(d):
    return d.cell_masses().reshape(d.grid.shape)


@pytest.mark.parametrize("dim,m", [(1, 256), (2, 64), (2, 512), (3, 16), (4, 8)])
def test_triangular_coupling_equals_loop_oracle(dim, m):
    # seeded pairs like the benchmark's (log-concave source, smooth target)
    # plus the product anchor; (2, 512) spans several batches of fibers
    rng = np.random.default_rng([dim, m])
    grid = unit_cube_grid(dim, m)
    pairs = [(build_density(Uniform(), grid),
              normalize(GridDensity(grid, np.prod(np.stack(grid.centers_mesh()), axis=0))))]
    for _ in range(2):
        pairs.append((build_density(random_logconcave_spec_nd(rng, dim, grid.origin, grid.side),
                                    grid),
                      random_smooth_density(rng, grid, amplitude=0.5)))
    for f, g in pairs:
        a, b = _masses(f), _masses(g)
        _assert_same_triples(triangular_coupling(a, b), loop_oracles.triangular_coupling(a, b))


def test_triangular_coupling_midpoint_on_adjacent_doubles():
    # cumulative masses 0.5 and 0.5 + 2^-53 are adjacent doubles: the level
    # gap between them is one atom of 2^-53 from source cell 1 (its CDF
    # entry 0.5 is the last at most 0.5) to target cell 0, and every cell
    # gets its mass back bitwise
    u = 2.0 ** -53
    a = np.array([0.5, 0.5])
    b = np.array([0.5 + u, 0.5 - u])
    got = triangular_coupling(a, b)
    _assert_same_triples(got, loop_oracles.triangular_coupling(a, b))
    _assert_same_triples(got, (np.array([0, 1, 1]), np.array([0, 0, 1]),
                               np.array([0.5, u, 0.5 - u])))
    i, j, w = got
    assert np.array_equal(np.bincount(i, weights=w), a)
    assert np.array_equal(np.bincount(j, weights=w), b)


def test_triangular_coupling_zero_mass_fibers():
    # the leading sums of these 3x3x3 masses differ in the last bit, so a
    # rule reading cumulative sums past a row's total once put a
    # rounding-size atom on a zero-mass leading cell, and the next level
    # divided by that fiber's zero sum
    a = np.array([[[3, 2, 0], [0, 2, 1], [0, 0, 0]], [[3, 2, 0], [2, 2, 1], [0, 0, 0]],
                  [[0, 0, 0], [3, 3, 1], [0, 0, 0]]], dtype=float)
    b = np.array([[[2, 2, 0], [3, 2, 3], [0, 0, 2]], [[3, 2, 3], [0, 0, 3], [0, 2, 0]],
                  [[1, 0, 0], [0, 0, 2], [2, 2, 0]]], dtype=float)
    a, b = a / a.sum(), b / b.sum()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        i, j, w = triangular_coupling(a, b)
        _assert_same_triples((i, j, w), loop_oracles.triangular_coupling(a, b))
        _, plan = exact_w2_small(GridDensity(unit_cube_grid(3, 3), a),
                                 GridDensity(unit_cube_grid(3, 3), b))
    assert np.all(w > 0)
    assert np.all(a.ravel()[i] > 0) and np.all(b.ravel()[j] > 0)
    np.testing.assert_allclose(np.bincount(i, weights=w, minlength=27), a.ravel(), atol=1e-15)
    np.testing.assert_allclose(np.bincount(j, weights=w, minlength=27), b.ravel(), atol=1e-15)
    assert _marginal_error(plan, a.ravel(), b.ravel()) <= 1e-15


@st.composite
def mass_pairs(draw):
    dim = draw(st.integers(min_value=1, max_value=3))
    m = draw(st.integers(min_value=1, max_value=6))
    cell = st.one_of(st.integers(min_value=0, max_value=3).map(float),
                     st.floats(min_value=1e-6, max_value=1.0))
    cells = st.lists(cell, min_size=m ** dim, max_size=m ** dim)
    a = np.array(draw(cells)).reshape((m,) * dim)
    b = np.array(draw(cells)).reshape((m,) * dim)
    assume(a.sum() > 0 and b.sum() > 0)
    if draw(st.booleans()):  # bitwise-equal totals, so many cumulative masses tie
        return a * b.sum(), b * a.sum()
    return a / a.sum(), b / b.sum()


@given(pair=mass_pairs())
@settings(max_examples=200, deadline=None)
def test_triangular_coupling_equals_loop_oracle_property(pair):
    a, b = pair
    i, j, w = triangular_coupling(a, b)
    _assert_same_triples((i, j, w), loop_oracles.triangular_coupling(a, b))
    assert np.all(a.ravel()[i] > 0) and np.all(b.ravel()[j] > 0)


def _cells(chars, tiny):
    """5^3 masses, one character per cell: a digit, or 'e' for ``tiny``."""
    return np.array([tiny if c == "e" else float(c) for c in chars]).reshape(5, 5, 5)


def _equal_totals(a, b):
    return a * b.sum(), b * a.sum()


@given(pair=mass_pairs())
@settings(max_examples=60, deadline=None)
# HiGHS left a basic at -7e-11 here; dropping it from the plan moved the
# plan's own cost 7e-11 relative off the returned LP objective
@example(pair=_equal_totals(
    _cells("006000000600000600060020000600044400206000000e2000000004406004060"
           "000004006000200022060602000422602640104406102000000012200202", 2e-6),
    _cells("000200200202000200000300020000030202030300003e0002003000000000000"
           "003300310000021101010033001020100000002103010003000000112131", 1e-6)))
def test_w2_matches_dense_oracle_property(pair):
    grid = unit_cube_grid(pair[0].ndim, pair[0].shape[0])
    _assert_matches_dense_oracle(*(GridDensity(grid, x) for x in pair))


def _seeded_pairs(grid, rng):
    """Seeded pairs like the benchmark's, the product anchor, and a pair with
    zero-mass cells."""
    product = np.prod([1.0 + x for x in grid.centers_mesh()], axis=0)
    pairs = [(build_density(Uniform(), grid), normalize(GridDensity(grid, product)))]
    for _ in range(2):
        pairs.append((build_density(random_logconcave_spec_nd(rng, grid.dim, grid.origin,
                                                              grid.side), grid),
                      random_smooth_density(rng, grid, amplitude=0.5)))
    holes = [rng.uniform(0.0, 1.0, grid.shape) * (rng.uniform(size=grid.shape) > 0.3)
             for _ in range(2)]
    pairs.append(tuple(normalize(GridDensity(grid, x + (x.sum() == 0))) for x in holes))
    return pairs


@pytest.mark.parametrize("grid", [
    unit_cube_grid(1, 300), unit_cube_grid(2, 512), unit_cube_grid(3, 20),
    unit_cube_grid(4, 9), unit_cube_grid(2, 40), unit_cube_grid(3, 12),
    unit_cube_grid(3, 16), unit_cube_grid(4, 7),
], ids=lambda g: f"d{g.dim}-m{g.cells_per_axis}-side{g.side}-o{g.origin}")
def test_triangular_cost_equals_cost_of_built_atoms(grid):
    # (2, 512) spans several batches of fibers
    rng = np.random.default_rng([grid.dim, grid.cells_per_axis])
    for f, g in _seeded_pairs(grid, rng):
        assert triangular_coupling_cost(f, g) == loop_oracles.triangular_coupling_cost(f, g)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_triangular_cost_of_point_masses_is_their_squared_distance(dim):
    # one atom of weight 1: the cost is one squared distance, summed over the
    # axes in order, so a change in the order of the axes shows in the last bit
    rng = np.random.default_rng(80 + dim)
    for _ in range(60):
        grid = unit_cube_grid(dim, int(rng.integers(2, 8)))
        p, q = rng.integers(0, grid.n_cells, 2)
        f, g = (GridDensity(grid, (np.arange(grid.n_cells) == k).reshape(grid.shape) * 1.0)
                for k in (p, q))
        centers = grid.centers()
        want = float(((centers[p] - centers[q]) ** 2).sum())
        assert triangular_coupling_cost(f, g) == loop_oracles.triangular_coupling_cost(f, g) == want


@st.composite
def cost_pairs(draw):
    """Densities with zero cells on a small grid of dimension up to 4: few
    atoms, so a change in the last bit of one atom's squared distance can
    reach the summed cost."""
    dim = draw(st.integers(min_value=1, max_value=4))
    m = draw(st.integers(min_value=1, max_value=4))
    grid = Grid(dim, m)
    cell = st.one_of(st.integers(min_value=0, max_value=3).map(float),
                     st.floats(min_value=1e-6, max_value=1.0))
    values = [np.array(draw(st.lists(cell, min_size=m ** dim, max_size=m ** dim)))
              for _ in range(2)]
    assume(all(v.sum() > 0 for v in values))
    return tuple(GridDensity(grid, v.reshape(grid.shape)) for v in values)


@given(pair=cost_pairs())
@settings(max_examples=200, deadline=None)
def test_triangular_cost_equals_cost_of_built_atoms_property(pair):
    assert triangular_coupling_cost(*pair) == loop_oracles.triangular_coupling_cost(*pair)


@pytest.mark.parametrize("a,b", [
    (np.full((4, 4), 1 / 16), np.full((4, 5), 1 / 20)),  # shapes differ
    (np.full(4, 0.25), np.full(4, 0.1)),  # totals 1.0 and 0.4
    (np.full((4, 4), 1 / 16), np.full(16, 1 / 16)),  # ndims differ
    (np.array([0.5, np.nan]), np.array([0.5, 0.5])),
    (np.array([1.5, -0.5]), np.array([0.5, 0.5])),
    (np.zeros(3), np.zeros(3)),
    (np.float64(1.0), np.float64(1.0)),
])
def test_triangular_coupling_rejects_bad_masses(a, b):
    with pytest.raises(DensityError):
        triangular_coupling(a, b)


# ---------------------------------------------------------------- inequalities


def test_tire_le_entropy_anchor():
    f = build_density(Uniform(), unit_cube_grid(1, 512))
    g = build_density(ConvexPower(0.0, (2.0,), 1.0), unit_cube_grid(1, 512))
    rep = check_tire_le_entropy(f, g, knothe_map(f, g))
    assert rep.passed
    assert rep.rhs == pytest.approx(np.log(2.0) - 0.5, abs=1e-3)


def test_sandwich_reports_three_links():
    rng = np.random.default_rng(70)
    grid = unit_cube_grid(2, 8)
    f = build_density(random_logconcave_spec_nd(rng, 2, grid.origin, grid.side), grid)
    g = build_density(random_logconcave_spec_nd(rng, 2, grid.origin, grid.side), grid)
    ratio = max(estimate_axis_convexity_ratio(f), estimate_axis_convexity_ratio(g))
    reps = check_transport_entropy_sandwich(f, g, ratio)
    names = [r.name for r in reps]
    assert names == ["sandwich-w2-knothe", "thm-4.2", "sandwich-knothe-entropy"]
    assert all(r.passed for r in reps)


@pytest.mark.parametrize("seed", range(6))
def test_sandwich_random_pairs(seed):
    rng = np.random.default_rng(700 + seed)
    grid = unit_cube_grid(2, 8)
    f = build_density(random_logconcave_spec_nd(rng, 2, grid.origin, grid.side), grid)
    g = build_density(random_logconcave_spec_nd(rng, 2, grid.origin, grid.side), grid)
    ratio = max(estimate_axis_convexity_ratio(f), estimate_axis_convexity_ratio(g))
    assert all(r.passed for r in check_transport_entropy_sandwich(f, g, ratio))


# ---------------------------------------------------------------- properties


@given(seed=st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=15, deadline=None)
def test_monotone_cost_at_least_w2_1d(seed):
    # the 1d monotone map is optimal in the continuum; on the grid the
    # atomized LP optimum stays below the triangular atom coupling
    rng = np.random.default_rng(seed)
    grid = unit_cube_grid(1, 24)
    f = build_density(random_logconcave_spec_1d(rng), grid)
    g = build_density(random_logconcave_spec_1d(rng), grid)
    lp, _ = exact_w2_small(f, g)
    tri = triangular_coupling_cost(f, g)
    assert lp <= tri + 1e-12
