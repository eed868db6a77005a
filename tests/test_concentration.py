"""Half-space concentration profiles, functional inequalities, scaling law."""

import math
import tracemalloc

import numpy as np
import pytest

from cube_transport import (
    DegenerateDensityError,
    DensityError,
    RestrictedGaussian,
    Uniform,
    alpha_theorem1,
    build_density,
    check_concentration,
    closed_form_t_star,
    counterexample_scaling,
    covariance_ratio,
    estimate_diag_second_derivative_bound,
    halfspace_profile,
    lipschitz_tail,
    poincare_lsi_check,
    r_from_m,
    sample_grid,
    unit_cube_grid,
)
from cube_transport.concentration import BASE_ALPHA, LSI_FACTOR, POINCARE_FACTOR


# ---------------------------------------------------------------- constants


def test_constants():
    assert BASE_ALPHA == 3.0
    assert POINCARE_FACTOR == pytest.approx(20.0 / 9.0)
    assert LSI_FACTOR == pytest.approx(160.0 / 9.0)


def test_alpha_flat_curvature():
    # M = 0 collapses to the base constant
    assert alpha_theorem1(0.0) == pytest.approx(3.0)


def test_alpha_grows_with_curvature():
    # alpha = 3 exp(M / 8) on the unit cube
    assert alpha_theorem1(8.0 * np.log(2.0)) == pytest.approx(6.0)
    assert alpha_theorem1(4.0) > alpha_theorem1(1.0)


def test_r_from_m():
    # R = exp(M / 8) on the unit cube
    assert r_from_m(0.0) == pytest.approx(1.0)
    assert r_from_m(1.0) == pytest.approx(np.exp(1.0 / 8.0))


def test_alpha_is_three_times_the_ratio_bitwise():
    # Theorems 1.1 and 1.2 give one alpha at every curvature
    for m in np.random.default_rng(35).uniform(0.0, 50.0, 1000):
        assert alpha_theorem1(m) == 3.0 * r_from_m(m)


@pytest.mark.parametrize("call", [
    lambda d, f: alpha_theorem1(1.0, 0.0),
    lambda d, f: alpha_theorem1(0.0, side=1.0),
    lambda d, f: r_from_m(2.0, 0.5),
    lambda d, f: r_from_m(2.0, side=0.5),
    lambda d, f: poincare_lsi_check(d, 0.0, 1.0, [f]),
    lambda d, f: poincare_lsi_check(d, 0.0, [f], side=1.0),
], ids=["alpha", "alpha-keyword", "ratio", "ratio-keyword", "poincare", "poincare-keyword"])
def test_paper_constants_take_no_side(call):
    # every grid is the unit cube, so the constants have no side to take
    grid = unit_cube_grid(1, 8)
    with pytest.raises(TypeError):
        call(build_density(Uniform(), grid), np.cos(np.pi * grid.axis_centers(0)))


# ---------------------------------------------------------------- profiles


def test_uniform_axis_profile_exact():
    # uniform on the unit square, direction e1: median 1/2,
    # mu(x1 <= 1/2 + t) = 1/2 + t, so 1 - measured = 1/2 - t
    d = build_density(Uniform(), unit_cube_grid(2, 64))
    ts = np.linspace(0.0, 0.45, 10)
    prof = halfspace_profile(d, np.array([1.0, 0.0]), ts, alpha=3.0)
    np.testing.assert_allclose(prof.measured, 0.5 + ts, atol=1e-12)
    assert prof.median_offset == pytest.approx(0.5, abs=1e-9)
    np.testing.assert_allclose(prof.bound, 1.0 - np.exp(-(ts / 3.0) ** 2), rtol=1e-12)


def test_uniform_profile_passes_base_alpha():
    d = build_density(Uniform(), unit_cube_grid(2, 64))
    ts = np.linspace(0.0, 1.2, 20)
    prof = halfspace_profile(d, np.array([1.0, 0.0]), ts, alpha=3.0)
    rep = check_concentration(prof, "cor-1.3")
    assert rep.passed


def test_uniform_fails_tiny_alpha():
    # negative control: alpha = 0.1 demands far more mass than exists
    d = build_density(Uniform(), unit_cube_grid(2, 64))
    ts = np.linspace(0.0, 1.2, 20)
    prof = halfspace_profile(d, np.array([1.0, 0.0]), ts, alpha=0.1)
    rep = check_concentration(prof, "cor-1.3")
    assert not rep.passed


def test_diagonal_direction_grid_profile():
    # a grid is profiled exactly along +e_k only: a diagonal profile or tail
    # of the grid raises, and the diagonal is profiled from sampled points
    d = build_density(Uniform(), unit_cube_grid(2, 48))
    u = np.array([1.0, 1.0]) / np.sqrt(2.0)
    ts = np.linspace(0.0, 1.0, 12)
    with pytest.raises(DensityError, match="sample_grid"):
        halfspace_profile(d, u, ts, alpha=3.0)
    with pytest.raises(DensityError, match="sample_grid"):
        lipschitz_tail(d, ts, 3.0, u)
    prof = halfspace_profile(sample_grid(d, 100000, seed=2), u, ts, alpha=3.0)
    assert np.all(np.diff(prof.measured) >= 0)
    assert prof.measured[0] == pytest.approx(0.5, abs=1e-4)
    assert check_concentration(prof, "cor-1.3").passed


def test_sampled_profile_matches_grid_profile():
    d = build_density(RestrictedGaussian((0.5, 0.5), ((4.0, 0.0), (0.0, 4.0))),
                      unit_cube_grid(2, 32))
    ts = np.linspace(0.0, 0.6, 8)
    u = np.array([1.0, 0.0])
    grid_prof = halfspace_profile(d, u, ts, alpha=3.0)
    batch = sample_grid(d, 200000, seed=21)
    samp_prof = halfspace_profile(batch, u, ts, alpha=3.0)
    np.testing.assert_allclose(samp_prof.measured, grid_prof.measured, atol=0.01)
    assert samp_prof.std_error.max() > 0.0
    assert grid_prof.std_error.max() == 0.0


def test_gaussian_grid_profile_passes_paper_alpha():
    grid = unit_cube_grid(2, 64)
    d = build_density(RestrictedGaussian((0.5, 0.5), ((1.0, 0.0), (0.0, 1.0))), grid)
    mhat = estimate_diag_second_derivative_bound(d)
    assert mhat == pytest.approx(1.0, abs=1e-6)
    ts = np.linspace(0.0, 1.2, 20)
    # exact along +e1 and +e2, sampled along the diagonal. Theorem 1.2's
    # 3 r_from_m(mhat) is this alpha bitwise, so one profile checks both
    batch = sample_grid(d, 100000, seed=4)
    for mu, u in ((d, np.array([1.0, 0.0])), (d, np.array([0.0, 1.0])),
                  (batch, np.array([1.0, 1.0]) / np.sqrt(2.0))):
        prof = halfspace_profile(mu, u, ts, alpha=alpha_theorem1(mhat))
        assert check_concentration(prof, name="thm-1.1").passed


def test_lipschitz_tail_gaussian_rate():
    # a Gaussian of sd 0.05 about the middle of [0, 1], cut at 10 sd: its
    # two-sided tails are erfc(t / (sd sqrt 2)) to the grid's interpolation
    # error, ~exp(-t^2 / (2 sd^2)) up to polynomial factors, so with
    # alpha = sqrt(2) sd the fitted rate is near 1
    sd = 0.05
    d = build_density(RestrictedGaussian((0.5,), ((1.0 / sd ** 2,),)), unit_cube_grid(1, 1024))
    ts = np.linspace(0.1, 2.5, 15) * sd
    fit = lipschitz_tail(d, ts, np.sqrt(2.0) * sd, [1.0])
    np.testing.assert_allclose(fit.tails, [math.erfc(t / (sd * math.sqrt(2.0))) for t in ts],
                               rtol=0, atol=1e-4)
    assert 0.7 <= fit.rate <= 1.4


def test_uniform_axis_profile_tail_and_covariance_are_closed_forms():
    # uniform on the unit square along e1: the median is 1/2, the profile
    # is min(1, 1/2 + t), the two-sided tail is max(0, 1 - 2t), and the
    # covariance ratio is (1/12) / alpha^2, all exact on the grid
    d = build_density(Uniform(), unit_cube_grid(2, 64))
    ts = np.linspace(0.0, 0.8, 33)
    u = np.array([1.0, 0.0])
    prof = halfspace_profile(d, u, ts, alpha=3.0)
    np.testing.assert_allclose(prof.measured, np.minimum(1.0, 0.5 + ts), rtol=0, atol=1e-12)
    fit = lipschitz_tail(d, ts, 3.0, u)
    np.testing.assert_allclose(fit.tails, np.maximum(0.0, 1.0 - 2.0 * ts), rtol=0, atol=1e-12)
    assert covariance_ratio(d, 3.0) == pytest.approx((1.0 / 12.0) / 9.0, abs=1e-12)


def test_exact_gaussian_tail_fit_matches_the_sampled_fit():
    # grid samples follow the density's law exactly, so each sampled tail is
    # binomial around the exact one. The fitted slope is linear in the log
    # tails, whose covariance for nested tail events is
    # (min(p_i, p_j) - p_i p_j) / (p_i p_j N) to first order
    n_samples = 10 ** 6
    d = build_density(RestrictedGaussian((0.5, 0.5), ((1.0, 0.0), (0.0, 1.0))),
                      unit_cube_grid(2, 256))
    u = np.array([1.0, 0.0])
    ts = np.linspace(0.05, 0.45, 9)
    exact = lipschitz_tail(d, ts, 3.0, u)
    values = sample_grid(d, n_samples, seed=1).points @ u
    dev = np.abs(values - np.median(values))
    sampled = np.array([(dev >= t).mean() for t in ts])
    p = exact.tails
    assert np.all(np.abs(sampled - p) <= 4.0 * np.sqrt(p * (1.0 - p) / n_samples))
    x = (ts / 3.0) ** 2
    w = (x - x.mean()) / ((x - x.mean()) ** 2).sum()
    cov = (np.minimum.outer(p, p) - np.outer(p, p)) / (np.outer(p, p) * n_samples)
    sampled_rate = -np.polyfit(x, np.log(sampled), 1)[0]
    assert abs(sampled_rate - exact.rate) <= 4.0 * np.sqrt(w @ cov @ w)


def test_lipschitz_tail_takes_only_a_grid_density():
    # an anisotropic Gaussian, whose exact tails along e1 are 0.768, 0.545
    # and 0.339: its sampled points, and their values projected on e1, are
    # no input of the tail
    d = build_density(RestrictedGaussian((0.5, 0.5), ((4.0, 0.0), (0.0, 40.0))),
                      unit_cube_grid(2, 32))
    ts = np.array([0.1, 0.2, 0.3])
    u = np.array([1.0, 0.0])
    batch = sample_grid(d, 1000, seed=0)
    for bad in (batch, batch.points, batch.points @ u, np.array([])):
        with pytest.raises(DensityError, match="GridDensity"):
            lipschitz_tail(bad, ts, 3.0, u)
    exact = lipschitz_tail(d, ts, 3.0, u)
    np.testing.assert_allclose(exact.tails, [0.768, 0.545, 0.339], atol=5e-4)


def test_grid_profiles_and_tails_run_along_plus_e_k_only():
    # along -e_k, profile the density flipped along axis k instead
    d = build_density(RestrictedGaussian((0.3, 0.5), ((4.0, 0.0), (0.0, 4.0))),
                      unit_cube_grid(2, 16))
    for u in ([-1.0, 0.0], [0.0, -2.0]):
        with pytest.raises(DensityError, match=r"\+e_k only"):
            halfspace_profile(d, u, [0.1, 0.2], 3.0)
        with pytest.raises(DensityError, match=r"\+e_k only"):
            lipschitz_tail(d, [0.1, 0.2], 3.0, u)


@pytest.mark.parametrize("direction", [[1.0, 0.0, 0.0], [1.0], None, [float("nan"), 0.0],
                                       [1.0, float("inf")]],
                         ids=["too-long", "too-short", "none", "nan", "inf"])
@pytest.mark.parametrize("profile", [
    lambda d, u: halfspace_profile(d, u, [0.1, 0.2], 3.0),
    lambda d, u: lipschitz_tail(d, [0.1, 0.2], 3.0, u),
], ids=["halfspace_profile", "lipschitz_tail"])
def test_profiles_reject_a_direction_of_the_wrong_length_or_not_finite(profile, direction):
    # numpy's reshape raised ValueError on the wrong length and on None, and
    # [nan, 0] got the "+e_k only" message
    d = build_density(Uniform(), unit_cube_grid(2, 8))
    with pytest.raises(DensityError, match="^direction must be 2 finite numbers$"):
        profile(d, direction)


def test_lipschitz_tail_needs_a_direction_on_a_grid():
    d = build_density(Uniform(), unit_cube_grid(2, 8))
    with pytest.raises(TypeError, match="direction"):
        lipschitz_tail(d, [0.1, 0.2], 3.0)


@pytest.mark.parametrize("alpha", [0.0, -1.0, float("nan"), float("inf")])
@pytest.mark.parametrize("profile", [
    lambda d, alpha: halfspace_profile(d, [1.0, 0.0], [0.1, 0.2], alpha),
    lambda d, alpha: lipschitz_tail(d, [0.1, 0.2], alpha, [1.0, 0.0]),
    lambda d, alpha: covariance_ratio(d, alpha),
], ids=["halfspace_profile", "lipschitz_tail", "covariance_ratio"])
def test_profiles_reject_alpha_that_is_not_finite_and_positive(profile, alpha):
    # nan gave nan bounds and ratios, and lipschitz_tail fitted at alpha = -1
    # and failed inside LAPACK at 0 and nan
    d = build_density(Uniform(), unit_cube_grid(2, 8))
    with pytest.raises(DensityError, match="alpha must be finite and positive"):
        profile(d, alpha)


# ---------------------------------------------------------------- covariance


def test_covariance_ratio_uniform_1d():
    d = build_density(Uniform(), unit_cube_grid(1, 32))
    # Var = 1/12 exactly after the jitter correction; alpha = 3
    assert covariance_ratio(d, 3.0) == pytest.approx((1.0 / 12.0) / 9.0, abs=1e-12)


def test_covariance_ratio_samples_close_to_grid():
    # covariance_ratio reads grid densities only; a sample's ratio is the
    # top eigenvalue of np.cov of its points
    d = build_density(Uniform(), unit_cube_grid(2, 16))
    batch = sample_grid(d, 100000, seed=5)
    grid_ratio = covariance_ratio(d, 3.0)
    samp_ratio = np.linalg.eigvalsh(np.cov(batch.points, rowvar=False))[-1] / 9.0
    assert samp_ratio == pytest.approx(grid_ratio, rel=0.05)
    with pytest.raises(DensityError, match="GridDensity"):
        covariance_ratio(batch, 3.0)


def _covariance_ratio_from_centers(d, alpha):
    """The (cells, dim) oracle: the cell-centre covariance plus h^2/12 per axis."""
    w, centers = d.cell_masses(), d.grid.centers()
    centered = centers - w @ centers
    cov = (centered * w[:, None]).T @ centered + np.eye(d.grid.dim) * (d.grid.h ** 2 / 12.0)
    return float(np.linalg.eigvalsh(cov)[-1]) / alpha ** 2


@pytest.mark.parametrize("dim, m", [(1, 1024), (2, 256), (4, 16), (8, 4), (10, 4)])
def test_covariance_ratio_matches_the_cell_centre_formula(dim, m):
    # the second Gaussian is correlated and off-centre, so every entry counts
    corr = 3.0 * (np.eye(dim) + 0.4 * np.ones((dim, dim)))
    for spec in (RestrictedGaussian((0.5,) * dim, tuple(map(tuple, np.eye(dim)))),
                 RestrictedGaussian(tuple(np.linspace(0.2, 0.7, dim)), tuple(map(tuple, corr)))):
        d = build_density(spec, unit_cube_grid(dim, m))
        assert covariance_ratio(d, 1.7) == pytest.approx(_covariance_ratio_from_centers(d, 1.7),
                                                         rel=1e-12, abs=0.0)


def test_grid_covariance_ratio_forms_no_cells_by_dim_array():
    # at 4^10 cells a (cells, dim) array alone is ten value arrays
    d = build_density(RestrictedGaussian((0.5,) * 10, tuple(map(tuple, np.eye(10)))),
                      unit_cube_grid(10, 4))
    tracemalloc.start()
    try:
        covariance_ratio(d, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * d.values.nbytes


# ---------------------------------------------------------------- poincare/lsi


def test_poincare_anchor_cosine():
    # f = cos(pi x) on uniform [0,1]: Var = 1/2, energy = pi^2/2,
    # ratio far below (20/9)
    grid = unit_cube_grid(1, 1024)
    d = build_density(Uniform(), grid)
    fn = np.cos(np.pi * grid.axis_centers(0))
    reps = poincare_lsi_check(d, 0.0, [fn])
    poin = [r for r in reps if r.name == "cor-4.5-poincare"][0]
    lsi = [r for r in reps if r.name == "cor-4.5-lsi"][0]
    assert poin.passed and lsi.passed
    assert poin.lhs == pytest.approx(0.5, abs=1e-3)
    assert poin.rhs == pytest.approx((20.0 / 9.0) * np.pi**2 / 2.0, rel=1e-3)


def test_poincare_constant_not_violated_by_first_eigenfunction():
    # cos(pi x) is the extremal function: Var/energy = 1/pi^2 < 20/9
    grid = unit_cube_grid(1, 512)
    d = build_density(Uniform(), grid)
    fn = np.cos(np.pi * grid.axis_centers(0))
    reps = poincare_lsi_check(d, 0.0, [fn])
    poin = reps[0]
    assert poin.lhs / (poin.rhs / ((20.0 / 9.0))) == pytest.approx(1.0 / np.pi**2, rel=5e-3)


def test_poincare_lsi_gaussian_measure():
    grid = unit_cube_grid(1, 256)
    d = build_density(RestrictedGaussian((0.5,), ((4.0,),)), grid)
    x = grid.axis_centers(0) - 0.5
    fns = [np.sin(2.0 * np.pi * x), x**2, np.exp(x)]
    reps = poincare_lsi_check(d, 4.0, fns)
    assert len(reps) == 6
    assert all(r.passed for r in reps)


def test_poincare_lsi_rows_carry_the_curvature_factor():
    # the CLI's gaussian-1d measure: M = 4, so the factor exp(M / 4) is e;
    # each rhs is its constant times a base recomputed here from the masses
    # and a hand-rolled gradient
    grid = unit_cube_grid(1, 256)
    d = build_density(RestrictedGaussian((0.5,), ((4.0,),)), grid)
    x, h = grid.axis_centers(0), grid.h
    w = d.values / d.values.sum()
    fns = [np.cos(np.pi * x), x ** 2, np.exp(x), np.zeros(256)]
    reps = poincare_lsi_check(d, 4.0, fns)
    assert [r.name for r in reps] == ["cor-4.5-poincare", "cor-4.5-lsi"] * len(fns)
    for f, poincare, lsi in zip(fns, reps[::2], reps[1::2]):
        grad = np.concatenate(([f[1] - f[0]], (f[2:] - f[:-2]) / 2.0, [f[-1] - f[-2]])) / h
        energy, nrm2 = (grad * grad * w).sum(), (f * f * w).sum()
        assert poincare.constant_used == pytest.approx(POINCARE_FACTOR * np.e, rel=1e-15)
        assert lsi.constant_used == pytest.approx(LSI_FACTOR * np.e, rel=1e-15)
        assert poincare.rhs == pytest.approx(POINCARE_FACTOR * np.e * energy, rel=1e-12)
        base = energy / nrm2 if nrm2 > 0 else 0.0
        assert lsi.rhs == pytest.approx(LSI_FACTOR * np.e * base, rel=1e-12)


def test_constant_function_skipped_in_lsi():
    grid = unit_cube_grid(1, 64)
    d = build_density(Uniform(), grid)
    reps = poincare_lsi_check(d, 0.0, [np.ones(64)])
    # zero-energy functions produce trivially passing rows with a note
    assert all(r.passed for r in reps)


def test_poincare_2d_random_functions():
    rng = np.random.default_rng(8)
    grid = unit_cube_grid(2, 32)
    d = build_density(RestrictedGaussian((0.5, 0.5), ((2.0, 0.0), (0.0, 2.0))), grid)
    fns = [rng.standard_normal(grid.shape) for _ in range(3)]
    smooth = []
    for fn in fns:
        # smooth the noise so the gradient quadrature is meaningful
        k = np.ones(5) / 5.0
        sm = np.apply_along_axis(lambda v: np.convolve(v, k, mode="same"), 0, fn)
        sm = np.apply_along_axis(lambda v: np.convolve(v, k, mode="same"), 1, sm)
        smooth.append(sm)
    reps = poincare_lsi_check(d, 2.0, smooth)
    assert all(r.passed for r in reps)


# ---------------------------------------------------------------- scaling


def test_counterexample_scaling_small():
    res = counterexample_scaling([256, 1024], n_samples=20000, seed=0)
    assert [r.n for r in res.rows] == [256, 1024]
    for row in res.rows:
        assert abs(row.mass_fraction - 0.5) <= 3.0 / np.sqrt(row.n_samples)
    # width shrinks like sqrt(n / log n) in the predicted column
    assert res.rows[1].predicted > res.rows[0].predicted
    assert 0.3 <= res.slope <= 0.7


def test_scaling_predicted_is_the_closed_form():
    res = counterexample_scaling([256, 4096], n_samples=50000, seed=1)
    z = 0.4307272992954576  # Phi^-1(2/3)
    for row in res.rows:
        closed = np.sqrt(row.n + 1) / (100.0 * np.sqrt(np.log(row.n))) * z
        assert row.predicted == pytest.approx(closed, rel=1e-12)
        assert (row.predicted, row.std_error) == closed_form_t_star(row.n, row.n_samples)
        assert abs(row.t_star - row.predicted) <= 5.0 * row.std_error
        assert row.rejection_log10_bound < -53 * np.log10(2.0)


def test_scaling_raises_without_a_cube_certificate(monkeypatch):
    monkeypatch.setattr("cube_transport.sampler.equicorrelated_scale", lambda n: 0.1)
    with pytest.raises(DegenerateDensityError):
        counterexample_scaling([256, 1024], n_samples=1000, seed=0)


def test_scaling_is_reproducible():
    a = counterexample_scaling([128, 256], n_samples=5000, seed=3)
    b = counterexample_scaling([128, 256], n_samples=5000, seed=3)
    assert a.rows == b.rows
    assert a.slope == b.slope


def test_scaling_input_validation():
    with pytest.raises(ValueError):
        counterexample_scaling([256], n_samples=5000, seed=0)
    with pytest.raises(ValueError):
        counterexample_scaling([16, 32], n_samples=5000, seed=0)
    with pytest.raises(ValueError):
        counterexample_scaling([256, 512], n_samples=10, seed=0)


@pytest.mark.parametrize("ns", [[64, 128.9], [64.0, 128], [np.float64(256), 1024], [True, 128],
                                [256, "1024"]], ids=["128.9", "64.0", "float64", "bool", "str"])
def test_scaling_rejects_dimensions_that_are_not_integers(ns):
    # [64, 128.9] ran as n = 64 and 128
    with pytest.raises(DensityError, match="dimensions must be integers"):
        counterexample_scaling(ns, n_samples=5000, seed=0)


def test_scaling_accepts_numpy_integer_dimensions():
    a = counterexample_scaling(np.array([128, 256]), n_samples=5000, seed=3)
    b = counterexample_scaling([128, 256], n_samples=5000, seed=3)
    assert a.rows == b.rows and [type(r.n) for r in a.rows] == [int, int]


def test_scaling_needs_two_distinct_dimensions():
    # one distinct n leaves the slope undetermined: no fit through a single point
    with pytest.raises(DensityError, match="two distinct dimensions"):
        counterexample_scaling([256, 256], n_samples=5000, seed=0)
