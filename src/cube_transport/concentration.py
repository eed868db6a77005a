"""Halfspace concentration profiles, spectral-gap style checks, and the
dimension-scaling experiment for the equicorrelated construction.

A concentration profile compares, for a unit direction u and offsets t, the
measured mass of {x . u <= median + t} against the target lower bound
1 - exp(-t^2 / alpha^2). Grid measures are evaluated exactly along +-e_k
(piecewise-linear marginal CDFs) and raise DensityError along any other
direction; sample batches, such as the points of ``sample_grid``, take any
direction and use empirical fractions with a binomial standard error, and
the check allows a 3 SE statistical margin. The paper's constants are
those of the unit cube [0, 1]^n, which every Grid spans.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .density import DensityError, GridDensity, equicorrelated_scale
from .reports import VerificationReport, make_report
from .sampler import SampleBatch, equicorrelated_row_sums

POINCARE_FACTOR = 20.0 / 9.0
LSI_FACTOR = 160.0 / 9.0
BASE_ALPHA = 3.0
# smallest dimension and per-dimension sample count of the scaling experiment
MIN_SCALING_DIM = 64
MIN_SCALING_SAMPLES = 1000


def alpha_theorem1(curvature_bound: float) -> float:
    """Concentration constant 3 exp(curvature_bound / 8) on the unit cube."""
    return BASE_ALPHA * r_from_m(curvature_bound)


def r_from_m(curvature_bound: float) -> float:
    """Axis convexity ratio exp(curvature_bound / 8) on the unit cube implied
    by a diagonal curvature bound on -log f."""
    if curvature_bound < 0:
        raise DensityError("curvature bound must be nonnegative")
    return math.exp(curvature_bound / 8.0)


@dataclass(frozen=True, eq=False)
class ConcentrationProfile:
    direction: np.ndarray
    median_offset: float
    ts: np.ndarray
    measured: np.ndarray
    std_error: np.ndarray
    bound: np.ndarray
    alpha: float
    n_samples: int = 0
    label: str = ""


def _validate_ts(ts) -> np.ndarray:
    ts = np.asarray(ts, dtype=float)
    if ts.ndim != 1 or len(ts) == 0:
        raise DensityError("ts must be a nonempty 1d array")
    if np.any(np.diff(ts) <= 0):
        raise DensityError("ts must be strictly increasing")
    if ts[0] < 0:
        raise DensityError("ts must be nonnegative")
    return ts


def _unit(direction, dim: int) -> np.ndarray:
    u = np.asarray(direction, dtype=float).reshape(dim)
    norm = float(np.sqrt((u * u).sum()))
    if norm <= 0:
        raise DensityError("direction must be nonzero")
    return u / norm


def _check_alpha(alpha: float) -> float:
    if not 0 < alpha < math.inf:  # nan fails both comparisons
        raise DensityError(f"alpha must be finite and positive, got {alpha!r}")
    return float(alpha)


def halfspace_profile(mu, direction, ts, alpha: float,
                      label: str = "") -> ConcentrationProfile:
    """Profile of mu{x . u <= c + t} against 1 - exp(-t^2/alpha^2), where c
    is the median of x . u. A GridDensity is profiled exactly, along u = +-e_k
    only; any other direction raises DensityError, and is profiled from the
    points of ``sample_grid`` instead. A SampleBatch takes any direction and
    gives sample fractions with their binomial standard errors."""
    ts = _validate_ts(ts)
    alpha = _check_alpha(alpha)
    bound = 1.0 - np.exp(-((ts / alpha) ** 2))
    if isinstance(mu, GridDensity):
        u = _unit(direction, mu.grid.dim)
        c, measured = _grid_halfspace_masses(mu, u, ts)
        se = np.zeros_like(ts)
        n_samples = 0
    elif isinstance(mu, SampleBatch):
        u = _unit(direction, mu.points.shape[1])
        proj = mu.points @ u
        c = float(np.quantile(proj, 0.5))
        n_samples = len(proj)
        sorted_proj = np.sort(proj)
        counts = np.searchsorted(sorted_proj, c + ts, side="right")
        measured = counts / n_samples
        se = np.sqrt(measured * (1.0 - measured) / n_samples)
    else:
        raise DensityError("mu must be a GridDensity or a SampleBatch")
    return ConcentrationProfile(u, c, ts, measured, se, bound, float(alpha),
                                n_samples, label)


def _grid_halfspace_masses(mu: GridDensity, u: np.ndarray, ts: np.ndarray):
    """Median offset and masses of {x.u <= c + t} for a grid density along
    u = +-e_k, exact from the piecewise-linear marginal CDF of axis k."""
    nonzero = np.flatnonzero(np.abs(u) > 1e-12)
    if len(nonzero) != 1:
        raise DensityError("a grid density is profiled along +-e_k only; profile the "
                           "projected points of sample_grid for other directions")
    axis = int(nonzero[0])
    nodes, cdf = mu.marginal_cdf(axis)
    if u[axis] > 0:
        c = float(np.interp(0.5, cdf, nodes))
        measured = np.interp(c + ts, nodes, cdf)
    else:
        c = -float(np.interp(0.5, cdf, nodes))
        measured = 1.0 - np.interp(-c - ts, nodes, cdf)
    return c, measured


def check_concentration(profile: ConcentrationProfile, name: str = "thm-1.2",
                        grid_m: int = 0, note: str = "") -> VerificationReport:
    """Pass when measured + 3 SE >= bound at every offset.

    Encoded as lhs = max(bound - measured - 3 SE) <= 0, so for exact (grid)
    profiles the only margin is the abs_tol of the family ``name`` in
    ``reports.TOLERANCES`` (1e-6 for the profile rows).
    """
    margin = profile.bound - profile.measured - 3.0 * profile.std_error
    lhs = float(margin.max())
    return make_report(name, lhs, 0.0, profile.alpha, grid_m=grid_m, note=note)


@dataclass(frozen=True, eq=False)
class LipschitzTailFit:
    """Least-squares fit of log tail mass against -(t/alpha)^2.

    Diagnostic only: rate < 1 means the observed tail is heavier than the
    reference profile exp(-(t/alpha)^2) on the fitted range.
    """

    ts: np.ndarray
    tails: np.ndarray
    alpha: float
    rate: float
    prefactor: float


def lipschitz_tail(mu, ts, alpha: float, direction=None) -> LipschitzTailFit:
    """Two-sided tails P(|x.u - c| >= t) about the median c of x.u, with a
    log-linear fit against C exp(-rate * (t/alpha)^2). Never asserts. A
    GridDensity's tails along ``direction`` (+-e_k) are F(c - t) + 1 - F(c + t),
    from the masses of halfspace_profile; otherwise ``mu`` is a 1-D array of
    sampled values of x.u, given without a direction, and its tails are
    sample fractions. Unprojected points raise DensityError."""
    ts = _validate_ts(ts)
    alpha = _check_alpha(alpha)
    if isinstance(mu, GridDensity):
        if direction is None:
            raise DensityError("a grid tail needs a direction")
        u = _unit(direction, mu.grid.dim)
        _, masses = _grid_halfspace_masses(mu, u, np.concatenate((-ts, ts)))
        tails = masses[:len(ts)] + (1.0 - masses[len(ts):])
    else:
        v = np.asarray(mu.points if isinstance(mu, SampleBatch) else mu, dtype=float)
        if v.ndim != 1 or not len(v) or direction is not None:
            raise DensityError("a sampled tail takes the projected values x.u as a nonempty "
                               "1-D array, and no direction")
        dev = np.sort(np.abs(v - np.median(v)))
        tails = (len(dev) - np.searchsorted(dev, ts, side="left")) / len(dev)
    usable = tails > 0
    if usable.sum() >= 2:
        x = (ts[usable] / alpha) ** 2
        y = np.log(tails[usable])
        slope, intercept = np.polyfit(x, y, 1)
        rate, prefactor = -float(slope), float(np.exp(intercept))
    else:
        rate, prefactor = float("nan"), float("nan")
    return LipschitzTailFit(ts, tails, float(alpha), rate, prefactor)


def covariance_ratio(mu, alpha: float) -> float:
    """Largest covariance eigenvalue of a grid density divided by alpha^2.

    The covariance includes the within-cell uniform contribution h^2/12 per
    axis, so a one-cell density has the exact single-cell covariance. Mean
    and covariance are read off the 1- and 2-axis marginals of the cell
    masses, so no (cells, dim) array is formed. Only grid densities are
    read: a ``SampleBatch``, or any other mu, raises DensityError.
    """
    alpha = _check_alpha(alpha)
    if not isinstance(mu, GridDensity):
        raise DensityError("mu must be a GridDensity")
    grid = mu.grid
    w = mu.cell_masses().reshape(grid.shape)

    def marginal(*keep):
        return w.sum(axis=tuple(k for k in range(grid.dim) if k not in keep))

    dev = [x - marginal(k) @ x for k, x in enumerate(map(grid.axis_centers, range(grid.dim)))]
    cov = np.diag([marginal(k) @ (d * d) for k, d in enumerate(dev)])
    for k, j in itertools.combinations(range(grid.dim), 2):
        cov[k, j] = cov[j, k] = dev[k] @ marginal(k, j) @ dev[j]
    cov += np.eye(grid.dim) * (grid.h ** 2 / 12.0)
    top = float(np.linalg.eigvalsh(cov)[-1])
    return top / (alpha * alpha)


def poincare_lsi_check(mu: GridDensity, curvature_bound: float, test_functions) -> list:
    """Variance and entropy bounds against the gradient energy on the unit
    cube, with the explicit factor exp(curvature_bound / 4):

        Var(f)     <= (20/9)  factor  E|grad f|^2
        Ent(f^2)   <= (160/9) factor  E|grad f|^2   (f normalized in L2)

    test_functions are cell-center arrays shaped like mu.values. Returns a
    pair of reports per test function.
    """
    if not isinstance(mu, GridDensity):
        raise DensityError("poincare_lsi_check works on grid densities")
    if curvature_bound < 0:
        raise DensityError("need curvature_bound >= 0")
    grid = mu.grid
    w = mu.cell_masses().reshape(grid.shape)
    factor = math.exp(curvature_bound / 4.0)
    reports = []
    for i, func in enumerate(test_functions):
        fvals = np.asarray(func, dtype=float)
        if fvals.shape != grid.shape:
            raise DensityError(f"test function {i} has shape {fvals.shape}, "
                               f"expected {grid.shape}")
        grads = grid.gradient(fvals)
        energy = float(sum((gk * gk * w).sum() for gk in grads))
        mean = float((fvals * w).sum())
        var = float(((fvals - mean) ** 2 * w).sum())
        reports.append(make_report("cor-4.5-poincare", var, energy, POINCARE_FACTOR * factor,
                                   grid_m=grid.cells_per_axis, note=f"test {i}"))
        nrm2 = float((fvals * fvals * w).sum())
        if nrm2 <= 0:
            reports.append(make_report("cor-4.5-lsi", 0.0, 0.0, LSI_FACTOR * factor,
                                       grid_m=grid.cells_per_axis,
                                       note=f"test {i}: zero function, skipped"))
            continue
        scaled_sq = fvals * fvals / nrm2
        ent_terms = np.where(scaled_sq > 0,
                             scaled_sq * np.log(np.where(scaled_sq > 0, scaled_sq, 1.0)),
                             0.0)
        entropy = float((ent_terms * w).sum())
        reports.append(make_report("cor-4.5-lsi", entropy, energy / nrm2, LSI_FACTOR * factor,
                                   grid_m=grid.cells_per_axis, note=f"test {i}"))
    return reports


# ---------------------------------------------------------------------------
# dimension scaling of the equicorrelated construction


@dataclass(frozen=True)
class ScalingRow:
    n: int
    t_star: float
    predicted: float
    std_error: float
    mass_fraction: float
    n_samples: int
    rejection_log10_bound: float


@dataclass(frozen=True, eq=False)
class ScalingResult:
    """Per-dimension enlargement radii t*(n) with their closed forms."""

    rows: list
    slope: float


_Z_TWO_THIRDS = NormalDist().inv_cdf(2.0 / 3.0)


def closed_form_t_star(n: int, n_samples: int) -> tuple:
    """Closed form s sqrt(n+1) Phi^-1(2/3) of t*(n), and the standard error
    of its estimate by the 2/3-quantile of n_samples row sums. The row sum
    is N(0, s^2 n (n+1)), with s = equicorrelated_scale(n)."""
    sd = equicorrelated_scale(n) * math.sqrt(n + 1)
    std_error = sd * math.sqrt((2.0 / 9.0) / n_samples) / NormalDist().pdf(_Z_TWO_THIRDS)
    return sd * _Z_TWO_THIRDS, std_error


def counterexample_scaling(ns, n_samples: int, seed: int) -> ScalingResult:
    """For each dimension n, the radius t*(n): the largest t for which the
    halfspace {sum x_i <= 0} enlarged by t (in the Euclidean ball metric,
    which reduces to the threshold t sqrt(n) for the row sum) still holds at
    most 2/3 of the mass. Only row sums are drawn, two normals per sample,
    and every row carries the certified log10 bound on the chance that the
    cube restriction rejects a draw, in place of a rejection step.
    """
    ns = list(ns)
    if any(isinstance(n, bool) or not isinstance(n, numbers.Integral) for n in ns):
        raise DensityError(f"dimensions must be integers, got {ns!r}")
    ns = sorted(int(n) for n in ns)
    if len(set(ns)) < 2:
        raise DensityError("need at least two distinct dimensions to fit a slope")
    if min(ns) < MIN_SCALING_DIM:
        raise DensityError(f"scaling experiment is stated for n >= {MIN_SCALING_DIM}")
    if n_samples < MIN_SCALING_SAMPLES:
        raise DensityError(f"need at least {MIN_SCALING_SAMPLES} samples per dimension")
    rows = []
    k = (2 * n_samples) // 3
    for n in ns:
        sums, log10_bound = equicorrelated_row_sums(n, n_samples, seed)
        t_star = float(np.partition(sums, k)[k] / math.sqrt(n))
        predicted, std_error = closed_form_t_star(n, n_samples)
        rows.append(ScalingRow(n, t_star, predicted, std_error,
                               float((sums <= 0).mean()), n_samples, log10_bound))
    log_n = np.log([r.n for r in rows])
    log_t = np.log([r.t_star for r in rows])
    slope = float(np.polyfit(log_n, log_t, 1)[0])
    return ScalingResult(rows, slope)
