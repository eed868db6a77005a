"""The benchmark's workloads: inputs made from the seed, one round of
operations, and checks of every output against an independent computation or
a property it must have.

An operation is one CLI suite (cli-suites) or one density pair (the library
workloads). It fails when it raises or when one of its checks fails; the
problems are written to stderr. Every round runs the same operations, so the
share of failed operations does not depend on how many rounds a run makes.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import shutil
import sys
import tempfile
import traceback
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np
import scipy  # noqa: F401  (its import time belongs to set-up)

import cube_transport as ct
from cube_transport import cli, families

QUADRATIC_COST_FACTOR = 40.0 / 9.0


# ---------------------------------------------------------------------------
# independent computations


def northwest_cost(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> float:
    """Quadratic cost of the monotone coupling of the 1d mass vectors a and b,
    both on the points x: the integral over u in (0, 1) of
    (x[F_a^-1(u)] - x[F_b^-1(u)])^2, with step quantile functions."""
    ca = np.cumsum(a) / a.sum()
    cb = np.cumsum(b) / b.sum()
    ca[-1] = cb[-1] = 1.0
    u = np.unique(np.concatenate(([0.0], ca, cb)))
    mid = 0.5 * (u[1:] + u[:-1])
    i = np.minimum(np.searchsorted(ca, mid), len(a) - 1)
    j = np.minimum(np.searchsorted(cb, mid), len(b) - 1)
    return float((np.diff(u) * (x[i] - x[j]) ** 2).sum())


def marginal_costs(f, g) -> float:
    """Sum over axes of the 1d monotone costs between the axis marginals:
    a lower bound for the quadratic cost of any coupling of f and g, and the
    exact cost of the product coupling when both are products."""
    total = 0.0
    for axis in range(f.grid.dim):
        others = tuple(k for k in range(f.grid.dim) if k != axis)
        total += northwest_cost(f.values.sum(axis=others), g.values.sum(axis=others),
                                f.grid.axis_centers(axis))
    return total


def cell_masses(d) -> np.ndarray:
    a = d.values.reshape(-1) * d.grid.cell_volume
    return a / a.sum()


def cell_centers(grid) -> np.ndarray:
    return np.stack([c.reshape(-1) for c in grid.centers_mesh()], axis=1)


def coupling_problems(i, j, w, a, b, centers, cost, tol) -> list:
    """Marginals of the coupling (i, j, w) equal a and b, and its recomputed
    quadratic cost equals ``cost``, both to ``tol``."""
    row = np.bincount(i, weights=w, minlength=len(a))
    col = np.bincount(j, weights=w, minlength=len(b))
    err = max(np.abs(row - a).max(), np.abs(col - b).max())
    recomputed = float((w * ((centers[i] - centers[j]) ** 2).sum(axis=1)).sum())
    out = []
    if not err <= tol:
        out.append(f"coupling marginal error {err:.3g} > {tol:g}")
    if not abs(recomputed - cost) <= tol:
        out.append(f"coupling cost {cost!r} but its atoms give {recomputed!r}")
    return out


def product_target(grid):
    """prod_i 2 x_i on the unit cube, normalized on the grid."""
    mesh = grid.centers_mesh()
    values = np.ones(grid.shape)
    for axis in range(grid.dim):
        values = values * 2.0 * mesh[axis]
    return ct.normalize(ct.GridDensity(grid, values))


def equicorrelated_t_star(n: int, n_samples: int) -> tuple:
    """Closed form of the width-scaling radius, and the standard error of its
    estimate by the sample 2/3-quantile of n_samples row sums. The row sum of
    s (Z_i + Z_0) is N(0, s^2 n (n+1)), so t*(n) = s sqrt(n+1) Phi^-1(2/3),
    with s = 1 / (100 sqrt(log n))."""
    sd = math.sqrt(n + 1) / (100.0 * math.sqrt(math.log(n)))
    z = NormalDist().inv_cdf(2.0 / 3.0)
    return sd * z, sd * math.sqrt((2.0 / 9.0) / n_samples) / NormalDist().pdf(z)


def run_operation(name: str, fn) -> bool:
    """Run one operation; report its problems on stderr. True when it failed."""
    try:
        problems = fn()
    except Exception:  # an operation that raises is a failed operation
        problems = [traceback.format_exc()]
    for problem in problems:
        print(f"[bench] {name}: {problem}", file=sys.stderr)
    return bool(problems)


@dataclass
class Round:
    attempted: int
    failed: int
    artifact: str | None = None  # text that rounds of one seed must repeat


# ---------------------------------------------------------------------------
# cli-suites: the CLI suites at the default config, one command each

# `cube-transport all` also runs verify-1d, whose seeded random pairs fail a
# row on about 9% of seeds (prop-2.1-refinement, lem-2.2); a workload whose
# failures depend on the seed cannot hold, so the suites run one by one.
CLI_SUITES = ("density-check", "verify-knothe", "tire", "concentration", "counterexample")
# grids of the CLI's closed-form anchors (pinned in cli.py, not in the config)
ANCHOR_H_KNOTHE = 1.0 / 64
ANCHOR_H_TIRE = 1.0 / 512
T_STAR_STD_ERRORS = 5.0


def _near(metrics: dict, key: str, exact: float, tol: float) -> list:
    value = metrics.get(key)
    if value is None:
        return [f"metric {key} missing"]
    if not abs(value - exact) <= tol:
        return [f"{key} = {value!r}, closed form {exact!r}, tolerance {tol:.3g}"]
    return []


def closed_form_problems(suite: str, payload: dict) -> list:
    """The suite's report metrics against their closed forms."""
    metrics = payload["metrics"]
    if suite == "verify-knothe":
        return _near(metrics, "anchor_cost", 2.0 / 30, 2 * ANCHOR_H_KNOTHE ** 2)
    if suite == "tire":
        return _near(metrics, "anchor_entropy", math.log(2.0) - 0.5, 2 * ANCHOR_H_TIRE ** 2)
    if suite != "counterexample":
        return []
    rows = payload["scaling"]
    problems = [] if len(rows) == len(cli.DEFAULTS["ns"]) else [f"{len(rows)} scaling rows"]
    for row in rows:
        exact, std_error = equicorrelated_t_star(row["n"], row["n_samples"])
        tol = T_STAR_STD_ERRORS * std_error
        if not abs(row["t_star"] - exact) <= tol:
            problems.append(f"t_star n={row['n']} = {row['t_star']!r}, closed form "
                            f"{exact!r}, tolerance {tol:.3g}")
    return problems


_VOLATILE = re.compile(r'^\s*"(timestamp|out_dir)": .*$', re.MULTILINE)


def comparable_report(text: str) -> str:
    """report.json text without the timestamp and the output directory."""
    return _VOLATILE.sub("", text)


class CliSuites:
    """`cube-transport <suite> --seed <seed> --out <dir>` for each suite in
    CLI_SUITES, at the default config with plots on, through cli.main in
    this process."""

    name = "cli-suites"

    def __init__(self, seed: int, out_root: str):
        self.seed = seed
        self.out_root = out_root

    def setup(self) -> None:
        os.makedirs(self.out_root, exist_ok=True)
        cli.load_config(None, {"seed": self.seed})

    def run_round(self) -> Round:
        out_root = tempfile.mkdtemp(prefix="cli-suites-", dir=self.out_root)
        reports = []
        try:
            failed = sum(run_operation(f"cli-suites {suite}",
                                       lambda: self._suite(suite, out_root, reports))
                         for suite in CLI_SUITES)
        finally:
            shutil.rmtree(out_root, ignore_errors=True)
        return Round(len(CLI_SUITES), failed, "".join(reports))

    def _suite(self, suite: str, out_root: str, reports: list) -> list:
        out_dir = os.path.join(out_root, suite)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([suite, "--seed", str(self.seed), "--out", out_dir])
        with open(os.path.join(out_dir, "report.json")) as fh:
            text = fh.read()
        reports.append(comparable_report(text))
        payload = json.loads(text)
        problems = [f"row {r['name']} failed: lhs={r['lhs']!r} rhs={r['rhs']!r}"
                    for r in payload["reports"] if not r["pass"]]
        if code != 0 or not payload["all_pass"]:
            problems.append(f"exit code {code}, all_pass {payload['all_pass']}")
        return problems + closed_form_problems(suite, payload)


# ---------------------------------------------------------------------------
# triangular-maps: verify-knothe at scale through the library

TRIANGULAR_GRIDS = ((2, 1024), (3, 64), (4, 16))
PUSHFORWARD_SAMPLES = 100_000


class TriangularMaps:
    """Per grid, the product anchor uniform -> prod 2 x_i and one seeded
    random log-concave source onto a seeded smooth target."""

    name = "triangular-maps"

    def __init__(self, seed: int, out_root: str):
        self.seed = seed

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 1])
        self.pairs = []
        for dim, m in TRIANGULAR_GRIDS:
            grid = ct.unit_cube_grid(dim, m)
            self.pairs.append((f"d{dim}-m{m}-anchor", True,
                               ct.build_density(ct.Uniform(), grid), product_target(grid)))
            spec = families.random_logconcave_spec_nd(rng, dim, grid.origin, grid.side)
            self.pairs.append((f"d{dim}-m{m}-random", False, ct.build_density(spec, grid),
                               families.random_smooth_density(rng, grid, amplitude=0.5)))

    def run_round(self) -> Round:
        failed = sum(run_operation(f"triangular-maps {label}",
                                   lambda: self._pair(anchor, f, g))
                     for label, anchor, f, g in self.pairs)
        return Round(len(self.pairs), failed)

    def _pair(self, anchor: bool, f, g) -> list:
        problems = []
        grid = f.grid
        ratio = ct.estimate_axis_convexity_ratio(f)
        concave, worst = ct.check_midpoint_log_concavity(f)
        if not concave:
            problems.append(f"source not midpoint log-concave ({worst:.3g})")
        if anchor and ratio != 1.0:
            problems.append(f"axis ratio of the uniform source is {ratio!r}, not 1")
        tmap = ct.knothe_map(f, g)
        for report in (ct.check_theorem31(f, g, ratio, tmap), ct.check_facet_preservation(tmap)):
            if not report.passed:
                problems.append(f"{report.name} failed: lhs={report.lhs!r} rhs={report.rhs!r}")
        ks = ct.pushforward_error(tmap, f, g, PUSHFORWARD_SAMPLES, self.seed)
        ks_bound = 2.0 / math.sqrt(PUSHFORWARD_SAMPLES) + 2.0 * grid.h
        if not ks <= ks_bound:
            problems.append(f"pushforward KS {ks:.4g} > {ks_bound:.4g}")
        cost = ct.triangular_coupling_cost(f, g)
        a, b = cell_masses(f), cell_masses(g)
        i, j, w = ct.triangular_coupling(a.reshape(grid.shape), b.reshape(grid.shape))
        problems += coupling_problems(i, j, w, a, b, cell_centers(grid), cost,
                                      1e-12 * max(1.0, cost))
        lower = marginal_costs(f, g)
        if anchor and not abs(cost - lower) <= 1e-12:
            problems.append(f"product coupling cost {cost!r} != sum of 1d costs {lower!r}")
        if not anchor and not cost >= lower - 1e-12:
            problems.append(f"coupling cost {cost!r} < sum of 1d costs {lower!r}")
        return problems


# ---------------------------------------------------------------------------
# exact-coupling: the transport-entropy sandwich at LP sizes

# Coefficients of a pinned smooth 2d log-density (see families.trig_density);
# the 1d targets take one axis of it.
SMOOTH_TARGET = np.array([[[0.3, -0.2], [0.1, 0.05], [0.02, -0.04]],
                          [[-0.25, 0.15], [0.08, -0.1], [0.03, 0.01]]])
# LP pairs: (cells per axis, pinned source, pinned target coefficients). The
# seed moves the target coefficients by TARGET_JITTER. An LP's time depends on
# its data: on freely drawn pairs it ranges 3x at one size, so a freely drawn
# set would let the seed, not the program, set the time.
LP_PAIRS = (
    (128, ct.RestrictedGaussian((0.45,), ((3.0,),)), SMOOTH_TARGET[:1]),
    (160, ct.ExponentialTilt((1.5,)), SMOOTH_TARGET[1:]),
    (192, ct.ConvexPower(0.5, (1.0,), 2.0), SMOOTH_TARGET[:1]),
    (16, ct.RestrictedGaussian((0.4, 0.6), ((3.0, 1.0), (1.0, 2.0))), SMOOTH_TARGET),
    (16, ct.RestrictedGaussian((0.55, 0.45), ((2.0, -0.5), (-0.5, 4.0))), SMOOTH_TARGET[::-1]),
    (24, ct.RestrictedGaussian((0.4, 0.6), ((3.0, 1.0), (1.0, 2.0))), SMOOTH_TARGET),
)
TARGET_JITTER = 0.01
LEGENDRE_CELLS = 64
LP_TOL = 1e-9


class ExactCoupling:
    """Pinned LP pairs (1d at 128-192 cells, 2d at 256 and 576 cells) with
    seeded targets, and one seeded 2d pair at 64^2 cells for the Legendre
    bound."""

    name = "exact-coupling"

    def __init__(self, seed: int, out_root: str):
        self.seed = seed

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 2])
        self.lp_pairs = []
        for k, (m, source, target) in enumerate(LP_PAIRS):
            grid = ct.unit_cube_grid(len(target), m)
            coeffs = target + TARGET_JITTER * rng.normal(size=target.shape)
            self.lp_pairs.append((f"{grid.dim}d-m{m}-{k}", ct.build_density(source, grid),
                                  families.trig_density(coeffs, grid)))
        grid = ct.unit_cube_grid(2, LEGENDRE_CELLS)
        spec = families.random_logconcave_spec_nd(rng, 2, grid.origin, grid.side)
        self.legendre_pair = (ct.build_density(spec, grid),
                              families.random_smooth_density(rng, grid, amplitude=0.5))

    def run_round(self) -> Round:
        failed = sum(run_operation(f"exact-coupling {label}", lambda: self._lp(f, g))
                     for label, f, g in self.lp_pairs)
        failed += run_operation(f"exact-coupling legendre-m{LEGENDRE_CELLS}",
                                lambda: self._legendre(*self.legendre_pair))
        return Round(len(self.lp_pairs) + 1, failed)

    def _lp(self, f, g) -> list:
        cost, plan = ct.exact_w2_small(f, g)
        a, b = cell_masses(f), cell_masses(g)
        problems = coupling_problems(plan.source_index, plan.target_index, plan.weights,
                                     a, b, cell_centers(f.grid), cost, LP_TOL)
        lower = marginal_costs(f, g)
        if f.grid.dim == 1:
            if not abs(cost - lower) <= LP_TOL:
                problems.append(f"LP cost {cost!r} != monotone cost {lower!r}")
        else:
            upper = ct.triangular_coupling_cost(f, g)
            if not lower - LP_TOL <= cost <= upper + LP_TOL:
                problems.append(f"LP cost {cost!r} outside [{lower!r}, {upper!r}]")
        entropy = ct.relative_entropy(g, f)
        ratio = ct.estimate_axis_convexity_ratio(f)
        if not 0.0 <= cost <= QUADRATIC_COST_FACTOR * ratio ** 2 * entropy:
            problems.append(f"LP cost {cost!r} above (40/9) R^2 H, R={ratio!r} H={entropy!r}")
        return problems

    def _legendre(self, f, g) -> list:
        bracket = ct.tire_bracket(f, g)
        bound = ct.legendre_tire_bound(f, g)
        if not bracket <= bound:
            return [f"tire bracket {bracket!r} > Legendre bound {bound!r}"]
        return []


WORKLOADS = {w.name: w for w in (CliSuites, TriangularMaps, ExactCoupling)}
