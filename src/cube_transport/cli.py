"""Command line entry point.

Subcommands run seeded verification suites and write three artifacts into
the output directory: report.json (full payload, sorted keys), report.csv
(one row per check), and one SVG per concentration profile. Repeated runs
with the same configuration produce byte-identical reports except for the
timestamp field.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 bad
configuration or usage.

Configuration precedence: command line flags > JSON config file >
CUBE_TRANSPORT_SEED environment variable (seed only) > built-in defaults.
KEYS declares each config key's default, values and flag. A command has a
flag only for a config key its suite reads (COMMANDS); every command takes
--config, --seed and --out.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from typing import Callable, NamedTuple

import numpy as np
import scipy

from . import __version__
from .concentration import (BASE_ALPHA, MIN_SCALING_DIM, MIN_SCALING_SAMPLES, alpha_theorem1,
                            check_concentration, counterexample_scaling, covariance_ratio,
                            halfspace_profile, lipschitz_tail,
                            poincare_lsi_check, r_from_m)
from .density import (DensityError, Grid, GridDensity, RestrictedGaussian,
                      Uniform, build_density, check_midpoint_log_concavity,
                      check_spec, estimate_axis_convexity_ratio,
                      estimate_diag_second_derivative_bound, marginalize_last,
                      normalize, spec_from_dict, unit_cube_grid)
from .families import (draw_trig_coeffs, random_center_test_function,
                       random_logconcave_spec_1d, random_logconcave_spec_nd,
                       random_node_test_function, random_smooth_density,
                       trig_density)
from .functionals import (check_tire_le_entropy,
                          check_transport_entropy_sandwich, legendre_tire_bound,
                          relative_entropy)
from .knothe import (check_facet_preservation, check_theorem31, cost_split,
                     displacement_cost, knothe_map, pushforward_error,
                     tire_bracket)
from .reports import CSV_HEADER, make_report, refinement_report
from .sampler import (LOG10_REJECTION_LIMIT, MAX_POINT_BUDGET, SEED_LIMIT,
                      philox)
from .svg import write_profile_svg
from .transport1d import (LOG_GAP_SLOPE, check_lemma_lambda, check_prop_quadratic,
                          check_segment_bound, check_cheeger_lambda, log_gap,
                          monotone_map)

MAX_CELL_EXPONENT = 24
MAX_TOTAL_CELLS = 1 << MAX_CELL_EXPONENT
# pinned reference for the n=1024 enlargement radius of the scaling experiment
REFERENCE_T_STAR_1024 = 0.052
# allowed distance of each t*(n) from its closed form, in standard errors
T_STAR_STD_ERRORS = 5.0
# chance that the pushforward-ks row fails on an exact map, by sampling alone
KS_FAILURE_PROBABILITY = 1e-9
# profile offsets per profile; each is one SVG vertex
MAX_T_COUNT = 1 << 16
# cell triples density-check may scan per density, about 10 s; a Python-level
# scan step (listing a midpoint direction, or one slice) costs about 2^13
MAX_SCAN_TRIPLES = 1 << 31
_SCAN_STEP_TRIPLES = 1 << 13


class ConfigError(ValueError):
    pass


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _int_list(text: str) -> list:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a comma list of integers: {text!r}") from None


def _spec(value) -> bool:
    """True for no spec; DensityError, with its own message, for a bad one."""
    return value is None or bool(spec_from_dict(value))


class Key(NamedTuple):
    """A config key: its default, its values (the integers from lo to hi, or
    else those ``ok`` accepts, which ``rule`` names; no list repeats an entry)
    and its flag with the flag's argparse options, or None for a file-only key."""

    default: object
    flag: tuple = None
    lo: int = None
    hi: int = None
    ok: Callable = None
    rule: str = ""

    def check(self, key: str, value) -> None:
        """ConfigError naming the key unless value is allowed; type before bounds."""
        if self.lo is not None and not (_is_int(value) and value >= self.lo):
            raise ConfigError(f"{key} must be an integer >= {self.lo}")
        if self.hi is not None and value > self.hi:
            raise ConfigError(f"{key} must be an integer <= {self.hi}")
        try:
            allowed = self.ok is None or self.ok(value)
        except DensityError as exc:
            raise ConfigError(f"{key}: {exc}") from None
        if not allowed:
            raise ConfigError(f"{key} must be {self.rule}")
        if isinstance(value, list) and len(set(value)) < len(value):
            raise ConfigError(f"{key} must not repeat an entry")


# every config key, in the order --help lists their flags
KEYS = {
    "seed": Key(0, ("--seed", {"type": int, "help": "master seed"}),
                ok=lambda v: _is_int(v) and 0 <= v < SEED_LIMIT, rule="an integer in [0, 2^64)"),
    "m": Key(64, ("--m", {"type": int, "help": "cells per axis"}), lo=2),
    # grids have at least 2 cells per axis, so this keeps any m ** dim small enough to form
    "dim": Key(2, ("--dim", {"type": int, "help": "dimension of the checked densities"}),
               lo=1, hi=MAX_CELL_EXPONENT),
    "pairs": Key(20, ("--pairs", {"type": int, "help": "random pairs"}), lo=1),
    # the row-sum sampler holds two normals per sample under the point budget
    "n_samples": Key(100000,
                     ("--samples", {"type": int, "help": "sample count for empirical checks"}),
                     lo=MIN_SCALING_SAMPLES, hi=MAX_POINT_BUDGET // 2),
    "out_dir": Key("cube-transport-out", ("--out", {"help": "output directory"}),
                   ok=lambda v: isinstance(v, str) and v != "", rule="a nonempty string"),
    "t_max": Key(1.2, ok=lambda v: (isinstance(v, (int, float)) and not isinstance(v, bool)
                                    and 0 < v <= sys.float_info.max),
                 rule="a finite positive number"),
    "t_count": Key(20, lo=2, hi=MAX_T_COUNT),
    "dims": Key([2, 4],
                ("--dims", {"type": _int_list, "help": "comma list of Gaussian dimensions"}),
                ok=lambda v: isinstance(v, list) and v and all(_is_int(n) and n >= 1 for n in v),
                rule="a nonempty list of positive integers"),
    "ns": Key([256, 1024, 4096],
              ("--ns", {"type": _int_list, "help": "comma list of equicorrelated dimensions"}),
              ok=lambda v: (isinstance(v, list) and len(v) >= 2
                            and all(_is_int(n) and n >= MIN_SCALING_DIM for n in v)),
              rule=f"a list of at least two integers >= {MIN_SCALING_DIM}"),
    "test_functions": Key(6, lo=1),
    "plot": Key(True, ("--plot", {"action": argparse.BooleanOptionalAction,
                                  "help": "write SVG profiles (default: on)"}),
                ok=lambda v: isinstance(v, bool), rule="true or false"),
    "source": Key({"variant": "uniform"}, ok=_spec),
    "target": Key(None, ok=_spec),
}
DEFAULTS = {key: entry.default for key, entry in KEYS.items()}


def load_config(path_or_none, overrides: dict) -> dict:
    cfg = dict(DEFAULTS)
    env_seed = os.environ.get("CUBE_TRANSPORT_SEED")
    if env_seed is not None:
        try:
            cfg["seed"] = int(env_seed)
        except ValueError as exc:
            raise ConfigError(f"CUBE_TRANSPORT_SEED must be an integer: {env_seed!r}") from exc
    if path_or_none is not None:
        try:
            with open(path_or_none) as fh:
                loaded = json.load(fh)
        except (OSError, ValueError) as exc:  # ValueError covers bad JSON and encodings
            raise ConfigError(f"cannot read config {path_or_none}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = set(loaded) - set(KEYS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg.update(loaded)
    for key, value in overrides.items():
        if value is not None:
            cfg[key] = value
    for key, entry in KEYS.items():
        entry.check(key, cfg[key])
    return cfg


def check_grid_limits(command: str, cfg: dict) -> None:
    """ConfigError unless every grid the command builds from its config stays
    within the cell budget 2^24, and each scanned grid within 2^31 cell
    triples per density. concentration builds one grid per entry of dims,
    density-check scans its m^dim grid and verify-1d its finer 1d grid; the
    other suites use fixed grids or min(m, 32) cells per axis."""
    if command in ("concentration", "all"):
        big = [n for n in cfg["dims"]
               if not (n <= MAX_CELL_EXPONENT and _grid_m_for_dim(n) ** n <= MAX_TOTAL_CELLS)]
        if big:
            raise ConfigError(f"dims {big} need concentration grids beyond the cell budget 2^24")
    grids = {"density-check": (cfg["m"], cfg["dim"]), "verify-1d": (2 * cfg["m"], 1)}
    for suite, (m, dim) in grids.items():
        if command in (suite, "all") and (m ** dim > MAX_TOTAL_CELLS
                                          or scan_triples(m, dim) > MAX_SCAN_TRIPLES):
            raise ConfigError(f"{suite} at m={cfg['m']} needs a {m}^{dim} grid beyond the "
                              "budgets of 2^24 cells and 2^31 scanned cell triples")


def scan_triples(m: int, dim: int) -> int:
    """Upper bound on the triples density-check scans per density: at gap t the
    (3^dim - 1)/2 midpoint directions hold ((3m - 4t)^dim - m^dim)/2 (gap 1 twice),
    the axis ratios of f and its marginal m - 2j per line at gap 2j, and 2^13 a step."""
    gaps = (m - 1) // 2
    lines = dim * m ** (dim - 1) + (dim - 1) * m ** max(dim - 2, 0)
    steps = 2 * 3 ** dim + (3 ** dim - 1) // 2 * (gaps + 1) + (2 * dim - 1) * gaps
    total = lines * gaps * (m - gaps - 1) + steps * _SCAN_STEP_TRIPLES
    if total <= MAX_SCAN_TRIPLES:  # then gaps < 2^16 and the sum is short
        total += sum(((3 * m - 4 * t) ** dim - m ** dim) // 2 for t in [1, *range(1, gaps + 1)])
    return total


def _rng(cfg, label: str) -> np.random.Generator:
    # one independent stream per suite, indexed by the suite label's bytes
    return philox(cfg["seed"], 0, int.from_bytes(label.encode(), "little"))


def _anchor_pair(dim: int, m: int) -> tuple:
    """The closed-form anchor on the m^dim grid: the uniform density and the
    normalized prod_i 2 x_i."""
    grid = unit_cube_grid(dim, m)
    vals = np.ones(grid.shape)
    for x in grid.open_centers():
        vals *= 2.0  # (vals * 2) * x, in place
        vals *= x
    return build_density(Uniform(), grid), normalize(GridDensity(grid, vals))


def _random_pair(rng: np.random.Generator, grid: Grid) -> tuple:
    """A seeded pair on the grid: a log-concave source, then a smooth target."""
    spec = (random_logconcave_spec_1d(rng) if grid.dim == 1
            else random_logconcave_spec_nd(rng, grid.dim, grid.origin, grid.side))
    return build_density(spec, grid), random_smooth_density(rng, grid, amplitude=0.5)


# ---------------------------------------------------------------------------
# suites


def suite_density_check(cfg) -> dict:
    grid = unit_cube_grid(cfg["dim"], cfg["m"])
    if not cfg["source"]:
        raise ConfigError("density-check needs a source spec")
    specs = {tag: spec_from_dict(cfg[tag]) for tag in ("source", "target") if cfg[tag]}
    reports = []
    metrics = {}
    try:  # a DensityError names the spec the loops were at
        for tag, spec in specs.items():  # both, before either density is built
            check_spec(spec, grid)
        for tag, spec in specs.items():
            d = build_density(spec, grid)
            reports.append(make_report(f"mass-normalization-{tag}",
                                       abs(d.total_mass - 1.0), 0.0, 1.0, grid_m=cfg["m"]))
            ok, worst = check_midpoint_log_concavity(d)
            reports.append(make_report(f"midpoint-log-concavity-{tag}", worst, 0.0,
                                       1.0, grid_m=cfg["m"], note="" if ok else "violated"))
            ratio = estimate_axis_convexity_ratio(d)
            metrics[f"axis_ratio_{tag}"] = ratio
            if cfg["m"] >= 3:
                curv = estimate_diag_second_derivative_bound(d)
                metrics[f"curvature_bound_{tag}"] = curv
                metrics[f"implied_ratio_{tag}"] = r_from_m(max(curv, 0.0))
            if grid.dim >= 2:
                reports.append(make_report(f"marginal-ratio-monotone-{tag}",
                                           estimate_axis_convexity_ratio(marginalize_last(d)),
                                           ratio, 1.0, grid_m=cfg["m"]))
    except DensityError as exc:
        raise ConfigError(f"{tag}: {exc}") from None
    return {"reports": reports, "metrics": metrics}


def suite_verify_1d(cfg) -> dict:
    rng = _rng(cfg, "v1d")
    reports = []
    metrics = {}
    # fixed anchor pair: uniform onto the linear density at high resolution
    f0, g0 = _anchor_pair(1, 1024)
    t0 = monotone_map(f0, g0)
    metrics["anchor_map_at_quarter"] = float(t0.evaluate([[0.25]])[0, 0])
    metrics["anchor_cost"] = displacement_cost(t0, f0)
    metrics["anchor_deficit"] = tire_bracket(f0, g0, t0)
    metrics["anchor_entropy"] = relative_entropy(g0, f0)
    reports.append(check_prop_quadratic(f0, g0, 1.0, t0))
    reports.append(check_lemma_lambda(f0, g0, t0))
    # scalar inequality sweep
    xs = np.logspace(-3, 3, 10000)
    gaps = log_gap(xs)
    reports.append(make_report("eq-2.3", float(-gaps.min()), 0.0, LOG_GAP_SLOPE))
    metrics["log_gap_at_2"] = float(log_gap(2.0))
    # random pairs at m and 2m
    grid = unit_cube_grid(1, cfg["m"])
    fine_grid = unit_cube_grid(1, 2 * cfg["m"])
    for i in range(cfg["pairs"]):
        spec = random_logconcave_spec_1d(rng)
        coeffs = draw_trig_coeffs(rng, 1)
        f = build_density(spec, grid)
        g = trig_density(coeffs, grid)
        ratio = estimate_axis_convexity_ratio(f)
        t = monotone_map(f, g)
        coarse_prop = check_prop_quadratic(f, g, ratio, t)
        coarse_lam = check_lemma_lambda(f, g, t)
        reports.extend([coarse_prop, coarse_lam])
        f2 = build_density(spec, fine_grid)
        g2 = trig_density(coeffs, fine_grid)
        fine_prop = check_prop_quadratic(f2, g2, estimate_axis_convexity_ratio(f2))
        reports.append(refinement_report("prop-2.1-refinement", coarse_prop,
                                         fine_prop))
        # segment and gradient-energy checks on the same source
        a, b = np.sort(rng.uniform(0.0, 1.0, size=2))
        if b - a > 1e-3:
            reports.append(check_segment_bound(f, ratio, float(a), float(b)))
        reports.append(check_cheeger_lambda(f, ratio,
                                            random_node_test_function(rng, grid)))
    return {"reports": reports, "metrics": metrics}


def suite_verify_knothe(cfg) -> dict:
    rng = _rng(cfg, "vkn")
    reports = []
    metrics = {}
    # anchor: uniform onto the separable linear product on the square
    f0, g0 = _anchor_pair(2, 64)
    m0 = f0.grid.cells_per_axis
    t0 = knothe_map(f0, g0)
    metrics["anchor_cost"] = anchor_cost = displacement_cost(t0, f0)
    metrics["anchor_tire"] = tire_bracket(f0, g0, t0)
    reports.append(check_theorem31(f0, g0, estimate_axis_convexity_ratio(f0), t0))
    reports.append(check_facet_preservation(t0))
    ks = pushforward_error(t0, f0, g0, cfg["n_samples"], cfg["seed"])
    # the exact map pushes f onto g, so ks is a sampling error: by DKW-Massart
    # over the axes, P(ks > c / sqrt(N)) <= 2 dim exp(-2 c^2) = KS_FAILURE_PROBABILITY
    ks_const = np.sqrt(np.log(2 * f0.grid.dim / KS_FAILURE_PROBABILITY) / 2.0)
    reports.append(make_report("pushforward-ks", ks, 1.0 / np.sqrt(cfg["n_samples"]),
                               ks_const, grid_m=m0))
    base_cost, fiber_cost = cost_split(t0, f0)
    split_gap = abs(anchor_cost - base_cost - fiber_cost)
    reports.append(make_report("cost-decomposition", split_gap, 0.0, 1.0, grid_m=m0))
    # random pairs in 2d, one in 3d
    grids = [unit_cube_grid(2, min(cfg["m"], 32))] * cfg["pairs"] + [unit_cube_grid(3, 16)]
    for g_grid in grids:
        f, g = _random_pair(rng, g_grid)
        t = knothe_map(f, g)
        reports.append(check_theorem31(f, g, estimate_axis_convexity_ratio(f), t))
        reports.append(check_facet_preservation(t))
    return {"reports": reports, "metrics": metrics}


def suite_tire(cfg) -> dict:
    rng = _rng(cfg, "tir")
    reports = []
    metrics = {}
    # anchor: uniform onto linear in 1d, where the bracket meets the entropy
    f0, g0 = _anchor_pair(1, 512)
    reports.append(check_tire_le_entropy(f0, g0))
    metrics["anchor_tire"] = reports[-1].lhs
    metrics["anchor_entropy"] = relative_entropy(g0, f0)
    metrics["anchor_legendre"] = legendre_tire_bound(f0, g0)
    reports.append(make_report("eq-4.2", metrics["anchor_tire"],
                               metrics["anchor_legendre"], 1.0, grid_m=f0.grid.cells_per_axis))
    # random 1d and 2d pairs
    for i in range(cfg["pairs"]):
        g_grid = unit_cube_grid(1, 64) if i % 2 == 0 else unit_cube_grid(2, 16)
        f, g = _random_pair(rng, g_grid)
        t = knothe_map(f, g)
        reports.append(check_tire_le_entropy(f, g, t))
        reports.append(make_report("eq-4.2", reports[-1].lhs,
                                   legendre_tire_bound(f, g), 1.0,
                                   grid_m=g_grid.cells_per_axis))
    # exact-coupling sandwich at small scale
    sandwich_grid = unit_cube_grid(2, 8)
    for _ in range(min(cfg["pairs"], 10)):
        f, g = _random_pair(rng, sandwich_grid)
        reports.extend(check_transport_entropy_sandwich(
            f, g, estimate_axis_convexity_ratio(f)))
    return {"reports": reports, "metrics": metrics}


def _grid_m_for_dim(n: int) -> int:
    # keep total cells near 2^16 so every grid and its marginal CDFs stay cheap
    return max(4, int(round((1 << 16) ** (1.0 / n))))


def suite_concentration(cfg) -> dict:
    reports = []
    metrics = {}
    profiles = []
    ts = np.linspace(0.0, cfg["t_max"], cfg["t_count"])
    rng = _rng(cfg, "con")
    # uniform measure: the dimension-free profile with alpha = 3
    uni = build_density(Uniform(), unit_cube_grid(2, 64))
    direction = np.array([1.0, 0.0])
    profiles.append(halfspace_profile(uni, direction, ts, BASE_ALPHA, label="uniform-grid"))
    reports.append(check_concentration(profiles[-1], "cor-1.3", grid_m=64))
    # negative control: a strict alpha must fail. One fixed offset keeps it
    # apart from the configured ts: at t = 0.25 the bound 1 - e^-6.25 exceeds
    # the measured mass 0.75
    control = halfspace_profile(uni, direction, [0.25], 0.1, label="negative-control")
    strict_passed = check_concentration(control, "cor-1.3", grid_m=64).passed
    reports.append(make_report("negative-control", float(strict_passed), 0.0, 0.1, grid_m=64,
                               note="passes when the strict alpha fails"))
    metrics["covariance_ratio_uniform"] = covariance_ratio(uni, BASE_ALPHA)
    # restricted Gaussians across dimensions, exact along e1 from the marginal CDF
    for n in cfg["dims"]:
        m = _grid_m_for_dim(n)
        grid = unit_cube_grid(n, m)
        spec = RestrictedGaussian(tuple([0.5] * n),
                                  tuple(map(tuple, np.eye(n))))
        d = build_density(spec, grid)
        curv = estimate_diag_second_derivative_bound(d)
        metrics[f"curvature_bound_n{n}"] = curv
        # one alpha: on the unit cube Theorem 1.2's 3 r_from_m(curv) is Theorem 1.1's
        alpha = alpha_theorem1(max(curv, 0.0))
        u = np.zeros(n)
        u[0] = 1.0
        for tag, name in (("thm1", "thm-1.1"), ("ratio", "thm-1.2")):
            profiles.append(halfspace_profile(d, u, ts, alpha, label=f"gaussian-n{n}-{tag}"))
            reports.append(check_concentration(profiles[-1], name, grid_m=m, note=f"n={n}"))
        metrics[f"covariance_ratio_n{n}"] = covariance_ratio(d, alpha)
        fit = lipschitz_tail(d, ts[1:], alpha, u)
        metrics[f"tail_rate_n{n}"] = fit.rate
        metrics[f"tail_prefactor_n{n}"] = fit.prefactor
    # variance and entropy checks on three measures
    measures = [
        (build_density(Uniform(), unit_cube_grid(1, 1024)), 0.0, "uniform-1d"),
        (build_density(RestrictedGaussian((0.5,), ((4.0,),)),
                       unit_cube_grid(1, 256)), 4.0, "gaussian-1d"),
        (build_density(RestrictedGaussian((0.5, 0.5), tuple(map(tuple, 2.0 * np.eye(2)))),
                       unit_cube_grid(2, 32)), 2.0, "gaussian-2d"),
    ]
    anchor = measures[0][0]
    xs = anchor.grid.axis_centers(0)
    cos_anchor = np.cos(np.pi * xs)
    funcs = [cos_anchor] + [random_center_test_function(rng, anchor.grid)
                            for _ in range(cfg["test_functions"] - 1)]
    anchor_reports = poincare_lsi_check(anchor, 0.0, funcs)
    reports.extend(anchor_reports)
    w = anchor.values * anchor.grid.cell_volume
    metrics["cos_variance"] = float((cos_anchor ** 2 * w).sum()
                                    - ((cos_anchor * w).sum()) ** 2)
    grad = np.gradient(cos_anchor, anchor.grid.h)
    metrics["cos_gradient_energy"] = float((grad * grad * w).sum())
    for d, curv, label in measures[1:]:
        funcs = [random_center_test_function(rng, d.grid)
                 for _ in range(cfg["test_functions"])]
        reports.extend(poincare_lsi_check(d, curv, funcs))
    return {"reports": reports, "metrics": metrics, "profiles": profiles}


def suite_counterexample(cfg) -> dict:
    reports = []
    metrics = {}
    result = counterexample_scaling(cfg["ns"], cfg["n_samples"], cfg["seed"])
    scaling = []
    for row in result.rows:
        scaling.append({k: v for k, v in asdict(row).items() if k != "std_error"})
        reports.append(make_report(f"rem-5.1-mass-n{row.n}", abs(row.mass_fraction - 0.5),
                                   1.0 / np.sqrt(row.n_samples), 3.0))
        reports.append(make_report(f"rem-5.1-t-star-closed-n{row.n}",
                                   abs(row.t_star - row.predicted), row.std_error,
                                   T_STAR_STD_ERRORS, note=f"closed form {row.predicted:.6g}"))
        reports.append(make_report(f"rem-5.1-cube-n{row.n}", row.rejection_log10_bound, 1.0,
                                   LOG10_REJECTION_LIMIT,
                                   note="log10 of the certified rejection bound"))
        metrics[f"t_star_n{row.n}"] = row.t_star
    # t*(n) grows slower than sqrt(n) at small n, so the fitted slope is held
    # to its closed form's slope over the same ns, not to the asymptotic 1/2
    log_n = np.log([row.n for row in result.rows])
    closed = float(np.polyfit(log_n, np.log([row.predicted for row in result.rows]), 1)[0])
    reports.append(make_report("rem-5.1-slope", abs(result.slope - closed), 0.10, 1.0,
                               note=f"slope {result.slope:.4f}, closed form {closed:.4f}"))
    for row in result.rows:
        if row.n == 1024:
            rel_err = abs(row.t_star - REFERENCE_T_STAR_1024) / REFERENCE_T_STAR_1024
            reports.append(make_report("rem-5.1-t-star", rel_err, 0.15, 1.0))
    metrics["slope"] = result.slope
    return {"reports": reports, "metrics": metrics, "scaling": scaling}


SUITES = {
    "density-check": suite_density_check,
    "verify-1d": suite_verify_1d,
    "verify-knothe": suite_verify_knothe,
    "tire": suite_tire,
    "concentration": suite_concentration,
    "counterexample": suite_counterexample,
}


def run_all(cfg) -> dict:
    merged = {"reports": [], "metrics": {}, "profiles": [], "scaling": []}
    for name, suite in SUITES.items():
        out = suite(cfg)
        merged["reports"].extend(out.get("reports", []))
        for key, value in out.get("metrics", {}).items():
            merged["metrics"][f"{name}:{key}"] = value
        merged["profiles"].extend(out.get("profiles", []))
        merged["scaling"].extend(out.get("scaling", []))
    return merged


# ---------------------------------------------------------------------------
# emission


def emit_report(out_dir: str, command: str, cfg: dict, outcome: dict) -> bool:
    os.makedirs(out_dir, exist_ok=True)
    reports = outcome.get("reports", [])
    all_pass = all(r.passed for r in reports)
    payload = {
        "command": command,
        "config": cfg,
        "environment": {
            "package_version": __version__,
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "reports": [r.to_dict() for r in reports],
        # strict JSON has no NaN: a metric that could not be estimated is null
        "metrics": {key: value if math.isfinite(value) else None
                    for key, value in outcome.get("metrics", {}).items()},
        "scaling": outcome.get("scaling", []),
        "all_pass": all_pass,
    }
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(os.path.join(out_dir, "report.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for r in reports:
            writer.writerow(r.to_csv_row())
    profiles = outcome.get("profiles", [])
    if profiles and cfg.get("plot", True):
        for profile in profiles:
            slug = profile.label.replace(" ", "-") or "profile"
            write_profile_svg(profile, os.path.join(out_dir, f"profile-{slug}.svg"))
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        note = f"  ({r.note})" if r.note else ""
        print(f"[{status}] {r.name}: lhs={r.lhs:.6g} rhs={r.rhs:.6g} "
              f"slack={r.slack:.6g} m={r.grid_m}{note}")
    n_fail = sum(1 for r in reports if not r.passed)
    print(f"{len(reports) - n_fail}/{len(reports)} checks passed; "
          f"artifacts in {out_dir}")
    return all_pass


# ---------------------------------------------------------------------------
# argument parsing


# each command's help and the config keys its suite reads that a flag sets,
# on top of --config, --seed and --out. Only concentration reads plot:
# emit_report writes SVGs for profiles alone
COMMANDS = {
    "density-check": ("structural diagnostics of configured densities", {"m", "dim"}),
    "verify-1d": ("monotone-map inequality suite on the interval", {"m", "pairs"}),
    "verify-knothe": ("triangular-map suite on squares and cubes", {"m", "pairs", "n_samples"}),
    "tire": ("transport functional bounds and the exact-coupling sandwich", {"pairs"}),
    "concentration": ("halfspace profiles and variance/entropy checks", {"dims", "plot"}),
    "counterexample": ("dimension scaling of the equicorrelated construction",
                       {"ns", "n_samples"}),
}
COMMANDS["all"] = ("every suite in sequence", set().union(*(k for _, k in COMMANDS.values())))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cube-transport", allow_abbrev=False,
        description="Verification suites for transport maps on cube densities")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, keys) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.add_argument("--config", help="JSON config file")
        for key, entry in KEYS.items():
            if key in keys or key in ("seed", "out_dir"):
                flag, options = entry.flag
                p.add_argument(flag, dest=key, **options)
    return parser


def main(argv=None) -> int:
    overrides = vars(build_parser().parse_args(argv))
    command, config = overrides.pop("command"), overrides.pop("config")
    try:
        cfg = load_config(config, overrides)
        check_grid_limits(command, cfg)
        outcome = run_all(cfg) if command == "all" else SUITES[command](cfg)
    except (ConfigError, DensityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        all_pass = emit_report(cfg["out_dir"], command, cfg, outcome)
    except OSError as exc:
        print(f"error: cannot write artifacts: {exc}", file=sys.stderr)
        return 2
    return 0 if all_pass else 1


if __name__ == "__main__":
    sys.exit(main())
