"""Acceptance gate: the nine scale-and-tolerance pinned checks.

Each test prints exactly one [PASS]/[FAIL] line so a plain pytest -s run
reads as a checklist. Tolerances and sizes are pinned here on purpose;
loosening them is a contract change, not a fix.
"""

import json
import re
import time

import numpy as np

from cube_transport import (
    ConvexPower,
    ExponentialTilt,
    GridDensity,
    RestrictedGaussian,
    Uniform,
    alpha_theorem1,
    build_density,
    check_cheeger_lambda,
    check_concentration,
    check_facet_preservation,
    check_lemma_lambda,
    check_prop_quadratic,
    check_segment_bound,
    check_theorem31,
    check_transport_entropy_sandwich,
    counterexample_scaling,
    deficit_1d,
    displacement_cost,
    estimate_axis_convexity_ratio,
    estimate_diag_second_derivative_bound,
    halfspace_profile,
    knothe_map,
    log_gap,
    monotone_map,
    normalize,
    poincare_lsi_check,
    pushforward_error,
    quadratic_cost_1d,
    refinement_consistent,
    relative_entropy,
    sample_grid,
    unit_cube_grid,
)
from cube_transport.cli import main as cli_main
from cube_transport.families import (
    random_logconcave_spec_nd,
    random_node_test_function,
    random_smooth_density,
)


def emit(ok: bool, label: str, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


def linear_pair(m):
    f = build_density(Uniform(), unit_cube_grid(1, m))
    g = build_density(ConvexPower(0.0, (2.0,), 1.0), unit_cube_grid(1, m))
    return f, g


def draw_source_spec(rng):
    # alternate the two analytic families named by the contract
    if rng.integers(2) == 0:
        return ExponentialTilt((float(rng.uniform(-3.0, 3.0)),))
    offset = float(rng.uniform(0.05, 1.0))
    direction = float(rng.uniform(0.3, 3.0))
    power = float(rng.uniform(1.0, 3.0))
    return ConvexPower(offset, (direction,), power)


# ---------------------------------------------------------------- 1


def test_criterion_1_closed_form_anchor():
    t0 = time.perf_counter()
    f, g = linear_pair(1024)
    tmap = monotone_map(f, g)
    t_quarter = float(tmap(np.array([0.25]))[0])
    cost = quadratic_cost_1d(f, tmap)
    entropy = relative_entropy(g, f)
    deficit = deficit_1d(f, g, tmap)
    target = np.log(2.0) - 0.5
    elapsed = time.perf_counter() - t0
    ok = (abs(t_quarter - 0.5) <= 1e-3
          and abs(cost - 1.0 / 30.0) <= 1e-3
          and abs(entropy - target) <= 1e-3
          and abs(deficit - target) <= 1e-3
          and elapsed < 1.0)
    emit(ok, "criterion-1 closed-form-anchor",
         f"T(0.25)={t_quarter:.6f} cost={cost:.6f} D={entropy:.6f} "
         f"deficit={deficit:.6f} ({elapsed:.2f}s)")


# ---------------------------------------------------------------- 2


def test_criterion_2_quadratic_cost_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20)
    n_pairs = 50
    passed = 0
    refined_ok = 0
    for k in range(n_pairs):
        m = 256 if k % 2 == 0 else 512
        spec = draw_source_spec(rng)
        coeffs_seed = int(rng.integers(2 ** 31))
        reps = {}
        for mm in (m, 2 * m):
            grid = unit_cube_grid(1, mm)
            f = build_density(spec, grid)
            g = random_smooth_density(np.random.default_rng(coeffs_seed), grid)
            ratio = estimate_axis_convexity_ratio(f)
            reps[mm] = check_prop_quadratic(f, g, ratio)
        if reps[m].passed and reps[2 * m].passed:
            passed += 1
        if refinement_consistent(reps[m], reps[2 * m]):
            refined_ok += 1
    elapsed = time.perf_counter() - t0
    ok = passed == n_pairs and refined_ok == n_pairs and elapsed < 30.0
    emit(ok, "criterion-2 quadratic-cost-suite (prop-2.1)",
         f"{passed}/{n_pairs} pairs pass, {refined_ok}/{n_pairs} refinement "
         f"non-worsening, m in {{256,512}} ({elapsed:.1f}s)")


# ---------------------------------------------------------------- 3


def test_criterion_3_interval_lemma_suites():
    t0 = time.perf_counter()
    rng = np.random.default_rng(30)
    grid = unit_cube_grid(1, 256)

    lam_pass = 0
    for _ in range(20):
        f = build_density(draw_source_spec(rng), grid)
        g = random_smooth_density(rng, grid)
        if check_lemma_lambda(f, g).passed:
            lam_pass += 1

    seg_pass = 0
    for _ in range(20):
        rho = build_density(draw_source_spec(rng), grid)
        ratio = estimate_axis_convexity_ratio(rho)
        a = float(rng.uniform(0.0, 0.8))
        b = float(rng.uniform(a + 0.05, 1.0))
        if check_segment_bound(rho, ratio, a, b).passed:
            seg_pass += 1

    cheeger_pass = 0
    for _ in range(20):
        rho = build_density(draw_source_spec(rng), grid)
        ratio = estimate_axis_convexity_ratio(rho)
        u = random_node_test_function(rng, grid)
        if check_cheeger_lambda(rho, ratio, u).passed:
            cheeger_pass += 1

    xs = np.logspace(-3.0, 3.0, 10000)
    gaps = log_gap(xs)
    scalar_ok = bool(np.all(gaps >= -1e-12))
    gap_at_2 = float(log_gap(np.array([2.0]))[0])
    anchor_ok = abs(gap_at_2 - (1.0 - np.log(2.0) - 0.3)) <= 1e-12

    elapsed = time.perf_counter() - t0
    ok = (lam_pass == 20 and seg_pass == 20 and cheeger_pass == 20
          and scalar_ok and anchor_ok)
    emit(ok, "criterion-3 interval-lemma-suites (lem-2.2/2.4/2.5, eq-2.3)",
         f"lambda {lam_pass}/20, segment {seg_pass}/20, cheeger {cheeger_pass}/20, "
         f"scalar gap min {gaps.min():.2e}, gap(2)={gap_at_2:.12f} ({elapsed:.1f}s)")


# ---------------------------------------------------------------- 4


def test_criterion_4_triangular_transport_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(40)

    # product anchor at m = 64
    grid = unit_cube_grid(2, 64)
    f = build_density(Uniform(), grid)
    cx = grid.axis_centers(0)
    g = normalize(GridDensity(grid, 4.0 * np.outer(cx, cx)))
    tmap = knothe_map(f, g)
    cost = displacement_cost(tmap, f)
    anchor_ok = abs(cost - 2.0 / 30.0) <= 2e-3
    facet = check_facet_preservation(tmap)
    n_push = 100000
    ks = pushforward_error(tmap, f, g, n_samples=n_push, seed=0)
    ks_ok = ks <= 2.0 / np.sqrt(n_push) + 2.0 * grid.h
    ratio = max(estimate_axis_convexity_ratio(f), estimate_axis_convexity_ratio(g))
    anchor_thm = check_theorem31(f, g, ratio, tmap)

    n_pass = 0
    n_pairs = 0
    for k in range(16):
        grid2 = unit_cube_grid(2, 24)
        f2 = build_density(random_logconcave_spec_nd(rng, 2, grid2.origin, grid2.side), grid2)
        g2 = random_smooth_density(rng, grid2)
        r2 = max(estimate_axis_convexity_ratio(f2), estimate_axis_convexity_ratio(g2))
        rep = check_theorem31(f2, g2, r2)
        n_pairs += 1
        n_pass += int(rep.passed and check_facet_preservation(knothe_map(f2, g2)).passed)
    for k in range(4):
        grid3 = unit_cube_grid(3, 12)
        f3 = build_density(random_logconcave_spec_nd(rng, 3, grid3.origin, grid3.side), grid3)
        g3 = random_smooth_density(rng, grid3)
        r3 = max(estimate_axis_convexity_ratio(f3), estimate_axis_convexity_ratio(g3))
        rep = check_theorem31(f3, g3, r3)
        n_pairs += 1
        n_pass += int(rep.passed)

    elapsed = time.perf_counter() - t0
    ok = (anchor_ok and facet.passed and ks_ok and anchor_thm.passed
          and n_pass == n_pairs and n_pairs + 1 >= 20 and elapsed < 120.0)
    emit(ok, "criterion-4 triangular-transport-suite (thm-3.1)",
         f"anchor cost={cost:.5f}, facet lhs={facet.lhs:.2e}<=2h, "
         f"KS={ks:.5f}, {n_pass}/{n_pairs} random pairs in n=2,3 ({elapsed:.1f}s)")


# ---------------------------------------------------------------- 5


def test_criterion_5_sandwich_tiny_instances():
    t0 = time.perf_counter()
    rng = np.random.default_rng(50)
    n_pairs = 12
    n_pass = 0
    for _ in range(n_pairs):
        grid = unit_cube_grid(2, 8)
        f = build_density(random_logconcave_spec_nd(rng, 2, grid.origin, grid.side), grid)
        g = random_smooth_density(rng, grid)
        ratio = max(estimate_axis_convexity_ratio(f), estimate_axis_convexity_ratio(g))
        reps = check_transport_entropy_sandwich(f, g, ratio)
        n_pass += int(all(r.passed for r in reps))
    elapsed = time.perf_counter() - t0
    ok = n_pass == n_pairs and elapsed < 60.0
    emit(ok, "criterion-5 sandwich-tiny-instances (thm-4.2)",
         f"{n_pass}/{n_pairs} pairs, all three links at n=2 m=8 ({elapsed:.1f}s)")


# ---------------------------------------------------------------- 6


def test_criterion_6_concentration_profiles():
    t0 = time.perf_counter()
    n_samples = 10 ** 6
    ts = np.linspace(0.0, 1.2, 20)
    gauss_ok = True
    details = []
    for n, m in ((2, 64), (4, 16), (8, 4)):
        grid = unit_cube_grid(n, m)
        center = tuple(0.5 for _ in range(n))
        inv = tuple(tuple(float(i == j) for j in range(n)) for i in range(n))
        d = build_density(RestrictedGaussian(center, inv), grid)
        mhat = estimate_diag_second_derivative_bound(d)
        batch = sample_grid(d, n_samples, seed=60 + n)
        direction = np.zeros(n)
        direction[0] = 1.0
        for alpha in (3.0 * np.exp(1.0 / 8.0), alpha_theorem1(mhat)):
            prof = halfspace_profile(batch, direction, ts, alpha=alpha)
            rep = check_concentration(prof, name="thm-1.1")
            gauss_ok = gauss_ok and rep.passed
        details.append(f"n={n} Mhat={mhat:.3f}")

    uni = build_density(Uniform(), unit_cube_grid(2, 64))
    ubatch = sample_grid(uni, n_samples, seed=66)
    uprof = halfspace_profile(ubatch, np.array([1.0, 0.0]), ts, alpha=3.0)
    uniform_ok = check_concentration(uprof, name="cor-1.3").passed
    neg = halfspace_profile(ubatch, np.array([1.0, 0.0]), ts, alpha=0.1)
    negative_fails = not check_concentration(neg).passed

    elapsed = time.perf_counter() - t0
    ok = gauss_ok and uniform_ok and negative_fails and elapsed < 180.0
    emit(ok, "criterion-6 concentration-profiles (thm-1.1/1.2, cor-1.3)",
         f"gaussian {', '.join(details)} at N=1e6, uniform alpha=3 ok, "
         f"negative control alpha=0.1 fails ({elapsed:.1f}s)")


# ---------------------------------------------------------------- 7


def test_criterion_7_poincare_lsi_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(70)

    grid1 = unit_cube_grid(1, 1024)
    uni = build_density(Uniform(), grid1)
    x1 = grid1.axis_centers(0)
    anchor = np.cos(np.pi * x1)
    fns_uni = [anchor] + [np.sin(2 * np.pi * k * x1) + rng.uniform(-0.5, 0.5)
                          for k in range(1, 8)]

    grid2 = unit_cube_grid(1, 256)
    gauss1 = build_density(
        RestrictedGaussian((0.5,), ((4.0,),)), grid2)
    x2 = grid2.axis_centers(0)
    fns_g1 = [x2, x2**2, np.exp(x2), np.cos(2 * np.pi * x2),
              np.sin(np.pi * x2), np.tanh(3.0 * (x2 - 0.5)), x2**3]

    grid3 = unit_cube_grid(2, 32)
    gauss2 = build_density(
        RestrictedGaussian((0.5, 0.5), ((2.0, 0.0), (0.0, 2.0))), grid3)
    cx, cy = np.meshgrid(grid3.axis_centers(0), grid3.axis_centers(1), indexing="ij")
    fns_g2 = [cx + cy, np.cos(np.pi * cx) * np.cos(np.pi * cy),
              cx * cy, np.sin(np.pi * cx), np.exp(0.5 * (cx - cy)),
              (cx - 0.5) ** 2 + (cy - 0.5) ** 2]

    all_pass = True
    n_fns = 0
    for mu, curvature, fns in ((uni, 0.0, fns_uni), (gauss1, 4.0, fns_g1),
                               (gauss2, 2.0, fns_g2)):
        reps = poincare_lsi_check(mu, curvature, fns)
        all_pass = all_pass and all(r.passed for r in reps)
        n_fns += len(fns)

    anchor_reps = poincare_lsi_check(uni, 0.0, [anchor])
    poin = [r for r in anchor_reps if r.name == "cor-4.5-poincare"][0]
    var_ok = abs(poin.lhs - 0.5) <= 1e-3
    energy = poin.rhs / (20.0 / 9.0)
    energy_ok = abs(energy - np.pi**2 / 2.0) <= 1e-3 * (np.pi**2 / 2.0)

    elapsed = time.perf_counter() - t0
    ok = all_pass and n_fns >= 20 and var_ok and energy_ok
    emit(ok, "criterion-7 poincare-lsi-suite (cor-4.5)",
         f"{n_fns} functions on 3 measures, anchor Var={poin.lhs:.5f}, "
         f"energy={energy:.5f} vs pi^2/2={np.pi**2 / 2.0:.5f} ({elapsed:.1f}s)")


# ---------------------------------------------------------------- 8


def test_criterion_8_width_scaling():
    t0 = time.perf_counter()
    n_samples = 10 ** 6
    res = counterexample_scaling([256, 1024, 4096], n_samples=n_samples, seed=80)
    row1024 = [r for r in res.rows if r.n == 1024][0]
    t_star_ok = abs(row1024.t_star - 0.052) <= 0.15 * 0.052
    slope_ok = 0.40 <= res.slope <= 0.60
    mass_ok = all(abs(r.mass_fraction - 0.5) <= 3.0 / np.sqrt(n_samples)
                  for r in res.rows)
    elapsed = time.perf_counter() - t0
    ok = t_star_ok and slope_ok and mass_ok and elapsed < 300.0
    emit(ok, "criterion-8 width-scaling (rem-5.1)",
         f"t*(1024)={row1024.t_star:.5f} vs 0.052, slope={res.slope:.3f}, "
         f"mass fractions within 3/sqrt(N) ({elapsed:.1f}s)")


# ---------------------------------------------------------------- 9


def test_criterion_9_reproducible_reports(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "run"
    args = ["verify-1d", "--pairs", "2", "--m", "32", "--seed", "9",
            "--out", str(out)]
    assert cli_main(list(args)) == 0
    first = (out / "report.json").read_text()
    assert cli_main(list(args)) == 0
    second = (out / "report.json").read_text()
    strip = lambda s: re.sub(r'"timestamp": "[^"]*"', '"timestamp": null', s)
    ok = strip(first) == strip(second) and json.loads(first)["all_pass"]
    elapsed = time.perf_counter() - t0
    emit(ok, "criterion-9 reproducible-reports",
         f"two identical runs byte-identical modulo timestamp ({elapsed:.1f}s)")
