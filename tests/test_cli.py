"""Command line driver: config handling, artifacts, exit codes."""

import csv
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cube_transport
import loop_oracles
from cube_transport.cli import (_SCAN_STEP_TRIPLES, DEFAULTS, MAX_SCAN_TRIPLES, MAX_T_COUNT,
                                SUITES, ConfigError, _anchor_pair, _grid_m_for_dim,
                                _random_pair, _rng, build_parser, check_grid_limits,
                                emit_report, load_config, main, run_all, scan_triples,
                                suite_verify_1d)
from cube_transport.concentration import check_concentration, halfspace_profile
from cube_transport.density import (GridDensity, RestrictedGaussian, Uniform,
                                    _midpoint_directions, build_density, unit_cube_grid)
from cube_transport.families import (random_logconcave_spec_1d, random_logconcave_spec_nd,
                                     random_smooth_density)
from cube_transport.sampler import MAX_POINT_BUDGET
from cube_transport.reports import CSV_HEADER, TOLERANCES, row_family


def run_cli(args):
    return main(list(args))


# ---------------------------------------------------------------- config


def test_defaults_complete():
    cfg = load_config(None, {})
    assert set(cfg) == set(DEFAULTS)
    assert cfg["seed"] == 0
    assert cfg["m"] == 64


def test_flag_overrides_default():
    cfg = load_config(None, {"seed": 9, "m": 32})
    assert cfg["seed"] == 9
    assert cfg["m"] == 32


def test_config_file_and_flag_precedence(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 5, "pairs": 3}))
    cfg = load_config(str(path), {})
    assert cfg["seed"] == 5
    assert cfg["pairs"] == 3
    # explicit flag beats the file
    cfg = load_config(str(path), {"seed": 11})
    assert cfg["seed"] == 11
    assert cfg["pairs"] == 3


def test_env_seed_below_file(tmp_path, monkeypatch):
    monkeypatch.setenv("CUBE_TRANSPORT_SEED", "77")
    cfg = load_config(None, {})
    assert cfg["seed"] == 77
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 5}))
    cfg = load_config(str(path), {})
    assert cfg["seed"] == 5


def test_unknown_config_key_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seeed": 5}))
    with pytest.raises(ConfigError):
        load_config(str(path), {})


def test_parser_has_all_subcommands():
    parser = build_parser()
    text = parser.format_help()
    for sub in ("density-check", "verify-1d", "verify-knothe", "tire",
                "concentration", "counterexample", "all"):
        assert sub in text


# ---------------------------------------------------------------- runs


def test_verify_1d_run(tmp_path):
    out = tmp_path / "run"
    code = run_cli(["verify-1d", "--pairs", "2", "--m", "32", "--out", str(out)])
    assert code == 0
    payload = json.loads((out / "report.json").read_text())
    for key in ("command", "config", "environment", "timestamp", "reports",
                "metrics", "all_pass"):
        assert key in payload
    assert payload["command"] == "verify-1d"
    assert payload["all_pass"] is True
    assert payload["environment"]["package_version"]
    rows = payload["reports"]
    assert rows
    for row in rows:
        for key in ("name", "lhs", "rhs", "slack", "pass", "rel_tol", "abs_tol"):
            assert key in row


@pytest.mark.parametrize("seed", [10, 28, 33, 36, 37, 39, 44, 46])
def test_verify_1d_passes_every_row_at_default_config(seed):
    # these seeds failed prop-2.1-refinement or lem-2.2 rows while the 1d
    # functionals were cell-centre quadratures instead of sums over pieces
    reports = suite_verify_1d(dict(DEFAULTS, seed=seed))["reports"]
    assert [r.name for r in reports if not r.passed] == []


def test_csv_matches_json(tmp_path):
    out = tmp_path / "run"
    assert run_cli(["density-check", "--m", "16", "--dim", "2", "--out", str(out)]) == 0
    payload = json.loads((out / "report.json").read_text())
    with open(out / "report.csv") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == CSV_HEADER
    assert len(rows) - 1 == len(payload["reports"])
    names_csv = [r[0] for r in rows[1:]]
    names_json = [r["name"] for r in payload["reports"]]
    assert names_csv == names_json


def test_bad_flag_exits_2(tmp_path):
    out = tmp_path / "run"
    code = run_cli(["verify-1d", "--m", "-5", "--out", str(out)])
    assert code == 2


def test_too_many_cells_rejected(tmp_path):
    out = tmp_path / "run"
    code = run_cli(["density-check", "--m", "4096", "--dim", "3", "--out", str(out)])
    assert code == 2


def test_grid_limits_apply_only_to_the_grids_a_command_builds(tmp_path, capsys):
    # verify-1d scans 1d grids of m and 2m cells; verify-knothe uses min(m, 32)
    for command in ("verify-1d", "verify-knothe"):
        assert run_cli([command, "--m", "1200", "--out", str(tmp_path / command)]) == 0
    assert_rejected(capsys, ["density-check", "--m", "1200", "--out", str(tmp_path / "dc")])


def _no_grid(monkeypatch):
    def no_grid(*args, **kwargs):
        raise AssertionError("a grid was built")

    monkeypatch.setattr("cube_transport.cli.unit_cube_grid", no_grid)


@pytest.mark.parametrize("command", ["verify-1d", "all"])
def test_verify_1d_scan_budget_exits_2_before_any_grid(tmp_path, capsys, monkeypatch, command):
    # scan_triples(2m, 1) <= 2^31 holds up to m = 28926; at dim 1 the
    # density-check grid of all stays within its budgets
    _no_grid(monkeypatch)
    dim = ["--dim", "1"] if command == "all" else []
    err = assert_rejected(capsys, [command, *dim, "--m", "28927", "--out", str(tmp_path / "run")])
    assert err.startswith("error: verify-1d at m=28927")
    assert not (tmp_path / "run").exists()


def test_concentration_grid_budget_binds_only_where_those_grids_are_built(
        tmp_path, capsys, monkeypatch):
    # only concentration builds a grid per entry of dims
    path = _write_config(tmp_path, {"dims": [30]})
    assert run_cli(["tire", "--pairs", "1", "--config", path, "--out", str(tmp_path / "tire")]) == 0
    _no_grid(monkeypatch)
    for command in ("concentration", "all"):
        err = assert_rejected(capsys, [command, "--config", path,
                                       "--out", str(tmp_path / command)])
        assert "dims [30] need concentration grids beyond the cell budget 2^24" in err
        assert not (tmp_path / command).exists()


def test_concentration_emits_svg(tmp_path):
    out = tmp_path / "run"
    code = run_cli(["concentration", "--dims", "2",
                    "--out", str(out)])
    assert code == 0
    svgs = list(out.glob("profile-*.svg"))
    assert svgs
    head = svgs[0].read_text()[:200]
    assert "<svg" in head


def test_no_plot_suppresses_svg(tmp_path):
    out = tmp_path / "run"
    code = run_cli(["concentration", "--dims", "2",
                    "--no-plot", "--out", str(out)])
    assert code == 0
    assert not list(out.glob("*.svg"))


# the flags each command takes besides --config, --seed and --out: those of
# the config keys its suite reads. Written out here, not read from the parser
TAKES = {
    "density-check": {"--m", "--dim"},
    "verify-1d": {"--m", "--pairs"},
    "verify-knothe": {"--m", "--pairs", "--samples"},
    "tire": {"--pairs"},
    "concentration": {"--dims", "--plot", "--no-plot"},
    "counterexample": {"--ns", "--samples"},
    "all": {"--m", "--dim", "--pairs", "--samples", "--dims", "--ns", "--plot", "--no-plot"},
}
# each flag's values in a test run and the config key it sets
FLAG_ARGS = {"--m": (["8"], "m"), "--dim": (["2"], "dim"), "--pairs": (["1"], "pairs"),
             "--samples": (["5000"], "n_samples"), "--dims": (["2"], "dims"),
             "--ns": (["64,128"], "ns"), "--plot": ([], "plot"), "--no-plot": ([], "plot")}


def assert_usage_error(tmp_path, capsys, args, flag):
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as exc:
        main(args + ["--out", str(out)])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, flag", list(itertools.product(TAKES, FLAG_ARGS)))
def test_each_command_takes_only_its_flags(tmp_path, capsys, command, flag):
    values, key = FLAG_ARGS[flag]
    if flag in TAKES[command]:
        assert vars(build_parser().parse_args([command, flag, *values]))[key] is not None
    else:
        assert_usage_error(tmp_path, capsys, [command, flag, *values], flag)


@pytest.mark.parametrize("command", TAKES)
def test_help_lists_no_other_flags(capsys, command):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    flags = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
    assert flags == {"--help", "--config", "--seed", "--out", *TAKES[command]}


@pytest.mark.parametrize("args, flag", [(["concentration", "--dim", "3"], "--dim"),
                                        (["counterexample", "--sam", "2000", "--ns", "64,128"],
                                         "--sam")], ids=["dim-for-dims", "sam-for-samples"])
def test_abbreviated_flags_rejected(tmp_path, capsys, args, flag):
    # --dim is not short for --dims, nor --sam for --samples
    assert_usage_error(tmp_path, capsys, args, flag)


class _ReadKeys(dict):
    """A config that records the keys read from it."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


@pytest.mark.parametrize("command", TAKES)
def test_suites_read_exactly_the_keys_their_flags_set(tmp_path, capsys, command):
    # besides the seed, a suite reads a key no flag sets only from the config file
    cfg = _ReadKeys(load_config(None, {"pairs": 1}))
    outcome = run_all(cfg) if command == "all" else SUITES[command](cfg)
    emit_report(str(tmp_path), command, cfg, outcome)
    config_only = {"seed", "t_max", "t_count", "test_functions", "source", "target"}
    assert cfg.read - config_only == {FLAG_ARGS[flag][1] for flag in TAKES[command]}


def test_counterexample_run(tmp_path):
    # n must spread enough for the width-scaling fit to stabilize
    out = tmp_path / "run"
    code = run_cli(["counterexample", "--ns", "256,1024", "--samples", "20000",
                    "--out", str(out)])
    assert code == 0
    payload = json.loads((out / "report.json").read_text())
    assert [row["n"] for row in payload["scaling"]] == [256, 1024]
    assert all(row["rejection_log10_bound"] < -15.95 for row in payload["scaling"])
    names = {r["name"] for r in payload["reports"]}
    for n in (256, 1024):
        assert {f"rem-5.1-mass-n{n}", f"rem-5.1-t-star-closed-n{n}",
                f"rem-5.1-cube-n{n}"} <= names
    assert {"rem-5.1-slope", "rem-5.1-t-star"} <= names
    assert "kappa" not in payload["metrics"]


def test_reproducible_reports(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    args = ["verify-1d", "--pairs", "2", "--m", "32", "--seed", "4"]
    assert run_cli(args + ["--out", str(out1)]) == 0
    assert run_cli(args + ["--out", str(out2)]) == 0
    a = json.loads((out1 / "report.json").read_text())
    b = json.loads((out2 / "report.json").read_text())
    a.pop("timestamp")
    b.pop("timestamp")
    a["config"].pop("out_dir")
    b["config"].pop("out_dir")
    assert a == b


def test_seed_changes_results(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert run_cli(["verify-1d", "--pairs", "2", "--m", "32", "--seed", "1",
                    "--out", str(out1)]) == 0
    assert run_cli(["verify-1d", "--pairs", "2", "--m", "32", "--seed", "2",
                    "--out", str(out2)]) == 0
    a = json.loads((out1 / "report.json").read_text())
    b = json.loads((out2 / "report.json").read_text())
    lhs_a = [r["lhs"] for r in a["reports"]]
    lhs_b = [r["lhs"] for r in b["reports"]]
    assert lhs_a != lhs_b


def test_console_entry_point(tmp_path):
    out = tmp_path / "run"
    # run the package this test imported, installed or not
    src = os.path.dirname(os.path.dirname(cube_transport.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "cube_transport.cli", "density-check",
         "--m", "8", "--dim", "2", "--out", str(out)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0
    assert "checks passed" in proc.stdout
    assert (out / "report.json").exists()


def test_config_file_run(tmp_path):
    cfg = {"seed": 2, "pairs": 2, "m": 32}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    code = run_cli(["verify-1d", "--config", str(path), "--out", str(out)])
    assert code == 0
    payload = json.loads((out / "report.json").read_text())
    assert payload["config"]["seed"] == 2
    assert payload["config"]["pairs"] == 2


# ---------------------------------------------------------------- bad configs


def _write_config(tmp_path, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))  # NaN and Infinity pass through as JSON tokens
    return str(path)


def assert_rejected(capsys, args):
    assert run_cli(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err
    return err


@pytest.mark.parametrize("cfg", [
    {"seed": 1 << 64},
    {"seed": True},
    {"t_max": "1"},
    {"t_max": float("nan")},
    {"t_max": float("inf")},
    {"threads": 1},
    {"m": 3, "dim": 3_000_000},
    {"dims": [40]},
    {"source": {"variant": "exponential_tilt"}},
    {"source": {"variant": "exponential_tilt", "tilt": "abc"}},
    {"n_samples": MAX_POINT_BUDGET // 2 + 1},
    {"t_count": MAX_T_COUNT + 1},
    {"t_count": 10 ** 30},
    {"ns": [256, 256]},
    {"ns": [64, 64, 128]},
    {"dims": [2, 2]},
], ids=["seed-2^64", "seed-bool", "t_max-string", "t_max-nan", "t_max-inf",
        "threads", "dim-3e6", "dims-40", "spec-missing-key", "spec-ill-typed",
        "n_samples-beyond-budget", "t_count-beyond-cap", "t_count-1e30", "ns-one-distinct",
        "ns-repeated", "dims-repeated"])
def test_bad_config_exits_2(tmp_path, capsys, cfg):
    # dims sizes only the grids concentration builds; every command checks the other keys
    command = "concentration" if "dims" in cfg else "density-check"
    path = _write_config(tmp_path, cfg)
    with pytest.raises(ConfigError):
        check_grid_limits(command, load_config(path, {}))
    assert_rejected(capsys, [command, "--config", path, "--out", str(tmp_path / "run")])


_SEED_RULE = "seed must be an integer in [0, 2^64)"
_T_MAX_RULE = "t_max must be a finite positive number"
_DIMS_RULE = "dims must be a nonempty list of positive integers"
_NS_RULE = "ns must be a list of at least two integers >= 64"
# each config key, one value per rule it breaks and the one-line message; a
# value of the wrong type gets the type's message where a bound fails too
CONFIG_RULES = {
    "seed": [("1", _SEED_RULE), (True, _SEED_RULE), (-1, _SEED_RULE), (1 << 64, _SEED_RULE)],
    "out_dir": [("", "out_dir must be a nonempty string"),
                (7, "out_dir must be a nonempty string")],
    "m": [(8.0, "m must be an integer >= 2"), (1, "m must be an integer >= 2")],
    "dim": [("30", "dim must be an integer >= 1"), (0, "dim must be an integer >= 1"),
            (25, "dim must be an integer <= 24")],
    "pairs": [(True, "pairs must be an integer >= 1"), (0, "pairs must be an integer >= 1")],
    "n_samples": [("1e9", "n_samples must be an integer >= 1000"),
                  (999, "n_samples must be an integer >= 1000"),
                  (MAX_POINT_BUDGET // 2 + 1,
                   f"n_samples must be an integer <= {MAX_POINT_BUDGET // 2}")],
    "t_max": [("1", _T_MAX_RULE), (True, _T_MAX_RULE), (0, _T_MAX_RULE), (-1.5, _T_MAX_RULE),
              (float("inf"), _T_MAX_RULE), (float("nan"), _T_MAX_RULE)],
    "t_count": [(None, "t_count must be an integer >= 2"), (1, "t_count must be an integer >= 2"),
                (MAX_T_COUNT + 1, f"t_count must be an integer <= {MAX_T_COUNT}")],
    "dims": [("2", _DIMS_RULE), ([], _DIMS_RULE), ([2.0], _DIMS_RULE), ([0], _DIMS_RULE),
             ([2, 2], "dims must not repeat an entry")],
    "ns": [(64, _NS_RULE), ([64], _NS_RULE), ([64, 128.0], _NS_RULE), ([63, 128], _NS_RULE),
           ([64, 64], "ns must not repeat an entry")],
    "test_functions": [(1.0, "test_functions must be an integer >= 1"),
                       (0, "test_functions must be an integer >= 1")],
    "plot": [(1, "plot must be true or false"), (None, "plot must be true or false")],
    "source": [([], "source: density spec must be an object"),
               ({"variant": "nope"}, "source: unknown density spec variant 'nope'")],
    "target": [([], "target: density spec must be an object"),
               ({"variant": "nope"}, "target: unknown density spec variant 'nope'")],
}


def test_config_rules_cover_every_key():
    assert set(CONFIG_RULES) == set(DEFAULTS)


@pytest.mark.parametrize("key, value, text", [
    pytest.param(key, value, text, id=f"{key}-{i}")
    for key, rules in CONFIG_RULES.items() for i, (value, text) in enumerate(rules)])
def test_each_config_rule_exits_2_through_main(tmp_path, capsys, monkeypatch, key, value, text):
    _no_grid(monkeypatch)
    out = tmp_path / "run"
    argv = ["all", "--config", _write_config(tmp_path, {key: value})]
    # --out would override the out_dir under test
    argv += [] if key == "out_dir" else ["--out", str(out)]
    assert assert_rejected(capsys, argv) == f"error: {text}\n"
    assert not out.exists()


def test_largest_sample_and_offset_counts_accepted():
    cfg = load_config(None, {"n_samples": MAX_POINT_BUDGET // 2, "t_count": MAX_T_COUNT})
    assert (cfg["n_samples"], cfg["t_count"]) == (MAX_POINT_BUDGET // 2, MAX_T_COUNT)


@pytest.mark.parametrize("n", [(1 << 53) + 1, 10 ** 400])
def test_counterexample_dimension_beyond_exact_floats_exits_2(tmp_path, capsys, n):
    assert_rejected(capsys, ["counterexample", "--ns", f"256,{n}",
                             "--samples", "1000", "--out", str(tmp_path / "run")])


def test_artifact_write_error_exits_2(tmp_path, capsys):
    # the output directory names an existing file
    out = tmp_path / "taken"
    out.write_text("")
    assert_rejected(capsys, ["density-check", "--m", "8", "--out", str(out)])
    assert out.read_text() == ""


def test_seed_flag_beyond_64_bits_exits_2(tmp_path, capsys):
    assert_rejected(capsys, ["verify-1d", "--seed", str(1 << 64),
                             "--out", str(tmp_path / "run")])


def test_largest_seed_accepted():
    assert load_config(None, {"seed": (1 << 64) - 1})["seed"] == (1 << 64) - 1


def counted_scan_triples(m, dim):
    # the scans' worst case, walked as density-check walks them: the unit
    # gap, then every gap, over the listed directions; the axis ratio of the
    # density and of its marginal, line by line. Where no triple fits (m <= 2)
    # no direction is listed
    gaps = (m - 1) // 2
    directions = _midpoint_directions(dim) if gaps else []
    midpoint = sum(math.prod(m - 2 * t * abs(c) for c in u)
                   for t in itertools.chain((1,), range(1, gaps + 1)) for u in directions)
    axes = [k for k in (dim, dim - 1) if k >= 1]
    axis = sum(k * m ** (k - 1) * (m - gap) for k in axes for gap in range(2, m, 2))
    steps = ((2 * 3 ** dim if directions else 0) + len(directions) * (1 + gaps)
             + sum(k * len(range(2, m, 2)) for k in axes))
    return midpoint + axis + _SCAN_STEP_TRIPLES * steps


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_scan_triples_counts_the_scans(dim):
    for m in range(2, 12):
        assert scan_triples(m, dim) == counted_scan_triples(m, dim)


def test_default_and_tested_configs_within_scan_budget():
    for m, dim in [(64, 2), (32, 2), (16, 2), (8, 2), (1024, 2), (3, 9)]:
        assert scan_triples(m, dim) <= MAX_SCAN_TRIPLES
        assert load_config(None, {"m": m, "dim": dim})["m"] == m


@pytest.mark.parametrize("m, dim", [(3, 15), (16777216, 1), (7, 8), (5, 10), (3, 13)])
def test_oversized_scans_exit_2_without_scanning(tmp_path, capsys, monkeypatch, m, dim):
    def no_scan(*args, **kwargs):
        raise AssertionError("a scan started")

    for name in ("build_density", "check_midpoint_log_concavity",
                 "estimate_axis_convexity_ratio"):
        monkeypatch.setattr(f"cube_transport.cli.{name}", no_scan)
    start = time.perf_counter()
    assert_rejected(capsys, ["density-check", "--m", str(m), "--dim", str(dim),
                             "--out", str(tmp_path / "run")])
    assert time.perf_counter() - start < 1.0
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("dim", [13, 20])
def test_two_cells_per_axis_scan_nothing_and_run(tmp_path, dim):
    # at m = 2 no cell triple fits, so the midpoint check lists no direction
    # and the 3^dim directions are not charged; the cell cap still binds
    assert scan_triples(2, dim) == 0
    assert run_cli(["density-check", "--m", "2", "--dim", str(dim),
                    "--out", str(tmp_path / "run")]) == 0


@pytest.mark.parametrize("tag", ["source", "target"])
def test_mis_shaped_specs_exit_2_before_any_density_is_built(tmp_path, capsys, monkeypatch, tag):
    # both specs are checked against the grid (shapes, then each variant's own
    # conditions) before the source is built and scanned, and the message
    # names the spec as parse errors do
    def no_scan(*args, **kwargs):
        raise AssertionError("a density was built or scanned")

    for name in ("build_density", "check_midpoint_log_concavity",
                 "estimate_axis_convexity_ratio"):
        monkeypatch.setattr(f"cube_transport.cli.{name}", no_scan)
    gaussian = {"variant": "restricted_gaussian", "center": [0.5, 0.5]}
    for spec, text in [
            ({"variant": "custom_grid", "values": [[1.0, 2.0]]},
             "values has shape (1, 2); the grid needs shape (1024, 1024)"),
            ({**gaussian, "inverse_covariance": [[1, 2], [0, 1]]},
             "inverse_covariance must be symmetric"),
            ({**gaussian, "inverse_covariance": [[1, 2], [2, 1]]},
             "inverse_covariance must be positive semidefinite"),
            ({"variant": "convex_power", "offset": -0.5, "direction": [1, -1], "power": 2},
             "ConvexPower base offset + x.direction must stay positive on the cube")]:
        cfg = {"source": VALID_SPECS["restricted_gaussian"], "target": VALID_SPECS["uniform"],
               tag: spec}
        err = assert_rejected(capsys, ["density-check", "--m", "1024", "--dim", "2", "--config",
                                       _write_config(tmp_path, cfg),
                                       "--out", str(tmp_path / "run")])
        assert err == f"error: {tag}: {text}\n"
        assert not (tmp_path / "run").exists()


# specs that pass check_spec on the 4x4 grid yet fail to build or to scan
UNBUILDABLE_SPECS = {
    "mass-overflows": ({"variant": "custom_grid", "values": [[1e308] * 4] * 4},
                       "cannot normalize a density whose mass overflows to inf"),
    "power-overflows": ({"variant": "convex_power", "offset": 1, "direction": [1, 0.5],
                         "power": 1e6}, "the spec's density overflows on the grid"),
    "scale-underflows": ({"variant": "equicorrelated_gaussian", "scale": 1e-300},
                         "the spec's density overflows on the grid"),
    "zero-cell": ({"variant": "custom_grid", "values": [[0, 1, 1, 1]] + [[1] * 4] * 3},
                  "density has zero cells where positivity is required"),
}


@pytest.mark.parametrize("tag", ["source", "target"])
@pytest.mark.parametrize("case", list(UNBUILDABLE_SPECS))
def test_spec_failures_name_the_spec_in_one_line(tmp_path, capsys, case, tag):
    # no numpy warning reaches stderr (filterwarnings makes one a failure)
    spec, text = UNBUILDABLE_SPECS[case]
    cfg = {"source": VALID_SPECS["uniform"], tag: spec}
    err = assert_rejected(capsys, [*DENSITY_CHECK, "--config", _write_config(tmp_path, cfg),
                                   "--out", str(tmp_path / "run")])
    assert err == f"error: {tag}: {text}\n"


@pytest.mark.parametrize("cfg", [{"t_count": 2}, {"t_count": 3}, {"t_max": 0.02}],
                         ids=["t_count-2", "t_count-3", "t_max-0.02"])
def test_negative_control_holds_at_any_offsets(tmp_path, cfg):
    # the strict-alpha control is read at its own offset, not the configured ts
    path = _write_config(tmp_path, cfg)
    out = tmp_path / "run"
    assert run_cli(["concentration", "--config", path, "--no-plot", "--out", str(out)]) == 0
    rows = json.loads((out / "report.json").read_text())["reports"]
    assert [r["lhs"] for r in rows if r["name"] == "negative-control"] == [0.0]


def test_unestimated_metrics_are_strict_json_nulls(tmp_path):
    # two offsets leave lipschitz_tail fewer than two positive tail masses
    path = _write_config(tmp_path, {"t_count": 2, "n_samples": 5000, "dims": [2]})
    out = tmp_path / "run"
    run_cli(["concentration", "--config", path, "--no-plot", "--out", str(out)])

    def reject(token):
        raise ValueError(f"non-strict JSON constant {token}")

    payload = json.loads((out / "report.json").read_text(), parse_constant=reject)
    metrics = payload["metrics"]
    assert metrics["tail_rate_n2"] is None and metrics["tail_prefactor_n2"] is None
    assert all(math.isfinite(v) for v in metrics.values() if v is not None)


def test_concentration_draws_nothing_and_ignores_the_seed(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the concentration suite drew grid samples")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "cube_transport" and hasattr(module, "sample_grid"):
            monkeypatch.setattr(module, "sample_grid", refuse)
    payloads = []
    for seed in (0, 1):
        out = tmp_path / f"seed-{seed}"
        assert run_cli(["concentration", "--seed", str(seed), "--no-plot",
                        "--out", str(out)]) == 0
        payloads.append(json.loads((out / "report.json").read_text()))
    rows, metrics = [], []
    for payload in payloads:
        rows.append([r for r in payload["reports"]
                     if r["name"] in ("cor-1.3", "thm-1.1", "negative-control")])
        metrics.append({k: v for k, v in payload["metrics"].items()
                        if k.startswith(("covariance_ratio_", "tail_"))})
    assert len(rows[0]) == 4 and len(metrics[0]) == 7
    assert rows[0] == rows[1] and metrics[0] == metrics[1]


def test_exact_profile_rows_fail_a_planted_strict_alpha():
    """The suite's exact n = 2 Gaussian profile along e1 fails at alpha = 0.1.

    At the paper's alpha >= 3 no measure on the cube can fail these rows:
    from the median the measured mass is >= 1/2 at every t >= 0, and it is
    1 from t = 1 on, because the marginal lives on an interval of length 1.
    The bound 1 - exp(-t^2/alpha^2) stays below 1 - exp(-1/9) < 1/2 for t < 1
    and below 1 always, so only a planted alpha below the paper's makes a
    row fail.
    """
    n = 2
    d = build_density(RestrictedGaussian((0.5,) * n, tuple(map(tuple, np.eye(n)))),
                      unit_cube_grid(n, _grid_m_for_dim(n)))
    u = np.array([1.0, 0.0])
    ts = np.linspace(0.0, DEFAULTS["t_max"], DEFAULTS["t_count"])
    assert not check_concentration(halfspace_profile(d, u, ts, 0.1), "thm-1.1").passed
    assert check_concentration(halfspace_profile(d, u, ts, 3.0), "thm-1.1").passed


def _scaled(fn, factor):
    """fn with its float result, or the first entry of its tuple, times factor."""
    def wrong(*args, **kwargs):
        out = fn(*args, **kwargs)
        return (out[0] * factor,) + tuple(out[1:]) if isinstance(out, tuple) else out * factor
    return wrong


_KNOTHE_TESTS = "tests/test_knothe.py::test_"
_PROFILE_TEST = "tests/test_cli.py::test_exact_profile_rows_fail_a_planted_strict_alpha"

# one planted defect per row family: the command, the wrong input, and every
# row name that then fails. A wrong input is (module, attribute, factor), a
# function's result or a module constant times factor, or a config the command
# runs with. A family without one names the test that plants its defect, or
# says why no input fails it. The tire anchor's bracket meets its entropy, so
# a halved entropy fails lem-4.1 alone. The thm-4.2 rows hold with a 60- to
# 80-fold slack, and no single input of theirs reaches it without also
# lifting the exact cost above the triangular coupling's
DEFECTS = {
    "mass-normalization": "tests/test_cli.py::test_mass_normalization_fails_on_a_planted_scale",
    "midpoint-log-concavity": ("density-check", {"m": 4, "dim": 1, "source": {
        "variant": "custom_grid", "values": [1.0, 0.25, 1.0, 1.0]}},
        {"midpoint-log-concavity-source"}),
    "marginal-ratio-monotone": "holds for every positive density: summing "
                               "2 f(c, y) <= R (f(c - h, y) + f(c + h, y)) over y gives the "
                               "marginal's triples; only rounding can fail it",
    "prop-2.1": ("verify-1d", (cube_transport.transport1d, "displacement_cost", 1e3),
                 {"prop-2.1", "prop-2.1-refinement"}),
    "lem-2.2": ("verify-1d", (cube_transport.transport1d, "mixed_cost", 1e3),
                {"lem-2.2", "eq-2.3"}),
    "eq-2.3": ("verify-1d", (cube_transport.cli, "log_gap", -1.0), {"eq-2.3"}),
    "prop-2.1-refinement": ("verify-1d", (cube_transport.transport1d, "displacement_cost", 1e3),
                            {"prop-2.1", "prop-2.1-refinement"}),
    "lem-2.4": ("verify-1d", (cube_transport.transport1d, "_interval_mass", 10.0), {"lem-2.4"}),
    "lem-2.5": ("verify-1d", (cube_transport.transport1d, "GRADIENT_ENERGY_FACTOR", 1e-3),
                {"lem-2.5"}),
    "thm-3.1": ("verify-knothe", (cube_transport.knothe, "displacement_cost", 1e3), {"thm-3.1"}),
    "facet-preservation": _KNOTHE_TESTS + "facet_row_fails_when_a_facet_point_moves",
    "pushforward-ks": _KNOTHE_TESTS + "pushforward_row_fails_for_the_identity_on_a_non_uniform_target",
    "lem-4.1": ("tire", (cube_transport.functionals, "relative_entropy", 0.5), {"lem-4.1"}),
    "eq-4.2": ("tire", (cube_transport.cli, "legendre_tire_bound", 0.0), {"eq-4.2"}),
    "sandwich-w2-knothe": ("tire", (cube_transport.functionals, "triangular_coupling_cost", 0.5),
                           {"sandwich-w2-knothe"}),
    "thm-4.2": ("tire", (cube_transport.functionals, "exact_w2_small", 1e3),
                {"sandwich-w2-knothe", "thm-4.2"}),
    "sandwich-knothe-entropy": ("tire", (cube_transport.functionals, "displacement_cost", 1e3),
                                {"sandwich-knothe-entropy"}),
    "cor-1.3": _PROFILE_TEST,
    "negative-control": "is a planted defect itself: the cor-1.3 check at the strict alpha 0.1",
    "thm-1.1": _PROFILE_TEST,
    "cor-4.5-poincare": ("concentration", (cube_transport.concentration, "POINCARE_FACTOR", 1e-3),
                         {"cor-4.5-poincare"}),
    "cor-4.5-lsi": ("concentration", (cube_transport.concentration, "LSI_FACTOR", 1e-3),
                    {"cor-4.5-lsi"}),
    "rem-5.1-mass": "the row sums are symmetric about 0 at every n, so no factor on them or on "
                    "a constant moves the fraction at or below 0; only a shifted draw fails it",
    "rem-5.1-t-star-closed": ("counterexample",
                              (cube_transport.concentration, "_row_sums", 1.5),
                              {"rem-5.1-t-star-closed-n256", "rem-5.1-t-star-closed-n1024",
                               "rem-5.1-t-star-closed-n4096", "rem-5.1-t-star"}),
    "rem-5.1-cube": ("counterexample", (cube_transport.cli, "LOG10_REJECTION_LIMIT", 1e3),
                     {"rem-5.1-cube-n256", "rem-5.1-cube-n1024", "rem-5.1-cube-n4096"}),
    "rem-5.1-slope": "tests/test_cli.py::test_slope_row_fails_on_an_n_dependent_scale",
    "rem-5.1-t-star": ("counterexample", (cube_transport.cli, "REFERENCE_T_STAR_1024", 2.0),
                       {"rem-5.1-t-star"}),
}
PLANTED = sorted(family for family, entry in DEFECTS.items() if isinstance(entry, tuple))


def _failures(tmp_path, command, config=None):
    """Exit code and failing row names of ``command --pairs 2 --no-plot``, less
    the flags the command does not take."""
    out = tmp_path / command
    args = [command, *(["--pairs", "2"] if "--pairs" in TAKES[command] else []),
            *(["--no-plot"] if "--no-plot" in TAKES[command] else []), "--out", str(out)]
    code = run_cli(args + (["--config", _write_config(tmp_path, config)] if config else []))
    rows = json.loads((out / "report.json").read_text())["reports"]
    return code, {r["name"] for r in rows if not r["pass"]}


def test_defect_table_covers_every_family():
    assert set(DEFECTS) == set(TOLERANCES)
    root = os.path.dirname(os.path.dirname(__file__))
    for entry in DEFECTS.values():
        if isinstance(entry, str) and entry.startswith("tests/"):
            path, name = entry.split("::")
            with open(os.path.join(root, path)) as fh:
                assert f"def {name}(" in fh.read(), entry


@pytest.mark.parametrize("command", sorted({DEFECTS[family][0] for family in PLANTED}))
def test_rows_pass_without_a_planted_defect(tmp_path, command):
    assert _failures(tmp_path, command) == (0, set())


@pytest.mark.parametrize("family", PLANTED)
def test_row_fails_on_its_planted_defect(tmp_path, monkeypatch, family):
    command, wrong, failing = DEFECTS[family]
    config = wrong if isinstance(wrong, dict) else None
    if config is None:
        module, name, factor = wrong
        value = getattr(module, name)
        monkeypatch.setattr(module, name,
                            _scaled(value, factor) if callable(value) else value * factor)
    assert family in {row_family(name) for name in failing}
    assert _failures(tmp_path, command, config) == (1, failing)


def test_all_emits_every_family_under_its_table_rule(tmp_path):
    families = set()
    for seed in range(4):
        out = tmp_path / f"seed-{seed}"
        assert run_cli(["all", "--seed", str(seed), "--no-plot", "--out", str(out)]) == 0
        for row in json.loads((out / "report.json").read_text())["reports"]:
            families.add(row_family(row["name"]))
            assert (row["rel_tol"], row["abs_tol"]) == TOLERANCES[row_family(row["name"])]
    assert families == set(TOLERANCES)
    # criterion 9 for all: a second run at seed 0 differs in its timestamp alone
    out = tmp_path / "seed-0"
    first = [(out / name).read_text() for name in ("report.json", "report.csv")]
    assert run_cli(["all", "--seed", "0", "--no-plot", "--out", str(out)]) == 0
    second = [(out / name).read_text() for name in ("report.json", "report.csv")]
    assert second[1] == first[1]
    stamp = re.compile(r'^  "timestamp": .*$', re.M)
    assert stamp.sub("", second[0]) == stamp.sub("", first[0])
    assert len(stamp.findall(first[0])) == 1


def test_mass_normalization_fails_on_a_planted_scale(tmp_path, monkeypatch):
    # densities 1% too heavy: the midpoint and marginal-ratio rows compare
    # values with values, so they do not see the scale, and only the mass
    # row fails
    build = cube_transport.cli.build_density
    monkeypatch.setattr(cube_transport.cli, "build_density",
                        lambda spec, grid: GridDensity(grid, build(spec, grid).values * 1.01))
    out = tmp_path / "dc"
    assert run_cli(["density-check", "--m", "16", "--dim", "2", "--out", str(out)]) == 1
    rows = json.loads((out / "report.json").read_text())["reports"]
    assert {r["name"] for r in rows if not r["pass"]} == {"mass-normalization-source"}


def test_slope_row_fails_on_an_n_dependent_scale(tmp_path, monkeypatch):
    # row sums n^0.2 too wide lift the fitted slope 0.2 above its closed
    # form's, and every t*(n) off its closed form; no uniform factor moves a slope
    row_sums = cube_transport.concentration._row_sums
    monkeypatch.setattr(cube_transport.concentration, "_row_sums",
                        lambda n, *args: _scaled(row_sums, n ** 0.2)(n, *args))
    assert _failures(tmp_path, "counterexample") == (1, {
        "rem-5.1-slope", "rem-5.1-t-star", "rem-5.1-t-star-closed-n256",
        "rem-5.1-t-star-closed-n1024", "rem-5.1-t-star-closed-n4096"})


def test_slope_row_holds_where_t_star_grows_slower_than_sqrt_n(tmp_path):
    # the closed form's own slope is 0.38 from n = 64 to 128, far from the
    # asymptotic 1/2; the row compares the fit with it
    out = tmp_path / "run"
    assert run_cli(["counterexample", "--ns", "64,128", "--out", str(out)]) == 0
    slope = [r for r in json.loads((out / "report.json").read_text())["reports"]
             if r["name"] == "rem-5.1-slope"]
    assert len(slope) == 1 and slope[0]["note"].endswith("closed form 0.3832")


def test_huge_dim_rejected_without_forming_the_grid_size():
    start = time.perf_counter()
    with pytest.raises(ConfigError):
        load_config(None, {"m": 3, "dim": 3_000_000})
    assert time.perf_counter() - start < 0.25


@pytest.mark.parametrize("spec", [
    {"variant": "exponential_tilt", "tilt": [1.0, 2.0, 3.0]},
    {"variant": "convex_power", "offset": 1.0, "direction": [1.0], "power": 2.0},
    {"variant": "restricted_gaussian", "center": [0.5, 0.5, 0.5],
     "inverse_covariance": [[1.0, 0.0], [0.0, 1.0]]},
    {"variant": "custom_grid", "values": [[1]]},
], ids=["tilt-length", "direction-length", "center-length", "custom-grid-shape"])
def test_spec_not_matching_the_grid_exits_2(tmp_path, capsys, spec):
    path = _write_config(tmp_path, {"source": spec, "m": 8, "dim": 2})
    assert_rejected(capsys, ["density-check", "--config", path,
                             "--out", str(tmp_path / "run")])


# ---------------------------------------------------------------- config-only paths


# a valid config object of each density spec variant, for the 4x4 grid of
# density-check --m 4 --dim 2; the custom values 2^(i+j) are log-linear
VALID_SPECS = {
    "uniform": {"variant": "uniform"},
    "restricted_gaussian": {"variant": "restricted_gaussian", "center": [0.4, 0.6],
                            "inverse_covariance": [[3, 1], [1, 2]]},
    "exponential_tilt": {"variant": "exponential_tilt", "tilt": [1, -2]},
    "convex_power": {"variant": "convex_power", "offset": 1, "direction": [1, 0.5], "power": 2},
    "equicorrelated_gaussian": {"variant": "equicorrelated_gaussian", "scale": 0.2},
    "custom_grid": {"variant": "custom_grid",
                    "values": [[2 ** (i + j) for j in range(4)] for i in range(4)]},
}
# source specs density-check rejects on the 4x4 grid, with what the message names
BAD_SPECS = {
    **{f"{variant}-unknown-key": ({**spec, "centre": [0.5, 0.5]}, "unknown keys ['centre']")
       for variant, spec in VALID_SPECS.items()},
    "uniform-tilt": ({"variant": "uniform", "tilt": [1, 2]}, "unknown keys ['tilt']"),
    "flat-inverse-covariance": ({"variant": "restricted_gaussian", "center": [0.5, 0.5],
                                 "inverse_covariance": [[4, 0, 0, 1]]},
                                "inverse_covariance has shape (1, 4); the grid needs shape (2, 2)"),
    "flat-values": ({"variant": "custom_grid", "values": [1] * 16},
                    "has shape (16,); the grid needs shape (4, 4)"),
    "2x8-values": ({"variant": "custom_grid", "values": [[1] * 8] * 2},
                   "has shape (2, 8); the grid needs shape (4, 4)"),
    "equicorrelated-no-scale": ({"variant": "equicorrelated_gaussian"}, "needs the key 'scale'"),
    "equicorrelated-zero-scale": ({"variant": "equicorrelated_gaussian", "scale": 0},
                                  "scale must be finite and positive"),
    "equicorrelated-negative-scale": ({"variant": "equicorrelated_gaussian", "scale": -0.2},
                                      "scale must be finite and positive"),
    "equicorrelated-dim": ({"variant": "equicorrelated_gaussian", "dim": 2, "scale": 0.2},
                           "unknown keys ['dim']"),
}
DENSITY_CHECK = ["density-check", "--m", "4", "--dim", "2"]
# argv, config file (or None), CUBE_TRANSPORT_SEED (or None), exit code, and
# the text of the one-line error
CONFIG_RUNS = [
    *[pytest.param(DENSITY_CHECK, {"source": spec}, None, 0, None, id=f"source-{variant}")
      for variant, spec in VALID_SPECS.items()],
    pytest.param(DENSITY_CHECK, {"target": VALID_SPECS["equicorrelated_gaussian"]}, None, 0,
                 None, id="target-equicorrelated_gaussian"),
    pytest.param(["verify-1d", "--m", "8", "--pairs", "1"], None, "5", 0, None,
                 id="CUBE_TRANSPORT_SEED"),
    pytest.param(["concentration", "--dims", "2,3", "--no-plot"], None, None, 0, None,
                 id="dims"),
    pytest.param(["counterexample", "--ns", "64,128", "--samples", "2000"], None, "3", 0, None,
                 id="ns"),
    *[pytest.param(DENSITY_CHECK, {"source": spec}, None, 2, text, id=name)
      for name, (spec, text) in BAD_SPECS.items()],
]


def test_config_runs_cover_every_spec_variant():
    assert list(VALID_SPECS) == list(cube_transport.density.SPEC_VARIANTS)


@pytest.mark.parametrize("args, config, env_seed, code, text", CONFIG_RUNS)
def test_config_only_paths_run(tmp_path, capsys, monkeypatch, args, config, env_seed, code,
                               text):
    # what only a config file or the environment reaches, through main as a user runs it
    if env_seed is not None:
        monkeypatch.setenv("CUBE_TRANSPORT_SEED", env_seed)
    out = tmp_path / "run"
    argv = [*args, *(["--config", _write_config(tmp_path, config)] if config else []),
            "--out", str(out)]
    if code == 2:
        assert text in assert_rejected(capsys, argv)
        assert not out.exists()
        return
    assert run_cli(argv) == 0
    echoed = json.loads((out / "report.json").read_text())["config"]
    assert {key: echoed[key] for key in config or {}} == (config or {})
    if env_seed is not None:
        assert echoed["seed"] == int(env_seed)


@pytest.mark.parametrize("args, text", [
    (["--ns", "8,16"], "ns must be a list of at least two integers >= 64"),
    (["--samples", "999"], "n_samples must be an integer >= 1000"),
], ids=["ns", "samples"])
def test_scaling_inputs_exit_2_before_any_grid(tmp_path, capsys, monkeypatch, args, text):
    # the scaling experiment's own minima: all used to run five suites first
    _no_grid(monkeypatch)
    out = tmp_path / "run"
    assert text in assert_rejected(capsys, ["all", *args, "--out", str(out)])
    assert not out.exists()


JSON_LEAVES = (st.none() | st.booleans() | st.integers() | st.floats()
               | st.text(max_size=6)
               | st.sampled_from(["uniform", "restricted_gaussian", "exponential_tilt",
                                  "convex_power", "equicorrelated_gaussian", "custom_grid"]))
SPEC_KEYS = st.sampled_from(["variant", "center", "inverse_covariance", "tilt", "offset",
                             "direction", "power", "dim", "scale", "values"])
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(SPEC_KEYS | st.text(max_size=4), inner, max_size=4)),
    max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.sampled_from(sorted(DEFAULTS)), JSON_VALUES))
def test_load_config_accepts_or_rejects_any_json(raw):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(raw, fh)
        try:
            cfg = load_config(path, {})
        except ConfigError:
            return
    assert set(cfg) == set(DEFAULTS)


@pytest.mark.parametrize("seed", [0, 7, (1 << 64) - 1])
@pytest.mark.parametrize("label", ["v1d", "vkn", "tir", "con"])
def test_suite_streams_are_raw_philox_streams(seed, label):
    tag = sum(ord(c) << (8 * i) for i, c in enumerate(label))
    raw = np.random.Generator(np.random.Philox(key=np.array([seed, tag], dtype=np.uint64)))
    ours = _rng({"seed": seed}, label)
    np.testing.assert_array_equal(ours.random(8), raw.random(8))
    np.testing.assert_array_equal(ours.integers(0, 1 << 30, 8), raw.integers(0, 1 << 30, 8))


@pytest.mark.parametrize("dim, m", [(1, 64), (2, 16), (3, 16)])
def test_random_pair_draws_spec_then_target(dim, m):
    # the suites' pairs are these draws in this order, so their rows and the
    # rest of each suite's stream stay the same
    grid = unit_cube_grid(dim, m)
    ours, hand = np.random.default_rng(5), np.random.default_rng(5)
    f, g = _random_pair(ours, grid)
    spec = (random_logconcave_spec_1d(hand) if dim == 1
            else random_logconcave_spec_nd(hand, dim, np.zeros(dim), 1.0))
    np.testing.assert_array_equal(f.values, build_density(spec, grid).values)
    np.testing.assert_array_equal(g.values, random_smooth_density(hand, grid, 0.5).values)
    np.testing.assert_array_equal(ours.random(4), hand.random(4))


@pytest.mark.parametrize("dim, m", [(1, 512), (2, 64)])
def test_anchor_pair_is_uniform_onto_the_linear_product(dim, m):
    grid = unit_cube_grid(dim, m)
    f, g = _anchor_pair(dim, m)
    assert f.grid == g.grid == grid
    np.testing.assert_array_equal(f.values, build_density(Uniform(), grid).values)
    np.testing.assert_array_equal(g.values, loop_oracles.linear_product_target(grid).values)
