"""Command line driver: config handling, artifacts, exit codes."""

import csv
import json
import os
import subprocess
import sys
import tempfile
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cube_transport
from cube_transport.cli import ConfigError, DEFAULTS, _rng, build_parser, load_config, main
from cube_transport.reports import CSV_HEADER


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
    code = run_cli(["verify-knothe", "--m", "4096", "--dim", "3", "--out", str(out)])
    assert code == 2


def test_concentration_emits_svg(tmp_path):
    out = tmp_path / "run"
    code = run_cli(["concentration", "--samples", "5000", "--dims", "2",
                    "--out", str(out)])
    assert code == 0
    svgs = list(out.glob("profile-*.svg"))
    assert svgs
    head = svgs[0].read_text()[:200]
    assert "<svg" in head


def test_no_plot_suppresses_svg(tmp_path):
    out = tmp_path / "run"
    code = run_cli(["concentration", "--samples", "5000", "--dims", "2",
                    "--no-plot", "--out", str(out)])
    assert code == 0
    assert not list(out.glob("*.svg"))


def test_counterexample_run(tmp_path):
    # n must spread enough for the width-scaling fit to stabilize
    out = tmp_path / "run"
    code = run_cli(["counterexample", "--ns", "256,1024", "--samples", "20000",
                    "--out", str(out)])
    assert code == 0
    payload = json.loads((out / "report.json").read_text())
    assert [row["n"] for row in payload["scaling"]] == [256, 1024]
    assert all(row["acceptance"] > 0.99 for row in payload["scaling"])


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
], ids=["seed-2^64", "seed-bool", "t_max-string", "t_max-nan", "t_max-inf",
        "threads", "dim-3e6", "dims-40", "spec-missing-key", "spec-ill-typed"])
def test_bad_config_exits_2(tmp_path, capsys, cfg):
    path = _write_config(tmp_path, cfg)
    with pytest.raises(ConfigError):
        load_config(path, {})
    assert_rejected(capsys, ["density-check", "--config", path,
                             "--out", str(tmp_path / "run")])


def test_seed_flag_beyond_64_bits_exits_2(tmp_path, capsys):
    assert_rejected(capsys, ["verify-1d", "--seed", str(1 << 64),
                             "--out", str(tmp_path / "run")])


def test_largest_seed_accepted():
    assert load_config(None, {"seed": (1 << 64) - 1})["seed"] == (1 << 64) - 1


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
