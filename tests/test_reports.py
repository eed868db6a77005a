"""Verification reports: one table entry per row family gives the pass rule,
and make_report alone multiplies a row's constant by its base."""

import pytest

from cube_transport.reports import (
    CSV_HEADER,
    TOLERANCES,
    make_report,
    refinement_consistent,
    refinement_report,
    row_family,
)

BLANKET = {"prop-2.1", "lem-2.2", "lem-2.4", "lem-2.5", "thm-3.1", "facet-preservation",
           "pushforward-ks", "lem-4.1", "eq-4.2", "sandwich-w2-knothe", "thm-4.2",
           "sandwich-knothe-entropy", "cor-1.3", "negative-control", "thm-1.1",
           "cor-4.5-poincare", "cor-4.5-lsi"}


def test_default_tolerances():
    # 17 families share the 5% rule with the 1e-6 floor; the other 10 are pinned
    assert {f for f, rule in TOLERANCES.items() if rule == (0.05, 1e-6)} == BLANKET
    assert {f: rule for f, rule in TOLERANCES.items() if f not in BLANKET} == {
        "mass-normalization": (0.05, 1e-12), "midpoint-log-concavity": (0.05, 1e-9),
        "marginal-ratio-monotone": (0.0, 1e-9), "eq-2.3": (0.05, 1e-12),
        "prop-2.1-refinement": (0.0, 0.0),
        "rem-5.1-mass": (0.0, 0.0), "rem-5.1-t-star-closed": (0.0, 0.0),
        "rem-5.1-cube": (0.0, 0.0), "rem-5.1-slope": (0.0, 0.0), "rem-5.1-t-star": (0.0, 0.0)}


@pytest.mark.parametrize("name, family", [
    ("mass-normalization-source", "mass-normalization"),
    ("marginal-ratio-monotone-target", "marginal-ratio-monotone"),
    ("rem-5.1-t-star-closed-n256", "rem-5.1-t-star-closed"),
    ("rem-5.1-t-star", "rem-5.1-t-star"),
    ("cor-4.5-lsi", "cor-4.5-lsi"),
    ("prop-2.1-refinement", "prop-2.1-refinement"),
])
def test_row_family_drops_one_suffix(name, family):
    assert row_family(name) == family


@pytest.mark.parametrize("name", ["x", "negative-control-raw", "lem-4.1-n"])
def test_a_row_of_no_family_cannot_be_made(name):
    with pytest.raises(KeyError):
        make_report(name, lhs=0.0, base=1.0, constant=1.0)


def test_rhs_is_the_constant_times_the_base():
    rep = make_report("thm-3.1", lhs=0.3, base=0.25, constant=4.0)
    assert (rep.rhs, rep.constant_used, rep.slack) == (1.0, 4.0, 0.7)
    rep = make_report("cor-4.5-lsi", lhs=0.0, base=0.1, constant=3.0)
    assert rep.rhs == 3.0 * 0.1 and rep.constant_used == 3.0
    # the constant is recorded even where the base makes the right side 0
    rep = make_report("negative-control", lhs=0.0, base=0.0, constant=0.1)
    assert (rep.rhs, rep.constant_used) == (0.0, 0.1)


def test_a_right_side_cannot_be_passed_whole():
    with pytest.raises(TypeError):
        make_report("lem-4.1", lhs=0.0, rhs=1.0, constant=1.0)


def test_pass_rule_is_relative_plus_absolute():
    # pass iff lhs <= rhs (1 + rel) + abs
    rep = make_report("lem-4.1", lhs=1.049, base=1.0, constant=1.0)
    assert rep.passed
    rep = make_report("lem-4.1", lhs=1.051, base=1.0, constant=1.0)
    assert not rep.passed
    # a rel_tol of 0 takes no relative margin
    rep = make_report("rem-5.1-slope", lhs=0.1 + 1e-15, base=0.1, constant=1.0)
    assert not rep.passed


def test_abs_tol_guards_tiny_rhs():
    rep = make_report("lem-4.1", lhs=5e-7, base=0.0, constant=1.0)
    assert rep.passed
    rep = make_report("lem-4.1", lhs=5e-6, base=0.0, constant=1.0)
    assert not rep.passed
    # each family reads its own floor
    assert not make_report("mass-normalization-source", 5e-7, 0.0, 1.0).passed
    assert make_report("midpoint-log-concavity-source", 5e-10, 0.0, 1.0).passed


def test_slack_sign_matches_pass():
    rep = make_report("thm-3.1", lhs=0.3, base=0.5, constant=2.0)
    assert rep.slack == pytest.approx(0.7)
    assert rep.passed
    rep = make_report("thm-3.1", lhs=2.0, base=0.5, constant=2.0)
    assert rep.slack == pytest.approx(-1.0)


def test_to_dict_wire_keys():
    rep = make_report("thm-1.1", lhs=1.0, base=0.5, constant=4.0, grid_m=16, note="n")
    d = rep.to_dict()
    assert d["pass"] is True
    assert d["name"] == "thm-1.1"
    assert d["m"] == 16
    assert (d["rel_tol"], d["abs_tol"]) == TOLERANCES["thm-1.1"]


def test_csv_row_matches_header():
    rep = make_report("eq-4.2", lhs=1.0, base=0.5, constant=4.0)
    row = rep.to_csv_row()
    assert len(row) == len(CSV_HEADER)


def test_refinement_allows_tolerance_drift():
    coarse = make_report("prop-2.1", lhs=0.50, base=1.0, constant=1.0, grid_m=16)
    fine_ok = make_report("prop-2.1", lhs=0.52, base=1.0, constant=1.0, grid_m=32)
    fine_bad = make_report("prop-2.1", lhs=0.60, base=1.0, constant=1.0, grid_m=32)
    assert refinement_consistent(coarse, fine_ok)
    assert not refinement_consistent(coarse, fine_bad)


def test_refinement_requires_fine_pass():
    coarse = make_report("prop-2.1", lhs=0.9, base=1.0, constant=1.0, grid_m=16)
    fine = make_report("prop-2.1", lhs=1.2, base=1.0, constant=1.0, grid_m=32)
    assert not refinement_consistent(coarse, fine)


@pytest.mark.parametrize("fine_lhs", [0.52, 0.60, 1.2])
def test_refinement_row_records_its_table_rule(fine_lhs):
    coarse = make_report("prop-2.1", lhs=0.50, base=1.0, constant=1.0, grid_m=16)
    fine = make_report("prop-2.1", lhs=fine_lhs, base=1.0, constant=1.0, grid_m=32)
    row = refinement_report("prop-2.1-refinement", coarse, fine)
    assert (row.rel_tol, row.abs_tol) == TOLERANCES["prop-2.1-refinement"]
    assert row.lhs == coarse.slack - fine.slack and row.rhs == 0.05 * 1.0 + 1e-6
    assert row.passed == refinement_consistent(coarse, fine) and row.grid_m == 32
