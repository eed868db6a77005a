"""Verification reports, the one table of pass rules, and their right sides.

Every inequality check in this package produces a :class:`VerificationReport`.
Its right side is ``rhs = constant * base``: the paper's explicit constant
times a base the data gives, multiplied in ``make_report`` and nowhere else.
A row passes when

    lhs <= rhs * (1 + rel_tol) + abs_tol

with the ``(rel_tol, abs_tol)`` that ``TOLERANCES`` gives the row's family:
its name less a ``-source``, ``-target`` or ``-n<N>`` suffix. ``make_report``
raises KeyError for a row of no family in the table. Both tolerances are
recorded in the report so a serialized report is self-describing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace

CSV_HEADER = ("name", "lhs", "rhs", "constant", "slack", "pass", "m", "note")

# (rel_tol, abs_tol) of each row family, by suite. _STRICT rows carry their whole
# allowance in rhs: a statistical margin, a limit, or prop-2.1's allowed drift
_BLANKET, _STRICT = (0.05, 1e-6), (0.0, 0.0)
TOLERANCES = {
    # density-check: rhs is 0, or a ratio of the same data
    "mass-normalization": (0.05, 1e-12), "midpoint-log-concavity": (0.05, 1e-9),
    "marginal-ratio-monotone": (0.0, 1e-9),
    # verify-1d and verify-knothe
    **dict.fromkeys(["prop-2.1", "lem-2.2", "lem-2.4", "lem-2.5"], _BLANKET),
    "eq-2.3": (0.05, 1e-12), "prop-2.1-refinement": _STRICT,
    **dict.fromkeys(["thm-3.1", "facet-preservation", "pushforward-ks"], _BLANKET),
    "cost-decomposition": (0.05, 1e-9),
    # tire, concentration and counterexample
    **dict.fromkeys(["lem-4.1", "eq-4.2", "sandwich-w2-knothe", "thm-4.2",
                     "sandwich-knothe-entropy", "cor-1.3", "negative-control", "thm-1.1",
                     "thm-1.2", "cor-4.5-poincare", "cor-4.5-lsi"], _BLANKET),
    **dict.fromkeys(["rem-5.1-mass", "rem-5.1-t-star-closed", "rem-5.1-cube",
                     "rem-5.1-slope", "rem-5.1-t-star"], _STRICT),
}

_SUFFIX = re.compile(r"-(source|target|n\d+)$")


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one checked inequality lhs <= rhs.

    ``slack`` is ``rhs - lhs`` (positive when the inequality holds strictly),
    ``constant_used`` is the explicit constant appearing in ``rhs``, which
    ``make_report`` alone multiplies by the row's base, and
    ``grid_m`` the per-axis resolution of the grid the check ran on (0 when
    no grid is involved). ``note`` flags degenerate inputs that were skipped
    rather than checked.
    """

    name: str
    lhs: float
    rhs: float
    constant_used: float
    slack: float
    passed: bool
    grid_m: int
    rel_tol: float
    abs_tol: float
    note: str = ""

    def to_dict(self) -> dict:
        # key is "pass" on the wire; `passed` only avoids the keyword clash
        return {"name": self.name, "lhs": self.lhs, "rhs": self.rhs,
                "constant": self.constant_used, "slack": self.slack, "pass": self.passed,
                "m": self.grid_m, "rel_tol": self.rel_tol, "abs_tol": self.abs_tol,
                "note": self.note}

    def to_csv_row(self) -> list[str]:
        return [self.name, *map(repr, (self.lhs, self.rhs, self.constant_used, self.slack)),
                "true" if self.passed else "false", str(self.grid_m), self.note]


def row_family(name: str) -> str:
    """Row ``name`` less a -source, -target or -n<N> suffix: its TOLERANCES key."""
    return _SUFFIX.sub("", name)


def make_report(name: str, lhs: float, base: float, constant: float,
                grid_m: int = 0, note: str = "") -> VerificationReport:
    """Row ``lhs <= constant * base`` under its family's TOLERANCES rule."""
    rel_tol, abs_tol = TOLERANCES[row_family(name)]
    lhs, rhs = float(lhs), float(constant) * float(base)
    return VerificationReport(name, lhs, rhs, float(constant), rhs - lhs,
                              lhs <= rhs * (1.0 + rel_tol) + abs_tol, int(grid_m),
                              rel_tol, abs_tol, note)


def _drift(coarse: VerificationReport, fine: VerificationReport) -> float:
    return coarse.rel_tol * max(abs(coarse.rhs), abs(fine.rhs)) + coarse.abs_tol


def refinement_report(name: str, coarse: VerificationReport,
                      fine: VerificationReport) -> VerificationReport:
    """Row for the slack drift of one check under grid refinement: lhs is the
    slack lost from coarse to fine, rhs the allowed drift
    ``rel_tol * max(|rhs_coarse|, |rhs_fine|) + abs_tol`` (coarse tolerances).
    It passes when the pair is ``refinement_consistent``.
    """
    row = make_report(name, coarse.slack - fine.slack, _drift(coarse, fine), 1.0,
                      grid_m=fine.grid_m, note="slack drift under grid refinement")
    return replace(row, passed=refinement_consistent(coarse, fine))


def refinement_consistent(coarse: VerificationReport, fine: VerificationReport) -> bool:
    """Whether refining the grid kept the check passing without the slack
    degrading by more than the drift its coarse tolerances allow."""
    return fine.passed and fine.slack >= coarse.slack - _drift(coarse, fine)
