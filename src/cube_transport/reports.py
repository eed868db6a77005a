"""Verification reports and the shared pass/fail tolerance contract.

Every inequality check in this package produces a :class:`VerificationReport`.
The pass rule is uniform across the whole package:

    pass  <=>  lhs <= rhs * (1 + rel_tol) + abs_tol

with ``rel_tol = 0.05`` and ``abs_tol = 1e-6`` unless a check explicitly
overrides them. Both tolerances are recorded in the report so a serialized
report is self-describing.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_REL_TOL = 0.05
DEFAULT_ABS_TOL = 1e-6

CSV_HEADER = ("name", "lhs", "rhs", "constant", "slack", "pass", "m", "note")


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one checked inequality lhs <= rhs.

    ``slack`` is ``rhs - lhs`` (positive when the inequality holds strictly),
    ``constant_used`` is the explicit constant appearing in ``rhs``, and
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
    rel_tol: float = DEFAULT_REL_TOL
    abs_tol: float = DEFAULT_ABS_TOL
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


def passes(lhs: float, rhs: float, rel_tol: float = DEFAULT_REL_TOL,
           abs_tol: float = DEFAULT_ABS_TOL) -> bool:
    return float(lhs) <= float(rhs) * (1.0 + rel_tol) + abs_tol


def make_report(name: str, lhs: float, rhs: float, constant_used: float,
                grid_m: int = 0, rel_tol: float = DEFAULT_REL_TOL,
                abs_tol: float = DEFAULT_ABS_TOL, note: str = "") -> VerificationReport:
    lhs = float(lhs)
    rhs = float(rhs)
    return VerificationReport(
        name=name,
        lhs=lhs,
        rhs=rhs,
        constant_used=float(constant_used),
        slack=rhs - lhs,
        passed=passes(lhs, rhs, rel_tol, abs_tol),
        grid_m=int(grid_m),
        rel_tol=rel_tol,
        abs_tol=abs_tol,
        note=note,
    )


def refinement_report(name: str, coarse: VerificationReport,
                      fine: VerificationReport) -> VerificationReport:
    """Row for the slack drift of one check under grid refinement: lhs is the
    slack lost from coarse to fine, rhs the allowed drift
    ``rel_tol * max(|rhs_coarse|, |rhs_fine|) + abs_tol`` (coarse tolerances).
    It passes when the fine check passes and the loss stays within the drift.
    """
    drift = coarse.rel_tol * max(abs(coarse.rhs), abs(fine.rhs)) + coarse.abs_tol
    loss = coarse.slack - fine.slack
    return VerificationReport(
        name=name, lhs=loss, rhs=drift, constant_used=1.0, slack=drift - loss,
        passed=fine.passed and (fine.slack >= coarse.slack - drift),
        grid_m=fine.grid_m, rel_tol=0.0, abs_tol=0.0,
        note="slack drift under grid refinement")


def refinement_consistent(coarse: VerificationReport, fine: VerificationReport) -> bool:
    """Whether refining the grid kept the check passing without the slack
    degrading by more than the tolerance budget (see refinement_report)."""
    return refinement_report("refinement", coarse, fine).passed
