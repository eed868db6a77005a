"""Monotone transport between 1d grid densities and its inequality checks.

The monotone map T between piecewise-constant densities f and g on the same
interval is defined by CDF matching, F = G o T (after normalizing masses).
Both CDFs are piecewise linear with nodes at their own cell boundaries, so T
is piecewise linear with nodes at the merged breakpoints of F and G, strictly
increasing, and fixes both endpoints exactly; f = g gives the identity
bitwise. On each piece T' is a constant density ratio, so the 1d functionals
below are exact sums over the pieces. The same merge of CDF rows
(``_merge``) gives the monotone coupling of cell masses: piece p moves its
mass du from the source cell i to the target cell j that hold it.

Checks in this module:

* ``check_prop_quadratic``: quadratic transport cost <= (40/9) R^2 deficit
* ``check_lemma_lambda``:   mixed-cost integral of T' - 1 <= (10/3) deficit
* ``check_segment_bound``:  mass of a subinterval <= (len/2)(rho(a) + rho(b))
* ``check_cheeger_lambda``: mixed-cost energy <= (4/3) len^2 gradient energy

where ``deficit`` is the transport functional whose nonnegativity these
bounds quantify, and the mixed cost is min(|t|, t^2).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .density import DensityError, GridDensity, PositivityError, row_cdfs
from .reports import VerificationReport, make_report

# explicit constants used on right-hand sides
QUADRATIC_COST_FACTOR = 40.0 / 9.0
MIXED_COST_FACTOR = 10.0 / 3.0
LOG_GAP_SLOPE = 0.3
SEGMENT_FACTOR = 0.5
GRADIENT_ENERGY_FACTOR = 4.0 / 3.0


def mixed_cost(t):
    """min(|t|, t^2): quadratic near zero, linear in the tails."""
    t = np.asarray(t, dtype=float)
    return np.minimum(np.abs(t), t * t)


def log_gap(x):
    """(x - 1) - log x - 0.3 * mixed_cost(x - 1); nonnegative for x > 0."""
    x = np.asarray(x, dtype=float)
    return (x - 1.0) - np.log(x) - LOG_GAP_SLOPE * mixed_cost(x - 1.0)


class MonotoneMap1D(NamedTuple):
    """The increasing map T with F = G o T, linear between the merged
    breakpoints of F and G: their source positions ``x`` and images
    ``t = T(x)``, then per piece between them the normalized mass ``du`` and
    the slope T' (the normalized ratio f/g). Both endpoints are fixed exactly."""

    x: np.ndarray
    t: np.ndarray
    du: np.ndarray
    slope: np.ndarray

    def __call__(self, x):
        return np.interp(x, self.x, self.t)


def _check_same_interval(f: GridDensity, g: GridDensity) -> None:
    if f.grid.dim != 1 or f.grid != g.grid:
        raise DensityError("source and target must share the same 1d grid")


def _positive_cdfs(values: np.ndarray) -> np.ndarray:
    """Normalized CDF rows of positive cell values, strictly increasing: a
    cell too light to move its row's CDF would give the map a jump there."""
    if np.any(values <= 0):
        raise PositivityError("density has zero cells where positivity is required")
    C = row_cdfs(values)
    if np.any(np.diff(C, axis=-1) <= 0):
        raise DensityError("CDF is not strictly increasing: a cell is too light to move "
                           "it; density too degenerate")
    return C


def _merge(F: np.ndarray, G: np.ndarray) -> tuple:
    """The monotone coupling of each row of the CDF table ``F`` with the
    same row of ``G`` (nondecreasing from 0 to 1), flat over the rows: per
    piece of positive mass, in order, its ``row``, the cells ``i`` of F and
    ``j`` of G holding it (the last whose CDF entry is <= its lower level
    ``u``) and its mass ``du``, up to the next level of either row. So no
    piece lies on a cell of zero mass. Returns (row, i, j, du, u)."""
    n, m = F.shape[0], F.shape[1] - 1
    width = 2 * m + 2
    both = np.concatenate((F, G), axis=1)
    order = np.argsort(both, axis=1, kind="stable")  # F's entries first on ties
    levels = np.take(both, order + np.arange(0, n * width, width)[:, None])
    gap = levels[:, 1:] - levels[:, :-1]
    # A positive gap follows the last copy of a level u, so every entry up
    # to u is at or before it. F entry o is then cell i = o of F, and G entry
    # q = o - m - 1 at column col has col - q entries of F up to it: cell
    # i = col + m - o, which is < o; for F entries it is >= m >= o. Then
    # j = col - 1 - i. Below u = 1 no cell needs a clamp.
    positive = gap > 0
    at = np.flatnonzero(positive)
    row = np.repeat(np.arange(n), np.count_nonzero(positive, axis=1))
    flat = at + row  # the entry's position in the (n, width) tables
    o = np.take(order, flat)
    c = flat - row * width + m  # col + m
    i = np.minimum(o, c - o)
    return row, i, c - m - 1 - i, np.take(gap, at), np.take(levels, flat)


def _pieces(F: np.ndarray, G: np.ndarray, nodes: np.ndarray, h: float) -> tuple:
    """The monotone maps from each row of the CDF table ``F`` onto the same
    row of ``G`` (strictly increasing, at the 1d ``nodes`` of spacing
    ``h``) on the pieces of ``_merge``: its row, i, j and du, the slope T'
    of each piece (the ratio of its cell masses), the position ``x`` and
    image ``t = T(x)`` of its lower end, and the index of each row's last
    piece, whose upper end is the row's end x = t = nodes[-1] (exact)."""
    row, i, j, du, u = _merge(F, G)
    fi, gj = row * F.shape[1] + i, row * G.shape[1] + j
    Fi, Gj = np.take(F, fi), np.take(G, gj)
    p, q = np.take(F, fi + 1) - Fi, np.take(G, gj + 1) - Gj
    x = np.take(nodes, i) + (u - Fi) / p * h
    t = np.take(nodes, j) + (u - Gj) / q * h
    last = np.searchsorted(row, np.arange(len(F)), side="right") - 1  # of each row
    upper = np.append(t[1:], nodes[-1])
    upper[last] = nodes[-1]
    if not np.all(upper > t):  # then T at the source nodes and the row ends must rise
        ends = last + 1
        on_node = np.insert(Fi == u, ends, True)
        t_node = np.insert(t, ends, nodes[-1])[on_node]
        row_node = np.insert(row, ends, np.arange(len(F)))[on_node]
        if np.any((np.diff(t_node) <= 0) & (row_node[1:] == row_node[:-1])):
            raise DensityError("computed map is not strictly increasing; density too degenerate")
    return row, i, j, du, p / q, x, t, last


def _square_terms(d0: np.ndarray, d1: np.ndarray, du: np.ndarray) -> np.ndarray:
    """Three times each linear piece's share of the quadratic cost."""
    return du * (d0 * d0 + d0 * d1 + d1 * d1)


def _deficit_terms(du: np.ndarray, slope: np.ndarray) -> np.ndarray:
    """Each piece's share of the deficit, integral of T' - 1 - log T'."""
    return du * (slope - 1.0 - np.log(slope))


def monotone_map(f: GridDensity, g: GridDensity) -> MonotoneMap1D:
    """CDF-matching map from f to g on a shared interval, cut at the union of
    both CDFs' breakpoints.

    Masses are normalized internally, so unnormalized inputs are accepted.
    """
    _check_same_interval(f, g)
    C = _positive_cdfs(np.stack((f.values, g.values)))
    nodes = f.grid.axis_nodes(0)
    *_, du, slope, x, t, _ = _pieces(C[:1], C[1:], nodes, f.grid.h)
    return MonotoneMap1D(np.append(x, nodes[-1]), np.append(t, nodes[-1]), du, slope)


def deficit_1d(f: GridDensity, g: GridDensity, tmap: MonotoneMap1D) -> float:
    """Transport deficit of the monotone map, integral of f (T' - 1 - log T').

    Exact for piecewise-constant densities: T' is constant on each piece of
    the map, so the integrand is, and it is nonnegative piece by piece.
    Summed by np.add.reduceat, as ``knothe_map`` sums a fiber pair.
    """
    _check_same_interval(f, g)
    return f.total_mass * float(np.add.reduceat(_deficit_terms(tmap.du, tmap.slope), [0])[0])


def quadratic_cost_1d(f: GridDensity, tmap: MonotoneMap1D) -> float:
    """integral of (T x - x)^2 f(x) dx, exact: the displacement is linear on
    each piece, with mean square (d0^2 + d0 d1 + d1^2) / 3 from its ends."""
    d = tmap.t - tmap.x
    terms = _square_terms(d[:-1], d[1:], tmap.du)  # summed as knothe_map sums a fiber pair
    return f.total_mass * float(np.add.reduceat(terms, [0])[0]) / 3.0


def check_prop_quadratic(f: GridDensity, g: GridDensity, ratio_bound: float,
                         tmap: MonotoneMap1D = None) -> VerificationReport:
    """Quadratic cost <= (40/9) R^2 * deficit, on [0, 1]."""
    _check_same_interval(f, g)
    if tmap is None:
        tmap = monotone_map(f, g)
    return make_report("prop-2.1", quadratic_cost_1d(f, tmap), deficit_1d(f, g, tmap),
                       QUADRATIC_COST_FACTOR * ratio_bound ** 2, grid_m=f.grid.cells_per_axis)


def check_lemma_lambda(f: GridDensity, g: GridDensity,
                       tmap: MonotoneMap1D = None) -> VerificationReport:
    """integral of mixed_cost(T' - 1) f <= (10/3) * deficit."""
    _check_same_interval(f, g)
    if tmap is None:
        tmap = monotone_map(f, g)
    du, r = tmap.du, tmap.slope
    lhs = f.total_mass * float((du * mixed_cost(r - 1.0)).sum())
    return make_report("lem-2.2", lhs, deficit_1d(f, g, tmap), MIXED_COST_FACTOR,
                       grid_m=f.grid.cells_per_axis)


def _interval_mass(d: GridDensity, a: float, b: float) -> float:
    """Exact integral of the piecewise-constant density over [a, b]."""
    nodes = d.grid.axis_nodes(0)
    overlap = np.minimum(b, nodes[1:]) - np.maximum(a, nodes[:-1])
    return float((np.clip(overlap, 0.0, None) * d.values).sum())


def check_segment_bound(rho: GridDensity, ratio_bound: float, a: float,
                        b: float) -> VerificationReport:
    """integral_a^b rho <= (R/2) (rho(a) + rho(b)) for a density with axis
    convexity ratio R on [0, 1]."""
    if rho.grid.dim != 1:
        raise DensityError("expected a 1d density")
    if not (-1e-12 <= a < b <= 1.0 + 1e-12):
        raise DensityError("need 0 <= a < b <= 1")
    rho.require_positive()
    ends = rho.values[rho.grid.cell_index(np.array([a, b]))]
    return make_report("lem-2.4", _interval_mass(rho, a, b), float(ends.sum()),
                       SEGMENT_FACTOR * ratio_bound, grid_m=rho.grid.cells_per_axis)


def check_cheeger_lambda(rho: GridDensity, ratio_bound: float,
                         test_values: np.ndarray) -> VerificationReport:
    """integral mixed_cost(u) rho <= (4/3) R^2 integral mixed_cost(u') rho
    for node-sampled test functions u vanishing at both endpoints of [0, 1]."""
    if rho.grid.dim != 1:
        raise DensityError("expected a 1d density")
    rho.require_positive()
    m = rho.grid.cells_per_axis
    h = rho.grid.h
    u = np.asarray(test_values, dtype=float)
    if u.shape != (m + 1,):
        raise DensityError(f"test_values must be sampled at the {m + 1} grid nodes")
    if abs(u[0]) > 1e-12 or abs(u[-1]) > 1e-12:
        raise DensityError("test function must vanish at both endpoints")
    u_mid = 0.5 * (u[:-1] + u[1:])
    u_slope = np.diff(u) / h
    lhs = float((mixed_cost(u_mid) * rho.values).sum() * h)
    energy = float((mixed_cost(u_slope) * rho.values).sum() * h)
    return make_report("lem-2.5", lhs, energy, GRADIENT_ENERGY_FACTOR * ratio_bound ** 2,
                       grid_m=m)
