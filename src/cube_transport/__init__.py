"""Transport maps, entropy functionals, and concentration checks for
piecewise-constant densities on axis-parallel cubes."""

__version__ = "0.1.0"

from .concentration import (ConcentrationProfile, LipschitzTailFit,
                            ScalingResult, ScalingRow, alpha_theorem1,
                            check_concentration, closed_form_t_star,
                            counterexample_scaling, covariance_ratio,
                            halfspace_profile, lipschitz_tail,
                            poincare_lsi_check, r_from_m)
from .density import (ConvexPower, CustomGrid, DegenerateDensityError,
                      DensityError, DensitySpec, EquicorrelatedGaussian,
                      ExponentialTilt, Grid, GridDensity, PositivityError,
                      RestrictedGaussian, Uniform, build_density, check_shapes,
                      check_midpoint_log_concavity,
                      estimate_axis_convexity_ratio,
                      estimate_diag_second_derivative_bound, marginalize_last,
                      normalize, spec_from_dict, unit_cube_grid)
from .functionals import (CouplingPlan, check_tire_le_entropy,
                          check_transport_entropy_sandwich, exact_w2_small,
                          legendre_tire_bound, relative_entropy,
                          triangular_coupling, triangular_coupling_cost)
from .knothe import (KnotheMap, check_facet_preservation, check_theorem31,
                     displacement_cost, knothe_map, pushforward_error,
                     tire_bracket)
from .reports import (VerificationReport, make_report, refinement_consistent,
                      refinement_report)
from .sampler import (SampleBatch, empirical_marginal_distance,
                      equicorrelated_row_sums, sample_grid)
from .transport1d import (MonotoneMap1D, check_cheeger_lambda,
                          check_lemma_lambda, check_prop_quadratic,
                          check_segment_bound, deficit_1d, log_gap,
                          mixed_cost, monotone_map, quadratic_cost_1d)

__all__ = [name for name in dir() if not name.startswith("_")]
