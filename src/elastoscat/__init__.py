"""Desk-scale toolkit for time-harmonic elastic wave scattering.

Forward solvers for compactly supported sources and density-perturbed media,
exponential probe machinery for high-curvature boundary analysis, and
evaluators for the quantitative radiating / non-radiating criteria, with a
CLI that packages the standard experiments.
"""

__version__ = "0.1.0"

from . import errors
from .elastic import (
    FieldJet,
    GridSpec,
    LameMedium,
    SampledVectorField,
    field_norms,
    holder_seminorm,
    lame_operator_fd,
    make_medium,
    traction,
)
from .geometry import (
    boundary_mesh,
    diameter,
    disk,
    ellipse,
    gauss_mesh,
    inside,
    make_cap_domain,
    signed_distance,
    volume_mesh,
)
from .greens import (
    farfield_kernels,
    helmholtz_fundamental,
    kupradze_tensor,
    lower_incomplete_gamma,
    singular_cell_integral,
)
from .bumps import Bump, polynomial_bump
from .source import (
    FarFieldPattern,
    SourceProblem,
    directions_circle,
    farfield_norm,
    farfield_of_disk,
    farfield_of_source,
    make_nonradiating,
    solve_source,
)
from .scattering import (
    ContractionReport,
    IncidentWave,
    LatticeOperator,
    MediumScatterer,
    MediumSolve,
    contraction_report,
    lattice_pde_residual,
    make_incident,
    solve_medium,
    solve_medium_sweep,
)
from .cgo import (
    CgoProbe,
    IdentityBreakdown,
    boundary_term_bound,
    cgo_residual,
    integral_identity_check,
    make_cgo,
    paraboloid_integral_closed,
    paraboloid_integral_mc,
    probe_grid,
    select_tau,
    shell_integral,
    tail_and_holder_bounds,
    zeta_default,
)
from .bounds import (
    CalibrationResult,
    CriterionReport,
    calibrate_constant,
    calibrate_contraction_scale,
    diameter_lower_bound,
    kdecay_rhs,
    kpoint_criterion,
    medium_kpoint_criterion,
    medium_small_criterion,
    small_support_criterion,
    small_support_rhs,
    upsilon,
)

__all__ = [
    "__version__", "errors",
    # material and fields
    "LameMedium", "GridSpec", "SampledVectorField", "FieldJet", "make_medium",
    "traction", "holder_seminorm", "field_norms", "lame_operator_fd",
    # geometry
    "disk", "ellipse", "make_cap_domain", "inside", "diameter",
    "signed_distance", "volume_mesh", "gauss_mesh", "boundary_mesh",
    # kernels
    "helmholtz_fundamental", "kupradze_tensor", "singular_cell_integral",
    "farfield_kernels", "lower_incomplete_gamma",
    # sources
    "Bump", "polynomial_bump", "SourceProblem", "FarFieldPattern",
    "directions_circle", "solve_source", "farfield_of_source",
    "farfield_of_disk", "farfield_norm", "make_nonradiating",
    # media
    "MediumScatterer", "IncidentWave", "MediumSolve", "ContractionReport",
    "LatticeOperator", "make_incident", "solve_medium", "solve_medium_sweep",
    "contraction_report", "upsilon", "lattice_pde_residual",
    # exponential probes
    "CgoProbe", "IdentityBreakdown", "make_cgo", "probe_grid", "cgo_residual",
    "paraboloid_integral_closed", "paraboloid_integral_mc", "shell_integral",
    "tail_and_holder_bounds", "select_tau", "zeta_default",
    "integral_identity_check", "boundary_term_bound",
    # criteria
    "CriterionReport", "CalibrationResult", "small_support_rhs", "kdecay_rhs",
    "small_support_criterion", "diameter_lower_bound", "kpoint_criterion",
    "medium_small_criterion", "medium_kpoint_criterion", "calibrate_constant",
    "calibrate_contraction_scale",
]
