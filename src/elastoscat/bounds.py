"""Evaluators for the quantitative radiating / non-radiating criteria.

Each theorem-shaped inequality is split into a measured left-hand side and a
structural right-hand side (the epsilon- or K-expression with its unnamed
constant set to one).  Verdicts are three-valued: a configuration is only
asserted radiating when its ratio clears the calibrated constant by a safety
band, and only called consistent with non-radiation when it falls below the
band; everything in between is reported indeterminate rather than overclaimed.
Constants are always fitted from sweeps of configurations whose ground truth
is known independently — never hard-coded.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .elastic import _check_holder_exponent
from .errors import (
    EmptySweep,
    ExponentOutOfRange,
    InvalidParameter,
    KTooSmall,
    NonpositiveArgument,
    OutOfRegime,
    UnsupportedDimension,
)

REGIME_RADIATING = "radiating-asserted"
REGIME_NONRADIATING = "non-radiating-consistent"
REGIME_INDETERMINATE = "indeterminate"
REGIME_BAND = 0.10


@dataclass
class CriterionReport:
    """One evaluated inequality: measured side, structural side, verdict."""

    name: str
    lhs: float
    rhs_structural: float
    ratio: float
    regime: str


@dataclass
class CalibrationResult:
    """Empirically fitted constant plus the evidence that produced it."""

    constant_fit: float
    violations: int
    sweep_size: int
    fit_method: str

    def to_json_dict(self) -> dict:
        return {
            "constant_fit": self.constant_fit, "violations": self.violations,
            "sweep_size": self.sweep_size, "fit_method": self.fit_method,
        }


def _finish(name: str, lhs: float, rhs: float, c_fit: float) -> CriterionReport:
    if not rhs > 0.0:
        raise InvalidParameter(f"structural rhs is {rhs}, must be positive")
    ratio = lhs / rhs
    threshold = c_fit * rhs
    if lhs > (1.0 + REGIME_BAND) * threshold:
        regime = REGIME_RADIATING
    elif lhs < (1.0 - REGIME_BAND) * threshold:
        regime = REGIME_NONRADIATING
    else:
        regime = REGIME_INDETERMINATE
    return CriterionReport(name=name, lhs=float(lhs), rhs_structural=float(rhs),
                           ratio=float(ratio), regime=regime)


def small_support_rhs(epsilon: float, delta: float, dim: int) -> float:
    """``eps^delta (1 + (1+eps) eps^{n/2})``, strictly increasing in eps."""
    if not epsilon > 0.0:
        raise NonpositiveArgument(f"epsilon must be positive, got {epsilon}")
    _check_holder_exponent(delta, dim)
    return epsilon ** delta * (1.0 + (1.0 + epsilon) * epsilon ** (dim / 2.0))


def kdecay_rhs(K: float, alpha: float, varsigma: float, dim: int) -> float:
    """``(ln K)^{(n+1)/2} K^{-min(alpha,varsigma)/2}`` (n=2; +1/6 shift for n=3).

    Strictly decreasing once ``ln K > (n+1)/min(alpha,varsigma)`` in 2-D.
    """
    if not K >= math.e:
        raise KTooSmall(f"need K >= e, got {K}")
    m = min(alpha, varsigma)
    if dim == 2:
        if not (0.0 < alpha <= 1.0 and 0.0 < varsigma):
            raise ExponentOutOfRange(
                f"need alpha in (0, 1] and varsigma > 0, got {alpha}, {varsigma}")
        expo = -0.5 * m
    elif dim == 3:
        if not (1.0 / 3.0 < alpha and 1.0 / 3.0 < varsigma and m < 1.0):
            raise ExponentOutOfRange(
                f"need min(alpha, varsigma) in (1/3, 1), got {alpha}, {varsigma}")
        expo = -0.5 * m + 1.0 / 6.0
    else:
        raise UnsupportedDimension(f"dim must be 2 or 3, got {dim}")
    return math.log(K) ** ((dim + 1) / 2.0) * K ** expo


def small_support_criterion(sup_boundary_phi: float, holder_seminorm_phi: float,
                            linf_phi: float, delta: float, epsilon: float,
                            dim: int, omega: float = 1.0,
                            c_fit: float = 1.0) -> CriterionReport:
    """Boundary-intensity-to-regularity ratio against the small-support shape.

    ``lhs = sup_boundary |phi| / (omega^{-delta} [phi]_delta + ||phi||_inf)``;
    a ratio above the calibrated constant asserts the source radiates, a ratio
    below is consistent with non-radiation (the necessary-condition direction).
    """
    if not (sup_boundary_phi >= 0.0 and holder_seminorm_phi >= 0.0 and linf_phi >= 0.0):
        raise NonpositiveArgument(
            f"sup_boundary_phi, holder_seminorm_phi, linf_phi must be nonnegative, "
            f"got {sup_boundary_phi}, {holder_seminorm_phi}, {linf_phi}")
    if not omega > 0.0:
        raise NonpositiveArgument(f"omega must be positive, got {omega}")
    rhs = small_support_rhs(epsilon, delta, dim)
    denom = omega ** (-delta) * holder_seminorm_phi + linf_phi
    if not denom > 0.0:
        raise InvalidParameter("regularity denominator vanishes")
    lhs = sup_boundary_phi / denom
    return _finish("small-support", lhs, rhs, c_fit)


def diameter_lower_bound(lhs_ratio: float, delta: float, omega: float,
                         c_fit: float) -> float:
    """``min(1, (c_fit * lhs)^{1/delta}) / omega`` — support-size floor."""
    if not lhs_ratio >= 0.0:
        raise NonpositiveArgument(f"lhs_ratio must be nonnegative, got {lhs_ratio}")
    if not (delta > 0.0 and omega > 0.0 and c_fit > 0.0):
        raise NonpositiveArgument(
            f"delta, omega, c_fit must be positive, got {delta}, {omega}, {c_fit}")
    return min(1.0, (c_fit * lhs_ratio) ** (1.0 / delta)) / omega


def kpoint_criterion(phi_at_q: float, norm_max: float, K: float, alpha: float,
                     varsigma: float, dim: int,
                     c_fit: float = 1.0) -> CriterionReport:
    """Point intensity at a high-curvature boundary point vs the K-decay shape.

    ``lhs = |phi(q)| / max(1, norm_max)`` where ``norm_max`` caps the Holder
    and H^1 norms of the intensity.
    """
    if not (phi_at_q >= 0.0 and norm_max >= 0.0):
        raise NonpositiveArgument(f"phi_at_q, norm_max must be nonnegative, "
                                  f"got {phi_at_q}, {norm_max}")
    rhs = kdecay_rhs(K, alpha, varsigma, dim)
    lhs = phi_at_q / max(1.0, norm_max)
    return _finish("kpoint", lhs, rhs, c_fit)


def upsilon(eps: float, v_sup: float, s: float = 1.0) -> float:
    """Smallness ratio ``eps*v/(s - eps*v)``, non-decreasing in both arguments."""
    if not s > 0.0:
        raise InvalidParameter(f"s must be positive, got {s}")
    if not (eps >= 0.0 and v_sup >= 0.0):
        raise InvalidParameter(f"eps, v_sup must be nonnegative, got {eps}, {v_sup}")
    prod = eps * v_sup
    if prod >= s:
        raise OutOfRegime(f"eps*v = {prod} >= s = {s}")
    return prod / (s - prod)


def medium_small_criterion(V_ui_sup: float, V_norm: float, ui_norm: float,
                           delta: float, epsilon: float, eps_max: float,
                           V_max: float, dim: int = 2, s: float = 1.0,
                           c_fit: float = 1.0) -> CriterionReport:
    """Boundary contrast-times-incident magnitude vs the medium smallness shape.

    ``lhs = sup_boundary |V u_i| / (||V|| ||u_i||)``; the structural side
    carries the a-priori amplification factor ``1 + Upsilon(eps_max, V_max)``
    evaluated at the sweep's extreme parameters.
    """
    if not (V_ui_sup >= 0.0 and V_norm > 0.0 and ui_norm > 0.0):
        raise NonpositiveArgument(f"need V_ui_sup >= 0 and positive V_norm, ui_norm, "
                                  f"got {V_ui_sup}, {V_norm}, {ui_norm}")
    if not (eps_max >= 0.0 and V_max >= 0.0):
        raise NonpositiveArgument(f"need nonnegative eps_max and V_max, "
                                  f"got {eps_max}, {V_max}")
    if epsilon > eps_max:
        raise InvalidParameter(f"epsilon = {epsilon} exceeds eps_max = {eps_max}")
    if eps_max * V_max >= s:
        raise OutOfRegime(
            f"eps_max * V_max = {eps_max * V_max} >= s = {s}; bounds void")
    ups = upsilon(eps_max, V_max, s)
    if not epsilon > 0.0:
        raise NonpositiveArgument(f"epsilon must be positive, got {epsilon}")
    _check_holder_exponent(delta, dim)
    rhs = epsilon ** delta * (
        1.0 + (1.0 + ups) * (1.0 + epsilon) * epsilon ** (dim / 2.0))
    lhs = V_ui_sup / (V_norm * ui_norm)
    return _finish("medium-small", lhs, rhs, c_fit)


def medium_kpoint_criterion(Vui_at_q: float, K: float, alpha: float,
                            varsigma: float, dim: int,
                            c_fit: float = 1.0) -> CriterionReport:
    """``lhs = |V(q) u_i(q)|`` against the same K-decay structural side."""
    if not Vui_at_q >= 0.0:
        raise NonpositiveArgument(f"Vui_at_q must be nonnegative, got {Vui_at_q}")
    rhs = kdecay_rhs(K, alpha, varsigma, dim)
    return _finish("medium-kpoint", Vui_at_q, rhs, c_fit)


def calibrate_constant(sweep: Sequence) -> CalibrationResult:
    """Tightest constant making ``lhs <= C * rhs`` hold across the sweep.

    Every entry must come from a configuration whose regime is independently
    known (manufactured non-radiating families, verified eigenpairs); the fit
    is the max ratio, so violations at the fitted value are zero by
    construction and recounted here as a self-check.
    """
    entries = list(sweep)
    if not entries:
        raise EmptySweep("cannot calibrate from an empty sweep")
    ratios = []
    for lhs, rhs in entries:
        if not (lhs >= 0.0 and rhs > 0.0):
            raise InvalidParameter(f"need lhs >= 0 and rhs > 0, got lhs {lhs}, rhs {rhs}")
        ratios.append(lhs / rhs)
    fit = float(max(ratios))
    violations = sum(1 for lhs, rhs in entries
                     if lhs > fit * rhs * (1.0 + 1e-12))
    return CalibrationResult(constant_fit=fit, violations=int(violations),
                             sweep_size=len(entries), fit_method="max-ratio")


def calibrate_contraction_scale(sweep: Sequence) -> CalibrationResult:
    """Largest ``s`` for which the measured field-size ratios obey the bounds.

    Entries are ``(epsilon, v_sup, ratio_u, ratio_ut)`` with the ratios
    measured as ``||u|| / ||u_i||`` and ``||u_t|| / ||u_i||``.  For a single
    entry the scattered-field bound pins ``s <= eps*v*(1 + 1/ratio_u)`` and
    the total-field bound ``s <= eps*v*ratio_ut/(ratio_ut - 1)``; the fit is
    the minimum over the sweep, and must exceed every ``eps*v`` for the
    contraction regime to be nonempty.
    """
    entries = list(sweep)
    if not entries:
        raise EmptySweep("cannot calibrate from an empty sweep")
    s_cap = np.inf
    prod_max = 0.0
    for eps, v, ratio_u, ratio_ut in entries:
        if eps < 0.0 or v < 0.0:
            raise InvalidParameter("epsilon and v_sup must be nonnegative")
        prod = eps * v
        prod_max = max(prod_max, prod)
        if prod == 0.0:
            continue
        if ratio_u > 0.0:
            s_cap = min(s_cap, prod * (1.0 + 1.0 / ratio_u))
        if ratio_ut > 1.0:
            s_cap = min(s_cap, prod * ratio_ut / (ratio_ut - 1.0))
    if not np.isfinite(s_cap):
        raise InvalidParameter(
            "sweep contains no informative entries (all ratios vanish)")
    if s_cap <= prod_max:
        raise OutOfRegime(
            f"fitted s = {s_cap} does not exceed max eps*v = {prod_max}")
    violations = 0
    for eps, v, ratio_u, ratio_ut in entries:
        prod = eps * v
        if prod == 0.0:
            continue
        if (ratio_u > upsilon(eps, v, s_cap) * (1.0 + 1e-12)
                or ratio_ut > (s_cap / (s_cap - prod)) * (1.0 + 1e-12)):
            violations += 1
    return CalibrationResult(constant_fit=float(s_cap), violations=int(violations),
                             sweep_size=len(entries), fit_method="min-feasible-s")

