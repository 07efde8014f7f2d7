"""Criterion evaluators: structural shapes, verdicts and calibration."""

import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from elastoscat import (
    boundary_term_bound,
    calibrate_constant,
    calibrate_contraction_scale,
    diameter_lower_bound,
    kdecay_rhs,
    kpoint_criterion,
    make_cap_domain,
    medium_kpoint_criterion,
    medium_small_criterion,
    select_tau,
    shell_integral,
    small_support_criterion,
    small_support_rhs,
    tail_and_holder_bounds,
    upsilon,
    zeta_default,
)
from elastoscat.bounds import (
    REGIME_INDETERMINATE,
    REGIME_NONRADIATING,
    REGIME_RADIATING,
)
from elastoscat.errors import (
    ChartInvalid,
    EmptySweep,
    ExponentOutOfRange,
    InvalidExponent,
    InvalidParameter,
    KTooSmall,
    NonpositiveArgument,
    OutOfRegime,
    UnsupportedDimension,
)


# ---------------------------------------------------------------------------
# structural right-hand sides
# ---------------------------------------------------------------------------

def test_small_support_shape_values():
    assert small_support_rhs(0.1, 1.0, 2) == pytest.approx(0.111, rel=1e-12)
    assert small_support_rhs(0.01, 1.0, 2) == pytest.approx(0.010101, rel=1e-12)
    # 3-D: eps^{3/2} transition term
    want = 0.1 ** 0.5 * (1.0 + 1.1 * 0.1 ** 1.5)
    assert small_support_rhs(0.1, 0.5, 3) == pytest.approx(want, rel=1e-12)


def test_small_support_shape_rejects_bad_inputs():
    with pytest.raises(NonpositiveArgument):
        small_support_rhs(0.0, 1.0, 2)
    with pytest.raises(InvalidExponent):
        small_support_rhs(0.1, 1.5, 2)
    with pytest.raises(InvalidExponent):
        small_support_rhs(0.1, 0.9, 3)


@given(e1=st.floats(1e-6, 50.0), e2=st.floats(1e-6, 50.0))
@settings(max_examples=200, deadline=None)
def test_small_support_shape_is_increasing(e1, e2):
    assume(e2 > e1 * (1.0 + 1e-9))
    assert small_support_rhs(e2, 1.0, 2) > small_support_rhs(e1, 1.0, 2)


def test_kdecay_shape_values():
    assert kdecay_rhs(math.e, 1.0, 1.0, 2) == pytest.approx(
        0.6065306597126334, rel=1e-14)
    assert kdecay_rhs(math.e ** 3, 0.5, 1.0, 3) == pytest.approx(
        7.009207047642644, rel=1e-12)
    # varsigma above one is fine in 2-D; only alpha is capped
    assert kdecay_rhs(30.0, 0.8, 2.5, 2) == pytest.approx(
        math.log(30.0) ** 1.5 * 30.0 ** -0.4, rel=1e-14)


def test_kdecay_shape_rejects_bad_inputs():
    with pytest.raises(KTooSmall):
        kdecay_rhs(2.0, 1.0, 1.0, 2)
    with pytest.raises(ExponentOutOfRange):
        kdecay_rhs(30.0, 1.5, 1.0, 2)
    with pytest.raises(ExponentOutOfRange):
        kdecay_rhs(30.0, 0.2, 1.0, 3)
    with pytest.raises(UnsupportedDimension):
        kdecay_rhs(30.0, 0.5, 0.5, 4)


_CAP = dict(K=10.0, L=1.0, M=1.0, varsigma=0.5, cubic=0.0)
_LID = dict(tau=40.0, b=0.1, K=10.0)
_SMALL = dict(sup_boundary_phi=0.05, holder_seminorm_phi=1.0, linf_phi=1.0, delta=1.0,
              epsilon=0.1, dim=2, omega=1.0)

# id: (function, valid arguments, the argument set to NaN, the error it raises)
NAN_GUARDS = {
    "make_cap_domain-K": (make_cap_domain, _CAP, "K", KTooSmall),
    "make_cap_domain-L": (make_cap_domain, _CAP, "L", ChartInvalid),
    "make_cap_domain-M": (make_cap_domain, _CAP, "M", ChartInvalid),
    "make_cap_domain-cubic": (make_cap_domain, _CAP, "cubic", ChartInvalid),
    "select_tau-K": (select_tau, dict(K=10.0, zeta=0.5), "K", KTooSmall),
    "select_tau-zeta": (select_tau, dict(K=10.0, zeta=0.5), "zeta", InvalidParameter),
    "kdecay_rhs-K": (kdecay_rhs, dict(K=10.0, alpha=1.0, varsigma=0.9, dim=2), "K",
                     KTooSmall),
    # min(0.5, nan) is 0.5: the 3-D range test alone let a NaN varsigma through
    "kdecay_rhs-varsigma-3d": (kdecay_rhs, dict(K=10.0, alpha=0.5, varsigma=0.5, dim=3),
                               "varsigma", ExponentOutOfRange),
    "zeta_default-varsigma-2d": (zeta_default, dict(alpha=0.5, varsigma=0.9, dim=2),
                                 "varsigma", ExponentOutOfRange),
    "zeta_default-varsigma-3d": (zeta_default, dict(alpha=0.5, varsigma=0.9, dim=3),
                                 "varsigma", ExponentOutOfRange),
    "small_support_rhs-epsilon": (small_support_rhs, dict(epsilon=0.1, delta=1.0, dim=2),
                                  "epsilon", NonpositiveArgument),
    **{f"{fn.__name__}-{arg}": (fn, args, arg, NonpositiveArgument)
       for fn, args in ((boundary_term_bound, dict(_LID, beta=1.0, c1beta_norm=1.0)),
                        (tail_and_holder_bounds, dict(_LID, alpha=1.0, dim=2)))
       for arg in _LID},
    **{f"small_support_criterion-{arg}": (small_support_criterion, _SMALL, arg,
                                          NonpositiveArgument)
       for arg in ("sup_boundary_phi", "holder_seminorm_phi", "linf_phi", "omega",
                   "epsilon")},
    **{f"diameter_lower_bound-{arg}": (
        diameter_lower_bound, dict(lhs_ratio=0.5, delta=1.0, omega=1.0, c_fit=1.0), arg,
        NonpositiveArgument) for arg in ("lhs_ratio", "delta", "omega", "c_fit")},
    **{f"upsilon-{arg}": (upsilon, dict(eps=0.5, v_sup=1.0, s=1.0), arg, InvalidParameter)
       for arg in ("eps", "v_sup", "s")},
    **{f"shell_integral-{arg}": (shell_integral,
                                 dict(k_minus=5.0, k_plus=15.0, tau=40.0, b=0.1, dim=2),
                                 arg, NonpositiveArgument) for arg in ("tau", "b")},
    **{f"kpoint_criterion-{arg}": (
        kpoint_criterion, dict(phi_at_q=1.0, norm_max=1.0, K=10.0, alpha=1.0, varsigma=0.9,
                               dim=2), arg, NonpositiveArgument)
       for arg in ("phi_at_q", "norm_max")},
    "medium_kpoint_criterion-Vui_at_q": (
        medium_kpoint_criterion, dict(Vui_at_q=1.0, K=10.0, alpha=1.0, varsigma=0.9, dim=2),
        "Vui_at_q", NonpositiveArgument),
    # a NaN epsilon was caught only as a NaN structural side, unnamed
    **{f"medium_small_criterion-{arg}": (
        medium_small_criterion, dict(V_ui_sup=1.0, V_norm=1.0, ui_norm=1.0, delta=1.0,
                                     epsilon=0.1, eps_max=0.2, V_max=1.0),
        arg, NonpositiveArgument)
       for arg in ("V_ui_sup", "V_norm", "ui_norm", "epsilon", "eps_max", "V_max")},
}


@pytest.mark.parametrize("case", list(NAN_GUARDS))
def test_guards_reject_nan_and_name_it(case):
    # a guard written ``x <= 0`` or ``K < e`` is false for NaN, which then
    # ran on into a NaN result or another check's message
    fn, args, arg, error = NAN_GUARDS[case]
    fn(**args)
    with pytest.raises(error) as info:
        fn(**dict(args, **{arg: math.nan}))
    assert re.search(rf"\b{arg}\b", str(info.value)) and "nan" in str(info.value)


@given(k1=st.floats(21.0, 1e4), factor=st.floats(1.01, 10.0))
@settings(max_examples=200, deadline=None)
def test_kdecay_shape_decreasing_past_knee(k1, factor):
    # with min(alpha, varsigma) = 1 the shape turns monotone once ln K > 3
    assert kdecay_rhs(k1 * factor, 1.0, 1.0, 2) < kdecay_rhs(k1, 1.0, 1.0, 2)


# ---------------------------------------------------------------------------
# criterion reports and regime classification
# ---------------------------------------------------------------------------

def test_small_support_criterion_report():
    rep = small_support_criterion(sup_boundary_phi=0.05, holder_seminorm_phi=1.0,
                                  linf_phi=1.0, delta=1.0, epsilon=0.1, dim=2,
                                  omega=1.0)
    assert rep.name == "small-support"
    assert rep.rhs_structural == pytest.approx(0.111, rel=1e-12)
    assert rep.lhs == pytest.approx(0.025, rel=1e-12)
    assert rep.ratio == pytest.approx(0.025 / 0.111, rel=1e-12)


def test_regime_band_edges():
    rhs = small_support_rhs(0.1, 1.0, 2)

    def classify(lhs):
        rep = small_support_criterion(lhs * 2.0, 1.0, 1.0, 1.0, 0.1, 2)
        return rep.regime

    assert classify(1.2 * rhs) == REGIME_RADIATING
    assert classify(0.8 * rhs) == REGIME_NONRADIATING
    assert classify(1.0 * rhs) == REGIME_INDETERMINATE
    assert classify(1.05 * rhs) == REGIME_INDETERMINATE
    assert classify(0.95 * rhs) == REGIME_INDETERMINATE


def test_fixed_boundary_intensity_turns_radiating_as_support_shrinks():
    def regime(eps):
        return small_support_criterion(0.5, 1.0, 1.0, 1.0, eps, 2).regime

    assert regime(1.0) == REGIME_NONRADIATING
    assert regime(0.01) == REGIME_RADIATING


def test_zero_boundary_intensity_is_nonradiating_consistent():
    rep = small_support_criterion(0.0, 1.0, 1.0, 1.0, 0.1, 2)
    assert rep.regime == REGIME_NONRADIATING and rep.lhs == 0.0


def test_small_support_criterion_rejects_bad_inputs():
    with pytest.raises(NonpositiveArgument):
        small_support_criterion(-1.0, 1.0, 1.0, 1.0, 0.1, 2)
    with pytest.raises(InvalidParameter):
        small_support_criterion(1.0, 0.0, 0.0, 1.0, 0.1, 2)
    with pytest.raises(NonpositiveArgument):
        small_support_criterion(1.0, 1.0, 1.0, 1.0, 0.1, 2, omega=0.0)


def test_diameter_floor_value():
    assert diameter_lower_bound(2.0, 1.0, 2.0, 1.0) == pytest.approx(0.5, rel=1e-14)
    # small ratios leave the sub-unit branch live
    got = diameter_lower_bound(0.04, 0.5, 2.0, 1.0)
    assert got == pytest.approx(0.04 ** 2 / 2.0, rel=1e-12)
    with pytest.raises(NonpositiveArgument):
        diameter_lower_bound(-0.1, 1.0, 2.0, 1.0)
    with pytest.raises(NonpositiveArgument):
        diameter_lower_bound(0.1, 1.0, 2.0, 0.0)


def test_kpoint_criterion_normalizes_by_norm_cap():
    rep = kpoint_criterion(phi_at_q=5.0, norm_max=0.5, K=30.0, alpha=0.9,
                           varsigma=1.0, dim=2)
    assert rep.lhs == pytest.approx(5.0)          # max(1, 0.5) = 1
    rep2 = kpoint_criterion(phi_at_q=5.0, norm_max=4.0, K=30.0, alpha=0.9,
                            varsigma=1.0, dim=2)
    assert rep2.lhs == pytest.approx(1.25)
    assert rep.regime == REGIME_RADIATING


def test_medium_small_criterion_amplified_shape():
    rep = medium_small_criterion(V_ui_sup=0.05, V_norm=1.0, ui_norm=1.0,
                                 delta=1.0, epsilon=0.1, eps_max=0.25,
                                 V_max=2.0, dim=2, s=1.0)
    assert rep.rhs_structural == pytest.approx(0.122, rel=1e-12)


def test_medium_small_criterion_regime_guards():
    with pytest.raises(OutOfRegime):
        medium_small_criterion(0.05, 1.0, 1.0, 1.0, 0.1, eps_max=0.5,
                               V_max=2.0, dim=2, s=1.0)
    with pytest.raises(InvalidParameter):
        medium_small_criterion(0.05, 1.0, 1.0, 1.0, 0.3, eps_max=0.25,
                               V_max=2.0, dim=2, s=1.0)
    with pytest.raises(NonpositiveArgument):
        medium_small_criterion(0.05, 0.0, 1.0, 1.0, 0.1, eps_max=0.25,
                               V_max=2.0, dim=2, s=1.0)


def test_medium_kpoint_criterion_structural_side():
    rep = medium_kpoint_criterion(Vui_at_q=1.0, K=math.e ** 3, alpha=0.5,
                                  varsigma=1.0, dim=3)
    assert rep.rhs_structural == pytest.approx(7.009207047642644, rel=1e-12)
    assert rep.name == "medium-kpoint"


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------

def test_calibrate_constant_max_ratio():
    sweep = [(0.45, 0.5), (0.9, 1.0), (0.3, 2.0)]
    res = calibrate_constant(sweep)
    assert res.constant_fit == pytest.approx(0.9, rel=1e-14)
    assert res.violations == 0
    assert res.sweep_size == 3
    assert res.fit_method == "max-ratio"
    assert res.to_json_dict()["constant_fit"] == res.constant_fit


def test_calibrate_constant_guards():
    with pytest.raises(EmptySweep):
        calibrate_constant([])
    with pytest.raises(InvalidParameter):
        calibrate_constant([(0.1, 0.0)])
    # a NaN on either side would make a NaN constant_fit
    for entry in ((1.0, math.nan), (math.nan, 1.0)):
        with pytest.raises(InvalidParameter, match=r"lhs .*rhs .*nan"):
            calibrate_constant([(0.2, 1.0), entry])


def test_calibrate_contraction_scale_recovers_feasible_s():
    true_s = 2.0
    sweep = []
    for prod in (0.2, 0.5, 0.9, 1.3):
        ratio_u = 0.8 * prod / (true_s - prod)
        ratio_ut = 1.0 + 0.9 * prod / (true_s - prod)
        sweep.append((prod, 1.0, ratio_u, ratio_ut))
    res = calibrate_contraction_scale(sweep)
    assert res.fit_method == "min-feasible-s"
    assert res.constant_fit >= true_s
    assert res.violations == 0
    assert res.sweep_size == 4


def test_calibrate_contraction_scale_guards():
    with pytest.raises(EmptySweep):
        calibrate_contraction_scale([])
    with pytest.raises(InvalidParameter):
        calibrate_contraction_scale([(0.5, 0.5, 0.0, 0.0)])
    with pytest.raises(OutOfRegime):
        calibrate_contraction_scale([(1.0, 1.0, 100.0, 1.0),
                                     (1.2, 1.0, 0.1, 1.0)])

