"""Exponential probes, model integrals, and the boundary-point identity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from elastoscat import (
    GridSpec,
    boundary_term_bound,
    cgo_residual,
    disk,
    ellipse,
    integral_identity_check,
    make_cap_domain,
    make_cgo,
    make_medium,
    paraboloid_integral_closed,
    paraboloid_integral_mc,
    polynomial_bump,
    probe_grid,
    select_tau,
    shell_integral,
    tail_and_holder_bounds,
    traction,
    zeta_default,
)
from elastoscat.cgo import _MC_BATCHES, _gl_panels
from elastoscat.errors import (
    BoundaryConditionViolated,
    ExponentOutOfRange,
    GridTooCoarse,
    InvalidCurvatures,
    InvalidDirection,
    InvalidExponent,
    InvalidParameter,
    KTooSmall,
    NonDecaying,
    NonOrthonormalPair,
    NonpositiveArgument,
    NumericalValidationFailure,
    QuadratureBudgetExceeded,
    TauTooSmall,
    UnsupportedDimension,
)

MED = make_medium(2.0, 1.0, 2.0, 2)
MED3 = make_medium(2.0, 1.0, 2.0, 3)


def down_probe(tau, medium=MED):
    n = medium.dim
    d = np.zeros(n)
    d[-1] = -1.0
    dp = np.zeros(n)
    dp[0] = 1.0
    return make_cgo(d, dp, tau, medium)


# ---------------------------------------------------------------------------
# probe algebra
# ---------------------------------------------------------------------------

def test_probe_vectors_2d():
    p = down_probe(4.0)
    s = math.sqrt(20.0)
    assert np.allclose(p.xi, [1j * s, -4.0], atol=1e-14)
    assert np.allclose(p.eta, [1.0, 1j * math.sqrt(1.25)], atol=1e-14)
    assert abs(np.sum(p.xi * p.xi) + MED.kappa_s ** 2) < 1e-12
    assert abs(np.sum(p.xi * p.eta)) < 1e-12


def test_probe_vectors_3d():
    p = down_probe(4.0, MED3)
    s = math.sqrt(20.0)
    assert np.allclose(p.xi, [1j * s, 0.0, -4.0], atol=1e-14)
    assert np.allclose(p.eta, [1.0, 0.0, 1j * math.sqrt(1.25)], atol=1e-14)
    assert abs(np.sum(p.xi * p.xi) + MED3.kappa_s ** 2) < 1e-12
    assert abs(np.sum(p.xi * p.eta)) < 1e-12


@given(theta=st.floats(0.0, 2.0 * math.pi), mult=st.floats(1.001, 20.0))
@settings(max_examples=150, deadline=None)
def test_probe_algebra_any_frame(theta, mult):
    d = np.array([math.cos(theta), math.sin(theta)])
    dp = np.array([-d[1], d[0]])
    tau = mult * MED.kappa_s
    p = make_cgo(d, dp, tau, MED)
    scale = MED.kappa_s ** 2 + tau ** 2
    assert abs(np.sum(p.xi * p.xi) + MED.kappa_s ** 2) < 1e-14 * scale
    assert abs(np.sum(p.xi * p.eta)) < 1e-14 * scale


def test_probe_decay_rate():
    p = down_probe(6.0)
    lower = np.linalg.norm(p.field(np.array([0.0, 1.0])))
    base = np.linalg.norm(p.field(np.array([0.0, 0.0])))
    assert lower / base == pytest.approx(math.exp(-6.0), rel=1e-12)


def test_probe_jet_matches_finite_differences():
    p = down_probe(5.0)
    x = np.array([0.03, -0.02])
    jet = p.jet(x)
    h = 1e-6
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        fd = (p.field(x + e) - p.field(x - e)) / (2.0 * h)
        assert np.allclose(jet.gradient[:, j], fd, rtol=1e-7, atol=1e-9)


def test_probe_jet_batched_matches_single_points():
    p = down_probe(5.0)
    x = np.random.default_rng(5).uniform(-0.1, 0.1, size=(6, 1, 2))
    jet = p.jet(x)
    assert jet.value.shape == (6, 1, 2) and jet.gradient.shape == (6, 1, 2, 2)
    assert np.array_equal(jet.value, p.field(x))
    for k in range(6):
        single = p.jet(x[k, 0])
        assert np.array_equal(jet.value[k, 0], single.value)
        assert np.array_equal(jet.gradient[k, 0], single.gradient)


def test_probe_rejects_tau_at_kappa():
    with pytest.raises(TauTooSmall):
        down_probe(MED.kappa_s)


def test_probe_rejects_skewed_pair():
    with pytest.raises(NonOrthonormalPair):
        make_cgo((0.0, -1.0), (0.1, 0.995), 4.0, MED)
    with pytest.raises(NonOrthonormalPair):
        make_cgo((0.0, -2.0), (1.0, 0.0), 4.0, MED)
    with pytest.raises(InvalidDirection):
        make_cgo((0.0, 0.0, -1.0), (1.0, 0.0, 0.0), 4.0, MED)


# ---------------------------------------------------------------------------
# PDE residual
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("ratio", [2.0, 10.0, 100.0])
def test_probe_solves_system_on_fine_grid(ratio):
    tau = ratio * MED.kappa_s
    p = down_probe(tau)
    osc = math.sqrt(MED.kappa_s ** 2 + tau ** 2)
    grid = probe_grid(p, 2.0 * math.pi / (osc * 6000.0))
    assert cgo_residual(p, MED, grid) < 1e-6


def test_probe_solves_system_3d():
    tau = 2.0 * MED3.kappa_s
    p = down_probe(tau, MED3)
    osc = math.sqrt(MED3.kappa_s ** 2 + tau ** 2)
    grid = probe_grid(p, 2.0 * math.pi / (osc * 6000.0))
    assert cgo_residual(p, MED3, grid) < 1e-6


def test_residual_decays_at_second_order():
    tau = 10.0 * MED.kappa_s
    p = down_probe(tau)
    osc = math.sqrt(MED.kappa_s ** 2 + tau ** 2)
    ppws = [50.0, 100.0, 200.0]
    res = [cgo_residual(p, MED, probe_grid(p, 2.0 * math.pi / (osc * w)))
           for w in ppws]
    slope = np.polyfit(np.log([1.0 / w for w in ppws]), np.log(res), 1)[0]
    assert abs(slope - 2.0) < 0.1


def _cgo_residual_by_slices(probe, medium, grid):
    """Reference: the dkk/dkj slice stencils cgo_residual once had."""
    n = probe.dim
    h = grid.spacing
    nodes = grid.nodes()
    U = probe.field(nodes, center=nodes.mean(axis=0)).reshape(grid.shape + (n,))

    def dkk(a, k):
        sl = [slice(1, -1)] * n
        lo, hi = sl.copy(), sl.copy()
        lo[k], hi[k] = slice(0, -2), slice(2, None)
        return (a[tuple(hi)] - 2.0 * a[tuple(sl)] + a[tuple(lo)]) / h ** 2

    def dkj(a, k, j):
        sl = [slice(1, -1)] * n
        pp, pm, mp, mm = sl.copy(), sl.copy(), sl.copy(), sl.copy()
        pp[k], pp[j] = slice(2, None), slice(2, None)
        pm[k], pm[j] = slice(2, None), slice(0, -2)
        mp[k], mp[j] = slice(0, -2), slice(2, None)
        mm[k], mm[j] = slice(0, -2), slice(0, -2)
        return (a[tuple(pp)] - a[tuple(pm)] - a[tuple(mp)] + a[tuple(mm)]) / (4.0 * h ** 2)

    def second(a, k, j):
        return dkk(a, k) if k == j else dkj(a, k, j)

    lap = sum(dkk(U, k) for k in range(n))
    grad_div = np.stack(
        [sum(second(U[..., j], k, j) for j in range(n)) for k in range(n)],
        axis=-1)
    inner = tuple([slice(1, -1)] * n)
    res = medium.mu * lap + (medium.lam + medium.mu) * grad_div \
        + medium.omega ** 2 * U[inner]
    denom = probe.tau ** 2 * np.linalg.norm(U[inner], axis=-1)
    return float(np.max(np.linalg.norm(res, axis=-1) / denom))


@pytest.mark.parametrize("medium", [MED, MED3], ids=["2d", "3d"])
@pytest.mark.parametrize("ratio", [1.5, 4.0, 30.0])
def test_residual_matches_slice_stencils(medium, ratio):
    tau = ratio * medium.kappa_s
    osc = math.sqrt(medium.kappa_s ** 2 + tau ** 2)
    tilted = np.zeros(medium.dim)
    tilted[:2] = (0.6, -0.8)
    perp = np.zeros(medium.dim)
    perp[:2] = (0.8, 0.6)
    for p in (down_probe(tau, medium), make_cgo(tilted, perp, tau, medium)):
        for ppw, side in ((14.0, 5), (40.0, 8)):
            grid = probe_grid(p, 2.0 * math.pi / (osc * ppw), side,
                              center=np.full(medium.dim, 0.1))
            assert cgo_residual(p, medium, grid) == \
                _cgo_residual_by_slices(p, medium, grid)


def test_residual_rejects_coarse_grid():
    p = down_probe(8.0)
    osc = math.sqrt(MED.kappa_s ** 2 + 64.0)
    with pytest.raises(GridTooCoarse):
        cgo_residual(p, MED, probe_grid(p, 2.0 * math.pi / (osc * 8.0)))
    with pytest.raises(GridTooCoarse):
        cgo_residual(p, MED, GridSpec(origin=(0.0, 0.0), spacing=1e-4, shape=(2, 2)))


def test_residual_rejects_exploding_dynamic_range():
    tau = 20.0
    p = down_probe(tau)
    osc = math.sqrt(MED.kappa_s ** 2 + tau ** 2)
    h = 2.0 * math.pi / (osc * 12.5)
    with pytest.raises(NumericalValidationFailure):
        cgo_residual(p, MED, probe_grid(p, h, points_per_side=805))


def test_residual_rejects_dimension_mismatch():
    p = down_probe(8.0)
    with pytest.raises(UnsupportedDimension):
        cgo_residual(p, MED3, probe_grid(p, 1e-3))


# ---------------------------------------------------------------------------
# paraboloid-region integral
# ---------------------------------------------------------------------------

def test_paraboloid_axisymmetric_closed_form():
    # xi = (0, -4), K = 1: the transverse factor is a plain Gaussian integral
    val = paraboloid_integral_closed(np.array([0.0, -4.0]), 1.0, 2)
    assert val == pytest.approx(math.sqrt(math.pi) / 8.0, rel=1e-14)
    assert abs(val.imag) < 1e-16


def test_paraboloid_closed_vs_column_quadrature():
    p = down_probe(10.0 * MED.kappa_s)
    xi, K = p.xi, 7.0
    tau = p.tau

    def col(x, part):
        v = np.exp(xi[0] * x) * (-np.exp(xi[1] * K * x * x) / xi[1])
        return v.real if part == "re" else v.imag

    width = math.sqrt(60.0 / (tau * K))
    re, _ = quad(col, -width, width, args=("re",), limit=400, epsabs=1e-13)
    im, _ = quad(col, -width, width, args=("im",), limit=400, epsabs=1e-13)
    closed = paraboloid_integral_closed(xi, K, 2)
    assert abs(complex(re, im) - closed) / abs(closed) < 1e-6


def test_paraboloid_closed_vs_monte_carlo_2d():
    for ratio, K in ((2.0, 5.0), (10.0, 30.0)):
        p = down_probe(ratio * MED.kappa_s)
        closed = paraboloid_integral_closed(p.xi, K, 2)
        est, stderr = paraboloid_integral_mc(p.xi, K, 2, samples=400_000, seed=11)
        assert abs(est - closed) < 3.2 * stderr
        assert abs(est - closed) / abs(closed) < 0.02


def test_paraboloid_closed_vs_monte_carlo_3d():
    p = down_probe(2.0 * MED3.kappa_s, MED3)
    closed = paraboloid_integral_closed(p.xi, 5.0, 3)
    est, stderr = paraboloid_integral_mc(p.xi, 5.0, 3, samples=400_000, seed=5)
    assert abs(est - closed) < 3.2 * stderr
    assert abs(est - closed) / abs(closed) < 0.02


def test_paraboloid_scaling_relation():
    # substituting x -> s x maps (xi, K) to (xi/s, K/s) and scales by s^n
    p = down_probe(8.0)
    s = 3.0
    a = paraboloid_integral_closed(p.xi / s, 7.0 / s, 2)
    b = s ** 2 * paraboloid_integral_closed(p.xi, 7.0, 2)
    assert abs(a - b) / abs(b) < 1e-12


def test_paraboloid_requires_decay():
    with pytest.raises(NonDecaying):
        paraboloid_integral_closed(np.array([1.0j, 4.0]), 1.0, 2)
    with pytest.raises(NonDecaying):
        paraboloid_integral_mc(np.array([1.0j, 4.0]), 1.0, 2)
    with pytest.raises(InvalidParameter):
        paraboloid_integral_closed(np.array([0.0, -4.0]), 0.0, 2)
    with pytest.raises(UnsupportedDimension):
        paraboloid_integral_closed(np.array([0.0, -4.0, 0.0, -1.0]), 1.0, 4)


def _mc_complex_reference(xi, K, dim, samples, seed):
    """The Monte Carlo in complex arithmetic: same draws, same estimator."""
    xi = np.asarray(xi, dtype=complex)
    rng = np.random.default_rng(seed)
    rate = -xi[-1].real
    per = samples // _MC_BATCHES
    means = np.empty(_MC_BATCHES, dtype=complex)
    for bi in range(_MC_BATCHES):
        t = rng.exponential(1.0 / rate, size=per)
        r = np.sqrt(t / K)
        weight = np.exp((xi[-1] + rate) * t) / rate
        if dim == 2:
            xp = r * (2.0 * rng.random(per) - 1.0)
            slice_vol = 2.0 * r
            dot = xi[0] * xp
        else:
            rad = r * np.sqrt(rng.random(per))
            ang = 2.0 * np.pi * rng.random(per)
            slice_vol = np.pi * r ** 2
            dot = xi[0] * rad * np.cos(ang) + xi[1] * rad * np.sin(ang)
        means[bi] = np.mean(weight * slice_vol * np.cosh(dot))
    stderr = np.sqrt((np.var(means.real) + np.var(means.imag)) / _MC_BATCHES)
    return complex(means.mean()), float(stderr)


@pytest.mark.parametrize("dim", [2, 3])
def test_paraboloid_mc_matches_complex_reference(dim):
    # every pattern of zero and nonzero Re xi_j, Im xi_j (j < n) and Im xi_n;
    # the CLI only reaches xi = (i s, [0,] -tau)
    parts = 2 * (dim - 1) + 1
    for pattern in range(2 ** parts):
        on = [(pattern >> k) & 1 for k in range(parts)]
        xi = np.zeros(dim, dtype=complex)
        for j in range(dim - 1):
            xi[j] = complex(1.3 * (j + 1) * on[2 * j], 7.0 * on[2 * j + 1])
        xi[-1] = complex(-5.0, 3.0 * on[-1])
        for K, seed in ((1.0, 0), (20.0, 97)):
            est, se = paraboloid_integral_mc(xi, K, dim, samples=32_000, seed=seed)
            ref, ref_se = _mc_complex_reference(xi, K, dim, 32_000, seed)
            assert abs(est - ref) <= 1e-13 * abs(ref), (xi, K)
            assert se == pytest.approx(ref_se, rel=1e-13, abs=0.0), (xi, K)


@pytest.mark.parametrize("dim", [2, 3])
def test_paraboloid_mc_keeps_the_bits_on_the_cli_pattern(dim):
    # on xi = (i s, [0,] -tau) every term and every batch sum equal the complex
    # loop's bit for bit, so cgo-verify's CSVs keep their bytes
    xi = np.zeros(dim, dtype=complex)
    xi[0], xi[-1] = 20.4j, -20.0
    for K, seed in ((1.0, 3), (5.0, 2401)):
        assert paraboloid_integral_mc(xi, K, dim, samples=64_000, seed=seed) == \
            _mc_complex_reference(xi, K, dim, 64_000, seed)


@pytest.mark.parametrize("xi, pinned", [
    ([5j, -4.0], (0.07100924157748821, 0.0011856301777090265)),
    ([5j, 0.0, -4.0], (0.04449133516952487, 0.0011452725685437153)),
])
def test_paraboloid_mc_keeps_its_draws(xi, pinned):
    # values of the complex-arithmetic loop; reordering the draws moves them
    # by about one stderr, round-off by about 1e-16
    est, se = paraboloid_integral_mc(np.array(xi), 2.0, len(xi), samples=6400, seed=7)
    assert est.real == pytest.approx(pinned[0], rel=1e-13)
    assert est.imag == 0.0
    assert se == pytest.approx(pinned[1], rel=1e-13)


BAD_PARABOLOID_ARGS = {
    "K-nan": ([0.0, -4.0], math.nan),
    "K-inf": ([0.0, -4.0], math.inf),
    "xi-nan": ([complex(0.0, math.nan), -4.0], 1.0),
    "xi-inf": ([0.0, -math.inf], 1.0),
}


@pytest.mark.parametrize("case", sorted(BAD_PARABOLOID_ARGS))
def test_paraboloid_closed_rejects_non_finite_input(case):
    xi, K = BAD_PARABOLOID_ARGS[case]
    with pytest.raises(InvalidParameter):
        paraboloid_integral_closed(np.array(xi), K, 2)


@pytest.mark.parametrize("case", sorted(BAD_PARABOLOID_ARGS))
def test_paraboloid_mc_rejects_non_finite_input(case):
    xi, K = BAD_PARABOLOID_ARGS[case]
    with pytest.raises(InvalidParameter):
        paraboloid_integral_mc(np.array(xi), K, 2, samples=640)


@pytest.mark.parametrize("kwargs", [{"seed": -1}, {"seed": 1.5},
                                    {"samples": 100.0}, {"samples": "640"}],
                         ids=["seed-negative", "seed-float",
                              "samples-float", "samples-string"])
def test_paraboloid_mc_rejects_bad_samples_and_seed(kwargs):
    with pytest.raises(InvalidParameter):
        paraboloid_integral_mc(np.array([4j, -4.0]), 1.0, 2, **{"samples": 640, **kwargs})


# ---------------------------------------------------------------------------
# shell integral between two paraboloids
# ---------------------------------------------------------------------------

def shell_quad(km, kp, tau, b, dim):
    """Nested quadrature oracle: closed-form columns, outer quad over x1."""
    if dim == 2:
        def col(x):
            lo, hi = km * x * x, min(kp * x * x, b)
            if lo >= hi:
                return 0.0
            return (math.exp(-tau * lo) - math.exp(-tau * hi)) / tau

        width = math.sqrt(b / km)
        kink = math.sqrt(b / kp)
        val, _ = quad(col, -width, width, points=[-kink, kink], limit=300,
                      epsabs=1e-14)
        return val

    def col3(r):
        lo, hi = km * r * r, min(kp * r * r, b)
        if lo >= hi:
            return 0.0
        return 2.0 * math.pi * r * (math.exp(-tau * lo) - math.exp(-tau * hi)) / tau

    width = math.sqrt(b / km)
    val, _ = quad(col3, 0.0, width, points=[math.sqrt(b / kp)], limit=300,
                  epsabs=1e-14)
    return val


@pytest.mark.parametrize("km,kp,tau,b,dim", [
    (5.0, 20.0, 40.0, 0.1, 2),
    (3.0, 9.0, 25.0, 0.3, 2),
    (5.0, 20.0, 40.0, 0.1, 3),
    (8.0, 32.0, 120.0, 0.02, 3),
])
def test_shell_closed_form_matches_quadrature(km, kp, tau, b, dim):
    closed = shell_integral(km, kp, tau, b, dim)
    assert abs(closed - shell_quad(km, kp, tau, b, dim)) / closed < 1e-6


def test_shell_vanishes_for_equal_curvatures():
    assert shell_integral(10.0, 10.0, 40.0, 0.1, 2) == 0.0


def test_shell_saturates_for_deep_lids():
    # gamma_lower has converged by tau*b = 50; pushing the lid higher is a no-op
    a = shell_integral(5.0, 20.0, 40.0, 50.0 / 40.0, 2)
    b = shell_integral(5.0, 20.0, 40.0, 80.0 / 40.0, 2)
    assert abs(a - b) / a < 1e-8


def test_shell_rejects_bad_inputs():
    with pytest.raises(InvalidCurvatures):
        shell_integral(0.0, 10.0, 40.0, 0.1, 2)
    with pytest.raises(InvalidCurvatures):
        shell_integral(20.0, 10.0, 40.0, 0.1, 2)
    with pytest.raises(NonpositiveArgument):
        shell_integral(5.0, 20.0, 0.0, 0.1, 2)
    with pytest.raises(NonpositiveArgument):
        shell_integral(5.0, 20.0, 40.0, -0.1, 2)


# ---------------------------------------------------------------------------
# tail and Hölder-remainder structural bounds
# ---------------------------------------------------------------------------

def tail_quad(tau, b, K):
    val, _ = quad(lambda y: math.exp(-tau * y) * 2.0 * math.sqrt(y / K),
                  b, b + 200.0 / tau, limit=300)
    return val


def holder_quad(tau, b, K, alpha):
    def outer(x1):
        lo = K * x1 * x1
        if lo >= b:
            return 0.0
        v, _ = quad(lambda y: math.exp(-tau * y) * (x1 * x1 + y * y) ** (alpha / 2.0),
                    lo, b, limit=200)
        return v

    width = math.sqrt(b / K)
    val, _ = quad(outer, -width, width, limit=200)
    return val


def test_tail_bound_brackets_true_integral():
    for tau in (20.0, 40.0, 80.0):
        for K in (10.0, 30.0, 100.0):
            b = 1.0 / K
            bound = tail_and_holder_bounds(tau, b, K, 0.5, 2)[0]
            ratio = tail_quad(tau, b, K) / bound
            assert 1.0 <= ratio <= 2.0


def test_holder_bound_brackets_true_integral():
    for tau in (10.0, 20.0):
        for K in (10.0, 30.0):
            b = 1.0 / K
            for alpha in (0.5, 1.0):
                bound = tail_and_holder_bounds(tau, b, K, alpha, 2)[1]
                ratio = holder_quad(tau, b, K, alpha) / bound
                assert 0.1 <= ratio <= 1.5


def test_tail_bound_curvature_power():
    # K enters only through K^{-(n-1)/2}
    t1 = tail_and_holder_bounds(30.0, 0.05, 10.0, 0.5, 2)[0]
    t2 = tail_and_holder_bounds(30.0, 0.05, 640.0, 0.5, 2)[0]
    assert t1 * math.sqrt(10.0) == pytest.approx(t2 * math.sqrt(640.0), rel=1e-12)
    u1 = tail_and_holder_bounds(30.0, 0.05, 10.0, 0.5, 3)[0]
    u2 = tail_and_holder_bounds(30.0, 0.05, 640.0, 0.5, 3)[0]
    assert u1 * 10.0 == pytest.approx(u2 * 640.0, rel=1e-12)


def test_holder_bound_small_exponent_limit():
    got = tail_and_holder_bounds(30.0, 0.1, 10.0, 1e-12, 2)[1]
    assert got == pytest.approx(0.1 ** 1.5 * 10.0 ** -0.5, rel=1e-10)


def test_structural_bounds_reject_bad_exponents():
    with pytest.raises(InvalidExponent):
        tail_and_holder_bounds(30.0, 0.1, 10.0, 0.0, 2)
    with pytest.raises(InvalidExponent):
        tail_and_holder_bounds(30.0, 0.1, 10.0, 1.5, 2)
    with pytest.raises(NonpositiveArgument):
        tail_and_holder_bounds(0.0, 0.1, 10.0, 0.5, 2)


# ---------------------------------------------------------------------------
# decay-parameter selection
# ---------------------------------------------------------------------------

def test_select_tau_values():
    assert select_tau(100.0, 0.25) == pytest.approx(460.51701859880916, rel=1e-14)
    assert select_tau(math.e, 0.3) == pytest.approx(4.0 * math.e * 0.3, rel=1e-14)


def test_select_tau_is_increasing():
    ks = np.linspace(math.e, 500.0, 40)
    taus = [select_tau(float(k), 0.4) for k in ks]
    assert np.all(np.diff(taus) > 0.0)
    assert select_tau(50.0, 0.3) < select_tau(50.0, 0.5)


def test_select_tau_rejects_bad_inputs():
    with pytest.raises(KTooSmall):
        select_tau(2.0, 0.4)
    with pytest.raises(InvalidParameter):
        select_tau(10.0, 0.0)


def test_zeta_default_values():
    assert zeta_default(0.5, 1.0, 2) == pytest.approx(0.25, rel=1e-15)
    assert zeta_default(1.0, 0.9, 2) == pytest.approx(0.45, rel=1e-15)
    assert zeta_default(0.5, 0.9, 3) == pytest.approx(0.25 + 1.0 / 6.0, rel=1e-15)


def test_zeta_default_rejects_out_of_range():
    with pytest.raises(ExponentOutOfRange):
        zeta_default(0.0, 1.0, 2)
    with pytest.raises(ExponentOutOfRange):
        zeta_default(1.2, 1.5, 2)
    with pytest.raises(ExponentOutOfRange):
        zeta_default(1.0 / 3.0, 1.0, 3)
    with pytest.raises(ExponentOutOfRange):
        zeta_default(1.0, 1.0, 3)
    with pytest.raises(UnsupportedDimension):
        zeta_default(0.5, 0.5, 4)


# ---------------------------------------------------------------------------
# integral identity on cap domains
# ---------------------------------------------------------------------------

def identity_case(K):
    dom = make_cap_domain(K=K, L=3.0, M=4.0, varsigma=0.9, cubic=1.5)
    bump = polynomial_bump(dom, amplitude=(1.0, 0.5),
                           linear=[[0.3, -0.2], [0.1, 0.4]],
                           whole_boundary=False)
    tau = select_tau(K, zeta_default(1.0, 0.9, 2))
    probe = make_cgo((0.0, -1.0), (1.0, 0.0), tau, MED)
    return dom, bump, probe


@pytest.mark.parametrize("K", [10.0, 30.0, 100.0])
def test_identity_terms_balance(K):
    dom, bump, probe = identity_case(K)
    br = integral_identity_check(dom, bump, probe, MED)
    assert br.residual_rel < 1e-3
    total = br.i1 + br.i2 + br.i3 + br.i4
    assert abs(br.lhs - total) == pytest.approx(br.residual_abs, rel=1e-12)
    assert br.nodes_used > 0


def _lid_term_by_nodes(dom, bump, probe, refine):
    """Reference: I4 summed node by node, with one jet and one traction per
    node and function, on the lid rule of ``integral_identity_check``."""
    comp = dom.shape
    b, w_cap = comp.chart.b, comp.x1max
    osc = math.sqrt(probe.kappa_s ** 2 + probe.tau ** 2)
    left = _gl_panels(-w_cap, 0.0, osc, factor=refine)
    right = _gl_panels(0.0, w_cap, osc, factor=refine)
    xs = np.concatenate([left[0], right[0]])
    ws = np.concatenate([left[1], right[1]])
    nu = np.array([0.0, 1.0])
    vals = np.zeros(xs.size, dtype=complex)
    for k, x1 in enumerate(xs):
        p = np.array([x1, b])
        jet_u = bump.jet(p)
        t_u = traction(jet_u, nu, MED)
        jet_0 = probe.jet(p)
        t_0 = traction(jet_0, nu, MED)
        vals[k] = jet_0.value @ t_u - jet_u.value @ t_0
    return complex(np.sum(ws * vals))


@pytest.mark.parametrize("K", [4.0, 10.0, 30.0, 100.0])
@pytest.mark.parametrize("refine", [0.25, 1.0])
def test_identity_lid_term_matches_node_loop(K, refine):
    dom, bump, probe = identity_case(K)
    br = integral_identity_check(dom, bump, probe, MED, refine=refine)
    ref = _lid_term_by_nodes(dom, bump, probe, refine)
    assert abs(br.i4 - ref) <= 1e-14 * abs(ref)


def test_identity_residual_drops_under_refinement():
    dom, bump, probe = identity_case(100.0)
    coarse = integral_identity_check(dom, bump, probe, MED, refine=0.25)
    fine = integral_identity_check(dom, bump, probe, MED, refine=0.5)
    assert fine.nodes_used > coarse.nodes_used
    assert fine.residual_rel < 0.5 * coarse.residual_rel


def test_identity_zero_source_is_exact():
    dom = make_cap_domain(K=10.0, L=3.0, M=4.0, varsigma=0.9, cubic=1.5)
    bump = polynomial_bump(dom, amplitude=(0.0, 0.0), whole_boundary=False)
    probe = make_cgo((0.0, -1.0), (1.0, 0.0), select_tau(10.0, 0.45), MED)
    br = integral_identity_check(dom, bump, probe, MED)
    assert br.lhs == 0.0 and br.residual_abs == 0.0


def test_identity_audits_graph_boundary_condition():
    dom, _, probe = identity_case(10.0)
    foreign = polynomial_bump(disk(0.3), amplitude=(1.0, 0.0))
    with pytest.raises(BoundaryConditionViolated):
        integral_identity_check(dom, foreign, probe, MED)


def test_identity_requires_downward_probe():
    dom, bump, _ = identity_case(10.0)
    sideways = make_cgo((1.0, 0.0), (0.0, 1.0), select_tau(10.0, 0.45), MED)
    with pytest.raises(InvalidDirection):
        integral_identity_check(dom, bump, sideways, MED)


def test_identity_rejects_non_cap_domains():
    bump = polynomial_bump(disk(0.3), amplitude=(1.0, 0.0))
    probe = make_cgo((0.0, -1.0), (1.0, 0.0), 40.0, MED)
    with pytest.raises(UnsupportedDimension):
        integral_identity_check(disk(0.3), bump, probe, MED)


def test_identity_enforces_node_budget():
    dom, bump, probe = identity_case(10.0)
    with pytest.raises(QuadratureBudgetExceeded):
        integral_identity_check(dom, bump, probe, MED, node_budget=100)
    with pytest.raises(InvalidParameter):
        integral_identity_check(dom, bump, probe, MED, refine=0.0)


def test_boundary_term_bound_formula():
    got = boundary_term_bound(10.0, 0.1, 10.0, 0.5, 2.0)
    assert got == pytest.approx(0.4 * math.exp(-1.0), rel=1e-14)
    with pytest.raises(NonpositiveArgument):
        boundary_term_bound(0.0, 0.1, 10.0, 0.5, 1.0)
    with pytest.raises(InvalidExponent):
        boundary_term_bound(10.0, 0.1, 10.0, 1.5, 1.0)


# ---------------------------------------------------------------------------
# flat-point traction system
# ---------------------------------------------------------------------------

def test_graph_vanishing_bump_is_flat_at_contact_point():
    # the flat-point hypothesis, manufactured: zero boundary data on the
    # graph forces the full gradient to vanish at the contact point
    dom = make_cap_domain(K=10.0, L=3.0, M=4.0, varsigma=0.9, cubic=1.5)
    bump = polynomial_bump(dom, amplitude=(1.0, 0.5),
                           linear=[[0.3, -0.2], [0.1, 0.4]],
                           whole_boundary=False)
    origin = np.zeros(2)
    assert np.max(np.abs(bump.gradient(origin))) < 1e-15
    tr = traction(bump.jet(origin), np.array([0.0, -1.0]), MED)
    assert np.max(np.abs(tr)) < 1e-15
    h = 1e-3
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        fd = (-bump.value(origin + 2 * e) + 8.0 * bump.value(origin + e)
              - 8.0 * bump.value(origin - e) + bump.value(origin - 2 * e)) / (12.0 * h)
        assert np.max(np.abs(fd)) < 1e-8


def test_cap_bump_needs_graph_only_profile():
    # a cap's level function vanishes on the graph only, so a bump that
    # would also vanish on the lid is refused
    dom = make_cap_domain(K=10.0, L=3.0, M=4.0, varsigma=0.9)
    with pytest.raises(InvalidParameter, match="whole_boundary=False"):
        polynomial_bump(dom)
    with pytest.raises(InvalidParameter, match="whole_boundary=False"):
        polynomial_bump(dom, whole_boundary=True)


@pytest.mark.parametrize("domain, whole_boundary, box", [
    (lambda: disk(0.5, center=(0.1, -0.2)), True, [(-0.4, -0.7), (0.6, 0.3)]),
    (lambda: ellipse(0.4, 0.25), True, [(-0.4, -0.25), (0.4, 0.25)]),
    (lambda: make_cap_domain(K=10.0, L=3.0, M=4.0, varsigma=0.9, cubic=1.5),
     False, [(-0.1, 0.0), (0.1, 0.1)]),
])
def test_bump_is_independent_of_the_batch(domain, whole_boundary, box):
    bump = polynomial_bump(domain(), amplitude=(1.0, 0.5),
                           linear=[[0.3, -0.2], [0.1, 0.4]],
                           whole_boundary=whole_boundary)
    x = np.random.default_rng(22).uniform(*box, size=(400, 2))
    value, gradient = bump.value(x), bump.gradient(x)
    density = bump.source_density(x, MED)
    jet = bump.jet(x)
    assert np.array_equal(jet.value, value) and np.array_equal(jet.gradient, gradient)
    for k in range(x.shape[0]):
        assert np.array_equal(bump.value(x[k]), value[k])
        assert np.array_equal(bump.gradient(x[k]), gradient[k])
        assert np.array_equal(bump.source_density(x[k], MED), density[k])
        single = bump.jet(x[k])
        assert np.array_equal(single.value, value[k])
        assert np.array_equal(single.gradient, gradient[k])
