"""Fundamental solutions, the elastic kernel tensor, and special functions.

The oracles here are deliberately independent of the library code paths:
Bessel values come from their power series and ``scipy.special.hankel1``,
incomplete-gamma values from adaptive quadrature of the defining integrand,
and PDE residuals from finite differences of the kernels themselves.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from elastoscat import (
    disk,
    ellipse,
    farfield_kernels,
    helmholtz_fundamental,
    kupradze_tensor,
    lower_incomplete_gamma,
    make_medium,
    singular_cell_integral,
    volume_mesh,
)
from elastoscat import greens
from elastoscat.greens import _phi_derivs, farfield_kernels_batch, kupradze_batch
from elastoscat.errors import (
    CoincidentPoints,
    InvalidParameter,
    NonpositiveArgument,
    UnsupportedDimension,
)
from elastoscat.scattering import LatticeOperator

EULER_GAMMA = 0.5772156649015328606
MED2 = make_medium(2.0, 1.0, 2.0, 2)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def bessel_j0_series(z, terms=40):
    """Power series sum_k (-1)^k (z^2/4)^k / (k!)^2."""
    q = z * z / 4.0
    total, term = 1.0, 1.0
    for k in range(1, terms):
        term *= -q / (k * k)
        total += term
    return total


def bessel_y0_series(z, terms=40):
    """(2/pi)[(ln(z/2) + gamma) J0(z) + sum_k (-1)^{k+1} H_k (z^2/4)^k/(k!)^2]."""
    q = z * z / 4.0
    total = 0.0
    term = 1.0
    harmonic = 0.0
    for k in range(1, terms):
        term *= q / (k * k)
        harmonic += 1.0 / k
        total += (-1) ** (k + 1) * harmonic * term
    return (2.0 / math.pi) * ((math.log(z / 2.0) + EULER_GAMMA)
                              * bessel_j0_series(z, terms) + total)


def gamma_lower_quad(t, c):
    """Adaptive quadrature of the defining integral, complex exponent allowed."""
    re = quad(lambda x: math.exp(-x) * (x ** complex(c)).real / x,
              0.0, t, epsabs=1e-13, epsrel=1e-13)[0]
    im = quad(lambda x: math.exp(-x) * (x ** complex(c)).imag / x,
              0.0, t, epsabs=1e-13, epsrel=1e-13)[0]
    return re + 1j * im


# ---------------------------------------------------------------------------
# the Hankel function behind the 2-D kernel
# ---------------------------------------------------------------------------

def hankel0(z):
    """``(H0^(1)(z), H0^(1)'(z))`` read off the 2-D kernel derivatives at
    kappa = 1, where ``Phi = (i/4) H0`` and ``Phi' = (i/4) H0'``."""
    phi, dphi, _ = _phi_derivs(1.0, z, 2)
    return complex(-4j * phi), complex(-4j * dphi)


def test_hankel_small_argument_matches_power_series():
    h0, _ = hankel0(1.0)
    assert h0.real == pytest.approx(bessel_j0_series(1.0), abs=1e-12)
    assert h0.imag == pytest.approx(bessel_y0_series(1.0), abs=1e-12)
    # frozen reference values
    assert h0.real == pytest.approx(0.7651976866, abs=1e-10)
    assert h0.imag == pytest.approx(0.0882569642, abs=1e-10)


def test_hankel_wronskian_identity():
    for z in (0.5, 1.0, 5.0, 20.0):
        h0, dh0 = hankel0(z)
        # J0 Y0' - J0' Y0 = Im(conj(H0) H0') for H0 = J0 + i Y0
        w = (np.conj(h0) * dh0).imag
        assert w == pytest.approx(2.0 / (math.pi * z), abs=1e-10)


def test_hankel_asymptotic_modulus():
    z = 1000.0
    h0, _ = hankel0(z)
    assert abs(h0) * math.sqrt(z) == pytest.approx(math.sqrt(2.0 / math.pi),
                                                   abs=1e-6)


# Worst relative error of H0 and H1 against scipy.special.hankel1 in each band
# of greens._hankel01: the ascending series below 4, Miller's recurrence from
# 4 to 19, Hankel's expansion above.  Measured on 200,001 log-spaced points
# of [1e-6, 1e4] and 2,000 on each side of each crossover: 1.2e-15 (z < 3),
# 3.6e-15 (3 <= z < 4), 1.9e-15 (4 <= z < 19) and 1.1e-15 (z >= 19).
HANKEL_BANDS = [(0.0, 3.0, 2e-15), (3.0, 4.0, 5e-15), (4.0, 19.0, 3e-15),
                (19.0, np.inf, 2e-15)]


@pytest.mark.parametrize("lo,hi,bound", HANKEL_BANDS)
def test_hankel_matches_scipy(lo, hi, bound):
    from scipy.special import hankel1

    crossings = [np.nextafter(c, side) for c in (4.0, 19.0) for side in (0.0, 1e4)]
    z = np.concatenate([np.geomspace(1e-6, 1e4, 20001), np.linspace(3.9, 4.1, 2001),
                        np.linspace(18.9, 19.1, 2001), [4.0, 19.0], crossings])
    z = z[(z >= lo) & (z < hi)]
    for order, got in enumerate(greens._hankel01(z)):
        want = hankel1(order, z)
        assert np.max(np.abs(got - want) / np.abs(want)) <= bound, order


def test_hankel_of_nan_is_nan():
    h0, h1 = greens._hankel01(np.array([np.nan, 1.0]))
    assert np.isnan(h0[0]) and np.isnan(h1[0]) and np.all(np.isfinite([h0[1], h1[1]]))


# ---------------------------------------------------------------------------
# helmholtz_fundamental
# ---------------------------------------------------------------------------

def test_scalar_kernel_3d_unit_separation():
    val = helmholtz_fundamental(np.array([1.0, 0.0, 0.0]), np.zeros(3), 1.0, 3)
    want = np.exp(1j) / (4.0 * np.pi)
    assert val == pytest.approx(want, abs=1e-15)
    assert val.real == pytest.approx(0.04300, abs=2e-5)
    assert val.imag == pytest.approx(0.06697, abs=2e-5)


def test_scalar_kernel_2d_large_argument_asymptote():
    # leading-order error is 1/(8z): ~6e-4 at z=200, ~6e-5 at z=2000
    kappa = 1.0
    for r, tol in ((200.0, 1e-3), (2000.0, 1e-4)):
        val = helmholtz_fundamental(np.array([r, 0.0]), np.zeros(2), kappa, 2)
        z = kappa * r
        asym = 0.25j * math.sqrt(2.0 / (math.pi * z)) \
            * np.exp(1j * (z - math.pi / 4.0))
        err = abs(val - asym) / abs(asym)
        assert err < tol
        assert err == pytest.approx(1.0 / (8.0 * z), rel=0.05)


@pytest.mark.parametrize("dim,kappa", [(2, 1.0), (2, 3.0), (3, 2.0)])
def test_scalar_kernel_pde_residual(dim, kappa):
    y = np.zeros(dim)
    x0 = np.full(dim, 0.9 / math.sqrt(dim))
    h = 1e-3

    def phi(x):
        return helmholtz_fundamental(x, y, kappa, dim)

    lap = 0.0 + 0.0j
    for k in range(dim):
        e = np.zeros(dim)
        e[k] = h
        # fourth-order second difference
        lap += (-phi(x0 + 2 * e) + 16 * phi(x0 + e) - 30 * phi(x0)
                + 16 * phi(x0 - e) - phi(x0 - 2 * e)) / (12 * h * h)
    res = abs(lap + kappa ** 2 * phi(x0)) / abs(kappa ** 2 * phi(x0))
    assert res < 1e-6


def test_scalar_kernel_rejects_coincident_points():
    with pytest.raises(CoincidentPoints):
        helmholtz_fundamental(np.zeros(2), np.zeros(2), 1.0, 2)
    with pytest.raises(UnsupportedDimension):
        helmholtz_fundamental(np.zeros(4), np.ones(4), 1.0, 4)


# ---------------------------------------------------------------------------
# lower_incomplete_gamma
# ---------------------------------------------------------------------------

def test_gamma_exponential_identity():
    for t in (0.1, 1.0, 10.0):
        val = lower_incomplete_gamma(t, 1.0)
        assert val == pytest.approx(1.0 - math.exp(-t), abs=1e-14)


def test_gamma_complete_limit():
    val = lower_incomplete_gamma(50.0, 1.5)
    assert val.real == pytest.approx(math.sqrt(math.pi) / 2.0, abs=1e-10)
    assert val.real == pytest.approx(0.8862269, abs=1e-7)
    assert abs(val.imag) < 1e-14


def test_gamma_against_quadrature():
    want = gamma_lower_quad(2.0, 2.5)
    got = lower_incomplete_gamma(2.0, 2.5)
    assert abs(got - want) < 1e-10


def test_gamma_rejects_complex_exponent():
    with pytest.raises(InvalidParameter):
        lower_incomplete_gamma(3.0, 1.5 + 0.5j)
    # a complex number with a zero imaginary part is still a real exponent
    assert lower_incomplete_gamma(2.0, 2.5 + 0j) == lower_incomplete_gamma(2.0, 2.5)


@pytest.mark.parametrize("c", [0.5, 1.0, 1.5, 2.0, 2.5, 7.3])
def test_gamma_matches_the_library_function(c):
    from scipy.special import gamma, gammainc

    # both sides of the series / continued-fraction switch at t = c + 1
    ts = list(np.geomspace(1e-6, 2000.0, 120)) + [
        np.nextafter(c + 1.0, 0.0), c + 1.0, np.nextafter(c + 1.0, np.inf)]
    for t in ts:
        want = gamma(c) * gammainc(c, t)
        got = lower_incomplete_gamma(t, c)
        assert got.imag == 0.0
        assert abs(got.real - want) <= 1e-13 * want, t
    assert lower_incomplete_gamma(0.0, c) == 0.0


def test_gamma_beyond_the_float_range_is_infinite():
    # as the library's gamma * gammainc reads it
    for t in (150.0, 300.0):
        assert lower_incomplete_gamma(t, 200.0) == math.inf


def test_gamma_rejects_bad_arguments():
    with pytest.raises(InvalidParameter):
        lower_incomplete_gamma(1.0, -0.5)
    with pytest.raises(NonpositiveArgument):
        lower_incomplete_gamma(-1.0, 1.5)


# ---------------------------------------------------------------------------
# kupradze_tensor
# ---------------------------------------------------------------------------

def test_tensor_reciprocity():
    rng = np.random.default_rng(21)
    for dim in (2, 3):
        med = make_medium(2.0, 1.0, 2.0, dim)
        for _ in range(10):
            x = rng.uniform(-2, 2, size=dim)
            y = rng.uniform(-2, 2, size=dim)
            if np.linalg.norm(x - y) < 0.1:
                continue
            a = kupradze_tensor(x, y, med)
            b = kupradze_tensor(y, x, med)
            assert np.max(np.abs(a - b.T)) < 1e-12 * np.max(np.abs(a))


def test_tensor_column_solves_system():
    med = make_medium(2.0, 1.0, 2.0, 2)
    y = np.zeros(2)
    x0 = np.array([0.9, 0.4])
    h = 2.0 * np.pi / (med.kappa_s * 120.0)

    def column(x, j):
        return kupradze_tensor(x, y, med)[:, j]

    def d1(f, x, k):
        e = np.zeros(2)
        e[k] = h
        return (-f(x + 2 * e) + 8 * f(x + e) - 8 * f(x - e) + f(x - 2 * e)) \
            / (12 * h)

    def d2_pure(f, x, k):
        e = np.zeros(2)
        e[k] = h
        return (-f(x + 2 * e) + 16 * f(x + e) - 30 * f(x)
                + 16 * f(x - e) - f(x - 2 * e)) / (12 * h * h)

    for j in range(2):
        f = lambda x: column(x, j)
        u0 = f(x0)
        d11 = d2_pure(f, x0, 0)
        d22 = d2_pure(f, x0, 1)
        d12 = d1(lambda x: d1(f, x, 1), x0, 0)
        lap = d11 + d22
        grad_div = np.array([d11[0] + d12[1], d12[0] + d22[1]])
        res = med.mu * lap + (med.lam + med.mu) * grad_div + med.omega ** 2 * u0
        rel = np.linalg.norm(res) / (med.omega ** 2 * np.linalg.norm(u0))
        assert rel < 1e-5


def test_tensor_radial_decay_rate():
    med = make_medium(2.0, 1.0, 2.0, 2)
    xhat = np.array([0.6, 0.8])
    radii = np.geomspace(5.0, 500.0, 60)
    mags = []
    for r in radii:
        g = kupradze_tensor(r * xhat, np.zeros(2), med)
        mags.append(np.linalg.norm(g))
    slope = np.polyfit(np.log(radii), np.log(mags), 1)[0]
    assert slope == pytest.approx(-0.5, abs=0.025)


def test_tensor_batch_matches_single():
    med = make_medium(2.0, 1.0, 2.0, 2)
    diffs = np.array([[1.0, 0.3], [-0.4, 0.9], [2.0, -1.0]])
    batch = kupradze_batch(diffs, med)
    for k, d in enumerate(diffs):
        single = kupradze_tensor(d, np.zeros(2), med)
        assert np.max(np.abs(batch[k] - single)) < 1e-14


def _kupradze_by_rows(diffs, medium):
    """Reference: the scalar kernels evaluated at every row's separation, as
    kupradze_batch once did, then the same tensor arithmetic."""
    n = medium.dim
    r = np.linalg.norm(diffs, axis=1)
    e = diffs / r[:, None]
    ps, dps, dds = _phi_derivs(medium.kappa_s, r, n)
    pp, dpp, ddp = _phi_derivs(medium.kappa_p, r, n)
    co_ee = (dds - ddp) - (dps - dpp) / r
    co_id = (dps - dpp) / r
    ee = e[:, :, None] * e[:, None, :]
    return (ps / medium.mu + co_id / medium.omega ** 2)[:, None, None] * np.eye(n) \
        + (co_ee / medium.omega ** 2)[:, None, None] * ee


def _lattice_offsets(domain, h):
    """Every nonzero offset ``o * h`` of a cell mesh's lattice, as the
    lattice operator's kernel table takes them."""
    nodes = volume_mesh(domain, h=h).nodes
    nx, ny = np.round((nodes.max(axis=0) - nodes.min(axis=0)) / h).astype(int) + 1
    ox, oy = np.meshgrid(np.arange(1 - nx, nx), np.arange(1 - ny, ny), indexing="ij")
    offsets = np.stack([ox.ravel(), oy.ravel()], axis=1)
    return offsets[np.any(offsets != 0, axis=1)] * h


KERNEL_DIFFS = {
    **{f"{name}-h{h}": (lambda dom=dom, h=h: _lattice_offsets(dom, h), 2)
       for name, dom in (("disk", disk(0.45)), ("ellipse", ellipse(0.6, 0.4, (0.1, -0.05))))
       for h in (0.03, 0.05)},
    "random-2d": (lambda: np.random.default_rng(4).normal(size=(2000, 2)), 2),
    "random-3d": (lambda: np.random.default_rng(5).normal(size=(2000, 3)), 3),
}


@pytest.mark.parametrize("case", list(KERNEL_DIFFS))
def test_kupradze_batch_matches_rowwise_kernels_bit_for_bit(case):
    # the scalar kernels are taken once per distinct radius and indexed back
    make, dim = KERNEL_DIFFS[case]
    diffs = make()
    med = make_medium(2.0, 1.0, 2.0, dim)
    assert np.array_equal(kupradze_batch(diffs, med), _kupradze_by_rows(diffs, med))


@pytest.mark.parametrize("h,radii,offsets", [(0.03, 454, 3720), (0.05, 152, 1224)])
def test_lattice_table_evaluates_each_radius_once(monkeypatch, h, radii, offsets):
    sizes = []

    def counted(kappa, r, dim):
        sizes.append(np.size(r))
        return _phi_derivs(kappa, r, dim)

    monkeypatch.setattr(greens, "_phi_derivs", counted)
    assert len(_lattice_offsets(disk(0.45), h)) == offsets
    LatticeOperator(volume_mesh(disk(0.45), h=h), MED2)
    assert sizes == [radii, radii]


@pytest.mark.parametrize("call", [
    lambda: kupradze_batch(np.array([[np.nan, 0.0], [1.0, 0.0]]), MED2),
    lambda: kupradze_tensor(np.array([np.inf, 0.0]), np.zeros(2), MED2),
    lambda: helmholtz_fundamental(np.array([np.nan, 0.0]), np.zeros(2), 2.0, 2),
], ids=["kupradze_batch", "kupradze_tensor", "helmholtz_fundamental"])
def test_kernels_reject_non_finite_points(call):
    with pytest.raises(InvalidParameter, match="finite"):
        call()


@pytest.mark.parametrize("call", [
    lambda: kupradze_batch(np.array([[1.0, 0.0], [0.0, 0.0]]), MED2),
    lambda: kupradze_tensor(np.array([0.3, 0.4]), np.array([0.3, 0.4]), MED2),
], ids=["kupradze_batch", "kupradze_tensor"])
def test_kernels_reject_zero_separation(call):
    with pytest.raises(CoincidentPoints):
        call()


def test_scalar_kernel_rejects_nan_wavenumber():
    # a guard written ``kappa <= 0`` let NaN through to a NaN value
    with pytest.raises(NonpositiveArgument, match="nan"):
        helmholtz_fundamental(np.array([1.0, 0.0]), np.zeros(2), math.nan, 2)


def test_singular_cell_matches_refined_quadrature():
    # integral of G over the h-cell around the singularity, by annular
    # subdivision that avoids the center node
    med = make_medium(2.0, 1.0, 2.0, 2)
    h = 0.01
    block = singular_cell_integral(med, h)
    n = 400
    xs = (np.arange(n) + 0.5) / n * h - h / 2.0
    xx, yy = np.meshgrid(xs, xs, indexing="ij")
    pts = np.stack([xx.ravel(), yy.ravel()], axis=-1)
    g = kupradze_batch(pts, med)
    ref = np.sum(g, axis=0) * (h / n) ** 2
    assert np.max(np.abs(block - ref)) < 1e-4 * np.max(np.abs(ref))


# ---------------------------------------------------------------------------
# far-field kernels
# ---------------------------------------------------------------------------

def test_farfield_shear_kernel_is_tangential():
    med = make_medium(2.0, 1.0, 2.0, 2)
    rng = np.random.default_rng(5)
    for _ in range(20):
        th = rng.uniform(0, 2 * np.pi)
        xhat = np.array([np.cos(th), np.sin(th)])
        y = rng.uniform(-1, 1, size=2)
        _, s_mat = farfield_kernels(xhat, y, med)
        f = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        out = s_mat @ f
        assert abs(out @ xhat) < 1e-14 * max(np.linalg.norm(out), 1e-30)


def _stripping_errors(med, r, y, f, th):
    """(combined, radial, tangential) relative mismatch at radius r."""
    xhat = np.array([np.cos(th), np.sin(th)])
    gf = kupradze_tensor(r * xhat, y, med) @ f
    radial = gf @ xhat
    tang = gf - radial * xhat
    p_scal, s_mat = farfield_kernels(xhat, y, med)
    # far field: u ~ e^{i kappa r}/sqrt(r) * amplitude per channel
    want_radial = np.exp(1j * med.kappa_p * r) / np.sqrt(r) * p_scal * (f @ xhat)
    want_tang = np.exp(1j * med.kappa_s * r) / np.sqrt(r) * (s_mat @ f)
    comb = np.sqrt(abs(radial - want_radial) ** 2
                   + np.linalg.norm(tang - want_tang) ** 2) / np.linalg.norm(gf)
    return (comb,
            abs(radial - want_radial) / abs(want_radial),
            np.linalg.norm(tang - want_tang) / np.linalg.norm(want_tang))


def test_farfield_kernels_match_large_radius_stripping():
    """Kernel amplitudes against the kernel tensor at 200 shear wavelengths."""
    med = make_medium(2.0, 1.0, 2.0, 2)
    lam_s = 2.0 * np.pi / med.kappa_s
    y = np.array([0.13, -0.07])
    f = np.array([0.8, -0.5]) + 1j * np.array([0.1, 0.3])
    for th in (0.0, 0.9, 2.2, 4.0):
        comb, _, err_t = _stripping_errors(med, 200.0 * lam_s, y, f, th)
        assert comb < 1e-3
        assert err_t < 1e-3
        # per-channel agreement needs a larger radius: the pressure channel
        # carries O(1/(kappa_p r)) corrections
        _, err_r, err_t = _stripping_errors(med, 800.0 * lam_s, y, f, th)
        assert err_r < 1e-3 and err_t < 2e-4


def test_farfield_stripping_error_decays_first_order():
    med = make_medium(2.0, 1.0, 2.0, 2)
    lam_s = 2.0 * np.pi / med.kappa_s
    y = np.zeros(2)
    f = np.array([1.0, 0.4]) + 0.0j
    e200 = _stripping_errors(med, 200.0 * lam_s, y, f, 0.9)[0]
    e800 = _stripping_errors(med, 800.0 * lam_s, y, f, 0.9)[0]
    assert e800 == pytest.approx(e200 / 4.0, rel=0.2)


def test_farfield_translation_phase():
    med = make_medium(2.0, 1.0, 2.0, 2)
    xhat = np.array([0.6, 0.8])
    t = np.array([0.37, -0.21])
    p0, s0 = farfield_kernels(xhat, np.zeros(2), med)
    p1, s1 = farfield_kernels(xhat, t, med)
    assert p1 == pytest.approx(p0 * np.exp(-1j * med.kappa_p * (xhat @ t)),
                               abs=1e-15)
    assert np.allclose(s1, s0 * np.exp(-1j * med.kappa_s * (xhat @ t)),
                       atol=1e-15)


def test_farfield_batch_matches_single():
    med = make_medium(2.0, 1.0, 2.0, 2)
    xhat = np.array([0.0, 1.0])
    ys = np.array([[0.1, 0.2], [-0.3, 0.4]])
    pb, sb = farfield_kernels_batch(xhat, ys, med)
    for k, y in enumerate(ys):
        p, s = farfield_kernels(xhat, y, med)
        assert pb[k] == pytest.approx(p, abs=1e-16)
        assert np.allclose(sb[k], s, atol=1e-16)


def test_farfield_constants_3d_match_kernel_at_large_radius():
    """The 3-D amplitudes against the kernel tensor at R xhat - y: the
    mismatch falls about tenfold per decade of R."""
    med = make_medium(2.0, 1.0, 2.0, 3)
    y = np.array([0.13, -0.07, 0.21])
    for xhat in (np.array([2.0, -1.0, 2.0]) / 3.0, np.array([0.0, 0.0, 1.0]),
                 np.array([0.6, 0.8, 0.0])):
        p, s = farfield_kernels_batch(xhat, y[None], med)
        errs = []
        for r in (1e4, 1e5):
            g = kupradze_batch((r * xhat - y)[None], med)[0]
            want = (np.exp(1j * med.kappa_p * r) * p[0] * np.outer(xhat, xhat)
                    + np.exp(1j * med.kappa_s * r) * s[0]) / r
            errs.append(np.linalg.norm(g - want) / np.linalg.norm(g))
        assert errs[0] <= 2e-4
        assert errs[1] <= errs[0] / 5.0
