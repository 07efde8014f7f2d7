"""Release acceptance checks: one test per shipped guarantee.

Every test prints a single ``[criterion NN] label: PASS/FAIL`` line before
asserting, so a verbose run with ``-s`` (or the captured output of a failing
run) doubles as the sign-off report.  Tolerances are the published ones; the
sweep designs (grids, seeds, calibration/holdout splits) are frozen here so
the suite is deterministic.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from elastoscat import (
    MediumScatterer,
    SourceProblem,
    FarFieldPattern,
    boundary_mesh,
    boundary_term_bound,
    calibrate_constant,
    calibrate_contraction_scale,
    diameter,
    diameter_lower_bound,
    directions_circle,
    disk,
    ellipse,
    farfield_kernels,
    farfield_norm,
    farfield_of_source,
    field_norms,
    gauss_mesh,
    holder_seminorm,
    integral_identity_check,
    kdecay_rhs,
    kupradze_tensor,
    lame_operator_fd,
    lower_incomplete_gamma,
    make_cap_domain,
    make_cgo,
    make_incident,
    make_medium,
    make_nonradiating,
    medium_small_criterion,
    paraboloid_integral_closed,
    paraboloid_integral_mc,
    polynomial_bump,
    probe_grid,
    select_tau,
    shell_integral,
    small_support_criterion,
    small_support_rhs,
    solve_medium,
    solve_source,
    tail_and_holder_bounds,
    upsilon,
    volume_mesh,
    zeta_default,
)
from elastoscat.cgo import RESIDUAL_MIN_PPW, cgo_residual
from elastoscat.errors import GridTooCoarse

MED = make_medium(2.0, 1.0, 2.0, 2)
MED3 = make_medium(2.0, 1.0, 2.0, 3)
LIN = np.array([[0.3, -0.2], [0.1, 0.4]])


def _report(num: int, label: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {label}: {status} ({detail})")
    assert ok, f"criterion {num:02d} {label}: {detail}"


# ---------------------------------------------------------------------------
# 1. probe algebra
# ---------------------------------------------------------------------------

def test_criterion_01_probe_algebra():
    rng = np.random.default_rng(1)
    worst_char = worst_orth = 0.0
    for med in (MED, MED3):
        n = med.dim
        for _ in range(1000):
            d = rng.standard_normal(n)
            d /= np.linalg.norm(d)
            while True:
                v = rng.standard_normal(n)
                v -= (v @ d) * d
                nv = np.linalg.norm(v)
                if nv > 0.1:
                    break
            v -= (v @ d) * d          # second pass kills projection round-off
            dp = v / np.linalg.norm(v)
            tau = rng.uniform(1.05 * med.kappa_s, 15.0)
            p = make_cgo(d, dp, tau, med)
            worst_char = max(worst_char,
                             abs(complex(np.sum(p.xi * p.xi)) + med.kappa_s ** 2))
            worst_orth = max(worst_orth, abs(complex(np.sum(p.xi * p.eta))))
    ok = worst_char <= 1e-12 and worst_orth <= 1e-12
    _report(1, "probe algebra", ok,
            f"2000 probes, worst |xi.xi+ks^2|={worst_char:.2e}, "
            f"worst |xi.eta|={worst_orth:.2e}")


# ---------------------------------------------------------------------------
# 2. probe PDE residual
# ---------------------------------------------------------------------------

def test_criterion_02_probe_pde_residual():
    # the 12-ppw density is the enforced floor for residual grids
    assert RESIDUAL_MIN_PPW == 12.0
    p0 = make_cgo((0.0, -1.0), (1.0, 0.0), 2.0 * MED.kappa_s, MED)
    osc0 = math.sqrt(MED.kappa_s ** 2 + p0.tau ** 2)
    with pytest.raises(GridTooCoarse):
        cgo_residual(p0, MED, probe_grid(p0, 2.0 * math.pi / (osc0 * 11.0), 8))

    residuals = []
    for ratio in (2.0, 10.0, 100.0):
        p = make_cgo((0.0, -1.0), (1.0, 0.0), ratio * MED.kappa_s, MED)
        osc = math.sqrt(MED.kappa_s ** 2 + p.tau ** 2)
        h = 2.0 * math.pi / (osc * 6000.0)
        residuals.append(cgo_residual(p, MED, probe_grid(p, h, 8)))

    hs, rs = [], []
    for ppw in (50.0, 100.0, 200.0):
        h = 2.0 * math.pi / (osc0 * ppw)
        hs.append(h)
        rs.append(cgo_residual(p0, MED, probe_grid(p0, h, 8)))
    slope = float(np.polyfit(np.log(hs), np.log(rs), 1)[0])

    ok = max(residuals) < 1e-6 and abs(slope - 2.0) <= 0.1
    _report(2, "probe PDE residual", ok,
            f"max residual={max(residuals):.2e}, refinement slope={slope:.3f}")


# ---------------------------------------------------------------------------
# 3. paraboloid integral oracles
# ---------------------------------------------------------------------------

def test_criterion_03_paraboloid_integral_oracles():
    i = 0
    worst_z = worst_rel = 0.0
    for dim, med in ((2, MED), (3, MED3)):
        for K in (2.0, 5.0, 20.0):
            for tau in (4.0, 8.0, 12.0):
                s = math.sqrt(med.kappa_s ** 2 + tau ** 2)
                xi = np.zeros(dim, complex)
                xi[0] = 1j * s
                xi[-1] = -tau
                closed = paraboloid_integral_closed(xi, K, dim)
                seed = int(np.random.SeedSequence([2, i]).generate_state(1)[0])
                est, se = paraboloid_integral_mc(xi, K, dim,
                                                 samples=400_000, seed=seed)
                worst_z = max(worst_z, abs(est - closed) / se)
                worst_rel = max(worst_rel, abs(est - closed) / abs(closed))
                i += 1

    # 1-D reduction oracles: transversally oscillating 2-D column quadrature
    # and the purely axial (axisymmetric) 3-D slice integral
    tau, K = 10.0 * MED.kappa_s, 7.0
    p = make_cgo((0.0, -1.0), (1.0, 0.0), tau, MED)
    xi = p.xi

    def col(x, part):
        v = np.exp(xi[0] * x) * (-np.exp(xi[1] * K * x * x) / xi[1])
        return v.real if part == "re" else v.imag

    width = math.sqrt(60.0 / (tau * K))
    re, _ = quad(col, -width, width, args=("re",), limit=400, epsabs=1e-13)
    im, _ = quad(col, -width, width, args=("im",), limit=400, epsabs=1e-13)
    closed2 = paraboloid_integral_closed(xi, K, 2)
    rel_col = abs(complex(re, im) - closed2) / abs(closed2)

    xi3 = np.array([0.0, 0.0, -tau], dtype=complex)
    val3, _ = quad(lambda t: math.exp(-tau * t) * math.pi * t / K,
                   0.0, 80.0 / tau, limit=400, epsabs=1e-13)
    closed3 = paraboloid_integral_closed(xi3, K, 3)
    rel_ax = abs(val3 - closed3) / abs(closed3)

    ok = (worst_z <= 3.0 and worst_rel <= 0.02
          and rel_col < 1e-6 and rel_ax < 1e-6)
    _report(3, "paraboloid integral oracles", ok,
            f"18-point MC grid worst z={worst_z:.2f}, worst rel={worst_rel:.1e}; "
            f"1-D reductions rel={rel_col:.1e}/{rel_ax:.1e}")


# ---------------------------------------------------------------------------
# 4. shell integral and gamma identities
# ---------------------------------------------------------------------------

def _shell_quad(km, kp, tau, b, dim):
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


def test_criterion_04_shell_integral_and_gamma():
    points = [(5.0, 20.0, 40.0, 0.1, 2), (3.0, 9.0, 25.0, 0.3, 2),
              (2.0, 6.0, 60.0, 0.05, 2), (5.0, 20.0, 40.0, 0.1, 3),
              (8.0, 32.0, 120.0, 0.02, 3)]
    worst = 0.0
    for km, kp, tau, b, dim in points:
        got = shell_integral(km, kp, tau, b, dim)
        want = _shell_quad(km, kp, tau, b, dim)
        worst = max(worst, abs(got - want) / abs(want))

    worst_g = 0.0
    for x in (0.1, 1.0, 3.7, 10.0):
        worst_g = max(worst_g, abs(lower_incomplete_gamma(x, 1.0)
                                   - (1.0 - math.exp(-x))))
    worst_g = max(worst_g, abs(lower_incomplete_gamma(50.0, 1.5)
                               - math.sqrt(math.pi) / 2.0))

    ok = worst < 1e-6 and worst_g < 1e-10
    _report(4, "shell integral and gamma identities", ok,
            f"5 points worst rel={worst:.1e}, gamma identities "
            f"worst abs={worst_g:.1e}")


# ---------------------------------------------------------------------------
# 5. Green tensor checks
# ---------------------------------------------------------------------------

def test_criterion_05_green_tensor():
    rng = np.random.default_rng(3)
    worst_rec = 0.0
    for med in (MED, MED3):
        n = med.dim
        for _ in range(20):
            while True:
                x = rng.uniform(-1.0, 1.0, size=n)
                y = rng.uniform(-1.0, 1.0, size=n)
                if np.linalg.norm(x - y) > 0.2:
                    break
            ga = kupradze_tensor(x, y, med)
            gb = kupradze_tensor(y, x, med)
            worst_rec = max(worst_rec, float(np.max(np.abs(ga - gb.T))
                                             / np.max(np.abs(ga))))

    worst_fd = 0.0
    for med in (MED, MED3):
        n = med.dim
        y = np.zeros(n)
        x0 = np.full(n, 0.7)
        x0[0] = 0.9
        h = 2.0 * math.pi / (med.kappa_s * 120.0)
        for j in range(n):
            def col(x, j=j, med=med, y=y):
                return kupradze_tensor(np.asarray(x, dtype=float), y, med)[:, j]
            res = lame_operator_fd(col, x0, med, step=h, order=4)
            rel = np.linalg.norm(res) / (med.omega ** 2
                                         * np.linalg.norm(col(x0)))
            worst_fd = max(worst_fd, float(rel))

    lam_s = 2.0 * math.pi / MED.kappa_s
    r = 200.0 * lam_s
    y = np.array([0.13, -0.07])
    f = np.array([0.8, -0.5]) + 1j * np.array([0.1, 0.3])
    worst_strip = 0.0
    for th in (0.0, 0.9, 2.2, 4.0):
        xhat = np.array([math.cos(th), math.sin(th)])
        gf = kupradze_tensor(r * xhat, y, MED) @ f
        radial = gf @ xhat
        tang = gf - radial * xhat
        p_scal, s_mat = farfield_kernels(xhat, y, MED)
        want_radial = np.exp(1j * MED.kappa_p * r) / math.sqrt(r) \
            * p_scal * (f @ xhat)
        want_tang = np.exp(1j * MED.kappa_s * r) / math.sqrt(r) * (s_mat @ f)
        comb = math.sqrt(abs(radial - want_radial) ** 2
                         + np.linalg.norm(tang - want_tang) ** 2) \
            / np.linalg.norm(gf)
        worst_strip = max(worst_strip, comb)

    ok = worst_rec < 1e-12 and worst_fd < 1e-5 and worst_strip < 1e-3
    _report(5, "Green tensor checks", ok,
            f"reciprocity={worst_rec:.1e}, PDE residual={worst_fd:.1e}, "
            f"200-wavelength stripping={worst_strip:.1e}")


# ---------------------------------------------------------------------------
# 6. non-radiating generator nullity
# ---------------------------------------------------------------------------

def test_criterion_06_nonradiating_generator():
    combos = [
        (disk(0.3), (1.0, 0.0), None),
        (disk(0.5), (0.5, 1.0), LIN),
        (ellipse(0.4, 0.25), (1.0, 0.5), None),
        (ellipse(0.5, 0.3), (1.0, 0.0), 0.5 * LIN),
        (disk(0.35, (0.2, -0.1)), (0.5, 1.0), None),
    ]
    dirs = directions_circle(96)
    angles = np.linspace(0.0, 2.0 * math.pi, 12, endpoint=False)
    worst_ff = worst_ext = 0.0
    for dom, amp, lin in combos:
        bump = polynomial_bump(dom, amplitude=amp, linear=lin)
        mesh = gauss_mesh(dom, n_radial=40, n_angular=80)
        phi_field, u_exact = make_nonradiating(dom, bump, MED, mesh)
        prob = SourceProblem(domain=dom, medium=MED, phi=phi_field)
        phi_l2, _ = field_norms(phi_field, mesh)
        ffn = farfield_norm(farfield_of_source(prob, mesh, dirs))
        worst_ff = max(worst_ff, ffn / phi_l2)
        c = dom.components[0].center
        ring = c + 1.5 * diameter(dom) * np.stack(
            [np.cos(angles), np.sin(angles)], axis=1)
        u_out = solve_source(prob, mesh, ring)
        worst_ext = max(worst_ext, float(np.max(np.abs(u_out.values))) / phi_l2)
        assert np.max(np.abs(u_exact(ring))) == 0.0
    ok = worst_ff < 1e-6 and worst_ext < 1e-5
    _report(6, "non-radiating generator nullity", ok,
            f"5 combos, worst farfield/|phi|={worst_ff:.1e}, "
            f"worst exterior/|phi|={worst_ext:.1e}")


# ---------------------------------------------------------------------------
# 7. frequency-scaling estimate
# ---------------------------------------------------------------------------

def test_criterion_07_frequency_scaling_estimate():
    ratios = []
    for k, omega in enumerate((1.0, 2.0, 4.0, 8.0)):
        med = make_medium(2.0, 1.0, omega, 2)
        radius = 0.5 / omega
        dom = disk(radius)
        mesh = volume_mesh(dom, h=radius / (12 + 2 * k))

        def f(pts, omega=omega):
            return np.stack([1.0 + 0.3 * omega * pts[:, 0],
                             0.5 - 0.2 * omega * pts[:, 1]],
                            axis=1).astype(complex)

        prob = SourceProblem(domain=dom, medium=med, phi=f)
        u = solve_source(prob, mesh, mesh.nodes)
        nu = math.sqrt(float(np.sum(
            mesh.weights * np.sum(np.abs(u.values) ** 2, axis=1))))
        nf = math.sqrt(float(np.sum(
            mesh.weights * np.sum(np.abs(f(mesh.nodes)) ** 2, axis=1))))
        ratios.append(nu / (diameter(dom) * (1.0 / omega) * nf))
    spread = (max(ratios) - min(ratios)) / np.mean(ratios)
    cal = calibrate_constant([(r, 1.0) for r in ratios])
    within = all(r <= cal.constant_fit * (1.0 + 1e-12) for r in ratios)
    ok = spread < 0.10 and cal.violations == 0 and within
    _report(7, "frequency-scaling estimate", ok,
            f"ratios spread={100 * spread:.2f}%, fitted constant="
            f"{cal.constant_fit:.4f}, violations={cal.violations}")


# ---------------------------------------------------------------------------
# 8. small-support program
# ---------------------------------------------------------------------------

def _smallness_ratio(dom, amplitude, linear):
    bump = polynomial_bump(dom, amplitude=amplitude, linear=linear)
    mesh = gauss_mesh(dom, n_radial=32, n_angular=64)
    phi_field, _ = make_nonradiating(dom, bump, MED, mesh)
    d = diameter(dom)
    bm = boundary_mesh(dom, h=0.02 * d)
    sup_b = float(np.max(np.linalg.norm(
        bump.source_density(bm.nodes, MED), axis=-1)))
    sem = holder_seminorm(phi_field, 1.0)
    _, linf = field_norms(phi_field, mesh)
    rep = small_support_criterion(sup_b, sem, linf, 1.0, d * MED.omega, 2,
                                  omega=MED.omega)
    return rep.lhs / rep.rhs_structural


def test_criterion_08_small_support_program():
    calib = []
    for rr in (0.2, 0.35, 0.6):
        calib.append((disk(rr), (1.0, 0.0), None))
        calib.append((disk(rr), (0.5, 1.0), LIN))
    for aa in (0.25, 0.4, 0.55):
        calib.append((ellipse(aa, 0.6 * aa), (1.0, 0.5), None))
        calib.append((ellipse(aa, 0.6 * aa), (1.0, 0.0), 0.5 * LIN))
    cal = calibrate_constant(
        [(_smallness_ratio(dom, amp, lin), 1.0) for dom, amp, lin in calib])

    rng = np.random.default_rng(2024)
    holdout_viol = 0
    worst = 0.0
    for k in range(20):
        rr = rng.uniform(0.22, 0.58)
        amp = (rng.uniform(0.3, 1.2), rng.uniform(0.0, 1.0))
        lin = rng.uniform(0.2, 0.6) * LIN if k % 2 else None
        if k % 3 == 2:
            dom = ellipse(rr, rng.uniform(0.5, 0.9) * rr)
        else:
            dom = disk(rr)
        q = _smallness_ratio(dom, amp, lin)
        worst = max(worst, q / cal.constant_fit)
        if q > cal.constant_fit * (1.0 + 1e-12):
            holdout_viol += 1

    # radiating side: constant-intensity disks at small support scales
    worst_margin = math.inf
    dirs = directions_circle(64)
    for eps in (0.05, 0.1, 0.2):
        radius = eps / (2.0 * MED.omega)
        dom = disk(radius)

        def phi(pts):
            return np.broadcast_to(np.array([1.0, 0.0], dtype=complex),
                                   (pts.shape[0], 2)).copy()

        prob = SourceProblem(domain=dom, medium=MED, phi=phi)
        coarse = farfield_of_source(prob, gauss_mesh(dom, 24, 48), dirs)
        fine = farfield_of_source(prob, gauss_mesh(dom, 40, 96), dirs)
        noise = farfield_norm(FarFieldPattern(
            coarse.directions, coarse.up_inf - fine.up_inf,
            coarse.us_inf - fine.us_inf))
        ffn = farfield_norm(coarse)
        worst_margin = min(worst_margin,
                           ffn / (10.0 * noise) if noise > 0.0 else math.inf)

    ok = (cal.violations == 0 and holdout_viol == 0 and worst_margin > 1.0)
    _report(8, "small-support program", ok,
            f"c_fit={cal.constant_fit:.4f}, holdout violations={holdout_viol} "
            f"(max ratio {worst:.3f}), radiating margin={worst_margin:.1e}")


# ---------------------------------------------------------------------------
# 9. integral identity residual
# ---------------------------------------------------------------------------

def _identity_case(K, zeta=None):
    dom = make_cap_domain(K=K, L=3.0, M=4.0, varsigma=0.9, cubic=1.5)
    bump = polynomial_bump(dom, amplitude=(1.0, 0.5), linear=LIN,
                           whole_boundary=False)
    tau = select_tau(K, zeta if zeta is not None else zeta_default(1.0, 0.9, 2))
    probe = make_cgo((0.0, -1.0), (1.0, 0.0), tau, MED)
    return dom, bump, probe


def test_criterion_09_integral_identity():
    worst = 0.0
    for K in (10.0, 30.0, 100.0):
        dom, bump, probe = _identity_case(K)
        br = integral_identity_check(dom, bump, probe, MED)
        worst = max(worst, br.residual_rel)

    dom, bump, probe = _identity_case(100.0)
    coarse = integral_identity_check(dom, bump, probe, MED, refine=0.25)
    fine = integral_identity_check(dom, bump, probe, MED, refine=0.5)
    drops = (fine.residual_rel < 0.5 * coarse.residual_rel
             and fine.nodes_used > coarse.nodes_used)
    ok = worst < 1e-3 and drops
    _report(9, "integral identity residual", ok,
            f"worst residual_rel={worst:.1e}; refinement "
            f"{coarse.residual_rel:.1e} -> {fine.residual_rel:.1e}")


# ---------------------------------------------------------------------------
# 10. boundary and shell term bounds
# ---------------------------------------------------------------------------

def test_criterion_10_term_bounds():
    pairs = {"i2": [], "i3": [], "i4": []}
    for K in (10.0, 30.0, 100.0):
        dom = make_cap_domain(K=K, L=3.0, M=4.0, varsigma=0.9, cubic=1.5)
        bump = polynomial_bump(dom, amplitude=(1.0, 0.5), linear=LIN,
                               whole_boundary=False)
        b, rho = dom.chart.b, dom.chart.rho
        for zeta in (0.35, 0.5, 0.65):
            tau = select_tau(K, zeta)
            probe = make_cgo((0.0, -1.0), (1.0, 0.0), tau, MED)
            br = integral_identity_check(dom, bump, probe, MED)
            assert br.residual_rel < 1e-3
            i2b = shell_integral(max(K - 1.5 * rho, 0.5 * K),
                                 K + 1.5 * rho, tau, b, 2)
            i3b = tail_and_holder_bounds(tau, b, K, 1.0, 2)[1]
            i4b = boundary_term_bound(tau, b, K, 1.0, 1.0, 2)
            pairs["i2"].append((abs(br.i2), i2b))
            pairs["i3"].append((abs(br.i3), i3b))
            pairs["i4"].append((abs(br.i4), i4b))

    fits = {}
    ok = True
    for name, sweep in pairs.items():
        cal = calibrate_constant(sweep)
        fits[name] = cal.constant_fit
        ok = ok and cal.violations == 0 and cal.constant_fit < 10.0
        for lhs, rhs in sweep:
            ok = ok and lhs <= cal.constant_fit * rhs * (1.0 + 1e-12)
    _report(10, "boundary and shell term bounds", ok,
            "9-cell grid, fitted constants "
            + ", ".join(f"{n}={fits[n]:.3f}" for n in ("i2", "i3", "i4"))
            + ", zero violations")


# ---------------------------------------------------------------------------
# 11. medium contraction regime
# ---------------------------------------------------------------------------

def _medium_entry(v0, radius, kind):
    dom = disk(radius)

    def contrast(pts):
        r2 = np.sum(pts ** 2, axis=-1)
        prof = np.clip(1.0 - r2 / radius ** 2, 0.0, None) ** 2
        return (v0 * prof).astype(complex)

    sc = MediumScatterer(domain=dom, medium=MED, contrast=contrast)
    mesh = volume_mesh(dom, h=radius / 10.0)
    inc = make_incident(kind, {"direction": (1.0, 0.0)}, MED)
    sol = solve_medium(sc, inc, mesh)
    ui = inc(mesh.nodes)
    sup_i = float(np.max(np.linalg.norm(ui, axis=1)))
    sup_sc = float(np.max(np.linalg.norm(sol.u_scattered.values, axis=1)))
    sup_t = float(np.max(np.linalg.norm(sol.u_total.values, axis=1)))
    return (diameter(dom) * MED.omega, sc.v_sup(), sup_sc / sup_i,
            sup_t / sup_i)


def test_criterion_11_medium_contraction_regime():
    styles = [(0.25, "pressure-plane"), (0.35, "shear-plane"),
              (0.45, "pressure-plane"), (0.5, "shear-plane")]
    calib, hold = [], []
    for v0 in (0.05, 0.1, 0.2, 0.3, 0.4):
        for radius, kind in styles:
            entry = _medium_entry(v0, radius, kind)
            (calib if radius in (0.25, 0.5) else hold).append(entry)
    cal = calibrate_contraction_scale(calib)

    holdout_viol = 0
    for eps, v, ratio_u, ratio_ut in hold:
        prod = eps * v
        assert prod < cal.constant_fit
        ups = prod / (cal.constant_fit - prod)
        bound_t = cal.constant_fit / (cal.constant_fit - prod)
        if (ratio_u > ups * (1.0 + 1e-12)
                or ratio_ut > bound_t * (1.0 + 1e-12)):
            holdout_viol += 1

    # solver cross-check well inside the contraction regime
    radius, v0 = 0.25, 0.05
    dom = disk(radius)

    def contrast(pts):
        r2 = np.sum(pts ** 2, axis=-1)
        return (v0 * np.clip(1.0 - r2 / radius ** 2, 0.0, None) ** 2
                ).astype(complex)

    sc = MediumScatterer(domain=dom, medium=MED, contrast=contrast)
    mesh = volume_mesh(dom, h=radius / 10.0)
    inc = make_incident("pressure-plane", {"direction": (1.0, 0.0)}, MED)
    direct = solve_medium(sc, inc, mesh, mode="direct-dense")
    series = solve_medium(sc, inc, mesh, mode="neumann-series")
    agree = float(np.max(np.abs(series.u_total.values - direct.u_total.values))
                  / np.max(np.abs(direct.u_total.values)))

    ok = cal.violations == 0 and holdout_viol == 0 and agree < 1e-8
    _report(11, "medium contraction regime", ok,
            f"s_fit={cal.constant_fit:.4f}, holdout violations="
            f"{holdout_viol}, solver agreement={agree:.1e}")


# ---------------------------------------------------------------------------
# 12. two-source distinguishability
# ---------------------------------------------------------------------------

def test_criterion_12_distinguishability():
    started = time.monotonic()
    omega = MED.omega
    radius = 0.05 / omega
    sep = 3.0 / omega
    dirs = directions_circle(256)
    amp = np.array([1.0, 0.0], dtype=complex)

    def pattern_for(center, nr, na):
        dom = disk(radius, center)
        mesh = gauss_mesh(dom, n_radial=nr, n_angular=na)

        def phi(pts):
            return np.broadcast_to(amp, (pts.shape[0], 2)).copy()

        return farfield_of_source(SourceProblem(dom, MED, phi), mesh, dirs)

    p1 = pattern_for((-sep / 2.0, 0.0), 32, 64)
    p2 = pattern_for((sep / 2.0, 0.0), 32, 64)
    p1_fine = pattern_for((-sep / 2.0, 0.0), 48, 128)

    def diff_norm(a, b):
        total = np.sum(np.abs(a.up_inf - b.up_inf) ** 2) \
            + np.sum(np.abs(a.us_inf - b.us_inf) ** 2)
        return float(np.sqrt(2.0 * np.pi / len(a.directions) * total))

    diff = diff_norm(p1, p2)
    noise = diff_norm(p1, p1_fine)
    margin = diff / (10.0 * noise) if noise > 0.0 else math.inf
    elapsed = time.monotonic() - started
    ok = margin > 1.0 and elapsed < 120.0
    _report(12, "two-source distinguishability", ok,
            f"diff={diff:.2e} vs noise={noise:.1e}, margin={margin:.1e}, "
            f"elapsed={elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 13. structural decay rates
# ---------------------------------------------------------------------------

def test_criterion_13_structural_decay_rates():
    Ks = np.geomspace(math.e, 1.0e4, 40)
    worst_slope_err = 0.0
    for (alpha, varsigma) in ((1.0, 0.9), (0.5, 2.0)):
        want = -0.5 * min(alpha, varsigma)
        rhs = np.array([kdecay_rhs(K, alpha, varsigma, 2) for K in Ks])
        corrected = np.log(rhs) - 1.5 * np.log(np.log(Ks))
        slope = float(np.polyfit(np.log(Ks), corrected, 1)[0])
        worst_slope_err = max(worst_slope_err, abs(slope - want) / abs(want))

    def close(got, want):
        return abs(got - want) <= 1e-12 * max(1.0, abs(want))

    checks = [
        close(small_support_rhs(0.1, 1.0, 2), 0.1 * (1.0 + 1.1 * 0.1)),
        close(small_support_rhs(0.3, 0.7, 2),
              0.3 ** 0.7 * (1.0 + 1.3 * 0.3)),
        close(small_support_rhs(0.2, 0.5, 3),
              0.2 ** 0.5 * (1.0 + 1.2 * 0.2 ** 1.5)),
        close(kdecay_rhs(7.0, 1.0, 0.9, 2),
              math.log(7.0) ** 1.5 * 7.0 ** -0.45),
        close(kdecay_rhs(50.0, 0.8, 0.9, 3),
              math.log(50.0) ** 2 * 50.0 ** (-0.4 + 1.0 / 6.0)),
        close(diameter_lower_bound(0.04, 0.5, 2.0, 3.0),
              min(1.0, (3.0 * 0.04) ** 2) / 2.0),
        close(diameter_lower_bound(10.0, 0.5, 2.0, 1.0), 0.5),
        close(upsilon(0.3, 0.5, 2.0), 0.15 / (2.0 - 0.15)),
        close(select_tau(100.0, 0.25), 100.0 * math.log(100.0)),
        close(zeta_default(1.0, 0.9, 2), 0.45),
        close(zeta_default(0.8, 0.9, 3), 0.4 + 1.0 / 6.0),
        close(boundary_term_bound(10.0, 0.1, 10.0, 0.5, 2.0),
              math.exp(-1.0) * 10.0 ** -2.0 * 20.0 * 2.0),
        close(medium_small_criterion(0.05, 1.0, 1.0, 0.5, 0.2, 0.4, 1.0,
                                     dim=2, s=1.0).rhs_structural,
              math.sqrt(0.2) * (1.0 + (1.0 + 2.0 / 3.0) * 1.2 * 0.2)),
    ]
    ok = worst_slope_err < 0.05 and all(checks)
    _report(13, "structural decay rates", ok,
            f"K-decay slope rel err={worst_slope_err:.1e}, "
            f"{sum(checks)}/{len(checks)} recomputations at 1e-12")
