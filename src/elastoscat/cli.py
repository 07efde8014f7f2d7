"""Command-line front end for the standard desk-scale experiments.

Usage::

    elastoscat <subcommand> --config cfg.json [--out PREFIX] [--seed N] [--workers K]

Subcommands
-----------
``sweep-small``
    Far-field norms and small-support criterion reports for an epsilon sweep
    of constant-intensity disk sources.
``nonradiating-audit``
    Manufactures non-radiating sources, verifies far-field nullity,
    calibrates the smallness constant and audits the diameter lower bound.
``cgo-verify``
    Probe algebra and PDE residuals, plus closed-form versus Monte-Carlo
    comparisons of the paraboloid region integral.
``identity-check``
    The four-term integral identity on cap domains across a K-grid.
``kpoint-decay``
    Identity term magnitudes against their structural bounds on a
    (K, zeta) grid, with per-term constant calibration.
``medium-demo``
    Volume-integral-equation solves, contraction diagnostics, and the
    medium smallness criterion over a contrast-amplitude sweep.
``distinguish``
    Far-field difference of two separated small disk sources against the
    quadrature noise floor.

Configs are JSON validated against a versioned schema (``schema_version``
must be 1 and ``experiment`` must match the subcommand).  Every run writes
``<prefix>_<table>.csv`` tables (RFC 4180, ``\\r\\n`` line endings, floats at
17 significant digits, fixed column order documented per runner) plus
``<prefix>_report.json`` echoing the config, seed, artifact version,
summary statistics, and wall clock.  Replaying a config with the same seed
reproduces the CSV bytes exactly; per-point seeds derive from the master
seed and the point index, so worker count does not affect results.

Exit codes: 0 success, 2 invalid config, 3 numerical-validation failure
(including any self-check whose refined recomputation disagrees beyond the
declared tolerance; partial outputs are removed).
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
from jsonschema import ValidationError, validate

from . import __version__, bounds, cgo
from .bumps import polynomial_bump
from .elastic import field_norms, holder_seminorm, make_medium
from .errors import (
    ConfigInvalid,
    NumericalValidationFailure,
    OutOfRegime,
    ToolkitError,
)
from .geometry import (
    boundary_mesh,
    diameter,
    disk,
    ellipse,
    gauss_mesh,
    make_cap_domain,
    volume_mesh,
)
from .scattering import (
    MediumScatterer,
    contraction_report,
    lattice_pde_residual,
    make_incident,
    solve_medium,
)
from .source import (
    SourceProblem,
    directions_circle,
    farfield_norm,
    farfield_of_source,
    make_nonradiating,
)

EXPERIMENTS = ("sweep-small", "nonradiating-audit", "cgo-verify",
               "identity-check", "kpoint-decay", "medium-demo", "distinguish")

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["schema_version", "experiment", "medium"],
    "properties": {
        "schema_version": {"const": 1},
        "experiment": {"enum": list(EXPERIMENTS)},
        "medium": {
            "type": "object",
            "required": ["lam", "mu", "omega"],
            "properties": {
                "lam": {"type": "number"},
                "mu": {"type": "number", "exclusiveMinimum": 0},
                "omega": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "seed": {"type": "integer", "minimum": 0},
        "tolerance": {"type": "number", "exclusiveMinimum": 0},
        "output": {"type": "string"},
    },
}


def load_config(path: str) -> dict:
    """Read and schema-validate a JSON config; ConfigInvalid on any defect."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigInvalid(f"cannot read config {path}: {exc}") from None
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(f"config is not valid JSON: {exc}") from None
    try:
        validate(cfg, CONFIG_SCHEMA)
    except ValidationError as exc:
        raise ConfigInvalid(f"config rejected by schema: {exc.message}") from None
    return cfg


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "%.17g" % float(value)
    return str(value)


def write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _point_seed(master: int, index: int) -> int:
    return int(np.random.SeedSequence([master, index]).generate_state(1)[0])


def _parallel(fn, count: int, workers: int):
    """Evaluate fn(i) for i in range(count), results ordered by index."""
    if workers <= 1 or count <= 1:
        return [fn(i) for i in range(count)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(count)))


def _medium_from(cfg: dict):
    m = cfg["medium"]
    return make_medium(m["lam"], m["mu"], m["omega"], dim=int(m.get("dim", 2)))


def _block(cfg: dict, key: str) -> dict:
    blk = cfg.get(key)
    if not isinstance(blk, dict):
        raise ConfigInvalid(f"config needs a {key!r} object for this experiment")
    return blk


def _require(blk: dict, key: str, where: str):
    if key not in blk:
        raise ConfigInvalid(f"{where} block needs {key!r}")
    return blk[key]


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------

def run_sweep_small(cfg: dict, seed: int, workers: int) -> dict:
    """Columns: index, epsilon, radius, amp_x, amp_y, farfield_norm,
    criterion_lhs, criterion_rhs, ratio, regime."""
    med = _medium_from(cfg)
    sweep = _block(cfg, "sweep")
    eps_list = [float(e) for e in _require(sweep, "epsilons", "sweep")]
    amps = sweep.get("amplitudes", [[1.0, 0.0]] * len(eps_list))
    if len(amps) != len(eps_list):
        raise ConfigInvalid("amplitudes must match epsilons in length")
    crit = cfg.get("criterion", {})
    delta = float(crit.get("delta", 1.0))
    c_fit = float(crit.get("c_fit", 1.0))
    n_radial = int(cfg.get("mesh", {}).get("n_radial", 32))
    n_angular = int(cfg.get("mesh", {}).get("n_angular", 64))
    dirs = directions_circle(int(cfg.get("directions", 128)))

    def ff_norm_for(eps, amp, nr, na):
        dom = disk(eps / (2.0 * med.omega))
        mesh = gauss_mesh(dom, n_radial=nr, n_angular=na)
        vec = np.asarray(amp, dtype=complex)

        def phi(pts):
            return np.broadcast_to(vec, (pts.shape[0], 2)).copy()

        pattern = farfield_of_source(SourceProblem(dom, med, phi), mesh, dirs)
        return farfield_norm(pattern)

    def point(i):
        eps, amp = eps_list[i], amps[i]
        radius = eps / (2.0 * med.omega)
        anorm = float(np.hypot(amp[0], amp[1]))
        if anorm == 0.0:
            rhs = bounds.small_support_rhs(eps, delta, 2)
            return [i, eps, radius, amp[0], amp[1], 0.0, 0.0, rhs, 0.0,
                    bounds.REGIME_NONRADIATING]
        ffn = ff_norm_for(eps, amp, n_radial, n_angular)
        rep = bounds.small_support_criterion(anorm, 0.0, anorm, delta, eps, 2,
                                             omega=med.omega, c_fit=c_fit)
        return [i, eps, radius, amp[0], amp[1], ffn, rep.lhs,
                rep.rhs_structural, rep.ratio, rep.regime]

    # refinement self-check on the first radiating point
    tol = float(cfg.get("tolerance", 1e-6))
    for eps, amp in zip(eps_list, amps):
        if np.hypot(amp[0], amp[1]) > 0.0:
            coarse = ff_norm_for(eps, amp, n_radial, n_angular)
            fine = ff_norm_for(eps, amp, n_radial + 16, 2 * n_angular)
            if abs(coarse - fine) > tol * max(fine, 1e-300):
                raise NumericalValidationFailure(
                    f"far-field self-check: {coarse} vs refined {fine}")
            break

    rows = _parallel(point, len(eps_list), workers)
    header = ["index", "epsilon", "radius", "amp_x", "amp_y", "farfield_norm",
              "criterion_lhs", "criterion_rhs", "ratio", "regime"]
    return {"tables": {"sweep": (header, rows)},
            "summary": {"points": len(rows), "delta": delta, "c_fit": c_fit}}


def _domain_from_spec(spec: dict):
    kind = spec.get("kind", "disk")
    center = tuple(spec.get("center", (0.0, 0.0)))
    if kind == "disk":
        return disk(float(_require(spec, "radius", "family entry")), center)
    if kind == "ellipse":
        return ellipse(float(_require(spec, "a", "family entry")),
                       float(_require(spec, "b", "family entry")), center)
    raise ConfigInvalid(f"unknown domain kind {kind!r}")


def run_nonradiating_audit(cfg: dict, seed: int, workers: int) -> dict:
    """Columns: index, kind, diameter, epsilon, phi_l2, farfield_norm,
    nullity, criterion_lhs, criterion_rhs, ratio, diameter_bound."""
    med = _medium_from(cfg)
    family = cfg.get("family")
    if not isinstance(family, list) or not family:
        raise ConfigInvalid("config needs a nonempty 'family' list")
    delta = float(cfg.get("criterion", {}).get("delta", 1.0))
    n_radial = int(cfg.get("mesh", {}).get("n_radial", 40))
    n_angular = int(cfg.get("mesh", {}).get("n_angular", 80))
    dirs = directions_circle(int(cfg.get("directions", 128)))
    tol = float(cfg.get("tolerance", 1e-8))

    def evaluate(i, nr, na):
        spec = family[i]
        dom = _domain_from_spec(spec)
        amp = tuple(spec.get("amplitude", (1.0, 0.0)))
        lin = spec.get("linear")
        bump = polynomial_bump(dom, amplitude=amp,
                               linear=None if lin is None else np.asarray(lin, float))
        mesh = gauss_mesh(dom, n_radial=nr, n_angular=na)
        phi_field, _ = make_nonradiating(dom, bump, med, mesh)
        problem = SourceProblem(dom, med, phi_field)
        pattern = farfield_of_source(problem, mesh, dirs)
        ffn = farfield_norm(pattern)
        phi_l2, phi_linf = field_norms(phi_field, mesh)
        d = diameter(dom)
        eps = d * med.omega
        bnodes = boundary_mesh(dom, h=0.02 * d).nodes
        sup_b = float(np.max(np.linalg.norm(
            bump.source_density(bnodes, med), axis=-1)))
        sem = holder_seminorm(phi_field, delta, seed=_point_seed(seed, i))
        rep = bounds.small_support_criterion(sup_b, sem, phi_linf, delta, eps,
                                             2, omega=med.omega)
        return dom, d, eps, phi_l2, ffn, rep

    def point(i):
        _, d, eps, phi_l2, ffn, rep = evaluate(i, n_radial, n_angular)
        return [i, family[i].get("kind", "disk"), d, eps, phi_l2, ffn,
                ffn / phi_l2, rep.lhs, rep.rhs_structural, rep.ratio]

    # nullity self-check: the first configuration must stay null when refined
    _, _, _, phi_l2, ffn, _ = evaluate(0, n_radial, n_angular)
    _, _, _, phi_l2_f, ffn_f, _ = evaluate(0, n_radial + 16, 2 * n_angular)
    if ffn / phi_l2 > tol or ffn_f / phi_l2_f > tol:
        raise NumericalValidationFailure(
            f"nullity self-check: {ffn / phi_l2} vs refined {ffn_f / phi_l2_f} "
            f"exceeds {tol}")

    rows = _parallel(point, len(family), workers)
    calib = bounds.calibrate_constant([(r[7], r[8]) for r in rows])
    c_diam = 1.0 / (3.0 * calib.constant_fit)
    diam_violations = 0
    for r in rows:
        bound = bounds.diameter_lower_bound(r[7], delta, med.omega, c_diam)
        r.append(bound)
        if r[2] < bound * (1.0 - 1e-9):
            diam_violations += 1
    header = ["index", "kind", "diameter", "epsilon", "phi_l2",
              "farfield_norm", "nullity", "criterion_lhs", "criterion_rhs",
              "ratio", "diameter_bound"]
    return {"tables": {"audit": (header, rows)},
            "summary": {"calibration": calib.to_json_dict(),
                        "diameter_c_fit": c_diam,
                        "diameter_violations": diam_violations}}


def run_cgo_verify(cfg: dict, seed: int, workers: int) -> dict:
    """Tables: probes (tau_ratio, angle, tau, xi_xi_err, xi_eta_err,
    residual) and paraboloid (dim, K, tau, closed_re, closed_im, mc_re,
    mc_im, stderr, z)."""
    med = _medium_from(cfg)
    probes = _block(cfg, "probes")
    ratios = [float(r) for r in probes.get("tau_ratios", (2.0, 10.0, 100.0))]
    angles = [float(a) for a in probes.get("angles", (0.0, 0.9, 2.2))]
    ppw = float(probes.get("residual_ppw", 400.0))
    pts_side = int(probes.get("points_per_side", 8))

    combos = [(r, a) for r in ratios for a in angles]

    def probe_point(i):
        ratio, ang = combos[i]
        d = np.array([math.cos(ang), math.sin(ang)])
        dp = np.array([-math.sin(ang), math.cos(ang)])
        tau = ratio * med.kappa_s
        pr = cgo.make_cgo(d, dp, tau, med)
        err1 = abs(complex(pr.xi @ pr.xi) + med.kappa_s ** 2)
        err2 = abs(complex(pr.xi @ pr.eta))
        s = math.sqrt(med.kappa_s ** 2 + tau ** 2)
        grid = cgo.probe_grid(pr, spacing=2.0 * math.pi / (s * ppw),
                              points_per_side=pts_side)
        res = cgo.cgo_residual(pr, med, grid)
        return [ratio, ang, tau, err1, err2, res], pr, s

    # residual refinement self-check on the first probe
    row0, pr0, s0 = probe_point(0)
    grid_fine = cgo.probe_grid(pr0, spacing=2.0 * math.pi / (s0 * 2 * ppw),
                               points_per_side=pts_side)
    res_fine = cgo.cgo_residual(pr0, med, grid_fine)
    if res_fine > 0.5 * row0[5]:
        raise NumericalValidationFailure(
            f"probe residual did not improve under refinement: "
            f"{row0[5]} -> {res_fine}")

    probe_rows = [probe_point(i)[0] for i in range(len(combos))]

    para = cfg.get("paraboloid", {})
    k_values = [float(k) for k in para.get("K_values", (1.0, 5.0, 20.0))]
    taus = [float(t) for t in para.get("tau_values", (4.0, 12.0, 40.0))]
    dims = [int(d) for d in para.get("dims", (2, 3))]
    samples = int(para.get("samples", 200_000))
    grid = [(dim, K, tau) for dim in dims for K in k_values for tau in taus]

    def para_point(i):
        dim, K, tau = grid[i]
        s = math.sqrt(med.kappa_s ** 2 + tau ** 2)
        xi = np.zeros(dim, dtype=complex)
        xi[0] = 1j * s
        xi[-1] = -tau
        closed = cgo.paraboloid_integral_closed(xi, K, dim)
        est, se = cgo.paraboloid_integral_mc(xi, K, dim, samples=samples,
                                             seed=_point_seed(seed, i))
        z = abs(est - closed) / se if se > 0 else 0.0
        return [dim, K, tau, closed.real, closed.imag, est.real, est.imag,
                se, z]

    para_rows = _parallel(para_point, len(grid), workers)
    worst_z = max((r[8] for r in para_rows), default=0.0)
    return {"tables": {
                "probes": (["tau_ratio", "angle", "tau", "xi_xi_err",
                            "xi_eta_err", "residual"], probe_rows),
                "paraboloid": (["dim", "K", "tau", "closed_re", "closed_im",
                                "mc_re", "mc_im", "stderr", "z"], para_rows)},
            "summary": {"worst_residual": max(r[5] for r in probe_rows),
                        "worst_z": worst_z}}


def _identity_point(med, caps: dict, K: float, zeta: float):
    tau = cgo.select_tau(K, zeta)
    pr = cgo.make_cgo(np.array([0.0, -1.0]), np.array([1.0, 0.0]), tau, med)
    dom = make_cap_domain(K=K, L=float(caps.get("L", 3.0)),
                          M=float(caps.get("M", 4.0)),
                          varsigma=float(caps.get("varsigma", 0.9)),
                          cubic=float(caps.get("cubic", 1.5)))
    lin = caps.get("linear")
    bump = polynomial_bump(dom, amplitude=tuple(caps.get("amplitude", (1.0, 0.5))),
                           linear=None if lin is None else np.asarray(lin, float),
                           whole_boundary=False)
    budget = int(caps.get("node_budget", 2_000_000))
    bd = cgo.integral_identity_check(dom, bump, pr, med, node_budget=budget)
    return tau, dom, bd


def run_identity_check(cfg: dict, seed: int, workers: int) -> dict:
    """Columns: K, zeta, tau, lhs_abs, i1_abs, i2_abs, i3_abs, i4_abs,
    residual_abs, residual_rel, nodes_used."""
    med = _medium_from(cfg)
    caps = _block(cfg, "caps")
    k_values = [float(k) for k in _require(caps, "K_values", "caps")]
    alpha = float(caps.get("alpha", 1.0))
    varsigma = float(caps.get("varsigma", 0.9))
    zeta = caps.get("zeta")
    zeta = cgo.zeta_default(alpha, varsigma, 2) if zeta is None else float(zeta)
    tol = float(cfg.get("tolerance", 1e-2))

    def point(i):
        K = k_values[i]
        tau, _, bd = _identity_point(med, caps, K, zeta)
        if bd.residual_rel > tol:
            raise NumericalValidationFailure(
                f"identity residual {bd.residual_rel} exceeds {tol} at K={K}")
        return [K, zeta, tau, abs(bd.lhs), abs(bd.i1), abs(bd.i2),
                abs(bd.i3), abs(bd.i4), bd.residual_abs, bd.residual_rel,
                bd.nodes_used]

    # refinement self-check: quarter budget must not beat the full budget
    caps_coarse = dict(caps, node_budget=int(caps.get("node_budget", 2_000_000)) // 4)
    _, _, bd_coarse = _identity_point(med, caps_coarse, k_values[0], zeta)
    _, _, bd_fine = _identity_point(med, caps, k_values[0], zeta)
    if bd_fine.residual_rel > 1.5 * bd_coarse.residual_rel + 1e-15:
        raise NumericalValidationFailure(
            f"identity residual grew under refinement: "
            f"{bd_coarse.residual_rel} -> {bd_fine.residual_rel}")

    rows = _parallel(point, len(k_values), workers)
    header = ["K", "zeta", "tau", "lhs_abs", "i1_abs", "i2_abs", "i3_abs",
              "i4_abs", "residual_abs", "residual_rel", "nodes_used"]
    return {"tables": {"identity": (header, rows)},
            "summary": {"worst_residual_rel": max(r[9] for r in rows)}}


def run_kpoint_decay(cfg: dict, seed: int, workers: int) -> dict:
    """Columns: K, zeta, tau, i2_abs, i2_bound, i3_abs, i3_bound, i4_abs,
    i4_bound, lhs_abs."""
    med = _medium_from(cfg)
    caps = _block(cfg, "caps")
    k_values = [float(k) for k in _require(caps, "K_values", "caps")]
    zetas = [float(z) for z in caps.get("zeta_values", (0.35, 0.5, 0.65))]
    alpha = float(caps.get("alpha", 1.0))
    beta = float(caps.get("beta", 1.0))
    cubic = float(caps.get("cubic", 1.5))
    grid = [(K, z) for K in k_values for z in zetas]

    def point(i):
        K, zeta = grid[i]
        tau, dom, bd = _identity_point(med, caps, K, zeta)
        b = 1.0 / K
        rho = dom.chart.rho
        k_lo, k_hi = K - cubic * rho, K + cubic * rho
        i2_bound = cgo.shell_integral(max(k_lo, 0.5 * K), k_hi, tau, b, 2)
        _, i3_bound = cgo.tail_and_holder_bounds(tau, b, K, alpha, 2)
        i4_bound = cgo.boundary_term_bound(tau, b, K, beta, 1.0, 2)
        return [K, zeta, tau, abs(bd.i2), i2_bound, abs(bd.i3), i3_bound,
                abs(bd.i4), i4_bound, abs(bd.lhs)]

    rows = _parallel(point, len(grid), workers)
    summary = {}
    for label, (col_meas, col_bound) in {"i2": (3, 4), "i3": (5, 6),
                                         "i4": (7, 8)}.items():
        calib = bounds.calibrate_constant(
            [(r[col_meas], r[col_bound]) for r in rows])
        summary[label] = calib.to_json_dict()
    header = ["K", "zeta", "tau", "i2_abs", "i2_bound", "i3_abs", "i3_bound",
              "i4_abs", "i4_bound", "lhs_abs"]
    return {"tables": {"decay": (header, rows)}, "summary": summary}


def run_medium_demo(cfg: dict, seed: int, workers: int) -> dict:
    """Columns: index, v0, epsilon, v_sup, upsilon, ratio_scattered,
    ratio_total, farfield_norm, series_terms, contraction, mode_gap,
    out_of_regime."""
    med = _medium_from(cfg)
    blk = _block(cfg, "scatterer")
    radius = float(blk.get("radius", 0.45))
    v0_values = [complex(v) for v in _require(blk, "v0_values", "scatterer")]
    h = float(blk.get("h", 0.05))
    s_scale = float(blk.get("s", 1.0))
    inc_cfg = blk.get("incident", {"kind": "pressure-plane",
                                   "direction": [1.0, 0.0]})
    dom = disk(radius)
    mesh = volume_mesh(dom, h=h)
    incident = make_incident(inc_cfg["kind"],
                             {k: v for k, v in inc_cfg.items() if k != "kind"},
                             med)
    tol = float(cfg.get("tolerance", 1e-2))
    delta = float(cfg.get("criterion", {}).get("delta", 1.0))

    def scatterer_for(v0):
        def contrast(pts):
            r2 = np.sum(np.asarray(pts) ** 2, axis=-1)
            vals = np.where(r2 < radius ** 2,
                            v0 * (1.0 - r2 / radius ** 2) ** 2, 0.0)
            return vals.astype(complex)
        return MediumScatterer(dom, med, contrast)

    def point(i):
        v0 = v0_values[i]
        sc = scatterer_for(v0)
        sol = solve_medium(sc, incident, mesh, mode="direct-dense")
        ui = incident(mesh.nodes)
        sup_i = float(np.max(np.linalg.norm(ui, axis=1)))
        sup_s = float(np.max(np.linalg.norm(sol.u_scattered.values, axis=1)))
        sup_t = float(np.max(np.linalg.norm(sol.u_total.values, axis=1)))
        rep = contraction_report(sc, s=s_scale)
        mode_gap = float("nan")
        terms, contraction = sol.series_terms_used, sol.contraction_estimate
        if not rep.out_of_regime:
            sol_n = solve_medium(sc, incident, mesh, mode="neumann-series")
            num = np.linalg.norm(sol_n.u_total.values - sol.u_total.values)
            mode_gap = float(num / np.linalg.norm(sol.u_total.values))
            terms, contraction = sol_n.series_terms_used, sol_n.contraction_estimate
        ffn = farfield_norm(sol.farfield)
        return ([i, abs(v0), rep.epsilon, rep.v_sup, rep.upsilon,
                 sup_s / sup_i, sup_t / sup_i, ffn, terms, contraction,
                 mode_gap, rep.out_of_regime], sol.u_total.values)

    results = _parallel(point, len(v0_values), workers)
    rows = [row for row, _ in results]
    # PDE self-check: the first direct solve must satisfy the perturbed
    # system on its own lattice
    max_rel, _, _ = lattice_pde_residual(scatterer_for(v0_values[0]), mesh,
                                         results[0][1])
    if max_rel > tol:
        raise NumericalValidationFailure(
            f"lattice residual {max_rel} exceeds {tol} at h={h}")

    entries = [(r[2], r[3], r[5], r[6]) for r in rows if not r[11]]
    summary = {"lattice_residual_max": max_rel, "delta": delta}
    if entries:
        try:
            calib = bounds.calibrate_contraction_scale(entries)
            summary["contraction_scale"] = calib.to_json_dict()
        except (OutOfRegime, ToolkitError) as exc:
            summary["contraction_scale_error"] = str(exc)
    header = ["index", "v0", "epsilon", "v_sup", "upsilon", "ratio_scattered",
              "ratio_total", "farfield_norm", "series_terms", "contraction",
              "mode_gap", "out_of_regime"]
    return {"tables": {"medium": (header, rows)}, "summary": summary}


def run_distinguish(cfg: dict, seed: int, workers: int) -> dict:
    """Columns: separation, radius, diff_norm, noise, margin."""
    med = _medium_from(cfg)
    blk = cfg.get("pair", {})
    radius = float(blk.get("radius_scale", 0.05)) / med.omega
    sep = float(blk.get("separation_scale", 3.0)) / med.omega
    amp = np.asarray(blk.get("amplitude", (1.0, 0.0)), dtype=complex)
    n_radial = int(cfg.get("mesh", {}).get("n_radial", 32))
    n_angular = int(cfg.get("mesh", {}).get("n_angular", 64))
    dirs = directions_circle(int(cfg.get("directions", 256)))

    def pattern_for(center, nr, na):
        dom = disk(radius, center)
        mesh = gauss_mesh(dom, n_radial=nr, n_angular=na)

        def phi(pts):
            return np.broadcast_to(amp, (pts.shape[0], 2)).copy()

        return farfield_of_source(SourceProblem(dom, med, phi), mesh, dirs)

    p1 = pattern_for((-sep / 2.0, 0.0), n_radial, n_angular)
    p2 = pattern_for((sep / 2.0, 0.0), n_radial, n_angular)
    p1f = pattern_for((-sep / 2.0, 0.0), n_radial + 16, 2 * n_angular)

    def diff_norm(a, b):
        dup = a.up_inf - b.up_inf
        dus = a.us_inf - b.us_inf
        total = np.sum(np.abs(dup) ** 2) + np.sum(np.abs(dus) ** 2)
        return float(np.sqrt(2.0 * np.pi / len(a.directions) * total))

    diff = diff_norm(p1, p2)
    noise = diff_norm(p1, p1f)
    margin = diff / (10.0 * noise) if noise > 0 else float("inf")
    rows = [[sep, radius, diff, noise, margin]]
    return {"tables": {"distinguish": (["separation", "radius", "diff_norm",
                                        "noise", "margin"], rows)},
            "summary": {"diff_norm": diff, "noise": noise, "margin": margin,
                        "distinct": margin > 1.0}}


RUNNERS = {
    "sweep-small": run_sweep_small,
    "nonradiating-audit": run_nonradiating_audit,
    "cgo-verify": run_cgo_verify,
    "identity-check": run_identity_check,
    "kpoint-decay": run_kpoint_decay,
    "medium-demo": run_medium_demo,
    "distinguish": run_distinguish,
}


def _execute(experiment: str, cfg: dict, out_prefix: Path, seed: int,
             workers: int) -> Path:
    started = time.monotonic()
    result = RUNNERS[experiment](cfg, seed, workers)
    written = []
    try:
        out_prefix.parent.mkdir(parents=True, exist_ok=True)
        tables = {}
        for name, (header, rows) in result["tables"].items():
            path = Path(f"{out_prefix}_{name}.csv")
            written.append(path)
            write_csv(path, header, rows)
            tables[name] = path.name
        report = {
            "artifact": "elastoscat",
            "version": __version__,
            "experiment": experiment,
            "seed": seed,
            "config_echo": cfg,
            "tables": tables,
            "summary": result["summary"],
            "wall_clock_sec": time.monotonic() - started,
        }
        report_path = Path(f"{out_prefix}_report.json")
        written.append(report_path)
        report_path.write_text(json.dumps(report, indent=2, sort_keys=True)
                               + "\n", encoding="utf-8")
    except BaseException:
        # a path is listed before its write starts, so a half-written file
        # goes too; anything else squatting on the path is left alone
        for path in written:
            if path.is_file():
                path.unlink()
        raise
    return report_path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="elastoscat",
        description="Desk-scale elastic scattering experiments")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--workers", type=int, default=1,
                       help="concurrent sweep points (default 1)")
        p.add_argument("--out", default=None,
                       help="output prefix (default from config or ./out/<name>)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        if cfg["experiment"] != args.experiment:
            raise ConfigInvalid(
                f"config is for {cfg['experiment']!r}, not {args.experiment!r}")
        seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
        prefix = Path(args.out or cfg.get("output", f"out/{args.experiment}"))
        report = _execute(args.experiment, cfg, prefix, seed,
                          max(1, args.workers))
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalValidationFailure as exc:
        print(f"numerical validation failed: {exc}", file=sys.stderr)
        return 3
    except ToolkitError as exc:
        print(f"numerical validation failed: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 3
    print(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
