"""Density-contrast scattering: volume integral equation, series, diagnostics."""

import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elastoscat import (
    MediumScatterer,
    SampledVectorField,
    SourceProblem,
    contraction_report,
    disk,
    ellipse,
    farfield_norm,
    field_norms,
    gauss_mesh,
    kupradze_tensor,
    lame_operator_fd,
    lattice_pde_residual,
    make_cap_domain,
    make_incident,
    make_medium,
    solve_medium,
    solve_medium_sweep,
    upsilon,
    volume_mesh,
)
from elastoscat import scattering, source
from elastoscat.greens import kupradze_batch, singular_cell_integral
from elastoscat.elastic import content_id
from elastoscat.geometry import QuadratureMesh, inside, signed_distance
from elastoscat.source import (
    _PHASE_BLOCK,
    coincident_nodes,
    directions_circle,
    farfield_of_source,
    potential_row,
)
from elastoscat.errors import (
    CoincidentPoints,
    DimensionMismatch,
    InvalidDirection,
    InvalidParameter,
    MeshMismatch,
    OutOfRegime,
    QuadratureBudgetExceeded,
    SeriesDiverges,
    SingularSystem,
)
from test_source import assert_matches_direction_loop

MED = make_medium(2.0, 1.0, 2.0, 2)


def smooth_disk_contrast(center, radius, v0):
    c = np.asarray(center, float)

    def contrast(pts):
        r2 = np.sum((np.asarray(pts, float) - c) ** 2, axis=-1)
        return v0 * np.maximum(1.0 - r2 / radius ** 2, 0.0) ** 2

    return contrast


def scatterer(v0=0.4, radius=0.45, center=(0.0, 0.0)):
    return MediumScatterer(domain=disk(radius, center=center), medium=MED,
                           contrast=smooth_disk_contrast(center, radius, v0))


# ---------------------------------------------------------------------------
# incident waves
# ---------------------------------------------------------------------------

def pde_residual(wave, point):
    """Relative order-4 finite-difference residual of the homogeneous system
    at one point."""
    x = np.asarray(point, dtype=float)[None, :]
    res = lame_operator_fd(wave, x, wave.medium, step=1e-3, order=4)[0]
    return np.linalg.norm(res) / (wave.medium.omega ** 2 * np.linalg.norm(wave(x)[0]))


def test_incident_pressure_wave_solves_system():
    inc = make_incident("pressure-plane", {"direction": (0.6, 0.8)}, MED)
    for pt in ([0.3, -0.2], [1.1, 0.7]):
        assert pde_residual(inc, pt) < 1e-8


def test_incident_shear_wave_solves_system():
    inc = make_incident("shear-plane", {"direction": (1.0, 0.0)}, MED)
    assert pde_residual(inc, [0.2, 0.5]) < 1e-8


def test_incident_point_source_solves_system():
    inc = make_incident("point-source", {"origin": (5.0, 5.0)}, MED)
    assert pde_residual(inc, [0.1, -0.3]) < 1e-8


def test_incident_point_source_matches_per_point_tensor():
    # reference: one Green-tensor evaluation per point, column e_1
    nodes = volume_mesh(disk(0.45), h=0.05).nodes
    for origin in ((1.0, 0.0), (0.0, 1.2), (-0.9, 0.6), (0.8, -0.8)):
        inc = make_incident("point-source", {"origin": origin}, MED)
        want = np.array([kupradze_tensor(x, np.array(origin), MED)[:, 0]
                         for x in nodes])
        assert np.array_equal(inc(nodes), want)


def test_incident_pressure_wave_is_curl_free():
    inc = make_incident("pressure-plane", {"direction": (0.6, 0.8)}, MED)
    h = 1e-5
    x = np.array([0.17, 0.31])

    def u(p):
        return inc(p[None, :])[0]

    curl = ((u(x + [h, 0])[1] - u(x - [h, 0])[1])
            - (u(x + [0, h])[0] - u(x - [0, h])[0])) / (2 * h)
    assert abs(curl) < 1e-8 * np.linalg.norm(u(x))


def test_incident_shear_wave_is_divergence_free():
    inc = make_incident("shear-plane", {"direction": (0.6, 0.8)}, MED)
    h = 1e-5
    x = np.array([-0.4, 0.22])

    def u(p):
        return inc(p[None, :])[0]

    div = ((u(x + [h, 0])[0] - u(x - [h, 0])[0])
           + (u(x + [0, h])[1] - u(x - [0, h])[1])) / (2 * h)
    assert abs(div) < 1e-8 * np.linalg.norm(u(x))


def test_incident_rejects_unknown_kind():
    with pytest.raises(InvalidDirection):
        make_incident("torsion-wave", {"direction": (1.0, 0.0)}, MED)


# ---------------------------------------------------------------------------
# solve_medium
# ---------------------------------------------------------------------------

def test_zero_contrast_does_not_scatter():
    sc = scatterer(v0=0.0)
    mesh = volume_mesh(sc.domain, h=0.05)
    inc = make_incident("pressure-plane", {"direction": (1.0, 0.0)}, MED)
    sol = solve_medium(sc, inc, mesh)
    assert np.max(np.abs(sol.u_scattered.values)) < 1e-12
    assert farfield_norm(sol.farfield) < 1e-12
    sol_n = solve_medium(sc, inc, mesh, mode="neumann-series")
    assert sol_n.series_terms_used == 1
    assert np.max(np.abs(sol_n.u_scattered.values)) < 1e-12


def test_zero_contrast_stops_the_krylov_process_at_its_first_step():
    # the first step leaves the Krylov space invariant (a happy breakdown):
    # the process stops there, every residual is 0, and nothing divides by 0
    sc = scatterer(v0=0.0)
    mesh = volume_mesh(sc.domain, h=0.05)
    inc = make_incident("pressure-plane", {"direction": (1.0, 0.0)}, MED)
    ui = inc(mesh.nodes)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sols = [solve_medium(sc, inc, mesh)] + solve_medium_sweep(
            sc, [0.5, 2.0j], inc, mesh, "direct-dense")
    for sol in sols:
        # u_i / |u_i| * |u_i| rounds each entry at most twice
        np.testing.assert_allclose(sol.u_total.values, ui, rtol=1e-15, atol=0.0)
        assert sol.contraction_estimate == 0.0


def test_neumann_matches_direct_for_small_contrast():
    sc = scatterer(v0=0.3, radius=0.35)
    mesh = volume_mesh(sc.domain, h=0.035)
    inc = make_incident("pressure-plane", {"direction": (0.6, 0.8)}, MED)
    direct = solve_medium(sc, inc, mesh, mode="direct-dense")
    series = solve_medium(sc, inc, mesh, mode="neumann-series")
    num = np.linalg.norm(direct.u_total.values - series.u_total.values)
    den = np.linalg.norm(direct.u_total.values)
    assert num / den < 1e-8
    assert series.series_terms_used > 1
    assert series.contraction_estimate < 1.0


def test_total_field_satisfies_perturbed_system():
    sc = scatterer(v0=0.4, radius=0.45)
    mesh = volume_mesh(sc.domain, h=0.03)
    inc = make_incident("pressure-plane", {"direction": (1.0, 0.0)}, MED)
    sol = solve_medium(sc, inc, mesh)
    worst, median, count = lattice_pde_residual(sc, 1.0, mesh, sol.u_total.values)
    assert count > 100
    assert worst < 1e-2
    assert median < 2e-3


def test_lattice_residual_flags_wrong_field():
    sc = scatterer(v0=0.4, radius=0.45)
    mesh = volume_mesh(sc.domain, h=0.03)
    inc = make_incident("pressure-plane", {"direction": (1.0, 0.0)}, MED)
    # the incident field alone does not solve the perturbed system
    ui = inc(mesh.nodes)
    worst, _, _ = lattice_pde_residual(sc, 1.0, mesh, ui)
    assert worst > 0.05


def test_lattice_residual_reads_the_amplitude():
    # the residual of V = a q on the profile q is that of the contrast a q
    profile = scatterer(v0=1.0)
    mesh = volume_mesh(profile.domain, h=0.05)
    inc = make_incident("pressure-plane", {"direction": (1.0, 0.0)}, MED)
    for a in (0.4, -1.5):
        u = solve_medium(_scaled(profile, a), inc, mesh).u_total.values
        assert lattice_pde_residual(profile, a, mesh, u) \
            == lattice_pde_residual(_scaled(profile, a), 1.0, mesh, u)
    assert lattice_pde_residual(profile, 0.4, mesh, u) \
        != lattice_pde_residual(profile, -1.5, mesh, u)


def test_lattice_residual_needs_cell_mesh():
    sc = scatterer()
    smooth = gauss_mesh(sc.domain, n_radial=16, n_angular=32)
    vals = np.zeros((smooth.nodes.shape[0], 2), dtype=complex)
    with pytest.raises(MeshMismatch):
        lattice_pde_residual(sc, 1.0, smooth, vals)


def _lattice_keys(mesh):
    return np.round((mesh.nodes - mesh.nodes.min(axis=0)) / mesh.h).astype(int)


def _interior_by_nodes(mesh, margin_cells=6):
    """Reference: the nodes whose every lattice point within ``margin_cells``
    cells (Euclidean) is a mesh node, by one dict lookup per point."""
    keys = [tuple(k) for k in _lattice_keys(mesh).tolist()]
    meshed = set(keys)
    ball = [(dx, dy) for dx in range(-margin_cells, margin_cells + 1)
            for dy in range(-margin_cells, margin_cells + 1)
            if dx * dx + dy * dy <= margin_cells ** 2]
    return [i for i, (kx, ky) in enumerate(keys)
            if all((kx + dx, ky + dy) in meshed for dx, dy in ball)]


def _lattice_residual_by_nodes(scatterer, mesh, u_total_values):
    """Reference: the per-node loop over a dict of lattice neighbours that
    lattice_pde_residual once ran, on the nodes of _interior_by_nodes."""
    nodes = mesh.nodes
    ut = np.asarray(u_total_values)
    h = mesh.h
    med = scatterer.medium
    lam, mu, omega = med.lam, med.mu, med.omega
    keys = _lattice_keys(mesh)
    index = {(int(k[0]), int(k[1])): i for i, k in enumerate(keys)}
    offsets = [(1, 0), (-1, 0), (0, 1), (0, -1),
               (1, 1), (1, -1), (-1, 1), (-1, -1)]
    rels = []
    vvals = scatterer.contrast_on(nodes)
    for i in _interior_by_nodes(mesh):
        k = keys[i]
        nb = [index.get((int(k[0]) + dx, int(k[1]) + dy)) for dx, dy in offsets]
        if any(j is None for j in nb):
            continue
        ip, im, jp, jm, pp, pm, mp_, mm = nb
        u0 = ut[i]
        d11 = (ut[ip] - 2.0 * u0 + ut[im]) / h ** 2
        d22 = (ut[jp] - 2.0 * u0 + ut[jm]) / h ** 2
        d12 = (ut[pp] - ut[pm] - ut[mp_] + ut[mm]) / (4.0 * h ** 2)
        grad_div = np.array([d11[0] + d12[1], d12[0] + d22[1]])
        res = mu * (d11 + d22) + (lam + mu) * grad_div \
            + omega ** 2 * (1.0 + vvals[i]) * u0
        rels.append(np.linalg.norm(res) / (omega ** 2 * np.linalg.norm(u0)))
    rels = np.asarray(rels)
    return float(rels.max()), float(np.median(rels)), int(rels.size)


LATTICE_CASES = {
    "disk-h0.03": (lambda: scatterer(), 0.03, False),
    "disk-h0.05": (lambda: scatterer(), 0.05, False),
    "offset-ellipse": (lambda: MediumScatterer(
        domain=ellipse(0.5, 0.3, center=(0.1, -0.05)), medium=MED,
        contrast=smooth_disk_contrast((0.1, -0.05), 0.5, 0.4)), 0.03, False),
    "wrong-field": (lambda: scatterer(), 0.03, True),
}


@pytest.mark.parametrize("name", list(LATTICE_CASES))
def test_lattice_residual_matches_node_loop(name):
    # the array stencil takes the mixed difference in the other order and
    # adds the contrast term separately, so last bits move
    make, h, wrong = LATTICE_CASES[name]
    sc = make()
    mesh = volume_mesh(sc.domain, h=h)
    inc = make_incident("pressure-plane", {"direction": (1.0, 0.0)}, MED)
    u = inc(mesh.nodes) if wrong else solve_medium(sc, inc, mesh).u_total.values
    worst, median, count = lattice_pde_residual(sc, 1.0, mesh, u)
    want_worst, want_median, want_count = _lattice_residual_by_nodes(sc, mesh, u)
    assert count == want_count > 0
    assert worst == pytest.approx(want_worst, rel=1e-12, abs=0.0)
    assert median == pytest.approx(want_median, rel=1e-12, abs=0.0)


RESIDUAL_DOMAINS = {
    "disk": disk(0.45),
    "offset-ellipse": ellipse(0.5, 0.3, center=(0.1, -0.05)),
    "ellipse": ellipse(0.6, 0.4),
}


@pytest.mark.parametrize("h", [0.03, 0.02, 0.01])
@pytest.mark.parametrize("name", list(RESIDUAL_DOMAINS))
def test_residual_interior_holds_the_signed_distance_set(name, h):
    # every node at least 6h inside the boundary is in the lattice erosion;
    # the nodes it adds have a meshed 6-cell disk, and none lies closer to
    # the boundary than 5.5h (5.72h at least on these meshes)
    dom = RESIDUAL_DOMAINS[name]
    mesh = volume_mesh(dom, h=h)
    sc = MediumScatterer(domain=dom, medium=MED, contrast=lambda x: np.zeros(x.shape[:-1]))
    eroded = set(_interior_by_nodes(mesh))
    depth = np.array([signed_distance(dom, x) for x in mesh.nodes])
    assert set(np.flatnonzero(depth <= -6 * h)) <= eroded
    assert depth[sorted(eroded)].max() <= -5.5 * h
    _, _, count = lattice_pde_residual(sc, 1.0, mesh,
                                       np.ones(mesh.nodes.shape, dtype=complex))
    assert count == len(eroded)


def test_lattice_residual_rejects_non_finite_field():
    sc = scatterer()
    mesh = volume_mesh(sc.domain, h=0.05)
    vals = np.ones((mesh.nodes.shape[0], 2), dtype=complex)
    vals[3, 1] = np.nan
    with pytest.raises(DimensionMismatch):
        lattice_pde_residual(sc, 1.0, mesh, vals)


def test_series_diverges_for_strong_contrast():
    sc = scatterer(v0=40.0, radius=0.45)
    mesh = volume_mesh(sc.domain, h=0.05)
    inc = make_incident("pressure-plane", {"direction": (1.0, 0.0)}, MED)
    with pytest.raises(SeriesDiverges):
        solve_medium(sc, inc, mesh, mode="neumann-series")


def test_point_source_must_sit_outside():
    sc = scatterer()
    mesh = volume_mesh(sc.domain, h=0.05)
    inc = make_incident("point-source", {"origin": (0.1, 0.0)}, MED)
    with pytest.raises(InvalidDirection):
        solve_medium(sc, inc, mesh)


# ---------------------------------------------------------------------------
# dense reference path: the collocation matrix, LU solve and power iteration
# that solve_medium ran before the FFT lattice operator
# ---------------------------------------------------------------------------

def _potential_matrix(mesh, medium):
    """Dense discretization of the volume potential on the mesh nodes.

    Row pair ``i`` is :func:`potential_row` at node ``y_i``, bit for bit:
    block ``(i, k)`` is ``w_k G(y_i, y_k)`` and a block whose nodes coincide
    is the analytic singular-cell integral; requires a cell-style mesh.

    The kernel depends on the node pair only through ``y_i - y_k``, and a
    cell mesh has few distinct differences (2,993 of 65,536 pairs on a disk
    at N = 256), so it is evaluated once per distinct difference and gathered.
    Each difference is the same per-axis float subtraction as in
    :func:`potential_row`, taken between the distinct coordinates.
    """
    if mesh.style != "cell":
        raise MeshMismatch("potential collocation needs a cell-style mesh")
    n = mesh.nodes.shape[0]
    nbytes = (2 * n) ** 2 * 16
    if nbytes > 1_073_741_824:
        raise QuadratureBudgetExceeded(
            f"dense potential matrix would take {nbytes / 2**30:.1f} GiB "
            f"({n} nodes); coarsen the mesh")
    # per axis: the distinct coordinate differences and each pair's id in them
    values, pair_ids = [], []
    for coord in mesh.nodes.T:
        coords, at = np.unique(coord, return_inverse=True)
        at = at.reshape(n)
        d, d_id = np.unique(np.subtract.outer(coords, coords), return_inverse=True)
        values.append(d)
        pair_ids.append(d_id.reshape(coords.size, coords.size)[np.ix_(at, at)])
    ny = values[1].size
    codes, inv = np.unique(pair_ids[0] * ny + pair_ids[1], return_inverse=True)
    inv = inv.reshape(n, n)
    del pair_ids
    diffs = np.stack([values[0][codes // ny], values[1][codes % ny]], axis=1)
    hit = coincident_nodes(np.hypot(diffs[:, 0], diffs[:, 1])[inv], mesh)
    live = np.ones(codes.size, dtype=bool)
    live[inv[hit]] = False
    table = np.zeros((codes.size, 2, 2), dtype=complex)
    table[live] = kupradze_batch(diffs[live], medium)
    mat = np.empty((2 * n, 2 * n), dtype=complex)
    blocks = mat.reshape(n, 2, n, 2)
    for a in range(2):
        for b in range(2):
            np.multiply(table[:, a, b][inv], mesh.weights, out=blocks[:, a, :, b])
    rows, cols = np.nonzero(hit)
    blocks[rows, :, cols, :] = singular_cell_integral(medium, mesh.h)
    return mat


def _spectral_norm_estimate(op, iters=12, seed=3):
    """Power-iteration estimate of the operator 2-norm (diagnostic only)."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(op.shape[1]) + 1j * rng.standard_normal(op.shape[1])
    v /= np.linalg.norm(v)
    sigma = 0.0
    for _ in range(iters):
        w = (op.T @ (op @ v).conj()).conj()   # op^H op v without copying op
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            return 0.0
        sigma = np.sqrt(nw)
        v = w / nw
    return float(sigma)


def _solve_medium_dense(sc, incident, mesh, mode="direct-dense", series_tol=1e-12):
    """Reference: solve_medium on the dense (2N, 2N) matrix, by LU in
    ``direct-dense`` mode and by dense matvecs in ``neumann-series`` mode."""
    med = sc.medium
    nodes = mesh.nodes
    n = nodes.shape[0]
    vvals = sc.contrast_on(nodes)
    ui = incident(nodes)
    vdiag = np.repeat(vvals, 2)
    op = _potential_matrix(mesh, med)
    op *= -med.omega ** 2
    op *= vdiag[None, :]
    terms = 1
    b = ui.ravel()
    if mode == "direct-dense":
        sys_ = op.copy()
        sys_[np.diag_indices(2 * n)] += 1.0
        ut_flat = np.linalg.solve(sys_, b)
        resid = float(np.linalg.norm(sys_ @ ut_flat - b) / np.linalg.norm(b))
        if resid > 1e-8:
            raise SingularSystem(f"collocation residual {resid:.2e}")
        contraction = _spectral_norm_estimate(op)
    else:
        ut_flat = b.copy()
        term = b.copy()
        base = prev = float(np.linalg.norm(b))
        ratios = []
        while True:
            term = -(op @ term)
            cur = float(np.linalg.norm(term))
            if cur <= series_tol * base:
                break
            if prev > 0.0:
                ratios.append(cur / prev)
            ut_flat = ut_flat + term
            prev = cur
            terms += 1
        contraction = float(max(ratios)) if ratios else 0.0
    ut = ut_flat.reshape(n, 2)
    equivalent = -med.omega ** 2 * vdiag.reshape(n, 2) * ut
    problem = SourceProblem(domain=sc.domain, medium=med,
                            phi=SampledVectorField(nodes=nodes, values=equivalent,
                                                   mesh_ref=mesh.mesh_id))
    ff = farfield_of_source(problem, mesh,
                            scattering._default_directions(med, sc.domain))
    return scattering.MediumSolve(
        u_total=SampledVectorField(nodes=nodes, values=ut, mesh_ref=mesh.mesh_id),
        u_scattered=SampledVectorField(nodes=nodes, values=ut - ui,
                                       mesh_ref=mesh.mesh_id),
        farfield=ff, series_terms_used=terms, contraction_estimate=contraction)


def _potential_matrix_by_rows(mesh, medium):
    """Reference assembly: one potential_row per node, as the solver once did."""
    n = mesh.nodes.shape[0]
    mat = np.empty((2 * n, 2 * n), dtype=complex)
    for i in range(n):
        mat[2 * i:2 * i + 2] = potential_row(mesh, medium, mesh.nodes[i])
    return mat


def _two_disk_mesh(radius: float) -> QuadratureMesh:
    """The cell meshes (h = 0.02) of two disjoint disks, of radii 0.2 and
    ``radius``, as one node set with a gap: on one h-lattice when the radii
    are equal, on offset lattices when they are not."""
    parts = [volume_mesh(disk(0.2, center=(-0.3, 0.0)), h=0.02),
             volume_mesh(disk(radius, center=(0.3, 0.1)), h=0.02)]
    nodes = np.concatenate([m.nodes for m in parts])
    weights = np.concatenate([m.weights for m in parts])
    return QuadratureMesh(nodes=nodes, weights=weights, h=0.02, style="cell",
                          mesh_id=content_id(nodes, weights),
                          measure=sum(m.measure for m in parts))


POTENTIAL_MESHES = {
    "disk-h0.03": lambda: volume_mesh(disk(0.45), h=0.03),
    "disk-h0.05": lambda: volume_mesh(disk(0.45), h=0.05),
    "offset-disk": lambda: volume_mesh(disk(0.4, center=(0.15, -0.1)), h=0.04),
    "ellipse": lambda: volume_mesh(ellipse(0.4, 0.25), h=0.03),
    "two-disks": lambda: _two_disk_mesh(0.15),
}


@pytest.mark.parametrize("name", list(POTENTIAL_MESHES))
def test_potential_matrix_matches_row_loop(name):
    # array_equal, not a tolerance: the table gather repeats the row loop's
    # arithmetic exactly (it counts -0.0 and 0.0 as equal)
    mesh = POTENTIAL_MESHES[name]()
    assert mesh.nodes.shape[0] <= 710
    assert np.array_equal(_potential_matrix(mesh, MED),
                          _potential_matrix_by_rows(mesh, MED))


def test_potential_matrix_evaluates_each_distinct_difference_once(monkeypatch):
    rows = []
    real = kupradze_batch

    def counting(diffs, medium):
        rows.append(diffs.shape[0])
        return real(diffs, medium)

    monkeypatch.setitem(globals(), "kupradze_batch", counting)
    mesh = volume_mesh(disk(0.45), h=0.03)
    n = mesh.nodes.shape[0]
    _potential_matrix(mesh, MED)
    assert 0 < sum(rows) < n * n / 20


# ---------------------------------------------------------------------------
# the FFT lattice operator and GMRES against the dense reference
# ---------------------------------------------------------------------------

def _meshed(domain, h):
    return domain, volume_mesh(domain, h=h)


# a domain and a cell mesh on one h-lattice: the two disks of "two-disks"
# share it, and the disk around them holds both
LATTICE_MESHES = {
    "disk": lambda: _meshed(disk(0.45), 0.03),
    "offset-disk": lambda: _meshed(disk(0.4, center=(0.15, -0.1)), 0.04),
    "ellipse": lambda: _meshed(ellipse(0.5, 0.3, center=(0.1, -0.05)), 0.03),
    "two-disks": lambda: (disk(0.55), _two_disk_mesh(0.2)),
}


@pytest.mark.parametrize("name", list(LATTICE_MESHES))
def test_lattice_potential_matches_dense_matrix(name):
    _, mesh = LATTICE_MESHES[name]()
    n = mesh.nodes.shape[0]
    rng = np.random.default_rng(11)
    x = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    want = (_potential_matrix(mesh, MED) @ x.ravel()).reshape(n, 2)
    got = scattering.LatticeOperator(mesh, MED).apply(x)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("mode", ["direct-dense", "neumann-series"])
def test_solve_with_prebuilt_operator_matches_a_fresh_one(mode):
    # one operator serves two contrasts and both incident kinds, bit for bit
    mesh = volume_mesh(disk(0.45), h=0.05)
    operator = scattering.LatticeOperator(mesh, MED)
    for v0 in (0.2, 0.35):
        sc = scatterer(v0=v0)
        for kind, params in GOLDEN_INCIDENTS.values():
            inc = make_incident(kind, params, MED)
            got = solve_medium(sc, inc, mesh, mode=mode, operator=operator)
            want = solve_medium(sc, inc, mesh, mode=mode)
            assert np.array_equal(got.u_total.values, want.u_total.values)
            assert np.array_equal(got.u_scattered.values, want.u_scattered.values)
            assert np.array_equal(got.farfield.up_inf, want.farfield.up_inf)
            assert np.array_equal(got.farfield.us_inf, want.farfield.us_inf)
            assert got.series_terms_used == want.series_terms_used
            assert got.contraction_estimate == want.contraction_estimate


SHARED_INCIDENTS = {
    "pressure": ("pressure-plane", {"direction": (1.0, 0.0)}),
    "shear": ("shear-plane", {"direction": (0.6, 0.8)}),
    "point": ("point-source", {"origin": (1.0, 0.0)}),
}


SWEEP_AMPLITUDES = [0.5, 1.0, 1.5]


def _phase_calls(monkeypatch):
    """A list that gains one entry per phase matrix the far field builds."""
    calls = []
    real = source._phase_matrix

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(source, "_phase_matrix", counted)
    return calls


def _two_block_directions(mesh):
    """Directions that fill one far-field phase block on the mesh and half
    of a second, whatever ``_PHASE_BLOCK`` is."""
    step = _PHASE_BLOCK // mesh.nodes.shape[0]
    return directions_circle(step + step // 2)


@pytest.mark.parametrize("mode", ["direct-dense", "neumann-series"])
@pytest.mark.parametrize("name", list(SHARED_INCIDENTS))
def test_solve_with_shared_incident_and_phases_matches_unshared(name, mode):
    # the run-wide incident sample gives the bits of a sweep that evaluates
    # the wave itself, and each amplitude's far field, radiated in one pass
    # over shared phase blocks, the bits of farfield_of_source of its own
    # equivalent source; the directions on 256 nodes take two blocks
    sc = scatterer(v0=0.2)
    mesh = volume_mesh(sc.domain, h=0.05)
    dirs = _two_block_directions(mesh)
    assert dirs.shape[0] * mesh.nodes.shape[0] > _PHASE_BLOCK
    inc = make_incident(*SHARED_INCIDENTS[name], MED)
    want = solve_medium_sweep(sc, SWEEP_AMPLITUDES, inc, mesh, mode, dirs)
    got = solve_medium_sweep(sc, SWEEP_AMPLITUDES, inc, mesh, mode, dirs,
                             operator=scattering.LatticeOperator(mesh, MED),
                             incident_values=inc.sample(mesh))
    contrast = sc.contrast_on(mesh.nodes)[:, None]
    for a, g, w in zip(SWEEP_AMPLITUDES, got, want):
        assert (g.u_total.values == w.u_total.values).all()
        assert (g.u_scattered.values == w.u_scattered.values).all()
        assert g.series_terms_used == w.series_terms_used
        equivalent = -MED.omega ** 2 * (a * contrast) * w.u_total.values
        problem = SourceProblem(domain=sc.domain, medium=MED,
                                phi=SampledVectorField(nodes=mesh.nodes, values=equivalent,
                                                       mesh_ref=mesh.mesh_id))
        alone = farfield_of_source(problem, mesh, dirs)
        for pattern in (g.farfield, w.farfield):
            assert repr(pattern) == repr(alone)
            assert content_id(pattern.up_inf, pattern.us_inf) \
                == content_id(alone.up_inf, alone.us_inf)


def test_far_field_larger_than_one_block_keeps_no_phases(monkeypatch):
    # a sweep builds each block's two phase matrices once, on the first far
    # field read, whatever its amplitude count, and keeps none: reading the
    # other amplitudes builds nothing
    sc = scatterer(v0=0.2)
    mesh = volume_mesh(sc.domain, h=0.05)
    dirs = _two_block_directions(mesh)
    blocks = -(-dirs.shape[0] // (_PHASE_BLOCK // mesh.nodes.shape[0]))
    assert blocks == 2
    operator = scattering.LatticeOperator(mesh, MED)
    inc = make_incident("point-source", {"origin": (1.0, 0.0)}, MED)
    calls = _phase_calls(monkeypatch)
    for count in (1, 4):
        for mode in ("direct-dense", "neumann-series"):
            calls.clear()
            sols = solve_medium_sweep(sc, [0.5 + 0.25 * k for k in range(count)], inc,
                                      mesh, mode, dirs, operator=operator,
                                      incident_values=inc.sample(mesh))
            assert calls == []
            assert sols[0].farfield.up_inf.shape == (dirs.shape[0],)
            assert len(calls) == 2 * blocks
            for sol in sols[1:]:
                assert sol.farfield.up_inf.shape == (dirs.shape[0],)
            assert len(calls) == 2 * blocks


def test_shared_values_or_phases_from_another_mesh_are_rejected(monkeypatch):
    sc = scatterer(v0=0.2)
    mesh = volume_mesh(sc.domain, h=0.05)
    other = volume_mesh(sc.domain, h=0.045)
    inc = make_incident("point-source", {"origin": (1.0, 0.0)}, MED)
    foreign = inc.sample(other)

    def no_operator(*args, **kwargs):
        raise AssertionError("the operator was built")

    with monkeypatch.context() as patch:
        patch.setattr(scattering.LatticeOperator, "__init__", no_operator)
        for mode in ("direct-dense", "neumann-series"):
            with pytest.raises(MeshMismatch, match="another mesh"):
                solve_medium(sc, inc, mesh, mode=mode, incident_values=foreign)
    # an operator built for another mesh
    with pytest.raises(MeshMismatch, match="another mesh or medium"):
        solve_medium(sc, inc, mesh, operator=scattering.LatticeOperator(other, MED),
                     incident_values=inc.sample(mesh))


def test_shared_arrays_are_read_only():
    sc = scatterer(v0=0.2)
    mesh = volume_mesh(sc.domain, h=0.05)
    for kind, params in SHARED_INCIDENTS.values():
        values = make_incident(kind, params, MED).sample(mesh).values
        with pytest.raises(ValueError, match="read-only"):
            values[0, 0] = 0.0


def test_v_sup_reads_the_shared_draw_with_the_same_bits(monkeypatch):
    # the seeded draw in the bounding box, masked to the domain, on every call
    for sc in (scatterer(v0=0.4), scatterer(v0=0.3, radius=0.3, center=(0.2, -0.1))):
        lo, hi = sc.domain.shape.bbox()
        rng = np.random.default_rng(scattering._V_SUP_SEED)
        pts = rng.uniform(lo, hi, size=(scattering._V_SUP_SAMPLES, 2))
        want = float(np.max(np.abs(sc.contrast_on(pts[inside(sc.domain, pts)]))))
        assert sc.v_sup() == want
        assert sc.v_sup() == want
    # a draw with no point in the domain reads 0
    monkeypatch.setattr(scattering, "_V_SUP_SAMPLES", 0)
    assert scatterer(v0=0.4).v_sup() == 0.0


def test_contraction_report_scales_one_draw_by_each_amplitude(monkeypatch):
    # row v_sup is |a| times the profile's, with the bits of the scaled
    # contrast's own draw for a real amplitude, and the draw is made once
    profile = scatterer(v0=1.0, radius=0.3)
    amplitudes = [0.2, -0.5, 3.0, 0.0]
    calls = []
    v_sup = MediumScatterer.v_sup

    def counted(self):
        calls.append(1)
        return v_sup(self)

    monkeypatch.setattr(MediumScatterer, "v_sup", counted)
    reports = contraction_report(profile, amplitudes, s=1.0)
    assert calls == [1]
    assert reports == [contraction_report(scatterer(v0=a, radius=0.3), [1.0], s=1.0)[0]
                       for a in amplitudes]
    assert [rep.out_of_regime for rep in reports] == [False, False, True, False]
    assert contraction_report(profile, [], s=1.0) == []


def test_operator_for_another_mesh_or_medium_is_rejected():
    sc = scatterer(v0=0.2)
    mesh = volume_mesh(sc.domain, h=0.05)
    inc = make_incident("pressure-plane", {"direction": (1.0, 0.0)}, MED)
    other_mesh = scattering.LatticeOperator(volume_mesh(sc.domain, h=0.045), MED)
    other_medium = scattering.LatticeOperator(mesh, make_medium(2.0, 1.0, 2.5, 2))
    for operator in (other_mesh, other_medium):
        for mode in ("direct-dense", "neumann-series"):
            with pytest.raises(MeshMismatch, match="another mesh or medium"):
                solve_medium(sc, inc, mesh, mode=mode, operator=operator)


def test_direct_contraction_estimate_runs_on_first_read(monkeypatch):
    calls = []
    real = scattering._norm_estimate

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(scattering, "_norm_estimate", counted)
    sc = scatterer(v0=0.2)
    mesh = volume_mesh(sc.domain, h=0.05)
    inc = make_incident("pressure-plane", {"direction": (1.0, 0.0)}, MED)
    sol = solve_medium(sc, inc, mesh)
    assert calls == []
    first = sol.contraction_estimate
    assert sol.contraction_estimate == first
    assert calls == [1]
    assert repr(first) == GOLDEN_MEDIUM_LATTICE["pressure/direct-dense"][3]


def test_farfield_is_radiated_on_first_read(monkeypatch):
    calls = _phase_calls(monkeypatch)
    sc = scatterer(v0=0.2)
    mesh = volume_mesh(sc.domain, h=0.05)
    inc = make_incident("pressure-plane", {"direction": (1.0, 0.0)}, MED)
    sol = solve_medium(sc, inc, mesh)
    assert calls == []
    first = sol.farfield
    assert sol.farfield is first
    # the default directions fit one block: its kappa_p and kappa_s matrices
    assert len(calls) == 2


@pytest.mark.parametrize("directions, error", [
    ([[2.0, 0.0]], InvalidDirection),
    ([[np.nan, 0.0]], InvalidDirection),
    (np.zeros((1, 3)), DimensionMismatch),
])
def test_solve_medium_rejects_bad_directions_before_solving(monkeypatch,
                                                           directions, error):
    def no_solve(*args, **kwargs):
        raise AssertionError("the operator was built")

    monkeypatch.setattr(scattering.LatticeOperator, "__init__", no_solve)
    sc = scatterer(v0=0.2)
    mesh = volume_mesh(sc.domain, h=0.05)
    inc = make_incident("pressure-plane", {"direction": (1.0, 0.0)}, MED)
    with pytest.raises(error):
        solve_medium(sc, inc, mesh, directions=directions)


@pytest.mark.parametrize("mode", ["direct-dense", "neumann-series"])
@pytest.mark.parametrize("name", list(LATTICE_MESHES))
def test_solve_medium_matches_dense_reference(name, mode):
    # the contrast's phase varies in space, so the adjoint in the contraction
    # estimate must conjugate V
    domain, mesh = LATTICE_MESHES[name]()
    profile = smooth_disk_contrast((0.0, 0.0), 0.8, 0.3)
    sc = MediumScatterer(domain=domain, medium=MED,
                         contrast=lambda pts: profile(pts) * np.exp(2j * pts[..., 0]))

    def rel(a, b):
        return np.linalg.norm(a - b) / np.linalg.norm(b)

    for kind, params in GOLDEN_INCIDENTS.values():
        inc = make_incident(kind, params, MED)
        got = solve_medium(sc, inc, mesh, mode=mode)
        want = _solve_medium_dense(sc, inc, mesh, mode=mode)
        assert rel(got.u_total.values, want.u_total.values) <= 1e-10
        assert rel(got.farfield.up_inf, want.farfield.up_inf) <= 1e-10
        assert rel(got.farfield.us_inf, want.farfield.us_inf) <= 1e-10
        assert got.series_terms_used == want.series_terms_used
        assert got.contraction_estimate == pytest.approx(
            want.contraction_estimate, rel=0.0, abs=1e-12)


def test_solve_medium_beyond_the_dense_size_limit():
    # about 20k nodes: the dense matrix would take 98 GiB
    sc = scatterer(v0=0.2)
    mesh = volume_mesh(sc.domain, h=0.0056)
    assert mesh.nodes.shape[0] > 20_000
    inc = make_incident("pressure-plane", {"direction": (1.0, 0.0)}, MED)
    sol = solve_medium(sc, inc, mesh)
    worst, _, count = lattice_pde_residual(sc, 1.0, mesh, sol.u_total.values)
    assert count > 15_000
    assert worst < 1e-3


def test_gmres_residual_gate_raises_singular_system(monkeypatch):
    # two GMRES steps leave a residual far above the 1e-8 gate
    monkeypatch.setattr(scattering, "_GMRES_RESTART", 2)
    monkeypatch.setattr(scattering, "_GMRES_MAX_CYCLES", 1)
    sc = scatterer(v0=2.0)
    mesh = volume_mesh(sc.domain, h=0.05)
    inc = make_incident("pressure-plane", {"direction": (1.0, 0.0)}, MED)
    with pytest.raises(SingularSystem, match="collocation residual"):
        solve_medium(sc, inc, mesh)


# ---------------------------------------------------------------------------
# contrast sweeps: one Krylov process for every amplitude of one profile
# ---------------------------------------------------------------------------

SWEEP_INCIDENTS = {
    "pressure": ("pressure-plane", {"direction": (1.0, 0.0)}),
    "shear": ("shear-plane", {"direction": (0.6, 0.8)}),
    "point": ("point-source", {"origin": (0.5, 0.2)}),
}


def _sweep_case(radius=0.3):
    profile = scatterer(v0=1.0, radius=radius)
    return profile, volume_mesh(profile.domain, h=0.05)


def _scaled(profile, a):
    return MediumScatterer(domain=profile.domain, medium=MED,
                           contrast=lambda pts: a * profile.contrast(pts))


def _solve_each(profile, amplitudes, inc, mesh, mode):
    """Each amplitude's own solve, or the first error one of them raises."""
    try:
        return [solve_medium(_scaled(profile, a), inc, mesh, mode=mode)
                for a in amplitudes]
    except (SingularSystem, SeriesDiverges) as exc:
        return type(exc)


# 0, in-regime, out-of-regime and (for the series) diverging amplitudes:
# on disk(0.3) the regime ends at |a| = 0.83 and the series at about 12
AMPLITUDE = st.one_of(st.sampled_from([0.0, 0.2, 0.8, 3.0, 40.0]),
                      st.floats(-12.0, 12.0),
                      st.builds(complex, st.floats(-8.0, 8.0), st.floats(-8.0, 8.0)))


@given(amplitudes=st.lists(AMPLITUDE, min_size=1, max_size=12),
       kind=st.sampled_from(sorted(SWEEP_INCIDENTS)),
       mode=st.sampled_from(["direct-dense", "neumann-series"]))
@settings(max_examples=40, deadline=None)
def test_sweep_matches_one_solve_per_amplitude(amplitudes, kind, mode):
    # the values against the dense reference, which shares no Krylov code with
    # the sweep; the error against one solve per amplitude
    profile, mesh = _sweep_case()
    inc = make_incident(*SWEEP_INCIDENTS[kind], MED)
    each = _solve_each(profile, amplitudes, inc, mesh, mode)
    if isinstance(each, type):
        with pytest.raises(each):
            solve_medium_sweep(profile, amplitudes, inc, mesh, mode)
        return
    got = solve_medium_sweep(profile, amplitudes, inc, mesh, mode)
    assert len(got) == len(amplitudes)
    # only now: the reference's series has no divergence test or term cap
    for a, sweep in zip(amplitudes, got):
        want = _solve_medium_dense(_scaled(profile, a), inc, mesh, mode)
        diff = np.linalg.norm(sweep.u_total.values - want.u_total.values)
        assert diff <= 1e-10 * np.linalg.norm(want.u_total.values)
        assert sweep.series_terms_used == want.series_terms_used


def test_sweep_restarts_an_amplitude_that_one_cycle_leaves_unsolved(monkeypatch):
    # two Arnoldi steps solve only a = 0; the others restart from their
    # iterates, two Arnoldi steps on the residual a cycle
    monkeypatch.setattr(scattering, "_GMRES_RESTART", 2)
    cycles = []
    gmres = scattering._gmres

    def counted(op, b, x, restart_cycles, info=0):
        cycles.append(restart_cycles)
        return gmres(op, b, x, restart_cycles, info)

    monkeypatch.setattr(scattering, "_gmres", counted)
    profile, mesh = _sweep_case()
    inc = make_incident("pressure-plane", {"direction": (1.0, 0.0)}, MED)
    amplitudes = [0.0, 0.5, 2.0j, -1.5 + 0.5j]
    got = solve_medium_sweep(profile, amplitudes, inc, mesh, "direct-dense")
    assert cycles == [0] + [scattering._GMRES_MAX_CYCLES - 1] * 3
    for a, sweep in zip(amplitudes, got):
        want = _solve_medium_dense(_scaled(profile, a), inc, mesh)
        diff = np.linalg.norm(sweep.u_total.values - want.u_total.values)
        assert diff <= 1e-10 * np.linalg.norm(want.u_total.values)


@pytest.mark.parametrize("mode, amplitudes, cycles, error", [
    ("direct-dense", [0.0, 2.0], 1, SingularSystem),
    ("direct-dense", [0.0], 1, None),
    ("neumann-series", [0.2, 40.0, 0.0], None, SeriesDiverges),
    ("neumann-series", [0.2, 3.0, 0.0], None, None),
])
def test_sweep_raises_where_a_single_solve_raises(monkeypatch, mode, amplitudes,
                                                  cycles, error):
    if cycles is not None:
        # one cycle of two steps leaves a = 2 far above the 1e-8 gate
        monkeypatch.setattr(scattering, "_GMRES_RESTART", 2)
        monkeypatch.setattr(scattering, "_GMRES_MAX_CYCLES", cycles)
    profile, mesh = _sweep_case()
    inc = make_incident("pressure-plane", {"direction": (1.0, 0.0)}, MED)
    want = _solve_each(profile, amplitudes, inc, mesh, mode)
    if error is None:
        assert len(solve_medium_sweep(profile, amplitudes, inc, mesh, mode)) == len(want)
    else:
        assert want is error
        with pytest.raises(error):
            solve_medium_sweep(profile, amplitudes, inc, mesh, mode)


def test_sweep_applies_the_operator_for_its_largest_amplitude_only(monkeypatch):
    # the medium-sweep benchmark's disk and point source, 12 contrasts
    profile, mesh = _sweep_case(radius=0.45)
    inc = make_incident("point-source", {"origin": (1.0, 0.0)}, MED)
    operator = scattering.LatticeOperator(mesh, MED)
    amplitudes = [0.02 * k for k in range(1, 13)]
    applies = []
    apply = scattering.LatticeOperator.apply

    def counted(self, x):
        applies.append(1)
        return apply(self, x)

    monkeypatch.setattr(scattering.LatticeOperator, "apply", counted)

    def count(solve, *args):
        applies.clear()
        result = solve(*args, operator=operator)
        return len(applies), result

    direct, _ = count(solve_medium_sweep, profile, amplitudes, inc, mesh, "direct-dense")
    series, sols = count(solve_medium_sweep, profile, amplitudes, inc, mesh,
                         "neumann-series")
    # one solve of the largest contrast: its Krylov steps and the gate; the
    # sweep adds only the gate of each other amplitude; then each power of
    # the series once
    single, _ = count(solve_medium, _scaled(profile, amplitudes[-1]), inc, mesh,
                      "direct-dense")
    assert direct == single - 1 + len(amplitudes)
    assert series == max(sol.series_terms_used for sol in sols)
    separate = sum(count(solve_medium, _scaled(profile, a), inc, mesh, mode)[0]
                   for a in amplitudes for mode in ("direct-dense", "neumann-series"))
    assert 4 * (direct + series) < separate


def test_non_lattice_meshes_are_rejected():
    inc = make_incident("pressure-plane", {"direction": (1.0, 0.0)}, MED)
    contrast = smooth_disk_contrast((0.0, 0.0), 0.6, 0.2)
    cap = MediumScatterer(domain=make_cap_domain(10.0, 3.0, 4.0, 0.9), medium=MED,
                          contrast=contrast)
    with pytest.raises(MeshMismatch, match="ROADMAP item 10"):
        solve_medium(cap, inc, volume_mesh(cap.domain, h=0.01))
    # two disks whose cell meshes sit on offset lattices
    pair = MediumScatterer(domain=disk(0.55), medium=MED, contrast=contrast)
    with pytest.raises(MeshMismatch, match="one h-lattice"):
        solve_medium(pair, inc, _two_disk_mesh(0.15))


def test_lattice_grid_budget_guard():
    # two 3x3 clusters of lattice nodes, 8,000 cells apart along each axis:
    # a lattice mesh, but its padded FFT grid would need 16,000^2 cells
    sc = scatterer()
    h = 0.01
    block = np.stack(np.meshgrid(np.arange(3), np.arange(3)), axis=-1).reshape(-1, 2)
    nodes = h * np.concatenate([block, block + 8000])
    fake = QuadratureMesh(nodes=nodes, weights=np.full(nodes.shape[0], h * h), h=h,
                          style="cell", mesh_id="far-apart")
    inc = make_incident("pressure-plane", {"direction": (1.0, 0.0)}, MED)
    with pytest.raises(QuadratureBudgetExceeded, match="FFT grid"):
        solve_medium(sc, inc, fake)


def test_duplicate_mesh_node_is_rejected():
    sc = scatterer()
    nodes = np.array([[0.0, 0.0], [0.05, 0.0], [0.0, 0.05], [0.05, 0.0]])
    dup = QuadratureMesh(nodes=nodes, weights=np.full(4, 2.5e-3), h=0.05,
                         style="cell", mesh_id="repeated-node")
    inc = make_incident("pressure-plane", {"direction": (1.0, 0.0)}, MED)
    with pytest.raises(CoincidentPoints, match="coincides with 2 mesh nodes"):
        solve_medium(sc, inc, dup)


def test_lattice_residual_rejects_duplicate_mesh_node():
    # the residual derives its lattice index with the solve's checks: a
    # repeated node is an error, not a silent overwrite of its twin
    nodes = np.array([[0.0, 0.0], [0.05, 0.0], [0.0, 0.05], [0.05, 0.0]])
    dup = QuadratureMesh(nodes=nodes, weights=np.full(4, 2.5e-3), h=0.05,
                         style="cell", mesh_id="repeated-node")
    vals = np.ones((4, 2), dtype=complex)
    with pytest.raises(CoincidentPoints, match="coincides with 2 mesh nodes"):
        lattice_pde_residual(scatterer(), 1.0, dup, vals)


# Golden values: the solved fields pinned bit for bit, so a change to the
# volume-potential quadrature or the solvers that reorders floating-point
# operations shows up here.  The disk, mesh and contrast profile are those of
# the medium-sweep benchmark at v0 = 0.2 (256 nodes).
#
# GOLDEN_MEDIUM pins the dense reference path above.  Its LU solve's last
# bits depend on the BLAS thread count, so it is computed in a child process
# with one BLAS thread (run this file as a script to print it).
# GOLDEN_MEDIUM_LATTICE pins solve_medium (FFT lattice operator, GMRES).  At
# 256 nodes its BLAS calls are too small to be threaded, and it gave the same
# bits at 1, 2 and 8 OpenBLAS threads, so it runs in-process.
# The far-field hashes are those of the blocked phase-matrix products, whose
# agreement with the per-direction reference loop is checked below.
GOLDEN_INCIDENTS = {
    "pressure": ("pressure-plane", {"direction": (1.0, 0.0)}),
    "point": ("point-source", {"origin": (1.0, 0.0)}),
}
GOLDEN_MEDIUM = {
    "pressure/direct-dense": ["6bd438253bd12b24", "3e772f42e0051872", 1,
                              "0.03634893637737824"],
    "pressure/neumann-series": ["d1a43768a1d98ff7", "cf5b20f8593dbb61", 8,
                                "0.028306675632410502"],
    "point/direct-dense": ["8daa634e87dcfdc3", "d6591cb53deddfc3", 1,
                           "0.03634893637737824"],
    "point/neumann-series": ["1b6227f4b1626844", "205b546a71c27828", 8,
                             "0.02824462559618243"],
}
GOLDEN_MEDIUM_LATTICE = {
    "pressure/direct-dense": ["7d5ea4d2b9dd1c40", "582165fd2ce44632", 1,
                              "0.03634893637737824"],
    "pressure/neumann-series": ["058bef31d2227e5d", "049afe8fe6ec2c21", 8,
                                "0.028306675632410485"],
    "point/direct-dense": ["676fa6e2e0afdb26", "e434dbb1d8854b27", 1,
                           "0.03634893637737824"],
    "point/neumann-series": ["7652ec0f531801c0", "bf4d3ffad9ee8b02", 8,
                             "0.028244625596182425"],
}


def _golden_medium_solves(solve):
    sc = scatterer(v0=0.2, radius=0.45)
    mesh = volume_mesh(sc.domain, h=0.05)
    assert mesh.nodes.shape[0] == 256
    for name, (kind, params) in GOLDEN_INCIDENTS.items():
        inc = make_incident(kind, params, MED)
        for mode in ("direct-dense", "neumann-series"):
            yield f"{name}/{mode}", sc, mesh, solve(sc, inc, mesh, mode=mode)


def _golden_medium_values(solve):
    return {key: [content_id(sol.u_total.values),
                  content_id(sol.farfield.up_inf, sol.farfield.us_inf),
                  sol.series_terms_used, repr(sol.contraction_estimate)]
            for key, _, _, sol in _golden_medium_solves(solve)}


def test_golden_medium_farfields_match_direction_loop():
    # the pinned far-field hashes are those of the blocked phase-matrix
    # products; on the same four solves they agree with the per-direction
    # reference loop to round-off
    for _, sc, mesh, sol in _golden_medium_solves(solve_medium):
        n = mesh.nodes.shape[0]
        vdiag = np.repeat(sc.contrast_on(mesh.nodes), 2)
        equivalent = -MED.omega ** 2 * vdiag.reshape(n, 2) * sol.u_total.values
        problem = SourceProblem(domain=sc.domain, medium=MED,
                                phi=SampledVectorField(nodes=mesh.nodes, values=equivalent,
                                                       mesh_ref=mesh.mesh_id))
        assert_matches_direction_loop(sol.farfield, problem, mesh)


def test_golden_medium_solves():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    run = subprocess.run([sys.executable, __file__], env=env, check=True,
                         capture_output=True, text=True, timeout=300)
    assert json.loads(run.stdout) == GOLDEN_MEDIUM


def test_golden_medium_lattice_solves():
    assert _golden_medium_values(solve_medium) == GOLDEN_MEDIUM_LATTICE


def test_farfield_reciprocity_pressure_channel():
    # swap incident and observation directions: same p-to-p amplitude
    center = (0.15, -0.1)
    sc = scatterer(v0=0.5, radius=0.4, center=center)
    mesh = volume_mesh(sc.domain, h=0.02)
    d1 = np.array([1.0, 0.0])
    d2 = np.array([np.cos(2.2), np.sin(2.2)])

    def p_to_p(din, dobs):
        inc = make_incident("pressure-plane", {"direction": din}, MED)
        sol = solve_medium(sc, inc, mesh, directions=dobs[None, :])
        return sol.farfield.up_inf[0]

    a = p_to_p(d1, -d2)
    b = p_to_p(d2, -d1)
    assert abs(a - b) / abs(a) < 1e-3


# ---------------------------------------------------------------------------
# contraction diagnostics
# ---------------------------------------------------------------------------

def test_upsilon_frozen_values():
    assert upsilon(0.5, 1.0, s=1.0) == pytest.approx(1.0, abs=1e-15)
    assert upsilon(0.0, 1.0, s=1.0) == 0.0


def test_bound_on_total_field_at_half_product():
    # diameter*omega = 0.5 and constant |V| = 1: ratio bounds are 1 and 2
    sc = MediumScatterer(domain=disk(0.125), medium=MED,
                         contrast=lambda pts: np.ones(np.asarray(pts).shape[:-1]))
    [rep] = contraction_report(sc, [1.0], s=1.0)
    assert rep.epsilon == pytest.approx(0.5, rel=1e-12)
    assert rep.v_sup == pytest.approx(1.0, rel=1e-12)
    assert rep.upsilon == pytest.approx(1.0, rel=1e-12)
    assert rep.bound_ut == pytest.approx(2.0, rel=1e-12)


def test_upsilon_monotone():
    assert upsilon(0.2, 1.0) < upsilon(0.4, 1.0) < upsilon(0.4, 2.0)


def test_upsilon_rejects_out_of_regime():
    with pytest.raises(OutOfRegime):
        upsilon(1.0, 1.0, s=1.0)
    with pytest.raises(InvalidParameter):
        upsilon(0.5, 1.0, s=0.0)


def test_contraction_report_rejects_a_nan_s():
    # NaN fails every comparison: only a ``not s > 0`` guard rejects it
    with pytest.raises(InvalidParameter, match=r"\bs must be positive, got nan"):
        contraction_report(scatterer(v0=0.25, radius=0.25), [1.0], s=float("nan"))


def test_contraction_report_fields():
    sc = scatterer(v0=0.25, radius=0.25)
    [rep] = contraction_report(sc, [1.0], s=1.0)
    assert rep.epsilon == pytest.approx(0.25 * 2 * MED.omega, rel=1e-12)
    assert not rep.out_of_regime
    assert rep.upsilon == pytest.approx(
        rep.epsilon * rep.v_sup / (1.0 - rep.epsilon * rep.v_sup), rel=1e-12)
    assert rep.bound_ut == pytest.approx(
        1.0 / (1.0 - rep.epsilon * rep.v_sup), rel=1e-12)


def test_contraction_report_out_of_regime_flag():
    sc = scatterer(v0=5.0, radius=0.5)
    [rep] = contraction_report(sc, [1.0], s=1.0)
    assert rep.out_of_regime
    assert np.isinf(rep.upsilon) and np.isinf(rep.bound_ut)


def test_scattered_field_within_predicted_ratio():
    """Measured scattered-to-incident ratio sits under the a-priori bound."""
    s_fit = 1.0
    for v0, radius in ((0.2, 0.2), (0.3, 0.15), (0.1, 0.3)):
        sc = scatterer(v0=v0, radius=radius)
        [rep] = contraction_report(sc, [1.0], s=s_fit)
        if rep.out_of_regime or rep.epsilon * rep.v_sup > 0.5 * s_fit:
            continue
        mesh = volume_mesh(sc.domain, h=radius / 10.0)
        inc = make_incident("pressure-plane", {"direction": (1.0, 0.0)}, MED)
        sol = solve_medium(sc, inc, mesh)
        ui = inc(mesh.nodes)
        num = np.linalg.norm(sol.u_scattered.values)
        den = np.linalg.norm(ui)
        assert num / den <= rep.upsilon


def test_neumann_corrections_decay_geometrically():
    sc = scatterer(v0=0.3, radius=0.35)
    mesh = volume_mesh(sc.domain, h=0.035)
    inc = make_incident("pressure-plane", {"direction": (0.0, 1.0)}, MED)
    sol = solve_medium(sc, inc, mesh, mode="neumann-series")
    # the reported estimate is the worst observed ratio; it must certify
    # convergence with margin
    assert 0.0 < sol.contraction_estimate < 0.95
    assert sol.series_terms_used >= 3


def test_total_is_incident_plus_scattered():
    sc = scatterer(v0=0.3)
    mesh = volume_mesh(sc.domain, h=0.045)
    inc = make_incident("shear-plane", {"direction": (0.6, 0.8)}, MED)
    sol = solve_medium(sc, inc, mesh)
    ui = inc(mesh.nodes)
    gap = np.max(np.abs(sol.u_total.values - ui - sol.u_scattered.values))
    assert gap < 1e-12


if __name__ == "__main__":
    # GOLDEN_MEDIUM by default; GOLDEN_MEDIUM_LATTICE with the argument "lattice"
    solve = solve_medium if sys.argv[1:] == ["lattice"] else _solve_medium_dense
    print(json.dumps(_golden_medium_values(solve), indent=1))
