"""Volume-potential source solves, far fields, and the non-radiating generator."""

import numpy as np
import pytest

from elastoscat import (
    FarFieldPattern,
    SampledVectorField,
    SourceProblem,
    directions_circle,
    disk,
    ellipse,
    farfield_norm,
    farfield_of_source,
    field_norms,
    gauss_mesh,
    kupradze_tensor,
    lame_operator_fd,
    make_medium,
    make_nonradiating,
    polynomial_bump,
    singular_cell_integral,
    solve_source,
    volume_mesh,
)
from elastoscat.geometry import QuadratureMesh
from elastoscat import source
from elastoscat.greens import farfield_kernels_batch, kupradze_batch
from elastoscat.source import potential_row
from conftest import peak_mib
from elastoscat.errors import (
    BumpNotVanishing,
    CoincidentPoints,
    DimensionMismatch,
    InvalidDirection,
    InvalidParameter,
    MeshTooCoarse,
    NonpositiveArgument,
    QuadratureBudgetExceeded,
    UnsupportedDimension,
)

MED = make_medium(2.0, 1.0, 2.0, 2)


def const_phi(vec):
    v = np.asarray(vec, dtype=complex)

    def phi(pts):
        return np.broadcast_to(v, pts.shape).copy()

    return phi


# ---------------------------------------------------------------------------
# solve_source
# ---------------------------------------------------------------------------

def test_zero_intensity_radiates_nothing():
    dom = disk(0.5)
    mesh = volume_mesh(dom, h=0.05)
    prob = SourceProblem(domain=dom, medium=MED, phi=const_phi([0.0, 0.0]))
    pts = np.array([[2.0, 0.0], [0.1, 0.1], [-3.0, 1.0]])
    u = solve_source(prob, mesh, pts)
    assert np.max(np.abs(u.values)) == 0.0
    ff = farfield_of_source(prob, mesh, directions_circle(16))
    assert np.max(np.abs(ff.up_inf)) == 0.0
    assert np.max(np.abs(ff.us_inf)) == 0.0


def test_single_cell_source_is_kernel_column():
    w = 1.7e-5
    mesh = QuadratureMesh(nodes=np.zeros((1, 2)), weights=np.array([w]),
                          h=0.004, style="cell", mesh_id="unit-cell")
    prob = SourceProblem(domain=disk(0.01), medium=MED, phi=const_phi([1.0, 0.0]))
    pts = np.array([[0.5, 0.2], [-1.0, 0.3], [0.0, 2.0]])
    u = solve_source(prob, mesh, pts)
    for k, x in enumerate(pts):
        col = kupradze_tensor(x, np.zeros(2), MED)[:, 0]
        # solution operator carries the sign flip of the -delta normalization
        assert np.linalg.norm(u.values[k] + w * col) < 1e-12 * np.linalg.norm(col)


def test_small_disk_source_matches_point_approximation():
    r0 = 0.02
    dom = disk(r0)
    mesh = volume_mesh(dom, h=r0 / 12.0)
    prob = SourceProblem(domain=dom, medium=MED, phi=const_phi([1.0, 0.0]))
    total_w = float(np.sum(mesh.weights))
    pts = np.array([[0.6, 0.1], [0.0, -1.2]])     # > 5 cell widths away
    u = solve_source(prob, mesh, pts)
    for k, x in enumerate(pts):
        col = kupradze_tensor(x, np.zeros(2), MED)[:, 0]
        rel = np.linalg.norm(u.values[k] + total_w * col) \
            / np.linalg.norm(total_w * col)
        assert rel < 1e-3


def test_solve_is_linear_in_intensity():
    dom = disk(0.4)
    mesh = volume_mesh(dom, h=0.04)
    pts = np.array([[1.5, 0.4]])

    def phi_a(p):
        return np.stack([np.exp(-np.sum(p ** 2, axis=1)),
                         np.zeros(p.shape[0])], axis=1).astype(complex)

    def phi_b(p):
        return np.stack([np.zeros(p.shape[0]), p[:, 0]], axis=1).astype(complex)

    def phi_ab(p):
        return phi_a(p) + phi_b(p)

    ua = solve_source(SourceProblem(dom, MED, phi_a), mesh, pts)
    ub = solve_source(SourceProblem(dom, MED, phi_b), mesh, pts)
    uab = solve_source(SourceProblem(dom, MED, phi_ab), mesh, pts)
    assert np.allclose(uab.values, ua.values + ub.values, atol=1e-14)


def test_on_node_evaluation_needs_cell_mesh():
    dom = disk(0.4)
    smooth = gauss_mesh(dom, n_radial=16, n_angular=32)
    prob = SourceProblem(domain=dom, medium=MED, phi=const_phi([1.0, 0.0]))
    with pytest.raises(CoincidentPoints):
        solve_source(prob, smooth, smooth.nodes[:1])


def test_on_node_evaluation_rejects_duplicate_nodes():
    nodes = np.array([[0.0, 0.0], [0.01, 0.0], [0.0, 0.0]])
    mesh = QuadratureMesh(nodes=nodes, weights=np.full(3, 1e-4), h=0.01,
                          style="cell", mesh_id="repeated-node")
    prob = SourceProblem(domain=disk(0.05), medium=MED, phi=const_phi([1.0, 0.0]))
    with pytest.raises(CoincidentPoints, match="coincides with 2 mesh nodes"):
        solve_source(prob, mesh, nodes[:1])
    # a point on the other node is still evaluated
    assert np.all(np.isfinite(solve_source(prob, mesh, nodes[1:2]).values))


def test_potential_row_blocks_are_weighted_kernels():
    mesh = volume_mesh(disk(0.4), h=0.04)
    assert mesh.nodes.shape[0] == 316
    for x in (mesh.nodes[0], mesh.nodes[150], np.array([0.013, -0.27]),
              np.array([1.2, 0.5])):
        row = potential_row(mesh, MED, x)
        assert row.shape == (2, 2 * 316)
        for k, y in enumerate(mesh.nodes):
            block = row[:, 2 * k:2 * k + 2]
            if np.array_equal(x, y):
                assert np.array_equal(block, singular_cell_integral(MED, mesh.h))
            else:
                assert np.array_equal(block,
                                      mesh.weights[k] * kupradze_tensor(x, y, MED))


def _solve_source_per_target(prob, mesh, pts):
    """Reference: one kernel sum per target with its own self-cell handling."""
    phi = prob.intensity_on(mesh)
    out = np.empty((pts.shape[0], 2), dtype=complex)
    for i, x in enumerate(pts):
        diffs = x[None, :] - mesh.nodes
        r = np.hypot(diffs[:, 0], diffs[:, 1])
        hit = np.flatnonzero(r < 1e-9 * mesh.h)
        live = np.ones(mesh.nodes.shape[0], dtype=bool)
        live[hit] = False
        g = kupradze_batch(diffs[live], MED)
        acc = np.einsum("k,kij,kj->i", mesh.weights[live], g, phi[live])
        if hit.size:
            acc = acc + singular_cell_integral(MED, mesh.h) @ phi[hit[0]]
        out[i] = -acc
    return out


def test_solve_source_matches_per_target_reference():
    dom = disk(0.4)
    mesh = volume_mesh(dom, h=0.04)

    def phi(p):
        return np.stack([np.exp(-np.sum(p ** 2, axis=1)),
                         p[:, 0] - 0.5j * p[:, 1]], axis=1).astype(complex)

    prob = SourceProblem(dom, MED, phi)
    off = np.array([[0.013, -0.27], [0.2, 0.21], [1.5, 0.4], [-0.3, -2.0]])
    for pts in (mesh.nodes, off):
        got = solve_source(prob, mesh, pts).values
        ref = _solve_source_per_target(prob, mesh, pts)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_solve_rejects_3d_and_coarse_mesh():
    med3 = make_medium(2.0, 1.0, 2.0, 3)
    dom = disk(0.5)
    mesh = volume_mesh(dom, h=0.05)
    prob3 = SourceProblem(domain=dom, medium=med3, phi=const_phi([1, 0, 0]))
    with pytest.raises(UnsupportedDimension):
        solve_source(prob3, mesh, np.zeros((1, 2)))
    coarse = QuadratureMesh(nodes=np.zeros((1, 2)), weights=np.array([1.0]),
                            h=2.0, style="cell", mesh_id="coarse")
    prob = SourceProblem(domain=dom, medium=MED, phi=const_phi([1, 0]))
    with pytest.raises(MeshTooCoarse):
        solve_source(prob, coarse, np.zeros((1, 2)))


@pytest.mark.parametrize("h", [0.0, -0.1, np.nan, np.inf])
def test_far_field_rejects_a_spacing_that_is_not_positive_and_finite(h):
    # a Gauss mesh whose weights underflow has spacing 0: the points per
    # wavelength divided by zero and the resolution check passed
    mesh = QuadratureMesh(nodes=np.zeros((1, 2)), weights=np.array([1e-300]),
                          h=h, style="smooth", mesh_id="degenerate")
    prob = SourceProblem(domain=disk(0.5), medium=MED, phi=const_phi([1, 0]))
    with pytest.raises(MeshTooCoarse, match="positive and finite"):
        farfield_of_source(prob, mesh, directions_circle(4))


# ---------------------------------------------------------------------------
# far fields
# ---------------------------------------------------------------------------

def test_farfield_matches_large_radius_stripping():
    """Pattern vs the potential field stripped at 200 pressure wavelengths."""
    dom = disk(0.5)
    mesh = gauss_mesh(dom, n_radial=40, n_angular=80)
    prob = SourceProblem(domain=dom, medium=MED, phi=const_phi([1.0, 0.0]))
    r = 200.0 * 2.0 * np.pi / MED.kappa_p
    for th in (0.4, 1.1, 2.9, 5.0):
        xhat = np.array([np.cos(th), np.sin(th)])
        ff = farfield_of_source(prob, mesh, xhat[None, :])
        predicted = (np.exp(1j * MED.kappa_p * r) / np.sqrt(r)
                     * ff.up_inf[0] * xhat
                     + np.exp(1j * MED.kappa_s * r) / np.sqrt(r) * ff.us_inf[0])
        u = solve_source(prob, mesh, (r * xhat)[None, :]).values[0]
        assert np.linalg.norm(u - predicted) / np.linalg.norm(u) < 1e-3


def test_farfield_translation_phase():
    t = np.array([0.3, -0.2])
    mesh0 = gauss_mesh(disk(0.4), n_radial=24, n_angular=48)
    prob0 = SourceProblem(disk(0.4), MED, const_phi([1.0, 0.5]))
    # translated copy: same intensity profile shifted by t
    dom1 = disk(0.4, center=tuple(t))
    mesh1 = gauss_mesh(dom1, n_radial=24, n_angular=48)
    prob1 = SourceProblem(dom1, MED, const_phi([1.0, 0.5]))
    dirs = directions_circle(8)
    f0 = farfield_of_source(prob0, mesh0, dirs)
    f1 = farfield_of_source(prob1, mesh1, dirs)
    for k, xhat in enumerate(dirs):
        assert f1.up_inf[k] == pytest.approx(
            f0.up_inf[k] * np.exp(-1j * MED.kappa_p * (xhat @ t)), abs=1e-12)
        assert np.allclose(
            f1.us_inf[k], f0.us_inf[k] * np.exp(-1j * MED.kappa_s * (xhat @ t)),
            atol=1e-12)


def test_pattern_shear_part_is_tangential():
    mesh = gauss_mesh(disk(0.5), n_radial=24, n_angular=48)
    prob = SourceProblem(disk(0.5), MED, const_phi([0.7, -0.4]))
    ff = farfield_of_source(prob, mesh, directions_circle(32))
    radial = np.abs(np.sum(ff.us_inf * ff.directions, axis=1))
    assert np.max(radial) < 1e-12 * max(np.max(np.abs(ff.us_inf)), 1e-30)


def test_pattern_constructor_rejects_radial_shear():
    dirs = directions_circle(4)
    us = dirs.astype(complex)            # purely radial: invalid
    with pytest.raises(DimensionMismatch):
        FarFieldPattern(directions=dirs, up_inf=np.zeros(4, complex), us_inf=us)


def _farfield_by_directions(problem, mesh, directions):
    """Reference far field: one kernel batch per direction, as the toolkit
    once computed it; returns ``(up_inf, us_inf)``."""
    dirs = np.atleast_2d(np.asarray(directions, dtype=float))
    phi = problem.intensity_on(mesh)
    m = dirs.shape[0]
    up = np.empty(m, dtype=complex)
    us = np.empty((m, 2), dtype=complex)
    for i, xhat in enumerate(dirs):
        p_scal, s_mat = farfield_kernels_batch(xhat, mesh.nodes, problem.medium)
        up[i] = -np.sum(mesh.weights * p_scal * (phi @ xhat))
        us[i] = -np.einsum("k,kij,kj->i", mesh.weights, s_mat, phi)
        us[i] -= (us[i] @ xhat) * xhat   # scrub quadrature round-off radially
    return up, us


def assert_matches_direction_loop(ff, problem, mesh):
    """``ff`` agrees with the reference loop to 1e-13 of its largest amplitude."""
    up, us = _farfield_by_directions(problem, mesh, ff.directions)
    scale = max(np.max(np.abs(up)), np.max(np.abs(us)))
    assert scale > 0.0
    assert np.max(np.abs(ff.up_inf - up)) <= 1e-13 * scale
    assert np.max(np.abs(ff.us_inf - us)) <= 1e-13 * scale


def _wavy_phi(p):
    return np.stack([np.cos(3.0 * p[:, 0]) + 0.5j * p[:, 1],
                     p[:, 0] * p[:, 1] - 0.2j], axis=1).astype(complex)


def _sampled_cell_case():
    dom = disk(0.4, center=(-0.1, 0.05))
    mesh = volume_mesh(dom, h=0.04)
    vals = np.random.default_rng(7).standard_normal((mesh.nodes.shape[0], 4))
    field = SampledVectorField(nodes=mesh.nodes, values=vals[:, :2] + 1j * vals[:, 2:],
                               mesh_ref=mesh.mesh_id)
    return SourceProblem(dom, MED, field), mesh, directions_circle(64)


_OFF_ELLIPSE = ellipse(0.4, 0.25, center=(0.3, -0.2))
FARFIELD_CASES = {
    "disk-gauss": lambda: (SourceProblem(disk(0.5), MED, _wavy_phi),
                           gauss_mesh(disk(0.5), 32, 64), directions_circle(256)),
    "off-centre-ellipse": lambda: (SourceProblem(_OFF_ELLIPSE, MED, _wavy_phi),
                                   volume_mesh(_OFF_ELLIPSE, h=0.03), directions_circle(97)),
    "sampled-cell-field": _sampled_cell_case,
    "single-direction": lambda: (SourceProblem(disk(0.5), MED, _wavy_phi),
                                 gauss_mesh(disk(0.5), 24, 48), np.array([[0.6, -0.8]])),
}


@pytest.mark.parametrize("name", list(FARFIELD_CASES))
def test_farfield_matches_direction_loop(name):
    problem, mesh, dirs = FARFIELD_CASES[name]()
    assert_matches_direction_loop(farfield_of_source(problem, mesh, dirs), problem, mesh)


def test_farfield_matches_direction_loop_over_ragged_blocks(monkeypatch):
    problem, mesh, _ = FARFIELD_CASES["disk-gauss"]()
    # 7 directions per block: 53 directions make 7 full blocks and one of 4
    monkeypatch.setattr(source, "_PHASE_BLOCK", 7 * mesh.nodes.shape[0] + 3)
    ff = farfield_of_source(problem, mesh, directions_circle(53))
    assert_matches_direction_loop(ff, problem, mesh)


@pytest.mark.parametrize("n_radial, n_angular, m", [(32, 64, 256), (48, 128, 96)])
def test_farfield_working_set_stays_under_2_mib(n_radial, n_angular, m):
    # sweep-small's quadrature check (2,048 nodes x 256 directions) and the
    # refined nullity check (6,144 nodes x 96 directions): a block's dots,
    # phase argument and phases take 1 MiB; blocks of 2^18 entries took 8
    problem = SourceProblem(disk(0.5), MED, _wavy_phi)
    mesh = gauss_mesh(disk(0.5), n_radial, n_angular)
    dirs = directions_circle(m)
    assert peak_mib(lambda: farfield_of_source(problem, mesh, dirs)) < 2.0


@pytest.mark.parametrize("directions, error", [
    ([[2.0, 0.0]], InvalidDirection),
    ([[0.0, 0.0]], InvalidDirection),
    ([[np.nan, 0.0]], InvalidDirection),
    (np.zeros((1, 3)), DimensionMismatch),
    (np.zeros((0, 2)), DimensionMismatch),
])
def test_farfield_rejects_bad_directions(directions, error):
    mesh = gauss_mesh(disk(0.5), n_radial=8, n_angular=16)
    prob = SourceProblem(disk(0.5), MED, const_phi([1.0, 0.0]))
    with pytest.raises(error):
        farfield_of_source(prob, mesh, directions)


# ---------------------------------------------------------------------------
# farfield_of_disk
# ---------------------------------------------------------------------------

def test_j1_over_x_matches_scipy():
    from scipy.special import j1

    xs = np.concatenate([[0.0, 1e-300, 1e-12], np.geomspace(1e-9, 1e3, 400),
                         np.linspace(0.0, 1e3, 4001)[1:]])
    want = np.array([0.5 if x == 0.0 else j1(x) / x for x in xs])
    got = np.array([source._j1_over_x(float(x)) for x in xs])
    assert source._j1_over_x(0.0) == 0.5
    assert np.max(np.abs(got - want)) <= 1e-14


@pytest.mark.parametrize("x", [-1e-3, np.nan, np.inf, 1e6])
def test_j1_over_x_rejects_arguments_outside_its_range(x):
    with pytest.raises(QuadratureBudgetExceeded):
        source._j1_over_x(x)


@pytest.mark.parametrize("radius", [0.05, 0.4, 1.2])
def test_disk_farfield_matches_fine_quadrature(radius):
    center, amp = (0.7, -0.45), [0.3 + 1.0j, -0.8]
    dom = disk(radius, center)
    dirs = directions_circle(96)
    quad = farfield_of_source(SourceProblem(dom, MED, const_phi(amp)),
                              gauss_mesh(dom, n_radial=48, n_angular=128), dirs)
    exact = source.farfield_of_disk(MED, radius, amp, dirs, center)
    gap = FarFieldPattern(dirs, exact.up_inf - quad.up_inf, exact.us_inf - quad.us_inf)
    assert farfield_norm(gap) <= 1e-12 * farfield_norm(exact)


def test_disk_farfield_rejects_bad_arguments():
    dirs = directions_circle(8)
    with pytest.raises(InvalidDirection):
        source.farfield_of_disk(MED, 0.1, [1.0, 0.0], [[2.0, 0.0]])
    with pytest.raises(DimensionMismatch):
        source.farfield_of_disk(MED, 0.1, [1.0, 0.0, 0.0], dirs)
    with pytest.raises(NonpositiveArgument):
        source.farfield_of_disk(MED, 0.0, [1.0, 0.0], dirs)


# ---------------------------------------------------------------------------
# farfield_norm
# ---------------------------------------------------------------------------

def test_farfield_norm_zero_pattern():
    dirs = directions_circle(8)
    ff = FarFieldPattern(dirs, np.zeros(8, complex), np.zeros((8, 2), complex))
    assert farfield_norm(ff) == 0.0


def test_farfield_norm_unit_pressure_pattern():
    dirs = directions_circle(64)
    ff = FarFieldPattern(dirs, np.ones(64, complex), np.zeros((64, 2), complex))
    assert farfield_norm(ff) == pytest.approx(np.sqrt(2.0 * np.pi), rel=1e-12)


def test_farfield_norm_stable_under_direction_refinement():
    mesh = gauss_mesh(disk(0.3), n_radial=24, n_angular=48)
    prob = SourceProblem(disk(0.3), MED, const_phi([1.0, 0.0]))
    n1 = farfield_norm(farfield_of_source(prob, mesh, directions_circle(64)))
    n2 = farfield_norm(farfield_of_source(prob, mesh, directions_circle(128)))
    assert n1 > 0.0
    assert abs(n1 - n2) / n1 < 1e-4


# ---------------------------------------------------------------------------
# non-radiating generator
# ---------------------------------------------------------------------------

def test_nonradiating_disk_profile_boundary_value():
    # u = (1 - |x|^2)^2 e1: the intensity on the rim keeps only the
    # second-derivative terms, (8*mu + 8*(lam+mu), 0)
    dom = disk(1.0)
    bump = polynomial_bump(dom, amplitude=(1.0, 0.0))
    val = bump.source_density(np.array([1.0, 0.0]), MED)
    want = 8.0 * MED.mu + 8.0 * (MED.lam + MED.mu)
    assert val[0] == pytest.approx(want, rel=1e-13)
    assert abs(val[1]) < 1e-13
    # interior check against the plain Laplacian identity at the rim
    assert 8.0 * (MED.lam + 2.0 * MED.mu) == pytest.approx(want)


def test_nonradiating_pair_has_null_farfield():
    dom = disk(1.0)
    mesh = gauss_mesh(dom, n_radial=48, n_angular=96)
    bump = polynomial_bump(dom, amplitude=(1.0, 0.0))
    phi_field, u_exact = make_nonradiating(dom, bump, MED, mesh)
    prob = SourceProblem(domain=dom, medium=MED, phi=phi_field)
    ff = farfield_of_source(prob, mesh, directions_circle(64))
    phi_l2, _ = field_norms(phi_field, mesh)
    assert farfield_norm(ff) < 1e-6 * phi_l2


def test_nonradiating_pair_rellich_consistency():
    dom = disk(1.0)
    bump = polynomial_bump(dom, amplitude=(1.0, 0.0),
                           linear=np.array([[0.2, 0.0], [0.0, -0.1]]))
    # exterior: smooth mesh, solution must vanish outside the support
    smooth = gauss_mesh(dom, n_radial=48, n_angular=96)
    phi_s, u_exact = make_nonradiating(dom, bump, MED, smooth)
    prob_s = SourceProblem(domain=dom, medium=MED, phi=phi_s)
    xs_out = np.array([[1.5, 0.0], [0.0, -2.0], [2.5, 2.5]])
    u_out = solve_source(prob_s, smooth, xs_out)
    phi_l2, _ = field_norms(phi_s, smooth)
    assert np.max(np.abs(u_out.values)) < 1e-5 * phi_l2
    assert np.max(np.abs(u_exact(xs_out))) == 0.0

    # interior: cell mesh with on-node evaluation (the self-cell correction
    # is what handles the kernel singularity inside the support)
    cell = volume_mesh(dom, h=0.025)
    phi_c, u_exact_c = make_nonradiating(dom, bump, MED, cell)
    prob_c = SourceProblem(domain=dom, medium=MED, phi=phi_c)
    targets = np.array([[0.31, 0.17], [-0.45, 0.2], [0.0, 0.62]])
    idx = [int(np.argmin(np.linalg.norm(cell.nodes - t, axis=1)))
           for t in targets]
    xs_in = cell.nodes[idx]
    u_in = solve_source(prob_c, cell, xs_in)
    want = u_exact_c(xs_in)
    rel = np.linalg.norm(u_in.values - want) / np.linalg.norm(want)
    assert rel < 2e-2


def test_nonradiating_rejects_nonvanishing_profile():
    dom = disk(1.0)
    mesh = gauss_mesh(dom, n_radial=16, n_angular=32)
    # the bump of the radius-2 disk is live on the unit circle
    bad_bump = polynomial_bump(disk(2.0), amplitude=(1.0, 0.0))
    with pytest.raises(BumpNotVanishing):
        make_nonradiating(dom, bad_bump, MED, mesh)


def test_lame_operator_fd_matches_bump_source_density():
    # one batched fourth-order call over all nodes against the closed form
    dom = disk(1.0)
    mesh = gauss_mesh(dom, n_radial=16, n_angular=32)
    bump = polynomial_bump(dom, amplitude=(1.0, 0.5),
                           linear=np.array([[0.2, 0.0], [0.0, -0.1]]))
    got = lame_operator_fd(bump.value, mesh.nodes, MED, step=1e-3, order=4)
    want = bump.source_density(mesh.nodes, MED)
    assert np.max(np.abs(got - want)) <= 1e-8 * np.max(np.abs(want))


def test_lame_operator_fd_batches_over_leading_axes():
    def u(x):
        return np.stack([np.sin(x[..., 0]) * np.exp(x[..., 1]),
                         np.cos(x[..., 0] * x[..., 1]) + 1j * x[..., 0] ** 3],
                        axis=-1)

    xs = np.random.default_rng(4).uniform(-1.0, 1.0, (3, 4, 2))
    for order in (2, 4):
        batched = lame_operator_fd(u, xs, MED, step=1e-3, order=order)
        assert batched.shape == (3, 4, 2)
        for idx in np.ndindex(3, 4):
            assert np.array_equal(batched[idx],
                                  lame_operator_fd(u, xs[idx], MED, step=1e-3,
                                                   order=order))


@pytest.mark.parametrize("order", [0, 1, 3, 6])
def test_lame_operator_fd_rejects_unknown_order(order):
    with pytest.raises(InvalidParameter, match="order must be 2 or 4"):
        lame_operator_fd(lambda x: np.zeros_like(x, dtype=complex),
                         np.zeros((1, 2)), MED, step=1e-3, order=order)


class _CompactBump:
    """u = max(r0^2 - |x|^2, 0)^3 e1: C^2, supported in the r0-disk."""

    def __init__(self, r0):
        self.r0 = r0

    def _q(self, x):
        return np.maximum(self.r0 ** 2 - np.sum(x * x, axis=-1), 0.0)

    def value(self, x):
        x = np.asarray(x, float)
        q = self._q(x)
        out = np.zeros(x.shape[:-1] + (2,), dtype=complex)
        out[..., 0] = q ** 3
        return out

    def gradient(self, x):
        x = np.asarray(x, float)
        q = self._q(x)
        out = np.zeros(x.shape[:-1] + (2, 2), dtype=complex)
        out[..., 0, :] = -6.0 * x * (q ** 2)[..., None]
        return out

    def source_density(self, x, medium):
        x = np.asarray(x, float)
        q = self._q(x)
        lap_u1 = 24.0 * np.sum(x * x, axis=-1) * q - 12.0 * q ** 2
        # grad(div u) with u = (q^3, 0)
        gd1 = -6.0 * q ** 2 + 24.0 * x[..., 0] ** 2 * q
        gd2 = 24.0 * x[..., 0] * x[..., 1] * q
        out = np.zeros(x.shape[:-1] + (2,), dtype=complex)
        out[..., 0] = medium.mu * lap_u1 + (medium.lam + medium.mu) * gd1 \
            + medium.omega ** 2 * q ** 3
        out[..., 1] = (medium.lam + medium.mu) * gd2
        return out


def test_nonradiating_compact_support_vanishes_on_boundary():
    dom = disk(1.0)
    mesh = volume_mesh(dom, h=0.04)
    bump = _CompactBump(r0=0.5)
    phi_field, _ = make_nonradiating(dom, bump, MED, mesh)
    # intensity is identically zero outside the inner support disk
    r = np.linalg.norm(mesh.nodes, axis=1)
    outside = r > 0.5 + 1e-12
    assert np.any(outside)
    assert np.max(np.abs(phi_field.values[outside])) == 0.0
    # so the boundary sup is exactly zero and the support-size test is moot
    from elastoscat import boundary_mesh
    bm = boundary_mesh(dom, h=0.05)
    bvals = bump.source_density(bm.nodes, MED)
    assert np.max(np.abs(bvals)) == 0.0


# ---------------------------------------------------------------------------
# frequency scaling of the interior field
# ---------------------------------------------------------------------------

def test_interior_norm_scales_with_diameter_over_omega():
    ratios = []
    for omega in (2.0, 4.0):
        med = make_medium(2.0, 1.0, omega, 2)
        radius = 0.5 / omega
        dom = disk(radius)
        mesh = volume_mesh(dom, h=radius / 16.0)
        area = float(np.sum(mesh.weights))
        amp = 1.0 / np.sqrt(area)        # unit L2 intensity
        prob = SourceProblem(dom, med, const_phi([amp, 0.0]))
        u = solve_source(prob, mesh, mesh.nodes)
        u.mesh_ref = mesh.mesh_id
        l2, _ = field_norms(u, mesh)
        ratios.append(l2 / (2.0 * radius / omega))
    spread = (max(ratios) - min(ratios)) / min(ratios)
    assert spread < 0.10
