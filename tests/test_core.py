"""Medium construction, traction algebra, norms."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from elastoscat import (
    FieldJet,
    SampledVectorField,
    field_norms,
    holder_seminorm,
    make_medium,
    traction,
    volume_mesh,
    disk,
    gauss_mesh,
    make_nonradiating,
    polynomial_bump,
)
from elastoscat import elastic
from conftest import peak_mib
from elastoscat.errors import (
    DimensionMismatch,
    InsufficientSamples,
    InvalidExponent,
    InvalidFrequency,
    MeshMismatch,
    StrongConvexityViolated,
    UnsupportedDimension,
)


# ---------------------------------------------------------------------------
# make_medium
# ---------------------------------------------------------------------------

def test_medium_canonical_wavenumbers():
    med = make_medium(2.0, 1.0, 2.0, 2)
    assert med.kappa_p == pytest.approx(1.0, abs=1e-15)
    assert med.kappa_s == pytest.approx(2.0, abs=1e-15)
    assert med.pressure_modulus == pytest.approx(4.0)


def test_medium_zero_lambda_3d():
    med = make_medium(0.0, 1.0, 1.0, 3)
    assert med.kappa_p == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-15)
    assert med.kappa_s == pytest.approx(1.0, abs=1e-15)


def test_medium_rejects_nonconvex_moduli():
    with pytest.raises(StrongConvexityViolated):
        make_medium(-1.0, 1.0, 1.0, 2)
    with pytest.raises(StrongConvexityViolated):
        make_medium(1.0, 0.0, 1.0, 2)
    with pytest.raises(StrongConvexityViolated):
        make_medium(1.0, -2.0, 1.0, 3)


def test_medium_rejects_bad_frequency():
    with pytest.raises(InvalidFrequency):
        make_medium(2.0, 1.0, 0.0, 2)
    with pytest.raises(InvalidFrequency):
        make_medium(2.0, 1.0, -3.0, 2)
    with pytest.raises(InvalidFrequency):
        make_medium(2.0, 1.0, 1.0 + 1.0j, 2)


def test_medium_rejects_bad_dimension():
    with pytest.raises(UnsupportedDimension):
        make_medium(2.0, 1.0, 1.0, 4)


@given(
    lam=st.floats(-0.4, 50.0),
    mu=st.floats(0.05, 50.0),
    omega=st.floats(0.01, 100.0),
    dim=st.sampled_from([2, 3]),
)
@settings(max_examples=200, deadline=None)
def test_medium_pressure_slower_than_shear(lam, mu, omega, dim):
    # strong convexity forces lam + mu > 0, hence kappa_p < kappa_s
    if dim * lam + 2.0 * mu <= 1e-9:
        return
    med = make_medium(lam, mu, omega, dim)
    assert med.kappa_p < med.kappa_s


# ---------------------------------------------------------------------------
# traction
# ---------------------------------------------------------------------------

def _jet(point, value, grad):
    return FieldJet(value=np.asarray(value, complex),
                    gradient=np.asarray(grad, complex))


def test_traction_rigid_translation_vanishes():
    med = make_medium(2.0, 1.0, 2.0, 2)
    jet = _jet([0.0, 0.0], [3.0, -1.0], np.zeros((2, 2)))
    for nu in ([0.0, -1.0], [1.0, 0.0], [0.6, 0.8]):
        t = traction(jet, np.asarray(nu), med)
        assert np.max(np.abs(t)) == 0.0


def test_traction_rigid_rotation_vanishes():
    # infinitesimal rotation: antisymmetric gradient, zero strain
    med = make_medium(2.0, 1.0, 2.0, 2)
    g = np.array([[0.0, -0.7], [0.7, 0.0]])
    jet = _jet([0.0, 0.0], [0.0, 0.0], g)
    t = traction(jet, np.array([0.0, -1.0]), med)
    assert np.max(np.abs(t)) < 1e-14


def test_traction_2d_downward_normal_formula():
    lam, mu = 2.0, 1.0
    med = make_medium(lam, mu, 2.0, 2)
    rng = np.random.default_rng(11)
    for _ in range(20):
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        jet = _jet([0.0, 0.0], [0.0, 0.0], g)
        t = traction(jet, np.array([0.0, -1.0]), med)
        expected = -np.array([mu * (g[1, 0] + g[0, 1]),
                              lam * g[0, 0] + (lam + 2 * mu) * g[1, 1]])
        assert np.allclose(t, expected, atol=1e-14)


def test_traction_3d_downward_normal_formula():
    lam, mu = 1.5, 0.8
    med = make_medium(lam, mu, 1.0, 3)
    rng = np.random.default_rng(12)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    jet = _jet([0.0, 0.0, 0.0], [0.0, 0.0, 0.0], g)
    t = traction(jet, np.array([0.0, 0.0, -1.0]), med)
    expected = -np.array([
        mu * (g[0, 2] + g[2, 0]),
        mu * (g[1, 2] + g[2, 1]),
        lam * (g[0, 0] + g[1, 1]) + (lam + 2 * mu) * g[2, 2],
    ])
    assert np.allclose(t, expected, atol=1e-14)


@pytest.mark.parametrize("dim", [2, 3])
def test_traction_batched_matches_single_points(dim):
    med = make_medium(2.0, 1.0, 2.0, dim)
    rng = np.random.default_rng(13)
    g = rng.standard_normal((4, 3, dim, dim)) + 1j * rng.standard_normal((4, 3, dim, dim))
    nu = rng.standard_normal(dim)
    nu /= np.linalg.norm(nu)
    origin = np.zeros(dim)
    batch = traction(_jet(origin, origin, g), nu, med)
    assert batch.shape == (4, 3, dim)
    for idx in np.ndindex(4, 3):
        assert np.array_equal(batch[idx], traction(_jet(origin, origin, g[idx]), nu, med))


def test_traction_rejects_mismatched_shapes():
    med = make_medium(2.0, 1.0, 2.0, 2)
    with pytest.raises(DimensionMismatch):
        traction(_jet([0, 0], [0, 0], np.zeros((5, 3, 3))), np.array([0.0, 1.0]), med)
    with pytest.raises(DimensionMismatch):
        traction(_jet([0, 0], [0, 0], np.zeros((2, 2))), np.array([0.0, 1.0, 0.0]), med)


@given(a=st.floats(-5, 5), b=st.floats(-5, 5))
@settings(max_examples=50, deadline=None)
def test_traction_linearity(a, b):
    med = make_medium(2.0, 1.0, 2.0, 2)
    rng = np.random.default_rng(7)
    g1 = rng.standard_normal((2, 2))
    g2 = rng.standard_normal((2, 2))
    nu = np.array([0.6, 0.8])
    j1 = _jet([0, 0], [0, 0], g1)
    j2 = _jet([0, 0], [0, 0], g2)
    j12 = _jet([0, 0], [0, 0], a * g1 + b * g2)
    lhs = traction(j12, nu, med)
    rhs = a * traction(j1, nu, med) + b * traction(j2, nu, med)
    assert np.allclose(lhs, rhs, atol=1e-12)


# ---------------------------------------------------------------------------
# holder_seminorm
# ---------------------------------------------------------------------------

def test_seminorm_constant_field_is_zero():
    nodes = np.linspace(0.0, 1.0, 50)[:, None]
    vals = np.full((50, 1), 2.5 + 0.0j)
    fld = SampledVectorField(nodes, vals)
    assert holder_seminorm(fld, 0.5) == 0.0


def test_seminorm_absolute_value_lipschitz():
    nodes = np.linspace(-1.0, 1.0, 101)[:, None]
    vals = np.abs(nodes)
    fld = SampledVectorField(nodes, vals)
    assert holder_seminorm(fld, 1.0) == pytest.approx(1.0, rel=1e-12)


def test_seminorm_square_approaches_two():
    nodes = np.linspace(0.0, 1.0, 2001)[:, None]
    vals = nodes ** 2
    fld = SampledVectorField(nodes, vals)
    s = holder_seminorm(fld, 1.0)
    assert 1.99 < s <= 2.0


def _holder_by_all_pairs(fld, delta):
    """Reference: the seminorm over one triu_indices array of every pair."""
    n = fld.nodes.shape[0]
    ii, jj = np.triu_indices(n, k=1)
    dist = np.linalg.norm(fld.nodes[ii] - fld.nodes[jj], axis=1)
    keep = dist > 0.0
    ii, jj, dist = ii[keep], jj[keep], dist[keep]
    diff = np.linalg.norm(fld.values[ii] - fld.values[jj], axis=1)
    return float(np.max(diff / dist ** delta))


def _random_field():
    rng = np.random.default_rng(3)
    nodes = rng.uniform(0, 1, size=(400, 2))
    vals = np.sin(3.0 * nodes[:, :1]) * np.cos(2.0 * nodes[:, 1:])
    return SampledVectorField(nodes, np.hstack([vals, vals]))


def _nonradiating_field():
    med = make_medium(2.0, 1.0, 2.0, 2)
    dom = disk(0.5)
    mesh = gauss_mesh(dom, n_radial=32, n_angular=64)
    bump = polynomial_bump(dom, amplitude=(0.5, 1.0),
                           linear=np.array([[0.3, -0.2], [0.1, 0.4]]))
    return make_nonradiating(dom, bump, med, mesh)[0]


@pytest.mark.parametrize("make, delta", [(_random_field, 0.7),
                                         (_nonradiating_field, 1.0)])
def test_seminorm_equals_all_pairs_reference(make, delta):
    fld = make()
    assert holder_seminorm(fld, delta) == _holder_by_all_pairs(fld, delta)


def test_seminorm_blocks_cover_every_pair(monkeypatch):
    fld = _random_field()
    # 2,400 pairs a block: 128 leaves of 3 or 4 nodes, 4 blocks in all
    monkeypatch.setattr(elastic, "_PAIR_BLOCK", 6 * 400)
    assert holder_seminorm(fld, 0.7) == _holder_by_all_pairs(fld, 0.7)


def _white_noise_field():
    # no smoothness at all: every cell's value radius spans the whole range
    rng = np.random.default_rng(17)
    nodes = rng.uniform(-1, 1, size=(600, 2))
    vals = rng.standard_normal((600, 2)) + 1j * rng.standard_normal((600, 2))
    return SampledVectorField(nodes, vals)


def _duplicated_field():
    # 150 nodes of which 60 are repeated with other values, plus 12 copies
    # of one isolated point, which fill leaves of their own
    rng = np.random.default_rng(23)
    base = rng.uniform(0, 1, size=(150, 2))
    nodes = np.vstack([base, base[:60], np.full((12, 2), 2.9)])
    vals = np.hstack([np.cos(2.0 * nodes[:, :1]), nodes[:, 1:] ** 2])
    vals[150:] += rng.uniform(-0.1, 0.1, size=(72, 2))
    return SampledVectorField(nodes, vals)


def _field_3d():
    rng = np.random.default_rng(29)
    nodes = rng.uniform(-1, 1, size=(500, 3))
    vals = np.stack([np.sin(nodes[:, 0] + nodes[:, 1]), nodes[:, 2] ** 2,
                     np.exp(-nodes[:, 0] ** 2)], axis=1)
    return SampledVectorField(nodes, vals)


def _spiked_field(*spikes):
    """Constant field on 400 random nodes, moved at the listed nodes."""
    nodes = np.random.default_rng(31).uniform(0, 1, size=(400, 2))
    vals = np.full((400, 2), 0.5 + 0.25j)
    for k, step in spikes:
        vals[k] += step
    return SampledVectorField(nodes, vals)


def _spike_field():
    return _spiked_field((137, 1e-3))


def _collinear_field():
    # zero span across the line: every split of the tree runs along it
    t = np.sort(np.random.default_rng(37).uniform(-1, 1, 300))
    nodes = np.stack([t, np.full_like(t, 0.3)], axis=1)
    return SampledVectorField(nodes, np.stack([np.abs(t) ** 0.3, t], axis=1))


@pytest.mark.parametrize("make, delta", [
    (_nonradiating_field, 0.05),    # delta = 1 is the reference test's case
    *[(make, delta) for make in (_random_field, _white_noise_field,
                                 _duplicated_field, _spike_field,
                                 _collinear_field)
      for delta in (0.05, 1.0)]])
def test_seminorm_equals_all_pairs_where_pruning_is_weak(make, delta):
    fld = make()
    assert holder_seminorm(fld, delta) == _holder_by_all_pairs(fld, delta)


@pytest.mark.parametrize("delta", [0.05, 0.5])
def test_seminorm_equals_all_pairs_in_3d(delta):
    fld = _field_3d()
    assert holder_seminorm(fld, delta) == _holder_by_all_pairs(fld, delta)


@pytest.mark.parametrize("delta", [0.05, 1.0])
def test_seminorm_spike_anywhere(delta):
    # the largest ratio joins the spike to its nearest node, which for some
    # of these nodes lies in another cell than the spike
    for k in range(0, 400, 20):
        fld = _spiked_field((k, 1e-3))
        assert holder_seminorm(fld, delta) == _holder_by_all_pairs(fld, delta)


def test_seminorm_two_distant_spikes():
    # at delta = 0.05 the opposite spikes give the largest ratio, although
    # their cells differ only slightly in mean value
    nodes = _spiked_field().nodes
    far = (int(np.argmin(nodes.sum(axis=1))), int(np.argmax(nodes.sum(axis=1))))
    fld = _spiked_field((far[0], 1.0), (far[1], -1.0))
    assert holder_seminorm(fld, 0.05) == _holder_by_all_pairs(fld, 0.05)


def test_seminorm_duplicates_fill_a_leaf_of_their_own():
    # the copies are the largest nodes along both axes, so every split
    # leaves them at the end of its upper half
    fld = _duplicated_field()
    perm, levels = elastic._kd_tree(fld.nodes)
    starts, counts = levels[-1]
    leaves = np.split(fld.nodes[perm], starts[1:])
    assert any(len(leaf) > 1 and np.all(leaf == 2.9) for leaf in leaves)
    assert holder_seminorm(fld, 1.0) == _holder_by_all_pairs(fld, 1.0)


@st.composite
def _small_cloud(draw):
    """Up to five leaves' worth of nodes on a coarse grid, so that nodes
    repeat; or all on one line, or all at one point."""
    dim = draw(st.sampled_from((2, 3)))
    n = draw(st.integers(2, 5 * elastic._LEAF_SIZE))
    grid = st.lists(st.integers(0, 3), min_size=n * dim, max_size=n * dim)
    nodes = np.reshape(draw(grid), (n, dim)) / 3.0
    layout = draw(st.sampled_from(("grid", "line", "point")))
    if layout == "line":
        nodes[:, 1:] = 0.5
    elif layout == "point":
        nodes[:] = nodes[0]
    part = st.floats(-1.0, 1.0, allow_subnormal=False)
    parts = np.reshape(draw(st.lists(part, min_size=2 * n * dim, max_size=2 * n * dim)),
                       (2, n, dim))
    return SampledVectorField(nodes, parts[0] + 1j * parts[1])


@given(fld=_small_cloud(), at_cap=st.booleans())
@settings(max_examples=300, deadline=None)
def test_seminorm_small_clouds_equal_all_pairs(fld, at_cap):
    # 2 to 20 nodes give trees of depth 0 (at most 4 nodes), 1 and 2, and
    # halves of odd size; delta at either end of its range
    dim = fld.nodes.shape[1]
    delta = (1.0 if dim == 2 else 0.5) if at_cap else 1e-3
    if np.all(fld.nodes == fld.nodes[0]):
        with pytest.raises(InsufficientSamples):
            holder_seminorm(fld, delta)
    else:
        assert holder_seminorm(fld, delta) == _holder_by_all_pairs(fld, delta)


def test_seminorm_tree_depth_follows_leaf_size():
    nodes = np.random.default_rng(41).uniform(0, 1, size=(21, 2))
    for n, depth in [(2, 0), (4, 0), (5, 1), (8, 1), (9, 2), (21, 3)]:
        perm, levels = elastic._kd_tree(nodes[:n])
        counts = levels[-1][1]
        assert len(levels) == depth + 1 and np.sort(perm).tolist() == list(range(n))
        assert counts.sum() == n and counts.min() >= 1 and counts.max() <= elastic._LEAF_SIZE


def _counting_pairs(monkeypatch):
    """Record the number of node pairs in each block handed to the pair
    evaluator."""
    blocks = []
    evaluate = elastic._max_pair_ratio

    def spy(nodes, values, ii, jj, delta):
        blocks.append(ii.size)
        return evaluate(nodes, values, ii, jj, delta)

    monkeypatch.setattr(elastic, "_max_pair_ratio", spy)
    return blocks


@pytest.mark.parametrize("block", [64, 500])
def test_seminorm_small_blocks_split_both_passes(monkeypatch, block):
    # 400 nodes in 128 leaves of 3 or 4 at either block: the pass over the
    # pairs within each leaf and the pass over the surviving pairs of
    # leaves take 105 (block 64) or 14 (block 500) blocks in all
    fld = _random_field()
    monkeypatch.setattr(elastic, "_PAIR_BLOCK", block)
    blocks = _counting_pairs(monkeypatch)
    assert holder_seminorm(fld, 0.7) == _holder_by_all_pairs(fld, 0.7)
    assert len(blocks) > 10 and max(blocks) <= block


def test_seminorm_shallow_tree_splits_leaf_pairs_across_blocks(monkeypatch):
    # a tree capped at 64 leaf pairs stops at 8 leaves of 50: each pair of
    # leaves (up to 2,500 node pairs) spans several blocks of 500
    fld = _random_field()
    tree = elastic._kd_tree
    monkeypatch.setattr(elastic, "_kd_tree", lambda nodes: tree(nodes, leaf_pairs=64))
    monkeypatch.setattr(elastic, "_PAIR_BLOCK", 500)
    assert elastic._kd_tree(fld.nodes)[1][-1][1].tolist() == [50] * 8
    blocks = _counting_pairs(monkeypatch)
    assert holder_seminorm(fld, 0.7) == _holder_by_all_pairs(fld, 0.7)
    assert len(blocks) > 10 and max(blocks) <= 500


def test_seminorm_working_set_stays_under_2_mib():
    # 2,048 nodes: a scan block's index, difference and ratio arrays take
    # about 1.5 MiB; blocks of 2^20 pairs took 3.3 MiB
    fld = _nonradiating_field()
    assert peak_mib(lambda: holder_seminorm(fld, 1.0)) < 2.0


def test_seminorm_prunes_most_pairs(monkeypatch):
    # about 1.1 % of the 2,096,128 pairs; an all-pairs search fails here
    fld = _nonradiating_field()
    n = fld.nodes.shape[0]
    blocks = _counting_pairs(monkeypatch)
    assert holder_seminorm(fld, 1.0) == _holder_by_all_pairs(fld, 1.0)
    assert sum(blocks) <= 0.05 * n * (n - 1) / 2


def test_seminorm_skips_coincident_pairs():
    # a duplicated node is a pair at distance 0; it must not divide by zero
    nodes = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    vals = np.array([[0.0, 0.0], [5.0, 0.0], [1.0, 0.0]])
    assert holder_seminorm(SampledVectorField(nodes, vals), 1.0) == 4.0


def test_seminorm_all_nodes_coincide():
    fld = SampledVectorField(np.ones((5, 2)), np.arange(10.0).reshape(5, 2))
    with pytest.raises(InsufficientSamples):
        holder_seminorm(fld, 0.5)


def test_seminorm_exponent_range_depends_on_dimension():
    nodes3 = np.random.default_rng(1).uniform(0, 1, size=(20, 3))
    fld3 = SampledVectorField(nodes3, np.ones((20, 3)))
    with pytest.raises(InvalidExponent):
        holder_seminorm(fld3, 0.9)       # 3-D cap is 1/2
    nodes2 = np.random.default_rng(1).uniform(0, 1, size=(20, 2))
    fld2 = SampledVectorField(nodes2, np.ones((20, 2)))
    with pytest.raises(InvalidExponent):
        holder_seminorm(fld2, 1.5)


def test_seminorm_needs_two_points():
    fld = SampledVectorField(np.zeros((1, 2)), np.zeros((1, 2)))
    with pytest.raises(InsufficientSamples):
        holder_seminorm(fld, 0.5)


# ---------------------------------------------------------------------------
# field_norms
# ---------------------------------------------------------------------------

def test_norms_zero_field():
    mesh = volume_mesh(disk(1.0), h=0.1)
    fld = SampledVectorField(mesh.nodes, np.zeros_like(mesh.nodes),
                             mesh_ref=mesh.mesh_id)
    l2, linf = field_norms(fld, mesh)
    assert l2 == 0.0 and linf == 0.0


def test_norms_unit_field_on_unit_disk():
    mesh = volume_mesh(disk(1.0), h=0.02)
    vals = np.zeros((mesh.nodes.shape[0], 2), dtype=complex)
    vals[:, 0] = 1.0
    fld = SampledVectorField(mesh.nodes, vals, mesh_ref=mesh.mesh_id)
    l2, linf = field_norms(fld, mesh)
    assert l2 == pytest.approx(np.sqrt(np.pi), rel=1e-2)
    assert linf == pytest.approx(1.0, abs=1e-15)


def test_norms_linf_picks_largest_sample():
    mesh = volume_mesh(disk(1.0), h=0.1)
    vals = np.zeros((mesh.nodes.shape[0], 2), dtype=complex)
    vals[:, 0] = -3.0
    fld = SampledVectorField(mesh.nodes, vals, mesh_ref=mesh.mesh_id)
    _, linf = field_norms(fld, mesh)
    assert linf == pytest.approx(3.0, abs=1e-15)


def test_norms_reject_foreign_mesh():
    mesh_a = volume_mesh(disk(1.0), h=0.1)
    mesh_b = volume_mesh(disk(1.0), h=0.09)
    fld = SampledVectorField(mesh_a.nodes, np.zeros_like(mesh_a.nodes),
                             mesh_ref=mesh_a.mesh_id)
    with pytest.raises(MeshMismatch):
        field_norms(fld, mesh_b)
