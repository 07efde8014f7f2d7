"""Domains, curvature charts, meshes, and distance computations."""

import importlib.util
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from elastoscat import (
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
from elastoscat.elastic import content_id
from elastoscat.errors import (
    ChartInvalid,
    DimensionMismatch,
    InvalidParameter,
    KTooSmall,
    MeshTooCoarse,
    UnsupportedDimension,
)
from elastoscat.geometry import (
    Ball,
    Cap,
    CapGraph,
    Ellipse,
    _BOUNDARY_SCAN,
    _cloud_diameter,
    _gauss_legendre,
    _graph_columns,
)
from conftest import peak_mib


# ---------------------------------------------------------------------------
# cap construction and chart validation
# ---------------------------------------------------------------------------

def test_cap_basic_chart_quantities():
    dom = make_cap_domain(K=10.0, L=1.0, M=1.0, varsigma=0.5)
    chart = dom.chart
    assert chart.rho == pytest.approx(0.1, abs=1e-15)
    assert chart.b == pytest.approx(0.1, abs=1e-15)
    # exact paraboloid: both curvature envelopes collapse onto K
    assert chart.K_minus == pytest.approx(10.0, rel=1e-9)
    assert chart.K_plus == pytest.approx(10.0, rel=1e-9)


def test_cap_scaled_chart_quantities():
    dom = make_cap_domain(K=100.0, L=1.0, M=4.0, varsigma=0.5)
    assert dom.chart.rho == pytest.approx(0.02, abs=1e-15)
    assert dom.chart.b == pytest.approx(0.01, abs=1e-15)


def test_cap_rejects_small_curvature():
    with pytest.raises(KTooSmall):
        make_cap_domain(K=2.0, L=1.0, M=1.0, varsigma=0.5)


def test_cap_rejects_oversized_cubic():
    # cubic big enough that the curvature envelope spread exceeds L*K^(1-s)
    with pytest.raises(ChartInvalid):
        make_cap_domain(K=10.0, L=1.0, M=1.0, varsigma=0.5, cubic=500.0)


def test_cap_graph_between_envelopes():
    dom = make_cap_domain(K=10.0, L=3.0, M=4.0, varsigma=0.9, cubic=1.5)
    ch = dom.chart
    ts = np.linspace(1e-6, ch.rho * 0.999, 100)
    g = ch.graph.gamma(ts)
    assert np.all(g >= ch.K_minus * ts ** 2 - 1e-12)
    assert np.all(g <= ch.K_plus * ts ** 2 + 1e-12)
    assert ch.K_plus - ch.K_minus <= ch.L * ch.K ** (1.0 - ch.varsigma) + 1e-12


# ---------------------------------------------------------------------------
# the cap's half-width root and the graph's batch independence
# ---------------------------------------------------------------------------

def _benchmark_cap_menu():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.CAP_K, module.CAPS


def test_cap_halfwidth_is_correctly_rounded():
    cap_k, caps = _benchmark_cap_menu()
    charts = [{key: caps[key] for key in ("L", "M", "varsigma", "cubic")},
              {"L": 1.0, "M": 1.0, "varsigma": 0.5},            # golden "cap"
              {"L": 3.0, "M": 4.0, "varsigma": 0.9, "cubic": 1.5}]  # "cap_cubic"
    for K in cap_k:
        for chart in charts:
            dom = make_cap_domain(K=K, **chart)
            ch, x = dom.chart, dom.shape.x1max

            def residual(t):        # gamma(t) - b with exact rationals
                t = Fraction(t)
                return Fraction(ch.K) * t ** 2 + Fraction(ch.cubic) * t ** 3 - Fraction(ch.b)

            below, above = math.nextafter(x, 0.0), math.nextafter(x, 1.0)
            r, r_below, r_above = residual(x), residual(below), residual(above)
            assert r_below < 0 <= r or r <= 0 < r_above, (K, chart)
            assert abs(r) <= min(abs(r_below), abs(r_above)), (K, chart)


def test_cap_graph_is_independent_of_the_batch():
    rng = np.random.default_rng(22)
    graph = CapGraph(10.0, 1.5)
    ts = rng.uniform(-0.3, 0.3, 2000)
    batch = graph.gamma(ts)
    for t, want in zip(ts, batch):
        assert graph.gamma(float(t)) == want
        assert np.array_equal(graph.gamma(np.asarray(t)), want)
        assert np.array_equal(graph.gamma(np.full((2, 3), t)), np.full((2, 3), want))


# ---------------------------------------------------------------------------
# shape constructors reject bad sizes and centers
# ---------------------------------------------------------------------------

def _chart():
    return make_cap_domain(K=10.0, L=1.0, M=1.0, varsigma=0.5).chart


@pytest.mark.parametrize("build, error", [
    (lambda: disk(0.0), InvalidParameter),
    (lambda: disk(-0.5), InvalidParameter),
    (lambda: disk(float("nan")), InvalidParameter),
    (lambda: disk(1.0, center=(0.0, 0.0, 0.0)), DimensionMismatch),
    (lambda: disk(1.0, center=(0.0, 0.0), dim=3), DimensionMismatch),
    (lambda: ellipse(0.0, 1.0), InvalidParameter),
    (lambda: ellipse(1.0, -0.2), InvalidParameter),
    (lambda: ellipse(1.0, 0.5, center=(0.0,)), DimensionMismatch),
    (lambda: Ball(-1.0, (0.0, 0.0)), InvalidParameter),
    (lambda: Ball(1.0, (0.0, 0.0, 0.0, 0.0)), DimensionMismatch),
    (lambda: Ball(1.0, [[0.0, 0.0]]), DimensionMismatch),
    (lambda: Ellipse(1.0, 0.0, (0.0, 0.0)), InvalidParameter),
    (lambda: Ellipse(1.0, 0.5, (0.0, 0.0, 0.0)), DimensionMismatch),
    (lambda: Cap(_chart(), 0.0, (0.0, 0.0)), InvalidParameter),
    (lambda: Cap(_chart(), 0.1, (0.0,)), DimensionMismatch),
    (lambda: Cap(_chart(), 0.1, (0.0, 0.0, 0.0)), DimensionMismatch),
], ids=["disk-zero", "disk-negative", "disk-nan", "disk-3d-center",
        "disk-2d-center-dim3", "ellipse-zero-a", "ellipse-negative-b",
        "ellipse-1d-center", "ball-negative", "ball-4d-center",
        "ball-matrix-center", "Ellipse-zero-b", "Ellipse-3d-center",
        "cap-zero-width", "cap-1d-center", "cap-3d-center"])
def test_constructors_raise_named_errors(build, error):
    with pytest.raises(error):
        build()


# ---------------------------------------------------------------------------
# diameter
# ---------------------------------------------------------------------------

def test_diameter_single_disk():
    assert diameter(disk(0.5)) == pytest.approx(1.0, abs=1e-15)


def test_diameter_ellipse_major_axis():
    assert diameter(ellipse(2.0, 0.5)) == pytest.approx(4.0, rel=1e-12)


def test_diameter_cap_matches_boundary_sampling():
    dom = make_cap_domain(K=10.0, L=1.0, M=1.0, varsigma=0.5)
    ch = dom.chart
    # dense boundary cloud: graph part plus flat lid
    ts = np.linspace(-ch.rho, ch.rho, 4001)
    w = np.sqrt(ch.b / ch.K)
    graph_t = ts[np.abs(ts) <= w + 1e-12]
    graph = np.stack([graph_t, ch.graph.gamma(np.abs(graph_t))], axis=1)
    lid = np.stack([np.linspace(-w, w, 2001), np.full(2001, ch.b)], axis=1)
    cloud = np.vstack([graph, lid])
    best = 0.0
    for p in cloud[:: 8]:
        best = max(best, float(np.max(np.linalg.norm(cloud - p, axis=1))))
    assert diameter(dom) == pytest.approx(best, rel=1e-3)


def _diameter_unchunked(pts):
    """Reference: the largest of the same per-pair floats ``dx^2 + dy^2``,
    from two (n, n) arrays in one pass."""
    dx = pts[:, None, 0] - pts[None, :, 0]
    dy = pts[:, None, 1] - pts[None, :, 1]
    dx *= dx
    dy *= dy
    dx += dy
    return float(np.sqrt(np.max(dx)))


def test_cap_diameter_matches_unchunked_reference():
    dom = make_cap_domain(10.0, 3.0, 4.0, 0.9, 1.5)
    assert diameter(dom) == _diameter_unchunked(dom.shape.boundary_sample(_BOUNDARY_SCAN))


def test_cloud_diameter_matches_unchunked_reference_over_a_ragged_chunk():
    # 1,001 points: chunks of 32 rows, the last one of 9
    pts = ellipse(0.7, 0.4, center=(0.2, -0.1)).shape.boundary_sample(1001)
    assert _cloud_diameter(pts) == _diameter_unchunked(pts)


def test_cap_diameter_working_set_stays_under_2_mib():
    # 2,048 boundary points in chunks of 16 rows: 512 KiB of differences;
    # chunks of 512 rows took 32 MiB
    dom = make_cap_domain(10.0, 3.0, 4.0, 0.9, 1.5)
    assert peak_mib(lambda: diameter(dom)) < 2.0


@given(scale=st.floats(0.1, 20.0))
@settings(max_examples=40, deadline=None)
def test_diameter_scales_linearly(scale):
    assert diameter(disk(scale * 0.5)) == pytest.approx(scale * 1.0, rel=1e-12)
    assert diameter(ellipse(scale, 0.3 * scale)) == pytest.approx(
        2.0 * scale, rel=1e-12)


# ---------------------------------------------------------------------------
# meshes
# ---------------------------------------------------------------------------

def test_volume_mesh_area_unit_disk():
    mesh = volume_mesh(disk(1.0), h=0.01)
    assert float(np.sum(mesh.weights)) == pytest.approx(np.pi, rel=0.01)
    assert np.all(mesh.weights > 0.0)


def test_volume_mesh_nodes_stay_inside():
    mesh = volume_mesh(disk(1.0), h=0.05)
    assert bool(np.all(inside(disk(1.0 + 1e-9), mesh.nodes)))


def test_gauss_mesh_area_is_spectral():
    mesh = gauss_mesh(disk(1.0), n_radial=24, n_angular=48)
    assert float(np.sum(mesh.weights)) == pytest.approx(np.pi, rel=1e-10)


def test_boundary_mesh_perimeter_unit_circle():
    bm = boundary_mesh(disk(1.0), h=0.01)
    assert float(np.sum(bm.weights)) == pytest.approx(2.0 * np.pi, rel=0.01)
    norms = np.linalg.norm(bm.normals, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-12
    # outward: normal points along the radius for a centered disk
    align = np.sum(bm.normals * bm.nodes, axis=1)
    assert np.all(align > 0.0)


def test_boundary_mesh_cap_is_tagged():
    dom = make_cap_domain(K=10.0, L=1.0, M=1.0, varsigma=0.5)
    bm = boundary_mesh(dom, h=0.002)
    assert "graph" in bm.tags and "lid" in bm.tags


def test_volume_mesh_rejects_coarse_spacing():
    with pytest.raises(MeshTooCoarse):
        volume_mesh(disk(0.05), h=0.2)


@pytest.mark.parametrize("build", [volume_mesh, boundary_mesh])
@pytest.mark.parametrize("make", [
    lambda: disk(1.0),
    lambda: make_cap_domain(K=10.0, L=1.0, M=1.0, varsigma=0.5),
], ids=["disk", "cap"])
def test_meshes_reject_nan_spacing(build, make):
    with pytest.raises(MeshTooCoarse, match="h must be positive"):
        build(make(), float("nan"))


def test_boundary_measure_matches_mesh():
    # a disk's boundary mesh spreads the exact perimeter over its nodes
    bm = boundary_mesh(disk(2.0), h=0.05)
    assert float(np.sum(bm.weights)) == pytest.approx(4.0 * np.pi, rel=1e-12)


# ---------------------------------------------------------------------------
# signed distance
# ---------------------------------------------------------------------------

def test_signed_distance_disk_values():
    dom = disk(1.0)
    assert signed_distance(dom, np.array([0.3, 0.0])) == pytest.approx(-0.7, abs=1e-12)
    assert signed_distance(dom, np.array([0.0, 1.0])) == pytest.approx(0.0, abs=1e-12)
    assert signed_distance(dom, np.array([2.0, 0.0])) == pytest.approx(1.0, abs=1e-12)


def test_signed_distance_cap_matches_brute_force():
    dom = make_cap_domain(K=10.0, L=3.0, M=4.0, varsigma=0.9, cubic=1.5)
    ch = dom.chart
    w = dom.shape.x1max
    # dense boundary cloud for the oracle
    ts = np.linspace(-w, w, 60_001)
    graph = np.stack([ts, ch.graph.gamma(np.abs(ts))], axis=1)
    lid = np.stack([np.linspace(-w, w, 60_001), np.full(60_001, ch.b)], axis=1)
    cloud = np.vstack([graph, lid])
    rng = np.random.default_rng(4)
    pts = rng.uniform([-0.2, -0.05], [0.2, 0.2], size=(25, 2))
    for x in pts:
        want = float(np.min(np.linalg.norm(cloud - x, axis=1)))
        got = abs(signed_distance(dom, x))
        assert got == pytest.approx(want, abs=1e-6)


@pytest.mark.parametrize("make, pts", [
    (lambda: disk(1.0), np.zeros((4, 3))),
    (lambda: disk(1.0), [0.1, 0.2, 0.3]),
    (lambda: ellipse(0.5, 0.3), np.zeros((2, 1))),
    (lambda: make_cap_domain(K=10.0, L=1.0, M=1.0, varsigma=0.5), np.zeros((3, 3))),
    (lambda: disk(1.0, center=(0.0, 0.0, 0.0), dim=3), np.zeros((4, 2))),
], ids=["disk-3d-points", "disk-3d-point", "ellipse-1d-points", "cap-3d-points",
        "ball-2d-points"])
def test_inside_rejects_points_of_the_wrong_length(make, pts):
    with pytest.raises(UnsupportedDimension, match="points must have length"):
        inside(make(), pts)


def test_signed_distance_sign_convention_cap():
    dom = make_cap_domain(K=10.0, L=1.0, M=1.0, varsigma=0.5)
    mid = np.array([0.0, 0.05])          # halfway up the cap axis
    assert signed_distance(dom, mid) < 0.0
    assert signed_distance(dom, np.array([0.0, 0.5])) > 0.0
    assert signed_distance(dom, np.array([0.0, -0.1])) > 0.0


# ---------------------------------------------------------------------------
# golden values: meshes and metrics pinned bit for bit
# ---------------------------------------------------------------------------

# Every mesh and metric below must reproduce these values exactly (``==``),
# so a change to the geometry code that reorders floating-point operations
# shows up here before it reaches any downstream table.
GOLDEN_DOMAINS = {
    "disk": (lambda: disk(0.4), 0.02, [(0.0, 0.0), (0.9, 0.1), (-0.2, 0.35)]),
    "disk_offset": (lambda: disk(0.3, center=(0.7, -0.2)), 0.025,
                    [(0.7, -0.2), (0.0, 0.0), (0.95, -0.1)]),
    "ellipse": (lambda: ellipse(0.5, 0.3, center=(0.1, 0.05)), 0.02,
                [(0.1, 0.05), (0.9, 0.4), (0.5, 0.2), (0.1, -0.3)]),
    "cap": (lambda: make_cap_domain(K=10.0, L=1.0, M=1.0, varsigma=0.5), 0.01,
            [(0.0, 0.05), (0.05, 0.2), (0.02, -0.01), (0.09, 0.05)]),
    "cap_cubic": (lambda: make_cap_domain(K=10.0, L=3.0, M=4.0, varsigma=0.9,
                                          cubic=1.5), 0.01,
                  [(0.0, 0.05), (0.05, 0.2), (-0.02, -0.01), (-0.09, 0.05)]),
}

GOLDEN = {'cap': {'gauss_mesh': '52cbfbef2ef1dd58',
                  'gauss_measure': 0.013333333300000002,
                  'boundary_mesh': '2c1c4e710bc0d739',
                  'boundary_normals': '0f9af0e4488206b5',
                  'boundary_tags': ['graph', 'lid'],
                  'diameter': 0.2,
                  'signed_distance': [-0.05,
                                      0.1,
                                      0.013181552550489304,
                                      0.01596316581029693]},
          'cap_cubic': {'gauss_mesh': 'b94ce6c4ba634511',
                        'gauss_measure': 0.013259436309134552,
                        'boundary_mesh': 'd38572a5a22062cf',
                        'boundary_normals': 'bb79a0fa63766f11',
                        'boundary_tags': ['graph', 'lid'],
                        'diameter': 0.1985274677566269,
                        'signed_distance': [-0.049999999466604536,
                                            0.1,
                                            0.013187381781285114,
                                            0.016327857445575526]},
          'disk': {'volume_mesh': 'd3e81101ca71842d',
                   'volume_measure': 0.5026548245743669,
                   'gauss_mesh': 'a6b9688d4e0dcd76',
                   'gauss_measure': 0.5026548245743669,
                   'boundary_mesh': 'fba51475cde793d6',
                   'boundary_normals': 'a4761e10f0d3cbc2',
                   'boundary_tags': ['boundary'],
                   'diameter': 0.8,
                   'signed_distance': [-0.4, 0.5055385138137417, 0.00311288741492749]},
          'disk_offset': {'volume_mesh': '5aebbb38cb16293b',
                          'volume_measure': 0.2827433388230814,
                          'gauss_mesh': '4d73747c45be575f',
                          'gauss_measure': 0.2827433388230814,
                          'boundary_mesh': 'ad24407a82fe1668',
                          'boundary_normals': '618b78a44355c0fa',
                          'boundary_tags': ['boundary'],
                          'diameter': 0.6,
                          'signed_distance': [-0.3,
                                              0.4280109889280517,
                                              -0.030741759643274802]},
          'ellipse': {'volume_mesh': 'f89472a74cebdc2b',
                      'volume_measure': 0.47123889803846897,
                      'gauss_mesh': 'c1027378705ae9de',
                      'gauss_measure': 0.47123889803846897,
                      'boundary_mesh': 'd12ee1b4b788107f',
                      'boundary_normals': 'db4b7af6a7c350cb',
                      'boundary_tags': ['boundary'],
                      'diameter': 1.0,
                      'signed_distance': [-0.3,
                                          0.4118258667806177,
                                          -0.022916413435094717,
                                          0.04999999999999999]},
          'ball_pair': {'signed_distance': [-0.19999999999999998,
                                            -0.05000000000000002],
                        'inside': [True, True]}}


def _golden_values(name):
    build, h, points = GOLDEN_DOMAINS[name]
    dom = build()
    gm = gauss_mesh(dom, n_radial=16, n_angular=32)
    bm = boundary_mesh(dom, h)
    out = {
        "gauss_mesh": gm.mesh_id,
        "gauss_measure": gm.measure,
        "boundary_mesh": bm.mesh_id,
        "boundary_normals": content_id(bm.normals),
        "boundary_tags": sorted(set(bm.tags)),
        "diameter": diameter(dom),
        "signed_distance": [signed_distance(dom, np.array(p)) for p in points],
    }
    # a cap has no cell mesh until ROADMAP item 10
    if not isinstance(dom.shape, Cap):
        vm = volume_mesh(dom, h)
        out.update(volume_mesh=vm.mesh_id, volume_measure=vm.measure)
    return out


@pytest.mark.parametrize("name", sorted(GOLDEN_DOMAINS))
def test_golden_geometry_values(name):
    assert _golden_values(name) == GOLDEN[name]


def test_golden_ball_pair():
    # two 3-D balls, each asked about a point inside it
    balls = (disk(0.3, center=(0.0, 0.0, 0.0), dim=3),
             disk(0.2, center=(1.0, 0.5, -0.25), dim=3))
    pts = np.array([[0.1, 0.0, 0.0], [1.0, 0.5, -0.1]])
    got = {
        "signed_distance": [signed_distance(b, p) for b, p in zip(balls, pts)],
        "inside": [bool(inside(b, p)[0]) for b, p in zip(balls, pts)],
    }
    assert got == GOLDEN["ball_pair"]


# ---------------------------------------------------------------------------
# the shared Gauss-Legendre rule and the cap's column rule
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [6, 8, 24, 32])
def test_gauss_legendre_is_one_read_only_rule_per_n(n):
    x, w = _gauss_legendre(n)
    ref_x, ref_w = np.polynomial.legendre.leggauss(n)
    assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)
    assert _gauss_legendre(n)[0] is x
    for arr in (x, w):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0


def _cap_columns_by_loop(cap, n_radial, n_angular):
    """Reference: ``Cap.gauss_mesh`` one column at a time, dropping the
    columns of zero or negative depth."""
    gamma, b, w = cap.chart.graph.gamma, cap.chart.b, cap.x1max
    x1, w1 = np.polynomial.legendre.leggauss(max(n_angular, 16))
    x1 = w * x1
    w1 = w * w1
    x2r, w2r = np.polynomial.legendre.leggauss(max(n_radial, 8))
    nodes, weights = [], []
    for xi, wi in zip(x1, w1):
        g = gamma(xi)
        depth = b - g
        if depth <= 0:
            continue
        ys = g + 0.5 * depth * (x2r + 1.0)
        ws = 0.5 * depth * w2r * wi
        nodes.append(np.stack([np.full(ys.size, xi), ys], axis=1))
        weights.append(ws)
    return np.concatenate(nodes, axis=0) + cap.center, np.concatenate(weights)


@pytest.mark.parametrize("name", ["cap", "cap_cubic"])
@pytest.mark.parametrize("widen", [1.0, 1.25])
def test_graph_columns_match_the_column_loop(name, widen):
    # widen > 1 pushes the outer columns past the graph-lid crossing, where
    # their depth clamps at 0 and the mesh drops them
    cap = GOLDEN_DOMAINS[name][0]().shape
    cap = Cap(cap.chart, widen * cap.x1max, cap.center)
    for n_radial, n_angular in [(16, 32), (48, 96), (3, 5)]:
        nodes, weights = cap.gauss_mesh(n_radial, n_angular)
        ref_nodes, ref_weights = _cap_columns_by_loop(cap, n_radial, n_angular)
        assert np.array_equal(nodes, ref_nodes)
        assert np.array_equal(weights, ref_weights)
        x1, w1 = _gauss_legendre(max(n_angular, 16))
        _, col_w, depth = _graph_columns(cap.chart.graph.gamma, cap.chart.b,
                                         cap.x1max * x1, cap.x1max * w1, 8)
        assert np.all(depth >= 0.0) and np.all(col_w[depth == 0.0] == 0.0)
        live = np.count_nonzero(depth)
        assert weights.size == live * max(n_radial, 8)
        assert (live < depth.size) == (widen > 1.0)


@pytest.mark.parametrize("comp", [
    ellipse(0.7, 0.3, center=(0.4, -0.25)).shape,
    make_cap_domain(10.0, 3.0, 4.0, 0.9).shape,
], ids=["offset-ellipse", "cap"])
def test_bbox_holds_and_touches_the_boundary(comp):
    lo, hi = comp.bbox()
    pts = comp.boundary_sample(2048)
    slack = 1e-12 * np.max(hi - lo)
    assert np.all(pts >= lo - slack) and np.all(pts <= hi + slack)
    # the samples reach every side of the box
    assert np.allclose(pts.min(axis=0), lo, rtol=0.0, atol=1e-6 * np.max(hi - lo))
    assert np.allclose(pts.max(axis=0), hi, rtol=0.0, atol=1e-6 * np.max(hi - lo))
