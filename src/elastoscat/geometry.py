"""Domain catalog, curvature charts, and quadrature meshes.

A domain is one shape, an instance of one of three frozen classes
implementing the :class:`Shape` protocol: ``Ball`` (a disk in 2-D, a ball in
3-D), the axis-aligned ``Ellipse``, and the paraboloid-like boundary ``Cap``.
The module-level functions pass each query to the domain's shape.  A cap is
the planar region between a convex graph ``x2 = gamma(|x1|)`` and the flat
lid ``x2 = b``:

    cap = { x : gamma(|x1|) < x2 < b },     gamma(t) = K t^2 + c3 |t|^3,

with chart radius ``rho = sqrt(M)/K`` and lid height ``b = 1/K``.  The chart
is admissible when, on a 201-point sample grid,

    K_minus t^2 <= gamma(t) <= K_plus t^2,    1/M <= K_pm / K <= M,
    K_plus - K_minus <= L * K^(1 - varsigma),

and the remainder ``gamma - K t^2`` stays within the declared cubic
magnitude.  Disks and ellipses have cell meshes on an h-lattice; a cap has
none yet (``volume_mesh`` raises ``MeshMismatch``, see ROADMAP item 10), only
its Gauss and boundary meshes.  Everything here is deterministic: identical
inputs produce bit-identical meshes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Optional, Protocol

import numpy as np

from .elastic import content_id
from .errors import (
    ChartInvalid,
    DimensionMismatch,
    InvalidParameter,
    KTooSmall,
    MeshMismatch,
    MeshTooCoarse,
    UnsupportedDimension,
)

CHART_SAMPLES = 201
_BOUNDARY_SCAN = 2048


@dataclass(frozen=True)
class CapGraph:
    """The cap's lower boundary ``gamma(t) = K t^2 + cubic |t|^3``.

    Accepts scalars and arrays alike.  Every cap formula goes through these
    three methods, so each keeps one fixed operation order; they use
    elementwise products only, so a point gets the same bits alone or in a
    batch.
    """

    K: float
    cubic: float

    def gamma(self, t):
        t2 = t * t
        return self.K * t2 + self.cubic * (t2 * abs(t))

    def dgamma(self, t):
        return 2.0 * self.K * t + 3.0 * self.cubic * abs(t) * t

    def d2gamma(self, t):
        return 2.0 * self.K + 6.0 * self.cubic * abs(t)


@dataclass(frozen=True)
class KCurvatureChart:
    """Admissible curvature data at a boundary point (taken as the origin)."""

    K: float
    K_minus: float
    K_plus: float
    L: float
    M: float
    varsigma: float
    rho: float
    b: float
    cubic: float

    @property
    def graph(self) -> CapGraph:
        return CapGraph(self.K, self.cubic)


@dataclass(frozen=True)
class DomainGeometry:
    """One shape in ``dim`` dimensions, optionally carrying a curvature chart."""

    shape: Shape
    dim: int
    chart: Optional[KCurvatureChart] = None

    @property
    def components(self) -> tuple:
        """``(shape,)``, read-only: acceptance criterion 6
        (``tests/test_acceptance.py``) reads ``dom.components[0]`` and stays
        unedited."""
        return (self.shape,)


@dataclass(frozen=True)
class QuadratureMesh:
    """Positive-weight volume quadrature.

    ``style`` is ``"cell"`` for near-uniform square-cell meshes (the only
    style accepted by the singular potential solvers) or ``"smooth"`` for
    high-order meshes meant for smooth integrands.
    """

    nodes: np.ndarray
    weights: np.ndarray
    h: float
    style: str
    mesh_id: str
    measure: Optional[float] = None


@dataclass(frozen=True)
class BoundaryMesh:
    nodes: np.ndarray
    normals: np.ndarray
    weights: np.ndarray
    h: float
    tags: tuple
    mesh_id: str


# ---------------------------------------------------------------------------
# level functions: q > 0 inside, q = 0 on (part of) the boundary
# ---------------------------------------------------------------------------

class LevelFunction:
    """Scalar q with analytic gradient and Hessian (2-D)."""

    def value(self, x):          # pragma: no cover - interface
        raise NotImplementedError

    def gradient(self, x):       # pragma: no cover - interface
        raise NotImplementedError

    def hessian(self, x):        # pragma: no cover - interface
        raise NotImplementedError


@dataclass(frozen=True)
class DiskLevel(LevelFunction):
    radius: float
    center: np.ndarray

    def value(self, x):
        y = np.asarray(x, float) - self.center
        return self.radius ** 2 - np.sum(y * y, axis=-1)

    def gradient(self, x):
        y = np.asarray(x, float) - self.center
        return -2.0 * y

    def hessian(self, x):
        n = self.center.shape[0]
        return -2.0 * np.eye(n)


@dataclass(frozen=True)
class EllipseLevel(LevelFunction):
    a: float
    b: float
    center: np.ndarray

    def value(self, x):
        y = np.asarray(x, float) - self.center
        return 1.0 - (y[..., 0] / self.a) ** 2 - (y[..., 1] / self.b) ** 2

    def gradient(self, x):
        y = np.asarray(x, float) - self.center
        g = np.empty_like(y)
        g[..., 0] = -2.0 * y[..., 0] / self.a ** 2
        g[..., 1] = -2.0 * y[..., 1] / self.b ** 2
        return g

    def hessian(self, x):
        return np.diag([-2.0 / self.a ** 2, -2.0 / self.b ** 2])


@dataclass(frozen=True)
class CapGraphLevel(LevelFunction):
    """q = x2 - gamma(x1): vanishes on the graph part of a cap boundary only."""

    graph: CapGraph

    def value(self, x):
        x = np.asarray(x, float)
        return x[..., 1] - self.graph.gamma(x[..., 0])

    def gradient(self, x):
        x = np.asarray(x, float)
        g = np.empty_like(x)
        g[..., 0] = -self.graph.dgamma(x[..., 0])
        g[..., 1] = 1.0
        return g

    def hessian(self, x):
        x = np.asarray(x, float)
        h = np.zeros(x.shape[:-1] + (2, 2))
        h[..., 0, 0] = -self.graph.d2gamma(x[..., 0])
        return h


# ---------------------------------------------------------------------------
# shapes
# ---------------------------------------------------------------------------

class Shape(Protocol):
    """A connected scattering domain, anchored at ``center``.

    ``inside``, ``bbox``, ``diameter`` and ``signed_distance`` work in the
    shape's own dimension; the measure, meshes and level function are 2-D.
    """

    center: np.ndarray

    def inside(self, pts: np.ndarray) -> np.ndarray:
        """Mask of the (N, n) points that lie strictly inside."""

    def bbox(self) -> tuple:
        """``(lo, hi)`` corners of the axis-aligned bounding box."""

    def diameter(self) -> float: ...

    def signed_distance(self, x: np.ndarray) -> float:
        """Distance from ``x`` to the boundary, negative inside."""

    def measure(self) -> float: ...

    def cell_mesh(self, h: float) -> tuple:
        """``(nodes, weights)`` of the near-uniform cell mesh of side ``h``."""

    def gauss_mesh(self, n_radial: int, n_angular: int) -> tuple:
        """``(nodes, weights)`` of the high-order rule for smooth integrands."""

    def boundary_mesh(self, h: float) -> tuple:
        """``(nodes, outward normals, weights, tags)``, one tag per node."""

    def level_function(self, whole_boundary: bool = True) -> LevelFunction:
        """Level function vanishing on the boundary.  A cap has only the
        profile that vanishes on its graph part: it needs
        ``whole_boundary=False`` and raises ``InvalidParameter`` otherwise;
        disks and ellipses ignore the flag."""


def _positive(name: str, value) -> float:
    if not value > 0:
        raise InvalidParameter(f"{name} must be positive, got {value}")
    return float(value)


def _as_center(center, lengths: tuple) -> np.ndarray:
    c = np.asarray(center, dtype=float)
    if c.ndim != 1 or c.shape[0] not in lengths:
        raise DimensionMismatch(
            f"center must have length {' or '.join(map(str, lengths))}, "
            f"got shape {c.shape}")
    return c


def _lattice_cells(shape: Shape, rx: float, ry: float, h: float):
    """Cell centers of the h-lattice over the box of semi-axes (rx, ry)."""
    if h > min(rx, ry):
        raise MeshTooCoarse(f"h={h} exceeds smallest feature {min(rx, ry)}")
    nx = int(math.ceil(2.0 * rx / h))
    ny = int(math.ceil(2.0 * ry / h))
    xs = shape.center[0] + (np.arange(nx) - 0.5 * (nx - 1)) * h
    ys = shape.center[1] + (np.arange(ny) - 0.5 * (ny - 1)) * h
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    pts = pts[shape.inside(pts)]
    return pts, np.full(pts.shape[0], h * h)


@cache
def _gauss_legendre(n: int) -> tuple:
    """The n-point Gauss-Legendre rule ``(nodes, weights)`` on [-1, 1], built
    once per n and shared, so both arrays are read-only."""
    rule = np.polynomial.legendre.leggauss(n)
    for arr in rule:
        arr.flags.writeable = False
    return rule


def _graph_columns(gamma, b: float, x1: np.ndarray, w1: np.ndarray, n: int) -> tuple:
    """Columns of the n-point Gauss-Legendre rule from the graph ``gamma`` up
    to the lid ``b``, over the x1 rule ``(x1, w1)``: nodes (M, n, 2), weights
    (M, n) and each column's depth, clamped at 0."""
    xg, wg = _gauss_legendre(n)
    glo = gamma(x1)
    depth = np.maximum(b - glo, 0.0)
    ys = glo[:, None] + 0.5 * depth[:, None] * (xg[None, :] + 1.0)
    weights = 0.5 * depth[:, None] * wg[None, :] * w1[:, None]
    nodes = np.stack([np.broadcast_to(x1[:, None], ys.shape), ys], axis=-1)
    return nodes, weights, depth


def _polar_gauss(center: np.ndarray, a: float, b: float, n_radial: int,
                 n_angular: int):
    """Gauss-Legendre in radius times trapezoidal angles on semi-axes (a, b)."""
    r, wr = _gauss_legendre(n_radial)
    r = 0.5 * (r + 1.0)          # (0,1)
    wr = 0.5 * wr
    th = 2.0 * np.pi * np.arange(n_angular) / n_angular
    wt = 2.0 * np.pi / n_angular
    R, TH = np.meshgrid(r, th, indexing="ij")
    X = center[0] + a * R * np.cos(TH)
    Y = center[1] + b * R * np.sin(TH)
    W = (wr[:, None] * R) * wt * a * b
    return (np.stack([X.ravel(), Y.ravel()], axis=1),
            np.broadcast_to(W, R.shape).ravel().copy())


def _cloud_diameter(pts: np.ndarray) -> float:
    """Largest distance between two points of the cloud."""
    # O(n^2) in chunks of rows with about 2^15 pairs each: the (rows, n, 2)
    # difference array stays 512 KiB whatever the cloud size
    step = max(1, (1 << 15) // pts.shape[0])
    picked = []
    for i in range(0, pts.shape[0], step):
        d2 = np.sum((pts[i:i + step, None, :] - pts[None, :, :]) ** 2, axis=2)
        picked.append(np.sqrt(np.max(d2)))
    return float(np.max(picked))


@dataclass(frozen=True)
class Ball:
    """Disk (2-D) or ball (3-D) of the given radius."""

    radius: float
    center: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "radius", _positive("radius", self.radius))
        object.__setattr__(self, "center", _as_center(self.center, (2, 3)))

    def inside(self, pts):
        return np.linalg.norm(pts - self.center, axis=1) < self.radius

    def bbox(self):
        return self.center - self.radius, self.center + self.radius

    def diameter(self):
        return 2.0 * self.radius

    def signed_distance(self, x):
        return float(np.linalg.norm(x - self.center) - self.radius)

    def measure(self):
        return math.pi * self.radius ** 2

    def cell_mesh(self, h):
        return _lattice_cells(self, self.radius, self.radius, h)

    def gauss_mesh(self, n_radial, n_angular):
        return _polar_gauss(self.center, self.radius, self.radius, n_radial, n_angular)

    def boundary_mesh(self, h):
        r = self.radius
        n = max(int(math.ceil(2.0 * np.pi * r / h)), 8)
        th = 2.0 * np.pi * (np.arange(n) + 0.5) / n
        nrm = np.stack([np.cos(th), np.sin(th)], axis=1)
        weights = np.full(n, 2.0 * np.pi * r / n)
        return self.center + r * nrm, nrm, weights, ["boundary"] * n

    def level_function(self, whole_boundary=True):
        return DiskLevel(self.radius, self.center)


@dataclass(frozen=True)
class Ellipse:
    """Axis-aligned ellipse with semi-axes ``a`` (along x1) and ``b`` (along x2)."""

    a: float
    b: float
    center: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a", _positive("semi-axis a", self.a))
        object.__setattr__(self, "b", _positive("semi-axis b", self.b))
        object.__setattr__(self, "center", _as_center(self.center, (2,)))

    def inside(self, pts):
        x = pts - self.center
        return (x[:, 0] / self.a) ** 2 + (x[:, 1] / self.b) ** 2 < 1.0

    def boundary_sample(self, n):
        th = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
        return self.center + np.stack([self.a * np.cos(th), self.b * np.sin(th)], axis=1)

    def bbox(self):
        ab = np.array([self.a, self.b])
        return self.center - ab, self.center + ab

    def diameter(self):
        return 2.0 * max(self.a, self.b)

    def signed_distance(self, x):
        scan = self.boundary_sample(_BOUNDARY_SCAN)
        d = self._refine_distance(x, float(np.min(np.linalg.norm(scan - x, axis=1))))
        return -d if self.inside(x[None, :])[0] else d

    def _refine_distance(self, x: np.ndarray, d0: float) -> float:
        """Newton refinement of the closest boundary point in the angle parameter."""
        a, b = self.a, self.b
        y = x - self.center
        th = math.atan2(y[1] / b, y[0] / a)
        for _ in range(60):
            c, s = math.cos(th), math.sin(th)
            p = np.array([a * c, b * s])
            dp = np.array([-a * s, b * c])
            d2p = np.array([-a * c, -b * s])
            r = p - y
            f = float(np.dot(r, dp))
            fp = float(np.dot(dp, dp) + np.dot(r, d2p))
            if fp == 0.0:
                break
            step = f / fp
            th -= step
            if abs(step) < 1e-15:
                break
        c, s = math.cos(th), math.sin(th)
        d = float(np.linalg.norm(np.array([a * c, b * s]) - y))
        return min(d, d0)

    def measure(self):
        return math.pi * self.a * self.b

    def cell_mesh(self, h):
        return _lattice_cells(self, self.a, self.b, h)

    def gauss_mesh(self, n_radial, n_angular):
        return _polar_gauss(self.center, self.a, self.b, n_radial, n_angular)

    def boundary_mesh(self, h):
        a, b = self.a, self.b
        n = max(int(math.ceil(2.0 * np.pi * max(a, b) / h)), 8)
        th = 2.0 * np.pi * (np.arange(n) + 0.5) / n
        pts = np.stack([a * np.cos(th), b * np.sin(th)], axis=1)
        tang = np.stack([-a * np.sin(th), b * np.cos(th)], axis=1)
        speed = np.linalg.norm(tang, axis=1)
        nrm = np.stack([tang[:, 1], -tang[:, 0]], axis=1) / speed[:, None]
        # outward check: flip if pointing inward
        flip = np.sum(nrm * pts, axis=1) < 0
        nrm[flip] *= -1.0
        return self.center + pts, nrm, speed * 2.0 * np.pi / n, ["boundary"] * n

    def level_function(self, whole_boundary=True):
        return EllipseLevel(self.a, self.b, self.center)


@dataclass(frozen=True)
class Cap:
    """Planar region between the chart's graph and its lid: ``gamma(|x1|) < x2 < b``.

    ``x1max`` is the radial extent, where the graph meets the lid.
    """

    chart: KCurvatureChart
    x1max: float
    center: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x1max", _positive("x1max", self.x1max))
        object.__setattr__(self, "center", _as_center(self.center, (2,)))

    def inside(self, pts):
        x = pts - self.center
        t = np.abs(x[:, 0])
        return (x[:, 1] > self.chart.graph.gamma(t)) & (x[:, 1] < self.chart.b)

    def boundary_sample(self, n):
        w, m = self.x1max, n // 2
        t = np.linspace(-w, w, m)
        graph = np.stack([t, self.chart.graph.gamma(t)], axis=1)
        lid = np.stack([np.linspace(-w, w, n - m), np.full(n - m, self.chart.b)], axis=1)
        return self.center + np.concatenate([graph, lid], axis=0)

    def bbox(self):
        w, b = self.x1max, self.chart.b
        return self.center + np.array([-w, 0.0]), self.center + np.array([w, b])

    def diameter(self):
        return _cloud_diameter(self.boundary_sample(_BOUNDARY_SCAN))

    def signed_distance(self, x):
        d = self._boundary_distance(x)
        return -d if self.inside(x[None, :])[0] else d

    def _boundary_distance(self, x: np.ndarray) -> float:
        graph, w = self.chart.graph, self.x1max
        y = x - self.center

        # lid segment
        dx = max(abs(y[0]) - w, 0.0)
        d_lid = math.hypot(dx, y[1] - self.chart.b)

        # graph curve: coarse scan then Newton on t -> |(t, g(t)) - y|^2 / 2
        ts = np.linspace(-w, w, _BOUNDARY_SCAN)
        d2 = (ts - y[0]) ** 2 + (graph.gamma(ts) - y[1]) ** 2
        t = float(ts[np.argmin(d2)])
        for _ in range(60):
            r2 = graph.gamma(t) - y[1]
            f = t - y[0] + r2 * graph.dgamma(t)
            fp = 1.0 + graph.dgamma(t) ** 2 + r2 * graph.d2gamma(t)
            if fp <= 0.0:
                break
            step = f / fp
            t -= step
            t = min(max(t, -w), w)
            if abs(step) < 1e-15:
                break
        d_graph = math.hypot(t - y[0], graph.gamma(t) - y[1])
        d_graph = min(d_graph, math.sqrt(float(np.min(d2))))
        return min(d_graph, d_lid)

    def measure(self):
        w = self.x1max
        ts = np.linspace(-w, w, 20001)
        col = self.chart.b - self.chart.graph.gamma(ts)
        return float(np.trapezoid(np.maximum(col, 0.0), ts))

    def cell_mesh(self, h):
        raise MeshMismatch(
            "a cap has no cell mesh on an h-lattice yet; it waits for ROADMAP item 10")

    def gauss_mesh(self, n_radial, n_angular):
        x1, w1 = _gauss_legendre(max(n_angular, 16))
        nodes, weights, depth = _graph_columns(
            self.chart.graph.gamma, self.chart.b, self.x1max * x1, self.x1max * w1,
            max(n_radial, 8))
        live = depth > 0
        return nodes[live].reshape(-1, 2) + self.center, weights[live].ravel()

    def boundary_mesh(self, h):
        graph, w = self.chart.graph, self.x1max
        n = max(int(math.ceil(2.0 * w / h)), 8)
        d1 = 2.0 * w / n
        t = -w + (np.arange(n) + 0.5) * d1
        gp = graph.dgamma(t)
        speed = np.sqrt(1.0 + gp ** 2)
        nrm = np.stack([gp, -np.ones_like(t)], axis=1) / speed[:, None]
        nodes = np.concatenate([np.stack([t, graph.gamma(t)], axis=1),
                                np.stack([t, np.full(n, self.chart.b)], axis=1)])
        normals = np.concatenate([nrm, np.tile([0.0, 1.0], (n, 1))])
        weights = np.concatenate([speed * d1, np.full(n, d1)])
        return self.center + nodes, normals, weights, ["graph"] * n + ["lid"] * n

    def level_function(self, whole_boundary=True):
        if whole_boundary:
            raise InvalidParameter("a cap profile vanishes on the graph only; "
                                   "pass whole_boundary=False")
        return CapGraphLevel(self.chart.graph)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def disk(radius: float, center=(0.0, 0.0), dim: int = 2) -> DomainGeometry:
    ball = Ball(radius, center)
    if ball.center.shape != (dim,):
        raise DimensionMismatch(f"center must have length {dim}")
    return DomainGeometry(shape=ball, dim=dim)


def ellipse(a: float, b: float, center=(0.0, 0.0)) -> DomainGeometry:
    return DomainGeometry(shape=Ellipse(a, b, center), dim=2)


def make_cap_domain(K: float, L: float, M: float, varsigma: float,
                    cubic: float = 0.0) -> DomainGeometry:
    """Build a cap domain and validate its curvature chart.

    ``cubic`` is the declared magnitude of the graph's cubic perturbation:
    ``gamma(t) = K t^2 + cubic * |t|^3``.  Raises ``ChartInvalid`` when any
    chart inequality fails on the sample grid and ``KTooSmall`` for K < e.
    """
    if not K >= math.e:
        raise KTooSmall(f"need K >= e, got K={K}")
    if not 1.0 <= M < math.inf:
        raise ChartInvalid(f"need a finite M >= 1, got M={M}")
    if not L > 0.0:
        raise ChartInvalid(f"need L > 0, got L={L}")
    if not (0.0 < varsigma <= 1.0):
        raise ChartInvalid(f"need varsigma in (0, 1], got {varsigma}")
    rho = math.sqrt(M) / K
    b = 1.0 / K
    c3 = float(cubic)
    if not (math.isfinite(K) and math.isfinite(c3)):
        raise ChartInvalid(f"need finite K and cubic, got K={K}, cubic={cubic}")

    # Chart validation on the sample grid.
    t = np.linspace(0.0, rho, CHART_SAMPLES)
    g = CapGraph(K, c3).gamma(t)
    if np.any(g[1:] <= 0.0):
        raise ChartInvalid("gamma must be positive away from the contact point")
    ratio = g[1:] / t[1:] ** 2
    k_minus = float(np.min(ratio))
    k_plus = float(np.max(ratio))
    # round-off slack so the tight case M = 1 with an exact paraboloid passes
    if not (1.0 / M <= k_minus / K * (1.0 + 1e-12)
            and k_plus / K <= M * (1.0 + 1e-12)):
        raise ChartInvalid(
            f"curvature ratio out of [1/M, M]: K-/K={k_minus / K:.6g}, "
            f"K+/K={k_plus / K:.6g}, M={M}")
    if k_plus - k_minus > L * K ** (1.0 - varsigma) * (1.0 + 1e-12):
        raise ChartInvalid(
            f"K_plus - K_minus = {k_plus - k_minus:.6g} exceeds "
            f"L*K^(1-varsigma) = {L * K ** (1.0 - varsigma):.6g}")
    remainder = np.abs(g[1:] - K * t[1:] ** 2)
    if np.any(remainder > abs(c3) * t[1:] ** 3 + 1e-14 * K * t[1:] ** 2):
        raise ChartInvalid("graph remainder exceeds the declared cubic magnitude")

    chart = KCurvatureChart(K=K, K_minus=k_minus, K_plus=k_plus, L=L, M=M,
                            varsigma=varsigma, rho=rho, b=b, cubic=c3)
    cap = Cap(chart=chart, x1max=_cap_halfwidth(chart), center=np.zeros(2))
    return DomainGeometry(shape=cap, dim=2, chart=chart)


def _cap_halfwidth(chart: KCurvatureChart) -> float:
    """Radial extent of the cap: the smallest t > 0 with gamma(t) = b,
    correctly rounded.

    A scan brackets the first crossing and bisection on floats shrinks the
    bracket to two adjacent floats.  Round-off in ``gamma`` can leave that
    pair an ulp or two off the root, so the pair then steps along the sign of
    the exact rational residual, and the end with the smaller exact residual
    is returned.
    """
    gamma, b = chart.graph.gamma, chart.b
    ts = np.linspace(0.0, chart.rho, 4096)
    idx = np.nonzero(gamma(ts[1:]) >= b)[0]
    if idx.size == 0:
        # gamma(rho) >= b is guaranteed by M >= 1 up to roundoff
        return chart.rho
    lo, hi = float(ts[idx[0]]), float(ts[idx[0] + 1])
    while math.nextafter(lo, hi) < hi:
        mid = 0.5 * (lo + hi)
        if gamma(mid) < b:
            lo = mid
        else:
            hi = mid
    # gamma(t) - b for t > 0 in exact arithmetic: with K = kn/kd,
    # cubic = cn/cd, b = bn/bd and t = p/q, over the denominator kd cd bd q^3
    from fractions import Fraction  # here, to keep it out of the package import

    (kn, kd), (cn, cd), (bn, bd) = (v.as_integer_ratio()
                                    for v in (chart.K, chart.cubic, b))

    def residual(t):
        p, q = t.as_integer_ratio()
        return Fraction((kn * cd * q + cn * kd * p) * bd * p * p - bn * kd * cd * q ** 3,
                        kd * cd * bd * q ** 3)

    r_lo, r_hi = residual(lo), residual(hi)
    while r_lo >= 0:
        lo, hi, r_hi = math.nextafter(lo, 0.0), lo, r_lo
        r_lo = residual(lo)
    while r_hi < 0:
        lo, hi, r_lo = hi, math.nextafter(hi, math.inf), r_hi
        r_hi = residual(hi)
    return lo if abs(r_lo) < abs(r_hi) else hi


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------

def inside(domain: DomainGeometry, pts) -> np.ndarray:
    """Boolean mask: which of the points lie strictly inside the domain."""
    x = np.atleast_2d(np.asarray(pts, dtype=float))
    if x.ndim != 2 or x.shape[1] != domain.dim:
        raise UnsupportedDimension(f"points must have length {domain.dim}")
    return domain.shape.inside(x)


def diameter(domain: DomainGeometry) -> float:
    """Largest pairwise point distance of the closure."""
    return domain.shape.diameter()


def signed_distance(domain: DomainGeometry, x: np.ndarray) -> float:
    """Signed distance to the boundary, negative inside."""
    x = np.asarray(x, dtype=float)
    if x.shape != (domain.dim,):
        raise UnsupportedDimension(f"point must have length {domain.dim}")
    return domain.shape.signed_distance(x)


# ---------------------------------------------------------------------------
# meshes
# ---------------------------------------------------------------------------

def volume_mesh(domain: DomainGeometry, h: float) -> QuadratureMesh:
    """Near-uniform cell mesh with square-ish cells of side ``h``.

    Disks and ellipses use Cartesian cell centers (weight ``h^2``); a cap
    raises ``MeshMismatch`` until it has a lattice mesh (ROADMAP item 10).
    The singular self-cell correction of the potential solvers assumes this
    style.
    """
    if domain.dim != 2:
        raise UnsupportedDimension("volume meshes are 2-D only")
    if not h > 0:
        raise MeshTooCoarse(f"h must be positive, got {h}")
    nodes, weights = domain.shape.cell_mesh(h)
    if nodes.shape[0] == 0:
        raise MeshTooCoarse(f"h={h} produced an empty mesh")
    mesh = QuadratureMesh(nodes=nodes, weights=weights, h=float(h), style="cell",
                          mesh_id=content_id(nodes, weights),
                          measure=domain.shape.measure())
    _check_measure(mesh)
    return mesh


def gauss_mesh(domain: DomainGeometry, n_radial: int = 48,
               n_angular: int = 96) -> QuadratureMesh:
    """High-order quadrature for smooth integrands (far fields, norms).

    Disks/ellipses: Gauss-Legendre in radius times uniform (trapezoidal)
    angles; caps: tensor Gauss-Legendre columns.  Total weight matches the
    measure to machine precision.
    """
    if domain.dim != 2:
        raise UnsupportedDimension("gauss meshes are 2-D only")
    nodes, weights = domain.shape.gauss_mesh(n_radial, n_angular)
    h_eff = float(np.sqrt(np.median(weights)))
    return QuadratureMesh(nodes=nodes, weights=weights, h=h_eff, style="smooth",
                          mesh_id=content_id(nodes, weights),
                          measure=domain.shape.measure())


def boundary_mesh(domain: DomainGeometry, h: float) -> BoundaryMesh:
    """Boundary quadrature with outward unit normals and per-part tags."""
    if domain.dim != 2:
        raise UnsupportedDimension("boundary meshes are 2-D only")
    if not h > 0:
        raise MeshTooCoarse(f"h must be positive, got {h}")
    nodes, normals, weights, tags = domain.shape.boundary_mesh(h)
    return BoundaryMesh(nodes=nodes, normals=normals, weights=weights, h=float(h),
                        tags=tuple(tags), mesh_id=content_id(nodes, weights))


def _check_measure(mesh: QuadratureMesh) -> None:
    total = float(np.sum(mesh.weights))
    if abs(total - mesh.measure) > 0.01 * mesh.measure:
        raise MeshTooCoarse(
            f"quadrature weight {total:.6g} deviates from measure "
            f"{mesh.measure:.6g} by more than 1%")

