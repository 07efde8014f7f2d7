"""Medium scattering via the volume integral (Lippmann-Schwinger) equation.

A density contrast ``V`` supported in the domain scatters an incident entire
solution ``u_i`` according to ``u_t + omega^2 P(V u_t) = u_i`` where ``P``
maps a source to its outgoing solution (``P f = -G * f`` with the kernel
normalized against ``-delta``); the scattered field is ``u = u_t - u_i`` and
its far field is the pattern of the equivalent source ``-omega^2 V u_t``.
The dense collocation solve works for any contrast; the Neumann-series mode
exists to exercise the contraction regime and its a-priori bounds.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .elastic import LameMedium, SampledVectorField, _lame_stencil, lame_operator_fd
from .errors import (
    DimensionMismatch,
    InvalidDirection,
    InvalidParameter,
    MeshMismatch,
    OutOfRegime,
    QuadratureBudgetExceeded,
    SeriesDiverges,
    SingularSystem,
    UnsupportedDimension,
)
from .geometry import (
    DomainGeometry,
    QuadratureMesh,
    diameter,
    inside,
    signed_distance,
)
from .greens import kupradze_batch, singular_cell_integral
from .source import (
    FarFieldPattern,
    SourceProblem,
    coincident_nodes,
    directions_circle,
    farfield_of_source,
)

_SERIES_MAX_TERMS = 200
# uniform points in the domain's bounding box that MediumScatterer.v_sup draws
_V_SUP_SAMPLES = 4096
_V_SUP_SEED = 7


@dataclass
class MediumScatterer:
    """Density perturbation ``(1 + V)`` supported in the domain.

    ``contrast`` maps batched points to complex values (scalar field); it is
    taken to vanish outside the domain, which the potential assembly enforces
    by meshing the domain only.
    """

    domain: DomainGeometry
    medium: LameMedium
    contrast: Callable
    _v_sup_cache: Optional[float] = None

    def contrast_on(self, pts: np.ndarray) -> np.ndarray:
        vals = np.asarray(self.contrast(pts), dtype=complex)
        if vals.shape != pts.shape[:-1]:
            raise DimensionMismatch(
                f"contrast returned shape {vals.shape}, expected {pts.shape[:-1]}")
        return vals

    def v_sup(self) -> float:
        """Sampled sup of |V| over the domain (dense random + mesh-free)."""
        if self._v_sup_cache is None:
            rng = np.random.default_rng(_V_SUP_SEED)
            lo, hi = _bounding_box(self.domain)
            pts = rng.uniform(lo, hi, size=(_V_SUP_SAMPLES, self.domain.dim))
            mask = inside(self.domain, pts)
            if not np.any(mask):
                self._v_sup_cache = 0.0
            else:
                self._v_sup_cache = float(np.max(np.abs(self.contrast_on(pts[mask]))))
        return self._v_sup_cache


@dataclass(frozen=True)
class IncidentWave:
    """Entire solution of the homogeneous system used as illumination."""

    kind: str                       # "pressure-plane" | "shear-plane" | "point-source"
    direction: Optional[np.ndarray]
    origin: Optional[np.ndarray]
    medium: LameMedium

    def __call__(self, pts) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        med = self.medium
        if self.kind == "pressure-plane":
            d = self.direction
            phase = np.exp(1j * med.kappa_p * (pts @ d))
            return phase[:, None] * d
        if self.kind == "shear-plane":
            d = self.direction
            dperp = np.array([-d[1], d[0]])
            phase = np.exp(1j * med.kappa_s * (pts @ d))
            return phase[:, None] * dperp
        # point-source: Green-tensor column against the unit force e_1
        return kupradze_batch(pts - self.origin, med)[:, :, 0]


@dataclass
class MediumSolve:
    """Total/scattered fields on the mesh plus the far field and diagnostics."""

    u_total: SampledVectorField
    u_scattered: SampledVectorField
    farfield: FarFieldPattern
    series_terms_used: int
    contraction_estimate: float


@dataclass(frozen=True)
class ContractionReport:
    """A-priori smallness diagnostics for the fixed-point argument.

    ``upsilon = eps * v_sup / (s - eps * v_sup)`` bounds the scattered-to-
    incident ratio and ``bound_ut = s / (s - eps * v_sup)`` the total-to-
    incident ratio; both blow up as the product approaches ``s`` and the
    regime flag trips (values still reported) once it is reached.
    """

    epsilon: float
    v_sup: float
    upsilon: float
    bound_u: float
    bound_ut: float
    s_used: float
    out_of_regime: bool


def make_incident(kind: str, params: dict, medium: LameMedium) -> IncidentWave:
    if medium.dim != 2:
        raise UnsupportedDimension("incident fields are 2-D only")
    if kind in ("pressure-plane", "shear-plane"):
        d = np.asarray(params.get("direction"), dtype=float)
        if d.shape != (2,) or abs(d @ d - 1.0) > 1e-10:
            raise InvalidDirection("direction must be a 2-D unit vector")
        return IncidentWave(kind=kind, direction=d, origin=None, medium=medium)
    if kind == "point-source":
        origin = np.asarray(params.get("origin"), dtype=float)
        if origin.shape != (2,):
            raise InvalidDirection("point-source origin must be a 2-D point")
        return IncidentWave(kind=kind, direction=None, origin=origin, medium=medium)
    raise InvalidDirection(f"unknown incident kind {kind!r}")


def _bounding_box(domain: DomainGeometry):
    los, his = zip(*(comp.bbox() for comp in domain.components))
    return np.min(los, axis=0), np.max(his, axis=0)


def _potential_matrix(mesh: QuadratureMesh, medium: LameMedium) -> np.ndarray:
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


def solve_medium(scatterer: MediumScatterer, incident: IncidentWave,
                 mesh: QuadratureMesh, mode: str = "direct-dense",
                 directions=None, series_tol: float = 1e-12) -> MediumSolve:
    """Solve the volume integral equation on the mesh.

    ``direct-dense`` assembles and factors the 2N x 2N collocation system
    ``(I + omega^2 P V) u_t = u_i``; ``neumann-series`` iterates the fixed
    point ``u_t <- u_i - omega^2 P(V u_t)`` and reports the observed
    contraction ratio, refusing to continue when successive corrections grow.
    The far field is radiated by the equivalent source ``-omega^2 V u_t``.
    """
    if scatterer.medium.dim != 2:
        raise UnsupportedDimension("medium solves are 2-D only")
    if mode not in ("direct-dense", "neumann-series"):
        raise InvalidParameter(f"unknown mode {mode!r}")
    if incident.kind == "point-source" and bool(
            inside(scatterer.domain, incident.origin[None, :])[0]):
        raise InvalidDirection("point-source origin must lie outside the scatterer")
    med = scatterer.medium
    nodes = mesh.nodes
    n = nodes.shape[0]
    vvals = scatterer.contrast_on(nodes)
    ui = incident(nodes)
    vdiag = np.repeat(vvals, 2)
    # P = -(kernel quadrature), so omega^2 P V collocates to -omega^2 pot V;
    # scaled in place, the same two products in the same order
    op = _potential_matrix(mesh, med)
    op *= -med.omega ** 2
    op *= vdiag[None, :]

    terms = 1
    contraction = 0.0
    if mode == "direct-dense":
        sys = op.copy()
        sys[np.diag_indices(2 * n)] += 1.0
        b = ui.ravel()
        try:
            ut_flat = np.linalg.solve(sys, b)
        except np.linalg.LinAlgError as exc:
            raise SingularSystem(str(exc)) from None
        resid = float(np.linalg.norm(sys @ ut_flat - b) / max(np.linalg.norm(b), 1e-300))
        del sys
        if not np.isfinite(resid) or resid > 1e-8:
            raise SingularSystem(f"collocation residual {resid:.2e}")
        ut = ut_flat.reshape(n, 2)
        contraction = _spectral_norm_estimate(op)
    else:
        b = ui.ravel()
        ut_flat = b.copy()
        term = b.copy()
        base = float(np.linalg.norm(b))
        prev = base
        ratios = []
        while True:
            term = -(op @ term)
            cur = float(np.linalg.norm(term))
            if cur <= series_tol * base:
                break                       # next term negligible: not counted
            if prev > 0.0:
                ratios.append(cur / prev)
            if len(ratios) >= 2 and ratios[-1] >= 1.0 and ratios[-2] >= 1.0:
                raise SeriesDiverges(
                    f"correction ratio {ratios[-1]:.3f} >= 1 at term {terms + 1}")
            ut_flat = ut_flat + term
            prev = cur
            terms += 1
            if terms > _SERIES_MAX_TERMS:
                raise SeriesDiverges(f"no convergence within {_SERIES_MAX_TERMS} terms")
        ut = ut_flat.reshape(n, 2)
        contraction = float(max(ratios)) if ratios else 0.0

    u_sc = ut - ui
    if directions is None:
        directions = _default_directions(med, scatterer.domain)
    equivalent = -med.omega ** 2 * vdiag.reshape(n, 2) * ut
    problem = SourceProblem(domain=scatterer.domain, medium=med,
                            phi=SampledVectorField(nodes=nodes, values=equivalent,
                                                   mesh_ref=mesh.mesh_id))
    ff = farfield_of_source(problem, mesh, directions)
    return MediumSolve(
        u_total=SampledVectorField(nodes=nodes, values=ut, mesh_ref=mesh.mesh_id),
        u_scattered=SampledVectorField(nodes=nodes, values=u_sc, mesh_ref=mesh.mesh_id),
        farfield=ff, series_terms_used=terms, contraction_estimate=contraction)


def _spectral_norm_estimate(op: np.ndarray, iters: int = 12, seed: int = 3) -> float:
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


def _default_directions(medium: LameMedium, domain: DomainGeometry) -> np.ndarray:
    count = max(64, int(np.ceil(4.0 * medium.kappa_s * diameter(domain))) + 16)
    return directions_circle(count)


def contraction_report(scatterer: MediumScatterer, s: float = 1.0) -> ContractionReport:
    """Evaluate the smallness product and the a-priori field-size bounds.

    ``epsilon = diameter * omega`` and the bounds use the supplied constant
    ``s`` (calibrate it with the bounds module; the analysis only guarantees
    one exists).  Out-of-regime inputs are flagged, not rejected, and the
    ratio fields are set to infinity there.
    """
    if s <= 0.0:
        raise InvalidParameter(f"s must be positive, got {s}")
    eps = diameter(scatterer.domain) * scatterer.medium.omega
    v = scatterer.v_sup()
    prod = eps * v
    if prod >= s:
        return ContractionReport(epsilon=eps, v_sup=v, upsilon=np.inf,
                                 bound_u=np.inf, bound_ut=np.inf, s_used=s,
                                 out_of_regime=True)
    ups = prod / (s - prod)
    return ContractionReport(epsilon=eps, v_sup=v, upsilon=ups, bound_u=ups,
                             bound_ut=s / (s - prod), s_used=s,
                             out_of_regime=False)


def upsilon(eps: float, v_sup: float, s: float = 1.0) -> float:
    """Smallness ratio ``eps*v/(s - eps*v)``, non-decreasing in both arguments."""
    if s <= 0.0:
        raise InvalidParameter(f"s must be positive, got {s}")
    if eps < 0.0 or v_sup < 0.0:
        raise InvalidParameter("eps and v_sup must be nonnegative")
    prod = eps * v_sup
    if prod >= s:
        raise OutOfRegime(f"eps*v = {prod} >= s = {s}")
    return prod / (s - prod)


def pde_residual_check(wave: IncidentWave, point, step: float = 1e-3) -> float:
    """Relative residual of the homogeneous system at one point (oracle hook)."""
    x = np.asarray(point, dtype=float)[None, :]
    res = lame_operator_fd(wave, x, wave.medium, step=step, order=4)[0]
    ref = wave.medium.omega ** 2 * np.linalg.norm(wave(x)[0])
    return float(np.linalg.norm(res) / ref)


def lattice_pde_residual(scatterer: MediumScatterer, mesh: QuadratureMesh,
                         u_total_values: np.ndarray,
                         margin_cells: int = 6):
    """Discrete PDE residual of a solved total field on its own mesh lattice.

    Second differences taken directly between lattice neighbors at the mesh
    spacing measure how well the sampled field satisfies the perturbed system
    (elastic operator plus ``omega^2 (1+V)``).  Nodes whose stencil reaches
    past the mesh are excluded, and so are nodes within ``margin_cells``
    cells of the boundary, since the quadrature error concentrates there.  Returns ``(max_rel, median_rel, n_interior)`` with
    the residual normalized by ``omega^2 |u|`` per node.
    """
    if mesh.style != "cell":
        raise MeshMismatch("lattice residual needs a cell-style mesh")
    nodes = mesh.nodes
    ut = np.asarray(u_total_values)
    if ut.shape != nodes.shape:
        raise DimensionMismatch(
            f"field shape {ut.shape} does not match mesh {nodes.shape}")
    if not np.all(np.isfinite(ut)):
        raise DimensionMismatch("field contains non-finite entries")
    med = scatterer.medium
    # the field scattered into a lattice padded with NaN, so a node whose
    # stencil reaches a missing neighbour gets a NaN residual
    keys = np.round((nodes - nodes.min(axis=0)) / mesh.h).astype(int) + 1
    lattice = np.full(tuple(keys.max(axis=0) + 2) + (ut.shape[1],), np.nan,
                      dtype=np.result_type(ut, float))
    lattice[tuple(keys.T)] = ut

    def shifted(o):
        return lattice[tuple((keys + o).T)]

    res = _lame_stencil(shifted, med, mesh.h, order=2) \
        + med.omega ** 2 * scatterer.contrast_on(nodes)[:, None] * ut
    rel = np.linalg.norm(res, axis=1) / (med.omega ** 2 * np.linalg.norm(ut, axis=1))
    margin = margin_cells * mesh.h
    rels = rel[[i for i in np.flatnonzero(np.all(np.isfinite(res), axis=1))
                if signed_distance(scatterer.domain, nodes[i]) <= -margin]]
    if not rels.size:
        raise MeshMismatch(
            f"no interior lattice nodes beyond {margin_cells} cells; refine the mesh")
    return float(rels.max()), float(np.median(rels)), int(rels.size)
