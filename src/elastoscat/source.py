"""Volume-potential solver for the elastic source problem and far fields.

The outgoing solution of ``L u + omega^2 u = f`` with ``f = chi_Omega phi``
is the volume potential ``u(x) = -int_Omega G(x, y) phi(y) dy`` (the Green
tensor is normalized against ``-delta``, so the solution operator carries the
minus sign); its far field splits into a longitudinal pressure amplitude and
a transverse shear amplitude.  A manufactured generator produces sources
that provably radiate nothing: take any profile vanishing to second order on
the boundary and feed its own elastic residual back in as the intensity.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .elastic import LameMedium, SampledVectorField
from .errors import (
    CoincidentPoints,
    DimensionMismatch,
    BumpNotVanishing,
    InvalidDirection,
    MeshMismatch,
    MeshTooCoarse,
    NonpositiveArgument,
    QuadratureBudgetExceeded,
    UnsupportedDimension,
)
from .geometry import BoundaryMesh, DomainGeometry, QuadratureMesh, boundary_mesh, inside
from .greens import farfield_constants, kupradze_batch, singular_cell_integral

SOURCE_MIN_PPW = 4.0
_TANGENT_TOL = 1.0e-12
_PHASE_BLOCK = 1 << 15   # phase-matrix entries per block of far-field directions
_J1_MAX_ARG = 6.0e5      # J_1(x)/x takes 32 + ceil(1.5 x) nodes: under a million


@dataclass
class SourceProblem:
    """Compactly supported force density ``f = chi_Omega phi``.

    ``phi`` is either a callable mapping an (N, n) array of points to (N, n)
    intensities or a :class:`SampledVectorField` tied to a quadrature mesh.
    """

    domain: DomainGeometry
    medium: LameMedium
    phi: Union[Callable, SampledVectorField]

    def intensity_on(self, mesh: QuadratureMesh) -> np.ndarray:
        if callable(self.phi):
            vals = np.asarray(self.phi(mesh.nodes), dtype=complex)
            if vals.shape != mesh.nodes.shape:
                raise DimensionMismatch(
                    f"phi returned shape {vals.shape}, expected {mesh.nodes.shape}")
            return vals
        if self.phi.mesh_ref is not None and self.phi.mesh_ref != mesh.mesh_id:
            raise MeshMismatch(
                f"sampled intensity is tied to mesh {self.phi.mesh_ref!r}, "
                f"not {mesh.mesh_id!r}")
        if self.phi.values.shape[0] != mesh.nodes.shape[0]:
            raise MeshMismatch("sampled intensity does not match the mesh size")
        return np.asarray(self.phi.values, dtype=complex)


@dataclass
class FarFieldPattern:
    """Angular amplitudes of the outgoing field.

    ``up_inf[k]`` is the longitudinal scalar amplitude along ``directions[k]``
    and ``us_inf[k]`` the transverse vector amplitude; the full pattern is
    ``up_inf * xhat + us_inf``.  Transversality is enforced on construction.
    """

    directions: np.ndarray
    up_inf: np.ndarray
    us_inf: np.ndarray

    def __post_init__(self) -> None:
        self.directions = np.asarray(self.directions, dtype=float)
        self.up_inf = np.asarray(self.up_inf, dtype=complex)
        self.us_inf = np.asarray(self.us_inf, dtype=complex)
        if self.directions.ndim != 2:
            raise DimensionMismatch("directions must be an (M, n) array")
        m, n = self.directions.shape
        if self.up_inf.shape != (m,) or self.us_inf.shape != (m, n):
            raise DimensionMismatch("pattern arrays do not match the directions")
        radial = np.abs(np.sum(self.us_inf * self.directions, axis=1))
        scale = max(float(np.max(np.abs(self.us_inf))), 1.0)
        if radial.size and float(np.max(radial)) > _TANGENT_TOL * scale:
            raise DimensionMismatch(
                f"shear amplitude has a radial part up to {float(np.max(radial)):.2e}")


def directions_circle(count: int) -> np.ndarray:
    """``count`` unit vectors at equally spaced angles on the circle."""
    if count < 1:
        raise DimensionMismatch("need at least one direction")
    th = 2.0 * np.pi * np.arange(count) / count
    return np.stack([np.cos(th), np.sin(th)], axis=1)


def _check_mesh_resolution(mesh: QuadratureMesh, medium: LameMedium) -> None:
    if not 0.0 < mesh.h < math.inf:
        raise MeshTooCoarse(f"mesh spacing must be positive and finite, got {mesh.h}")
    ppw = 2.0 * np.pi / (medium.kappa_s * mesh.h)
    if ppw < SOURCE_MIN_PPW:
        raise MeshTooCoarse(
            f"{ppw:.2f} points per shear wavelength, need >= {SOURCE_MIN_PPW}")


def coincident_nodes(r: np.ndarray, mesh: QuadratureMesh) -> np.ndarray:
    """Mask of the distances ``r`` (last axis: the mesh nodes) at which an
    evaluation point sits on a node.

    Raises ``CoincidentPoints`` for a point on more than one node, naming the
    first such point's count, and for a point on a node of a smooth-style
    mesh, which has no singular-cell correction.
    """
    hit = r < 1e-9 * mesh.h
    counts = np.atleast_1d(np.count_nonzero(hit, axis=-1))
    crowded = np.flatnonzero(counts > 1)
    if crowded.size:
        raise CoincidentPoints(
            f"evaluation point coincides with {counts[crowded[0]]} mesh nodes")
    if mesh.style != "cell" and np.any(hit):
        raise CoincidentPoints(
            "evaluation point coincides with a smooth-mesh node; "
            "use a cell-style mesh for on-node evaluation")
    return hit


def potential_row(mesh: QuadratureMesh, medium: LameMedium,
                  x: np.ndarray) -> np.ndarray:
    """Quadrature of the volume potential at one point, as a (2, 2N) block.

    Column pair ``k`` is ``w_k G(x, y_k)``, so the block times the node-major
    flattened intensity approximates ``int_Omega G(x, y) phi(y) dy``.  When
    ``x`` coincides with a node of a cell-style mesh, that node's block is the
    analytic integral of the kernel over its square cell
    (:func:`singular_cell_integral`), which restores convergence of the
    product rule.  Coincidence with a node of a smooth-style mesh has no such
    correction, and coincidence with more than one node has no meaning; both
    raise ``CoincidentPoints``.
    """
    n = mesh.nodes.shape[0]
    diffs = x[None, :] - mesh.nodes
    hit = np.flatnonzero(coincident_nodes(np.hypot(diffs[:, 0], diffs[:, 1]), mesh))
    live = np.ones(n, dtype=bool)
    live[hit] = False
    g = np.empty((n, 2, 2), dtype=complex)
    g[live] = kupradze_batch(diffs[live], medium) * mesh.weights[live, None, None]
    if hit.size:
        g[hit[0]] = singular_cell_integral(medium, mesh.h)
    return np.transpose(g, (1, 0, 2)).reshape(2, 2 * n)


def solve_source(problem: SourceProblem, mesh: QuadratureMesh,
                 eval_points) -> SampledVectorField:
    """Evaluate the outgoing solution at arbitrary points.

    ``u(x) = -sum_k w_k G(x, y_k) phi_k`` (minus: the kernel is normalized
    against ``-delta``), one :func:`potential_row` per point, so an
    evaluation point on a node of a cell-style mesh takes the singular-cell
    correction and one on a node of a smooth-style mesh is rejected.  For
    evaluation points outside the domain the integrand is smooth, so a
    smooth-style mesh is the accurate choice.
    """
    if problem.medium.dim != 2 or problem.domain.dim != 2:
        raise UnsupportedDimension("volume solve is 2-D only")
    _check_mesh_resolution(mesh, problem.medium)
    pts = np.atleast_2d(np.asarray(eval_points, dtype=float))
    if pts.shape[1] != 2:
        raise DimensionMismatch(f"eval points have shape {pts.shape}, expected (M, 2)")
    phi = problem.intensity_on(mesh).ravel()
    out = np.empty((pts.shape[0], 2), dtype=complex)
    for i, x in enumerate(pts):
        out[i] = -(potential_row(mesh, problem.medium, x) @ phi)
    return SampledVectorField(nodes=pts, values=out, mesh_ref=None)


def _unit_directions(directions) -> np.ndarray:
    """``directions`` as the (M, 2) float array of unit vectors that
    :func:`farfield_of_source` takes, or the error it raises."""
    dirs = np.atleast_2d(np.asarray(directions, dtype=float))
    if dirs.ndim != 2 or dirs.shape[1] != 2 or dirs.shape[0] < 1:
        raise DimensionMismatch(
            f"directions have shape {dirs.shape}, expected (M, 2) with M >= 1")
    unit = np.abs(np.hypot(dirs[:, 0], dirs[:, 1]) - 1.0) <= 1e-12   # False for NaN
    if not np.all(unit):
        k = int(np.flatnonzero(~unit)[0])
        raise InvalidDirection(f"direction {k} = {dirs[k].tolist()} is not a unit vector")
    return dirs


def _transverse(us: np.ndarray, xhat: np.ndarray) -> np.ndarray:
    """Project the radial part out of ``us`` in place, then scrub the
    round-off of that projection (xhat is a unit vector only to 1e-12)
    radially once more."""
    for _ in range(2):
        us -= np.sum(us * xhat, axis=1)[:, None] * xhat
    return us


def _phase_matrix(kappa: float, dots: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """``e^{-i kappa dots}``, written into ``phase`` and returned: cos and
    sin in place take half the time of ``np.exp`` on a (256, 2048) block and
    give the same bits."""
    arg = -kappa * dots
    np.cos(arg, out=phase.real)
    np.sin(arg, out=phase.imag)
    return phase


def _patterns(medium: LameMedium, mesh: QuadratureMesh, dirs: np.ndarray,
              intensities) -> list[FarFieldPattern]:
    """The far-field pattern of each (N, 2) intensity of ``intensities`` on
    the mesh, along the unit ``dirs``: :func:`farfield_of_source` without
    its checks, for many sources at once.

    Each block of about ``_PHASE_BLOCK`` (2^15) phase entries forms ``dots``
    and each of its two phase matrices once and applies them to every
    ``w phi``, so a pattern has the same bits whichever list it is radiated
    in.  A block's ``dots``, phase argument and complex phase matrix take
    about 1 MiB together, whatever the number of directions; a mesh of
    more than 2^15 nodes takes one direction a block.
    """
    wphis = [mesh.weights[:, None] * phi for phi in intensities]
    cp, cs = farfield_constants(medium)
    m, n = dirs.shape[0], mesh.nodes.shape[0]
    step = min(m, max(1, _PHASE_BLOCK // max(n, 1)))
    phase = np.empty((step, n), dtype=complex)
    ups = [np.empty(m, dtype=complex) for _ in wphis]
    uss = [np.empty((m, 2), dtype=complex) for _ in wphis]
    for lo in range(0, m, step):
        xhat = dirs[lo:lo + step]
        dots = xhat @ mesh.nodes.T
        z = phase[:xhat.shape[0]]
        _phase_matrix(medium.kappa_p, dots, z)
        for up, wphi in zip(ups, wphis):
            up[lo:lo + step] = -cp * np.sum((z @ wphi) * xhat, axis=1)
        _phase_matrix(medium.kappa_s, dots, z)
        for us, wphi in zip(uss, wphis):
            us[lo:lo + step] = _transverse(-cs * (z @ wphi), xhat)
    return [FarFieldPattern(directions=dirs, up_inf=up, us_inf=us)
            for up, us in zip(ups, uss)]


def farfield_of_source(problem: SourceProblem, mesh: QuadratureMesh,
                       directions) -> FarFieldPattern:
    """Far-field pattern of the outgoing solution, by direct quadrature.

    The sign matches :func:`solve_source`: this is the pattern of the field
    that routine produces, so a manufactured non-radiating pair yields both a
    vanishing exterior field and a vanishing pattern.

    ``directions`` is an (M, 2) array of unit vectors, M >= 1 (a single
    direction may be given as a length-2 vector): a wrong shape raises
    ``DimensionMismatch``, a non-finite row or one whose length is off 1 by
    more than 1e-12 raises ``InvalidDirection``.

    The pattern is a non-uniform discrete Fourier transform of ``w phi``:
    ``up = -c_p xhat . sum_k e^{-i kp xhat.y_k} w_k phi_k`` and
    ``us = -c_s (I - xhat xhat^T) sum_k e^{-i ks xhat.y_k} w_k phi_k``.  Each
    block of directions forms the two (block, N) phase matrices and applies
    them to ``w phi`` as matrix products; a block holds about
    ``_PHASE_BLOCK`` phase entries, which bounds memory near 1 MiB for any
    M (and N up to 2^15).
    """
    if problem.medium.dim != 2 or problem.domain.dim != 2:
        raise UnsupportedDimension("far-field quadrature is 2-D only")
    dirs = _unit_directions(directions)
    _check_mesh_resolution(mesh, problem.medium)
    return _patterns(problem.medium, mesh, dirs, [problem.intensity_on(mesh)])[0]


def _j1_over_x(x: float) -> float:
    """``J_1(x) / x`` for ``0 <= x <= _J1_MAX_ARG`` (1/2 at 0), NumPy only.

    Poisson's integral ``(1/pi) int_0^pi cos(x cos t) sin^2 t dt`` by the
    trapezoid rule on ``n = 32 + ceil(1.5 x)`` intervals.  The integrand is
    smooth and, reflected to the whole circle, periodic, so the rule's error
    is the size of ``J_{2n-2}(x)``, far below round-off for this ``n``; the
    end nodes carry ``sin^2 t = 0``.  Larger ``x`` raises
    ``QuadratureBudgetExceeded``.
    """
    if not 0.0 <= x <= _J1_MAX_ARG:   # False for NaN
        raise QuadratureBudgetExceeded(
            f"J1(x)/x needs 0 <= x <= {_J1_MAX_ARG:g}, got x = {x!r}")
    n = 32 + math.ceil(1.5 * x)
    t = np.arange(1, n) * (np.pi / n)
    return float(np.sum(np.cos(x * np.cos(t)) * np.sin(t) ** 2)) / n


def farfield_of_disk(medium: LameMedium, radius: float, amplitude, directions,
                     center=(0.0, 0.0)) -> FarFieldPattern:
    """Exact far-field pattern of the constant intensity ``amplitude`` on the
    disk of ``radius`` about ``center``.

    The pattern :func:`farfield_of_source` approximates, in closed form: the
    disk's Fourier transform is
    ``F(kappa) = int_disk e^{-i kappa xhat.y} dy
    = 2 pi R^2 J_1(kappa R)/(kappa R) e^{-i kappa xhat.c}``, so
    ``up = -c_p F(kappa_p) (xhat . a)`` and
    ``us = -c_s F(kappa_s) (I - xhat xhat^T) a``, with the same far-field
    constants and transverse projection.  ``directions`` is checked as in
    :func:`farfield_of_source`; ``kappa R`` above ``_J1_MAX_ARG`` raises
    ``QuadratureBudgetExceeded``.
    """
    if medium.dim != 2:
        raise UnsupportedDimension("the disk far field is 2-D only")
    if not radius > 0.0:
        raise NonpositiveArgument(f"radius must be positive, got {radius}")
    dirs = _unit_directions(directions)
    amp = np.asarray(amplitude, dtype=complex)
    if amp.shape != (2,):
        raise DimensionMismatch(f"amplitude has shape {amp.shape}, expected (2,)")
    offsets = dirs @ np.asarray(center, dtype=float)
    cp, cs = farfield_constants(medium)

    def transform(kappa):
        """The disk's Fourier transform at ``kappa xhat``, per direction."""
        return (2.0 * np.pi * radius ** 2 * _j1_over_x(kappa * radius)
                * np.exp(-1j * kappa * offsets))

    up = -cp * transform(medium.kappa_p) * (dirs @ amp)
    us = _transverse(-cs * transform(medium.kappa_s)[:, None] * amp, dirs)
    return FarFieldPattern(directions=dirs, up_inf=up, us_inf=us)


def farfield_norm(pattern: FarFieldPattern) -> float:
    """L2 norm over the direction circle, equal-weight rule.

    ``sqrt( (2 pi / M) sum_k |up_k|^2 + |us_k|^2 )`` — exact for trigonometric
    polynomials of degree < M/2, which covers every pattern radiated by a
    compact source once M exceeds the usual ``2 kappa R`` rule of thumb.
    """
    m = pattern.directions.shape[0]
    if m == 0:
        raise DimensionMismatch("empty pattern")
    dens = np.abs(pattern.up_inf) ** 2 + np.sum(np.abs(pattern.us_inf) ** 2, axis=1)
    return float(np.sqrt(2.0 * np.pi / m * np.sum(dens)))


def make_nonradiating(domain: DomainGeometry, bump, medium: LameMedium,
                      mesh: QuadratureMesh):
    """Manufacture a source intensity with identically vanishing far field.

    Given a profile ``u`` that is C^2 and vanishes together with its gradient
    on the whole boundary, the intensity ``phi = L u + omega^2 u`` radiates
    nothing: the outgoing solution equals ``u`` inside the domain and zero
    outside, so the far field is identically zero.

    Returns ``(phi_field, u_exact)`` where ``phi_field`` samples the
    intensity on the mesh and ``u_exact(points)`` evaluates the interior
    profile (zero outside).  ``bump`` is a :class:`~elastoscat.bumps.Bump`:
    its analytic derivatives give the boundary check of ``u`` and its
    gradient, and the intensity in closed form.
    """
    bmesh: BoundaryMesh = boundary_mesh(domain, h=mesh.h)
    bvals = np.abs(bump.value(bmesh.nodes))
    scale = max(float(np.max(np.abs(bump.value(mesh.nodes)))), 1.0)
    if float(np.max(bvals)) > 1e-8 * scale:
        raise BumpNotVanishing(
            f"profile reaches {float(np.max(bvals)):.2e} on the boundary")
    bgrad = np.abs(bump.gradient(bmesh.nodes))
    if float(np.max(bgrad)) > 1e-8 * scale:
        raise BumpNotVanishing(
            f"profile gradient reaches {float(np.max(bgrad)):.2e} on the boundary")

    phi = np.asarray(bump.source_density(mesh.nodes, medium), dtype=complex)
    phi_field = SampledVectorField(nodes=mesh.nodes, values=phi,
                                   mesh_ref=mesh.mesh_id)

    def u_exact(points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        vals = np.zeros((pts.shape[0], 2), dtype=complex)
        mask = inside(domain, pts)
        if np.any(mask):
            vals[mask] = np.asarray(bump.value(pts[mask]), dtype=complex)
        return vals

    return phi_field, u_exact
