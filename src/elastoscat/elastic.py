"""Material parameters, traction operator, wave-mode splitting, and norms.

The displacement field of a homogeneous isotropic solid at angular frequency
``omega`` satisfies

    mu * Lap(u) + (lam + mu) * grad(div u) + omega^2 * u = f,

with strong convexity ``mu > 0`` and ``n*lam + 2*mu > 0``.  The two wave
speeds give the pressure and shear wavenumbers

    kappa_p = omega / sqrt(lam + 2*mu),   kappa_s = omega / sqrt(mu),

so ``kappa_p < kappa_s`` always.  The conormal (traction) derivative on a
surface with unit normal ``nu`` is

    n = 2:  T u = 2*mu * du/dnu + lam * nu * div(u)
                  + mu * nu_perp * (d1 u2 - d2 u1),     nu_perp = (-nu2, nu1)
    n = 3:  T u = 2*mu * du/dnu + lam * nu * div(u) + mu * nu x curl(u).
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    DimensionMismatch,
    GridTooCoarse,
    InsufficientSamples,
    InvalidExponent,
    InvalidFrequency,
    InvalidParameter,
    MeshMismatch,
    StrongConvexityViolated,
    UnsupportedDimension,
)

# Minimum points per shear wavelength for difference-based mode splitting.
SPLIT_MIN_PPW = 10.0
_UNIT_NORMAL_TOL = 1.0e-12
# Candidate pairs per block of holder_seminorm; bounds its index and
# difference arrays whatever the number of nodes.
_PAIR_BLOCK = 1 << 20
# Fourth-order first-difference weights, times -12 h: the mixed second
# derivative of order 4 is their tensor product over 144 h^2.
_FD4_FIRST = ((2, 1.0), (1, -8.0), (-1, 8.0), (-2, -1.0))


@dataclass(frozen=True)
class LameMedium:
    """Homogeneous isotropic background with frequency baked in."""

    lam: float
    mu: float
    omega: float
    dim: int
    kappa_p: float
    kappa_s: float

    @property
    def pressure_modulus(self) -> float:
        return self.lam + 2.0 * self.mu


@dataclass(frozen=True)
class GridSpec:
    """Regular Cartesian grid: ``node[i,j] = origin + (i*h, j*h)``."""

    origin: tuple
    spacing: float
    shape: tuple

    def nodes(self) -> np.ndarray:
        axes = [self.origin[k] + self.spacing * np.arange(self.shape[k])
                for k in range(len(self.shape))]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)


@dataclass
class SampledVectorField:
    """Complex vector field sampled at explicit points.

    ``values[k]`` is the field at ``nodes[k]``.  ``mesh_ref`` ties the field
    to the quadrature mesh it was sampled on (if any); ``grid`` is set when
    the nodes form a regular Cartesian grid.
    """

    nodes: np.ndarray
    values: np.ndarray
    mesh_ref: Optional[str] = None
    grid: Optional[GridSpec] = None

    def __post_init__(self) -> None:
        self.nodes = np.asarray(self.nodes, dtype=float)
        self.values = np.asarray(self.values, dtype=complex)
        if self.nodes.ndim != 2:
            raise DimensionMismatch("nodes must be an (N, n) array")
        if self.values.shape[0] != self.nodes.shape[0]:
            raise DimensionMismatch(
                f"{self.values.shape[0]} values for {self.nodes.shape[0]} nodes")
        if not np.all(np.isfinite(self.nodes)):
            raise DimensionMismatch("nodes contain non-finite entries")
        if not np.all(np.isfinite(self.values)):
            raise DimensionMismatch("values contain non-finite entries")


@dataclass(frozen=True)
class FieldJet:
    """Pointwise first-order data: value ``u(x)`` and gradient ``G[i, j] = dj u_i``."""

    point: np.ndarray
    value: np.ndarray
    gradient: np.ndarray


def make_medium(lam: float, mu: float, omega: float, dim: int) -> LameMedium:
    """Validate moduli and frequency, derive the two wavenumbers.

    Raises
    ------
    StrongConvexityViolated
        if ``mu <= 0`` or ``dim*lam + 2*mu <= 0``.
    InvalidFrequency
        if ``omega`` is not a positive real number.
    UnsupportedDimension
        if ``dim`` is not 2 or 3.
    """
    if dim not in (2, 3):
        raise UnsupportedDimension(f"dim must be 2 or 3, got {dim}")
    lam = float(lam)
    mu = float(mu)
    if not (np.isfinite(lam) and np.isfinite(mu)):
        raise StrongConvexityViolated("moduli must be finite")
    if mu <= 0.0 or dim * lam + 2.0 * mu <= 0.0:
        raise StrongConvexityViolated(
            f"need mu > 0 and {dim}*lam + 2*mu > 0, got lam={lam}, mu={mu}")
    if isinstance(omega, complex) or not np.isfinite(omega) or omega <= 0.0:
        raise InvalidFrequency(f"omega must be real and positive, got {omega!r}")
    omega = float(omega)
    # lam + 2*mu = (n*lam + 2*mu) - (n-1)*lam can still be <= 0 only if lam < 0
    # beyond convexity; guard explicitly for the pressure speed.
    if lam + 2.0 * mu <= 0.0:
        raise StrongConvexityViolated(f"lam + 2*mu must be positive, got {lam + 2 * mu}")
    kappa_p = omega / np.sqrt(lam + 2.0 * mu)
    kappa_s = omega / np.sqrt(mu)
    return LameMedium(lam=lam, mu=mu, omega=omega, dim=dim,
                      kappa_p=kappa_p, kappa_s=kappa_s)


def traction(jet: FieldJet, normal: np.ndarray, medium: LameMedium) -> np.ndarray:
    """Conormal derivative ``T u`` at a single point.

    ``jet.gradient[i, j]`` must hold ``dj u_i``.  ``normal`` must be a unit
    vector; the operator is linear in the jet for a fixed normal.
    """
    nu = np.asarray(normal, dtype=float)
    n = medium.dim
    if nu.shape != (n,):
        raise DimensionMismatch(f"normal has shape {nu.shape}, expected ({n},)")
    if abs(np.dot(nu, nu) - 1.0) > 100.0 * _UNIT_NORMAL_TOL:
        raise DimensionMismatch(f"normal must be unit length, |nu|^2 = {np.dot(nu, nu)}")
    grad = np.asarray(jet.gradient, dtype=complex)
    if grad.shape != (n, n):
        raise DimensionMismatch(f"gradient has shape {grad.shape}, expected ({n}, {n})")

    dnu = grad @ nu                      # (nu . grad) u
    divu = np.trace(grad)
    if n == 2:
        nu_perp = np.array([-nu[1], nu[0]])
        rot = grad[0, 1] - grad[1, 0]    # d2 u1 - d1 u2
        return 2.0 * medium.mu * dnu + medium.lam * nu * divu + medium.mu * nu_perp * rot
    curl = np.array([grad[2, 1] - grad[1, 2],
                     grad[0, 2] - grad[2, 0],
                     grad[1, 0] - grad[0, 1]])
    return 2.0 * medium.mu * dnu + medium.lam * nu * divu + medium.mu * np.cross(nu, curl)


def _grid_values(fld: SampledVectorField) -> np.ndarray:
    """Reshape flat values to (n1, n2, dim) using the attached grid."""
    g = fld.grid
    n1, n2 = g.shape
    return fld.values.reshape(n1, n2, -1)


def helmholtz_split(fld: SampledVectorField, medium: LameMedium):
    """Split a grid-sampled field into pressure and shear parts.

    Second-order centered differences of

        u_p = -kappa_p^{-2} grad(div u),
        u_s =  kappa_s^{-2} curl curl u      (2-D scalar-curl convention),

    returned on the grid interior (one layer trimmed per derivative pass,
    two layers total).  Requires at least ``SPLIT_MIN_PPW`` points per shear
    wavelength.
    """
    if medium.dim != 2:
        raise UnsupportedDimension("mode splitting implemented for dim=2 only")
    if fld.grid is None:
        raise MeshMismatch("helmholtz_split needs a field with regular grid metadata")
    h = fld.grid.spacing
    ppw = 2.0 * np.pi / (medium.kappa_s * h)
    if ppw < SPLIT_MIN_PPW:
        raise GridTooCoarse(
            f"{ppw:.2f} points per shear wavelength, need >= {SPLIT_MIN_PPW}")
    n1, n2 = fld.grid.shape
    if n1 < 5 or n2 < 5:
        raise GridTooCoarse("grid must be at least 5x5 for interior second differences")

    u = _grid_values(fld)                # (n1, n2, 2)

    def d1(a):
        return (a[2:, 1:-1] - a[:-2, 1:-1]) / (2.0 * h)

    def d2(a):
        return (a[1:-1, 2:] - a[1:-1, :-2]) / (2.0 * h)

    # First pass: div and scalar curl on interior(1).
    div_u = d1(u[:, :, 0]) + d2(u[:, :, 1])
    curl_u = d1(u[:, :, 1]) - d2(u[:, :, 0])
    # Second pass: grad(div) and vector-curl(curl) on interior(2).
    up = np.stack([-d1(div_u) / medium.kappa_p ** 2,
                   -d2(div_u) / medium.kappa_p ** 2], axis=-1)
    us = np.stack([d2(curl_u) / medium.kappa_s ** 2,
                   -d1(curl_u) / medium.kappa_s ** 2], axis=-1)

    g = fld.grid
    inner = GridSpec(origin=(g.origin[0] + 2 * h, g.origin[1] + 2 * h),
                     spacing=h, shape=(n1 - 4, n2 - 4))
    nodes = inner.nodes()
    ref = fld.mesh_ref
    u_p = SampledVectorField(nodes, up.reshape(-1, 2), mesh_ref=ref, grid=inner)
    u_s = SampledVectorField(nodes, us.reshape(-1, 2), mesh_ref=ref, grid=inner)
    return u_p, u_s


def holder_seminorm(fld: SampledVectorField, delta: float) -> float:
    """Holder seminorm ``max |phi(x)-phi(y)| / |x-y|^delta``, exact over all
    pairs of distinct sample points, taken one block of rows at a time."""
    _check_holder_exponent(delta, fld.nodes.shape[1])
    n = fld.nodes.shape[0]
    if n < 2:
        raise InsufficientSamples("need at least two sample points")
    step = max(1, _PAIR_BLOCK // n)
    tops = []
    for start in range(0, n - 1, step):
        rows = np.arange(start, min(start + step, n))
        ii, jj = np.nonzero(rows[:, None] < np.arange(n))   # j > i
        ii += start
        dist = np.linalg.norm(fld.nodes[ii] - fld.nodes[jj], axis=1)
        keep = dist > 0.0
        if not np.any(keep):
            continue
        ii, jj, dist = ii[keep], jj[keep], dist[keep]
        diff = np.linalg.norm(fld.values[ii] - fld.values[jj], axis=1)
        tops.append(float(np.max(diff / dist ** delta)))
    if not tops:
        raise InsufficientSamples("all pairs coincide")
    return max(tops)


def field_norms(fld: SampledVectorField, mesh) -> tuple:
    """Discrete ``(L2, Linf)`` norms of a field against its mesh weights."""
    if fld.mesh_ref is not None and fld.mesh_ref != mesh.mesh_id:
        raise MeshMismatch(f"field sampled on {fld.mesh_ref}, mesh is {mesh.mesh_id}")
    if fld.values.shape[0] != mesh.weights.shape[0]:
        raise MeshMismatch(
            f"{fld.values.shape[0]} samples vs {mesh.weights.shape[0]} weights")
    sq = np.sum(np.abs(fld.values) ** 2, axis=1)
    l2 = float(np.sqrt(np.sum(mesh.weights * sq)))
    linf = float(np.sqrt(np.max(sq))) if sq.size else 0.0
    return l2, linf


def _check_holder_exponent(delta: float, dim: int) -> None:
    hi = 1.0 if dim <= 2 else 0.5
    if not (0.0 < delta <= hi):
        raise InvalidExponent(
            f"Holder exponent must lie in (0, {hi}] for dim={dim}, got {delta}")


def _lame_stencil(shifted, medium: LameMedium, step: float, order: int):
    """Centered differences of ``mu Lap u + (lam + mu) grad div u + omega^2 u``.

    ``shifted(o)`` returns the field, shape ``(..., n)``, at the integer
    offset ``o`` (in units of ``step``) from every evaluation point.  Order 2
    reaches one step along and across the axes, order 4 two steps; a NaN
    neighbour makes that point's result NaN.
    """
    n = medium.dim

    def at(*moves):
        o = [0] * n
        for axis, count in moves:
            o[axis] += count
        return shifted(tuple(o))

    def second(i, j):
        if i == j:
            if order == 2:
                return (at((i, 1)) - 2.0 * at() + at((i, -1))) / step ** 2
            return (-at((i, 2)) + 16.0 * at((i, 1)) - 30.0 * at()
                    + 16.0 * at((i, -1)) - at((i, -2))) / (12.0 * step ** 2)
        if order == 2:
            return (at((i, 1), (j, 1)) - at((i, 1), (j, -1))
                    - at((i, -1), (j, 1)) + at((i, -1), (j, -1))) / (4.0 * step ** 2)
        val = 0j
        for a, ca in _FD4_FIRST:
            for b, cb in _FD4_FIRST:
                val = val + ca * cb * np.asarray(at((i, a), (j, b)), dtype=complex)
        return val / (144.0 * step ** 2)

    lap = sum(second(i, i) for i in range(n))
    # grad(div u)_k = sum_j d_k d_j u_j
    grad_div = np.stack([sum(second(k, j)[..., j] for j in range(n))
                         for k in range(n)], axis=-1)
    u0 = np.asarray(at(), dtype=complex)
    return medium.mu * lap + (medium.lam + medium.mu) * grad_div + medium.omega ** 2 * u0


def lame_operator_fd(u_callable, x: np.ndarray, medium: LameMedium,
                     step: float, order: int = 4) -> np.ndarray:
    """Finite-difference ``L u + omega^2 u`` at the points ``x``, shape ``(..., n)``.

    ``u_callable`` maps points of shape ``(..., n)`` to complex vectors of
    the same shape; stencils are centered of the requested order (2 or 4).
    Used by residual self-checks and by source generators that lack
    analytic derivatives.  Any other ``order`` raises ``InvalidParameter``.
    """
    if order not in (2, 4):
        raise InvalidParameter(f"finite-difference order must be 2 or 4, got {order!r}")
    x = np.asarray(x, dtype=float)

    return _lame_stencil(lambda o: u_callable(x + step * np.asarray(o)),
                         medium, step, order)


def content_id(*arrays: np.ndarray) -> str:
    """Deterministic short digest of array contents, used to tie fields to meshes."""
    hasher = hashlib.sha256()
    for a in arrays:
        hasher.update(np.ascontiguousarray(a).tobytes())
        hasher.update(str(a.shape).encode())
    return hasher.hexdigest()[:16]
