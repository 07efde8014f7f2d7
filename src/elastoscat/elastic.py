"""Material parameters, traction operator, Holder seminorm, and norms.

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
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    DimensionMismatch,
    InsufficientSamples,
    InvalidExponent,
    InvalidFrequency,
    InvalidParameter,
    MeshMismatch,
    StrongConvexityViolated,
    UnsupportedDimension,
)

_UNIT_NORMAL_TOL = 1.0e-12
# Node pairs per block of holder_seminorm's scan: its index and difference
# arrays stay near 1.5 MiB whatever the number of nodes.
_PAIR_BLOCK = 1 << 13
# Most nodes in a leaf of holder_seminorm's kd-tree; at least 2 keeps every
# leaf nonempty.
_LEAF_SIZE = 4
# Relative inflation of holder_seminorm's node-pair bounds, far above the
# round-off of the per-pair ratio, so that no pruned pair can hold the max.
_BOUND_SLACK = 1.0e-12
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
    to the quadrature mesh it was sampled on (if any).
    """

    nodes: np.ndarray
    values: np.ndarray
    mesh_ref: Optional[str] = None

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
    """First-order data of a field, batched over leading axes: value ``u``
    and gradient ``G[..., i, j] = dj u_i``; ``traction`` reads the gradient."""

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
    kappa_p = omega / np.sqrt(lam + 2.0 * mu)
    kappa_s = omega / np.sqrt(mu)
    return LameMedium(lam=lam, mu=mu, omega=omega, dim=dim,
                      kappa_p=kappa_p, kappa_s=kappa_s)


def traction(jet: FieldJet, normal: np.ndarray, medium: LameMedium) -> np.ndarray:
    """Conormal derivative ``T u``, batched over the leading axes of the jet.

    ``jet.gradient[..., i, j]`` must hold ``dj u_i``.  ``normal`` must be a
    unit vector; the operator is linear in the jet for a fixed normal.
    """
    nu = np.asarray(normal, dtype=float)
    n = medium.dim
    if nu.shape != (n,):
        raise DimensionMismatch(f"normal has shape {nu.shape}, expected ({n},)")
    if abs(np.dot(nu, nu) - 1.0) > 100.0 * _UNIT_NORMAL_TOL:
        raise DimensionMismatch(f"normal must be unit length, |nu|^2 = {np.dot(nu, nu)}")
    grad = np.asarray(jet.gradient, dtype=complex)
    if grad.shape[-2:] != (n, n):
        raise DimensionMismatch(
            f"gradient has shape {grad.shape}, expected (..., {n}, {n})")

    dnu = grad @ nu                      # (nu . grad) u
    divu = np.trace(grad, axis1=-2, axis2=-1)[..., None]
    if n == 2:
        nu_perp = np.array([-nu[1], nu[0]])
        rot = (grad[..., 0, 1] - grad[..., 1, 0])[..., None]    # d2 u1 - d1 u2
        return 2.0 * medium.mu * dnu + medium.lam * nu * divu + medium.mu * nu_perp * rot
    curl = np.stack([grad[..., 2, 1] - grad[..., 1, 2],
                     grad[..., 0, 2] - grad[..., 2, 0],
                     grad[..., 1, 0] - grad[..., 0, 1]], axis=-1)
    return 2.0 * medium.mu * dnu + medium.lam * nu * divu + medium.mu * np.cross(nu, curl)


def holder_seminorm(fld: SampledVectorField, delta: float) -> float:
    """Holder seminorm ``max |phi(x)-phi(y)| / |x-y|^delta``: the exact
    maximum over all pairs of distinct sample points, found by
    bound-and-prune over a kd-tree of the nodes.

    For tree nodes A and B with mean values ``c``, value radii
    ``rho = max |u - c|`` and a gap ``dmin`` between their node boxes, every
    pair across them has ratio at most
    ``(|c_A - c_B| + rho_A + rho_B) / dmin^delta``, inflated by
    ``_BOUND_SLACK`` against round-off (infinite where the boxes touch).
    The best ratio starts from every pair within a leaf.  Pairs of tree
    nodes are then split one level at a time, from (root, root) down to
    pairs of leaves, and each one whose bound is at most the best ratio is
    dropped.  The surviving leaf pairs are visited in decreasing order of
    bound, in blocks of at most ``_PAIR_BLOCK`` (2^13) node pairs, until the
    bound falls to the best ratio found; a block's index, difference and
    ratio arrays take about 1.5 MiB.  Each visited node pair is evaluated by
    ``_max_pair_ratio``, so the result is the maximum of the same per-pair
    floats over a subset holding the argmax pair: equal, bit for bit, to
    the maximum over all pairs.
    """
    nodes, values = fld.nodes, fld.values
    _check_holder_exponent(delta, nodes.shape[1])
    if nodes.shape[0] < 2:
        raise InsufficientSamples("need at least two sample points")
    perm, levels = _kd_tree(nodes)
    sorted_nodes, sorted_vals = nodes[perm], values[perm]
    leaves = np.arange(levels[-1][0].size)
    best = _scan_leaf_pairs(nodes, values, perm, levels[-1], leaves, leaves,
                            np.full(leaves.size, np.inf), -np.inf, delta)
    a = b = np.zeros(1, dtype=np.intp)
    bound = np.full(1, np.inf)
    for starts, counts in levels[1:]:
        # the children of (a, b) pair up their halves; (a, a) has three
        a, b = 2 * a[:, None] + (0, 0, 1, 1), 2 * b[:, None] + (0, 1, 0, 1)
        a, b = a[a <= b], b[a <= b]
        bound = _pair_bounds(sorted_nodes, sorted_vals, starts, counts, a, b, delta)
        live = bound > best
        a, b, bound = a[live], b[live], bound[live]
    order = np.argsort(-bound, kind="stable")
    order = order[a[order] != b[order]]     # pairs within a leaf are done
    best = _scan_leaf_pairs(nodes, values, perm, levels[-1], a[order], b[order],
                            bound[order], best, delta)
    if best == -np.inf:
        raise InsufficientSamples("all pairs coincide")
    return float(best)


def _kd_tree(nodes: np.ndarray, leaf_pairs: int = 1 << 20):
    """Balanced kd-tree over the nodes: each level splits every tree node at
    half its size along the longer axis of its box, down to leaves of at
    most ``_LEAF_SIZE`` nodes, or fewer levels when the pairs of leaves
    would outnumber ``leaf_pairs``, which bounds the leaf-pair lists and
    their bounds.  The depth does not follow the scan block
    ``_PAIR_BLOCK``: a shallower tree prunes less.

    Returns ``(perm, levels)``: ``levels[l] = (starts, counts)`` lists the
    ``2**l`` tree nodes of depth ``l``, node ``t`` being ``nodes[perm]``
    from ``starts[t]`` with ``counts[t]`` nodes and its children being
    ``2 t`` and ``2 t + 1`` one level down.
    """
    n = nodes.shape[0]
    cap = (math.isqrt(8 * leaf_pairs + 1) - 1) // 2    # cap (cap + 1) / 2 <= pairs
    depth = min(((n - 1) // _LEAF_SIZE).bit_length(), cap.bit_length() - 1)
    perm = np.arange(n)
    starts, counts = np.zeros(1, dtype=np.intp), np.array([n])
    levels = [(starts, counts)]
    for _ in range(depth):
        pts = nodes[perm]
        seg = np.repeat(np.arange(starts.size), counts)
        axis = np.argmax(np.maximum.reduceat(pts, starts) - np.minimum.reduceat(pts, starts),
                         axis=1)
        perm = perm[np.lexsort((pts[np.arange(n), axis[seg]], seg))]
        half = counts // 2
        starts = np.column_stack((starts, starts + half)).ravel()
        counts = np.column_stack((half, counts - half)).ravel()
        levels.append((starts, counts))
    return perm, levels


def _pair_bounds(sorted_nodes: np.ndarray, sorted_vals: np.ndarray, starts: np.ndarray,
                 counts: np.ndarray, a: np.ndarray, b: np.ndarray, delta: float):
    """Bound of every node pair's ratio across the tree nodes ``a`` and
    ``b`` of one level (see ``holder_seminorm``)."""
    centre = np.add.reduceat(sorted_vals, starts, axis=0) / counts[:, None]
    radius = np.maximum.reduceat(np.linalg.norm(
        sorted_vals - np.repeat(centre, counts, axis=0), axis=1), starts)
    box_lo = np.minimum.reduceat(sorted_nodes, starts, axis=0)
    box_hi = np.maximum.reduceat(sorted_nodes, starts, axis=0)
    gap = np.maximum(np.maximum(box_lo[b] - box_hi[a], box_lo[a] - box_hi[b]), 0.0)
    dmin = np.linalg.norm(gap, axis=1)
    spread = np.linalg.norm(centre[a] - centre[b], axis=1) + radius[a] + radius[b]
    bound = np.full(a.size, np.inf)
    return np.divide(spread * (1.0 + _BOUND_SLACK), (dmin * (1.0 - _BOUND_SLACK)) ** delta,
                     out=bound, where=dmin > 0.0)


def _scan_leaf_pairs(nodes, values, perm, leaves, ca, cb, bound, best, delta):
    """Best ratio after visiting the node pairs across leaf pairs
    ``(ca, cb)``, listed by decreasing bound, in blocks of at most
    ``_PAIR_BLOCK``, until the bound falls to the best ratio; a leaf paired
    with itself gives each of its pairs once."""
    starts, counts = leaves
    first = np.concatenate(([0], np.cumsum(counts[ca] * counts[cb])))
    k0 = 0
    while True:     # bounds are sorted downwards: the live leaf pairs are a prefix
        stop = first[np.count_nonzero(bound > best)]
        if k0 >= stop:
            return best
        k1 = min(k0 + _PAIR_BLOCK, stop)
        k = np.arange(k0, k1)
        p = np.searchsorted(first, k, side="right") - 1
        ia, ib = np.divmod(k - first[p], counts[cb[p]])
        keep = (ca[p] != cb[p]) | (ia < ib)
        ii = perm[starts[ca[p]][keep] + ia[keep]]
        jj = perm[starts[cb[p]][keep] + ib[keep]]
        top = _max_pair_ratio(nodes, values, ii, jj, delta)
        if top is not None:
            best = max(best, top)
        k0 = k1


def _max_pair_ratio(nodes: np.ndarray, values: np.ndarray, ii: np.ndarray,
                    jj: np.ndarray, delta: float):
    """Largest ``|u_i - u_j| / |x_i - x_j|^delta`` over the index pairs
    ``(ii, jj)`` at positive distance; ``None`` if every pair coincides."""
    dist = np.linalg.norm(nodes[ii] - nodes[jj], axis=1)
    keep = dist > 0.0
    if not np.any(keep):
        return None
    ii, jj, dist = ii[keep], jj[keep], dist[keep]
    diff = np.linalg.norm(values[ii] - values[jj], axis=1)
    return float(np.max(diff / dist ** delta))


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
