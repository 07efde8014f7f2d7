"""Complex-geometrical-optics probes and the boundary-point integral identity.

For tau > kappa_s and an orthonormal pair ``(d, d_perp)`` the field

    u0(x) = eta exp(xi . x),
    xi  = tau d + i sqrt(kappa_s^2 + tau^2) d_perp,
    eta = -i sqrt(1 + kappa_s^2 / tau^2) d + d_perp,

is divergence free with ``xi . xi = -kappa_s^2`` and ``xi . eta = 0``, hence
an exact homogeneous solution decaying like ``exp(-tau d . x)`` against the
decay direction.  Tested against a graph region it yields the identity

    (phi(0) . eta) int_{x_n > K |x'|^2} e^{xi.x} dx = I1 + I2 + I3 + I4

whose four pieces (far tail, graph-vs-paraboloid mismatch, Taylor remainder,
lid boundary term) this module evaluates by semi-analytic quadrature, along
with closed forms and structural bounds for the model integrals involved.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bumps import Bump
from .elastic import FieldJet, GridSpec, LameMedium, _lame_stencil, traction
from .errors import (
    BoundaryConditionViolated,
    ExponentOutOfRange,
    GridTooCoarse,
    InvalidCurvatures,
    InvalidDirection,
    InvalidExponent,
    InvalidParameter,
    KTooSmall,
    NonDecaying,
    NonOrthonormalPair,
    NonpositiveArgument,
    NumericalValidationFailure,
    QuadratureBudgetExceeded,
    TauTooSmall,
    UnsupportedDimension,
)
from .geometry import Cap, DomainGeometry, _gauss_legendre, _graph_columns
from .greens import lower_incomplete_gamma

RESIDUAL_MIN_PPW = 12.0
# the points of the Gauss-Legendre rule on each _gl_panels panel
_PANEL_POINTS = 24
# paraboloid_integral_mc pools this many batch means into its standard error
_MC_BATCHES = 32


@dataclass(frozen=True)
class CgoProbe:
    """Exponentially decaying exact solution of the homogeneous system."""

    d: np.ndarray
    tau: float
    kappa_s: float
    xi: np.ndarray
    eta: np.ndarray
    dim: int

    def field(self, x, center=None):
        """``eta * exp(xi . (x - center))`` batched over leading axes."""
        x = np.asarray(x, dtype=float)
        if center is not None:
            x = x - np.asarray(center, dtype=float)
        phase = x @ self.xi
        return np.exp(phase)[..., None] * self.eta

    def jet(self, x) -> FieldJet:
        """Value and gradient, batched over leading axes like ``field``."""
        x = np.asarray(x, dtype=float)
        e = np.exp(x @ self.xi)
        val = e[..., None] * self.eta
        grad = e[..., None, None] * np.outer(self.eta, self.xi)   # d_j u_i = eta_i xi_j e
        return FieldJet(value=val, gradient=grad)


@dataclass
class IdentityBreakdown:
    """Term-by-term audit of the boundary-point integral identity."""

    lhs: complex
    i1: complex
    i2: complex
    i3: complex
    i4: complex
    residual_abs: float
    residual_rel: float
    K: float
    tau: float
    nodes_used: int


def make_cgo(d, d_perp, tau: float, medium: LameMedium) -> CgoProbe:
    """Build a probe from an orthonormal pair and decay parameter tau > kappa_s."""
    d = np.asarray(d, dtype=float)
    dp = np.asarray(d_perp, dtype=float)
    n = medium.dim
    if d.shape != (n,) or dp.shape != (n,):
        raise InvalidDirection(f"directions must have length {n}")
    if abs(d @ d - 1.0) > 1e-10 or abs(dp @ dp - 1.0) > 1e-10:
        raise NonOrthonormalPair("directions must be unit vectors")
    if abs(float(d @ dp)) > 1e-10:
        raise NonOrthonormalPair(f"|d . d_perp| = {abs(float(d @ dp)):.2e}")
    tau = float(tau)
    if not tau > medium.kappa_s:
        raise TauTooSmall(f"need tau > kappa_s = {medium.kappa_s}, got {tau}")
    s = math.sqrt(medium.kappa_s ** 2 + tau ** 2)
    xi = tau * d + 1j * s * dp
    eta = -1j * (s / tau) * d + dp.astype(complex)
    return CgoProbe(d=d, tau=tau, kappa_s=medium.kappa_s,
                    xi=xi, eta=eta, dim=n)


def probe_grid(probe: CgoProbe, spacing: float, points_per_side: int = 8,
               center=None) -> GridSpec:
    """Small verification grid centered near the origin."""
    n = probe.dim
    c = np.zeros(n) if center is None else np.asarray(center, dtype=float)
    half = spacing * (points_per_side - 1) / 2.0
    return GridSpec(origin=tuple(c - half), spacing=spacing,
                    shape=(points_per_side,) * n)


def cgo_residual(probe: CgoProbe, medium: LameMedium, grid: GridSpec) -> float:
    """Max relative finite-difference residual of ``L u0 + omega^2 u0``.

    Second-order centered stencils on the grid interior, normalized by
    ``tau^2 |u0|``; pure truncation error for a valid probe, O(1) for a
    corrupted one.  The grid must keep at least ``RESIDUAL_MIN_PPW`` points
    per oscillation period ``2 pi / sqrt(kappa_s^2 + tau^2)``.
    """
    n = probe.dim
    if medium.dim != n:
        raise UnsupportedDimension("probe and medium dimensions differ")
    h = grid.spacing
    osc = math.sqrt(probe.kappa_s ** 2 + probe.tau ** 2)
    ppw = 2.0 * math.pi / (h * osc)
    if ppw < RESIDUAL_MIN_PPW:
        raise GridTooCoarse(
            f"{ppw:.2f} points per oscillation period, need >= {RESIDUAL_MIN_PPW}")
    if min(grid.shape) < 3:
        raise GridTooCoarse("grid must have at least 3 points per axis")
    nodes = grid.nodes()
    center = nodes.mean(axis=0)
    span = probe.tau * float(np.max(np.abs((nodes - center) @ probe.d)))
    if span > 200.0:
        raise NumericalValidationFailure(
            f"dynamic range exp({span:.0f}) across grid; shrink the grid")
    U = probe.field(nodes, center=center).reshape(grid.shape + (n,))

    def shifted(o):
        return U[tuple(slice(1 + k, m - 1 + k) for k, m in zip(o, grid.shape))]

    res = _lame_stencil(shifted, medium, h, order=2)
    inner = tuple([slice(1, -1)] * n)
    denom = probe.tau ** 2 * np.linalg.norm(U[inner], axis=-1)
    return float(np.max(np.linalg.norm(res, axis=-1) / denom))


# ---------------------------------------------------------------------------
# model integrals
# ---------------------------------------------------------------------------

def _paraboloid_xi(xi, K: float, dim: int) -> np.ndarray:
    """Check the arguments the two paraboloid integrals share; ``xi`` as complex."""
    if dim not in (2, 3):
        raise UnsupportedDimension(f"dim must be 2 or 3, got {dim}")
    if not 0.0 < K < math.inf:
        raise InvalidParameter(f"K must be positive and finite, got {K}")
    xi = np.asarray(xi, dtype=complex)
    if xi.shape != (dim,):
        raise InvalidParameter(f"xi must have length {dim}")
    if not np.all(np.isfinite(xi)):
        raise InvalidParameter(f"xi must be finite, got {xi}")
    if not xi[-1].real < 0.0:
        raise NonDecaying(f"need Re(xi_n) < 0, got {xi[-1].real}")
    return xi


def paraboloid_integral_closed(xi: np.ndarray, K: float, dim: int) -> complex:
    """``int_{x_n > K |x'|^2} exp(xi . x) dx`` in closed form.

    Equals ``-(1/xi_n) (pi / (-xi_n K))^{(n-1)/2} exp(-xi'.xi' / (4 xi_n K))``
    and requires ``Re(xi_n) < 0`` for convergence.
    """
    xi = _paraboloid_xi(xi, K, dim)
    xin = complex(xi[-1])
    xprime_sq = complex(np.sum(xi[:-1] * xi[:-1]))
    power = (np.pi / (-xin * K)) ** ((dim - 1) / 2.0)
    return complex(-(1.0 / xin) * power * np.exp(-xprime_sq / (4.0 * xin * K)))


def _nonzero_dot(coef, rad, trigs):
    """``sum_j (coef[j] rad) trigs[j]`` over the nonzero ``coef``; None if all are 0."""
    terms = [c * rad * trig for c, trig in zip(coef, trigs) if c]
    return sum(terms[1:], terms[0]) if terms else None


def paraboloid_integral_mc(xi: np.ndarray, K: float, dim: int,
                           samples: int = 200_000, seed: int = 0) -> tuple:
    """Monte-Carlo estimate of the paraboloid-region integral.

    Validation oracle for :func:`paraboloid_integral_closed`, algorithmically
    independent of it.  The decay coordinate t is importance-sampled with the
    exponential density matching the integrand's modulus; the transversal
    coordinate is drawn uniformly on the slice through each sample, with
    antithetic pairing to cancel the odd part of the oscillation.  Returns
    ``(estimate, stderr)`` where the standard error pools per-batch means, so
    ``|estimate - closed|`` should sit within a few stderr.

    The samples form 32 batches of ``samples // 32`` draws, so up to 31 of
    ``samples`` are never drawn.  Each batch runs in real arithmetic: with
    ``A = Re xi' . x'``, ``B = Im xi' . x'`` and ``b_n = Im xi_n`` it averages
    ``(vol / rate) (cosh A cos B + i sinh A sin B) e^{i b_n t}``, where vol is
    the slice measure and ``rate = -Re xi_n``.  Terms whose xi coefficient is
    exactly 0 are skipped, since they only add +-0.
    """
    xi = _paraboloid_xi(xi, K, dim)
    if not isinstance(samples, (int, np.integer)):
        raise InvalidParameter(f"samples must be an integer, got {samples!r}")
    if samples < 2 * _MC_BATCHES:
        raise InvalidParameter(f"need at least {2 * _MC_BATCHES} samples, two per batch")
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise InvalidParameter(f"seed must be a non-negative integer, got {seed!r}")
    rng = np.random.default_rng(seed)
    rate = -xi[-1].real
    bn = xi[-1].imag
    per = samples // _MC_BATCHES
    means = np.empty(_MC_BATCHES, dtype=complex)
    # each batch is averaged as one complex array, so its sum runs in numpy's
    # pairwise order for complex data, as the mean of the complex integrand does
    batch = np.zeros(per, dtype=complex)
    for bi in range(_MC_BATCHES):
        t = rng.exponential(1.0 / rate, size=per)
        r = np.sqrt(t / K)
        if dim == 2:
            xp = r * (2.0 * rng.random(per) - 1.0)
            vol = 2.0 * r
            A, B = (c * xp if c else None for c in (xi[0].real, xi[0].imag))
        else:
            rad = r * np.sqrt(rng.random(per))
            ang = 2.0 * np.pi * rng.random(per)
            vol = np.pi * r ** 2
            trigs = [f(ang) if c else None for c, f in zip(xi[:-1], (np.cos, np.sin))]
            A, B = (_nonzero_dot(coef, rad, trigs) for coef in (xi[:-1].real, xi[:-1].imag))
        # modulus of exp(xi_n t) cancels against the sampling density
        amp = vol * (1.0 / rate)
        re = amp if A is None else amp * np.cosh(A)
        im = None if A is None or B is None else amp * np.sinh(A) * np.sin(B)
        if B is not None:
            re = re * np.cos(B)
        if bn:
            c, s = np.cos(bn * t), np.sin(bn * t)
            re, im = (re * c, re * s) if im is None else (re * c - im * s, re * s + im * c)
        batch.real = re
        if im is not None:
            batch.imag = im
        means[bi] = batch.mean()
    est = complex(means.mean())
    stderr = float(np.sqrt((np.var(means.real) + np.var(means.imag)) / _MC_BATCHES))
    return est, stderr


def shell_integral(k_minus: float, k_plus: float, tau: float, b: float,
                   dim: int) -> float:
    """``int_{shell} e^{-tau x_n} dx`` between two paraboloids, below the lid.

    Shell = region between ``x_n = K_minus |x'|^2`` and ``x_n = K_plus |x'|^2``
    truncated at height b.  Closed form:

        sigma(S^{n-2})/(n-1) * (K_-^{-(n-1)/2} - K_+^{-(n-1)/2})
            * tau^{-(n+1)/2} * gamma_lower(tau b, (n+1)/2),

    with sigma(S^0) = 2, sigma(S^1) = 2 pi.
    """
    if dim not in (2, 3):
        raise UnsupportedDimension(f"dim must be 2 or 3, got {dim}")
    if not (0.0 < k_minus <= k_plus):
        raise InvalidCurvatures(f"need 0 < K_minus <= K_plus, got {k_minus}, {k_plus}")
    if not (tau > 0.0 and b > 0.0):
        raise NonpositiveArgument(f"tau, b must be positive, got {tau}, {b}")
    sigma = 2.0 if dim == 2 else 2.0 * np.pi
    expo = (dim - 1) / 2.0
    glow = lower_incomplete_gamma(tau * b, (dim + 1) / 2.0).real
    return (sigma / (dim - 1)) * (k_minus ** (-expo) - k_plus ** (-expo)) \
        * tau ** (-(dim + 1) / 2.0) * glow


def tail_and_holder_bounds(tau: float, b: float, K: float, alpha: float,
                           dim: int) -> tuple:
    """Structural bounds (constants 1) for the two model error integrals.

        tail:   int_{paraboloid above the lid} e^{-tau x_n}
                <=  (1 + (tau b)^{(n-1)/2}) tau^{-(n+1)/2} K^{-(n-1)/2} e^{-tau b}
        holder: int_{below the lid} e^{-tau x_n} |x|^alpha
                <=  (b + 1/K)^{alpha/2} b^{(n+alpha+1)/2} K^{-(n-1)/2}

    Multiplicative constants are deliberately set to one here; calibration
    against measured integrals fits them per sweep.
    """
    if dim not in (2, 3):
        raise UnsupportedDimension(f"dim must be 2 or 3, got {dim}")
    if not (tau > 0.0 and b > 0.0 and K > 0.0):
        raise NonpositiveArgument(f"tau, b, K must be positive, got {tau}, {b}, {K}")
    if not (0.0 < alpha <= 1.0):
        raise InvalidExponent(f"alpha must lie in (0, 1], got {alpha}")
    expo = (dim - 1) / 2.0
    tail = (1.0 + (tau * b) ** expo) * tau ** (-(dim + 1) / 2.0) \
        * K ** (-expo) * math.exp(-tau * b)
    holder = (b + 1.0 / K) ** (alpha / 2.0) * b ** ((dim + alpha + 1) / 2.0) \
        * K ** (-expo)
    return tail, holder


def select_tau(K: float, zeta: float) -> float:
    """Decay parameter ``tau = 4 K ln(K^zeta)``, strictly increasing in both args."""
    if not K >= math.e:
        raise KTooSmall(f"need K >= e, got {K}")
    if not zeta > 0.0:
        raise InvalidParameter(f"zeta must be positive, got {zeta}")
    return 4.0 * K * zeta * math.log(K)


def zeta_default(alpha: float, varsigma: float, dim: int) -> float:
    """Exponent choice matching the bound evaluators' decay rates."""
    m = min(alpha, varsigma)
    if dim == 2:
        if not (0.0 < alpha and 0.0 < varsigma and m <= 1.0):
            raise ExponentOutOfRange(
                f"need min(alpha, varsigma) in (0, 1], got {alpha}, {varsigma}")
        return 0.5 * m
    if dim == 3:
        if not (1.0 / 3.0 < alpha and 1.0 / 3.0 < varsigma and m < 1.0):
            raise ExponentOutOfRange(
                f"need min(alpha, varsigma) in (1/3, 1), got {alpha}, {varsigma}")
        return 0.5 * m + 1.0 / 6.0
    raise UnsupportedDimension(f"dim must be 2 or 3, got {dim}")


# ---------------------------------------------------------------------------
# integral identity
# ---------------------------------------------------------------------------

def _gl_panels(a: float, bnd: float, osc: float, min_panels: int = 2,
               factor: float = 1.0):
    """Composite Gauss-Legendre nodes/weights resolving oscillation ``osc``,
    ``_PANEL_POINTS`` nodes on each panel."""
    length = bnd - a
    periods = osc * length / (2.0 * math.pi)
    n_pan = max(int(math.ceil(min_panels * factor)),
                int(math.ceil(2.0 * periods * factor)))
    xg, wg = _gauss_legendre(_PANEL_POINTS)
    edges = np.linspace(a, bnd, n_pan + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    xs = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    ws = (half[:, None] * wg[None, :]).ravel()
    return xs, ws


def _gl_cuts(cuts, osc: float, factor: float):
    """``_gl_panels`` over each pair of consecutive ``cuts``, joined."""
    xs, ws = zip(*(_gl_panels(a, bnd, osc, factor=factor)
                   for a, bnd in zip(cuts[:-1], cuts[1:])))
    return np.concatenate(xs), np.concatenate(ws)


def _column_integral(xi2: complex, lo, hi):
    """``int_lo^hi e^{xi2 t} dt`` elementwise, clamped to zero when lo >= hi."""
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float),
                                 np.asarray(hi, dtype=float))
    live = lo < hi
    out = np.zeros(lo.shape, dtype=complex)
    out[live] = (np.exp(xi2 * hi[live]) - np.exp(xi2 * lo[live])) / xi2
    return out


def integral_identity_check(domain: DomainGeometry, bump: Bump, probe: CgoProbe,
                            medium: LameMedium, node_budget: int = 2_000_000,
                            refine: float = 1.0) -> IdentityBreakdown:
    """Audit the four-term identity on a cap domain.

    The cap must sit in the canonical frame (contact point at the origin,
    lid above) and the probe must decay upward, i.e. ``d = (0, -1)``.  The
    bump must have vanishing displacement and traction on the graph part of
    the boundary; the lid is live and feeds the boundary term I4.  ``refine``
    scales every quadrature density simultaneously; the residual is pure
    quadrature error, so it decreases (at least first order) as this grows.
    """
    if refine <= 0.0:
        raise InvalidParameter(f"refine must be positive, got {refine}")
    if domain.dim != 2:
        raise UnsupportedDimension("identity check is 2-D")
    comp = domain.shape
    if not isinstance(comp, Cap):
        raise UnsupportedDimension("identity check needs a cap domain")
    if np.linalg.norm(comp.center) > 0.0:
        raise InvalidDirection("cap must sit at the origin in the canonical frame")
    if np.linalg.norm(probe.d - np.array([0.0, -1.0])) > 1e-12:
        raise InvalidDirection("probe must decay upward: d = (0, -1)")

    K = comp.chart.K
    b = comp.chart.b
    w_cap = comp.x1max
    gamma = comp.chart.graph.gamma
    w0 = math.sqrt(b / K)
    xi = probe.xi
    xi1, xi2 = complex(xi[0]), complex(xi[1])
    tau = probe.tau
    osc = math.sqrt(probe.kappa_s ** 2 + tau ** 2)

    # boundary-condition audit on the graph
    ts = np.linspace(-w_cap, w_cap, 101)
    gpts = np.stack([ts, gamma(ts)], axis=1)
    uvals = bump.value(gpts)
    scale = float(np.max(np.abs(bump.value(
        np.stack([ts, np.full_like(ts, b)], axis=1))))) + 1e-300
    if float(np.max(np.abs(uvals))) > 1e-9 * max(scale, 1e-12):
        raise BoundaryConditionViolated("bump does not vanish on the graph")
    gr = bump.gradient(gpts)
    if float(np.max(np.abs(gr))) > 1e-9 * max(scale / max(b, 1e-12), 1e-12):
        raise BoundaryConditionViolated("bump gradient does not vanish on the graph")

    phi0 = bump.source_density(np.zeros(2), medium)
    front = complex(phi0 @ probe.eta)

    lhs = front * paraboloid_integral_closed(xi, K, 2)

    # I1: above the lid; int_b^inf e^{xi2 t} dt = -e^{xi2 b}/xi2 since Re xi2 < 0
    col_top = -np.exp(xi2 * b) / xi2
    strip = complex((np.exp(xi1 * w0) - np.exp(-xi1 * w0)) / xi1)
    x_far = math.sqrt(max(80.0 / (tau * K), 0.0)) + w0
    xs, ws = _gl_panels(w0, x_far, osc, factor=refine)
    wing = np.sum(ws * np.exp(xi1 * xs) * (-np.exp(xi2 * K * xs ** 2) / xi2))
    wing += np.sum(ws * np.exp(-xi1 * xs) * (-np.exp(xi2 * K * xs ** 2) / xi2))
    i1 = front * (strip * col_top + wing)

    # I2: paraboloid-below-lid minus cap, shared x1 nodes; cut at 0 so the
    # C^2 kink of the cubic graph term sits on a panel edge
    wmax = max(w0, w_cap)
    xs2, ws2 = _gl_cuts(sorted({-wmax, -min(w0, w_cap), 0.0, min(w0, w_cap), wmax}),
                        osc, refine)
    col_parab = _column_integral(xi2, np.minimum(K * xs2 ** 2, b), b)
    col_cap = _column_integral(xi2, np.minimum(gamma(xs2), b), b)
    i2 = front * np.sum(ws2 * np.exp(xi1 * xs2) * (col_parab - col_cap))

    # I3: -int_cap u0 . (phi(x) - phi(0)); its x1 rule over the lid width,
    # split at 0, is also the rule of I4
    xs3, ws3 = _gl_cuts((-w_cap, 0.0, w_cap), osc, refine)
    pts, wsy, _ = _graph_columns(gamma, b, xs3, ws3, int(math.ceil(32 * refine)))
    nodes_used = wsy.size + xs2.size + xs.size
    if nodes_used > node_budget:
        raise QuadratureBudgetExceeded(f"{nodes_used} nodes exceed budget {node_budget}")
    flat = pts.reshape(-1, 2)
    u0 = probe.field(flat)
    dphi = bump.source_density(flat, medium) - phi0
    integrand = np.sum(u0 * dphi, axis=-1).reshape(wsy.shape)
    i3 = -complex(np.sum(wsy * integrand))

    # I4: lid boundary term with outward normal (0, 1), over all lid nodes
    nu = np.array([0.0, 1.0])
    lid_pts = np.stack([xs3, np.full_like(xs3, b)], axis=1)
    jet_u = bump.jet(lid_pts)
    jet_0 = probe.jet(lid_pts)
    t_u = traction(jet_u, nu, medium)
    t_0 = traction(jet_0, nu, medium)
    vals = np.sum(jet_0.value * t_u, axis=-1) - np.sum(jet_u.value * t_0, axis=-1)
    i4 = complex(np.sum(ws3 * vals))

    total = i1 + i2 + i3 + i4
    res = abs(lhs - total)
    rel = res / max(abs(lhs), 1e-300)
    return IdentityBreakdown(lhs=lhs, i1=i1, i2=i2, i3=i3, i4=i4,
                             residual_abs=float(res), residual_rel=float(rel),
                             K=K, tau=tau, nodes_used=int(nodes_used))


def boundary_term_bound(tau: float, b: float, K: float, beta: float,
                        c1beta_norm: float, dim: int = 2) -> float:
    """Structural bound (constant 1) for the lid boundary term:

        |I4| <= e^{-tau b} K^{-(beta + (n+1)/2)} (K + tau) * ||u||_{C^{1,beta}}.
    """
    if not (tau > 0.0 and b > 0.0 and K > 0.0):
        raise NonpositiveArgument(f"tau, b, K must be positive, got {tau}, {b}, {K}")
    if not (0.0 < beta <= 1.0):
        raise InvalidExponent(f"beta must lie in (0, 1], got {beta}")
    return math.exp(-tau * b) * K ** (-(beta + (dim + 1) / 2.0)) * (K + tau) \
        * c1beta_norm

