"""Fundamental solutions and far-field kernels.

Scalar Helmholtz fundamental solution (outgoing):

    n = 2:  Phi_k(x, y) = (i/4) * H0^(1)(k |x-y|)
    n = 3:  Phi_k(x, y) = exp(i k |x-y|) / (4 pi |x-y|)

Full elastic fundamental tensor (columns solve L G + omega^2 G = 0 away
from the pole):

    G(x, y) = Phi_ks(x, y)/mu * I + Hess_x[Phi_ks - Phi_kp](x, y) / omega^2.

Large-argument asymptotics give the far-field kernels

    pressure:  c_p * exp(-i kp xhat.y) * xhat xhat^T
    shear:     c_s * exp(-i ks xhat.y) * (I - xhat xhat^T)

with constants derived from the tensor's leading term:

    n = 2:  c_p = e^{i pi/4} sqrt(2/(pi kp)) / (4 (lam + 2 mu)),
            c_s = e^{i pi/4} sqrt(2/(pi ks)) / (4 mu)
    n = 3:  c_p = 1 / (4 pi (lam + 2 mu)),   c_s = 1 / (4 pi mu).

``scipy.special`` is imported inside the functions that call it, so that
only a 2-D kernel loads it.  The lower incomplete gamma function needs only
``math``: its power series below ``t = c + 1``, and the complete gamma minus
the upper function's continued fraction above (W. Gautschi, "A computational
procedure for incomplete gamma functions", ACM TOMS 5, 1979).
"""
from __future__ import annotations

import math

import numpy as np

from .elastic import LameMedium
from .errors import (
    CoincidentPoints,
    InvalidParameter,
    NonpositiveArgument,
    UnsupportedDimension,
)

EULER_GAMMA = float(np.euler_gamma)


# ---------------------------------------------------------------------------
# scalar special functions
# ---------------------------------------------------------------------------

def lower_incomplete_gamma(t: float, c: float) -> complex:
    """Lower incomplete gamma ``gamma(c, t) = int_0^t e^{-x} x^{c-1} dx``
    for real ``c > 0``, to a few units of round-off."""
    if t < 0.0 or not np.isfinite(t):
        raise NonpositiveArgument(f"t must be finite and >= 0, got {t}")
    c = complex(c)
    if c.imag != 0.0 or c.real <= 0.0:
        raise InvalidParameter(f"need real c > 0, got c = {c}")
    c, eps = c.real, np.finfo(float).eps
    try:
        if t < c + 1.0:
            # t^c e^{-t} sum_n t^n / (c (c+1) ... (c+n)), of positive terms
            term = total = 1.0 / c
            n = c
            while term > eps * total:
                n += 1.0
                term *= t / n
                total += term
            return complex(t ** c * math.exp(-t) * total)
        # Gamma(c) - t^c e^{-t} / (t + 1 - c - 1 (1 - c) / (t + 3 - c - ...)),
        # the continued fraction evaluated forward by the modified Lentz method
        tiny, b = 1e-300, t + 1.0 - c
        C, D, i = 1.0 / tiny, 1.0 / b, 0
        frac = D
        while abs(C * D - 1.0) > eps:
            i += 1
            a, b = -i * (i - c), b + 2.0
            D = 1.0 / ((a * D + b) or tiny)
            C = (b + a / C) or tiny
            frac *= C * D
        return complex(math.gamma(c) - math.exp(c * math.log(t) - t) * frac)
    except OverflowError:  # for c beyond about 171, where Gamma(c) leaves the floats
        return complex(math.inf)


def helmholtz_fundamental(x: np.ndarray, y: np.ndarray, kappa: float, dim: int) -> complex:
    """Outgoing scalar fundamental solution ``Phi_kappa(x, y)``."""
    if dim not in (2, 3):
        raise UnsupportedDimension(f"dim must be 2 or 3, got {dim}")
    if not kappa > 0:
        raise NonpositiveArgument(f"kappa must be positive, got {kappa}")
    r = float(np.linalg.norm(np.asarray(x, float) - np.asarray(y, float)))
    if not math.isfinite(r):
        raise InvalidParameter(f"|x - y| must be finite, got {r}")
    if r == 0.0:
        raise CoincidentPoints("x and y must be distinct")
    if dim == 2:
        from scipy.special import hankel1

        return 0.25j * complex(hankel1(0, kappa * r))
    return np.exp(1j * kappa * r) / (4.0 * np.pi * r)


# ---------------------------------------------------------------------------
# elastic fundamental tensor
# ---------------------------------------------------------------------------

def _phi_derivs(kappa: float, r, dim: int):
    """``Phi(r)``, ``Phi'(r)``, ``Phi''(r)`` for the scalar kernel, vectorized."""
    r = np.asarray(r, dtype=float)
    z = kappa * r
    if dim == 2:
        from scipy.special import hankel1

        h0 = hankel1(0, z)
        h1 = hankel1(1, z)
        phi = 0.25j * h0
        dphi = -0.25j * kappa * h1
        # H1'(z) = H0(z) - H1(z)/z
        ddphi = -0.25j * kappa ** 2 * (h0 - h1 / z)
        return phi, dphi, ddphi
    e = np.exp(1j * z) / (4.0 * np.pi)
    phi = e / r
    dphi = e * (1j * kappa * r - 1.0) / r ** 2
    ddphi = e * (-(kappa * r) ** 2 - 2j * kappa * r + 2.0) / r ** 3
    return phi, dphi, ddphi


def kupradze_tensor(x: np.ndarray, y: np.ndarray, medium: LameMedium) -> np.ndarray:
    """Elastic fundamental tensor ``G(x, y)`` as an (n, n) complex matrix."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = medium.dim
    if x.shape != (n,) or y.shape != (n,):
        raise UnsupportedDimension(f"points must have length {n}")
    d = x - y
    r = float(np.linalg.norm(d))
    if r == 0.0:
        raise CoincidentPoints("x and y must be distinct")
    return kupradze_batch(d[None, :], medium)[0]


def kupradze_batch(diffs: np.ndarray, medium: LameMedium) -> np.ndarray:
    """Vectorized ``G`` for an (N, n) array of differences ``x - y``.

    The scalar kernels depend on ``|x - y|`` alone, so they are evaluated
    once per distinct separation and indexed back: a lattice offset table
    repeats each radius at up to eight offsets.  ``hankel1`` and the
    arithmetic act elementwise, so the result has the bits of an evaluation
    at every row.  Non-finite separations raise ``InvalidParameter``.
    """
    n = medium.dim
    r = np.linalg.norm(diffs, axis=1)
    if not np.all(np.isfinite(r)):
        raise InvalidParameter("separations x - y must be finite")
    if np.any(r == 0.0):
        raise CoincidentPoints("zero separation in batch")
    e = diffs / r[:, None]
    radii, at = np.unique(r, return_inverse=True)
    ps, dps, dds = _phi_derivs(medium.kappa_s, radii, n)
    pp, dpp, ddp = _phi_derivs(medium.kappa_p, radii, n)
    # Hess phi = phi'' ee^T + (phi'/r)(I - ee^T), applied to phi_s - phi_p
    co_ee = (dds - ddp) - (dps - dpp) / radii
    co_id = (dps - dpp) / radii
    eye = np.eye(n)
    ee = e[:, :, None] * e[:, None, :]
    g = (ps / medium.mu + co_id / medium.omega ** 2)[at, None, None] * eye \
        + (co_ee / medium.omega ** 2)[at, None, None] * ee
    return g


def singular_cell_integral(medium: LameMedium, h: float) -> np.ndarray:
    """Integral of ``G(x, .)`` over the square cell of side ``h`` centered at x.

    Uses the small-argument expansion in 2-D,

        G = A ln r I + B ee^T + C I + O(r^2 ln r),
        A = -(1/mu + 1/(lam+2mu)) / (4 pi),
        B =  (1/mu - 1/(lam+2mu)) / (4 pi),
        C = a_s/(2 mu) + a_p/(2 (lam+2mu)) - B/2,
        a_k = i/4 - (ln(k/2) + euler_gamma) / (2 pi),

    with the closed forms  int_cell ln r = h^2 (ln h - ln2/2 + pi/4 - 3/2)
    and  int_cell ee^T = (h^2/2) I.  The dropped remainder integrates to
    O(h^4 ln h).
    """
    if medium.dim != 2:
        raise UnsupportedDimension("singular cell correction is 2-D only")
    lam, mu = medium.lam, medium.mu
    pmod = lam + 2.0 * mu
    A = -(1.0 / mu + 1.0 / pmod) / (4.0 * np.pi)
    B = (1.0 / mu - 1.0 / pmod) / (4.0 * np.pi)
    a_s = 0.25j - (math.log(medium.kappa_s / 2.0) + EULER_GAMMA) / (2.0 * np.pi)
    a_p = 0.25j - (math.log(medium.kappa_p / 2.0) + EULER_GAMMA) / (2.0 * np.pi)
    C = a_s / (2.0 * mu) + a_p / (2.0 * pmod) - B / 2.0
    int_log = h * h * (math.log(h) - 0.5 * math.log(2.0) + math.pi / 4.0 - 1.5)
    return (A * int_log + B * h * h / 2.0 + C * h * h) * np.eye(2)


# ---------------------------------------------------------------------------
# far-field kernels
# ---------------------------------------------------------------------------

def farfield_constants(medium: LameMedium) -> tuple:
    """Leading far-field amplitudes ``(c_p, c_s)`` of the fundamental tensor."""
    if medium.dim == 2:
        front = np.exp(1j * np.pi / 4.0) / 4.0
        cp = front * math.sqrt(2.0 / (np.pi * medium.kappa_p)) / medium.pressure_modulus
        cs = front * math.sqrt(2.0 / (np.pi * medium.kappa_s)) / medium.mu
        return complex(cp), complex(cs)
    return (1.0 / (4.0 * np.pi * medium.pressure_modulus) + 0.0j,
            1.0 / (4.0 * np.pi * medium.mu) + 0.0j)


def farfield_kernels(xhat: np.ndarray, y: np.ndarray, medium: LameMedium) -> tuple:
    """Far-field kernel pair at observation direction ``xhat`` and source point ``y``.

    Returns ``(p_scalar, s_matrix)``: the pressure contribution of a point
    load ``f`` is ``p_scalar * (xhat . f)`` along ``xhat`` and the shear
    contribution is ``s_matrix @ f`` (tangential).
    """
    xhat = np.asarray(xhat, dtype=float)
    n = medium.dim
    if xhat.shape != (n,):
        raise UnsupportedDimension(f"direction must have length {n}")
    nrm = np.linalg.norm(xhat)
    if abs(nrm - 1.0) > 1e-12:
        raise InvalidParameter(f"|xhat| = {nrm}, must be a unit vector")
    y = np.asarray(y, dtype=float)
    cp, cs = farfield_constants(medium)
    phase_p = np.exp(-1j * medium.kappa_p * float(np.dot(xhat, y)))
    phase_s = np.exp(-1j * medium.kappa_s * float(np.dot(xhat, y)))
    proj = np.eye(n) - np.outer(xhat, xhat)
    return cp * phase_p, cs * phase_s * proj


def farfield_kernels_batch(xhat: np.ndarray, ys: np.ndarray, medium: LameMedium) -> tuple:
    """Vectorized kernels: ``(p_scalars (N,), s_matrices (N, n, n))`` over source points."""
    cp, cs = farfield_constants(medium)
    dots = ys @ np.asarray(xhat, dtype=float)
    phase_p = cp * np.exp(-1j * medium.kappa_p * dots)
    phase_s = cs * np.exp(-1j * medium.kappa_s * dots)
    proj = np.eye(medium.dim) - np.outer(xhat, xhat)
    return phase_p, phase_s[:, None, None] * proj[None, :, :]
