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

The module needs NumPy and ``math`` alone.  The Hankel functions H0^(1)
and H1^(1) of the 2-D kernels come from three bands of the argument z,
with crossovers set by comparison with ``scipy.special.hankel1``: the
ascending series of J0, J1, Y0 and Y1 (DLMF 10.8) for z < 4, Miller's
backward recurrence with the Neumann series of Y0 and Y1 up to z = 19,
and Hankel's expansion (DLMF 10.17) above.  The lower incomplete gamma
function is its power series below ``t = c + 1``, and the complete gamma
minus the upper function's continued fraction above (W. Gautschi, "A
computational procedure for incomplete gamma functions", ACM TOMS 5, 1979).
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


def _series_table(rows: int) -> np.ndarray:
    """Coefficients of ``q**k``, ``q = (z/2)**2``, in J0, J1 / (z/2), and
    the parts of Y0 and Y1 / (z/2) outside their logarithm terms."""
    table, harmonic = [], 0.0
    for k in range(rows):
        harmonic += 1.0 / k if k else 0.0
        a = (-1) ** k / math.factorial(k) ** 2
        b = (-1) ** k / (math.factorial(k) * math.factorial(k + 1))
        table.append((a, b, -2.0 / math.pi * harmonic * a,
                      -(2.0 * harmonic + 1.0 / (k + 1)) / math.pi * b))
    return np.array(table)


def _asymptotic_table(rows: int) -> np.ndarray:
    """Coefficients of ``z**(-2k)`` in Hankel's P0, Q0 z, P1 and Q1 z."""
    def a(k, nu):
        top = math.prod(4 * nu * nu - (2 * j - 1) ** 2 for j in range(1, k + 1))
        return top / (math.factorial(k) * 8 ** k)
    return np.array([[(-1) ** k * a(2 * k + odd, nu) for nu in (0, 1) for odd in (0, 1)]
                     for k in range(rows)])


def _recurrence_weights(top: int) -> np.ndarray:
    """Weights of ``J_n``, n = 0..top, in ``J0 + 2 sum J_2k`` (which is 1)
    and in the parts of Y0 and Y1 outside their logarithm and 1/z terms."""
    w = np.zeros((3, top + 1))
    w[0, 0] = 1.0
    for k in range(1, top // 2 + 1):
        w[0, 2 * k] = 2.0
        w[1, 2 * k] = -4.0 / math.pi * (-1) ** k / k
    for m in range((top + 1) // 2):   # J_{2m+1}, with 1/m read as 0 at m = 0
        w[2, 2 * m + 1] = 2.0 / math.pi * (-1) ** (m + 1) * ((1.0 / m if m else 0.0)
                                                          + 1.0 / (m + 1))
    return w


def _cut(table: np.ndarray, x_max: float) -> np.ndarray:
    """The rows of ``table`` up to the first whose terms at ``x_max`` are
    below half an ulp of one."""
    size = np.max(np.abs(table), axis=1) * x_max ** np.arange(len(table))
    return table[:int(np.argmax(size < 2.0 ** -53))]


# Term counts and the recurrence's starting order are set at the band edges,
# so each value depends on its own argument alone.
_SERIES_BELOW = 4.0
_ASYMPTOTIC_FROM = 19.0
_SERIES = _cut(_series_table(24), (_SERIES_BELOW / 2.0) ** 2)
_ASYMPTOTIC = _cut(_asymptotic_table(24), _ASYMPTOTIC_FROM ** -2)
_RECURRENCE = _recurrence_weights(50)   # Miller starts 31 orders above the band


def _horner(table: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The polynomials in the columns of ``table`` at ``x``, one row each.
    All of them run in one flat array: one multiply and one add per term."""
    coeffs = np.repeat(table, x.size, axis=1)
    xs = np.tile(x, table.shape[1])
    acc = coeffs[-1].copy()
    for row in coeffs[-2::-1]:
        acc *= xs
        acc += row
    return acc.reshape(table.shape[1], x.size)


def _hankel_series(z):
    # the ascending series (DLMF 10.8) with L = (2/pi)(ln(z/2) + gamma):
    # Y0 = L J0 + S0(q) and Y1 = L J1 + (z/2) S1(q) - 2/(pi z)
    t = 0.5 * z
    j0, j1_t, s0, s1_t = _horner(_SERIES, t * t)
    j1 = t * j1_t
    log_part = 2.0 / math.pi * (np.log(t) + EULER_GAMMA)
    return (j0 + 1j * (log_part * j0 + s0),
            j1 + 1j * (log_part * j1 + t * s1_t - 2.0 / math.pi / z))


def _hankel_recurrence(z):
    # Miller: J_n up to one common factor, from J_50 = 1 and J_51 = 0 down
    # to J_0, with J0 + 2 sum J_2k (which is 1) and the Neumann series
    # Y0 = L J0 - (4/pi) sum (-1)^k J_2k / k and its derivative -Y1 summed
    # alongside
    j, j_up = np.ones_like(z), np.zeros_like(z)
    sums = np.zeros((3,) + z.shape)
    for n in range(_RECURRENCE.shape[1] - 1, 0, -1):
        sums += _RECURRENCE[:, n, None] * j
        j, j_up = (2.0 * n / z) * j - j_up, j
    norm, s0, s1 = sums + _RECURRENCE[:, 0, None] * j
    j0, j1 = j / norm, j_up / norm
    log_part = 2.0 / math.pi * (np.log(0.5 * z) + EULER_GAMMA)
    return (j0 + 1j * (log_part * j0 + s0 / norm),
            j1 + 1j * (log_part * j1 + s1 / norm - 2.0 / math.pi * j0 / z))


def _hankel_asymptotic(z):
    # Hankel's expansion (DLMF 10.17):
    # H_nu = sqrt(2/(pi z)) e^{i(z - nu pi/2 - pi/4)} (P_nu + i Q_nu)
    p0, q0, p1, q1 = _horner(_ASYMPTOTIC, 1.0 / (z * z))
    wave = np.sqrt(2.0 / (math.pi * z)) * np.exp(1j * z)
    return (wave * np.exp(-0.25j * math.pi) * (p0 + 1j * q0 / z),
            wave * np.exp(-0.75j * math.pi) * (p1 + 1j * q1 / z))


def _hankel01(z: np.ndarray) -> tuple:
    """``H0^(1)(z)`` and ``H1^(1)(z)`` for an array of ``z > 0``; NaN for a
    NaN argument."""
    h0 = np.full(z.shape, np.nan, dtype=complex)
    h1 = h0.copy()
    for band, part in ((z < _SERIES_BELOW, _hankel_series),
                       ((z >= _SERIES_BELOW) & (z < _ASYMPTOTIC_FROM), _hankel_recurrence),
                       (z >= _ASYMPTOTIC_FROM, _hankel_asymptotic)):
        if np.any(band):
            h0[band], h1[band] = part(z[band])
    return h0, h1


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
        return 0.25j * complex(_hankel01(np.array([kappa * r]))[0][0])
    return np.exp(1j * kappa * r) / (4.0 * np.pi * r)


# ---------------------------------------------------------------------------
# elastic fundamental tensor
# ---------------------------------------------------------------------------

def _phi_derivs(kappa: float, r, dim: int):
    """``Phi(r)``, ``Phi'(r)``, ``Phi''(r)`` for the scalar kernel, vectorized."""
    r = np.asarray(r, dtype=float)
    z = kappa * r
    if dim == 2:
        h0, h1 = _hankel01(z)
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
    repeats each radius at up to eight offsets.  ``_hankel01`` and the
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
