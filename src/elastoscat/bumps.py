"""Manufactured displacement profiles with closed-form derivatives.

A bump is ``u(x) = q(x)^2 A(x)`` where ``q`` is a level function vanishing
on (part of) the boundary and ``A`` is an affine vector amplitude.  Since
``u = q^2 A`` and ``grad u = 2 q grad(q) A + q^2 grad(A)``, both vanish
wherever ``q = 0``, so applying the operator and restricting to the domain
manufactures a source with vanishing Cauchy data there.  All derivatives are
analytic, which keeps the source evaluation exact for polynomial data.  No
product goes through BLAS (:func:`_affine`, and ``einsum``'s own loops), so
a point gets the same bits alone or in a batch.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .elastic import FieldJet, LameMedium
from .errors import UnsupportedDimension
from .geometry import DomainGeometry, LevelFunction


def _affine(m, v):
    """``v @ m.T`` for a (2, 2) matrix ``m``, from elementwise products: a
    BLAS product rounds one point and a batch of points differently."""
    v0, v1 = v[..., 0], v[..., 1]
    return np.stack([m[0, 0] * v0 + m[0, 1] * v1, m[1, 0] * v0 + m[1, 1] * v1],
                    axis=-1)


@dataclass(frozen=True)
class Bump:
    """u(x) = q(x)^2 (a0 + alin @ x), with full analytic derivatives."""

    level: LevelFunction
    a0: np.ndarray
    alin: np.ndarray            # (n, n): d_j A_i = alin[i, j]

    def amplitude(self, x):
        x = np.asarray(x, float)
        return self.a0 + _affine(self.alin, x)

    def value(self, x):
        q = self.level.value(x)
        return (np.asarray(q) ** 2)[..., None] * self.amplitude(x)

    def gradient(self, x):
        """Jacobian ``J[i, j] = d_j u_i`` (batched over leading axes)."""
        x = np.asarray(x, float)
        q = np.asarray(self.level.value(x))
        qg = self.level.gradient(x)
        A = self.amplitude(x)
        term1 = 2.0 * q[..., None, None] * A[..., :, None] * qg[..., None, :]
        term2 = (q ** 2)[..., None, None] * self.alin
        return term1 + term2

    def jet(self, x) -> FieldJet:
        return FieldJet(value=self.value(x), gradient=self.gradient(x))

    def source_density(self, x, medium: LameMedium):
        """``L u + omega^2 u`` in closed form.

        With u_i = q^2 A_i and affine A:
          d_k d_j u_i = 2 (q_k q_j + q q_kj) A_i
                        + 2 q (q_j d_k A_i + q_k d_j A_i).
        """
        x = np.asarray(x, float)
        q = np.asarray(self.level.value(x))
        qg = self.level.gradient(x)                      # (..., n)
        qh = np.asarray(self.level.hessian(x))           # (n, n) or (..., n, n)
        A = self.amplitude(x)                            # (..., n)
        gng = np.sum(qg * qg, axis=-1)                   # |grad q|^2
        lapq = np.trace(qh, axis1=-2, axis2=-1)
        # Laplacian of u_i
        lap_u = (2.0 * (gng + q * lapq))[..., None] * A \
            + 4.0 * q[..., None] * _affine(self.alin, qg)
        # grad(div u)_k = sum_j d_k d_j u_j
        t1 = 2.0 * qg * np.sum(qg * A, axis=-1)[..., None]
        t2 = 2.0 * q[..., None] * np.einsum("...kj,...j->...k", qh, A)
        diag_alin = self.alin  # d_k A_j entries
        t3 = 2.0 * q[..., None] * np.einsum("...j,jk->...k", qg, diag_alin)
        t4 = 2.0 * q[..., None] * qg * np.trace(self.alin)
        grad_div = t1 + t2 + t3 + t4
        u = (q ** 2)[..., None] * A
        return medium.mu * lap_u + (medium.lam + medium.mu) * grad_div \
            + medium.omega ** 2 * u


def polynomial_bump(domain: DomainGeometry, amplitude=(1.0, 0.0),
                    linear: Optional[np.ndarray] = None,
                    whole_boundary: bool = True) -> Bump:
    """Canonical bump for a 2-D domain.

    On a disk or an ellipse the bump vanishes on the whole boundary and
    ``whole_boundary`` is ignored.  A cap needs ``whole_boundary=False``: its
    bump vanishes on the graph part only (the lid stays live), which is what
    boundary-term experiments need, and any other value raises
    ``InvalidParameter``.
    """
    n = domain.dim
    if n != 2:
        raise UnsupportedDimension("bumps are 2-D")
    a0 = np.asarray(amplitude, dtype=float)
    alin = np.zeros((n, n)) if linear is None else np.asarray(linear, dtype=float)
    return Bump(level=domain.shape.level_function(whole_boundary), a0=a0, alin=alin)
