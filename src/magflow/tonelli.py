"""The problem instance: a magnetic system on the 2-sphere.

``MagneticSystem`` is the electromagnetic Lagrangian

    L(q, v) = 1/2 e^{2u} |v|^2 - U(q) + a <z_hat x q, v>

on the tangent bundle of the sphere, with g = e^{2u} g_round the metric (u
the conformal exponent, |v| the round norm), U the potential and
W(q) = a (z_hat x q) the drift field of rate a, together with the magnetic
form sigma = f dA_g of density f.  The system is round exactly when u is
zero, and then skips every conformal term.  The derived quantities used
everywhere else live here too: the density relative to the round area form,
the conserved energy E = dL/dv . v - L = 1/2 g(v, v) + U, the ambient
derivatives of L, the total flux of sigma, and the exact bound S of
|dW_flat + sigma|_g that sizes the short-loop valley.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fields import ScalarField
from .sphere_geom import dot3, total_flux


@dataclass(frozen=True)
class MagneticSystem:
    """Full problem instance: magnetic density, potential, drift rate and
    conformal exponent."""

    density: ScalarField
    potential: ScalarField = ScalarField.constant(0.0)
    drift: float = 0.0
    conformal_exponent: ScalarField = ScalarField.constant(0.0)
    _total_flux: float | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def is_round(self) -> bool:
        """True when the metric is the round one, i.e. u is zero."""
        return self.conformal_exponent.is_zero

    def exp2u(self, q: np.ndarray) -> np.ndarray:
        if self.is_round:
            return np.ones(np.asarray(q).shape[:-1])
        return np.exp(2.0 * self.conformal_exponent(q))

    def norm_sq(self, q: np.ndarray, v: np.ndarray) -> np.ndarray:
        """g_q(v, v) for a tangent vector in ambient coordinates."""
        v = np.asarray(v, dtype=float)
        val = dot3(v, v)
        if self.is_round:
            return val
        return self.exp2u(q) * val

    def round_density(self, q: np.ndarray) -> np.ndarray:
        """Density of sigma relative to the round area form: f * exp(2u)."""
        f = self.density(q)
        if self.is_round:
            return f
        return f * self.exp2u(q)

    def _drift_vector(self, q: np.ndarray) -> np.ndarray:
        """W(q) = a (z_hat x q)."""
        q = np.asarray(q, dtype=float)
        w = np.zeros(q.shape)
        w[..., 0] = -self.drift * q[..., 1]
        w[..., 1] = self.drift * q[..., 0]
        return w

    # --- evaluations (ambient q on the sphere, ambient tangent v) ---

    def value(self, q: np.ndarray, v: np.ndarray) -> np.ndarray:
        out = 0.5 * self.norm_sq(q, v) - self.potential(q)
        if self.drift != 0.0:
            out = out + dot3(self._drift_vector(q), np.asarray(v, dtype=float))
        return out

    def energy(self, q: np.ndarray, v: np.ndarray) -> np.ndarray:
        """E(q, v) = dL/dv . v - L; the drift term cancels identically."""
        return 0.5 * self.norm_sq(q, v) + self.potential(q)

    def ambient_dv(self, q: np.ndarray, v: np.ndarray) -> np.ndarray:
        """dL/dv as an ambient covector (Euclidean representation)."""
        out = self.exp2u(q)[..., None] * np.asarray(v, dtype=float)
        if self.drift != 0.0:
            out = out + self._drift_vector(q)
        return out

    def ambient_dq(self, q: np.ndarray, v: np.ndarray) -> np.ndarray:
        """dL/dq at fixed ambient v (to be tangent-projected by callers)."""
        q = np.asarray(q, dtype=float)
        v = np.asarray(v, dtype=float)
        out = -self.potential.grad(q)
        if self.drift != 0.0:
            # J_W(q)^T v, the base-derivative of <W(q), v> at fixed v
            jtv = np.zeros(v.shape)
            jtv[..., 0] = self.drift * v[..., 1]
            jtv[..., 1] = -self.drift * v[..., 0]
            out = out + jtv
        if not self.is_round:
            du = self.conformal_exponent.grad(q)
            out = out + (self.exp2u(q) * dot3(v, v))[..., None] * du
        return out

    def total_flux(self) -> float:
        if self._total_flux is None:
            object.__setattr__(self, "_total_flux", total_flux(self.round_density))
        return self._total_flux

    def fiber_bounds(self) -> float:
        """S >= sup |dW_flat + sigma|_g, with no sampling.

        sigma = f dA_g, and the azimuthal drift a (z_hat x q) has
        dW_flat = 2 a z dA_round = 2 a z e^{-2u} dA_g, so
        S = max|f| + 2 |a| e^{-2 min u}.  S is the exact sup when there is
        no drift.
        """
        sup = max(map(abs, self.density.bounds()))
        if self.drift != 0.0:
            u_min = 0.0 if self.is_round else self.conformal_exponent.bounds()[0]
            sup += 2.0 * abs(self.drift) * math.exp(-2.0 * u_min)
        return sup
