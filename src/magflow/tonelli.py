"""The problem instance: a magnetic system on the 2-sphere.

``MagneticSystem`` is the electromagnetic Lagrangian

    L(q, v) = 1/2 g_q(v, v) - U(q) + <W(q), v>

on the tangent bundle of the sphere, with g = e^{2u} g_round the metric, U
the potential and W the drift field, together with the magnetic form
sigma = f dA_g of density f.  The derived quantities used everywhere else
live here too: the density relative to the round area form, the conserved
energy E = dL/dv . v - L = 1/2 g(v, v) + U, the ambient derivatives of L,
the total flux of sigma, and the exact bound S of |dW_flat + sigma|_g that
sizes the short-loop valley.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fields import DriftField, ScalarField
from .sphere_geom import Metric, dot3, total_flux


@dataclass
class MagneticSystem:
    """Full problem instance: magnetic density, potential, drift and metric."""

    density: ScalarField
    potential: ScalarField = ScalarField.constant(0.0)
    drift: DriftField = DriftField.none()
    metric: Metric = Metric.round()
    _total_flux: float | None = field(default=None, init=False, repr=False)

    def round_density(self, q: np.ndarray) -> np.ndarray:
        """Density of sigma relative to the round area form: f * exp(2u)."""
        f = self.density(q)
        if self.metric.is_round:
            return f
        return f * self.metric.exp2u(q)

    # --- evaluations (ambient q on the sphere, ambient tangent v) ---

    def value(self, q: np.ndarray, v: np.ndarray) -> np.ndarray:
        out = 0.5 * self.metric.norm_sq(q, v) - self.potential(q)
        if not self.drift.is_zero:
            out = out + dot3(self.drift.vector(q), np.asarray(v, dtype=float))
        return out

    def energy(self, q: np.ndarray, v: np.ndarray) -> np.ndarray:
        """E(q, v) = dL/dv . v - L; the drift term cancels identically."""
        return 0.5 * self.metric.norm_sq(q, v) + self.potential(q)

    def ambient_dv(self, q: np.ndarray, v: np.ndarray) -> np.ndarray:
        """dL/dv as an ambient covector (Euclidean representation)."""
        out = self.metric.exp2u(q)[..., None] * np.asarray(v, dtype=float)
        if not self.drift.is_zero:
            out = out + self.drift.vector(q)
        return out

    def ambient_dq(self, q: np.ndarray, v: np.ndarray) -> np.ndarray:
        """dL/dq at fixed ambient v (to be tangent-projected by callers)."""
        q = np.asarray(q, dtype=float)
        v = np.asarray(v, dtype=float)
        out = -self.potential.grad(q)
        if not self.drift.is_zero:
            out = out + self.drift.jac_t_apply(q, v)
        if not self.metric.is_round:
            du = self.metric.conformal_exponent.grad(q)
            out = out + (self.metric.exp2u(q) * dot3(v, v))[..., None] * du
        return out

    def total_flux(self) -> float:
        if self._total_flux is None:
            self._total_flux = total_flux(self.round_density)
        return self._total_flux

    def fiber_bounds(self) -> float:
        """S >= sup |dW_flat + sigma|_g, with no sampling.

        sigma = f dA_g, and the azimuthal drift a (z_hat x q) has
        dW_flat = 2 a z dA_round = 2 a z e^{-2u} dA_g, so
        S = max|f| + 2 |a| e^{-2 min u}.  S is the exact sup when there is
        no drift.
        """
        sup = max(map(abs, self.density.bounds()))
        if not self.drift.is_zero:
            u_min = 0.0 if self.metric.is_round else self.metric.conformal_exponent.bounds()[0]
            sup += 2.0 * abs(self.drift.coeffs[0]) * math.exp(-2.0 * u_min)
        return sup
