"""Lagrangians on the tangent bundle of the sphere and their derived data.

Two fiberwise-polynomial kinds are supported:

* ``electromagnetic``:  L(q, v) = 1/2 g_q(v, v) - U(q) + <W(q), v>
* ``fiber_poly``:       L(q, v) = c4*s^2 + c2*s - U(q) + <W(q), v>,  s = g_q(v, v),
  blended C^1 to its tangent quadratic beyond the fiber radius R so that the
  Lagrangian is exactly quadratic in v far out.

The derived quantities used everywhere else live here too: the conserved
energy E = dL/dv . v - L, the fiber derivative (as a metric-dual tangent
vector), the energy ceiling e0 = max E(., 0), and the sampled fiber bounds
(h1, h2, sup|dW_flat + sigma|) feeding the short-loop valley estimates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NonConvexFiber
from .fields import DriftField, ScalarField
from .sphere_geom import (
    Metric,
    TwoForm,
    dot3,
    norm3,
    project_to_sphere,
    tangent_project,
    total_flux,
)

DEFAULT_QUAD_DEPTH = 4


@dataclass(frozen=True)
class Lagrangian:
    kind: str  # "electromagnetic" | "fiber_poly"
    metric: Metric = Metric.round()
    potential: ScalarField = ScalarField.constant(0.0)
    drift: DriftField = DriftField.none()
    extension_radius: float = 10.0
    c2: float = 0.5
    c4: float = 0.0

    @staticmethod
    def kinetic(metric: Metric = Metric.round()) -> "Lagrangian":
        return Lagrangian("electromagnetic", metric)

    @staticmethod
    def electromagnetic(
        metric: Metric = Metric.round(),
        potential: ScalarField = ScalarField.constant(0.0),
        drift: DriftField = DriftField.none(),
        extension_radius: float | None = None,
        e_ref: float = 1.0,
    ) -> "Lagrangian":
        if extension_radius is None:
            extension_radius = default_extension_radius(potential, e_ref)
        return Lagrangian("electromagnetic", metric, potential, drift, extension_radius)

    @staticmethod
    def fiber_polynomial(
        c2: float,
        c4: float,
        metric: Metric = Metric.round(),
        potential: ScalarField = ScalarField.constant(0.0),
        drift: DriftField = DriftField.none(),
        extension_radius: float | None = None,
        e_ref: float = 1.0,
    ) -> "Lagrangian":
        if extension_radius is None:
            extension_radius = default_extension_radius(potential, e_ref)
        return Lagrangian("fiber_poly", metric, potential, drift, extension_radius, c2, c4)

    @property
    def is_electromagnetic(self) -> bool:
        return self.kind == "electromagnetic"

    # --- fiber profile phi(s), blended C^1 to a linear-in-s tail beyond R^2 ---

    def _phi(self, s: np.ndarray) -> np.ndarray:
        if self.is_electromagnetic:
            return 0.5 * s
        sR = self.extension_radius**2
        inside = self.c4 * s * s + self.c2 * s
        slope = 2.0 * self.c4 * sR + self.c2
        tail = (self.c4 * sR * sR + self.c2 * sR) + slope * (s - sR)
        return np.where(s <= sR, inside, tail)

    def _phi_prime(self, s: np.ndarray) -> np.ndarray:
        if self.is_electromagnetic:
            return np.full_like(np.asarray(s, dtype=float), 0.5)
        sR = self.extension_radius**2
        return np.where(s <= sR, 2.0 * self.c4 * s + self.c2, 2.0 * self.c4 * sR + self.c2)

    # --- evaluations (ambient q on the sphere, ambient tangent v) ---

    def value(self, q: np.ndarray, v: np.ndarray) -> np.ndarray:
        s = self.metric.norm_sq(q, v)
        out = self._phi(s) - self.potential(q)
        if not self.drift.is_zero:
            out = out + dot3(self.drift.vector(q), np.asarray(v, dtype=float))
        return out

    def energy(self, q: np.ndarray, v: np.ndarray) -> np.ndarray:
        """E(q, v) = dL/dv . v - L; the drift term cancels identically."""
        s = self.metric.norm_sq(q, v)
        return 2.0 * s * self._phi_prime(s) - self._phi(s) + self.potential(q)

    def ambient_dv(self, q: np.ndarray, v: np.ndarray) -> np.ndarray:
        """dL/dv as an ambient covector (Euclidean representation)."""
        s = self.metric.norm_sq(q, v)
        e2u = self.metric.exp2u(q)
        out = (2.0 * self._phi_prime(s) * e2u)[..., None] * np.asarray(v, dtype=float)
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
            s_e = dot3(v, v)
            e2u = self.metric.exp2u(q)
            s = e2u * s_e
            du = self.metric.conformal_exponent.grad(q)
            out = out + (2.0 * self._phi_prime(s) * e2u * s_e)[..., None] * du
        return out

    def legendre_vector(self, q: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Fiber derivative as a tangent vector via metric duality."""
        s = self.metric.norm_sq(q, v)
        out = (2.0 * self._phi_prime(s))[..., None] * np.asarray(v, dtype=float)
        if not self.drift.is_zero:
            e2u = self.metric.exp2u(q)
            out = out + tangent_project(q, self.drift.vector(q)) / e2u[..., None]
        return out

    def fiber_hessian_min_eig(self, q: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Smallest eigenvalue of the fiber Hessian relative to the metric."""
        s = self.metric.norm_sq(q, v)
        perp = 2.0 * self._phi_prime(s)
        if self.is_electromagnetic:
            return perp
        sR = self.extension_radius**2
        along = perp + np.where(s <= sR, 4.0 * self.c4 * s, 0.0)
        return np.minimum(perp, along)


def default_extension_radius(potential: ScalarField, e_ref: float = 1.0) -> float:
    """Fiber radius past which the Lagrangian is forced quadratic.

    Chosen as 3*sqrt(2*e_ref + 2*max|U|) so every studied energy level stays
    well inside the unmodified region.
    """
    sup_u = max(map(abs, potential.bounds()))
    return 3.0 * float(np.sqrt(2.0 * max(e_ref, 0.0) + 2.0 * sup_u + 1e-12))


def e0(lag: Lagrangian) -> float:
    """max E(., 0) over the sphere, exactly: E(q, 0) = U(q) for both kinds."""
    return lag.potential.bounds()[1]


@dataclass(frozen=True)
class FiberBounds:
    h1: float
    h2: float
    sup_norm_dlambda_plus_sigma: float

    def __post_init__(self):
        if not (0.0 < self.h1 < self.h2):
            raise ValueError("fiber bounds must satisfy 0 < h1 < h2")


def fiber_bounds(
    lag: Lagrangian,
    form: TwoForm,
    sample_count: int = 4096,
    rng: np.random.Generator | None = None,
) -> FiberBounds:
    """Sampled constants for the quadratic envelope of L and the form norm.

    h1 is half the smallest sampled fiber-Hessian eigenvalue (relative to the
    metric), h2 the smallest constant with L <= h2*(g(v,v)+1) on the samples
    plus a 10% margin, and the last field bounds |dW_flat + sigma| pointwise.
    """
    if sample_count < 1000:
        raise ValueError("sample_count must be >= 1000")
    rng = rng or np.random.default_rng(0)
    q = project_to_sphere(rng.normal(size=(sample_count, 3)))
    dirs = tangent_project(q, rng.normal(size=(sample_count, 3)))
    dirs /= norm3(dirs)[:, None]
    # speeds spanning rest states up to far beyond the extension radius
    speeds = np.concatenate(
        [
            np.zeros(sample_count // 4),
            np.exp(rng.uniform(np.log(1e-3), np.log(100.0 * lag.extension_radius), sample_count - sample_count // 4)),
        ]
    )
    rng.shuffle(speeds)
    v = dirs * speeds[:, None]

    eigs = lag.fiber_hessian_min_eig(q, v)
    if np.any(eigs <= 0.0):
        raise NonConvexFiber(f"sampled fiber Hessian eigenvalue {float(eigs.min()):.3e} <= 0")
    h1 = 0.5 * float(eigs.min())

    gvv = lag.metric.norm_sq(q, v)
    ratio = lag.value(q, v) / (gvv + 1.0)
    h2 = 1.1 * float(ratio.max())
    h2 = max(h2, h1 * 1.001 + 1e-12)

    dens = np.abs(form.round_density(q) + lag.drift.exterior_density_round(q)) / lag.metric.exp2u(q)
    # zonal built-ins admit a deterministic dense scan; take the larger
    zgrid = np.linspace(-1.0, 1.0, 20001)
    qz = np.zeros((zgrid.size, 3))
    qz[:, 2] = zgrid
    qz[:, 0] = np.sqrt(np.clip(1.0 - zgrid**2, 0.0, None))
    if form.density.is_zonal and lag.drift.kind in ("none", "azimuthal"):
        dens_grid = np.abs(form.round_density(qz) + lag.drift.exterior_density_round(qz)) / lag.metric.exp2u(qz)
        sup = max(float(dens.max()), float(dens_grid.max()))
    else:
        sup = float(dens.max())
    return FiberBounds(h1=h1, h2=h2, sup_norm_dlambda_plus_sigma=sup)


@dataclass
class MagneticSystem:
    """Full problem instance: metric, magnetic density, Lagrangian, depths."""

    lagrangian: Lagrangian
    density: ScalarField
    quad_depth: int = DEFAULT_QUAD_DEPTH
    lift_depth: int = DEFAULT_QUAD_DEPTH
    rng_seed: int = 0
    _total_flux: float | None = field(default=None, repr=False)
    _fiber_bounds: FiberBounds | None = field(default=None, repr=False)

    @property
    def metric(self) -> Metric:
        return self.lagrangian.metric

    @property
    def form(self) -> TwoForm:
        return TwoForm(self.density, self.metric)

    @staticmethod
    def kinetic(density: ScalarField, metric: Metric = Metric.round(), **kw) -> "MagneticSystem":
        return MagneticSystem(Lagrangian.kinetic(metric), density, **kw)

    @staticmethod
    def electromagnetic(
        density: ScalarField,
        potential: ScalarField = ScalarField.constant(0.0),
        drift: DriftField = DriftField.none(),
        metric: Metric = Metric.round(),
        extension_radius: float | None = None,
        **kw,
    ) -> "MagneticSystem":
        lag = Lagrangian.electromagnetic(metric, potential, drift, extension_radius)
        return MagneticSystem(lag, density, **kw)

    def total_flux(self) -> float:
        if self._total_flux is None:
            self._total_flux = total_flux(self.form, self.quad_depth)
        return self._total_flux

    def fiber_bounds(self, sample_count: int = 4096, rng=None) -> FiberBounds:
        if self._fiber_bounds is None:
            rng = rng or np.random.default_rng(self.rng_seed)
            self._fiber_bounds = fiber_bounds(self.lagrangian, self.form, sample_count, rng)
        return self._fiber_bounds
