"""Discretized free-period loop space and its flux-ledger universal cover.

A point of the loop space is a closed polygon of N nodes on the sphere plus a
free period p.  The free-period action of a loop at energy e is

    S_e(gamma, p) = p * mean_i L(gamma_i, w_i / p) + p * e,

with velocities w_i by central differences (chordal, tangent-projected,
scaled by N).  The cover is realized by a scalar flux ledger: a lifted loop
carries the magnetic flux accumulated along its deformation history from the
base point, and the lifted action is A_e = S_e + flux.  A fresh loop is
lifted by the flux through the great-arc cone from a fixed apex
(``cone_flux``, with the Gauss-Legendre rule of ``triangles_flux``).  Deck
transformations and loop iteration act on the ledger by pure arithmetic,
which makes the corresponding action identities exact.

The ledger moves only through ``deform``, which carries it across any
nodewise move in geodesic substeps of at most 0.1 rad and refuses a node move
within one substep of antipodal.  Each substep's flux is quadrature over the
swept annulus: each node-pair quad is fanned into four spherical triangles
around its center (so a sweep and its reversal cancel exactly) weighted by a
tensor-Simpson average of the density.
The action gradient differentiates that exact discrete rule, so central
finite differences of the lifted action reproduce it to truncation error.

Loop files are the JSON of ``lifted_to_dict`` with indent 1 and sorted keys;
``save_lifted`` streams those bytes from Python floats and refuses a loop
that ``load_lifted`` would reject as non-finite.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .sphere_geom import (
    BASE_POINT,
    FLUX_DEPTH,
    angular_distance,
    cross3,
    cyclic_shift,
    dot3,
    norm3,
    project_to_sphere,
    slerp,
    solid_angle,
    tangent_project,
    triangles_flux,
)
from .tonelli import MagneticSystem

_SUBSTEP = 0.1
_MIN_NODES = 16
VALLEY_TAU_CAP = 0.1

# cone apexes: the base point first, then the other five axis points
_APEX_CANDIDATES = np.array(
    [BASE_POINT, [0.0, 0.0, -1.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [0.0, -1.0, 0.0], [1.0, 0.0, 0.0]]
)


# ---------------------------------------------------------------------------
# loop containers


@dataclass(frozen=True)
class FreePeriodLoop:
    """Closed discrete curve (node N identified with node 0) plus period p."""

    nodes: np.ndarray
    p: float

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 2 or nodes.shape[1] != 3:
            raise ValueError("nodes must have shape (N, 3)")
        if len(nodes) < _MIN_NODES:
            raise ValueError(f"need at least {_MIN_NODES} nodes, got {len(nodes)}")
        if not self.p > 0:
            raise ValueError("period must be positive")
        # non-antipodal consecutive nodes: |a + b| ~ the angular gap to pi
        sums = nodes + cyclic_shift(nodes, 1)
        if np.min(dot3(sums, sums)) <= 1e-18:
            raise ValueError("consecutive nodes are (near-)antipodal")

    @property
    def n(self) -> int:
        return len(self.nodes)

    def velocities(self) -> np.ndarray:
        """Central-difference derivatives w.r.t. the unit-circle parameter."""
        w = 0.5 * self.n * (cyclic_shift(self.nodes, 1) - cyclic_shift(self.nodes, -1))
        return tangent_project(self.nodes, w)

    def fourth_order_velocities(self) -> np.ndarray:
        """5-point-stencil derivatives w.r.t. the unit-circle parameter."""
        nodes = self.nodes
        w = (
            -cyclic_shift(nodes, 2)
            + 8.0 * cyclic_shift(nodes, 1)
            - 8.0 * cyclic_shift(nodes, -1)
            + cyclic_shift(nodes, -2)
        ) * (self.n / 12.0)
        return tangent_project(nodes, w)

    def with_period(self, p: float) -> "FreePeriodLoop":
        return replace(self, p=float(p))


@dataclass(frozen=True)
class LiftedLoop:
    """Loop plus accumulated flux: a point of the universal cover."""

    loop: FreePeriodLoop
    flux: float

    @property
    def nodes(self) -> np.ndarray:
        return self.loop.nodes

    @property
    def p(self) -> float:
        return self.loop.p


@dataclass(frozen=True)
class LoopGradient:
    """Differential of the lifted action: tangent node components and dA/dp."""

    node_grads: np.ndarray
    p_grad: float


# ---------------------------------------------------------------------------
# constructors and resampling


def latitude_loop(z0: float, n: int = 128, p: float = 1.0) -> FreePeriodLoop:
    """Latitude circle at height z0, traversed with the region below it
    positively bounded (clockwise seen from the north pole)."""
    if not -1.0 < z0 < 1.0:
        raise ValueError("z0 must lie strictly between -1 and 1")
    rho = np.sqrt(1.0 - z0 * z0)
    phi = np.pi - 2.0 * np.pi * np.arange(n) / n
    nodes = np.stack([rho * np.cos(phi), rho * np.sin(phi), np.full(n, z0)], axis=1)
    return FreePeriodLoop(nodes, p)


def great_circle_loop(axis: np.ndarray, n: int = 128, p: float = 1.0) -> FreePeriodLoop:
    """Great circle with the given normal axis, right-handed about it."""
    axis = project_to_sphere(np.asarray(axis, dtype=float))
    ref = np.eye(3)[int(np.argmin(np.abs(axis)))]
    e1 = np.cross(axis, ref)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(axis, e1)
    t = 2.0 * np.pi * np.arange(n) / n
    nodes = np.cos(t)[:, None] * e1 + np.sin(t)[:, None] * e2
    return FreePeriodLoop(nodes, p)


def perturb_normal(loop: FreePeriodLoop, amplitude: float, mode: int) -> FreePeriodLoop:
    """Bump the loop along its in-sphere normal with a cosine profile."""
    nodes = loop.nodes
    w = loop.velocities()
    normal = cross3(nodes, w)
    nn = norm3(normal)[:, None]
    normal = normal / np.where(nn > 1e-12, nn, 1.0)
    t = np.arange(loop.n) / loop.n
    bump = amplitude * np.cos(2.0 * np.pi * mode * t)
    return replace(loop, nodes=project_to_sphere(nodes + bump[:, None] * normal))


# ---------------------------------------------------------------------------
# action and period


def discrete_action_S(sys: MagneticSystem, e: float, loop: FreePeriodLoop) -> float:
    """Free-period action p * mean L(gamma, w/p) + p*e of the discrete loop."""
    w = loop.velocities()
    vals = sys.value(loop.nodes, w / loop.p)
    return float(loop.p * np.mean(vals) + loop.p * e)


def _period_for_velocities(
    sys: MagneticSystem, nodes: np.ndarray, w: np.ndarray, e: float
) -> float:
    """Period p at which the mean energy of the velocities w / p equals e."""
    kin = float(np.mean(0.5 * sys.norm_sq(nodes, w)))
    ubar = float(np.mean(sys.potential(nodes)))
    if e <= ubar:
        raise ValueError(f"energy {e} does not exceed the mean potential {ubar:.6g}")
    if kin < 1e-30:
        return 1e-6
    return float(np.sqrt(kin / (e - ubar)))


def optimal_period(sys: MagneticSystem, loop: FreePeriodLoop, e: float) -> float:
    """Period with mean discrete energy equal to e (the dS/dp = 0 condition)."""
    return _period_for_velocities(sys, loop.nodes, loop.velocities(), e)


def lifted_action_A(sys: MagneticSystem, e: float, ll: LiftedLoop) -> float:
    """Action on the cover: free-period action plus the flux ledger."""
    return discrete_action_S(sys, e, ll.loop) + ll.flux


def optimal_period_fourth(sys: MagneticSystem, loop: FreePeriodLoop, e: float) -> float:
    """Optimal period recomputed with 4th-order discrete velocities.

    The central-difference period that makes the discrete action critical
    carries an O(N^-2) bias relative to the underlying curve; shooting
    certification of long stable orbits needs this sharper estimate.
    """
    return _period_for_velocities(sys, loop.nodes, loop.fourth_order_velocities(), e)


# ---------------------------------------------------------------------------
# lifting, sweeping, deck transformations, iteration


def _choose_apex(nodes: np.ndarray) -> np.ndarray:
    """Cone apex for the nodes: the base point when it keeps a 0.2 rad
    antipodal margin, otherwise the candidate with the largest margin."""

    if np.pi - float(np.max(angular_distance(_APEX_CANDIDATES[0], nodes))) >= 0.2:
        return _APEX_CANDIDATES[0]
    margins = np.pi - np.max(angular_distance(_APEX_CANDIDATES[:, None], nodes), axis=1)
    return _APEX_CANDIDATES[int(np.argmax(margins))]


def cone_flux(
    sys: MagneticSystem,
    loop: FreePeriodLoop,
    depth: int = FLUX_DEPTH,
    apex: np.ndarray | None = None,
) -> float:
    """Flux through the great-arc cone spanning the loop from a fixed apex.

    Realizes the canonical lift: the homotopy that contracts the loop to the
    apex along great arcs, then carries the constant loop to the base point
    (constant loops sweep no flux).  The apex is the base point unless the
    loop comes near its antipode, in which case a fixed fallback list is
    scanned for the largest antipodal margin.
    """
    nodes = loop.nodes
    if apex is None:
        apex = _choose_apex(nodes)
    tris = np.stack(
        [np.broadcast_to(apex, nodes.shape), nodes, cyclic_shift(nodes, 1)], axis=1
    )
    return triangles_flux(sys.round_density, tris, depth)


def lift_loop(sys: MagneticSystem, loop: FreePeriodLoop) -> LiftedLoop:
    """Canonical lift of a fresh loop (cone construction pins the ledger)."""
    return LiftedLoop(loop, cone_flux(sys, loop))


def _sweep_once(sys: MagneticSystem, old: np.ndarray, new: np.ndarray) -> float:
    """Flux of one annulus sweep old -> new (both (N, 3), same N).

    Per node-pair quad (A, B) -> (D, C), a 4-triangle fan around the quad
    center gives the exact signed solid angle with boundary new - old; the
    density is averaged with a Simpson x Simpson rule whose stations are
    symmetric under sweep reversal, so reversing exactly negates the flux.
    """
    n = len(old)
    A = old
    B = cyclic_shift(old, 1)
    D = new
    C = cyclic_shift(new, 1)
    mids = project_to_sphere(
        np.stack([A + B + C + D, A + B, A + D, B + C, D + C])
    )
    m, mab, mad, mbc, mdc = mids
    # four fan triangles batched into one signed solid-angle call
    tri_a = np.concatenate([B, A, D, C])
    tri_b = np.concatenate([A, D, C, B])
    tri_m = np.concatenate([m, m, m, m])
    omega = np.sum(solid_angle(tri_a, tri_b, tri_m).reshape(4, n), axis=0)
    stations = np.stack([A, mab, B, mad, m, mbc, D, mdc, C])
    fvals = sys.round_density(stations)
    weights = np.array([1.0, 4.0, 1.0, 4.0, 16.0, 4.0, 1.0, 4.0, 1.0]) / 36.0
    fbar = np.einsum("s,sn->n", weights, fvals)
    return float(np.sum(omega * fbar))


def sweep_flux(sys: MagneticSystem, old: FreePeriodLoop, new: FreePeriodLoop) -> float:
    """Flux swept by deforming ``old`` into ``new`` node-by-node.

    The move is split into ceil(max_disp / ``_SUBSTEP``) geodesic substeps,
    with max_disp the largest nodewise angle; each substep uses the
    antisymmetric fan quadrature of ``_sweep_once``.  A node move within
    ``_SUBSTEP`` of antipodal raises ``ValueError``: its geodesic is not
    well defined.
    """
    if old.n != new.n:
        raise ValueError("loops must share the node count")
    diff = new.nodes - old.nodes
    max_chord = float(np.sqrt(np.max(dot3(diff, diff))))
    if max_chord == 0.0:
        return 0.0
    max_disp = 2.0 * np.arcsin(min(max_chord / 2.0, 1.0))
    if max_disp > np.pi - _SUBSTEP:
        raise ValueError(f"node move of {max_disp:.3f} rad is too close to antipodal")
    k = int(np.ceil(max_disp / _SUBSTEP))
    mids = [slerp(old.nodes, new.nodes, np.full(old.n, j / k)) for j in range(1, k)]
    stations = [old.nodes, *mids, new.nodes]
    return sum(_sweep_once(sys, a, b) for a, b in zip(stations[:-1], stations[1:]))


def deform(sys: MagneticSystem, ll: LiftedLoop, new_loop: FreePeriodLoop) -> LiftedLoop:
    """Path lifting: carry the ledger along the nodewise geodesic move to
    ``new_loop``, however long.  Period changes carry no flux.
    """
    return LiftedLoop(new_loop, ll.flux + sweep_flux(sys, ll.loop, new_loop))


def iterate(ll: LiftedLoop, m: int) -> LiftedLoop:
    """m-fold iterate: nodes retraced m times, period and flux scaled by m."""
    if m < 1:
        raise ValueError("iterate order must be >= 1")
    if m == 1:
        return ll
    return LiftedLoop(FreePeriodLoop(np.tile(ll.nodes, (m, 1)), m * ll.p), m * ll.flux)


def primitive(loop: FreePeriodLoop, tol: float = 5e-3) -> FreePeriodLoop:
    """Smallest-period representative of an m-fold retraced loop: the first
    n / m nodes for the largest m, with at least ``_MIN_NODES`` nodes left,
    whose shift by n / m nodes moves no node more than ``tol`` radians."""
    n = loop.n
    for m in range(n // _MIN_NODES, 1, -1):
        if n % m == 0:
            shift = n // m
            if float(np.max(angular_distance(loop.nodes, cyclic_shift(loop.nodes, shift)))) < tol:
                return FreePeriodLoop(loop.nodes[:shift], loop.p / m)
    return loop


def deck_transform(sys: MagneticSystem, ll: LiftedLoop, k: int) -> LiftedLoop:
    """Generator of the cover's deck group: shifts the ledger by k * total flux."""
    if k == 0:
        return ll
    return LiftedLoop(ll.loop, ll.flux + k * sys.total_flux())


# ---------------------------------------------------------------------------
# action gradient (exact differential of the discrete functional)


def _flux_gradient(sys: MagneticSystem, nodes: np.ndarray) -> np.ndarray:
    """Differential of the sweep-flux rule at zero displacement."""
    a = nodes
    b = cyclic_shift(nodes, 1)
    m = project_to_sphere(a + b)
    cm = dot3(m, a)
    s3 = 1.0 + dot3(a, b) + 2.0 * cm
    mxa = cross3(m, a)
    bxm = cross3(b, m)
    f = sys.round_density
    fbar = (f(a) + 4.0 * f(m) + f(b)) / 6.0
    c_self = mxa / (1.0 + cm)[:, None] + 2.0 * bxm / s3[:, None]
    c_next = bxm / (1.0 + cm)[:, None] + 2.0 * mxa / s3[:, None]
    g = fbar[:, None] * c_self
    g += cyclic_shift(fbar[:, None] * c_next, -1)
    return g


def action_gradient(sys: MagneticSystem, e: float, ll: LiftedLoop) -> LoopGradient:
    """Exact gradient of the discrete lifted action.

    Node components differentiate both the action sum (through the projected
    central-difference velocities) and the sweep-flux quadrature; the period
    component is the closed form e - (mean discrete energy).  Components are
    tangent-projected, matching directional derivatives along reprojected
    node perturbations.
    """
    loop = ll.loop
    nodes = loop.nodes
    n, p = loop.n, loop.p

    c = 0.5 * n * (cyclic_shift(nodes, 1) - cyclic_shift(nodes, -1))
    w = tangent_project(nodes, c)
    v = w / p
    u = sys.ambient_dv(nodes, v)
    dq = sys.ambient_dq(nodes, v)

    grad = (p / n) * dq
    qc = dot3(nodes, c)[:, None]
    uq = dot3(u, nodes)[:, None]
    grad += (-(qc * u) - (uq * c)) / n
    pu = u - dot3(nodes, u)[:, None] * nodes
    grad += 0.5 * (cyclic_shift(pu, -1) - cyclic_shift(pu, 1))
    grad += _flux_gradient(sys, nodes)

    p_grad = e - float(np.mean(sys.energy(nodes, v)))
    return LoopGradient(tangent_project(nodes, grad), p_grad)


def h1_solve(node_vecs: np.ndarray) -> np.ndarray:
    """Apply the inverse of the circulant H^1 node metric I + N^2 D^T D."""
    n = len(node_vecs)
    lam = 1.0 + 4.0 * n * n * np.sin(np.pi * np.arange(n // 2 + 1) / n) ** 2
    spec = np.fft.rfft(node_vecs, axis=0)
    return np.fft.irfft(spec / lam[:, None], n=n, axis=0)


def h1_precondition(loop: FreePeriodLoop, grad: LoopGradient) -> tuple[np.ndarray, float]:
    """Solve the discrete H^1 metric for the descent direction and dual norm.

    The node metric is <xi, eta> + N^2 <Delta xi, Delta eta> (circulant, so a
    real FFT solve), the period block is the identity.  Returns the
    tangent-projected preconditioned node direction and the dual norm
    sqrt(<raw, M^{-1} raw> + p_grad^2) (``h1_dual``).
    """
    sol, dual = h1_dual(grad.node_grads, grad.p_grad)
    return tangent_project(loop.nodes, sol), dual


def h1_dual(node_grads: np.ndarray, p_grad: float) -> tuple[np.ndarray, float]:
    """H^1 solve of raw node gradients and the dual norm
    sqrt(<raw, M^{-1} raw> + p_grad^2) of the full gradient."""
    sol = h1_solve(node_grads)
    dual_sq = float(np.sum(node_grads * sol)) + p_grad**2
    return sol, float(np.sqrt(max(dual_sq, 0.0)))


# ---------------------------------------------------------------------------
# the short-loop valley


def in_valley(sys: MagneticSystem, loop: FreePeriodLoop, tau: float) -> bool:
    """Membership in the valley of short loops with low period (strict)."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    w = loop.velocities()
    speed_sq = float(np.mean(sys.norm_sq(loop.nodes, w)))
    return speed_sq < tau * loop.p and loop.p < tau


def valley_tau(sys: MagneticSystem) -> float:
    """Valley radius 2*h1 / S = 1 / S, capped at 0.1.

    h1 = 1/2 is the fiber convexity of the kinetic term and S the bound of
    |dW_flat + sigma|_g from ``MagneticSystem.fiber_bounds``.  Half the
    positivity threshold of the lower action bound; the cap covers the
    degenerate case of a vanishing combined form.
    """
    sup = sys.fiber_bounds()
    if sup <= 1e-15:
        return VALLEY_TAU_CAP
    return float(min(VALLEY_TAU_CAP, 1.0 / sup))


# ---------------------------------------------------------------------------
# serialization


def lifted_to_dict(ll: LiftedLoop) -> dict:
    return {
        "nodes": ll.nodes.tolist(),
        "p": float(ll.p),
        "flux": float(ll.flux),
    }


def lifted_from_dict(data: dict) -> LiftedLoop:
    """Inverse of ``lifted_to_dict``; rejects a payload that is not an object
    with ``nodes``, ``p`` and ``flux``, non-finite values and nodes off the
    unit sphere."""
    if not isinstance(data, dict):
        raise ValueError(f"loop payload must be a JSON object, got {type(data).__name__}")
    missing = [key for key in ("nodes", "p", "flux") if key not in data]
    if missing:
        raise ValueError(f"loop payload lacks {', '.join(missing)}")
    try:
        nodes = np.array(data["nodes"], dtype=float)
        p, flux = float(data["p"]), float(data["flux"])
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"loop nodes, period and flux must be finite numbers: {exc}") from exc
    if not (np.all(np.isfinite(nodes)) and np.isfinite(p) and np.isfinite(flux)):
        raise ValueError("loop nodes, period and flux must be finite")
    loop = FreePeriodLoop(nodes, p)
    if np.max(np.abs(norm3(loop.nodes) - 1.0)) > 1e-9:
        raise ValueError("loop nodes must lie on the unit sphere")
    return LiftedLoop(loop, flux)


def save_lifted(ll: LiftedLoop, path) -> None:
    """Write ``lifted_to_dict(ll)`` as JSON with indent 1 and sorted keys.

    The bytes are those of ``json.dump(..., indent=1, sort_keys=True)``,
    streamed one node at a time: json spells a finite float as its repr.
    A non-finite node, period or flux raises ``ValueError``, since
    ``load_lifted`` would reject the file.
    """
    p, flux = float(ll.p), float(ll.flux)
    if not (math.isfinite(p) and math.isfinite(flux) and np.all(np.isfinite(ll.nodes))):
        raise ValueError("loop nodes, period and flux must be finite")
    with open(path, "w") as fh:
        fh.write(f'{{\n "flux": {flux!r},\n "nodes": [')
        sep = "\n"
        for x, y, z in ll.nodes.tolist():
            fh.write(f"{sep}  [\n   {x!r},\n   {y!r},\n   {z!r}\n  ]")
            sep = ",\n"
        fh.write(f'\n ],\n "p": {p!r}\n}}')


def load_lifted(path) -> LiftedLoop:
    with open(path) as fh:
        return lifted_from_dict(json.load(fh))


def nodes_to_csv(loop: FreePeriodLoop, path) -> None:
    """One x,y,z line per node, each coordinate as Python's round-trip repr."""
    with open(path, "w") as fh:
        fh.write("x,y,z\n")
        for row in loop.nodes.tolist():
            fh.write(",".join(map(repr, row)) + "\n")
