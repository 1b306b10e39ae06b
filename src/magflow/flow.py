"""Time integration of the magnetic Euler-Lagrange flow on the sphere.

The electromagnetic equations of motion in ambient coordinates read

    dq/dt = v
    dv/dt = -|v|^2 q  (curvature correction)
            - 2 (P grad u . v) v + |v|^2 P grad u  (conformal terms)
            + e^{-2u} [ -P grad U + (f e^{2u} + h_W)(v x q) ]

where g = e^{2u} g_round is the metric, |v| the round norm, f the magnetic
density (relative to the metric area form), h_W the round-form density of
the exterior derivative of the drift 1-form, and P the tangent projection.
The sign of the Lorentz term, force = density * (v x q), is the one for
which critical loops of the lifted free-period action are genuine
trajectories; see the action gradient in ``loop_space``.

Integration is classical fixed-step RK4 with post-step reprojection of q to
the sphere and v to the tangent plane.  One pure-Python scalar loop serves
round and conformal metrics alike: the right-hand side is built once per
call from the system's field evaluators, and its conformal terms run only
for a non-round metric, so round-metric trajectories keep the bits of the
plain round formula.

Certification (``certify_orbit``) shoots a candidate loop for one period
with that integrator.  The first shot takes ``SHOOT_MIN_STEPS`` steps, and the
Richardson error model of a 4th-order method picks each finer one until the
end state's error estimate is at most ``SHOOT_BUDGET``, 1/1000 of the closure
bound ``CERTIFY_CLOSURE_TOL``; a shot that explodes only means the step must
shrink.  Its self-intersection count runs on the candidate's primitive,
groups consecutive segments into runs, expands only the run pairs whose
bounding caps meet, and tests the segment pairs that pass a per-pair
distance bound in one vectorized pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import StepExplosion
from .loop_space import FreePeriodLoop, primitive
from .sphere_geom import (
    angular_distance,
    cross3,
    cyclic_shift,
    dot3,
    norm3,
    project_to_sphere,
    tangent_project,
)
from .tonelli import MagneticSystem

_EXPLOSION_BOUND = 1e6
# the most RK4 steps one ``integrate`` call may take (its arrays then hold
# 560 MB)
MAX_STEPS = 10_000_000
# largest shooting closure residual of a certified orbit, and the error
# budget of the RK4 shot that measures it (the shots stop below it)
CERTIFY_CLOSURE_TOL = 1e-4
SHOOT_BUDGET = CERTIFY_CLOSURE_TOL / 1000
# certification's first shot, in RK4 steps per period
SHOOT_MIN_STEPS = 64
# ``count_self_intersections``' prune: segments per run, the angle (rad) by
# which two runs' caps may miss and still be expanded (the pair bound's 1e-12
# cosine slack widens an angle by at most sqrt(2e-12), about 1.4e-6), and the
# most run pairs or segment pairs one block holds
_RUN = 16
_CAP_SLACK = 1e-4
_PAIR_BLOCK = 8192


@dataclass(frozen=True)
class State:
    q: np.ndarray
    v: np.ndarray

    @staticmethod
    def of(q, v) -> "State":
        q = project_to_sphere(np.asarray(q, dtype=float))
        return State(q, tangent_project(q, np.asarray(v, dtype=float)))


@dataclass
class Trajectory:
    times: np.ndarray           # (n,) strictly increasing, uniform step
    positions: np.ndarray       # (n, 3)
    velocities: np.ndarray      # (n, 3)
    energy_series: np.ndarray   # (n,)

    @property
    def final_state(self) -> State:
        return State(self.positions[-1], self.velocities[-1])


def _equations(sys: MagneticSystem):
    """Scalar right-hand side and energy of the equations of motion.

    Both take the six state components (qx, qy, qz, vx, vy, vz) as floats;
    the right-hand side returns (dq, dv) as a 6-tuple.  The conformal block
    runs only for a non-round metric, so round-metric states never pay for it.
    """
    conformal = not sys.is_round
    dens = sys.density.scalar_fn()
    drift_h = 2.0 * sys.drift
    grad_pot = sys.potential.grad_fn()
    pot = sys.potential.scalar_fn()
    u = sys.conformal_exponent.scalar_fn()
    grad_u = sys.conformal_exponent.grad_fn()

    def rhs(qx, qy, qz, vx, vy, vz):
        qn = math.sqrt(qx * qx + qy * qy + qz * qz)
        qx, qy, qz = qx / qn, qy / qn, qz / qn
        qv = qx * vx + qy * vy + qz * vz
        vx, vy, vz = vx - qv * qx, vy - qv * qy, vz - qv * qz
        vv = vx * vx + vy * vy + vz * vz
        gx, gy, gz = grad_pot(qx, qy, qz)
        h = drift_h * qz
        if conformal:
            # g = e^{2u} g_round: the potential and drift forces scale by
            # e^{-2u}, and the Christoffel terms -2 (du.v) v + |v|^2 du join
            # the gradient, whose normal part the projection below removes
            w = math.exp(-2.0 * u(qx, qy, qz))
            ux, uy, uz = grad_u(qx, qy, qz)
            uv2 = 2.0 * (ux * vx + uy * vy + uz * vz)
            gx = w * gx + uv2 * vx - vv * ux
            gy = w * gy + uv2 * vy - vv * uy
            gz = w * gz + uv2 * vz - vv * uz
            h *= w
        gq = gx * qx + gy * qy + gz * qz
        f = dens(qx, qy, qz) + h
        # v x q cross product
        cx = vy * qz - vz * qy
        cy = vz * qx - vx * qz
        cz = vx * qy - vy * qx
        return (
            vx,
            vy,
            vz,
            -vv * qx - (gx - gq * qx) + f * cx,
            -vv * qy - (gy - gq * qy) + f * cy,
            -vv * qz - (gz - gq * qz) + f * cz,
        )

    def energy(qx, qy, qz, vx, vy, vz):
        vv = vx * vx + vy * vy + vz * vz
        if conformal:
            vv *= math.exp(2.0 * u(qx, qy, qz))
        return 0.5 * vv + pot(qx, qy, qz)

    return rhs, energy


def integrate(sys: MagneticSystem, s0: State, T: float, h: float) -> Trajectory:
    """Integrate for time T with (approximately) step h, landing exactly at T."""
    if not 0.0 < h:  # written so that NaN fails it too
        raise ValueError("step must be positive")
    if h > T:
        raise ValueError("step must not exceed the total time")
    if T / h > MAX_STEPS:
        raise ValueError(f"time / step exceeds {MAX_STEPS} RK4 steps")
    n = max(1, int(round(T / h)))
    dt = T / n
    rhs, energy = _equations(sys)

    qx, qy, qz = (float(c) for c in s0.q)
    vx, vy, vz = (float(c) for c in s0.v)
    qs = np.empty((n + 1, 3))
    vs = np.empty((n + 1, 3))
    es = np.empty(n + 1)
    qs[0] = (qx, qy, qz)
    vs[0] = (vx, vy, vz)
    es[0] = energy(qx, qy, qz, vx, vy, vz)
    half = 0.5 * dt
    sixth = dt / 6.0
    for k in range(n):
        # stages a, b, c, d: the derivatives of qx, qy, qz, vx, vy, vz are
        # named by the letter of the stage and then x, y, z, u, v, w
        ax, ay, az, au, av, aw = rhs(qx, qy, qz, vx, vy, vz)
        bx, by, bz, bu, bv, bw = rhs(
            qx + half * ax, qy + half * ay, qz + half * az,
            vx + half * au, vy + half * av, vz + half * aw,
        )
        cx, cy, cz, cu, cv, cw = rhs(
            qx + half * bx, qy + half * by, qz + half * bz,
            vx + half * bu, vy + half * bv, vz + half * bw,
        )
        dx, dy, dz, du, dv, dw = rhs(
            qx + dt * cx, qy + dt * cy, qz + dt * cz,
            vx + dt * cu, vy + dt * cv, vz + dt * cw,
        )
        qx += sixth * (ax + 2.0 * (bx + cx) + dx)
        qy += sixth * (ay + 2.0 * (by + cy) + dy)
        qz += sixth * (az + 2.0 * (bz + cz) + dz)
        vx += sixth * (au + 2.0 * (bu + cu) + du)
        vy += sixth * (av + 2.0 * (bv + cv) + dv)
        vz += sixth * (aw + 2.0 * (bw + cw) + dw)
        qn = math.sqrt(qx * qx + qy * qy + qz * qz)
        qx, qy, qz = qx / qn, qy / qn, qz / qn
        qv = qx * vx + qy * vy + qz * vz
        vx, vy, vz = vx - qv * qx, vy - qv * qy, vz - qv * qz
        # written so that NaN fails it too; a NaN position makes v NaN as well
        if not (abs(vx) < _EXPLOSION_BOUND and abs(vy) < _EXPLOSION_BOUND and abs(vz) < _EXPLOSION_BOUND):
            raise StepExplosion(f"velocity non-finite or above {_EXPLOSION_BOUND:g} at step {k}")
        qs[k + 1] = (qx, qy, qz)
        vs[k + 1] = (vx, vy, vz)
        es[k + 1] = energy(qx, qy, qz, vx, vy, vz)
    return Trajectory(np.linspace(0.0, T, n + 1), qs, vs, es)


def state_distance(a: State, b: State) -> float:
    """Euclidean distance of two states in (q, v) space."""
    return float(np.sqrt(np.sum((a.q - b.q) ** 2) + np.sum((a.v - b.v) ** 2)))


def energy_drift(traj: Trajectory) -> float:
    """max |E_t - E_0| / max(1, |E_0|) along a trajectory."""
    if traj.energy_series.size == 0:
        raise ValueError("empty trajectory")
    e0 = traj.energy_series[0]
    return float(np.max(np.abs(traj.energy_series - e0)) / max(1.0, abs(e0)))


@dataclass(frozen=True)
class OrbitReport:
    gradient_norm: float
    mean_energy_residual: float
    closure_residual: float
    self_intersections: int

    def __post_init__(self):
        vals = (self.gradient_norm, self.mean_energy_residual, self.closure_residual)
        if not all(np.isfinite(v) for v in vals):
            raise ValueError("orbit report residuals must be finite")

    @property
    def certified(self) -> bool:
        """The one closure verdict: shooting closes within ``CERTIFY_CLOSURE_TOL``."""
        return self.closure_residual <= CERTIFY_CLOSURE_TOL


def _near_pairs(a: np.ndarray, length: np.ndarray, tol: float):
    """Blocks (i, j) of the non-adjacent segment pairs, i < j, whose start
    points lie within their two arc lengths plus ``tol`` of each other.

    Consecutive segments form runs of ``_RUN``.  A run's cap is centred on its
    normalized mean start point and reaches its farthest start point plus its
    longest arc (all of the sphere when the mean is near zero), so two
    segments can pass the pair bound only when their runs' caps meet within
    ``_CAP_SLACK``.  Runs are paired, and the run pairs that meet are
    expanded, at most ``_PAIR_BLOCK`` pairs at a time; each pair takes the bound
    dot(a_i, a_j) >= cos(min(pi, L_i + L_j + tol)) - 1e-12.  Dot products are
    summed in ``dot3``'s order and no BLAS matmul runs, whose work buffer
    would add about 0.5 MB to the resident memory of a solve that makes no
    other one.
    """
    n = len(a)
    starts = np.arange(0, n, _RUN)
    m = len(starts)
    sums = np.add.reduceat(a, starts, axis=0)
    mn = norm3(sums)
    centers = sums / np.where(mn > 1e-9, mn, 1.0)[:, None]
    spread = np.maximum.reduceat(angular_distance(centers[np.arange(n) // _RUN], a), starts)
    reach = np.where(mn > 1e-9, spread + np.maximum.reduceat(length, starts), np.pi)
    # segment positions past the end of the last run fail every bound
    padded = np.full(m * _RUN, np.nan)
    padded[:n] = length
    runs = np.arange(m)
    run_rows = max(1, _PAIR_BLOCK // m)
    chunk = max(1, _PAIR_BLOCK // (_RUN * _RUN))
    for lo in range(0, m, run_rows):
        rows = runs[lo : lo + run_rows]
        bound = np.add.outer(reach[rows] + (tol + _CAP_SLACK), reach)
        np.cos(np.minimum(bound, np.pi, out=bound), out=bound)
        bound -= 1e-12
        meet = dot3(centers[rows, None], centers) >= bound
        meet &= runs >= rows[:, None]
        r_all, s_all = np.nonzero(meet)
        r_all += lo
        for k in range(0, len(r_all), chunk):
            i, j = _pair_bound(a, padded, r_all[k : k + chunk], s_all[k : k + chunk], tol)
            if len(i):
                yield i, j


def _pair_bound(a, padded, r, s, tol):
    """The pairs of segments from runs r[k] and s[k] that pass the pair bound."""
    n = len(a)
    offsets = np.arange(_RUN)
    seg_i = r[:, None] * _RUN + offsets
    seg_j = s[:, None] * _RUN + offsets
    ai = a[np.minimum(seg_i, n - 1)][:, :, None]
    aj = a[np.minimum(seg_j, n - 1)][:, None, :]
    # two (K, _RUN, _RUN) buffers: the dot products, then the bound in the
    # second one
    dot = ai[..., 0] * aj[..., 0]
    buf = ai[..., 1] * aj[..., 1]
    dot += buf
    dot += np.multiply(ai[..., 2], aj[..., 2], out=buf)
    np.add((padded[seg_i] + tol)[:, :, None], padded[seg_j][:, None, :], out=buf)
    np.cos(np.minimum(buf, np.pi, out=buf), out=buf)
    buf -= 1e-12
    near = dot >= buf
    del dot, buf
    # strictly later segments, excluding the two adjacent ones
    rows, cols = seg_i[:, :, None], seg_j[:, None, :]
    near &= cols >= rows + 2
    near &= cols <= rows + (n - 2)
    return np.broadcast_to(rows, near.shape)[near], np.broadcast_to(cols, near.shape)[near]


def count_self_intersections(nodes: np.ndarray, tol: float = 1e-6) -> int:
    """Transverse crossings of the closed geodesic polygon through the nodes.

    Pairs of non-adjacent segments are tested for great-circle arc crossings;
    tangential near-misses closer than ``tol`` radians also count.

    A point x of a segment's great circle lies on the minor arc from a to b
    when x.a >= a.b, x.b >= a.b and x.(a + b) > 0; the last test rules out
    the far side of the circle, which the first two admit once the arc is
    longer than 2 pi / 3.  Pairs whose start points lie farther apart than
    their two arc lengths plus ``tol`` can neither cross nor touch; a
    run-cap prune (``_near_pairs``) drops them, and the exact test runs on
    the others.
    """
    a = nodes
    b = cyclic_shift(nodes, 1)
    normals = cross3(a, b)
    nn = norm3(normals)[:, None]
    normals = normals / np.where(nn > 1e-15, nn, 1.0)
    cos_len = dot3(a, b)
    length = angular_distance(a, b)

    return sum(_crossings(a, b, normals, cos_len, i, j, tol) for i, j in _near_pairs(a, length, tol))


def _crossings(a, b, normals, cos_len, i, j, tol) -> int:
    """Exact crossings and tangential near-misses of segment pairs (i, j)."""
    u = cross3(normals[i], normals[j])
    un = norm3(u)
    parallel = un < 1e-12
    u /= np.where(un > 1e-15, un, 1.0)[:, None]
    # the two antipodal intersection points +u and -u; negation is exact
    ua, ub = dot3(u, a[i]), dot3(u, b[i])
    ja, jb = dot3(u, a[j]), dot3(u, b[j])
    count = 0
    for s in (1.0, -1.0):
        in_i = (s * ua >= cos_len[i]) & (s * ub >= cos_len[i]) & (s * (ua + ub) > 0.0)
        in_j = (s * ja >= cos_len[j]) & (s * jb >= cos_len[j]) & (s * (ja + jb) > 0.0)
        count += int(np.count_nonzero(~parallel & in_i & in_j))
    # tangential near-miss: endpoints of one arc touching the other arc
    i, j = i[parallel], j[parallel]
    if len(i):
        d = np.minimum(
            np.minimum(angular_distance(a[i], a[j]), angular_distance(a[i], b[j])),
            np.minimum(angular_distance(b[i], a[j]), angular_distance(b[i], b[j])),
        )
        count += int(np.count_nonzero(d < tol))
    return count


def certify_orbit(sys: MagneticSystem, candidate: FreePeriodLoop, e: float) -> OrbitReport:
    """Shoot from a discrete loop for one period and measure orbit residuals.

    The initial velocity uses a 4th-order stencil (closure accuracy), while
    the mean-energy residual keeps the 2nd-order central differences that the
    action discretization itself uses, so a converged waist reports the same
    residual that its period equation drove to zero.

    The first shot takes n = ``SHOOT_MIN_STEPS`` RK4 steps per period.  The
    last two shots that did not explode, with n and R n steps, give
    |y_Rn - y_n| / (R^4 - 1) as the error of the finer end state (the
    Richardson estimate of a 4th-order method; R = 2 gives the familiar / 15).
    The shots stop once that is at most ``SHOOT_BUDGET``.  Otherwise the next
    shot takes 4 n steps when the estimate exceeds 16 times the budget, so that
    by the same model 2 n would still miss it, and 4 n steps are allowed;
    else it takes 2 n, as it does after the first shot.  A shot that raises
    ``StepExplosion`` is unresolved, not a failure: its step is too coarse for
    the field, so n doubles.  No shot passes ``MAX_STEPS``: the shots stop
    after the last one allowed, and only an explosion there propagates.  The
    closure residual is the finest shot's.  Crossings are counted on the
    candidate's primitive, so that a retraced loop reports the crossings of
    the orbit it retraces.
    """
    nodes = np.asarray(candidate.nodes, dtype=float)
    p = float(candidate.p)
    if p <= 0:
        raise ValueError("candidate period must be positive")
    w = candidate.velocities()
    mean_e = float(np.mean(sys.energy(nodes, w / p)))
    v0 = candidate.fourth_order_velocities()[0] / p
    s0 = State.of(nodes[0], v0)
    n, coarse, coarse_n = SHOOT_MIN_STEPS, None, 0
    while True:
        last = 2 * n > MAX_STEPS
        try:
            fine = integrate(sys, s0, p, p / n).final_state
        except StepExplosion:
            if last:
                raise
            n *= 2
            continue
        factor = 2
        if coarse is not None:
            error = state_distance(fine, coarse) / ((n // coarse_n) ** 4 - 1)
            if error <= SHOOT_BUDGET:
                break
            if error > 16.0 * SHOOT_BUDGET and 4 * n <= MAX_STEPS:
                factor = 4
        if last:
            break
        coarse, coarse_n = fine, n
        n *= factor
    return OrbitReport(
        gradient_norm=0.0,
        mean_energy_residual=mean_e - e,
        closure_residual=state_distance(fine, s0),
        self_intersections=count_self_intersections(primitive(candidate).nodes),
    )
