import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from magflow import (
    FreePeriodLoop,
    LiftedLoop,
    MagneticSystem,
    ScalarField,
    State,
    certify_orbit,
    energy_drift,
    great_circle_loop,
    integrate,
    iterate,
    latitude_loop,
    optimal_period,
)
from magflow import flow
from magflow.errors import StepExplosion
from magflow.flow import Trajectory, count_self_intersections, state_distance
from magflow.sphere_geom import angular_distance, project_to_sphere

EX = np.array([1.0, 0.0, 0.0])
EY = np.array([0.0, 1.0, 0.0])


def crossings_reference(nodes: np.ndarray, tol: float = 1e-6) -> int:
    """All-pairs count of arc crossings and tangential near-misses, one
    segment pair at a time in Python floats.  A point p of a segment's great
    circle is on the minor arc when p.a >= a.b, p.b >= a.b and p.(a + b) > 0.
    A segment whose ends coincide has no great circle, so it takes the
    near-miss test against every other segment."""

    def cross(x, y):
        return (x[1] * y[2] - x[2] * y[1], x[2] * y[0] - x[0] * y[2], x[0] * y[1] - x[1] * y[0])

    def dot(x, y):
        return x[0] * y[0] + x[1] * y[1] + x[2] * y[2]

    def angle(x, y):
        c = cross(x, y)
        return math.atan2(math.sqrt(dot(c, c)), dot(x, y))

    pts = [tuple(float(c) for c in q) for q in nodes]
    n = len(pts)
    segs = [(pts[i], pts[(i + 1) % n]) for i in range(n)]
    normals = []
    for a, b in segs:
        c = cross(a, b)
        r = math.sqrt(dot(c, c))
        normals.append(tuple(x / r for x in c) if r > 0.0 else (0.0, 0.0, 0.0))
    count = 0
    for i in range(n):
        ai, bi = segs[i]
        for j in range(i + 2, n):
            if i == 0 and j == n - 1:
                continue  # the closing segment is adjacent to the first
            aj, bj = segs[j]
            u = cross(normals[i], normals[j])
            un = math.sqrt(dot(u, u))
            if un < 1e-12:
                count += min(angle(x, y) for x in (ai, bi) for y in (aj, bj)) < tol
                continue
            for s in (1.0, -1.0):
                p = tuple(s * x / un for x in u)
                on_i = min(dot(p, ai), dot(p, bi)) >= dot(ai, bi) and dot(p, ai) + dot(p, bi) > 0
                on_j = min(dot(p, aj), dot(p, bj)) >= dot(aj, bj) and dot(p, aj) + dot(p, bj) > 0
                count += on_i and on_j
    return count


def magnetic_el_field(sys: MagneticSystem, state: State) -> tuple[np.ndarray, np.ndarray]:
    """Right-hand side (dq, dv) of the equations of motion at a state."""
    rhs, _ = flow._equations(sys)
    out = rhs(*(float(c) for c in state.q), *(float(c) for c in state.v))
    return np.array(out[:3]), np.array(out[3:])


def field_reference(sys: MagneticSystem, q: np.ndarray, v: np.ndarray):
    """Right-hand side (dq, dv) in numpy vector form, one state at a time."""
    qh = q / np.linalg.norm(q)
    vt = v - np.dot(qh, v) * qh
    vv = np.dot(vt, vt)
    dv = -vv * qh
    grad_u_pot = sys.potential.grad(qh)
    # dW_flat = 2 a z dA_round for the drift a (z_hat x q)
    if sys.is_round:
        force = -(grad_u_pot - np.dot(qh, grad_u_pot) * qh)
        dens = sys.density(qh) + 2 * sys.drift * qh[2]
        force = force + dens * np.cross(vt, qh)
    else:
        e2u = float(sys.exp2u(qh))
        du = sys.conformal_exponent.grad(qh)
        dut = du - np.dot(qh, du) * qh
        dv = dv - 2.0 * np.dot(dut, vt) * vt + vv * dut
        force = -(grad_u_pot - np.dot(qh, grad_u_pot) * qh)
        dens = sys.density(qh) * e2u + 2 * sys.drift * qh[2]
        force = (force + dens * np.cross(vt, qh)) / e2u
    return vt, dv + force


def rk4_reference(sys: MagneticSystem, s0: State, T: float, h: float) -> Trajectory:
    """Fixed-step RK4 on numpy state vectors with ``field_reference``."""
    n = max(1, int(round(T / h)))
    dt = T / n
    q = np.array(s0.q, dtype=float)
    v = np.array(s0.v, dtype=float)
    qs = np.empty((n + 1, 3))
    vs = np.empty((n + 1, 3))
    es = np.empty(n + 1)
    qs[0], vs[0], es[0] = q, v, float(sys.energy(q, v))
    for k in range(n):
        k1q, k1v = field_reference(sys, q, v)
        k2q, k2v = field_reference(sys, q + 0.5 * dt * k1q, v + 0.5 * dt * k1v)
        k3q, k3v = field_reference(sys, q + 0.5 * dt * k2q, v + 0.5 * dt * k2v)
        k4q, k4v = field_reference(sys, q + dt * k3q, v + dt * k3v)
        q = q + (dt / 6.0) * (k1q + 2.0 * k2q + 2.0 * k3q + k4q)
        v = v + (dt / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        q = q / np.linalg.norm(q)
        v = v - np.dot(q, v) * q
        qs[k + 1], vs[k + 1], es[k + 1] = q, v, float(sys.energy(q, v))
    return Trajectory(np.linspace(0.0, T, n + 1), qs, vs, es)


def reference_system(name: str) -> MagneticSystem:
    """Round, conformal, and potential-plus-azimuthal-drift test systems."""
    if name == "round":
        return MagneticSystem(ScalarField.height(1.0, 0.2))
    if name == "conformal":
        return MagneticSystem(
            ScalarField.linear(0.3, 0.1, 0.7, 0.1),
            ScalarField.zonal_poly(0.0, 0.1, 0.2),
            0.2,
            ScalarField.linear(0.1, -0.05, 0.15, 0.0),
        )
    return MagneticSystem(
        ScalarField.zonal_poly(0.2, 0.5, 0.1),
        ScalarField.zonal_poly(0.1, 0.2, -0.3),
        0.35,
    )


class TestField:
    def test_geodesic_curvature_term(self, rng):
        sys0 = MagneticSystem(ScalarField.constant(0.0))
        q = project_to_sphere(rng.normal(size=3))
        v = rng.normal(size=3)
        v -= np.dot(q, v) * q
        dq, dv = magnetic_el_field(sys0, State.of(q, v))
        assert np.allclose(dq, v)
        assert np.allclose(dv, -np.dot(v, v) * q, atol=1e-12)

    def test_lorentz_term_direction(self, sys_const):
        # force = f * (v x q): the sign under which critical loops of the
        # lifted action are genuine trajectories
        dq, dv = magnetic_el_field(sys_const, State.of(EX, EY))
        lorentz = dv - (-1.0 * EX)  # remove the curvature term -|v|^2 q
        assert np.allclose(lorentz, np.cross(EY, EX), atol=1e-12)
        assert np.allclose(lorentz, [0.0, 0.0, -1.0], atol=1e-12)

    def test_rest_point(self):
        sys0 = MagneticSystem(ScalarField.constant(1.0))
        dq, dv = magnetic_el_field(sys0, State.of(EX, np.zeros(3)))
        assert np.allclose(dq, 0.0)
        assert np.allclose(dv, 0.0)

    @pytest.mark.parametrize("name", ["round", "conformal", "potential-drift"])
    def test_matches_reference(self, rng, name):
        sys = reference_system(name)
        for _ in range(50):
            q = project_to_sphere(rng.normal(size=3))
            v = rng.normal(size=3)
            dq, dv = magnetic_el_field(sys, State.of(q, v))
            rq, rv = field_reference(sys, q, v)
            assert np.max(np.abs(dq - rq)) <= 1e-13
            assert np.max(np.abs(dv - rv)) <= 1e-13


class TestIntegrate:
    def test_great_circle_closure(self):
        sys0 = MagneticSystem(ScalarField.constant(0.0))
        s0 = State.of(EX, EY)
        traj = integrate(sys0, s0, 2.0 * np.pi, 1e-3)
        assert state_distance(traj.final_state, s0) < 1e-7

    def test_magnetic_circle_period(self, sys_const):
        # f = 1, e = 0.5: circle of geodesic radius pi/4, period pi*sqrt(2)
        s0 = State.of(EX, EY)
        traj = integrate(sys_const, s0, np.pi * np.sqrt(2.0), 1e-3)
        assert state_distance(traj.final_state, s0) < 1e-6

    def test_stationary(self):
        sys0 = MagneticSystem(ScalarField.constant(1.0))
        traj = integrate(sys0, State.of(EX, np.zeros(3)), 5.0, 1e-2)
        assert np.max(np.abs(traj.positions - EX)) < 1e-12
        assert np.max(np.abs(traj.velocities)) < 1e-12

    def test_tangency_and_norm_preserved(self, sys_const):
        traj = integrate(sys_const, State.of(EX, 0.7 * EY), 10.0, 1e-2)
        norms = np.linalg.norm(traj.positions, axis=1)
        dots = np.sum(traj.positions * traj.velocities, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-12
        assert np.max(np.abs(dots)) < 1e-12

    def test_uniform_times(self, sys_const):
        traj = integrate(sys_const, State.of(EX, EY), 1.0, 1e-2)
        steps = np.diff(traj.times)
        assert np.max(np.abs(steps - steps[0])) < 1e-12

    def test_step_guards(self, sys_const):
        s0 = State.of(EX, EY)
        for T, h in [(0.05, 0.1), (1.0, 0.0), (1.0, -1e-3), (1.0, math.nan), (1e8, 1e-2)]:
            with pytest.raises(ValueError):
                integrate(sys_const, s0, T, h)
        # the step has no cap of its own: one step may span the whole time
        assert len(integrate(sys_const, s0, 1.0, 1.0).times) == 2

    def test_conformal_path_runs(self):
        sysc = MagneticSystem(
            ScalarField.constant(0.5), conformal_exponent=ScalarField.height(0.1, 0.0)
        )
        traj = integrate(sysc, State.of(EX, 0.5 * EY), 5.0, 1e-2)
        assert energy_drift(traj) < 1e-6

    @pytest.mark.parametrize("name", ["conformal", "potential-drift"])
    def test_matches_reference_loop(self, name):
        sys = reference_system(name)
        s0 = State.of(np.array([0.6, 0.0, 0.8]), np.array([0.1, 0.7, -0.2]))
        traj = integrate(sys, s0, 5.0, 1e-3)
        ref = rk4_reference(sys, s0, 5.0, 1e-3)
        assert len(traj.times) == 5001
        assert np.max(np.abs(traj.positions - ref.positions)) <= 1e-12
        assert np.max(np.abs(traj.velocities - ref.velocities)) <= 1e-12
        assert np.max(np.abs(traj.energy_series - ref.energy_series)) <= 1e-12

    @pytest.mark.parametrize("name", ["round", "conformal"])
    def test_non_finite_state_explodes(self, name):
        # 1e200 squared overflows to inf and the state turns NaN
        with pytest.raises(StepExplosion):
            integrate(reference_system(name), State.of(EX, 1e200 * EY), 1.0, 1e-2)


class TestEnergyDrift:
    def test_stationary_zero(self):
        sys0 = MagneticSystem(ScalarField.constant(1.0))
        traj = integrate(sys0, State.of(EX, np.zeros(3)), 1.0, 1e-2)
        assert energy_drift(traj) == 0.0

    def test_long_run_bound(self, sys_const):
        v0 = EY  # e = 0.5
        traj = integrate(sys_const, State.of(EX, v0), 50.0, 1e-3)
        assert energy_drift(traj) <= 1e-7

    def test_high_order_convergence(self, sys_const):
        # circular orbits are effectively linear rotations, for which the RK4
        # energy error is O(h^5) secular (ratio ~32 per halving); assert at
        # least 4th-order behavior in the truncation-dominated regime
        d1 = energy_drift(integrate(sys_const, State.of(EX, EY), 50.0, 4e-2))
        d2 = energy_drift(integrate(sys_const, State.of(EX, EY), 50.0, 2e-2))
        assert d1 > 1e-9  # truncation-dominated
        assert d1 / d2 >= 12.0

    def test_time_reversal(self, sys_z):
        neg = MagneticSystem(ScalarField.height(-1.0, 0.0))
        s0 = State.of(EX, 0.4 * EY)
        fwd = integrate(sys_z, s0, 8.0, 1e-3)
        sf = fwd.final_state
        back = integrate(neg, State.of(sf.q, -sf.v), 8.0, 1e-3)
        assert state_distance(back.final_state, State.of(s0.q, -s0.v)) < 1e-8

    def test_drift_force_matches_density(self):
        # dW_flat acts on trajectories exactly like a magnetic density
        sys_drift = MagneticSystem(ScalarField.constant(0.0), drift=0.35)
        sys_dens = MagneticSystem(ScalarField.height(0.7, 0.0))
        s0 = State.of(EX, 0.6 * EY)
        t1 = integrate(sys_drift, s0, 5.0, 1e-3)
        t2 = integrate(sys_dens, s0, 5.0, 1e-3)
        assert state_distance(t1.final_state, t2.final_state) < 1e-12


class TestCertify:
    def test_exact_equator(self, sys_z):
        loop = latitude_loop(0.0, 128)
        loop = loop.with_period(optimal_period(sys_z, loop, 0.02))
        rep = certify_orbit(sys_z, loop, 0.02)
        assert rep.closure_residual <= 1e-5
        assert abs(rep.mean_energy_residual) <= 1e-10
        assert rep.self_intersections == 0

    def test_random_loop_fails(self, sys_z, rng):
        from tests.conftest import random_loop

        loop = random_loop(rng, 64)
        loop = loop.with_period(optimal_period(sys_z, loop, 0.02))
        rep = certify_orbit(sys_z, loop, 0.02)
        assert rep.closure_residual > 1e-3

    def test_certified_is_the_closure_bound(self):
        def report(closure):
            return flow.OrbitReport(0.0, 0.0, closure, 0)

        assert report(flow.CERTIFY_CLOSURE_TOL).certified
        assert not report(np.nextafter(flow.CERTIFY_CLOSURE_TOL, 1.0)).certified
        assert "certified" not in dataclasses.asdict(report(0.0))  # no stdout key

    def test_period_guard(self, sys_z):
        loop = latitude_loop(0.0, 32)
        with pytest.raises(ValueError):
            certify_orbit(sys_z, FreePeriodLoop(loop.nodes, 1.0).with_period(-1.0), 0.02)

    @staticmethod
    def fixed_step_closure(sys, loop, h):
        """Closure residual of one fixed-step shot from the loop's first node."""
        s0 = State.of(loop.nodes[0], loop.fourth_order_velocities()[0] / loop.p)
        return state_distance(integrate(sys, s0, loop.p, h).final_state, s0)

    @staticmethod
    def spy_on_integrate(monkeypatch):
        """Record the step count of every ``flow.integrate`` call, including
        the shots that explode."""
        steps = []

        def spy(sys, s0, T, h):
            steps.append(max(1, int(round(T / h))))
            return integrate(sys, s0, T, h)

        monkeypatch.setattr(flow, "integrate", spy)
        return steps

    @staticmethod
    def assert_schedule(steps):
        """The first shot takes ``SHOOT_MIN_STEPS``, each later one 2 or 4
        times the one before, and none passes ``MAX_STEPS``."""
        assert steps[0] == flow.SHOOT_MIN_STEPS
        assert all(b in (2 * a, 4 * a) for a, b in zip(steps, steps[1:]))
        assert max(steps) <= flow.MAX_STEPS

    def test_step_doubling_matches_fine_reference(self, sys_z):
        loop = latitude_loop(0.0, 128)
        loop = loop.with_period(optimal_period(sys_z, loop, 0.02))
        rep = certify_orbit(sys_z, loop, 0.02)
        assert abs(rep.closure_residual - self.fixed_step_closure(sys_z, loop, 1e-4)) <= 1e-7

    def test_strong_field_refines(self, monkeypatch):
        sys = MagneticSystem(ScalarField.height(60.0, 0.0))
        loop = latitude_loop(0.3, 128)
        loop = loop.with_period(optimal_period(sys, loop, 2.0))
        steps = self.spy_on_integrate(monkeypatch)
        rep = certify_orbit(sys, loop, 2.0)
        self.assert_schedule(steps)
        assert len(steps) >= 4
        # an estimate above 16 times the budget skips a doubling
        assert any(b == 4 * a for a, b in zip(steps, steps[1:]))
        assert abs(rep.closure_residual - self.fixed_step_closure(sys, loop, 1e-4)) <= 1e-7

    def test_smooth_orbit_stops_after_one_pair(self, sys_z, monkeypatch):
        loop = latitude_loop(0.0, 128)
        loop = loop.with_period(optimal_period(sys_z, loop, 0.02))
        steps = self.spy_on_integrate(monkeypatch)
        certify_orbit(sys_z, loop, 0.02)
        # the 128/64 pair estimates 6.2e-7, within 16 times the budget, so
        # one doubling brings the pair 256/128 that meets it (4.1e-8)
        n = flow.SHOOT_MIN_STEPS
        assert steps == [n, 2 * n, 4 * n]

    def test_doubling_stops_at_step_cap(self, monkeypatch):
        sys = MagneticSystem(ScalarField.height(60.0, 0.0))
        loop = latitude_loop(0.3, 128)
        loop = loop.with_period(optimal_period(sys, loop, 2.0))
        # uncapped, the shots take 64, 128, 512, 2048 and 4096 steps: under a
        # cap of 300 the jump to 512 becomes a doubling, and under either cap
        # the shots stop at the last one allowed
        for cap, expected in [(300, [64, 128, 256]), (1000, [64, 128, 512])]:
            monkeypatch.setattr(flow, "MAX_STEPS", cap)
            steps = self.spy_on_integrate(monkeypatch)
            certify_orbit(sys, loop, 2.0)
            assert steps == expected

    def test_first_shot_at_step_cap(self, sys_z, monkeypatch):
        # the first shot takes SHOOT_MIN_STEPS whatever the period: the step
        # count comes from the error budget, not from a cap on the step
        for p in (0.05, 6.500000000000001, 500.0):
            loop = latitude_loop(0.0, 32).with_period(p)
            steps = self.spy_on_integrate(monkeypatch)
            certify_orbit(sys_z, loop, 0.02)
            self.assert_schedule(steps)

    @pytest.mark.parametrize("m", [2, 3])
    def test_retraced_orbit_counts_primitive_crossings(self, sys_z, m):
        # every segment of an m-fold circle lies on m - 1 others, so the
        # retraced nodes count overlaps by rounding; the circle itself is simple
        retraced = iterate(LiftedLoop(latitude_loop(-0.5, 40), 0.0), m).loop
        assert count_self_intersections(retraced.nodes) > 0
        retraced = retraced.with_period(optimal_period(sys_z, retraced, 0.02))
        assert certify_orbit(sys_z, retraced, 0.02).self_intersections == 0

    def test_strong_field_explosion_refines(self):
        # the first shots of f = 200z near the pole explode (the step is too
        # coarse for the gyration), which only means the step must shrink
        sys = MagneticSystem(ScalarField.height(200.0, 0.0))
        loop = latitude_loop(0.9, 128)
        loop = loop.with_period(optimal_period(sys, loop, 0.02))
        with pytest.raises(StepExplosion):
            self.fixed_step_closure(sys, loop, loop.p / flow.SHOOT_MIN_STEPS)  # the first shot
        rep = certify_orbit(sys, loop, 0.02)
        # a fixed 1e-4 step errs by 1.9e-7 on this orbit; 5e-5 by about 1e-8
        assert abs(rep.closure_residual - self.fixed_step_closure(sys, loop, 5e-5)) <= 1e-7


class TestSelfIntersections:
    def test_circle_simple(self):
        assert count_self_intersections(latitude_loop(0.3, 64).nodes) == 0

    def test_figure_eight(self):
        t = 2.0 * np.pi * np.arange(64) / 64
        # a curve crossing itself once: lemniscate-like path on the sphere
        x = 0.6 * np.sin(t)
        y = 0.5 * np.sin(t) * np.cos(t)
        nodes = project_to_sphere(np.stack([x, y, np.ones_like(t)], axis=1))
        assert count_self_intersections(nodes) == crossings_reference(nodes) >= 1

    def test_random_polygon_exact(self):
        # random nodes near the north pole: a wiggly polygon with many crossings
        rng = np.random.default_rng(7)
        nodes = project_to_sphere(rng.normal(size=(40, 3)) * 0.3 + np.array([0.0, 0.0, 1.0]))
        expected = crossings_reference(nodes)
        assert expected > 50
        assert count_self_intersections(nodes) == expected

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("spread", [0.05, 1.0])
    def test_seeded_polygons_exact(self, seed, spread):
        # tight polygons have short arcs and few near pairs; wide ones have
        # arcs longer than 2 pi / 3, whose far side the counter must reject
        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 101))
        nodes = project_to_sphere(rng.normal(size=(n, 3)) * spread + np.array([0.0, 0.0, 1.0]))
        assert count_self_intersections(nodes) == crossings_reference(nodes)

    def test_long_arcs_do_not_cross(self):
        # two 2.5-rad arcs on great circles that meet at +x and -x; x is off
        # the equator arc and -x off the tilted arc, so they do not cross.  x
        # passes the equator arc's two dot-product tests all the same: it lies
        # in the arc's far side, which only x.(a + b) > 0 rules out
        def equator(t):
            return np.array([np.cos(t), np.sin(t), 0.0])

        x = equator(-1.89)
        w = np.cos(1.0) * equator(-1.89 + np.pi / 2) + np.sin(1.0) * np.array([0.0, 0.0, 1.0])
        arc = [np.cos(t) * x + np.sin(t) * w for t in (-0.2, 2.3)]
        nodes = np.array([equator(0.0), equator(2.5), *arc])
        assert np.allclose(angular_distance(nodes, np.roll(nodes, -1, axis=0))[[0, 2]], 2.5)
        assert count_self_intersections(nodes) == crossings_reference(nodes) == 0

    @pytest.mark.parametrize("block", [1, 500])
    def test_pair_blocks_do_not_change_the_count(self, monkeypatch, block):
        rng = np.random.default_rng(7)
        loops = [
            project_to_sphere(rng.normal(size=(40, 3)) * 0.3 + np.array([0.0, 0.0, 1.0])),
            project_to_sphere(rng.normal(size=(64, 3))),
            np.tile(latitude_loop(0.3, 64).nodes, (2, 1)),
            np.tile(latitude_loop(0.0, 64).nodes, (2, 1)),
        ]
        expected = [count_self_intersections(nodes) for nodes in loops]
        monkeypatch.setattr(flow, "_PAIR_BLOCK", block)
        assert [count_self_intersections(nodes) for nodes in loops] == expected

    def test_retraced_loops_exact(self):
        # a 2-fold retraced loop puts every segment on top of its copy, which
        # takes the parallel near-miss branch
        circle = np.tile(latitude_loop(0.3, 64).nodes, (2, 1))
        equator = np.tile(latitude_loop(0.0, 64).nodes, (2, 1))
        assert count_self_intersections(circle) == crossings_reference(circle) == 88
        assert count_self_intersections(equator) == crossings_reference(equator) == 192
        # 3-fold: every segment lies on two copies of itself
        circle = np.tile(latitude_loop(0.3, 64).nodes, (3, 1))
        equator = np.tile(latitude_loop(0.0, 64).nodes, (3, 1))
        assert count_self_intersections(circle) == crossings_reference(circle) == 264
        assert count_self_intersections(equator) == crossings_reference(equator) == 576

    def test_great_circle_simple(self):
        # every segment pair of an exact great circle is parallel, so each
        # one takes the near-miss branch; none of them touches
        axis = np.array([0.0, 1.0, 0.3])
        assert count_self_intersections(great_circle_loop(axis, 512).nodes) == 0


class TestRunCapPrune:
    """The run-cap prune drops only segment pairs that cannot meet."""

    # tracemalloc peaks of one count at N = 2048 under the all-pairs blocked
    # first pass this prune replaced (numpy 2.4): the pruned count must not
    # hold more memory
    BLOCKED_PASS_PEAK_KIB = {"great circle": 693, "wide": 2877}

    @pytest.mark.parametrize("n", [16, 17, 100, 513])
    @pytest.mark.parametrize("spread", [0.05, 1.0], ids=["tight", "wide"])
    def test_matches_reference(self, n, spread):
        # run length 16 divides only some of these node counts
        rng = np.random.default_rng(n)
        nodes = project_to_sphere(rng.normal(size=(n, 3)) * spread + np.array([0.0, 0.0, 1.0]))
        assert count_self_intersections(nodes) == crossings_reference(nodes)

    @pytest.mark.parametrize("n", [16, 40])
    def test_arcs_longer_than_two_thirds_pi(self, n):
        nodes = project_to_sphere(np.random.default_rng(n).normal(size=(n, 3)))
        length = angular_distance(nodes, np.roll(nodes, -1, axis=0))
        assert length.max() > 2.0 * np.pi / 3.0
        assert count_self_intersections(nodes) == crossings_reference(nodes)

    def test_coincident_nodes(self):
        # a great circle that stalls for 20 nodes: the stall's zero-length
        # segments span a run boundary and touch their neighbours
        nodes = great_circle_loop(np.array([0.0, 1.0, 0.3]), 64).nodes
        nodes = np.concatenate([nodes[:10], np.repeat(nodes[10:11], 20, axis=0), nodes[11:]])
        expected = crossings_reference(nodes)
        assert expected > 0
        assert count_self_intersections(nodes) == expected

    def test_run_spanning_a_great_circle(self):
        # the first run of 16 nodes goes once round a great circle, so its
        # mean is near zero and its cap takes the whole sphere
        ring = great_circle_loop(np.array([0.0, 0.0, 1.0]), 16).nodes
        t = np.linspace(0.0, 2.0 * np.pi, 24, endpoint=False)
        tilted = np.stack([0.8 + 0.0 * t, 0.6 * np.cos(t), 0.6 * np.sin(t)], axis=1)
        nodes = np.concatenate([ring, project_to_sphere(tilted)])
        assert np.linalg.norm(ring.sum(axis=0)) < 1e-9
        expected = crossings_reference(nodes)
        assert expected > 0
        assert count_self_intersections(nodes) == expected

    @pytest.mark.parametrize("run", [1, 7, 64])
    def test_run_length_does_not_change_the_count(self, monkeypatch, run):
        rng = np.random.default_rng(7)
        loops = [
            project_to_sphere(rng.normal(size=(100, 3)) * 0.3 + np.array([0.0, 0.0, 1.0])),
            project_to_sphere(rng.normal(size=(64, 3))),
            np.tile(latitude_loop(0.3, 64).nodes, (2, 1)),
        ]
        expected = [count_self_intersections(nodes) for nodes in loops]
        monkeypatch.setattr(flow, "_RUN", run)
        assert [count_self_intersections(nodes) for nodes in loops] == expected

    @pytest.mark.parametrize("shape", ["great circle", "wide"])
    def test_peak_memory_at_2048(self, shape):
        if shape == "great circle":
            nodes = great_circle_loop(np.array([0.0, 1.0, 0.3]), 2048).nodes
        else:
            nodes = project_to_sphere(np.random.default_rng(5).normal(size=(2048, 3)))
        count_self_intersections(nodes)  # first-call allocations stay out
        tracemalloc.start()
        try:
            count_self_intersections(nodes)
            peak = tracemalloc.get_traced_memory()[1] / 1024.0
        finally:
            tracemalloc.stop()
        # measured 551 and 1251 KiB
        assert peak <= self.BLOCKED_PASS_PEAK_KIB[shape]
