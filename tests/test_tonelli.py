import numpy as np
import pytest

from magflow import DriftField, Lagrangian, Metric, ScalarField, TwoForm, e0, fiber_bounds
from magflow.errors import NonConvexFiber
from magflow.sphere_geom import project_to_sphere, tangent_basis, tangent_project

KINETIC = Lagrangian.kinetic()
NORTH = np.array([0.0, 0.0, 1.0])
EX = np.array([1.0, 0.0, 0.0])


def em(potential=ScalarField.constant(0.0), drift=DriftField.none(), metric=Metric.round()):
    return Lagrangian.electromagnetic(metric, potential, drift)


def random_states(rng, count, vmax=3.0):
    q = project_to_sphere(rng.normal(size=(count, 3)))
    v = tangent_project(q, rng.normal(size=(count, 3))) * rng.uniform(0, vmax, (count, 1))
    return q, v


class TestEval:
    def test_kinetic_unit_speed(self):
        v = np.array([0.0, 1.0, 0.0])
        assert KINETIC.value(EX, v) == pytest.approx(0.5)

    def test_rest_value_is_minus_potential(self):
        lag = em(ScalarField.height(0.3, 0.0))
        assert lag.value(NORTH, np.zeros(3)) == pytest.approx(-0.3)

    def test_kinetic_scaled(self):
        v = np.array([0.0, 2.0, 0.0])
        assert KINETIC.value(EX, v) == pytest.approx(2.0)


class TestEnergy:
    @pytest.mark.parametrize("e_target", [0.02, 0.5])
    def test_kinetic_definition(self, e_target):
        v = np.sqrt(2.0 * e_target) * np.array([0.0, 1.0, 0.0])
        assert KINETIC.energy(EX, v) == pytest.approx(e_target)

    def test_rest_energy_is_potential(self):
        lag = em(ScalarField.height(0.3, 0.0))
        assert lag.energy(NORTH, np.zeros(3)) == pytest.approx(0.3)

    def test_drift_cancellation(self, rng):
        plain = em(ScalarField.height(0.3, 0.0))
        drifted = em(ScalarField.height(0.3, 0.0), DriftField.azimuthal(0.7))
        q, v = random_states(rng, 1000)
        lag_diff = drifted.value(q, v) - plain.value(q, v)
        assert np.max(np.abs(lag_diff)) > 1e-3  # the drift does change L
        assert np.max(np.abs(drifted.energy(q, v) - plain.energy(q, v))) < 1e-12


class TestLegendre:
    def test_kinetic_identity(self, rng):
        q, v = random_states(rng, 50)
        assert np.allclose(KINETIC.legendre_vector(q, v), v, atol=1e-14)

    def test_drift_shift(self, rng):
        drift = DriftField.azimuthal(0.4)
        lag = em(drift=drift)
        q, v = random_states(rng, 50)
        expected = v + tangent_project(q, drift.vector(q))
        assert np.allclose(lag.legendre_vector(q, v), expected, atol=1e-13)

    def test_zero_velocity(self):
        assert np.allclose(KINETIC.legendre_vector(EX, np.zeros(3)), np.zeros(3))

    def test_directional_derivative_consistency(self, rng):
        lag = Lagrangian.fiber_polynomial(0.4, 0.1, potential=ScalarField.height(0.2, 0.0))
        for _ in range(20):
            q, v = random_states(rng, 1)
            q, v = q[0], v[0]
            e1, e2 = tangent_basis(q)
            for w in (e1, e2):
                h = 1e-6 * max(1.0, float(np.linalg.norm(v)))
                fd = (lag.value(q, v + h * w) - lag.value(q, v - h * w)) / (2.0 * h)
                pairing = lag.metric.dot(q, lag.legendre_vector(q, v), w)
                assert pairing == pytest.approx(fd, rel=1e-6, abs=1e-9)


class TestE0:
    def test_kinetic(self):
        assert e0(KINETIC) == pytest.approx(0.0, abs=1e-12)

    def test_linear_potential(self):
        assert e0(em(ScalarField.height(0.3, 0.0))) == pytest.approx(0.3, abs=1e-9)

    def test_quadratic_potential_with_drift(self):
        lag = em(ScalarField.zonal_poly(0.0, 0.0, 0.3), DriftField.azimuthal(1.3))
        assert e0(lag) == pytest.approx(0.3, abs=1e-9)

    def test_interior_maximum_exact(self):
        # U = z - z^2 peaks inside (-1, 1), at z = 1/2
        assert e0(em(ScalarField.zonal_poly(0.0, 1.0, -1.0))) == pytest.approx(0.25, abs=1e-15)

    def test_non_zonal_linear_potential(self):
        assert e0(em(ScalarField.linear(0.3, 0.4, 0.0, 0.1))) == pytest.approx(0.6, abs=1e-15)

    def test_upper_bounds_rest_energies(self, rng):
        lag = em(ScalarField.zonal_poly(0.1, -0.2, 0.3))
        bound = e0(lag)
        q = project_to_sphere(rng.normal(size=(10000, 3)))
        vals = lag.energy(q, np.zeros_like(q))
        assert np.all(vals <= bound + 1e-9)


class TestFiberBounds:
    def test_kinetic_h1(self, rng):
        fb = fiber_bounds(KINETIC, TwoForm(ScalarField.constant(0.0)), 2000, rng)
        assert fb.h1 == pytest.approx(0.5)

    def test_sup_norm_shifted_density(self, rng):
        fb = fiber_bounds(KINETIC, TwoForm(ScalarField.height(1.0, 0.2)), 2000, rng)
        assert fb.sup_norm_dlambda_plus_sigma == pytest.approx(1.2, abs=1e-3)

    def test_h2_envelope(self, rng):
        lag = em(ScalarField.height(0.3, 0.0))
        fb = fiber_bounds(lag, TwoForm(ScalarField.constant(0.0)), 2000, rng)
        assert fb.h1 < fb.h2 <= 0.9
        q, v = random_states(rng, 500, vmax=50.0)
        assert np.all(lag.value(q, v) <= fb.h2 * (lag.metric.norm_sq(q, v) + 1.0) + 1e-12)

    def test_drift_enters_sup_norm(self, rng):
        lag = em(drift=DriftField.azimuthal(0.5))
        fb = fiber_bounds(lag, TwoForm(ScalarField.constant(0.0)), 2000, rng)
        # |dW_flat| = |2*a*z| peaks at 1.0 for a = 0.5
        assert fb.sup_norm_dlambda_plus_sigma == pytest.approx(1.0, abs=1e-3)

    def test_nonconvex_rejected(self, rng):
        bad = Lagrangian.fiber_polynomial(-0.2, 0.0)
        with pytest.raises(NonConvexFiber):
            fiber_bounds(bad, TwoForm(ScalarField.constant(0.0)), 1000, rng)

    def test_sample_count_guard(self, rng):
        with pytest.raises(ValueError):
            fiber_bounds(KINETIC, TwoForm(ScalarField.constant(0.0)), 10, rng)


class TestQuadraticExtension:
    def test_c1_blend(self):
        lag = Lagrangian.fiber_polynomial(0.5, 0.25, extension_radius=2.0)
        q = EX
        direction = np.array([0.0, 1.0, 0.0])
        r = lag.extension_radius
        eps = 1e-10
        # one-sided limits of the value and the fiber gradient agree at |v| = R
        below = lag.value(q, (r - eps) * direction)
        above = lag.value(q, (r + eps) * direction)
        grad_below = lag.ambient_dv(q, (r - eps) * direction)
        grad_above = lag.ambient_dv(q, (r + eps) * direction)
        slope = float(np.dot(grad_below, direction))
        assert abs(above - below - 2.0 * eps * slope) < 1e-8
        assert np.max(np.abs(grad_above - grad_below)) < 1e-8

    def test_quadratic_outside(self):
        lag = Lagrangian.fiber_polynomial(0.5, 0.25, extension_radius=2.0)
        q = EX
        d = np.array([0.0, 1.0, 0.0])
        # linear in s = |v|^2 beyond R: second differences in s vanish
        s_vals = np.array([5.0, 7.0, 9.0])
        vals = np.array([lag.value(q, np.sqrt(s) * d) for s in s_vals])
        assert vals[2] - 2 * vals[1] + vals[0] == pytest.approx(0.0, abs=1e-12)

    def test_fiber_convexity_random_second_differences(self, rng):
        lag = Lagrangian.fiber_polynomial(0.3, 0.2)
        for _ in range(200):
            q, v = random_states(rng, 1)
            q, v = q[0], v[0]
            w = tangent_project(q, rng.normal(size=3))
            w /= np.linalg.norm(w)
            h = 1e-3
            second = lag.value(q, v + h * w) - 2.0 * lag.value(q, v) + lag.value(q, v - h * w)
            assert second > 0
