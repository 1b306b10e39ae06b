import numpy as np
import pytest

from magflow import DriftField, MagneticSystem, Metric, ScalarField, compute_e0
from magflow.sphere_geom import project_to_sphere, tangent_project

NO_FIELD = ScalarField.constant(0.0)
KINETIC = MagneticSystem(NO_FIELD)
NORTH = np.array([0.0, 0.0, 1.0])
EX = np.array([1.0, 0.0, 0.0])


def em(potential=ScalarField.constant(0.0), drift=DriftField.none(), metric=Metric.round()):
    return MagneticSystem(NO_FIELD, potential, drift, metric)


def random_states(rng, count, vmax=3.0):
    q = project_to_sphere(rng.normal(size=(count, 3)))
    v = tangent_project(q, rng.normal(size=(count, 3))) * rng.uniform(0, vmax, (count, 1))
    return q, v


class TestEval:
    def test_kinetic_unit_speed(self):
        v = np.array([0.0, 1.0, 0.0])
        assert KINETIC.value(EX, v) == pytest.approx(0.5)

    def test_rest_value_is_minus_potential(self):
        system = em(ScalarField.height(0.3, 0.0))
        assert system.value(NORTH, np.zeros(3)) == pytest.approx(-0.3)

    def test_kinetic_scaled(self):
        v = np.array([0.0, 2.0, 0.0])
        assert KINETIC.value(EX, v) == pytest.approx(2.0)


class TestEnergy:
    @pytest.mark.parametrize("e_target", [0.02, 0.5])
    def test_kinetic_definition(self, e_target):
        v = np.sqrt(2.0 * e_target) * np.array([0.0, 1.0, 0.0])
        assert KINETIC.energy(EX, v) == pytest.approx(e_target)

    def test_rest_energy_is_potential(self):
        system = em(ScalarField.height(0.3, 0.0))
        assert system.energy(NORTH, np.zeros(3)) == pytest.approx(0.3)

    def test_drift_cancellation(self, rng):
        plain = em(ScalarField.height(0.3, 0.0))
        drifted = em(ScalarField.height(0.3, 0.0), DriftField.azimuthal(0.7))
        q, v = random_states(rng, 1000)
        l_diff = drifted.value(q, v) - plain.value(q, v)
        assert np.max(np.abs(l_diff)) > 1e-3  # the drift does change L
        assert np.max(np.abs(drifted.energy(q, v) - plain.energy(q, v))) < 1e-12


class TestRoundDensity:
    def test_conformal_factor(self):
        metric = Metric.conformal(ScalarField.constant(0.5))
        system = MagneticSystem(ScalarField.constant(1.0), metric=metric)
        assert system.round_density(NORTH) == pytest.approx(np.exp(1.0))


class TestE0:
    def test_kinetic(self):
        assert compute_e0(KINETIC) == pytest.approx(0.0, abs=1e-12)

    def test_linear_potential(self):
        assert compute_e0(em(ScalarField.height(0.3, 0.0))) == pytest.approx(0.3, abs=1e-9)

    def test_quadratic_potential_with_drift(self):
        system = em(ScalarField.zonal_poly(0.0, 0.0, 0.3), DriftField.azimuthal(1.3))
        assert compute_e0(system) == pytest.approx(0.3, abs=1e-9)

    def test_interior_maximum_exact(self):
        # U = z - z^2 peaks inside (-1, 1), at z = 1/2
        system = em(ScalarField.zonal_poly(0.0, 1.0, -1.0))
        assert compute_e0(system) == pytest.approx(0.25, abs=1e-15)

    def test_non_zonal_linear_potential(self):
        system = em(ScalarField.linear(0.3, 0.4, 0.0, 0.1))
        assert compute_e0(system) == pytest.approx(0.6, abs=1e-15)

    def test_upper_bounds_rest_energies(self, rng):
        system = em(ScalarField.zonal_poly(0.1, -0.2, 0.3))
        bound = compute_e0(system)
        q = project_to_sphere(rng.normal(size=(10000, 3)))
        vals = system.energy(q, np.zeros_like(q))
        assert np.all(vals <= bound + 1e-9)


class TestFiberBounds:
    def test_sup_norm_shifted_density(self):
        system = MagneticSystem(ScalarField.height(1.0, 0.2))
        assert system.fiber_bounds() == 1.2

    def test_drift_enters_sup_norm(self):
        system = MagneticSystem(ScalarField.constant(0.0), drift=DriftField.azimuthal(0.5))
        # |dW_flat| = |2*a*z| peaks at 1.0 for a = 0.5
        assert system.fiber_bounds() == 1.0

    def test_drift_bound_on_conformal_metric(self, rng):
        u = ScalarField.height(0.3, 0.0)
        system = MagneticSystem(
            ScalarField.height(0.5, 0.1), drift=DriftField.azimuthal(0.4), metric=Metric.conformal(u)
        )
        bound = system.fiber_bounds()
        assert bound == pytest.approx(0.6 + 0.8 * np.exp(0.6), abs=1e-15)
        # the g-density of dW_flat + sigma is f + 2 a z e^{-2u}
        q = project_to_sphere(rng.normal(size=(10000, 3)))
        dens = system.density(q) + 0.8 * q[:, 2] * np.exp(-2.0 * u(q))
        assert np.all(np.abs(dens) <= bound)
