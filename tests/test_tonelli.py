import numpy as np
import pytest

import dataclasses

from magflow import MagneticSystem, ScalarField, compute_e0
from magflow.sphere_geom import project_to_sphere, tangent_project

NO_FIELD = ScalarField.constant(0.0)
KINETIC = MagneticSystem(NO_FIELD)
NORTH = np.array([0.0, 0.0, 1.0])
EX = np.array([1.0, 0.0, 0.0])


def em(potential=ScalarField.constant(0.0), drift=0.0):
    return MagneticSystem(NO_FIELD, potential, drift)


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
        drifted = em(ScalarField.height(0.3, 0.0), 0.7)
        q, v = random_states(rng, 1000)
        l_diff = drifted.value(q, v) - plain.value(q, v)
        assert np.max(np.abs(l_diff)) > 1e-3  # the drift does change L
        assert np.max(np.abs(drifted.energy(q, v) - plain.energy(q, v))) < 1e-12


class TestRoundDensity:
    def test_conformal_factor(self):
        system = MagneticSystem(
            ScalarField.constant(1.0), conformal_exponent=ScalarField.constant(0.5)
        )
        assert system.round_density(NORTH) == pytest.approx(np.exp(1.0))


class TestFrozen:
    def test_fields_are_the_problem_data(self):
        names = [f.name for f in dataclasses.fields(MagneticSystem) if f.init]
        assert names == ["density", "potential", "drift", "conformal_exponent"]

    def test_reassignment_after_flux_cache_raises(self):
        system = MagneticSystem(ScalarField.height(1.0, 0.2))
        flux = system.total_flux()
        with pytest.raises(dataclasses.FrozenInstanceError):
            system.density = ScalarField.constant(1.0)
        assert system.total_flux() == flux

    def test_cache_does_not_enter_equality(self):
        cached = MagneticSystem(ScalarField.height(1.0, 0.2))
        cached.total_flux()
        assert cached == MagneticSystem(ScalarField.height(1.0, 0.2))

    @pytest.mark.parametrize(
        "u, is_round",
        [
            (ScalarField.constant(0.0), True),
            (ScalarField.linear(0.0, 0.0, 0.0, 0.0), True),
            (ScalarField.zonal_poly(0.0, 0.0), True),
            (ScalarField.constant(0.5), False),
            (ScalarField.height(0.5, 0.0), False),
        ],
        ids=["constant-0", "linear-0", "zonal-0", "constant-0.5", "height-0.5"],
    )
    def test_round_exactly_when_exponent_is_zero(self, u, is_round):
        assert MagneticSystem(NO_FIELD, conformal_exponent=u).is_round is is_round


class TestE0:
    def test_kinetic(self):
        assert compute_e0(KINETIC) == pytest.approx(0.0, abs=1e-12)

    def test_linear_potential(self):
        assert compute_e0(em(ScalarField.height(0.3, 0.0))) == pytest.approx(0.3, abs=1e-9)

    def test_quadratic_potential_with_drift(self):
        system = em(ScalarField.zonal_poly(0.0, 0.0, 0.3), 1.3)
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
        system = MagneticSystem(ScalarField.constant(0.0), drift=0.5)
        # |dW_flat| = |2*a*z| peaks at 1.0 for a = 0.5
        assert system.fiber_bounds() == 1.0

    def test_drift_bound_on_conformal_metric(self, rng):
        u = ScalarField.height(0.3, 0.0)
        system = MagneticSystem(
            ScalarField.height(0.5, 0.1), drift=0.4, conformal_exponent=u
        )
        bound = system.fiber_bounds()
        assert bound == pytest.approx(0.6 + 0.8 * np.exp(0.6), abs=1e-15)
        # the g-density of dW_flat + sigma is f + 2 a z e^{-2u}
        q = project_to_sphere(rng.normal(size=(10000, 3)))
        dens = system.density(q) + 0.8 * q[:, 2] * np.exp(-2.0 * u(q))
        assert np.all(np.abs(dens) <= bound)
