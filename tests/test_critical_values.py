import numpy as np
import pytest
from scipy import integrate as sp_integrate
from scipy import optimize

from magflow import (
    MagneticSystem,
    ScalarField,
    compute_e0,
    e1_lower_bound_general,
    e1_lower_bound_symmetric,
    latitude_circle_action,
    lifted_action_A,
)
from magflow.critical_values import cap_flux
from magflow.errors import NotSymmetric
from magflow.variational import SolverConfig


def oracle_latitude_action(f_profile, e, z0):
    """Independent 1-D oracle: length * sqrt(2e) + 2*pi*int_{-1}^{z0} f."""
    flux, _ = sp_integrate.quad(f_profile, -1.0, z0, limit=200)
    return 2.0 * np.pi * np.sqrt(1.0 - z0 * z0) * np.sqrt(2.0 * e) + 2.0 * np.pi * flux


def oracle_e1(f_profile, e_hi=0.5):
    """Independent oracle: bisection on the sign of the minimal latitude action."""

    def admissible(e):
        res = optimize.minimize_scalar(
            lambda z: oracle_latitude_action(f_profile, e, z),
            bounds=(-0.999, 0.999),
            method="bounded",
            options={"xatol": 1e-12},
        )
        return res.fun < 0

    lo, hi = 1e-6, e_hi
    if not admissible(lo):
        return 0.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if admissible(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestE0:
    def test_kinetic(self, sys_z):
        assert compute_e0(sys_z) == pytest.approx(0.0, abs=1e-12)

    def test_linear(self):
        sysu = MagneticSystem(
            ScalarField.height(1.0, 0.0), potential=ScalarField.height(0.3, 0.0)
        )
        assert compute_e0(sysu) == pytest.approx(0.3, abs=1e-9)

    def test_quadratic(self):
        sysu = MagneticSystem(
            ScalarField.height(1.0, 0.0), potential=ScalarField.zonal_poly(0.0, 0.0, 0.3)
        )
        assert compute_e0(sysu) == pytest.approx(0.3, abs=1e-9)


class TestLatitudeAction:
    def test_equator_value(self, sys_z):
        assert latitude_circle_action(sys_z, 0.02, 0.0) == pytest.approx(-0.6 * np.pi, abs=1e-12)

    def test_degenerating_circles(self, sys_z):
        for z0 in (-0.99999, 0.99999):
            val = latitude_circle_action(sys_z, 0.02, z0)
            assert 0.0 < val < 1e-2

    def test_constant_density_positive(self, sys_const, rng):
        for _ in range(20):
            e = float(rng.uniform(0.01, 1.0))
            z0 = float(rng.uniform(-0.95, 0.95))
            assert latitude_circle_action(sys_const, e, z0) > 0.0

    def test_matches_oracle(self, sys_shifted, rng):
        for _ in range(25):
            e = float(rng.uniform(0.01, 0.3))
            z0 = float(rng.uniform(-0.95, 0.95))
            expect = oracle_latitude_action(lambda z: z + 0.2, e, z0)
            assert latitude_circle_action(sys_shifted, e, z0) == pytest.approx(expect, abs=1e-9)

    def test_cap_flux_closed_form(self, sys_z):
        # 2*pi*int_{-1}^{0} z dz = -pi
        assert cap_flux(sys_z, 0.0) == pytest.approx(-np.pi, abs=1e-12)

    def test_cap_flux_matches_quadrature(self):
        profile = ScalarField.zonal_poly(0.1, -0.5, 0.2, 0.9, -0.3)
        sysq = MagneticSystem(profile)
        for z0 in (-0.99, -0.3, 0.0, 0.5, 0.999):
            flux, _ = sp_integrate.quad(profile.zonal_polynomial, -1.0, z0)
            assert cap_flux(sysq, z0) == pytest.approx(2.0 * np.pi * flux, abs=1e-13)

    def test_requires_symmetry(self):
        asym = MagneticSystem(ScalarField.linear(0.3, 0.0, 1.0, 0.0))
        with pytest.raises(NotSymmetric):
            latitude_circle_action(asym, 0.02, 0.0)
        drifted = MagneticSystem(ScalarField.height(1.0, 0.0), drift=0.2)
        with pytest.raises(NotSymmetric):
            latitude_circle_action(drifted, 0.02, 0.0)

    def test_monotone_in_energy(self, sys_z):
        # the minimal latitude action increases with the energy
        es = np.linspace(0.01, 0.12, 12)
        mins = []
        for e in es:
            res = optimize.minimize_scalar(
                lambda z: latitude_circle_action(sys_z, e, z),
                bounds=(-0.999, 0.999),
                method="bounded",
            )
            mins.append(res.fun)
        assert np.all(np.diff(mins) >= 0)


class TestE1Symmetric:
    def test_pure_height(self, sys_z):
        res = e1_lower_bound_symmetric(sys_z, 0.3)
        assert res.negative_found
        assert res.value == pytest.approx(0.125, abs=1e-3)
        assert res.value == pytest.approx(oracle_e1(lambda z: z), abs=2e-4)

    def test_shifted_height(self, sys_shifted):
        # the same 1-D oracle, shifted cap flux; value computed independently
        res = e1_lower_bound_symmetric(sys_shifted, 0.3)
        assert res.negative_found
        expect = oracle_e1(lambda z: z + 0.2)
        assert expect == pytest.approx(0.054511, abs=2e-4)  # frozen oracle value
        assert res.value == pytest.approx(expect, abs=1e-3)

    def test_constant_density_no_configuration(self, sys_const):
        res = e1_lower_bound_symmetric(sys_const, 0.3)
        assert not res.negative_found
        assert res.value == pytest.approx(0.0, abs=1e-12)
        assert res.certificate is None

    def test_certificate_revalidates(self, sys_z):
        res = e1_lower_bound_symmetric(sys_z, 0.3)
        cert = res.certificate
        assert cert is not None
        assert cert.action_value < 0
        again = lifted_action_A(sys_z, cert.energy, cert.witness)
        assert again == pytest.approx(cert.action_value, abs=1e-8)

    def test_negative_total_flux_certificate(self):
        # f = z - 0.2 has total flux -0.8 pi: the canonical lift of a
        # latitude circle sits one deck shift off the cap-flux sheet
        sysn = MagneticSystem(ScalarField.height(1.0, -0.2))
        res = e1_lower_bound_symmetric(sysn, 0.3)
        assert res.negative_found and res.value == 0.3
        cert = res.certificate
        assert cert is not None and cert.action_value < 0
        z_star = cert.witness.nodes[0, 2]
        # the 256-gon bounds slightly less than the circle's cap
        assert cert.witness.flux == pytest.approx(cap_flux(sysn, z_star), abs=1e-4)
        again = lifted_action_A(sysn, cert.energy, cert.witness)
        assert again == pytest.approx(cert.action_value, abs=1e-8)

    @pytest.mark.parametrize(
        "potential, e_max",
        [(ScalarField.height(0.05, 0.0), 0.02), (ScalarField.height(0.3, 0.0), 0.5)],
        ids=["e_max-below-e0", "threshold-below-e0"],
    )
    def test_never_below_e0(self, potential, e_max):
        sysu = MagneticSystem(ScalarField.height(1.0, 0.0), potential=potential)
        res = e1_lower_bound_symmetric(sysu, e_max)
        assert res.value == compute_e0(sysu)
        assert not res.negative_found
        assert res.certificate is None


ZONAL_SYSTEMS = [
    MagneticSystem(ScalarField.height(1.0, 0.0)),
    MagneticSystem(ScalarField.height(1.0, 0.2)),
    MagneticSystem(ScalarField.zonal_poly(0.0, -1.0, 0.0, 3.0)),
    MagneticSystem(ScalarField.zonal_poly(0.3, 1.0, -0.5)),
    MagneticSystem(ScalarField.height(1.0, 0.0), potential=ScalarField.height(0.02, 0.0)),
    MagneticSystem(
        ScalarField.height(1.0, 0.2), potential=ScalarField.zonal_poly(0.01, 0.0, 0.03)
    ),
]
ZONAL_IDS = ["z", "z+0.2", "3z^3-z", "quadratic", "z-potential", "z+0.2-potential"]


class TestClosedFormThreshold:
    @pytest.mark.parametrize(
        "density, expect",
        [(ScalarField.height(1.0, 0.0), 1.0 / 8.0), (ScalarField.zonal_poly(0.0, -1.0, 0.0, 3.0), 8.0 / 81.0)],
        ids=["z", "3z^3-z"],
    )
    def test_exact_value(self, density, expect):
        # f = z: e*(z) = (1 - z^2)/8; f = 3z^3 - z: e* = (3z^2 + 1)^2 (1 - z^2)/32
        res = e1_lower_bound_symmetric(MagneticSystem(density), 0.3)
        assert res.value == pytest.approx(expect, abs=1e-12)

    @pytest.mark.parametrize("sysu", ZONAL_SYSTEMS, ids=ZONAL_IDS)
    def test_consistent_with_latitude_action(self, sysu):
        res = e1_lower_bound_symmetric(sysu, 0.3)
        assert res.negative_found and res.value < 0.3
        z_star = res.certificate.witness.nodes[0, 2]
        assert latitude_circle_action(sysu, res.value - 1e-6, z_star) < 0.0
        above = [latitude_circle_action(sysu, res.value + 1e-6, z) for z in np.linspace(-1, 1, 4001)[1:-1]]
        assert min(above) >= 0.0

    @pytest.mark.parametrize("sysu", ZONAL_SYSTEMS[:4], ids=ZONAL_IDS[:4])
    def test_cap_flux_at_the_pole_is_total_flux(self, sysu):
        assert cap_flux(sysu, 1.0) == pytest.approx(sysu.total_flux(), abs=1e-12)


class TestE1General:
    CFG = SolverConfig(tol=1e-5, max_iter=4000)

    def test_matches_symmetric_oracle(self, sys_z):
        grid = [0.10, 0.11, 0.12, 0.13]
        res = e1_lower_bound_general(sys_z, grid, self.CFG, n=64)
        assert res.negative_found
        assert res.value >= 0.12
        assert res.value <= 0.125 + 1e-9
        assert res.certificate.action_value < 0

    def test_zero_form_no_configuration(self):
        empty = MagneticSystem(ScalarField.constant(0.0))
        res = e1_lower_bound_general(empty, [0.02, 0.05], self.CFG, n=48)
        assert not res.negative_found
        assert res.value == pytest.approx(0.0, abs=1e-12)

    def test_asymmetric_density_self_consistent(self):
        asym = MagneticSystem(ScalarField.linear(0.3, 0.0, 1.0, 0.0))
        coarse = e1_lower_bound_general(asym, [0.04, 0.08, 0.12], self.CFG, n=48)
        fine = e1_lower_bound_general(asym, [0.04, 0.06, 0.08, 0.10, 0.12], self.CFG, n=48)
        assert coarse.negative_found and fine.negative_found
        assert coarse.value >= 0.0
        assert abs(fine.value - coarse.value) <= 0.04 + 1e-9

    def test_dominates_e0(self, sys_const):
        res = e1_lower_bound_general(sys_const, [0.02, 0.04], self.CFG, n=48)
        assert res.value >= compute_e0(sys_const) - 1e-12
