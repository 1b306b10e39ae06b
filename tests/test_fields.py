import numpy as np
import pytest

from magflow import ScalarField
from magflow.fields import horner

ZONAL = {
    "z+0.2": ScalarField.height(1.0, 0.2),
    "degree-6": ScalarField.zonal_poly(0.1, -0.5, 0.2, 0.9, -0.3, 0.25, 0.6),
    "3z^3-z": ScalarField.zonal_poly(0.0, -1.0, 0.0, 3.0),
}


def sample_z():
    """An open grid, its end points, random points and tiny arguments in [-1, 1]."""
    rng = np.random.default_rng(7)
    return np.concatenate(
        [np.linspace(-1.0, 1.0, 203), rng.uniform(-1.0, 1.0, 200), [0.0, 5e-324, -1e-300]]
    )


class TestHorner:
    """The zonal evaluators keep the bits of numpy's Polynomial objects."""

    @staticmethod
    def references(field):
        poly = np.polynomial.Polynomial(field.zonal_coeffs)
        return (
            (field.zonal_polynomial, poly),
            (field.zonal_derivative, poly.deriv()),
            (field.zonal_antiderivative, poly.integ(lbnd=-1.0)),
        )

    @pytest.mark.parametrize("name", list(ZONAL))
    def test_arrays_bitwise(self, name):
        z = sample_z()
        for mine, ref in self.references(ZONAL[name]):
            assert mine(z).tobytes() == ref(z).tobytes()

    @pytest.mark.parametrize("name", list(ZONAL))
    def test_floats_bitwise(self, name):
        for mine, ref in self.references(ZONAL[name]):
            for z in sample_z().tolist():
                value = mine(z)
                assert type(value) is float
                assert value.hex() == float(ref(z)).hex()

    @pytest.mark.parametrize("name", list(ZONAL))
    def test_field_evaluators_agree(self, name):
        # __call__, grad, scalar_fn and grad_fn all run the one Horner rule
        field = ZONAL[name]
        rng = np.random.default_rng(3)
        q = rng.standard_normal((50, 3))
        q /= np.linalg.norm(q, axis=1)[:, None]
        poly = np.polynomial.Polynomial(field.zonal_coeffs)
        assert field(q).tobytes() == poly(q[:, 2]).tobytes()
        assert field.grad(q)[:, 2].tobytes() == poly.deriv()(q[:, 2]).tobytes()
        f, df = field.scalar_fn(), field.grad_fn()
        for x, y, z in q.tolist():
            assert f(x, y, z) == float(poly(z))
            assert df(x, y, z)[2] == float(poly.deriv()(z))

    def test_bounds_match_polynomial_roots(self):
        field = ZONAL["degree-6"]
        poly = np.polynomial.Polynomial(field.zonal_coeffs)
        z = np.concatenate(([-1.0, 1.0], np.clip(poly.deriv().roots().real, -1.0, 1.0)))
        vals = poly(z)
        assert field.bounds() == (float(vals.min()), float(vals.max()))

    def test_constant_polynomial_broadcasts(self):
        z = np.linspace(-1.0, 1.0, 5)
        assert horner((2.5,), z).tolist() == [2.5] * 5
        assert horner((2.5,), 0.3) == 2.5
