import numpy as np
import pytest

from magflow import ScalarField, project_to_sphere, total_flux
from magflow.errors import NearZeroVector
from magflow.sphere_geom import (
    angular_distance,
    cyclic_shift,
    dot3,
    norm3,
    octant_faces,
    solid_angle,
    triangles_flux,
)


def lhuilier_area(a, b, c):
    """Reference signed area: l'Huilier's excess formula, sign from <a, b x c>."""
    la = angular_distance(b, c)
    lb = angular_distance(c, a)
    lc = angular_distance(a, b)
    s = 0.5 * (la + lb + lc)
    t = np.tan(0.5 * s) * np.tan(0.5 * (s - la)) * np.tan(0.5 * (s - lb)) * np.tan(0.5 * (s - lc))
    excess = 4.0 * np.arctan(np.sqrt(np.clip(t, 0.0, None)))
    det = np.sum(a * np.cross(b, c), axis=-1)
    return np.where(det >= 0.0, excess, -excess)


def subdivide_reference(tris, depth):
    """Reference 4-way midpoint subdivision built from stacks and one concatenate."""
    for _ in range(depth):
        a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]
        ab = project_to_sphere(a + b)
        bc = project_to_sphere(b + c)
        ca = project_to_sphere(c + a)
        tris = np.concatenate(
            [
                np.stack([a, ab, ca], axis=1),
                np.stack([ab, b, bc], axis=1),
                np.stack([ca, bc, c], axis=1),
                np.stack([ab, bc, ca], axis=1),
            ]
        )
    return tris


OCTANT = np.eye(3)


class TestProjection:
    def test_scaling(self):
        assert np.allclose(project_to_sphere(np.array([2.0, 0.0, 0.0])), [1.0, 0.0, 0.0])
        assert np.allclose(project_to_sphere(np.array([0.0, 0.0, -5.0])), [0.0, 0.0, -1.0])

    def test_diagonal(self):
        q = project_to_sphere(np.array([1.0, 1.0, 1.0]))
        assert np.allclose(q, np.full(3, 1.0 / np.sqrt(3.0)), atol=1e-12)
        assert abs(np.linalg.norm(q) - 1.0) < 1e-12

    def test_near_zero_rejected(self):
        with pytest.raises(NearZeroVector):
            project_to_sphere(np.array([1e-10, 0.0, 0.0]))

    def test_batch_unit_norm(self, rng):
        q = project_to_sphere(rng.normal(size=(100, 3)))
        assert np.max(np.abs(np.linalg.norm(q, axis=1) - 1.0)) < 1e-12


class TestTriangleFlux:
    def test_octant(self):
        unit = ScalarField.constant(1.0)
        assert triangles_flux(unit, OCTANT[None], 6) == pytest.approx(np.pi / 2, abs=1e-6)

    def test_octant_reversed(self):
        unit = ScalarField.constant(1.0)
        rev = OCTANT[[0, 2, 1]]
        assert triangles_flux(unit, rev[None], 6) == pytest.approx(-np.pi / 2, abs=1e-6)

    def test_zero_density(self):
        assert triangles_flux(ScalarField.constant(0.0), OCTANT[None], 4) == 0.0

    def test_child_additivity(self):
        # the parent equals the sum of its four midpoint children to rounding
        f = ScalarField.height(1.0, 0.2)
        parent = triangles_flux(f, OCTANT[None], 4)
        children = subdivide_reference(OCTANT[None], 1)
        total = sum(triangles_flux(f, child[None], 4) for child in children)
        assert total == pytest.approx(parent, abs=1e-13)

    def test_subdivision_consistency(self):
        # spectral convergence in the depth: the error against depth 6 falls
        # by orders of magnitude per level and reaches rounding at depth 4
        f = ScalarField.zonal_poly(0.2, -0.4, 0.0, 1.1)
        tri = project_to_sphere(np.array([[0.9, 0.1, 0.3], [-0.2, 0.8, 0.4], [0.1, 0.2, 0.95]]))
        ref = triangles_flux(f, tri[None], 6)
        errs = [abs(triangles_flux(f, tri[None], d) - ref) for d in (1, 2, 3, 4)]
        assert errs[1] < errs[0] / 100.0 and errs[2] < errs[1] / 100.0
        assert errs[3] < 1e-14

    def test_reversal_negates_exactly(self, rng):
        f = ScalarField.zonal_poly(0.3, -1.0, 0.5, 0.7)
        tris = project_to_sphere(rng.normal(size=(40, 3, 3)))
        for depth in (1, 3, 4):
            fwd = triangles_flux(f, tris, depth)
            assert triangles_flux(f, tris[:, [0, 2, 1]], depth) == -fwd

    def test_depth_guard(self):
        with pytest.raises(ValueError):
            triangles_flux(ScalarField.constant(1.0), OCTANT[None], 0)


class TestTotalFlux:
    def test_constant(self):
        assert total_flux(ScalarField.constant(1.0), 6) == pytest.approx(4.0 * np.pi, abs=1e-6)

    def test_odd_density(self):
        assert total_flux(ScalarField.height(1.0, 0.0), 6) == pytest.approx(0.0, abs=1e-6)

    def test_shifted(self):
        assert total_flux(ScalarField.height(1.0, 0.2), 6) == pytest.approx(0.8 * np.pi, abs=1e-6)

    def test_depth_guard(self):
        with pytest.raises(ValueError):
            total_flux(ScalarField.constant(1.0), 1)

    @pytest.mark.parametrize(
        "coeffs", [(0.3,), (0.2, -0.4, 0.0, 1.1), (0.1, -0.5, 0.2, 0.9, -0.3, 0.25)]
    )
    def test_zonal_polynomial_exact(self, coeffs):
        # the flux of p(z) dA is 2 pi times the integral of p over [-1, 1]
        poly = np.polynomial.Polynomial(coeffs).integ()
        exact = 2.0 * np.pi * (poly(1.0) - poly(-1.0))
        assert total_flux(ScalarField.zonal_poly(*coeffs), 4) == pytest.approx(exact, abs=1e-13)


class TestAreaRoutines:
    def test_octant_orientation(self):
        faces = octant_faces()
        dets = np.einsum("tj,tj->t", faces[:, 0], np.cross(faces[:, 1], faces[:, 2]))
        assert np.all(dets > 0)
        a, b, c = faces[:, 0], faces[:, 1], faces[:, 2]
        assert float(np.sum(lhuilier_area(a, b, c))) == pytest.approx(4.0 * np.pi, abs=1e-9)
        assert np.allclose(solid_angle(a, b, c), lhuilier_area(a, b, c), atol=1e-12)

    def test_lhuilier_matches_solid_angle(self, rng):
        a = project_to_sphere(rng.normal(size=(200, 3)))
        b = project_to_sphere(a + 0.3 * rng.normal(size=(200, 3)))
        c = project_to_sphere(a + 0.3 * rng.normal(size=(200, 3)))
        assert np.allclose(lhuilier_area(a, b, c), solid_angle(a, b, c), atol=1e-10)


class TestVectorHelpers:
    """dot3, norm3 and cyclic_shift give the same bits as the numpy forms."""

    SHAPES = [(512, 3), (7, 300, 3)]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_dot3_matches_sum(self, shape):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=shape), rng.normal(size=shape)
        assert np.array_equal(dot3(a, b), np.sum(a * b, axis=-1))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_norm3_matches_linalg(self, shape):
        x = np.random.default_rng(4).normal(size=shape)
        assert np.array_equal(norm3(x), np.linalg.norm(x, axis=-1))

    def test_broadcast_and_strided(self):
        rng = np.random.default_rng(5)
        q = rng.normal(size=3)
        v = rng.normal(size=(300, 7, 3)).transpose(1, 0, 2)  # non-contiguous rows
        assert np.array_equal(dot3(q, v), np.sum(q * v, axis=-1))
        assert np.array_equal(dot3(v, q), np.sum(v * q, axis=-1))
        assert np.array_equal(norm3(v), np.linalg.norm(v, axis=-1))
        assert np.array_equal(norm3(q), np.linalg.norm(q, axis=-1))

    @pytest.mark.parametrize("k", [-2, -1, 1, 2])
    def test_cyclic_shift_matches_roll(self, k):
        x = np.random.default_rng(6).normal(size=(64, 3))
        shifted = cyclic_shift(x, k)
        assert np.array_equal(shifted, np.roll(x, -k, axis=0))
        assert np.array_equal(shifted[0], x[k % 64])
