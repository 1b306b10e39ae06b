import numpy as np
import pytest

from magflow import MagneticSystem, ScalarField, latitude_loop, project_to_sphere, total_flux
from magflow.errors import NearZeroVector
from magflow.loop_space import _choose_apex, perturb_normal
from magflow.sphere_geom import (
    BASE_POINT,
    EDGE_PHI,
    _LEGGAUSS_HALVES,
    _edge_nodes,
    _unit_gauss_legendre,
    angular_distance,
    cross3,
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


def hexes(values):
    return [v.hex() for v in values.tolist()]


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


def triangles_flux_reference(density, tris, depth):
    """The point-major body of ``triangles_flux``: every product runs along
    the length-3 coordinate axis of (T, 3) vertex arrays."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    tris = np.asarray(tris, dtype=float)
    a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]
    n = 2**depth
    s, ws = _unit_gauss_legendre(n)
    det = dot3(a, cross3(b, c))
    phi = np.arctan2(np.abs(det), dot3(b, c) - dot3(a, b) * dot3(a, c))
    m = _edge_nodes(float(np.max(phi, initial=0.0)), n)
    half = m // 2
    st, wst = _unit_gauss_legendre(m)
    t, wt = st[:half, None], wst[:half]
    omega = angular_distance(b, c)
    # e(t) is proportional to sin((1 - t) w) b + sin(t w) c; sinc keeps a
    # zero-length edge finite
    near = t * np.sinc(t * omega / np.pi)
    far = (1.0 - t) * np.sinc((1.0 - t) * omega / np.pi)
    scale = det / np.sinc(omega / np.pi)
    g = np.empty((m, len(tris)))
    for j in range(m):
        wb, wc = (far[j], near[j]) if j < half else (near[m - 1 - j], far[m - 1 - j])
        e = project_to_sphere(wb[:, None] * b + wc[:, None] * c)
        cos_max = dot3(a, e)
        u = e - cos_max[:, None] * a
        sin_max = norm3(u)
        theta_max = np.arctan2(sin_max, cos_max)
        ok = sin_max > 0.0
        d = np.divide(u, sin_max[:, None], out=np.zeros_like(u), where=ok[:, None])
        # psi' times the theta_max of the substitution th = s * theta_max
        jac = np.divide(theta_max, sin_max * sin_max, out=np.zeros_like(theta_max), where=ok)
        th = s[:, None] * theta_max
        sin_th = np.sin(th)
        q = sin_th[..., None] * d
        q += np.cos(th)[..., None] * a
        g[j] = scale * jac * (ws @ (density(q) * sin_th))
    return float(np.sum(wt @ (g[:half] + g[::-1][:half])))


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


class TestEdgeRule:
    """The far edges take as few Gauss-Legendre nodes as the apex angle allows."""

    @staticmethod
    def thin_cone(n, z0=0.3):
        """The apex triangles of a latitude circle seen from the base point."""
        t = 2.0 * np.pi * np.arange(n + 1) / n
        r = np.sqrt(1.0 - z0 * z0)
        ring = np.stack([r * np.cos(t), r * np.sin(t), np.full(n + 1, z0)], axis=1)
        return np.stack([np.broadcast_to(BASE_POINT, (n, 3)), ring[1:], ring[:-1]], axis=1)

    @pytest.mark.parametrize(
        "phi, n, m",
        [
            (0.0, 16, 4),
            (EDGE_PHI, 16, 4),
            (1.01 * EDGE_PHI, 16, 8),
            (2.0 * EDGE_PHI, 16, 8),
            (3.0 * EDGE_PHI, 16, 16),
            (np.pi / 2, 16, 16),
            (np.nan, 16, 16),
            (0.0, 2, 2),
            # octant faces keep the isotropic rule up to depth 7
            (np.pi / 2, 2**7, 2**7),
            (np.pi / 2, 2**8, 2**7),
        ],
    )
    def test_edge_nodes(self, phi, n, m):
        assert _edge_nodes(phi, n) == m

    @pytest.mark.parametrize("n", [2, 4, 16])
    def test_unit_rule_is_leggauss_on_unit_interval(self, n):
        s, ws = _unit_gauss_legendre(n)
        x, w = np.polynomial.legendre.leggauss(n)
        assert np.array_equal(s, 0.5 * (x + 1.0)) and np.array_equal(ws, 0.5 * w)
        with pytest.raises(ValueError):
            s[0] = 0.0

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_tabulated_rule_holds_leggauss_bits(self, n):
        # the table holds the positive half, and leggauss's rule mirrors it
        # exactly
        x, w = np.polynomial.legendre.leggauss(n)
        half, table = n // 2, np.array(_LEGGAUSS_HALVES[n])
        assert hexes(table[:, 0]) == hexes(x[half:]) and hexes(table[:, 1]) == hexes(w[half:])
        assert np.array_equal(x[:half], -x[::-1][:half]) and np.array_equal(w[:half], w[::-1][:half])

    @pytest.mark.parametrize("n, tabulated", [(2, False), (4, True), (8, True), (16, True), (32, False)])
    def test_only_untabulated_orders_call_leggauss(self, monkeypatch, n, tabulated):
        x, w = np.polynomial.legendre.leggauss(n)
        calls = []
        leggauss = np.polynomial.legendre.leggauss
        monkeypatch.setattr(
            np.polynomial.legendre, "leggauss", lambda deg: calls.append(deg) or leggauss(deg)
        )
        _unit_gauss_legendre.cache_clear()
        try:
            s, ws = _unit_gauss_legendre(n)
        finally:
            _unit_gauss_legendre.cache_clear()
        assert calls == ([] if tabulated else [n])
        assert hexes(s) == hexes(0.5 * (x + 1.0)) and hexes(ws) == hexes(0.5 * w)

    def test_thin_cone_takes_four_edge_nodes(self):
        tris = self.thin_cone(512)
        seen = []

        def counting(q):
            seen.append(q.shape[:-1])
            return q[..., 2]

        triangles_flux(counting, tris, 4)
        assert seen == [(16, 512)] * 4

    @pytest.mark.parametrize("depth", [1, 3, 4, 6])
    def test_reversal_negates_exactly(self, rng, depth):
        f = ScalarField.zonal_poly(0.3, -1.0, 0.5, 0.7)
        tiny = self.thin_cone(2048)
        long = project_to_sphere(rng.normal(size=(40, 3, 3)))
        for tris in (tiny, np.concatenate((tiny[::37], long, tiny[5::91]))):
            fwd = triangles_flux(f, tris, depth)
            assert triangles_flux(f, tris[:, [0, 2, 1]], depth) == -fwd

    @pytest.mark.parametrize("depth", [4, 5, 6])
    def test_total_flux_zonal_exact(self, depth):
        coeffs = (0.1, -0.5, 0.2, 0.9, -0.3, 0.25, 0.6)
        poly = np.polynomial.Polynomial(coeffs).integ()
        exact = 2.0 * np.pi * (poly(1.0) - poly(-1.0))
        assert total_flux(ScalarField.zonal_poly(*coeffs), depth) == pytest.approx(exact, abs=1e-13)


class TestComponentRows:
    """``triangles_flux`` evaluates its points component-major and gives the
    bits of the point-major reference body."""

    DENSITIES = {
        "constant": ScalarField.constant(1.3),
        "height": ScalarField.height(1.0, 0.2),
        "linear": ScalarField.linear(0.3, -0.7, 0.5, 0.1),
        "zonal_poly": ScalarField.zonal_poly(0.2, -0.4, 0.0, 1.1),
        "conformal": MagneticSystem(
            ScalarField.height(1.0, 0.0),
            conformal_exponent=ScalarField.linear(0.1, 0.2, -0.15, 0.05),
        ).round_density,
    }

    @staticmethod
    def cone(n, z0):
        """The cone triangles of a perturbed latitude loop, as ``cone_flux``
        builds them."""
        nodes = perturb_normal(latitude_loop(z0, n), 0.02, 3).nodes
        apex = _choose_apex(nodes)
        return np.stack([np.broadcast_to(apex, nodes.shape), nodes, cyclic_shift(nodes, 1)], axis=1)

    @staticmethod
    def assert_same_bits(density, tris, depth):
        got = triangles_flux(density, tris, depth)
        want = triangles_flux_reference(density, tris, depth)
        assert got.hex() == want.hex()

    @pytest.mark.parametrize("name", DENSITIES)
    @pytest.mark.parametrize(
        "n, z0, m", [(128, 0.3, 16), (256, 0.3, 8), (512, 0.3, 4), (128, 0.0, 4)]
    )
    def test_cone_triangles(self, name, n, z0, m):
        tris = self.cone(n, z0)
        seen = []

        def counting(q):
            seen.append(q.shape[:-1])
            return self.DENSITIES[name](q)

        self.assert_same_bits(counting, tris, 4)
        # m far-edge nodes in each of the two bodies
        assert seen == [(16, n)] * (2 * m)
        # the equator passes the base point's antipode: the apex falls back
        assert np.array_equal(tris[0, 0], BASE_POINT) == (z0 != 0.0)

    @pytest.mark.parametrize("name", DENSITIES)
    @pytest.mark.parametrize("depth", [2, 3, 4, 5, 6])
    def test_octant_faces(self, name, depth):
        self.assert_same_bits(self.DENSITIES[name], octant_faces(), depth)

    def test_zero_length_far_edge_and_nan_vertex(self):
        tris = self.cone(128, 0.3)[:8].copy()
        tris[2, 2] = tris[2, 1]
        f = self.DENSITIES["linear"]
        self.assert_same_bits(f, tris, 4)
        tris[5, 1, 0] = np.nan
        assert np.isnan(triangles_flux(f, tris, 4))
        self.assert_same_bits(f, tris, 4)

    def test_antipodal_far_edge_raises_the_reference_error(self):
        tris = np.array([[[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]])
        f = self.DENSITIES["height"]
        with pytest.raises(NearZeroVector) as want:
            triangles_flux_reference(f, tris, 4)
        with pytest.raises(NearZeroVector) as got:
            triangles_flux(f, tris, 4)
        assert str(got.value) == str(want.value)


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
