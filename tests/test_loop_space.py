import json

import numpy as np
import pytest

from magflow import (
    FreePeriodLoop,
    LiftedLoop,
    MagneticSystem,
    ScalarField,
    action_gradient,
    deck_transform,
    deform,
    discrete_action_S,
    great_circle_loop,
    h1_precondition,
    in_valley,
    iterate,
    latitude_loop,
    lift_loop,
    lifted_action_A,
    optimal_period,
    perturb_normal,
    sweep_flux,
    valley_tau,
)
from magflow.loop_space import (
    _choose_apex,
    cone_flux,
    h1_solve,
    lifted_from_dict,
    lifted_to_dict,
    load_lifted,
    nodes_to_csv,
    primitive,
    save_lifted,
)
from magflow.sphere_geom import (
    BASE_POINT,
    angular_distance,
    project_to_sphere,
    slerp,
    tangent_basis,
    triangles_flux,
)
from tests.conftest import random_lifted, random_loop, zeta_loop

E = 0.02


def constant_like_loop(q, n=16, p=1.0, radius=1e-7):
    """Numerically constant loop (tiny circle keeps nodes distinct)."""
    e1, e2 = tangent_basis(q)
    t = 2.0 * np.pi * np.arange(n) / n
    d = np.cos(t)[:, None] * e1 + np.sin(t)[:, None] * e2
    return FreePeriodLoop(project_to_sphere(q + radius * d), p)


def line_flux_of_height(nodes, m=32):
    """Exact flux of f = z through any surface bounded by the polygon.

    The 1-form (x dy - y dx) / 2 is smooth on the whole sphere and its
    differential is z dA, so its line integral along the polygon's great
    arcs (Gauss-Legendre in the arc parameter) is an independent reference
    for the cone flux of f = z.
    """
    x, w = np.polynomial.legendre.leggauss(m)
    t, w = 0.5 * (x + 1.0), 0.5 * w
    a, b = nodes[:, None], np.roll(nodes, -1, axis=0)[:, None]
    om = angular_distance(nodes, np.roll(nodes, -1, axis=0))[:, None, None]
    tt = t[None, :, None]
    pts = (np.sin((1.0 - tt) * om) * a + np.sin(tt * om) * b) / np.sin(om)
    vel = om * (-np.cos((1.0 - tt) * om) * a + np.cos(tt * om) * b) / np.sin(om)
    return float(np.sum(0.5 * (pts[..., 0] * vel[..., 1] - pts[..., 1] * vel[..., 0]) @ w))


def circle_through_base(n=96, radius=0.5):
    """Small circle whose node 0 is the base point, the default cone apex."""
    center = np.array([-np.cos(radius), 0.0, np.sin(radius)])
    e1 = BASE_POINT - np.dot(BASE_POINT, center) * center
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(center, e1)
    t = 2.0 * np.pi * np.arange(n) / n
    ring = np.cos(t)[:, None] * e1 + np.sin(t)[:, None] * e2
    return FreePeriodLoop(np.cos(radius) * center + np.sin(radius) * ring, 1.0)


def all_candidates_apex(nodes):
    """Reference apex rule: the antipodal margin of all six candidates, then
    the base point when it keeps 0.2 rad, otherwise the largest margin."""
    candidates = np.array(
        [BASE_POINT, [0.0, 0.0, -1.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [0.0, -1.0, 0.0], [1.0, 0.0, 0.0]]
    )
    margins = np.pi - np.array([float(np.max(angular_distance(c, nodes))) for c in candidates])
    if margins[0] >= 0.2:
        return candidates[0]
    return candidates[int(np.argmax(margins))]


def circle_near_antipode(offset, radius=0.3, n=128):
    """Small circle whose center lies ``offset`` rad from the base point's
    antipode, so its nodes keep about ``offset - radius`` rad from it."""
    anti = -BASE_POINT
    e1, _ = tangent_basis(anti)
    center = np.cos(offset) * anti + np.sin(offset) * e1
    c1, c2 = tangent_basis(center)
    t = 2.0 * np.pi * np.arange(n) / n
    ring = np.cos(t)[:, None] * c1 + np.sin(t)[:, None] * c2
    return FreePeriodLoop(np.cos(radius) * center + np.sin(radius) * ring, 1.0)


ORACLE_LOOPS = {
    "perturbed-latitude": lambda: perturb_normal(latitude_loop(0.3, 128), 0.05, 3),
    "random": lambda: random_loop(np.random.default_rng(1), 512),
    "through-apex": circle_through_base,
    # a great circle through the base point's antipode forces a fallback apex
    "fallback-apex": lambda: great_circle_loop(np.array([0.0, 1.0, 0.3]), 200),
}

# loops on both sides of the base point's 0.2 rad antipodal margin
APEX_LOOPS = {
    **ORACLE_LOOPS,
    **{f"latitude-{z}": (lambda z=z: latitude_loop(z, 96)) for z in (0.0, 0.15, 0.19, 0.21, 0.5, -0.95)},
    **{f"near-antipode-{d}": (lambda d=d: circle_near_antipode(d)) for d in (0.0, 0.2, 0.45, 0.49, 0.51, 0.6, 1.5, 3.0)},
}


class TestLoopContainers:
    def test_node_minimum(self):
        nodes = latitude_loop(0.0, 16).nodes
        with pytest.raises(ValueError):
            FreePeriodLoop(nodes[:8], 1.0)

    def test_positive_period(self):
        with pytest.raises(ValueError):
            latitude_loop(0.0, 32).with_period(0.0)

    def test_antipodal_gap_rejected(self):
        nodes = latitude_loop(0.0, 32).nodes.copy()
        nodes[1] = -nodes[0]
        with pytest.raises(ValueError):
            FreePeriodLoop(nodes, 1.0)

    def test_roundtrip_serialization(self, sys_z, rng):
        ll = random_lifted(sys_z, rng)
        back = lifted_from_dict(lifted_to_dict(ll))
        assert np.allclose(back.nodes, ll.nodes)
        assert back.p == ll.p and back.flux == ll.flux


    def test_save_lifted_bytes(self, sys_z, rng, tmp_path):
        ll = random_lifted(sys_z, rng)
        path = tmp_path / "loop.json"
        save_lifted(ll, path)
        record = {
            "nodes": [[float(x) for x in row] for row in ll.nodes],
            "p": float(ll.p),
            "flux": float(ll.flux),
        }
        assert lifted_to_dict(ll) == record
        assert path.read_text() == json.dumps(record, indent=1, sort_keys=True)
        back = load_lifted(path)
        assert np.array_equal(back.nodes, ll.nodes)
        assert back.p == ll.p and back.flux == ll.flux

    @pytest.mark.parametrize("value", [-0.0, 5e-324, 1e-300, 1e16, 1.0])
    def test_save_lifted_equals_json_dump(self, tmp_path, value):
        # the writer spells floats as json does: the repr of each float
        nodes = latitude_loop(0.3, 16).nodes.copy()
        nodes[2, 0], nodes[5, 2], nodes[11, 1] = value, -value, value
        ll = LiftedLoop(FreePeriodLoop(nodes, abs(value) or 1.0), value)
        path = tmp_path / "loop.json"
        save_lifted(ll, path)
        assert path.read_text() == json.dumps(lifted_to_dict(ll), indent=1, sort_keys=True)

    @pytest.mark.parametrize("where", ["node-nan", "node-inf", "p-inf", "flux-nan", "flux-inf"])
    def test_save_lifted_refuses_non_finite(self, tmp_path, where):
        nodes = latitude_loop(0.0, 16).nodes.copy()
        p, flux = 1.0, 0.0
        if where == "node-nan":
            nodes[4, 1] = np.nan
        elif where == "node-inf":
            nodes[4, 1] = np.inf
        elif where == "p-inf":
            p = np.inf
        elif where == "flux-nan":
            flux = np.nan
        else:
            flux = -np.inf
        path = tmp_path / "loop.json"
        with pytest.raises(ValueError):
            save_lifted(LiftedLoop(FreePeriodLoop(nodes, p), flux), path)
        assert not path.exists()

    def test_nodes_to_csv_row_formula(self, rng, tmp_path):
        loop = random_loop(rng, 40)
        nodes = loop.nodes.copy()
        nodes[0] = (-0.0, 5e-324, 1e16)
        loop = FreePeriodLoop(nodes, 1.0)
        path = tmp_path / "nodes.csv"
        nodes_to_csv(loop, path)
        rows = "".join(",".join(repr(float(c)) for c in row) + "\n" for row in loop.nodes)
        assert path.read_text() == "x,y,z\n" + rows

class TestDiscreteAction:
    def test_constant_loop_value(self):
        # stationary curve: A = p * (L(q, 0) + e) with L(q, 0) = -U(q)
        sys_u = MagneticSystem(
            ScalarField.height(1.0, 0.0), potential=ScalarField.height(0.3, 0.0)
        )
        loop = constant_like_loop(np.array([0.0, 0.0, 1.0]), p=2.0)
        val = discrete_action_S(sys_u, 0.5, loop)
        assert val == pytest.approx(2.0 * (-0.3 + 0.5), abs=1e-9)

    def test_equator_optimal_action(self, sys_z):
        loop = latitude_loop(0.0, 128)
        loop = loop.with_period(optimal_period(sys_z, loop, E))
        assert loop.p == pytest.approx(10.0 * np.pi, rel=1e-3)
        assert discrete_action_S(sys_z, E, loop) == pytest.approx(0.4 * np.pi, abs=2e-3)

    def test_period_convexity(self, sys_z, rng):
        # S is convex in p with the minimum where the mean energy equals e
        loop = random_loop(rng, 64)
        p_star = optimal_period(sys_z, loop, E)
        ps = p_star * np.array([0.6, 0.8, 1.0, 1.25, 1.6])
        vals = [discrete_action_S(sys_z, E, loop.with_period(p)) for p in ps]
        assert np.argmin(vals) == 2
        second = np.diff(vals, 2)
        assert np.all(second > 0)


class TestLift:
    def test_equator_lower_cap_flux(self, sys_z):
        ll = lift_loop(sys_z, latitude_loop(0.0, 128))
        assert ll.flux == pytest.approx(-np.pi, abs=3e-4)

    def test_lifted_action_equator(self, sys_z):
        loop = latitude_loop(0.0, 128)
        loop = loop.with_period(optimal_period(sys_z, loop, E))
        ll = lift_loop(sys_z, loop)
        assert lifted_action_A(sys_z, E, ll) == pytest.approx(-0.6 * np.pi, abs=5e-3)

    def test_zero_flux_means_plain_action(self, sys_z, rng):
        loop = random_loop(rng)
        ll = LiftedLoop(loop, 0.0)
        assert lifted_action_A(sys_z, E, ll) == discrete_action_S(sys_z, E, loop)

    def test_tiny_loop_lift_is_small(self, sys_shifted):
        ll = lift_loop(sys_shifted, constant_like_loop(np.array([0.0, 0.0, 1.0]), radius=1e-4))
        assert abs(ll.flux) < 1e-6

    def test_batch_seam(self, sys_shifted):
        # the cone flux is the sum of its apex triangles' fluxes
        loop = perturb_normal(latitude_loop(-0.5, 100), 0.05, 3)
        nodes = loop.nodes
        tris = np.array([[BASE_POINT, nodes[i], nodes[(i + 1) % 100]] for i in range(100)])
        per_triangle = sum(triangles_flux(sys_shifted.round_density, tri[None], 6) for tri in tris)
        assert cone_flux(sys_shifted, loop, 6, apex=BASE_POINT) == pytest.approx(
            per_triangle, abs=1e-12
        )

    @pytest.mark.parametrize("name", list(ORACLE_LOOPS))
    def test_cone_flux_matches_line_integral(self, sys_z, name):
        loop = ORACLE_LOOPS[name]()
        apex = _choose_apex(loop.nodes)
        if name == "through-apex":
            assert np.allclose(loop.nodes[0], apex, atol=1e-15)
        if name == "fallback-apex":
            assert not np.array_equal(apex, BASE_POINT)
        assert cone_flux(sys_z, loop) == pytest.approx(line_flux_of_height(loop.nodes), abs=1e-13)

    @pytest.mark.parametrize("name", list(APEX_LOOPS))
    def test_apex_matches_all_candidates(self, sys_shifted, name):
        # the base point is tested first; the six candidates are scanned only
        # when its margin is short, and the lift is the same bit for bit
        loop = APEX_LOOPS[name]()
        apex = _choose_apex(loop.nodes)
        ref = all_candidates_apex(loop.nodes)
        assert np.array_equal(apex, ref)
        assert cone_flux(sys_shifted, loop) == cone_flux(sys_shifted, loop, apex=ref)

    def test_conformal_depths_agree(self, rng):
        # the system of the conformal full-stack descent: its density f e^{2u}
        # is not a polynomial, and depth 4 already agrees with depth 6
        sysc = MagneticSystem(
            ScalarField.height(1.0, 0.0), conformal_exponent=ScalarField.height(0.15, 0.0)
        )
        for loop in (ORACLE_LOOPS["perturbed-latitude"](), random_loop(rng, 256)):
            assert cone_flux(sysc, loop, 4) == pytest.approx(cone_flux(sysc, loop, 6), abs=1e-13)


    @pytest.mark.parametrize("n", [16, 32, 128, 2048])
    def test_edge_rule_matches_depth_six(self, sys_shifted, n):
        # thin cone triangles take 4 far-edge nodes at depth 4; the cone
        # still agrees with depth 6 to rounding
        systems = (
            sys_shifted,
            MagneticSystem(
                ScalarField.height(1.0, 0.0), conformal_exponent=ScalarField.height(0.15, 0.0)
            ),
            MagneticSystem(ScalarField.zonal_poly(0.1, -0.5, 0.2, 0.9, -0.3, 0.25, 0.6)),
        )
        loops = (
            perturb_normal(latitude_loop(-0.6, n), 0.2, 7),
            perturb_normal(latitude_loop(0.5, n), 0.1, 2),
        )
        for sys_ in systems:
            for loop in loops:
                assert cone_flux(sys_, loop) == pytest.approx(cone_flux(sys_, loop, 6), abs=1e-13)


class TestSweepFlux:
    def test_identity_sweep(self, sys_shifted, rng):
        loop = random_loop(rng)
        assert sweep_flux(sys_shifted, loop, loop) == 0.0

    def test_reversal_antisymmetry(self, sys_shifted, rng):
        old = random_loop(rng)
        delta = 0.3 * np.cos(3 * 2 * np.pi * np.arange(old.n) / old.n)
        new = FreePeriodLoop(
            project_to_sphere(old.nodes + delta[:, None] * np.array([0.0, 0.0, 1.0])), old.p
        )
        fwd = sweep_flux(sys_shifted, old, new)
        back = sweep_flux(sys_shifted, new, old)
        assert abs(fwd) > 1e-4
        assert fwd + back == pytest.approx(0.0, abs=1e-10)

    def test_near_antipodal_move_refused(self, sys_shifted):
        # each node moves to within 0.05 rad of its antipode
        a = latitude_loop(0.0, 64)
        b = FreePeriodLoop(-latitude_loop(0.05, 64).nodes, a.p)
        with pytest.raises(ValueError, match="antipodal"):
            deform(sys_shifted, lift_loop(sys_shifted, a), b)

    def test_long_sweep_equals_chained_deforms(self, sys_shifted):
        # a 1.12-rad move takes 12 substeps, each one chained deform
        a = latitude_loop(0.0, 64)
        b = latitude_loop(0.9, 64)
        ll = lift_loop(sys_shifted, a)
        cur = ll
        for j in range(1, 13):
            nodes = slerp(a.nodes, b.nodes, np.full(64, j / 12)) if j < 12 else b.nodes
            cur = deform(sys_shifted, cur, FreePeriodLoop(nodes, a.p))
        assert deform(sys_shifted, ll, b).flux == pytest.approx(cur.flux, abs=1e-12)

    def test_long_deform_matches_finer_chain(self, sys_shifted):
        a = latitude_loop(-0.5, 64)
        b = latitude_loop(0.5, 64)  # nodewise ~1.05 rad apart: 11 substeps
        ll = lift_loop(sys_shifted, a)
        cur = ll
        for k in range(1, 9):
            nodes = slerp(a.nodes, b.nodes, np.full(64, k / 8))
            cur = deform(sys_shifted, cur, FreePeriodLoop(nodes, a.p))
        assert deform(sys_shifted, ll, b).flux == pytest.approx(cur.flux, abs=1e-6)

    def test_zeta_family_covers_sphere(self, sys_shifted):
        # sweeping the deck-generator family accumulates the total flux
        steps, n = 64, 128
        total = 0.0
        prev = zeta_loop(0.0, n)
        for k in range(1, steps + 1):
            cur = zeta_loop(k / steps, n)
            total += sweep_flux(sys_shifted, prev, cur)
            prev = cur
        assert total == pytest.approx(sys_shifted.total_flux(), abs=1e-4)
        assert total == pytest.approx(0.8 * np.pi, abs=1e-4)

    def test_deform_flux_ledger_closed_path(self, sys_shifted, rng):
        # walking a chain of shapes out and back returns the ledger exactly
        loop = random_loop(rng, 48, wobble=0.2)
        ll = lift_loop(sys_shifted, loop)
        bump_dirs = rng.normal(size=(6, 3))
        shapes = [ll.loop.nodes]
        for k in range(6):
            delta = 0.15 * np.cos((k % 3 + 1) * 2 * np.pi * np.arange(48) / 48)
            shapes.append(project_to_sphere(shapes[-1] + delta[:, None] * bump_dirs[k]))
        cur = ll
        for nodes in shapes[1:]:
            cur = deform(sys_shifted, cur, FreePeriodLoop(nodes, cur.p))
        assert abs(cur.flux - ll.flux) > 1e-3  # the excursion does move flux
        for nodes in shapes[-2::-1]:
            cur = deform(sys_shifted, cur, FreePeriodLoop(nodes, cur.p))
        assert cur.flux == pytest.approx(ll.flux, abs=1e-10)

    def test_winding_cycle_adds_total_flux(self, sys_shifted):
        # a closed deformation that sweeps the sphere once shifts the ledger
        # by one unit of total flux: grow latitude circles pole to pole, then
        # carry the tiny loop home along a meridian
        n = 96
        r0 = 0.02
        ll = lift_loop(sys_shifted, constant_like_loop(np.array([0.0, 0.0, 1.0]), n, radius=r0))
        start_flux = ll.flux
        cur = ll
        steps = 48
        for k in range(1, steps + 1):
            alpha = r0 + (np.pi - 2 * r0) * k / steps
            z0 = np.cos(alpha)
            rho = np.sin(alpha)
            phi = 2.0 * np.pi * np.arange(n) / n  # right-handed about +z
            nodes = np.stack([rho * np.cos(phi), rho * np.sin(phi), np.full(n, z0)], axis=1)
            cur = deform(sys_shifted, cur, FreePeriodLoop(nodes, cur.p))
        for k in range(1, 17):
            beta = np.pi * (1.0 - k / 16)
            center = np.array([np.sin(beta), 0.0, np.cos(beta)])
            cur = deform(
                sys_shifted, cur, constant_like_loop(center, n, radius=r0)
            )
        assert cur.flux - start_flux == pytest.approx(sys_shifted.total_flux(), abs=2e-4)


class TestIterate:
    def test_identity(self, sys_z, rng):
        ll = random_lifted(sys_z, rng)
        assert iterate(ll, 1) is ll

    def test_action_linearity_exact(self, sys_shifted, rng):
        for m in (2, 3, 5):
            ll = random_lifted(sys_shifted, rng)
            a1 = lifted_action_A(sys_shifted, E, ll)
            am = lifted_action_A(sys_shifted, E, iterate(ll, m))
            assert am == pytest.approx(m * a1, rel=1e-12)

    def test_composition_with_resampling(self, sys_z, rng):
        ll = random_lifted(sys_z, rng, n=1024)
        # 6*1024 nodes: long iterates keep every node
        it6 = iterate(ll, 6)
        assert it6.loop.n == 6144
        a6 = lifted_action_A(sys_z, E, it6)
        a23 = lifted_action_A(sys_z, E, iterate(iterate(ll, 2), 3))
        assert a23 == pytest.approx(a6, rel=1e-6)

    @pytest.mark.parametrize("n, m", [(1500, 3), (1000, 5), (700, 7), (4096, 2)])
    def test_long_iterate_tiles_nodes(self, n, m):
        # m * n > 4096: the iterate retraces every node, so the two ends of
        # a chain from a loop to its m-fold iterate share the node count
        loop = latitude_loop(0.3, n)
        it = iterate(LiftedLoop(loop, 0.25), m)
        assert np.array_equal(it.nodes, np.tile(loop.nodes, (m, 1)))
        assert it.p == m * loop.p and it.flux == m * 0.25

    def test_order_guard(self, sys_z, rng):
        with pytest.raises(ValueError):
            iterate(random_lifted(sys_z, rng), 0)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 6])
    def test_primitive_undoes_iterate(self, m):
        # the largest retrace order wins: the 4-fold iterate is also 2-fold
        # retraced, and its primitive is still the 48-node loop
        loop = latitude_loop(-0.4, 48, p=2.0)
        prim = primitive(iterate(LiftedLoop(loop, 0.0), m).loop)
        assert np.array_equal(prim.nodes, loop.nodes)
        assert prim.p == pytest.approx(loop.p)


class TestDeckTransform:
    def test_identity(self, sys_shifted, rng):
        ll = random_lifted(sys_shifted, rng)
        assert deck_transform(sys_shifted, ll, 0) is ll

    def test_action_shift(self, sys_shifted, rng):
        ll = random_lifted(sys_shifted, rng)
        a0 = lifted_action_A(sys_shifted, E, ll)
        a1 = lifted_action_A(sys_shifted, E, deck_transform(sys_shifted, ll, 1))
        assert a1 - a0 == pytest.approx(0.8 * np.pi, abs=1e-6)

    def test_inverse_composition(self, sys_shifted, rng):
        ll = random_lifted(sys_shifted, rng)
        back = deck_transform(sys_shifted, deck_transform(sys_shifted, ll, 3), -3)
        assert back.flux == pytest.approx(ll.flux, abs=1e-14)

    def test_shift_exactness(self, sys_shifted, rng):
        ll = random_lifted(sys_shifted, rng)
        total = sys_shifted.total_flux()
        for k in (-2, 1, 5):
            shifted = deck_transform(sys_shifted, ll, k)
            assert shifted.flux - ll.flux == k * total


class TestActionGradient:
    def _fd_gradient(self, sys, e, ll, eps=1e-5):
        loop = ll.loop
        n = loop.n
        fd = np.zeros((n, 3))
        for i in range(n):
            e1, e2 = tangent_basis(loop.nodes[i])
            for d in (e1, e2):
                plus = loop.nodes.copy()
                minus = loop.nodes.copy()
                plus[i] = project_to_sphere(loop.nodes[i] + eps * d)
                minus[i] = project_to_sphere(loop.nodes[i] - eps * d)
                ap = lifted_action_A(sys, e, deform(sys, ll, FreePeriodLoop(plus, loop.p)))
                am = lifted_action_A(sys, e, deform(sys, ll, FreePeriodLoop(minus, loop.p)))
                fd[i] += ((ap - am) / (2.0 * eps)) * d
        ap = lifted_action_A(sys, e, LiftedLoop(loop.with_period(loop.p + eps), ll.flux))
        am = lifted_action_A(sys, e, LiftedLoop(loop.with_period(loop.p - eps), ll.flux))
        return fd, (ap - am) / (2.0 * eps)

    def test_matches_finite_differences(self, sys_shifted, rng):
        for n in (32, 64, 128):
            ll = random_lifted(sys_shifted, rng, n=n)
            grad = action_gradient(sys_shifted, E, ll)
            fd_nodes, fd_p = self._fd_gradient(sys_shifted, E, ll)
            num = np.sqrt(np.sum((fd_nodes - grad.node_grads) ** 2) + (fd_p - grad.p_grad) ** 2)
            den = np.sqrt(np.sum(fd_nodes**2) + fd_p**2)
            assert num / den < 1e-5

    def test_matches_fd_with_potential_and_drift(self, rng):
        sys_full = MagneticSystem(
            ScalarField.height(1.0, 0.2),
            potential=ScalarField.zonal_poly(0.1, -0.2, 0.15),
            drift=0.3,
        )
        ll = random_lifted(sys_full, rng, n=48)
        grad = action_gradient(sys_full, 0.6, ll)
        fd_nodes, fd_p = self._fd_gradient(sys_full, 0.6, ll)
        num = np.sqrt(np.sum((fd_nodes - grad.node_grads) ** 2) + (fd_p - grad.p_grad) ** 2)
        den = np.sqrt(np.sum(fd_nodes**2) + fd_p**2)
        assert num / den < 1e-5

    def test_matches_fd_with_conformal_metric(self, rng):
        sys_conf = MagneticSystem(
            ScalarField.height(1.0, 0.2),
            potential=ScalarField.height(0.1, 0.0),
            conformal_exponent=ScalarField.height(0.2, 0.0),
        )
        ll = random_lifted(sys_conf, rng, n=48)
        grad = action_gradient(sys_conf, 0.3, ll)
        fd_nodes, fd_p = self._fd_gradient(sys_conf, 0.3, ll)
        num = np.sqrt(np.sum((fd_nodes - grad.node_grads) ** 2) + (fd_p - grad.p_grad) ** 2)
        den = np.sqrt(np.sum(fd_nodes**2) + fd_p**2)
        assert num / den < 1e-5

    def test_p_component_closed_form(self, sys_z, rng):
        loop = random_loop(rng)
        p_star = optimal_period(sys_z, loop, E)
        grad = action_gradient(sys_z, E, LiftedLoop(loop.with_period(p_star), 0.0))
        assert abs(grad.p_grad) < 1e-10
        grad2 = action_gradient(sys_z, E, LiftedLoop(loop.with_period(2 * p_star), 0.0))
        assert abs(grad2.p_grad) > 1e-4

    def test_gradient_vanishes_at_critical_circle(self, sys_z):
        loop = latitude_loop(0.0, 128)
        loop = loop.with_period(optimal_period(sys_z, loop, E))
        ll = lift_loop(sys_z, loop)
        _, dual = h1_precondition(loop, action_gradient(sys_z, E, ll))
        assert dual < 1e-12

    def test_gradients_tangent(self, sys_shifted, rng):
        ll = random_lifted(sys_shifted, rng)
        grad = action_gradient(sys_shifted, E, ll)
        dots = np.sum(grad.node_grads * ll.nodes, axis=1)
        assert np.max(np.abs(dots)) < 1e-12


class TestH1Solve:
    def test_matches_dense_solve(self, rng):
        n = 32
        vecs = rng.normal(size=(n, 3))
        dense = np.eye(n)
        d = np.roll(np.eye(n), -1, axis=1) - np.eye(n)
        m = dense + n * n * d.T @ d
        expected = np.linalg.solve(m, vecs)
        assert np.allclose(h1_solve(vecs), expected, atol=1e-10)


class TestValley:
    def test_constant_loop_inside(self, sys_shifted):
        loop = constant_like_loop(np.array([0.0, 0.0, 1.0]), p=0.05)
        assert in_valley(sys_shifted, loop, 0.1)

    def test_equator_outside(self, sys_shifted):
        loop = latitude_loop(0.0, 64).with_period(10.0 * np.pi)
        assert not in_valley(sys_shifted, loop, 0.1)

    def test_boundary_is_strict(self, sys_shifted):
        tau = 0.1
        loop = constant_like_loop(np.array([0.0, 0.0, 1.0]), p=tau / 2)
        w = loop.velocities()
        speed_sq = float(np.mean(np.sum(w * w, axis=1)))
        scale = np.sqrt(tau * loop.p / speed_sq)
        nodes = project_to_sphere(
            np.array([0.0, 0.0, 1.0]) + scale * (loop.nodes - np.array([0.0, 0.0, 1.0]))
        )
        boundary = FreePeriodLoop(nodes, loop.p)
        wb = boundary.velocities()
        sb = float(np.mean(np.sum(wb * wb, axis=1)))
        if sb < tau * loop.p:  # nudge outward until exactly at/over the line
            boundary = FreePeriodLoop(
                project_to_sphere(
                    np.array([0.0, 0.0, 1.0])
                    + 1.01 * scale * (loop.nodes - np.array([0.0, 0.0, 1.0]))
                ),
                loop.p,
            )
        assert not in_valley(sys_shifted, boundary, tau)

    def test_valley_tau_capped(self, sys_shifted):
        # 2*h1/sup = 2*0.5/1.2 = 5/6, capped at 0.1
        assert valley_tau(sys_shifted) == pytest.approx(0.1)

    def test_valley_tau_scaling(self):
        big = MagneticSystem(ScalarField.height(10.0, 2.0))
        # sup |f| = 12 -> tau = 2*0.5/12 = 1/12 < cap
        assert valley_tau(big) == pytest.approx(1.0 / 12.0, rel=1e-3)

    def test_valley_tau_non_zonal_exact(self):
        # sup |f| = 5 + |(30, -40, 10)| is attained at a single point, which
        # a sampled sup misses
        tilted = MagneticSystem(ScalarField.linear(30.0, -40.0, 10.0, 5.0))
        assert valley_tau(tilted) == pytest.approx(1.0 / (5.0 + np.sqrt(2600.0)), abs=1e-15)

    def test_zero_form_returns_cap(self):
        empty = MagneticSystem(ScalarField.constant(0.0))
        assert valley_tau(empty) == pytest.approx(0.1)
