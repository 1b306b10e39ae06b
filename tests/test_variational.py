from dataclasses import fields, replace

import numpy as np
import pytest
from scipy import integrate as sp_integrate
from scipy import optimize
from scipy.sparse.linalg import LinearOperator, minres

from magflow import (
    LiftedLoop,
    MagneticSystem,
    ScalarField,
    SolverConfig,
    action_gradient,
    certify_orbit,
    deck_transform,
    find_waist,
    h1_precondition,
    iterate,
    latitude_loop,
    lift_loop,
    lifted_action_A,
    minimax_path,
    optimal_period,
    perturb_normal,
    refine_stationary,
)
from magflow import variational
from magflow.errors import EndpointNotMinimal, MaxIterations, NonFiniteAction, ValleyCollapse
from magflow.loop_space import h1_solve, primitive
from magflow.variational import (
    DEDUPE_HAUSDORFF,
    DEDUPE_PERIOD,
    _dual_norm,
    _endpoint_for_label,
    _lbfgs_direction,
    _minres,
    build_connecting_chain,
    default_seed_builder,
    hausdorff_distance,
    minimax_between_labels,
    multiplicity_search,
    polish_candidate,
    prepare_waists,
    scan_energy,
)

E = 0.02
FAST = SolverConfig(max_iter=6000)


def latitude_oracle_minimum(f_profile, e):
    """1-D oracle: minimal lifted action over latitude circles."""

    def action(z0):
        flux, _ = sp_integrate.quad(f_profile, -1.0, z0, limit=200)
        return 2.0 * np.pi * (np.sqrt(1.0 - z0 * z0) * np.sqrt(2.0 * e) + flux)

    res = optimize.minimize_scalar(action, bounds=(-0.999, 0.999), method="bounded")
    return float(res.x), float(res.fun)


def ledger_defect(sys, ll):
    """Distance of the ledger from a fresh lift of its loop, modulo the total flux."""
    diff = ll.flux - lift_loop(sys, ll.loop).flux
    total = sys.total_flux()
    k = round(diff / total) if abs(total) > 1e-12 else 0
    return abs(diff - k * total)


class TestFindWaist:
    def test_equator_waist(self, sys_z):
        seed = default_seed_builder(sys_z, E)(128)
        res = find_waist(sys_z, E, seed, FAST)
        assert res.gradient_norm <= 1e-6
        assert res.action == pytest.approx(-0.6 * np.pi, abs=1e-3)
        assert abs(res.report.mean_energy_residual) <= 1e-6
        assert res.report.self_intersections == 0
        assert np.max(np.abs(res.lifted.nodes[:, 2])) < 1e-3

    def test_report_is_certified_on_first_read(self, sys_z, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return certify_orbit(*args)

        monkeypatch.setattr(variational, "certify_orbit", counting)
        seed = default_seed_builder(sys_z, E, z0=0.0, amplitude=0.05, mode=3)(128)
        res = find_waist(sys_z, E, seed, SolverConfig())
        assert calls == []
        eager = replace(certify_orbit(sys_z, res.lifted.loop, E), gradient_norm=res.gradient_norm)
        report = res.report
        assert res.report is report
        assert len(calls) == 1
        # field for field, bit for bit
        for f in fields(report):
            got, want = getattr(report, f.name), getattr(eager, f.name)
            assert type(got) is type(want)
            assert (got.hex() if isinstance(got, float) else got) == (
                want.hex() if isinstance(want, float) else want
            ), f.name

    def test_non_finite_action_raises_at_once(self, monkeypatch):
        # an overflowing drift makes the gradient norm infinite; the descent
        # must stop there, not accept infinite or NaN trials to its budget
        steps, trial_step = [], variational._trial_step

        def counting(*args):
            steps.append(args)
            return trial_step(*args)

        monkeypatch.setattr(variational, "_trial_step", counting)
        sys_big = MagneticSystem(ScalarField.height(1.0, 0.0), drift=1e300)
        loop = latitude_loop(0.3, 64)
        seed = lift_loop(sys_big, loop.with_period(optimal_period(sys_big, loop, E)))
        with pytest.raises(NonFiniteAction), np.errstate(over="ignore", invalid="ignore"):
            find_waist(sys_big, E, seed, SolverConfig(max_iter=20000))
        assert steps == []

    def test_lbfgs_iterations_acceptance_04_seed(self, sys_z):
        seed = default_seed_builder(sys_z, E, z0=0.0, amplitude=0.05, mode=3)(128)
        assert find_waist(sys_z, E, seed, SolverConfig()).iterations <= 10

    def test_lbfgs_iterations_shifted_density(self, sys_shifted):
        seed = default_seed_builder(sys_shifted, E, z0=-0.2)(96)
        assert find_waist(sys_shifted, E, seed, FAST).iterations <= 40

    def test_lbfgs_without_pairs_is_h1_direction(self, sys_shifted):
        ll = default_seed_builder(sys_shifted, E, amplitude=0.08)(64)
        grad = action_gradient(sys_shifted, E, ll)
        direction = _lbfgs_direction(ll.nodes, grad.node_grads, [])
        assert np.array_equal(direction, h1_precondition(ll.loop, grad)[0])

    def test_shifted_density_matches_latitude_oracle(self, sys_shifted):
        seed = default_seed_builder(sys_shifted, E, z0=-0.2)(96)
        res = find_waist(sys_shifted, E, seed, FAST)
        z_star, a_star = latitude_oracle_minimum(lambda z: z + 0.2, E)
        assert a_star < 0
        assert res.action == pytest.approx(a_star, abs=2e-3)
        assert np.ptp(res.lifted.nodes[:, 2]) < 1e-3  # latitude-type circle
        assert np.mean(res.lifted.nodes[:, 2]) == pytest.approx(z_star, abs=1e-3)

    @pytest.mark.parametrize("system", ["sys_z", "sys_shifted"])
    def test_ledger_matches_fresh_lift(self, request, system):
        # the descent carries the ledger by sweeps; a fresh cone lift of the
        # final loop must agree modulo the total flux, up to the sweeps'
        # accumulated quadrature error (5.7e-6 and 9.9e-5 after 5 and 19
        # L-BFGS steps; on f = z + 0.2 almost all of it comes from one
        # 0.24-rad step)
        sys = request.getfixturevalue(system)
        res = find_waist(sys, E, default_seed_builder(sys, E)(128), FAST)
        assert ledger_defect(sys, res.lifted) <= 1e-4

    def test_valley_seed_rejected(self, sys_shifted):
        tiny = latitude_loop(0.999, 32)
        seed = lift_loop(sys_shifted, tiny.with_period(0.01))
        with pytest.raises(ValleyCollapse):
            find_waist(sys_shifted, E, seed, FAST)

    def test_descent_monotone(self, sys_z):
        seed = default_seed_builder(sys_z, E, amplitude=0.08)(64)
        res = find_waist(sys_z, E, seed, FAST)
        hist = np.array(res.history)
        assert np.all(np.diff(hist) <= 0.0)

    def test_budget_exhaustion(self, sys_z):
        seed = default_seed_builder(sys_z, E, amplitude=0.08)(64)
        with pytest.raises(MaxIterations) as err:
            find_waist(sys_z, E, seed, SolverConfig(max_iter=3, tol=1e-12))
        assert err.value.best is not None

    def test_mesh_robustness(self, sys_z):
        actions = {}
        for n in (64, 128):
            seed = default_seed_builder(sys_z, E)(n)
            actions[n] = find_waist(sys_z, E, seed, FAST).action
        rel = abs(actions[64] - actions[128]) / abs(actions[128])
        assert rel <= 1e-3

    def test_conformal_metric_full_stack(self):
        # a conformal factor breaks the z -> -z symmetry: the minimizing ring
        # drifts off the equator but stays a flat critical circle
        sysc = MagneticSystem(
            ScalarField.height(1.0, 0.0), conformal_exponent=ScalarField.height(0.15, 0.0)
        )
        seed = default_seed_builder(sysc, E, amplitude=0.02)(48)
        res = find_waist(sysc, E, seed, SolverConfig(tol=2e-5, max_iter=8000))
        assert res.gradient_norm <= 2e-5
        assert res.action < 0
        z = res.lifted.nodes[:, 2]
        assert np.ptp(z) < 1e-3
        assert -0.2 < float(np.mean(z)) < -1e-3
        assert abs(res.report.mean_energy_residual) <= 1e-6


class TestRefineStationary:
    def test_polishes_perturbed_circle(self, sys_z):
        # the small circle at z0 = -sqrt(0.96) is a genuine stationary point
        z0 = -np.sqrt(1.0 - 2.0 * E)
        loop = latitude_loop(z0, 128)
        loop = perturb_normal(loop, 0.004, 2)
        loop = loop.with_period(optimal_period(sys_z, loop, E))
        refined, dual = refine_stationary(sys_z, E, loop, tol=1e-8)
        assert dual <= 1e-8
        assert np.ptp(refined.nodes[:, 2]) < 1e-4
        assert np.mean(refined.nodes[:, 2]) == pytest.approx(z0, abs=1e-4)


class TestMinres:
    N = 64

    def precond(self, v):
        """The H^1 preconditioner of ``refine_stationary``."""
        out = np.empty_like(v)
        out[:-1] = h1_solve(v[:-1].reshape(self.N, 3)).ravel()
        out[-1] = v[-1]
        return out

    def system(self):
        """Random symmetric indefinite A = L Q D Q^T L^T of size 3*64+1,
        with L L^T the H^1 metric, so the preconditioned spectrum is D."""
        rng = np.random.default_rng(7)
        dim = 3 * self.N + 1
        metric = np.linalg.inv(np.column_stack([self.precond(col) for col in np.eye(dim)]))
        lower = np.linalg.cholesky((metric + metric.T) / 2.0)
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        d = np.concatenate([-rng.uniform(0.5, 2.0, dim // 3), rng.uniform(0.5, 3.0, dim - dim // 3)])
        a = lower @ (q * d) @ q.T @ lower.T
        return (a + a.T) / 2.0, rng.standard_normal(dim)

    @pytest.mark.parametrize("rtol", [1e-2, 1e-10])
    def test_matches_scipy(self, rtol):
        a, b = self.system()
        dim = len(b)
        mine = _minres(lambda v: a @ v, b, self.precond, rtol, 5 * dim)
        ref, info = minres(
            LinearOperator((dim, dim), matvec=lambda v: a @ v),
            b,
            M=LinearOperator((dim, dim), matvec=self.precond),
            rtol=rtol,
            maxiter=5 * dim,
        )
        assert info == 0
        assert np.linalg.norm(mine - ref) <= 1e-10 * np.linalg.norm(ref)
        if rtol == 1e-10:
            assert np.linalg.norm(a @ mine - b) <= 1e-6 * np.linalg.norm(b)

    def test_zero_rhs(self):
        x = _minres(lambda v: v, np.zeros(5), lambda v: v, 1e-2, 10)
        assert np.array_equal(x, np.zeros(5))

    @pytest.mark.parametrize("first", [-1.0, 1.0])
    def test_indefinite_preconditioner_raises(self, first):
        # b = e_0: with first = -1 the initial beta is negative; with
        # first = +1 it is positive and a later Lanczos beta turns negative
        a, _ = self.system()
        b = np.zeros(len(a))
        b[0] = 1.0
        signs = -np.ones(len(a))
        signs[0] = first
        with pytest.raises(ValueError):
            _minres(lambda v: a @ v, b, lambda v: signs * v, 1e-2, 200)


class TestConnectingChain:
    def test_iterate_chain_lands_in_class(self, sys_shifted):
        waist = latitude_loop(-0.2521, 96)
        waist = waist.with_period(optimal_period(sys_shifted, waist, E))
        end_a = lift_loop(sys_shifted, waist)
        end_b = iterate(end_a, 2)
        # common node count for the chain
        end_a_fine = lift_loop(sys_shifted, latitude_loop(-0.2521, 192).with_period(waist.p))
        chain = build_connecting_chain(sys_shifted, E, end_a_fine, end_b, 1, 2, 0)
        assert chain[0] is not None
        assert chain[-1].flux == end_b.flux
        assert np.array_equal(chain[-1].nodes, end_b.nodes)

    def test_deck_chain_winds_once(self, sys_shifted):
        waist = latitude_loop(-0.2521, 96)
        waist = waist.with_period(optimal_period(sys_shifted, waist, E))
        end_a = lift_loop(sys_shifted, waist)
        end_b = deck_transform(sys_shifted, end_a, 1)
        chain = build_connecting_chain(sys_shifted, E, end_a, end_b, 1, 1, 1)
        assert chain[-1].flux == end_b.flux


class TestMinimax:
    def test_degenerate_pair(self, sys_z):
        loop = latitude_loop(0.0, 64)
        loop = loop.with_period(optimal_period(sys_z, loop, E))
        ll = lift_loop(sys_z, loop)
        res = minimax_path(sys_z, E, ll, ll, cfg=SolverConfig())
        assert res.converged
        assert res.stop_reason == "identical endpoints"
        assert res.value == lifted_action_A(sys_z, E, ll)

    def test_endpoint_must_be_minimal(self, sys_z, rng):
        from tests.conftest import random_lifted

        loop = latitude_loop(0.0, 64)
        loop = loop.with_period(optimal_period(sys_z, loop, E))
        good = lift_loop(sys_z, loop)
        bad = random_lifted(sys_z, rng)
        with pytest.raises(EndpointNotMinimal):
            minimax_path(sys_z, E, good, bad, cfg=SolverConfig())

    def test_iterate_pair_converges(self, sys_z):
        cfg = SolverConfig()
        seeds = default_seed_builder(sys_z, E)
        waists = prepare_waists(sys_z, E, [(1, 0), (2, 0)], seeds, 512, cfg)
        mm = minimax_between_labels(sys_z, E, waists, (1, 0), (2, 0), cfg)
        ends = [
            lifted_action_A(sys_z, E, waists[1].lifted),
            2.0 * lifted_action_A(sys_z, E, waists[2].lifted),
        ]
        assert mm.value >= max(ends)
        assert mm.converged
        assert mm.saddle_gradient_norm <= cfg.tol
        # one Newton polish from the chain maximum
        assert mm.stop_reason == "polished"
        assert mm.history == [mm.value]
        assert mm.saddle is mm.path[mm.argmax_index]
        assert mm.saddle_gradient_norm == pytest.approx(_dual_norm(sys_z, E, mm.saddle), rel=1e-12)
        # the saddle is the doubled small circle: value ~ 4*pi*e
        assert mm.value == pytest.approx(4.0 * np.pi * E, abs=5e-3)
        # the chain carries the ledger by sweeps (defect 7.6e-4 measured)
        assert ledger_defect(sys_z, mm.saddle) <= 5e-3
        rep = certify_orbit(sys_z, polish_candidate(sys_z, mm.saddle.loop, E), E)
        assert rep.closure_residual <= 1e-4
        assert abs(rep.mean_energy_residual) <= 1e-5

    def test_benchmark_pair_shoots_only_the_saddle(self, sys_z, monkeypatch):
        # the endpoint waists' reports are never read, so they are never shot
        calls = []

        def counting(sys, candidate, e):
            calls.append(candidate)
            return certify_orbit(sys, candidate, e)

        monkeypatch.setattr(variational, "certify_orbit", counting)
        cfg = SolverConfig()
        seeds = default_seed_builder(sys_z, E, amplitude=0.05)
        waists = prepare_waists(sys_z, E, [(1, 0), (2, 0)], seeds, 512, cfg)
        mm = minimax_between_labels(sys_z, E, waists, (1, 0), (2, 0), cfg)
        assert len(calls) == 1
        assert np.array_equal(calls[0].nodes, mm.saddle.nodes)

    def test_deck_equivariance(self, sys_shifted):
        cfg = SolverConfig()
        seeds = default_seed_builder(sys_shifted, E, z0=-0.2)
        waists = prepare_waists(sys_shifted, E, [(1, 0)], seeds, 128, cfg)
        base = minimax_between_labels(sys_shifted, E, waists, (1, 0), (1, 1), cfg)
        shifted = minimax_between_labels(sys_shifted, E, waists, (1, 2), (1, 3), cfg)
        total = sys_shifted.total_flux()
        assert shifted.value - base.value == pytest.approx(2.0 * total, abs=1e-6)
        # the chain carries the ledger by sweeps (defect 1.9e-3 measured)
        for mm in (base, shifted):
            assert (mm.converged, mm.stop_reason) == (True, "polished")
            assert mm.saddle_gradient_norm <= cfg.tol
            assert ledger_defect(sys_shifted, mm.saddle) <= 5e-3
            assert mm.saddle_gradient_norm == pytest.approx(
                _dual_norm(sys_shifted, E, mm.saddle), rel=1e-12
            )

    def test_failed_polish_reports_chain_maximum(self, sys_z, monkeypatch):
        # when Newton misses the tolerance the result is the unpolished chain
        # maximum, reporting its own gradient norm.  Its value is the highest
        # link of the connecting chain, not an upper bound for the pass: here
        # it reads 0.2420 against the polished 0.2517 (the links step over
        # the top of the doubled-circle family)
        cfg = SolverConfig()
        labels = [(1, 0), (2, 0)]
        waists = prepare_waists(sys_z, E, labels, default_seed_builder(sys_z, E), 128, cfg)
        assert minimax_between_labels(sys_z, E, waists, *labels, cfg).converged

        monkeypatch.setattr(variational, "refine_stationary", lambda sys, e, loop, tol: (loop, 1.0))
        mm = minimax_between_labels(sys_z, E, waists, *labels, cfg)
        assert not mm.converged
        assert mm.stop_reason == "not polished"
        assert mm.history == [mm.value]
        assert mm.saddle is mm.path[mm.argmax_index]
        assert mm.value == pytest.approx(max(lifted_action_A(sys_z, E, u) for u in mm.path), rel=1e-12)
        assert 0 < mm.argmax_index < len(mm.path) - 1
        assert mm.saddle_gradient_norm > cfg.tol
        assert mm.saddle_gradient_norm == pytest.approx(_dual_norm(sys_z, E, mm.saddle), rel=1e-12)
        assert mm.report.gradient_norm == mm.saddle_gradient_norm
        # the path is the connecting chain itself, link by link, with the
        # endpoint ledger added back
        end_a, end_b = (_endpoint_for_label(sys_z, E, waists, *lbl) for lbl in labels)
        rel_a = LiftedLoop(end_a.loop, 0.0)
        rel_b = LiftedLoop(end_b.loop, end_b.flux - end_a.flux)
        chain = build_connecting_chain(sys_z, E, rel_a, rel_b, 1, 2, 0)
        assert len(mm.path) == len(chain)
        for u, v in zip(mm.path, chain):
            assert np.array_equal(u.nodes, v.nodes) and u.p == v.p
            assert u.flux == v.flux + end_a.flux

        res = multiplicity_search(sys_z, E, labels, cfg, path_n=128)
        assert [f["pair"] for f in res.failures] == [tuple(labels)]
        assert res.failures[0]["reason"].startswith("nonconvergence")
        assert [o.source for o in res.orbits] == ["waist"]

    def test_marginal_saddle_closes(self, sys_shifted):
        # Newton polishes to 1e-3 * tol: at cfg.tol alone this saddle stops at
        # dual norm 9.6e-7 and closes at 1.03e-4, above the 1e-4 bound
        cfg = SolverConfig()
        seeds = default_seed_builder(sys_shifted, E, z0=-0.2)
        waists = prepare_waists(sys_shifted, E, [(1, 0), (2, 0)], seeds, 512, cfg)
        mm = minimax_between_labels(sys_shifted, E, waists, (1, 0), (2, 0), cfg)
        assert mm.converged
        assert mm.report.certified


class TestDedupe:
    def test_primitive_extraction(self, sys_z):
        loop = latitude_loop(-0.4, 64)
        double = iterate(LiftedLoop(loop, 0.0), 2).loop
        prim = primitive(double)
        assert prim.n == 64
        assert prim.p == pytest.approx(double.p / 2.0)
        assert hausdorff_distance(prim.nodes, loop.nodes) < 1e-12

    def test_hausdorff_separates_latitudes(self):
        a = latitude_loop(-0.4, 64).nodes
        b = latitude_loop(-0.1, 64).nodes
        assert hausdorff_distance(a, b) > 0.2


class TestScan:
    def test_empty_grid(self, sys_z):
        assert scan_energy(sys_z, []) == []

    def test_grid_must_increase(self, sys_z):
        with pytest.raises(ValueError):
            scan_energy(sys_z, [0.04, 0.02])

    def test_error_rows_marked(self):
        # an energy below the rest level cannot seed: the row carries the error
        sysu = MagneticSystem(
            ScalarField.height(1.0, 0.0), potential=ScalarField.constant(0.5)
        )
        rows = scan_energy(sysu, [0.01], path_n=64)
        assert len(rows) == 1
        assert rows[0]["status"].startswith("error:")


class TestMultiplicity:
    def test_single_label_returns_waist(self, sys_shifted):
        cfg = SolverConfig()
        res = multiplicity_search(sys_shifted, E, [(1, 0)], cfg, path_n=96, seed_z0=-0.2)
        assert res.distinct_count == 1
        assert res.orbits[0].source == "waist"
        assert res.orbits[0].report.gradient_norm <= cfg.tol

    def test_duplicate_labels_rejected(self, sys_shifted):
        with pytest.raises(ValueError):
            multiplicity_search(sys_shifted, E, [(1, 0), (1, 0)], SolverConfig())

    def test_waist_and_iterate_dedupe(self, sys_shifted):
        # records whose primitives coincide collapse to one orbit
        loop = latitude_loop(-0.2521, 96)
        loop = loop.with_period(optimal_period(sys_shifted, loop, E))
        prim_a = primitive(loop)
        prim_b = primitive(iterate(LiftedLoop(loop, 0.0), 2).loop)
        assert hausdorff_distance(prim_a.nodes, prim_b.nodes) < DEDUPE_HAUSDORFF
        assert abs(prim_a.p / prim_b.p - 1.0) < DEDUPE_PERIOD
