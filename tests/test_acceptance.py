"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from magflow import (
    FreePeriodLoop,
    LiftedLoop,
    SeedLoop,
    SolverConfig,
    State,
    action_gradient,
    certify_orbit,
    deck_transform,
    deform,
    e1_lower_bound_general,
    e1_lower_bound_symmetric,
    energy_drift,
    find_waist,
    in_valley,
    integrate,
    iterate,
    lift_loop,
    lifted_action_A,
    sweep_flux,
    valley_tau,
)
from magflow.cli import main as cli_main
from magflow.loop_space import cone_flux
from magflow.sphere_geom import project_to_sphere, tangent_basis
from magflow.variational import (
    minimax_between_labels,
    multiplicity_search,
    prepare_waists,
    scan_energy,
)
from tests.conftest import random_loop, zeta_loop


@contextmanager
def criterion(num, desc):
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE {num}: FAIL - {desc}")
        raise
    print(f"\nACCEPTANCE {num}: PASS - {desc}")


def test_criterion_01_gradient_correctness(sys_shifted, rng):
    with criterion("01", "action gradient matches central finite differences"):
        e = 0.02
        eps = 1e-5
        t0 = time.time()
        worst = 0.0
        for _ in range(100):
            loop = random_loop(rng, 64)
            ll = lift_loop(sys_shifted, loop)
            grad = action_gradient(sys_shifted, e, ll.loop)
            fd = np.zeros((64, 3))
            for i in range(64):
                b1, b2 = tangent_basis(loop.nodes[i])
                for d in (b1, b2):
                    plus = loop.nodes.copy()
                    minus = loop.nodes.copy()
                    plus[i] = project_to_sphere(loop.nodes[i] + eps * d)
                    minus[i] = project_to_sphere(loop.nodes[i] - eps * d)
                    ap = lifted_action_A(
                        sys_shifted, e, deform(sys_shifted, ll, FreePeriodLoop(plus, loop.p))
                    )
                    am = lifted_action_A(
                        sys_shifted, e, deform(sys_shifted, ll, FreePeriodLoop(minus, loop.p))
                    )
                    fd[i] += ((ap - am) / (2.0 * eps)) * d
            ap = lifted_action_A(sys_shifted, e, LiftedLoop(loop.with_period(loop.p + eps), ll.flux))
            am = lifted_action_A(sys_shifted, e, LiftedLoop(loop.with_period(loop.p - eps), ll.flux))
            fd_p = (ap - am) / (2.0 * eps)
            num = np.sqrt(np.sum((fd - grad.node_grads) ** 2) + (fd_p - grad.p_grad) ** 2)
            den = np.sqrt(np.sum(fd**2) + fd_p**2)
            worst = max(worst, num / den)
        elapsed = time.time() - t0
        print(f"  [worst relative error {worst:.2e}, {elapsed:.1f}s]", end="")
        assert worst <= 1e-5
        assert elapsed <= 30.0


def test_criterion_02a_energy_conservation(sys_const):
    with criterion("02a", "constant-field energy drift <= 1e-7 at h=1e-3, T=50"):
        s0 = State.of([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])  # e = 0.5
        drift = energy_drift(integrate(sys_const, s0, 50.0, 1e-3))
        print(f"  [drift {drift:.2e}]", end="")
        assert drift <= 1e-7


@pytest.mark.xfail(
    strict=True,
    reason=(
        "unattainable as stated: the constant-field orbit is a linear rotation, "
        "for which projected RK4 has oscillatory O(h^5) energy error; at h=1e-3 "
        "the drift sits at the roundoff floor (~1e-14) and halving h changes it "
        "by roundoff noise, while in the truncation-dominated regime the ratio "
        "is ~32 (order five), never inside [12, 20]; see the decisions ledger"
    ),
)
def test_criterion_02b_halving_ratio(sys_const):
    with criterion("02b", "halving h reduces drift by a factor in [12, 20]"):
        s0 = State.of([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
        d1 = energy_drift(integrate(sys_const, s0, 50.0, 1e-3))
        d2 = energy_drift(integrate(sys_const, s0, 50.0, 5e-4))
        ratio = d1 / d2
        d1_t = energy_drift(integrate(sys_const, s0, 50.0, 4e-2))
        d2_t = energy_drift(integrate(sys_const, s0, 50.0, 2e-2))
        print(
            f"  [at pinned h: {d1:.2e}/{d2:.2e} ratio {ratio:.1f}; "
            f"truncation regime ratio {d1_t / d2_t:.1f}]",
            end="",
        )
        assert 12.0 <= ratio <= 20.0


def test_criterion_03_closed_form_orbit(sys_const):
    with criterion("03", "f=1 orbit closes at period pi*sqrt(2) within 1e-6"):
        s0 = State.of([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
        traj = integrate(sys_const, s0, np.pi * np.sqrt(2.0), 1e-3)
        sf = traj.final_state
        residual = float(np.sqrt(np.sum((sf.q - s0.q) ** 2) + np.sum((sf.v - s0.v) ** 2)))
        print(f"  [closure {residual:.2e}]", end="")
        assert residual <= 1e-6


def test_criterion_04_waist_value(sys_z):
    with criterion("04", "perturbed-equator waist: gradient, action, energy, embedded"):
        e = 0.02
        t0 = time.time()
        seed = SeedLoop(z0=0.0, amplitude=0.05, mode=3).lift(sys_z, e, 128)
        res = find_waist(sys_z, e, seed, SolverConfig())
        elapsed = time.time() - t0
        print(
            f"  [action {res.action:.6f} vs {-0.6 * np.pi:.6f}, grad {res.gradient_norm:.1e}, "
            f"{elapsed:.0f}s]",
            end="",
        )
        assert res.gradient_norm <= 1e-6
        assert res.action == pytest.approx(-0.6 * np.pi, abs=1e-3)
        assert abs(res.report.mean_energy_residual) <= 1e-6
        assert res.report.self_intersections == 0
        assert elapsed <= 120.0


def test_criterion_05_deck_shift_identity(sys_shifted, rng):
    with criterion("05", "deck shift adds 0.8*pi; zeta family sweeps the total flux"):
        e = 0.02
        for _ in range(20):
            ll = lift_loop(sys_shifted, random_loop(rng, 48))
            a0 = lifted_action_A(sys_shifted, e, ll)
            a1 = lifted_action_A(sys_shifted, e, deck_transform(sys_shifted, ll, 1))
            assert a1 - a0 == pytest.approx(0.8 * np.pi, abs=1e-6)
        steps, n = 64, 128
        total = 0.0
        prev = zeta_loop(0.0, n)
        for k in range(1, steps + 1):
            cur = zeta_loop(k / steps, n)
            total += sweep_flux(sys_shifted, prev, cur)
            prev = cur
        print(f"  [zeta sweep {total:.6f} vs {sys_shifted.total_flux():.6f}]", end="")
        assert total == pytest.approx(sys_shifted.total_flux(), abs=1e-4)


def test_criterion_06_iterate_identity(sys_shifted, rng):
    with criterion("06", "m-fold iterates scale the lifted action exactly"):
        e = 0.02
        for _ in range(20):
            ll = lift_loop(sys_shifted, random_loop(rng, 48))
            a1 = lifted_action_A(sys_shifted, e, ll)
            for m in (2, 3, 5):
                am = lifted_action_A(sys_shifted, e, iterate(ll, m))
                assert am == pytest.approx(m * a1, rel=1e-6)


def test_criterion_07_e1_oracle(sys_z, sys_const):
    with criterion("07", "critical energy bounds: latitude oracle and general descent"):
        sym = e1_lower_bound_symmetric(sys_z, 0.3)
        assert sym.negative_found
        assert sym.value == pytest.approx(0.125, abs=1e-3)
        grid = [round(0.01 * k, 10) for k in range(1, 14)]
        gen = e1_lower_bound_general(sys_z, grid, SolverConfig(tol=1e-5, max_iter=4000), n=64)
        print(f"  [symmetric {sym.value:.5f}, general {gen.value:.5f}]", end="")
        assert gen.negative_found
        assert gen.value >= 0.12
        flat = e1_lower_bound_symmetric(sys_const, 0.3)
        assert not flat.negative_found


def test_criterion_08_minimax_monotonicity(sys_z):
    with criterion("08", "minimax values non-decreasing in e; saddles certify"):
        cfg = SolverConfig()
        # band resolution follows the saddle orbit length (~sqrt(e)) so the
        # shooting certification keeps its margin across the whole window
        grid = [(0.02, 512), (0.04, 768), (0.06, 768), (0.08, 1024), (0.10, 1280)]
        rows = []
        for e, path_n in grid:
            rows += scan_energy(sys_z, [e], [(1, 0), (2, 0)], cfg, path_n, SeedLoop())
        values = []
        for (e, _), row in zip(grid, rows):
            assert row["status"] == "ok", row["status"]
            assert row["minimax_converged"]
            assert row["saddle_closure"] <= 1e-4
            # the waist tracks the closed-form latitude value pi*(2*sqrt(2e)-1)
            oracle = np.pi * (2.0 * np.sqrt(2.0 * e) - 1.0)
            assert row["waist_action"] == pytest.approx(oracle, abs=2e-3)
            values.append(row["minimax_value"])
        print(f"  [values {['%.4f' % v for v in values]}]", end="")
        diffs = np.diff(values)
        assert np.all(diffs >= -1e-3)


def test_criterion_09_multiplicity(sys_shifted):
    with criterion("09", "multiplicity search: waist plus distinct certified saddle"):
        e = 0.02
        cfg = SolverConfig()
        res = multiplicity_search(
            sys_shifted, e, [(1, 0), (2, 0), (1, 1)], cfg, 512, SeedLoop(z0=-0.2)
        )
        n_pairs = 3
        assert len(res.failures) + sum(
            rec.source.count("minimax") for rec in res.orbits
        ) == n_pairs  # nothing silently dropped
        assert res.distinct_count >= 2
        sources = [rec.source for rec in res.orbits]
        assert any(src.startswith("waist") for src in sources)
        saddles = [rec for rec in res.orbits if "minimax" in rec.source]
        assert len(saddles) >= 1
        for rec in saddles:
            assert rec.report.closure_residual <= 1e-4
        waist_rec = next(rec for rec in res.orbits if rec.source.startswith("waist"))
        assert waist_rec.report.gradient_norm <= 1e-6
        assert abs(waist_rec.report.mean_energy_residual) <= 1e-6
        from magflow.variational import hausdorff_distance

        for i in range(len(res.orbits)):
            for j in range(i + 1, len(res.orbits)):
                dist = hausdorff_distance(
                    res.orbits[i].primitive.nodes, res.orbits[j].primitive.nodes
                )
                assert dist > 1e-2
        print(
            f"  [{res.distinct_count} distinct orbits, {len(res.failures)} failed pairs]",
            end="",
        )


def _valley_sample(sys, rng, tau, n=32):
    center = project_to_sphere(rng.normal(size=3))
    p = float(rng.uniform(0.2 * tau, 0.95 * tau))
    target = float(rng.uniform(0.05, 0.95)) * tau * p
    b1, b2 = tangent_basis(center)
    t = 2.0 * np.pi * np.arange(n) / n
    shape = (
        np.cos(t)[:, None] * b1
        + np.sin(t)[:, None] * b2
        + 0.4 * rng.standard_normal() * np.cos(2 * t + rng.uniform(0, 2 * np.pi))[:, None] * b1
    )
    loop = FreePeriodLoop(project_to_sphere(center + 1e-3 * shape), p)
    w = loop.velocities()
    speed_sq = float(np.mean(np.sum(w * w, axis=1)))
    scale = np.sqrt(target / speed_sq) * 1e-3
    loop = FreePeriodLoop(project_to_sphere(center + scale / 1e-3 * (loop.nodes - center)), p)
    return loop


def test_criterion_10_valley_properties(sys_shifted, rng):
    with criterion("10", "valley actions positive; sampled sup shrinks with tau"):
        e = 0.02
        tau_star = valley_tau(sys_shifted)
        assert tau_star == pytest.approx(0.1)
        sups = []
        for tau in (0.1, 0.05, 0.025):
            count = 10000 if tau == tau_star else 2000
            sup = 0.0
            for _ in range(count):
                loop = _valley_sample(sys_shifted, rng, tau)
                if not in_valley(sys_shifted, loop, tau):
                    continue
                flux = cone_flux(sys_shifted, loop, depth=2)
                a_val = lifted_action_A(sys_shifted, e, LiftedLoop(loop, flux))
                assert a_val > 0.0
                sup = max(sup, a_val)
            sups.append(sup)
        print(f"  [sampled sups {['%.4f' % s for s in sups]}]", end="")
        assert sups[0] > sups[1] > sups[2] > 0.0


def test_criterion_11_determinism(tmp_path, capsys):
    with criterion("11", "identical config and seed give byte-identical JSON"):
        cfg_text = """
system.density = height(1.0, 0.0)
run.energy = 0.02
run.seed_amplitude = 0.03
discretization.loop_nodes = 64
solver.max_iter = 6000
rng.seed = 12345
"""
        cfg = tmp_path / "det.cfg"
        cfg.write_text(cfg_text)
        outputs = []
        for _ in range(2):
            code = cli_main(["waist", "--config", str(cfg), "--out", str(tmp_path)])
            assert code == 0
            outputs.append(capsys.readouterr().out.encode())
        assert outputs[0] == outputs[1]
        cv_outputs = []
        for _ in range(2):
            code = cli_main(["critical-values", "--config", str(cfg), "--out", str(tmp_path)])
            assert code == 0
            cv_outputs.append(capsys.readouterr().out.encode())
        assert cv_outputs[0] == cv_outputs[1]
        json.loads(outputs[0])  # well-formed
