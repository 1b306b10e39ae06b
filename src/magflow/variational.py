"""Waist finding by L-BFGS descent and mountain-pass minimax search.

``find_waist`` runs limited-memory BFGS on the lifted action with the period
eliminated through its closed-form optimality condition: the two-loop
recursion starts from the scaled H^1 preconditioner, and a halving line search
from the unit step keeps the action from rising.  The flux ledger follows
every accepted step, and a valley guard aborts seeds that collapse toward
constant loops.

``minimax_path`` finds the mountain-pass saddle between two local minimizers
by Newton from the chain maximum: the highest link of a connecting chain of
lifted loops is polished to a stationary point (``refine_stationary``).
Connecting chains are built through the valley: shrink one endpoint to a tiny
loop, adjust covering multiplicity and deck winding there (where all such
classes meet cheaply), and expand to the other endpoint, so the chain lies in
the correct cover class by construction.

Every move of a lifted loop (descent trial, chain link, Newton polish)
carries its ledger through ``loop_space.deform``; descent trials take one
capped, reprojected trial step.

Outputs are certified by shooting along the flow: ``minimax_path`` shoots
its saddle, and a waist's report is computed when it is first read, so a
waist that only serves as a minimax endpoint is never shot.
``scan_energy`` and ``multiplicity_search`` orchestrate the solvers over
energy grids and (iterate, deck) label sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import (
    EndpointNotMinimal,
    MagflowError,
    MaxIterations,
    NonFiniteAction,
    ValleyCollapse,
)
from .flow import OrbitReport, certify_orbit
from .loop_space import (
    FreePeriodLoop,
    LiftedLoop,
    action_gradient,
    deck_transform,
    deform,
    h1_dual,
    h1_precondition,
    h1_solve,
    in_valley,
    iterate,
    latitude_loop,
    lift_loop,
    lifted_action_A,
    optimal_period,
    optimal_period_fourth,
    perturb_normal,
    primitive,
    valley_tau,
)
from .sphere_geom import (
    angular_distance,
    cross3,
    cyclic_shift,
    dot3,
    norm3,
    project_to_sphere,
    slerp,
    tangent_basis,
    tangent_project,
)
from .tonelli import MagneticSystem


# descent line search: step floor and shrink factor, and the largest
# nodewise move of one step (radians)
STEP_MIN = 1e-12
STEP_SHRINK = 0.5
MAX_STEP_RAD = 0.25
# descent L-BFGS: stored (node change, gradient change) pairs, and the
# curvature floor s.y > LBFGS_CURVATURE |s||y| a pair must clear
LBFGS_MEMORY = 8
LBFGS_CURVATURE = 1e-12
# minimax: the largest endpoint dual norm accepted
ENDPOINT_TOL = 1e-4
# two orbits coincide below this trace distance and relative period gap
DEDUPE_HAUSDORFF = 1e-3
DEDUPE_PERIOD = 1e-3
# geodesic radius of the tiny loops where connecting chains change class
TINY_RADIUS = 0.02
# Newton polish: iteration budget and largest nodewise drift from the start
MAX_NEWTON = 12
MAX_NEWTON_MOVE = 0.25


@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-6
    max_iter: int = 20000


@dataclass
class WaistResult:
    sys: MagneticSystem = field(repr=False)
    e: float
    lifted: LiftedLoop
    action: float
    gradient_norm: float
    iterations: int
    history: list[float] = field(default_factory=list, repr=False)

    @cached_property
    def report(self) -> OrbitReport:
        """Shooting certificate of the waist, computed when first read."""
        return replace(certify_orbit(self.sys, self.lifted.loop, self.e), gradient_norm=self.gradient_norm)


@dataclass
class MinimaxResult:
    value: float
    argmax_index: int
    saddle_gradient_norm: float
    converged: bool
    history: list[float]  # [value]
    saddle: LiftedLoop
    report: OrbitReport
    path: list[LiftedLoop] = field(repr=False, default_factory=list)
    stop_reason: str = "not polished"  # or "polished", "identical endpoints"


# ---------------------------------------------------------------------------
# waist descent


def _reduced_lift(sys: MagneticSystem, e: float, ll: LiftedLoop) -> LiftedLoop:
    """Set the period to its closed-form optimum (dA/dp = 0)."""
    p = optimal_period(sys, ll.loop, e)
    return LiftedLoop(ll.loop.with_period(p), ll.flux)


def _dual_norm(sys: MagneticSystem, e: float, ll: LiftedLoop) -> float:
    """H^1 dual norm of the lifted-action gradient at ``ll``."""
    return h1_precondition(ll.loop, action_gradient(sys, e, ll))[1]


def _trial_step(sys: MagneticSystem, ll: LiftedLoop, d: np.ndarray, p: float) -> LiftedLoop:
    """Move the nodes by ``d`` (scaled down to at most ``MAX_STEP_RAD``
    nodewise), reproject, set the period to ``p`` and carry the ledger."""
    dmax = float(np.max(norm3(d)))
    if dmax > MAX_STEP_RAD:
        d = d * (MAX_STEP_RAD / dmax)
    return deform(sys, ll, FreePeriodLoop(project_to_sphere(ll.nodes + d), p))


def _lbfgs_direction(nodes: np.ndarray, node_grads: np.ndarray, pairs: list) -> np.ndarray:
    """Tangent-projected L-BFGS direction (two-loop recursion) for the raw
    node gradients, from the stored ``(s, y, 1 / s.y)`` pairs, oldest first.

    The initial inverse Hessian is gamma * ``h1_solve`` with the scaling
    gamma = s.y / (y . H1^{-1} y) of the newest pair; with no pairs this is
    ``h1_precondition``'s direction, bit for bit.
    """
    q = node_grads
    alphas = []
    for s, y, rho in reversed(pairs):
        a = rho * float(np.sum(s * q))
        q = q - a * y
        alphas.append(a)
    r = h1_solve(q)
    if pairs:
        s, y, rho = pairs[-1]
        r = r / (rho * float(np.sum(y * h1_solve(y))))
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        r = r + (a - rho * float(np.sum(y * r))) * s
    return tangent_project(nodes, r)


def find_waist(sys: MagneticSystem, e: float, seed: LiftedLoop, cfg: SolverConfig = SolverConfig()):
    """Descend the lifted action to a local minimizer.

    Each iteration evaluates one gradient, takes the L-BFGS direction
    (``_lbfgs_direction``, at most ``LBFGS_MEMORY`` pairs; Nocedal 1980,
    Liu & Nocedal 1989) and halves the unit step until the lifted action
    does not rise.  The period is reduced to its closed-form optimum after
    every move, so the pairs see the nodes alone.  A direction that does not
    descend clears the memory and falls back to the H^1 direction.

    The result's ``report`` certifies the waist by shooting when it is
    first read, and keeps that report for later reads.

    Raises ``ValleyCollapse`` when the iterate enters the short-loop valley,
    ``NonFiniteAction`` as soon as the action or the gradient norm is not
    finite, and ``MaxIterations`` (carrying the best iterate) when the budget
    runs out before the gradient norm reaches ``cfg.tol``.
    """
    tau = valley_tau(sys)
    ll = _reduced_lift(sys, e, seed)
    if in_valley(sys, ll.loop, tau):
        raise ValleyCollapse("seed lies in the short-loop valley")
    action = lifted_action_A(sys, e, ll)
    history = [action]
    pairs: list[tuple[np.ndarray, np.ndarray, float]] = []
    prev = None

    for it in range(cfg.max_iter):
        grad = action_gradient(sys, e, ll)
        h1_dir, dual = h1_precondition(ll.loop, grad)
        if not (math.isfinite(action) and math.isfinite(dual)):
            raise NonFiniteAction(f"action {action} and gradient norm {dual} at iteration {it}")
        if dual <= cfg.tol:
            return WaistResult(sys, e, ll, action, dual, it, history)

        if prev is not None:
            s, y = ll.nodes - prev[0], grad.node_grads - prev[1]
            sy = float(np.sum(s * y))
            if sy > LBFGS_CURVATURE * float(np.linalg.norm(s) * np.linalg.norm(y)):
                pairs = (pairs + [(s, y, 1.0 / sy)])[-LBFGS_MEMORY:]
        prev = (ll.nodes, grad.node_grads)
        direction = _lbfgs_direction(ll.nodes, grad.node_grads, pairs)
        if float(np.sum(direction * grad.node_grads)) <= 0.0:
            pairs, direction = [], h1_dir

        step = 1.0
        accepted = False
        while step >= STEP_MIN:
            try:
                trial = _reduced_lift(sys, e, _trial_step(sys, ll, -step * direction, ll.p))
            except ValueError:
                step *= STEP_SHRINK
                continue
            trial_action = lifted_action_A(sys, e, trial)
            if trial_action <= action:
                ll, action = trial, trial_action
                history.append(action)
                accepted = True
                break
            step *= STEP_SHRINK
        if not accepted:
            raise MaxIterations(
                f"line search stalled at gradient norm {dual:.3e}", best=(ll, action, dual)
            )
        if in_valley(sys, ll.loop, tau):
            raise ValleyCollapse(f"descent entered the valley at iteration {it}")

    dual = _dual_norm(sys, e, ll)
    raise MaxIterations(f"no convergence in {cfg.max_iter} iterations", best=(ll, action, dual))


# ---------------------------------------------------------------------------
# connecting chains through the valley


def _loop_center(loop: FreePeriodLoop) -> np.ndarray:
    mean = np.mean(loop.nodes, axis=0)
    circ = np.sum(cross3(loop.nodes, cyclic_shift(loop.nodes, 1)), axis=0)
    candidates = []
    if np.linalg.norm(mean) > 1e-6:
        candidates.append(mean / np.linalg.norm(mean))
    if np.linalg.norm(circ) > 1e-9:
        candidates.append(-circ / np.linalg.norm(circ))
    candidates += [np.array([0.0, 0.0, -1.0]), np.array([0.0, 0.0, 1.0]), np.array([0.0, -1.0, 0.0])]
    for c in candidates:
        if float(np.max(angular_distance(c, loop.nodes))) < np.pi - 0.3:
            return c
    raise ValueError("no admissible contraction center for the loop")


def _tiny_loop(center: np.ndarray, radius: float, n: int, winding: int) -> FreePeriodLoop:
    """Circle of geodesic radius ``radius`` about ``center``, run ``winding``
    times, right-handed for positive winding."""
    e1, e2 = tangent_basis(center)
    ang = winding * 2.0 * np.pi * np.arange(n) / n
    d = np.cos(ang)[:, None] * e1 + np.sin(ang)[:, None] * e2
    nodes = np.cos(radius) * center + np.sin(radius) * d
    return FreePeriodLoop(nodes, 1.0)


def _blend_family(a: np.ndarray, b: np.ndarray, steps: int, reach: float = 1.0):
    """Loops slerped from the nodes ``a`` toward ``b`` (nodes, or one point)
    at the fractions reach * k / steps, k = 1..steps."""
    return [
        FreePeriodLoop(slerp(a, b, np.full(len(a), reach * k / steps)), 1.0)
        for k in range(1, steps + 1)
    ]


def _wind_family(axis: np.ndarray, r0: float, n: int, sign: int, steps: int = 28):
    """One deck winding: grow circles about the axis across the sphere and
    carry the tiny result back; accumulates +/- the total flux."""
    out = []
    handed = 1 if sign > 0 else -1
    for k in range(1, steps + 1):
        alpha = r0 + (np.pi - 2.0 * r0) * k / steps
        out.append(_tiny_loop(axis, alpha, n, handed))
    # translate the tiny loop near -axis back to +axis along a meridian
    e1, _ = tangent_basis(axis)
    back = 14
    for k in range(1, back + 1):
        beta = np.pi * (1.0 - k / back)
        center = np.cos(beta) * axis + np.sin(beta) * e1
        out.append(_tiny_loop(center, r0, n, handed))
    return out


def build_connecting_chain(
    sys: MagneticSystem,
    e: float,
    end_a: LiftedLoop,
    end_b: LiftedLoop,
    mult_a: int = 1,
    mult_b: int = 1,
    deck_shift: int = 0,
) -> list[LiftedLoop]:
    """Chain of small deformation steps from end_a to end_b through the valley.

    ``mult_a``/``mult_b`` are the covering multiplicities of the endpoint
    curves and ``deck_shift`` the deck offset n_b - n_a; multiplicity changes
    and windings happen at tiny-loop scale where all classes meet.
    """
    if end_a.loop.n != end_b.loop.n:
        raise ValueError("endpoints must share the node count")
    n = end_a.loop.n
    r0 = TINY_RADIUS

    def shrink(loop: FreePeriodLoop, center: np.ndarray) -> list[FreePeriodLoop]:
        # contract toward the center until the largest radius is r0
        reach = 1.0 - r0 / float(np.max(angular_distance(center, loop.nodes)))
        return _blend_family(loop.nodes, center, 14, reach)

    def carry(start: LiftedLoop, loops: list[FreePeriodLoop]) -> list[LiftedLoop]:
        # the ledger follows each loop through deform, at the optimal period
        out = [start]
        for loop in loops:
            out.append(_reduced_lift(sys, e, deform(sys, out[-1], loop)))
        return out

    c_a, c_b = _loop_center(end_a.loop), _loop_center(end_b.loop)
    loops = shrink(end_a.loop, c_a)
    tiny_a = _tiny_loop(c_a, r0, n, mult_a)
    loops += _blend_family(loops[-1].nodes, tiny_a.nodes, 4)
    if mult_a != 1:
        loops += _blend_family(tiny_a.nodes, _tiny_loop(c_a, r0, n, 1).nodes, 6)
    for _ in range(abs(deck_shift)):
        loops += _wind_family(c_a, r0, n, deck_shift)
    if float(angular_distance(c_a, c_b)) > 1e-9:
        steps = max(2, int(np.ceil(float(angular_distance(c_a, c_b)) / 0.25)))
        centers = slerp(c_a, c_b, np.arange(1, steps + 1) / steps)
        loops += [_tiny_loop(ck, r0, n, 1) for ck in centers]
    if mult_b != 1:
        tiny_b = _tiny_loop(c_b, r0, n, 1)
        loops += _blend_family(tiny_b.nodes, _tiny_loop(c_b, r0, n, mult_b).nodes, 6)
    expand = shrink(end_b.loop, c_b)[::-1]
    loops += _blend_family(loops[-1].nodes, expand[0].nodes, 4)
    loops += expand[1:] + [end_b.loop]
    chain = carry(_reduced_lift(sys, e, end_a), loops)

    # the chain must land on the requested cover point; correct any residual
    # integer winding defensively
    total = sys.total_flux()
    gap = end_b.flux - chain[-1].flux
    if abs(total) > 1e-9:
        k = int(round(gap / total))
        if k != 0:
            loops = [loop for _ in range(abs(k)) for loop in _wind_family(c_b, r0, n, k)]
            loops += _blend_family(loops[-1].nodes, end_b.nodes, 6)
            chain += carry(chain[-1], loops)[1:]
            gap = end_b.flux - chain[-1].flux
    if abs(gap) > 0.02 * max(1.0, abs(total)) + 0.02:
        raise ValueError(f"connecting chain missed the cover class by {gap:.3e}")
    chain[-1] = replace(end_b)
    return chain


# ---------------------------------------------------------------------------
# Newton polish and the minimax saddle


def _minres(matvec, b: np.ndarray, psolve, rtol: float, maxiter: int) -> np.ndarray:
    """Preconditioned MINRES for a symmetric system A x = b, from x0 = 0.

    ``matvec`` applies A and ``psolve`` the preconditioner.  The method is
    Paige & Saunders, SIAM J. Numer. Anal. 12 (1975) 617-629, with the
    recurrence and stopping tests of the SOL reference code (``minres.m``).
    It stops once ||r|| / (||A|| ||x||) or ||A r|| / (||A|| ||r||) is at most
    ``rtol`` (or eps/2, the code's ``1 + test <= 1``), once the condition
    estimate reaches 0.1/eps or ||A|| ||x|| eps reaches ||b||_M, after
    ``maxiter`` steps, or after a first step with beta/beta1 <= 10 eps.
    ``psolve`` must be symmetric positive definite: a negative Lanczos beta
    raises ``ValueError``.
    """
    eps = float(np.finfo(float).eps)
    tol = max(rtol, eps / 2.0)
    x = np.zeros_like(b)
    r1 = r2 = b
    y = psolve(r1)
    beta1 = float(r1 @ y)
    if beta1 < 0.0:
        raise ValueError("indefinite preconditioner")
    if beta1 == 0.0:
        return x
    beta1 = math.sqrt(beta1)
    beta, oldb, dbar, epsln, phibar, tnorm2 = beta1, 0.0, 0.0, 0.0, beta1, 0.0
    cs, sn, gmax, gmin = -1.0, 0.0, 0.0, float(np.finfo(float).max)
    w = w2 = np.zeros_like(b)
    for itn in range(1, maxiter + 1):
        v = (1.0 / beta) * y
        y = matvec(v)
        if itn >= 2:
            y = y - (beta / oldb) * r1
        alfa = float(v @ y)
        y = y - (alfa / beta) * r2
        r1, r2 = r2, y
        y = psolve(r2)
        oldb, beta = beta, float(r2 @ y)
        if beta < 0.0:
            raise ValueError("non-symmetric matrix or indefinite preconditioner")
        beta = math.sqrt(beta)
        tnorm2 += alfa**2 + oldb**2 + beta**2
        # apply the previous plane rotation, then build the next one; the
        # 2-norms go through numpy's dot, which keeps the iterates bitwise
        # equal to the SOL code's numpy translation the tests compare against
        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        root = float(np.linalg.norm([gbar, dbar]))
        gamma = max(float(np.linalg.norm([gbar, beta])), eps)
        cs, sn = gbar / gamma, beta / gamma
        phi, phibar = cs * phibar, sn * phibar
        w1, w2 = w2, w
        w = (v - oldeps * w1 - delta * w2) * (1.0 / gamma)
        x = x + phi * w
        gmax, gmin = max(gmax, gamma), min(gmin, gamma)
        if itn == 1 and beta / beta1 <= 10.0 * eps:
            break
        anorm = math.sqrt(tnorm2)
        ynorm = float(np.linalg.norm(x))
        test1 = phibar / (anorm * ynorm) if anorm and ynorm else math.inf
        test2 = root / anorm if anorm else math.inf
        if test1 <= tol or test2 <= tol or gmax / gmin >= 0.1 / eps or anorm * ynorm * eps >= beta1:
            break
    return x


def refine_stationary(
    sys: MagneticSystem,
    e: float,
    loop: FreePeriodLoop,
    tol: float = 1e-6,
) -> tuple[FreePeriodLoop, float]:
    """Polish any stationary point (minimizer or saddle) of the lifted action.

    Matrix-free Newton-Krylov: MINRES (``_minres``) on the exact-gradient
    system with Hessian-vector products by central differences of the action
    gradient and the H^1 metric as preconditioner.  MINRES tolerates the
    indefinite Hessian of a mountain pass and the reparametrization zero
    mode.  The ledger never enters: the gradient depends on the loop alone.
    """
    start_nodes = loop.nodes.copy()
    n = loop.n

    def raw_grad(lp: FreePeriodLoop) -> np.ndarray:
        g = action_gradient(sys, e, LiftedLoop(lp, 0.0))
        return np.concatenate([g.node_grads.ravel(), [g.p_grad]])

    def dual_norm_of(flat: np.ndarray) -> float:
        return h1_dual(flat[:-1].reshape(n, 3), flat[-1])[1]

    def retract(lp: FreePeriodLoop, flat_step: np.ndarray, scale: float) -> FreePeriodLoop:
        dn = flat_step[:-1].reshape(n, 3) * scale
        dp = flat_step[-1] * scale
        return FreePeriodLoop(project_to_sphere(lp.nodes + dn), max(lp.p + dp, 1e-9))

    def hess_vec(v: np.ndarray) -> np.ndarray:
        vn = float(np.linalg.norm(v))
        if vn == 0.0:
            return np.zeros_like(v)
        eps = 1e-6 / vn
        gp = raw_grad(retract(loop, v, eps))
        gm = raw_grad(retract(loop, v, -eps))
        return (gp - gm) / (2.0 * eps)

    def precond(v: np.ndarray) -> np.ndarray:
        out = np.empty_like(v)
        out[:-1] = h1_solve(v[:-1].reshape(n, 3)).ravel()
        out[-1] = v[-1]
        return out

    g = raw_grad(loop)
    dual = dual_norm_of(g)
    for _ in range(MAX_NEWTON):
        if dual <= tol:
            break
        step = _minres(hess_vec, -g, precond, rtol=1e-2, maxiter=200)

        improved = False
        alpha = 1.0
        while alpha > 1e-4:
            cand = retract(loop, step, alpha)
            if float(np.max(angular_distance(cand.nodes, start_nodes))) > MAX_NEWTON_MOVE:
                alpha *= 0.5
                continue
            g2 = raw_grad(cand)
            dual2 = dual_norm_of(g2)
            if dual2 < dual:
                loop, g, dual = cand, g2, dual2
                improved = True
                break
            alpha *= 0.5
        if not improved:
            break
    return loop, dual


def minimax_path(
    sys: MagneticSystem,
    e: float,
    end_a: LiftedLoop,
    end_b: LiftedLoop,
    cfg: SolverConfig = SolverConfig(),
    mult_a: int = 1,
    mult_b: int = 1,
    deck_shift: int = 0,
) -> MinimaxResult:
    """Mountain-pass saddle between two local minimizers by Newton from the
    chain maximum.

    The highest interior link of the connecting chain
    (``build_connecting_chain``) is handed once to ``refine_stationary``
    with tolerance ``1e-3 * cfg.tol``: Newton converges quadratically, so
    the tighter target usually costs one step and takes the saddle well
    below ``cfg.tol``, which keeps a marginal shooting closure under its
    bound.  The result is ``converged`` (stop reason "polished") when the
    polished dual norm is at most ``cfg.tol``.  Otherwise (stop reason "not
    polished") ``saddle`` is the unpolished chain maximum; the links sample
    the pass, so its action can lie below it.  ``path`` is the chain, with
    the polished saddle in place of its highest link; ``saddle``,
    ``argmax_index``, ``value`` and ``saddle_gradient_norm`` describe that
    link, and ``report`` certifies it by shooting, converged or not.
    """
    for name, end in (("end_a", end_a), ("end_b", end_b)):
        dual = _dual_norm(sys, e, end)
        if dual > ENDPOINT_TOL:
            raise EndpointNotMinimal(f"{name} has gradient norm {dual:.3e}")

    if np.array_equal(end_a.nodes, end_b.nodes) and end_a.p == end_b.p and end_a.flux == end_b.flux:
        value = lifted_action_A(sys, e, end_a)
        return _certified(sys, e, value, 0, 0.0, True, [value], [end_a, end_b], "identical endpoints")

    # work in a ledger relative to end_a: deck-shifting both endpoints then
    # reproduces the identical computation, so minimax values are exactly
    # equivariant under the deck action
    flux_base = end_a.flux
    end_a = LiftedLoop(end_a.loop, 0.0)
    end_b = LiftedLoop(end_b.loop, end_b.flux - flux_base)

    chain = build_connecting_chain(sys, e, end_a, end_b, mult_a, mult_b, deck_shift)
    actions = [lifted_action_A(sys, e, u) for u in chain]
    top = int(np.argmax(actions))

    converged = False
    if 0 < top < len(chain) - 1:
        polished, dual = refine_stationary(sys, e, chain[top].loop, tol=1e-3 * cfg.tol)
        converged = dual <= cfg.tol
    if converged:  # MAX_NEWTON_MOVE bounds this move
        chain[top] = deform(sys, chain[top], polished)
        actions[top] = lifted_action_A(sys, e, chain[top])
    else:
        dual = _dual_norm(sys, e, chain[top])
    value = float(actions[top]) + flux_base
    path = [LiftedLoop(u.loop, u.flux + flux_base) for u in chain]
    stop_reason = "polished" if converged else "not polished"
    return _certified(sys, e, value, top, float(dual), converged, [value], path, stop_reason)


def _certified(sys, e, value, top, dual, converged, history, path, stop_reason) -> MinimaxResult:
    """The minimax result with link ``top`` of ``path`` as its saddle, shot
    at its fourth-order period; the report carries the saddle's dual norm."""
    saddle = path[top]
    report = replace(certify_orbit(sys, polish_candidate(sys, saddle.loop, e), e), gradient_norm=dual)
    return MinimaxResult(value, top, dual, converged, history, saddle, report, path, stop_reason)


# ---------------------------------------------------------------------------
# label bookkeeping, scans, multiplicity


def polish_candidate(sys: MagneticSystem, loop: FreePeriodLoop, e: float) -> FreePeriodLoop:
    """Candidate for shooting certification: 4th-order-accurate period."""
    return loop.with_period(optimal_period_fourth(sys, loop, e))


def _endpoint_for_label(sys, e, waists_by_mult, m, n):
    ll = iterate(waists_by_mult[m].lifted, m)
    return deck_transform(sys, ll, n)


def prepare_waists(sys, e, labels, seed_builder, path_n, cfg) -> dict[int, WaistResult]:
    """Converge one waist per covering multiplicity at path_n/m nodes."""
    mults = sorted({m for (m, _) in labels})
    out: dict[int, WaistResult] = {}
    for m in mults:
        if path_n % m != 0:
            raise ValueError(f"path node count {path_n} not divisible by multiplicity {m}")
        n_m = path_n // m
        out[m] = find_waist(sys, e, seed_builder(n_m), cfg)
    return out


def default_seed_builder(sys: MagneticSystem, e: float, z0: float = 0.0, amplitude: float = 0.05, mode: int = 3):
    """Perturbed-latitude seed factory at a requested node count."""

    def build(n: int) -> LiftedLoop:
        loop = latitude_loop(z0, n)
        if amplitude != 0.0:
            loop = perturb_normal(loop, amplitude, mode)
        loop = loop.with_period(optimal_period(sys, loop, e))
        return lift_loop(sys, loop)

    return build


def minimax_between_labels(sys, e, waists_by_mult, label_a, label_b, cfg):
    m0, n0 = label_a
    m1, n1 = label_b
    end_a = _endpoint_for_label(sys, e, waists_by_mult, m0, n0)
    end_b = _endpoint_for_label(sys, e, waists_by_mult, m1, n1)
    return minimax_path(
        sys, e, end_a, end_b, cfg=cfg, mult_a=m0, mult_b=m1, deck_shift=n1 - n0
    )


def scan_energy(
    sys: MagneticSystem,
    e_grid,
    labels=((1, 0), (2, 0)),
    cfg: SolverConfig = SolverConfig(),
    path_n: int = 1024,
    seed_z0: float = 0.0,
    seed_amplitude: float = 0.05,
    seed_mode: int = 3,
):
    """Waist action and minimax value per energy; rows carry error
    markers instead of aborting the scan, and a saddle that shooting does not
    close (``OrbitReport.certified``) marks its row's status."""
    e_grid = list(e_grid)
    if any(b <= a for a, b in zip(e_grid, e_grid[1:])):
        raise ValueError("energy grid must be strictly increasing")
    rows = []
    for e in e_grid:
        row = {"e": e, "status": "ok"}
        try:
            seeds = default_seed_builder(sys, e, seed_z0, seed_amplitude, seed_mode)
            waists = prepare_waists(sys, e, labels, seeds, path_n, cfg)
            waist = waists[1] if 1 in waists else next(iter(waists.values()))
            row["waist_action"] = waist.action
            row["waist_gradient_norm"] = waist.gradient_norm
            row["waist_self_intersections"] = waist.report.self_intersections
            mm = minimax_between_labels(sys, e, waists, labels[0], labels[1], cfg)
            row["minimax_value"] = mm.value
            row["minimax_converged"] = mm.converged
            row["saddle_gradient_norm"] = mm.saddle_gradient_norm
            row["saddle_closure"] = mm.report.closure_residual
            row["saddle_energy_residual"] = mm.report.mean_energy_residual
            if not mm.report.certified:
                row["status"] = f"certification failed (closure {mm.report.closure_residual:.2e})"
        except (MagflowError, ValueError, ArithmeticError) as exc:  # rows must not kill the scan
            row["status"] = f"error: {type(exc).__name__}: {exc}"
        rows.append(row)
    return rows


def _points_to_polygon(points: np.ndarray, poly: np.ndarray) -> np.ndarray:
    """Geodesic distance from each point to a closed geodesic polygon."""
    a = poly
    b = cyclic_shift(poly, 1)
    normal = cross3(a, b)
    nn = norm3(normal)[:, None]
    normal = normal / np.where(nn > 1e-15, nn, 1.0)
    cos_len = dot3(a, b)
    # distance to the full great circle of each segment
    sin_off = np.clip(points @ normal.T, -1.0, 1.0)
    to_circle = np.abs(np.arcsin(sin_off))
    foot = points[:, None, :] - sin_off[:, :, None] * normal[None, :, :]
    fn = norm3(foot)[..., None]
    foot = foot / np.where(fn > 1e-15, fn, 1.0)
    inside = (dot3(foot, a[None]) >= cos_len[None]) & (dot3(foot, b[None]) >= cos_len[None])
    to_ends = np.minimum(
        angular_distance(points[:, None, :], a[None]), angular_distance(points[:, None, :], b[None])
    )
    return np.min(np.where(inside, to_circle, to_ends), axis=1)


def hausdorff_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Symmetric trace distance between closed polygons (node-to-arc based,
    so it is insensitive to sampling density)."""
    return float(max(_points_to_polygon(a, b).max(), _points_to_polygon(b, a).max()))


@dataclass
class OrbitRecord:
    source: str
    lifted: LiftedLoop
    action: float
    report: OrbitReport
    primitive: FreePeriodLoop


@dataclass
class MultiplicityResult:
    orbits: list[OrbitRecord]
    failures: list[dict]

    @property
    def distinct_count(self) -> int:
        return len(self.orbits)


def multiplicity_search(
    sys: MagneticSystem,
    e: float,
    labels,
    cfg: SolverConfig = SolverConfig(),
    path_n: int = 1024,
    seed_z0: float = 0.0,
    seed_amplitude: float = 0.05,
    seed_mode: int = 3,
) -> MultiplicityResult:
    """Waist plus minimax saddles over all label pairs, deduplicated by
    primitive-orbit trace distance; nonconvergent pairs are reported."""
    labels = [tuple(lbl) for lbl in labels]
    if len(set(labels)) != len(labels):
        raise ValueError("labels must be distinct")
    failures: list[dict] = []
    records: list[OrbitRecord] = []

    seeds = default_seed_builder(sys, e, seed_z0, seed_amplitude, seed_mode)
    waists = prepare_waists(sys, e, labels, seeds, path_n, cfg)
    waist = waists[min(waists)]
    records.append(
        OrbitRecord(
            source="waist",
            lifted=waist.lifted,
            action=waist.action,
            report=waist.report,
            primitive=primitive(waist.lifted.loop),
        )
    )

    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            pair = (labels[i], labels[j])
            try:
                mm = minimax_between_labels(sys, e, waists, labels[i], labels[j], cfg)
            except (MagflowError, ValueError, ArithmeticError) as exc:  # aggregate, return partial
                failures.append({"pair": pair, "reason": f"{type(exc).__name__}: {exc}"})
                continue
            if not mm.converged:
                failures.append(
                    {"pair": pair, "reason": f"nonconvergence (saddle grad {mm.saddle_gradient_norm:.2e})"}
                )
                continue
            if not mm.report.certified:
                failures.append(
                    {"pair": pair, "reason": f"certification failed (closure {mm.report.closure_residual:.2e})"}
                )
                continue
            records.append(
                OrbitRecord(
                    source=f"minimax {pair[0]}-{pair[1]}",
                    lifted=mm.saddle,
                    action=mm.value,
                    report=mm.report,
                    primitive=primitive(mm.saddle.loop),
                )
            )

    distinct: list[OrbitRecord] = []
    for rec in records:
        dup = None
        for kept in distinct:
            hd = hausdorff_distance(rec.primitive.nodes, kept.primitive.nodes)
            pr = abs(rec.primitive.p / kept.primitive.p - 1.0)
            if hd < DEDUPE_HAUSDORFF and pr < DEDUPE_PERIOD:
                dup = kept
                break
        if dup is None:
            distinct.append(rec)
        else:
            dup.source = f"{dup.source} & {rec.source}"
    return MultiplicityResult(distinct, failures)
