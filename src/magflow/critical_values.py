"""The two critical energies bounding the orbit-search window.

``compute_e0`` is the ceiling of the rest energy E(., 0).  The upper value is
approached from below by exhibiting loop configurations of negative lifted
action: ``e1_lower_bound_symmetric`` scans latitude circles with their
optimal period and the flux of the cap they bound (a 1-D oracle available
whenever the system is rotationally symmetric about the z-axis), and
``e1_lower_bound_general`` descends from a coarse seed bank and accepts any
embedded local minimizer with negative action.  Both report lower bounds:
multi-component configurations are not searched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MaxIterations, NotSymmetric, ValleyCollapse
from .flow import count_self_intersections
from .loop_space import (
    LiftedLoop,
    great_circle_loop,
    latitude_loop,
    lift_loop,
    lifted_action_A,
    optimal_period,
)
from .tonelli import MagneticSystem
from .variational import SolverConfig, find_waist

_INV_PHI = (np.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class E1Certificate:
    """Negative-action witness configuration at a given energy."""

    energy: float
    witness: LiftedLoop
    action_value: float

    def __post_init__(self):
        if not self.action_value < 0:
            raise ValueError("certificate action must be negative")


@dataclass(frozen=True)
class E1Result:
    value: float
    certificate: E1Certificate | None
    negative_found: bool


def compute_e0(sys: MagneticSystem) -> float:
    """Ceiling of the rest energy, exactly: max of E(., 0) = U over the sphere."""
    return sys.potential.bounds()[1]


def _require_symmetric(sys: MagneticSystem) -> None:
    problems = []
    if not sys.is_round:
        problems.append("metric is not round")
    if not sys.density.is_zonal:
        problems.append("magnetic density is not zonal")
    if not sys.potential.is_zonal:
        problems.append("potential is not zonal")
    if sys.drift != 0.0:
        problems.append("drift term present")
    if problems:
        raise NotSymmetric("; ".join(problems))


def cap_flux(sys: MagneticSystem, z0: float) -> float:
    """Flux through the region below the latitude z0: 2*pi*int_{-1}^{z0} f,
    exactly, term by term from the density's polynomial in z."""
    coef = sys.density.zonal_polynomial.coef
    area = sum(c * (z0 ** (k + 1) + (-1.0) ** k) / (k + 1) for k, c in enumerate(coef))
    return 2.0 * np.pi * float(area)


def latitude_circle_action(sys: MagneticSystem, e: float, z0: float) -> float:
    """Lifted action of the latitude circle at z0 with its optimal period.

    The circle is traversed with the region below it positively bounded, so
    the flux term is the cap integral; the action part is the length times
    the momentum sqrt(2(e - U)).  Energies at or below the local potential
    give an empty fiber and the value +inf.
    """
    _require_symmetric(sys)
    if not -1.0 < z0 < 1.0:
        raise ValueError("z0 must lie strictly between -1 and 1")
    u_val = float(sys.potential.zonal_polynomial(np.array(z0)))
    if e <= u_val:
        return np.inf
    length = 2.0 * np.pi * np.sqrt(1.0 - z0 * z0)
    return length * np.sqrt(2.0 * (e - u_val)) + cap_flux(sys, z0)


def _min_latitude_action(sys: MagneticSystem, e: float, grid_size: int = 401):
    z_grid = np.linspace(-1.0, 1.0, grid_size + 2)[1:-1]
    vals = np.array([latitude_circle_action(sys, e, z) for z in z_grid])
    k = int(np.argmin(vals))
    lo = z_grid[max(k - 1, 0)]
    hi = z_grid[min(k + 1, len(z_grid) - 1)]
    z, val = _golden_section(lambda z: latitude_circle_action(sys, e, z), lo, hi)
    if val < vals[k]:
        return z, val
    return float(z_grid[k]), float(vals[k])


def _golden_section(fn, lo: float, hi: float) -> tuple[float, float]:
    """Minimum of a unimodal fn on [lo, hi] by golden-section search, with
    the bracket narrowed to width 1e-12; returns (argmin, min)."""
    c, d = hi - _INV_PHI * (hi - lo), lo + _INV_PHI * (hi - lo)
    fc, fd = fn(c), fn(d)
    while hi - lo > 1e-12:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - _INV_PHI * (hi - lo)
            fc = fn(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INV_PHI * (hi - lo)
            fd = fn(d)
    return (float(c), float(fc)) if fc < fd else (float(d), float(fd))


def _symmetric_witness(sys, e, z0, n=256) -> LiftedLoop:
    loop = latitude_loop(z0, n)
    loop = loop.with_period(optimal_period(sys, loop, e))
    return lift_loop(sys, loop)


def e1_lower_bound_symmetric(
    sys: MagneticSystem, e_max: float, tol: float = 1e-4, grid_size: int = 401
) -> E1Result:
    """Largest energy (within tol) admitting a negative latitude-circle action.

    Bisection is valid because the minimal latitude action is increasing in
    the energy.  Returns the trivial bound e0 when no latitude circle goes
    negative anywhere in the window.
    """
    _require_symmetric(sys)
    e0_val = compute_e0(sys)
    lo = e0_val + 1e-9

    def admissible(e):
        return _min_latitude_action(sys, e, grid_size)[1] < 0.0

    if not admissible(lo + tol):
        return E1Result(e0_val, None, False)
    if admissible(e_max):
        lo = e_max
    else:
        hi = e_max
        lo = lo + tol
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if admissible(mid):
                lo = mid
            else:
                hi = mid
    value = float(lo)

    certificate = None
    for back in (tol, 2 * tol, 5 * tol, 1e-2, 5e-2):
        e_w = value - back
        if e_w <= e0_val:
            break
        z_star, a_min = _min_latitude_action(sys, e_w, grid_size)
        if a_min >= 0:
            continue
        witness = _symmetric_witness(sys, e_w, z_star)
        a_disc = lifted_action_A(sys, e_w, witness)
        if a_disc < 0:
            certificate = E1Certificate(e_w, witness, float(a_disc))
            break
    return E1Result(value, certificate, True)


def _seed_bank(sys: MagneticSystem, e: float, n: int):
    seeds = []
    for z0 in (-0.75, -0.5, -0.25, 0.0, 0.25, 0.5, 0.75):
        seeds.append(latitude_loop(z0, n))
    for axis in (
        (1.0, 0.0, 0.0),
        (0.0, 1.0, 0.0),
        (np.sqrt(0.5), np.sqrt(0.5), 0.0),
        (np.sqrt(0.5), 0.0, np.sqrt(0.5)),
        (0.0, np.sqrt(0.5), np.sqrt(0.5)),
    ):
        seeds.append(great_circle_loop(np.array(axis), n))
    out = []
    for loop in seeds:
        try:
            out.append(lift_loop(sys, loop.with_period(optimal_period(sys, loop, e))))
        except ValueError:
            continue
    return out


def e1_lower_bound_general(
    sys: MagneticSystem,
    e_grid,
    cfg: SolverConfig = SolverConfig(),
    n: int = 128,
) -> E1Result:
    """Largest grid energy where some seed descends to an embedded loop of
    negative lifted action; per-seed failures are tolerated."""
    e_grid = sorted(e_grid, reverse=True)
    e0_val = compute_e0(sys)
    for e in e_grid:
        if e <= e0_val:
            continue
        best = None
        for seed in _seed_bank(sys, e, n):
            try:
                res = find_waist(sys, e, seed, cfg)
            except (ValleyCollapse, MaxIterations, ValueError):
                continue
            if res.action < 0 and count_self_intersections(res.lifted.nodes) == 0:
                if best is None or res.action < best.action:
                    best = res
        if best is not None:
            cert = E1Certificate(e, best.lifted, best.action)
            return E1Result(float(e), cert, True)
    return E1Result(e0_val, None, False)
