"""The two critical energies bounding the orbit-search window.

``compute_e0`` is the ceiling of the rest energy E(., 0).  The upper value is
approached from below by exhibiting loop configurations of negative lifted
action: ``e1_lower_bound_symmetric`` maximizes over latitude circles the
closed-form energy below which a circle, with its optimal period and the
flux of the cap it bounds, has negative action (a 1-D oracle available
whenever the system is rotationally symmetric about the z-axis), and
``e1_lower_bound_general`` descends from a coarse seed bank and accepts any
embedded local minimizer with negative action.  Both report lower bounds:
multi-component configurations are not searched.

The latitude oracle runs on the zonal coefficient tuples of ``fields``: one
array evaluation over the open z grid, then golden-section steps on Python
floats.  A descent that meets a non-finite action raises
``NonFiniteAction``, which the general bound does not treat as a failed
seed: the system itself overflows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MaxIterations, NotSymmetric, ValleyCollapse
from .flow import count_self_intersections
from .loop_space import (
    LiftedLoop,
    deck_transform,
    great_circle_loop,
    latitude_loop,
    lift_loop,
    lifted_action_A,
    optimal_period,
)
from .tonelli import MagneticSystem
from .variational import SolverConfig, find_waist

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_GRID_SIZE = 401  # open z grid that brackets the threshold's maximum
# how far below the bound the certificate circle is tried, nearest first
_WITNESS_BACKOFF = (1e-4, 2e-4, 5e-4, 1e-2, 5e-2)


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


def cap_flux(sys: MagneticSystem, z0):
    """Flux through the region below the latitude z0: 2*pi*int_{-1}^{z0} f,
    exactly, from the density's polynomial in z; vectorized over z0."""
    return 2.0 * np.pi * sys.density.zonal_antiderivative(z0)


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
    u_val = float(sys.potential.zonal_polynomial(z0))
    if e <= u_val:
        return math.inf
    length = 2.0 * math.pi * math.sqrt(1.0 - z0 * z0)
    return length * math.sqrt(2.0 * (e - u_val)) + cap_flux(sys, z0)


def _threshold(sys: MagneticSystem, z):
    """Energy e*(z) below which the latitude circle at z has negative action.

    With P = cap_flux / 2 pi the action 2 pi (sqrt(1 - z^2) sqrt(2 (e - U)) + P)
    increases with e and is negative exactly when P < 0 and
    e < U + P^2 / (2 (1 - z^2)); where P >= 0 the value is -inf.  A float
    z gives a float, an array z an array.
    """
    p = cap_flux(sys, z) / (2.0 * math.pi)
    e_star = sys.potential.zonal_polynomial(z) + p * p / (2.0 * (1.0 - z * z))
    if isinstance(z, float):
        return e_star if p < 0.0 else -math.inf
    return np.where(p < 0.0, e_star, -math.inf)


def _golden_section(fn, lo: float, hi: float) -> tuple[float, float]:
    """Minimum of a unimodal fn on [lo, hi] by golden-section search, with
    the bracket narrowed to width 1e-12; returns (argmin, min).  Runs on
    Python floats: pass a float bracket and a fn that returns floats."""
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
    return (c, fc) if fc < fd else (d, fd)


def _symmetric_witness(sys, e, z0) -> LiftedLoop:
    """The latitude circle at z0 (256 nodes) with its optimal period, lifted
    to the oracle's sheet, where the ledger is the flux of the cap below it."""
    loop = latitude_loop(z0, 256)
    lifted = lift_loop(sys, loop.with_period(optimal_period(sys, loop, e)))
    total = cap_flux(sys, 1.0)  # exact for the zonal round systems served here
    if abs(total) > 1e-12:
        lifted = deck_transform(sys, lifted, round((cap_flux(sys, z0) - lifted.flux) / total))
    return lifted


def e1_lower_bound_symmetric(sys: MagneticSystem, e_max: float) -> E1Result:
    """Largest energy up to e_max admitting a negative latitude-circle action.

    Exactly min(e_max, max_z e*(z)) with e* from ``_threshold``, maximized by
    one open-grid scan and a golden-section search, with no bisection over
    energies.  The certificate is the circle at the maximizer, tried at the
    first energy ``_WITNESS_BACKOFF`` below the bound where its action is
    negative.  A negative total flux makes e* unbounded toward the north
    pole; the grid's top node then caps it.
    Returns the trivial bound e0 when no circle goes negative above e0.
    """
    _require_symmetric(sys)
    e0_val = compute_e0(sys)
    z_grid = np.linspace(-1.0, 1.0, _GRID_SIZE + 2)[1:-1]
    vals = _threshold(sys, z_grid)
    k = int(np.argmax(vals))
    lo, hi = float(z_grid[max(k - 1, 0)]), float(z_grid[min(k + 1, _GRID_SIZE - 1)])
    z_star, neg_peak = _golden_section(lambda z: -_threshold(sys, z), lo, hi)
    peak = -neg_peak
    if not peak > vals[k]:
        z_star, peak = float(z_grid[k]), float(vals[k])
    value = min(float(e_max), peak)
    if value <= e0_val:
        return E1Result(e0_val, None, False)

    certificate = None
    for back in _WITNESS_BACKOFF:
        e_w = value - back
        if e_w <= e0_val:
            break
        if latitude_circle_action(sys, e_w, z_star) >= 0:
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
