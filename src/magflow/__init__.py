"""Numerical study of periodic orbits of magnetic systems on the 2-sphere."""

from .errors import (
    EndpointNotMinimal,
    MagflowError,
    MaxIterations,
    NearZeroVector,
    NonFiniteAction,
    NotSymmetric,
    ParseError,
    StepExplosion,
    ValidationError,
    ValleyCollapse,
)
from .fields import ScalarField
from .sphere_geom import project_to_sphere, total_flux
from .tonelli import MagneticSystem
from .flow import OrbitReport, State, Trajectory, certify_orbit, energy_drift, integrate
from .loop_space import (
    FreePeriodLoop,
    LiftedLoop,
    LoopGradient,
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
    optimal_period_fourth,
    perturb_normal,
    sweep_flux,
    valley_tau,
)
from .variational import (
    MinimaxResult,
    MultiplicityResult,
    SolverConfig,
    WaistResult,
    find_waist,
    minimax_path,
    multiplicity_search,
    refine_stationary,
    scan_energy,
)
from .critical_values import (
    E1Certificate,
    E1Result,
    compute_e0,
    e1_lower_bound_general,
    e1_lower_bound_symmetric,
    latitude_circle_action,
)

__version__ = "0.1.0"
