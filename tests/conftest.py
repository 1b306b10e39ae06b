import numpy as np
import pytest

from magflow import FreePeriodLoop, MagneticSystem, ScalarField, lift_loop
from magflow.sphere_geom import project_to_sphere


def random_loop(rng, n=64, p_range=(0.5, 3.0), wobble=0.3):
    """Smooth random closed curve: rotated circle plus low harmonics."""
    t = 2.0 * np.pi * np.arange(n) / n
    base = np.stack([np.cos(t), np.sin(t), np.zeros(n)], axis=1)
    for k in (1, 2, 3):
        amp = wobble * rng.standard_normal(3) / k
        base += np.outer(np.cos(k * t + rng.uniform(0.0, 2.0 * np.pi)), amp)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    nodes = project_to_sphere(base @ q.T)
    return FreePeriodLoop(nodes, float(rng.uniform(*p_range)))


def random_lifted(sys, rng, n=64, **kw):
    return lift_loop(sys, random_loop(rng, n, **kw))


def zeta_loop(s: float, n: int = 128) -> FreePeriodLoop:
    """Member of the deck-generator family: the pencil of circles through the
    base point cut by planes whose normal tilts from the base direction to
    its opposite.  The family starts and ends at the (numerically tiny)
    constant loop at the base point, and sweeping s over [0, 1] covers the
    sphere exactly once positively, so chaining ``sweep_flux`` along it
    accumulates the total flux of the magnetic form.
    """
    s_eff = min(max(s, 1e-3), 1.0 - 1e-3)  # keep endpoint loops non-degenerate
    cs, sn = np.cos(np.pi * s_eff), np.sin(np.pi * s_eff)
    normal = np.array([cs, sn, 0.0])
    center = -cs * normal
    radius = sn
    u1 = np.array([-sn, cs, 0.0])
    u2 = np.array([0.0, 0.0, 1.0])  # normal x u1
    t = 2.0 * np.pi * np.arange(n) / n
    nodes = (
        center
        + radius * np.cos(t)[:, None] * u1
        - radius * np.sin(t)[:, None] * u2
    )
    return FreePeriodLoop(project_to_sphere(nodes), 1.0)


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


@pytest.fixture(scope="session")
def sys_z():
    """Kinetic system with density f = z (zero total flux)."""
    return MagneticSystem(ScalarField.height(1.0, 0.0))


@pytest.fixture(scope="session")
def sys_shifted():
    """Kinetic system with density f = z + 0.2 (total flux 0.8*pi)."""
    return MagneticSystem(ScalarField.height(1.0, 0.2))


@pytest.fixture(scope="session")
def sys_const():
    """Kinetic system with constant density f = 1."""
    return MagneticSystem(ScalarField.constant(1.0))
