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
