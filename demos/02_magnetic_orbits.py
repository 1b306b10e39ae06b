"""Trajectories of the magnetic flow and their conserved energy.

With a constant density the orbits are circles whose geodesic radius
balances the magnetic force against the speed; the run below closes after
one predicted period to integrator precision.  The energy series stays flat
to roundoff over long runs.
"""

from pathlib import Path

import numpy as np

from magflow import MagneticSystem, ScalarField, State, energy_drift, integrate

out = Path("demo_out")
out.mkdir(exist_ok=True)

system = MagneticSystem(ScalarField.constant(1.0))
s0 = State.of([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])  # speed 1, energy 0.5

period = np.pi * np.sqrt(2.0)  # circle of geodesic radius pi/4 at unit speed
traj = integrate(system, s0, period, 1e-3)
sf = traj.final_state
closure = np.sqrt(np.sum((sf.q - s0.q) ** 2) + np.sum((sf.v - s0.v) ** 2))
print(f"constant field, unit speed: closure after pi*sqrt(2) = {closure:.2e}")

long_run = integrate(system, s0, 50.0, 1e-3)
print(f"energy drift over T=50: {energy_drift(long_run):.2e}")

csv = out / "circle_orbit.csv"
with open(csv, "w") as fh:
    fh.write("t,qx,qy,qz,vx,vy,vz,E\n")
    for k in range(0, len(traj.times), 10):
        row = [traj.times[k], *traj.positions[k], *traj.velocities[k], traj.energy_series[k]]
        fh.write(",".join(f"{val:.12g}" for val in row) + "\n")
print(f"trajectory written to {csv}")

# an oscillating density: the equator is force-free where the density is zero
system_z = MagneticSystem(ScalarField.height(1.0, 0.0))
s0 = State.of([1.0, 0.0, 0.0], [0.0, 0.2, 0.0])
traj = integrate(system_z, s0, 10.0 * np.pi, 1e-3)
print(f"density z, equator start: max |z| along orbit = {np.max(np.abs(traj.positions[:, 2])):.2e}")
