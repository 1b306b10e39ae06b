"""The energy window for the orbit search.

Below e0 = max E(., 0) part of the sphere is inaccessible; above the upper
value no negative-action loop configuration exists and the minimizing
machinery degenerates.  For zonal systems the upper bound comes from a 1-D
oracle over latitude circles: length times momentum plus the flux of the
bounded cap.  For f = z the condition closes in closed form at e = 1/8.
"""

import numpy as np

from magflow import (
    MagneticSystem,
    ScalarField,
    SolverConfig,
    compute_e0,
    e1_lower_bound_general,
    e1_lower_bound_symmetric,
    latitude_circle_action,
)

system = MagneticSystem(ScalarField.height(1.0, 0.0))

print("e0 =", compute_e0(system))
print()
print("latitude-circle action at e = 0.02 (f = z):")
for z0 in (-0.9, -0.5, 0.0, 0.5, 0.9):
    val = latitude_circle_action(system, 0.02, z0)
    print(f"  z0 = {z0:+.1f}: {val:+.6f}")
print(f"  (minimum at the equator: -0.6*pi = {-0.6 * np.pi:+.6f})")

print()
res = e1_lower_bound_symmetric(system, 0.3)
print(f"latitude oracle upper-energy bound: {res.value:.6f}  (exact 1/8 = 0.125)")
cert = res.certificate
print(f"witness at e = {cert.energy:.4f} with action {cert.action_value:+.6f} < 0")

gen = e1_lower_bound_general(
    system, [0.10, 0.11, 0.12, 0.13], SolverConfig(tol=1e-5, max_iter=4000), n=64
)
print(f"general descent bound on a 0.01 grid: {gen.value:.3f}")

flat = e1_lower_bound_symmetric(MagneticSystem(ScalarField.constant(1.0)), 0.3)
print()
print(f"f = 1: negative configuration found = {flat.negative_found} "
      f"(no oscillation, the bound degenerates to e0 = {flat.value})")
