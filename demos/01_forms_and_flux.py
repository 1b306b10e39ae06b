"""Magnetic 2-forms on the sphere and their flux.

A 2-form is a scalar density against the metric area form.  This script
evaluates one against the round area form, integrates it over a spherical
triangle by Gauss-Legendre quadrature in geodesic polar coordinates about
the first vertex (2^depth radial nodes, and as many on the far edge of a
wide triangle such as the octant; a thin one takes as few as 4 there), and
computes total fluxes for the built-in density family.
"""

import numpy as np

from magflow import MagneticSystem, ScalarField, total_flux
from magflow.sphere_geom import triangles_flux

f = ScalarField.height(1.0, 0.2)  # f(q) = z + 0.2
north = np.array([0.0, 0.0, 1.0])
print("density at the north pole:", f(north))
stretched = MagneticSystem(f, conformal_exponent=ScalarField.constant(0.5))
print("against the round area form of g = e^{2u} g_round, u = 0.5:",
      stretched.round_density(north), "(1.2 e)")

octant = np.eye(3)[None]  # one triangle: the vertices (1,0,0), (0,1,0), (0,0,1)
unit = ScalarField.constant(1.0)
for depth in (1, 2, 3, 4):
    val = triangles_flux(unit, octant, depth)
    print(f"octant area with {2**depth:2d} nodes per axis: {val:.15f}  (exact {np.pi / 2:.15f})")

print()
for spec in ("constant(1.0)", "height(1.0, 0.0)", "height(1.0, 0.2)"):
    flux = total_flux(ScalarField.parse(spec))
    print(f"total flux of {spec:18s}: {flux:+.8f}")
print("(the shifted height density is 'oscillating': it takes both signs,")
print(" and its total flux 0.8*pi is the deck-shift unit of the lifted action)")
