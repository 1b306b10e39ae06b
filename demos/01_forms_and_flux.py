"""Magnetic 2-forms on the sphere and their flux.

A 2-form is a scalar density against the metric area form.  This script
evaluates one pointwise, integrates it over spherical triangles by
Gauss-Legendre quadrature in geodesic polar coordinates about the first
vertex (2^depth nodes per axis), and computes total fluxes for the built-in
density family.
"""

import numpy as np

from magflow import ScalarField, SphericalTriangle, TwoForm, total_flux
from magflow.sphere_geom import integrate_two_form_triangle

form = TwoForm(ScalarField.height(1.0, 0.2))  # f(q) = z + 0.2

q = np.array([0.0, 0.0, 1.0])
v = np.array([1.0, 0.0, 0.0])
w = np.array([0.0, 1.0, 0.0])
print("pointwise at the north pole:", form(q, v, w), "(density 1.2 times unit area)")

octant = SphericalTriangle(
    np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0])
)
unit = TwoForm(ScalarField.constant(1.0))
for depth in (1, 2, 3, 4):
    val = integrate_two_form_triangle(unit, octant, depth)
    print(f"octant area with {2**depth:2d} nodes per axis: {val:.15f}  (exact {np.pi / 2:.15f})")

print()
for spec in ("constant(1.0)", "height(1.0, 0.0)", "height(1.0, 0.2)"):
    f = ScalarField.parse(spec)
    flux = total_flux(TwoForm(f), 4)
    print(f"total flux of {spec:18s}: {flux:+.8f}")
print("(the shifted height density is 'oscillating': it takes both signs,")
print(" and its total flux 0.8*pi is the deck-shift unit of the lifted action)")
