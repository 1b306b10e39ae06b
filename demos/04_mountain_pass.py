"""Mountain-pass saddles between a waist and its double cover.

The band of loops connects the waist to its 2-fold iterate through the
valley of short loops, where covering multiplicity changes cost almost
nothing.  A short climbing-image relaxation finds the saddle's basin and
Newton-Krylov polish takes the climbing image to a stationary point; for the
odd density the saddle is the doubled small circle near the pole with action
close to 4*pi*e, and shooting along the flow closes to certification
accuracy.
"""

import numpy as np

from magflow import MagneticSystem, ScalarField, SolverConfig
from magflow.variational import default_seed_builder, minimax_between_labels, prepare_waists

system = MagneticSystem(ScalarField.height(1.0, 0.0))
e = 0.02
cfg = SolverConfig()

seeds = default_seed_builder(system, e)
waists = prepare_waists(system, e, [(1, 0), (2, 0)], seeds, 512, cfg)
a1 = waists[1].action
print(f"waist action {a1:+.6f}; double-cover endpoint action {2 * a1:+.6f}")

mm = minimax_between_labels(system, e, waists, (1, 0), (2, 0), cfg)
print(f"minimax value {mm.value:+.6f}   (4*pi*e = {4 * np.pi * e:+.6f})")
print(f"converged: {mm.converged}, saddle gradient norm {mm.saddle_gradient_norm:.2e}, "
      f"band stopped after {len(mm.history) - 1} sweeps ({mm.stop_reason})")

print(f"saddle shooting closure {mm.report.closure_residual:.2e}, "
      f"mean-energy residual {mm.report.mean_energy_residual:+.2e}")
z = mm.saddle.nodes[:, 2]
print(f"saddle latitude band: z in [{z.min():+.6f}, {z.max():+.6f}] "
      f"(the doubled circle at z = {np.sqrt(0.96):+.6f})")
