"""Mountain-pass saddles between a waist and its double cover.

A chain of loops connects the waist to its 2-fold iterate through the
valley of short loops, where covering multiplicity changes cost almost
nothing.  Newton-Krylov polish takes the chain's highest loop to a
stationary point; for the odd density the saddle is the doubled small
circle near the pole with action close to 4*pi*e, and shooting along the
flow closes to certification accuracy.
"""

import numpy as np

from magflow import MagneticSystem, ScalarField, SeedLoop, SolverConfig
from magflow.variational import minimax_between_labels, prepare_waists

system = MagneticSystem(ScalarField.height(1.0, 0.0))
e = 0.02
cfg = SolverConfig()

waists = prepare_waists(system, e, [(1, 0), (2, 0)], SeedLoop(), 512, cfg)
a1 = waists[1].action
print(f"waist action {a1:+.6f}; double-cover endpoint action {2 * a1:+.6f}")

mm = minimax_between_labels(system, e, waists, (1, 0), (2, 0), cfg)
print(f"minimax value {mm.value:+.6f}   (4*pi*e = {4 * np.pi * e:+.6f})")
print(f"converged: {mm.converged} ({mm.stop_reason} from chain link {mm.argmax_index}), "
      f"saddle gradient norm {mm.saddle_gradient_norm:.2e}")

print(f"saddle shooting closure {mm.report.closure_residual:.2e}, "
      f"mean-energy residual {mm.report.mean_energy_residual:+.2e}")
z = mm.saddle.nodes[:, 2]
print(f"saddle latitude band: z in [{z.min():+.6f}, {z.max():+.6f}] "
      f"(the doubled circle at z = {np.sqrt(0.96):+.6f})")
