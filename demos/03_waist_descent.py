"""Finding a waist: descent of the lifted free-period action.

The loop is a discrete closed curve with a free period; its lifted action
adds the magnetic flux accumulated by the deformation history (the ledger
realizing the universal cover).  For the odd density f = z at energy 0.02
the descent from a perturbed equator lands on the equator with action
-0.6*pi: the length term contributes 0.4*pi and the enclosed lower-cap flux
-pi.
The descent is L-BFGS whose initial inverse Hessian is the scaled discrete
H^1 metric; it needs a handful of iterations, and every accepted step is
printed at the end.
"""

from pathlib import Path

import numpy as np

from magflow import MagneticSystem, ScalarField, SeedLoop, SolverConfig, find_waist
from magflow.loop_space import nodes_to_csv

out = Path("demo_out")
out.mkdir(exist_ok=True)

system = MagneticSystem(ScalarField.height(1.0, 0.0))
e = 0.02

seed = SeedLoop(z0=0.0, amplitude=0.05, mode=3).lift(system, e, 128)
print(f"seed: perturbed equator, action {seed.flux:+.4f} ledger, period {seed.p:.3f}")

res = find_waist(system, e, seed, SolverConfig())
print(f"converged in {res.iterations} iterations")
print(f"  action        {res.action:+.6f}   (exact -0.6*pi = {-0.6 * np.pi:+.6f})")
print(f"  gradient norm {res.gradient_norm:.2e}")
print(f"  period        {res.lifted.p:.4f}      (exact 10*pi = {10 * np.pi:.4f})")
print(f"  mean-energy residual {res.report.mean_energy_residual:+.2e}")
print(f"  self-intersections   {res.report.self_intersections}")

nodes_to_csv(res.lifted.loop, out / "waist_nodes.csv")
print(f"waist nodes written to {out / 'waist_nodes.csv'}")

print()
print("descent history (every accepted step):")
for k, action in enumerate(res.history):
    print(f"  step {k:4d}: A = {action:+.8f}")
