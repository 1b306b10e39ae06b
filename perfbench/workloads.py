"""Workload definitions: config text, seed rule and output checks.

This module imports nothing from magflow, so the launcher can use it to write
configs before any solver code is loaded.

Why these workloads:

- ``waist``: acceptance 04 at N=128. One depth-6 lift of the seed, then H1
  descent and certification (the scalar RK4 shoot is about half of
  ``find_waist``). No band work, so a band change should leave it unchanged;
  a batched loop-space kernel's overhead at one image shows here.
- ``minimax``: the (1,0)-(2,0) mountain pass at path N=512. Band sweeps,
  ``deform`` and ``action_gradient`` take most of the time, plus two depth-6
  canonical lifts (most of the peak memory) and three certifications. It is
  the workload for a batched band or a new flux quadrature.
- ``critical-values``: the latitude-circle oracle (thousands of scalar
  ``latitude_circle_action`` calls) plus one lift at N=256. No descent, band
  or RK4, so a flow or band change should leave it unchanged and a quadrature
  change should show.

Left out: ``multiplicity`` (acceptance 09) takes about a minute per solve and
exercises the same layers as ``minimax``. N=2048 is left out because no
command reaches it at its default settings.

Why the seed matters: the seed picks the waist seed-loop amplitude in
[0.03, 0.07] (seed 0 gives 0.05), and every amplitude there converges to the
same waist. Every solve of a run uses its seed's amplitude, and the seeds of
several runs cover the range. The descent's iteration count moves only a
little with it (about 280 to 310). The band does not behave like that: its
sweep count jumps with the input (amplitudes 0.0499, 0.05, 0.0501 and 0.0502
took 17, 20, 14 and 27 s, and 0.07 about 7 s, for the same saddle value), so
``minimax`` keeps amplitude 0.05 on every seed and compares like with like.
Compare minimax timings only at one amplitude, together with
``variational.minimax_path.sweeps`` from a traced run. Both ends of the range
pass every check on waist and minimax (minimax took 15.2 s at 0.03 and 5.9 s
at 0.07).
"""

from __future__ import annotations

import math

AMPLITUDE_RANGE = (0.03, 0.07)
MINIMAX_AMPLITUDE = 0.05
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

_BASE = {
    "waist": [
        "system.density = height(1.0, 0.0)",
        "run.energy = 0.02",
        "discretization.loop_nodes = 128",
    ],
    "minimax": [
        "system.density = height(1.0, 0.0)",
        "run.energy = 0.02",
        "run.labels = (1,0);(2,0)",
        "discretization.path_loop_nodes = 512",
    ],
    "critical-values": [
        "system.density = height(1.0, 0.0)",
        "run.e_max = 0.3",
    ],
}

WORKLOADS = tuple(_BASE)

# Layers each workload must reach in a traced run; a zero call count there
# means the tracer missed a binding.
REQUIRED_LAYERS = {
    "waist": ("variational.find_waist", "flow.certify_orbit", "loop_space.lift_loop"),
    "minimax": (
        "variational.find_waist",
        "variational.minimax_path",
        "variational.refine_stationary",
        "flow.certify_orbit",
    ),
    "critical-values": (
        "critical_values.latitude_circle_action",
        "critical_values.compute_e0",
        "loop_space.lift_loop",
    ),
}


def amplitude_for(workload: str, seed: int) -> float | None:
    """Seed-loop amplitude of a run; seed 0 gives 0.05."""
    if workload == "critical-values":
        return None
    if workload == "minimax":
        return MINIMAX_AMPLITUDE
    lo, hi = AMPLITUDE_RANGE
    return lo + (hi - lo) * ((0.5 + seed * _GOLDEN) % 1.0)


def config_text(workload: str, amplitude: float | None) -> str:
    lines = list(_BASE[workload])
    if amplitude is not None:
        lines.append(f"run.seed_amplitude = {amplitude!r}")
    return "\n".join(lines) + "\n"


def check_output(workload: str, rc: int, out: dict) -> list[str]:
    """Acceptance bounds on one solve; returns the failed checks."""
    fails = [] if rc == 0 else [f"exit code {rc}"]
    if workload == "waist":
        rep = out["report"]
        fails += _bad(
            ("gradient_norm <= 1e-6", out["gradient_norm"] <= 1e-6),
            ("|action + 0.6 pi| <= 1e-3", abs(out["action"] + 0.6 * math.pi) <= 1e-3),
            ("|mean_energy_residual| <= 1e-6", abs(rep["mean_energy_residual"]) <= 1e-6),
            ("self_intersections == 0", rep["self_intersections"] == 0),
        )
    elif workload == "minimax":
        e = out["energy"]
        fails += _bad(
            ("converged", out["converged"] is True),
            ("saddle_gradient_norm <= 1e-6", out["saddle_gradient_norm"] <= 1e-6),
            ("closure_residual <= 1e-4", out["report"]["closure_residual"] <= 1e-4),
            ("|value - 4 pi e| <= 2e-3", abs(out["value"] - 4.0 * math.pi * e) <= 2e-3),
        )
    else:
        cert = out["certificate"]
        fails += _bad(
            ("method symmetric-latitude-oracle", out["method"] == "symmetric-latitude-oracle"),
            ("negative configuration found", out["negative_configuration_found"] is True),
            ("|e1 - 0.125| <= 1e-3", abs(out["e1_lower_bound"] - 0.125) <= 1e-3),
            ("certificate action < 0", cert is not None and cert["action_value"] < 0),
        )
    return fails


def _bad(*checks: tuple[str, bool]) -> list[str]:
    return [name for name, ok in checks if not ok]
