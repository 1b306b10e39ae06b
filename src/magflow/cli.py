"""Command-line front end: config parsing, dispatch, deterministic output.

Configs are flat ``section.key = value`` text files with ``#`` comments and a
strict schema: unknown keys are errors, deprecated keys are ignored with one
warning line on stderr.  Every command writes one JSON summary to stdout
(schema_version 1, keys sorted, so identical runs are byte-identical) and CSV
artifacts under ``--out``.  Exit codes: 0 success, 2 nonconvergence (or a
saddle that fails ``OrbitReport.certified``), 1 any other error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys as _sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import critical_values as cv
from . import variational as vr
from .errors import MagflowError, MaxIterations, ParseError, ValidationError
from .fields import ScalarField, parse_drift
from .flow import State, certify_orbit, energy_drift, integrate
from .loop_space import (
    lifted_action_A,
    load_lifted,
    nodes_to_csv,
    save_lifted,
)
from .tonelli import MagneticSystem

COMMANDS = (
    "flow",
    "waist",
    "minimax",
    "scan",
    "multiplicity",
    "critical-values",
    "orbit-check",
)

# most steps an energy grid may have (each grid energy is a full solve)
MAX_GRID_STEPS = 10_000

_SCHEMA: dict[str, tuple[str, str]] = {
    # key: (type tag, default-as-string or "" for required-by-command)
    "system.conformal_exponent": ("scalar_field", "constant(0.0)"),
    "system.density": ("scalar_field", "height(1.0, 0.0)"),
    "system.potential": ("scalar_field", "constant(0.0)"),
    "system.drift": ("drift_field", "none"),
    "discretization.loop_nodes": ("int:16,8192", "128"),
    "discretization.path_loop_nodes": ("int:16,8192", "512"),
    "solver.tol": ("float:>0", "1e-6"),
    "solver.max_iter": ("int:1,1000000", "20000"),
    "run.energy": ("float", "0.02"),
    "run.energy_grid": ("grid", ""),
    "run.labels": ("labels", "(1,0);(2,0)"),
    "run.seed_z0": ("float:open_pm1", "0.0"),
    "run.seed_amplitude": ("float:open_pm1", "0.05"),
    "run.seed_mode": ("int:0,64", "3"),
    "run.e_max": ("float:>0", "0.3"),
    "run.grid_step": ("float:>0", "0.01"),
    "run.loop_file": ("str", ""),
    "flow.q0": ("vec3", "1,0,0"),
    "flow.v0": ("vec3", "0,1,0"),
    "flow.time": ("float:>0", "10.0"),
    "flow.step": ("float:>0", "1e-3"),
}

# keys still accepted but ignored, with one stderr warning each: key -> reason
_DEPRECATED: dict[str, str] = {
    "solver.certify_h": "certification picks its RK4 step by step doubling",
    "system.extension_radius": "the Lagrangian is quadratic in the velocity everywhere",
    "rng.seed": "no solver draws random numbers",
    "system.quad_depth": "every flux quadrature runs at one fixed depth",
    "system.lift_depth": "every flux quadrature runs at one fixed depth",
    "system.metric": "the metric is round exactly when system.conformal_exponent is zero",
    "solver.max_sweeps": "minimax runs Newton from the chain maximum; there is no band",
    "discretization.path_nodes": (
        "minimax polishes the highest link of the connecting chain; nothing is resampled"
    ),
}


@dataclass
class RunConfig:
    values: dict[str, object] = field(default_factory=dict)

    def __getitem__(self, key: str):
        return self.values[key]

    def system(self) -> MagneticSystem:
        return MagneticSystem(
            self["system.density"],
            self["system.potential"],
            self["system.drift"],
            self["system.conformal_exponent"],
        )

    def solver(self) -> vr.SolverConfig:
        return vr.SolverConfig(
            tol=self["solver.tol"],
            max_iter=self["solver.max_iter"],
        )


def _finite(key: str, values):
    if not np.all(np.isfinite(values)):
        raise ValidationError(key, "must be finite")
    return values


def _grid_steps(key: str, span: float, step: float) -> float:
    """span / step, rejected when the step points away from the end of the
    span or the grid would have more than MAX_GRID_STEPS steps."""
    steps = span / step
    if steps < 0.0:
        raise ValidationError(key, "grid step points away from the end of the grid")
    if steps > MAX_GRID_STEPS:
        raise ValidationError(key, f"grid has more than {MAX_GRID_STEPS} steps")
    return steps


def _parse_value(key: str, raw: str):
    tag = _SCHEMA[key][0]
    try:
        if tag == "scalar_field":
            return ScalarField.parse(raw)
        if tag == "drift_field":
            return parse_drift(raw)
        if tag.startswith("int:"):
            lo, hi = (int(t) for t in tag.split(":", 1)[1].split(","))
            v = int(raw)
            if not lo <= v <= hi:
                raise ValidationError(key, f"must lie in [{lo}, {hi}]")
            return v
        if tag.startswith("float"):
            v = _finite(key, float(raw))
            if tag == "float:>0" and v <= 0:
                raise ValidationError(key, "must be positive")
            if tag == "float:open_pm1" and not -1.0 < v < 1.0:
                raise ValidationError(key, "must lie strictly between -1 and 1")
            return v
        if tag == "vec3":
            parts = [float(t) for t in raw.split(",")]
            if len(parts) != 3:
                raise ValidationError(key, "needs three comma-separated numbers")
            return _finite(key, np.array(parts))
        if tag == "grid":
            if raw == "":
                return []
            if ":" in raw:
                a, b, s = _finite(key, [float(t) for t in raw.split(":")])
                if s == 0.0:
                    raise ValidationError(key, "grid step must be nonzero")
                n = int(round(_grid_steps(key, b - a, s)))
                return [a + k * s for k in range(n + 1)]
            return _finite(key, [float(t) for t in raw.split(",")])
        if tag == "labels":
            labels = []
            for tok in raw.split(";"):
                tok = tok.strip().strip("()")
                m, n = (int(t) for t in tok.split(","))
                if m < 1:
                    raise ValidationError(key, "iterate order must be >= 1")
                labels.append((m, n))
            return labels
        if tag == "str":
            return raw
    except (ValueError, TypeError) as exc:
        raise ValidationError(key, f"cannot parse '{raw}': {exc}") from exc
    raise ValidationError(key, f"unhandled schema tag {tag}")


def parse_config(path) -> RunConfig:
    """Strict parse of the flat key/value format; unknown keys are errors."""
    cfg = RunConfig()
    # not pathlib: a Path interns each component, and the dead entries of
    # repeated in-process calls make the interpreter's string table resize
    with open(path) as fh:
        text = fh.read()
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ParseError(f"line {line_no}: expected 'key = value'", line_no)
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key in _DEPRECATED:
            print(f"warning: {key} is ignored; {_DEPRECATED[key]}", file=_sys.stderr)
            continue
        if key not in _SCHEMA:
            raise ValidationError(key)
        cfg.values[key] = _parse_value(key, raw)
    for key, (tag, default) in _SCHEMA.items():
        if key in cfg.values:
            continue
        if default == "":
            cfg.values[key] = [] if tag == "grid" else ""
        else:
            cfg.values[key] = _parse_value(key, default)
    return cfg


def _two_labels(cfg: RunConfig) -> list[tuple[int, int]]:
    """The first two of ``run.labels``: the minimax path's end classes."""
    labels = cfg["run.labels"]
    if len(labels) < 2:
        raise ValidationError("run.labels", "need two labels")
    return labels[:2]


def _write_csv(path: Path, header: list[str], rows) -> None:
    """A header line and one line per row of formatted cells."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _cmd_flow(cfg: RunConfig, out: Path) -> tuple[int, dict]:
    system = cfg.system()
    s0 = State.of(cfg["flow.q0"], cfg["flow.v0"])
    traj = integrate(system, s0, cfg["flow.time"], cfg["flow.step"])
    csv_path = out / "trajectory.csv"
    _write_csv(
        csv_path,
        ["t", "qx", "qy", "qz", "vx", "vy", "vz", "E"],
        (
            [repr(float(x)) for x in (t, *q, *v, en)]
            for t, q, v, en in zip(traj.times, traj.positions, traj.velocities, traj.energy_series)
        ),
    )
    return 0, {
        "steps": len(traj.times) - 1,
        "energy_drift": energy_drift(traj),
        "final_energy": float(traj.energy_series[-1]),
        "trajectory_csv": str(csv_path),
    }


def _cmd_waist(cfg: RunConfig, out: Path) -> tuple[int, dict]:
    system = cfg.system()
    e = cfg["run.energy"]
    seed = vr.default_seed_builder(
        system, e, cfg["run.seed_z0"], cfg["run.seed_amplitude"], cfg["run.seed_mode"]
    )(cfg["discretization.loop_nodes"])
    res = vr.find_waist(system, e, seed, cfg.solver())
    loop_path = out / "waist_loop.json"
    save_lifted(res.lifted, loop_path)
    nodes_to_csv(res.lifted.loop, out / "waist_nodes.csv")
    return 0, {
        "energy": e,
        "action": res.action,
        "gradient_norm": res.gradient_norm,
        "period": res.lifted.p,
        "iterations": res.iterations,
        "report": asdict(res.report),
        "loop_file": str(loop_path),
    }


def _cmd_minimax(cfg: RunConfig, out: Path) -> tuple[int, dict]:
    system = cfg.system()
    e = cfg["run.energy"]
    labels = _two_labels(cfg)
    solver = cfg.solver()
    seeds = vr.default_seed_builder(
        system, e, cfg["run.seed_z0"], cfg["run.seed_amplitude"], cfg["run.seed_mode"]
    )
    waists = vr.prepare_waists(
        system, e, labels, seeds, cfg["discretization.path_loop_nodes"], solver
    )
    mm = vr.minimax_between_labels(system, e, waists, labels[0], labels[1], solver)
    saddle_path = out / "saddle_loop.json"
    save_lifted(mm.saddle, saddle_path)
    return 0 if mm.converged and mm.report.certified else 2, {
        "energy": e,
        "labels": [list(labels[0]), list(labels[1])],
        "value": mm.value,
        "converged": mm.converged,
        "saddle_gradient_norm": mm.saddle_gradient_norm,
        "report": asdict(mm.report),
        "loop_file": str(saddle_path),
    }


def _cmd_scan(cfg: RunConfig, out: Path) -> tuple[int, dict]:
    rows = vr.scan_energy(
        cfg.system(),
        cfg["run.energy_grid"],
        labels=_two_labels(cfg),
        cfg=cfg.solver(),
        path_n=cfg["discretization.path_loop_nodes"],
        seed_z0=cfg["run.seed_z0"],
        seed_amplitude=cfg["run.seed_amplitude"],
        seed_mode=cfg["run.seed_mode"],
    )
    csv_path = out / "scan.csv"
    cols = [
        "e", "status", "waist_action", "waist_gradient_norm", "waist_self_intersections",
        "minimax_value", "minimax_converged", "saddle_gradient_norm", "saddle_closure",
        "saddle_energy_residual",
    ]
    _write_csv(csv_path, cols, ([repr(row[c]) if c in row else "" for c in cols] for row in rows))
    clean = all(r["status"] == "ok" and r.get("minimax_converged", False) for r in rows)
    return 0 if clean else 2, {"rows": rows, "scan_csv": str(csv_path)}


def _cmd_multiplicity(cfg: RunConfig, out: Path) -> tuple[int, dict]:
    e = cfg["run.energy"]
    result = vr.multiplicity_search(
        cfg.system(),
        e,
        cfg["run.labels"],
        cfg=cfg.solver(),
        path_n=cfg["discretization.path_loop_nodes"],
        seed_z0=cfg["run.seed_z0"],
        seed_amplitude=cfg["run.seed_amplitude"],
        seed_mode=cfg["run.seed_mode"],
    )
    orbits = []
    for k, rec in enumerate(result.orbits):
        loop_path = out / f"orbit_{k}.json"
        save_lifted(rec.lifted, loop_path)
        orbits.append(
            {
                "source": rec.source,
                "action": rec.action,
                "period": rec.lifted.p,
                "primitive_period": rec.primitive.p,
                "report": asdict(rec.report),
                "loop_file": str(loop_path),
            }
        )
    return 0 if not result.failures else 2, {
        "energy": e,
        "distinct_count": result.distinct_count,
        "orbits": orbits,
        "failures": result.failures,
    }


def _cmd_critical_values(cfg: RunConfig, out: Path) -> tuple[int, dict]:
    system = cfg.system()
    e0_val = cv.compute_e0(system)
    try:
        res = cv.e1_lower_bound_symmetric(system, cfg["run.e_max"], tol=1e-4)
        method = "symmetric-latitude-oracle"
    except MagflowError:
        step = cfg["run.grid_step"]
        n = int(_grid_steps("run.grid_step", cfg["run.e_max"], step))
        grid = [e0_val + step * k for k in range(1, n + 1)]
        res = cv.e1_lower_bound_general(system, grid, cfg.solver())
        method = "general-descent"
    cert = None
    if res.certificate is not None:
        cert_path = out / "e1_witness.json"
        save_lifted(res.certificate.witness, cert_path)
        cert = {
            "energy": res.certificate.energy,
            "action_value": res.certificate.action_value,
            "loop_file": str(cert_path),
        }
    return 0, {
        "e0": e0_val,
        "e1_lower_bound": res.value,
        "negative_configuration_found": res.negative_found,
        "method": method,
        "certificate": cert,
    }


def _cmd_orbit_check(cfg: RunConfig, out: Path) -> tuple[int, dict]:
    if not cfg["run.loop_file"]:
        raise ValidationError("run.loop_file", "required for orbit-check")
    system = cfg.system()
    e = cfg["run.energy"]
    ll = load_lifted(cfg["run.loop_file"])
    return 0, {
        "energy": e,
        "action": lifted_action_A(system, e, ll),
        "loop": {"nodes": len(ll.nodes), "period": ll.p, "flux": ll.flux},
        "report": asdict(certify_orbit(system, ll.loop, e)),
    }


_DISPATCH = {
    "flow": _cmd_flow,
    "waist": _cmd_waist,
    "minimax": _cmd_minimax,
    "scan": _cmd_scan,
    "multiplicity": _cmd_multiplicity,
    "critical-values": _cmd_critical_values,
    "orbit-check": _cmd_orbit_check,
}


@functools.lru_cache(maxsize=16)
def _out_path(out_dir) -> Path:
    """The ``--out`` directory as a Path, parsed once per directory: a Path
    interns each component, and the dead entries of repeated in-process calls
    make the interpreter's string table resize."""
    return Path(out_dir)


def run_command(command: str, cfg: RunConfig, out_dir) -> int:
    """Dispatch a command, print its payload as the one JSON summary, and
    return the process exit code."""
    out = _out_path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        # the solvers test their own values for finiteness, so numpy's
        # floating-point warnings would only add lines before the error line
        with np.errstate(all="ignore"):
            code, payload = _DISPATCH[command](cfg, out)
        payload = {"schema_version": 1, "command": command, **payload}
        print(json.dumps(payload, sort_keys=True, indent=1, default=lambda o: o.tolist()))
        return code
    except MaxIterations as exc:
        print(f"nonconvergence: {exc}", file=_sys.stderr)
        return 2
    except (MagflowError, ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=_sys.stderr)
        return 1


class _ArgumentParser(argparse.ArgumentParser):
    """Raises ArgumentError on a malformed command line, where argparse
    would print its usage text and exit 2, the code of nonconvergence."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def main(argv=None) -> int:
    parser = _ArgumentParser(
        prog="magflow",
        description="Periodic orbits of magnetic systems on the 2-sphere.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="flat key/value config file")
    parser.add_argument("--out", default=".", help="directory for CSV/JSON artifacts")
    parser.add_argument("--seed", type=int, help="accepted and ignored; no solver draws random numbers")
    try:
        args = parser.parse_args(argv)
    except argparse.ArgumentError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1
    try:
        cfg = parse_config(args.config)
    except (MagflowError, ValueError, OSError) as exc:
        print(f"config error: {type(exc).__name__}: {exc}", file=_sys.stderr)
        return 1
    return run_command(args.command, cfg, args.out)


if __name__ == "__main__":
    raise SystemExit(main())
