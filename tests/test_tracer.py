"""The benchmark tracer's contract with the package.

``perfbench/tracer.py`` rebinds the functions and methods it times by name,
so renaming one of them breaks the benchmark without failing any solver
test. This test enters the tracer around one small waist solve.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from magflow.cli import main
from magflow.sphere_geom import FLUX_DEPTH

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
NODES = 64
CONFIG = f"""
system.density = height(1.0, 0.0)
run.energy = 0.02
run.seed_amplitude = 0.02
discretization.loop_nodes = {NODES}
solver.max_iter = 6000
"""


@pytest.fixture
def tracer_module(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_binds_every_target(tracer_module, tmp_path, capsys):
    cfg = tmp_path / "waist.cfg"
    cfg.write_text(CONFIG)
    with tracer_module.Tracer() as tracer:
        for name in tracer_module.TARGETS:
            module, *path = name.split(".")
            owner = sys.modules["magflow." + module]
            for part in path:
                owner = getattr(owner, part)
            assert hasattr(owner, "__wrapped__"), name
        code = main(["waist", "--config", str(cfg), "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    assert tracer.errors == []
    lifts = tracer.calls["loop_space.lift_loop"]
    assert lifts >= 1 and tracer.calls["loop_space.cone_flux"] == lifts
    assert tracer.counts["loop_space.cone_flux.leaves"] == lifts * NODES * 4**FLUX_DEPTH
