"""Per-layer spans recorded by wrapping magflow's public functions.

The package binds names such as ``action_gradient``, ``deform``,
``cone_flux``, ``lift_loop``, ``certify_orbit`` and ``integrate`` by name at
import (``from .loop_space import action_gradient``). Replacing a function in
its defining module alone would miss every call made through those copies,
without any error. Entering a ``Tracer`` therefore rebinds each target in
every loaded ``magflow`` module (on its class, for methods), and the traced run
checks the binding: under ``find_waist`` the ``action_gradient`` calls must
equal the descent iterations plus one.

A span's self time is its duration minus the durations of the traced spans
it directly encloses. Inclusive time counts only the outermost span of a
name, so nesting never counts a call twice.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

TARGETS = (
    "loop_space.action_gradient",
    "loop_space.h1_precondition",
    "loop_space.deform",
    "loop_space.lifted_action_A",
    "loop_space.cone_flux",
    "loop_space.lift_loop",
    "variational.find_waist",
    "variational.minimax_path",
    "variational.build_connecting_chain",
    "variational.refine_stationary",
    "flow.certify_orbit",
    "flow.integrate",
    "flow.count_self_intersections",
    "critical_values.latitude_circle_action",
    "critical_values.compute_e0",
    "tonelli.MagneticSystem.total_flux",
    "tonelli.MagneticSystem.fiber_bounds",
)

COUNTS = (
    "loop_space.cone_flux.leaves",
    "variational.find_waist.iterations",
    "variational.find_waist.trials",
    "variational.minimax_path.sweeps",
    "variational.build_connecting_chain.links",
    "flow.integrate.rk4_steps",
    "flow.count_self_intersections.segment_pairs",
)


def _cone_flux(t, args, result, entered):
    depth = args["depth"] if args["depth"] is not None else args["sys"].lift_depth
    t.counts["loop_space.cone_flux.leaves"] += args["loop"].n * 4**depth


def _find_waist(t, args, result, entered):
    iterations = result.iterations
    grads = t.calls["loop_space.action_gradient"] - entered["loop_space.action_gradient"]
    t.counts["variational.find_waist.iterations"] += iterations
    # every iteration accepts exactly one deform trial
    t.counts["variational.find_waist.trials"] += (
        t.calls["loop_space.deform"] - entered["loop_space.deform"]
    )
    if grads != iterations + 1:
        t.errors.append(
            f"find_waist: {grads} action_gradient calls for {iterations} iterations "
            f"(expected {iterations + 1}); a by-name binding was not traced"
        )


def _minimax_path(t, args, result, entered):
    # one history entry per completed sweep, plus the final value
    t.counts["variational.minimax_path.sweeps"] += len(result.history) - 1


def _build_connecting_chain(t, args, result, entered):
    t.counts["variational.build_connecting_chain.links"] += len(result) - 1


def _integrate(t, args, result, entered):
    t.counts["flow.integrate.rk4_steps"] += len(result.times) - 1


def _count_self_intersections(t, args, result, entered):
    n = len(args["nodes"])
    t.counts["flow.count_self_intersections.segment_pairs"] += n * (n - 3) // 2


_HOOKS = {
    "loop_space.cone_flux": _cone_flux,
    "variational.find_waist": _find_waist,
    "variational.minimax_path": _minimax_path,
    "variational.build_connecting_chain": _build_connecting_chain,
    "flow.integrate": _integrate,
    "flow.count_self_intersections": _count_self_intersections,
}


class Tracer:
    """Wraps the TARGETS while installed (use as a context manager)."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.incl: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.errors: list[str] = []
        self._child_s: list[float] = []
        self._open: dict[str, int] = defaultdict(int)
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        hook = _HOOKS.get(name)
        sig = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entered = defaultdict(int, self.calls) if hook else None
            self.calls[name] += 1
            outer = self._open[name] == 0
            self._open[name] += 1
            self._child_s.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                self.self_s[name] += dur - self._child_s.pop()
                self._open[name] -= 1
                if outer:
                    self.incl[name] += dur
                if self._child_s:
                    self._child_s[-1] += dur
            if hook:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self, bound.arguments, result, entered)
            return result

        return wrapper

    def __enter__(self) -> "Tracer":
        modules = [
            m for n, m in list(sys.modules.items()) if n == "magflow" or n.startswith("magflow.")
        ]
        for name in TARGETS:
            module, *path = name.split(".")
            owner = sys.modules["magflow." + module]
            for part in path[:-1]:
                owner = getattr(owner, part)
            orig = getattr(owner, path[-1])
            wrapper = self._wrap(name, orig)
            for space in [owner] if isinstance(owner, type) else modules:
                for attr, val in list(vars(space).items()):
                    if val is orig:
                        setattr(space, attr, wrapper)
                        self._restore.append((space, attr, orig))
        return self

    def __exit__(self, *exc) -> None:
        for space, attr, orig in reversed(self._restore):
            setattr(space, attr, orig)
        self._restore.clear()

    def exact_counts(self) -> dict[str, int]:
        """Counts that must repeat exactly when the same input is solved again."""
        out = {f"{name}.calls": self.calls[name] for name in TARGETS}
        out.update((name, self.counts[name]) for name in COUNTS)
        return out

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = dict(self.exact_counts())
        for name in TARGETS:
            out[f"{name}.s"] = self.incl[name]
            out[f"{name}.self_s"] = self.self_s[name]
        trials = self.counts["variational.find_waist.trials"]
        accepted = self.counts["variational.find_waist.iterations"]
        out["variational.find_waist.accept_ratio"] = accepted / trials if trials else 0.0
        return out
