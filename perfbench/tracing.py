"""Spans around each layer's public entry points, and their roll-up.

:func:`install` wraps the entry points listed in :data:`TARGETS` in the
traced child process (``traced_main.py``); nothing under ``src/`` is
edited.  A span is ``[id, parent, name, t0_ns, t1_ns, thread, attrs]``
with ``CLOCK_MONOTONIC`` nanosecond stamps, which are comparable across
the processes of one run.  The layer of a span is its name up to the
first dot (``core.advect`` belongs to ``core``); layers are named after
the ``repro`` subpackages.

:func:`self_times` turns the spans of one thread into per-layer self
time: a span's duration minus the part of it that its children cover.
The root span of each traced process covers launch -> exit, so the
layer rows plus the root's own self time (``unaccounted``) sum to the
traced wall time exactly.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from pathlib import Path

ROOT_NAME = "process"
UNACCOUNTED = "unaccounted"
#: Self-time table rows, in print order.
LAYERS = ("startup", "runtime", "core", "gravity", "nbody", "parallel", "io", "serve")


def _advect_attrs(args, kwargs, result):
    f = args[0]
    return {"cells": int(f.size), "bytes": 2 * int(f.nbytes)}


def _sweeps_attrs(args, kwargs, result):
    grid, n = args[0].grid, int(result or 0)
    cells = n * int(grid.n_cells)
    return {"sweeps": n, "cells": cells, "bytes": 2 * cells * grid.dtype.itemsize}


def _file_attrs(args, kwargs, result):
    try:
        return {"bytes": Path(result).stat().st_size}
    except (TypeError, OSError):
        return {"bytes": 0}


#: (module, attribute, span name, attrs, modules that also bind the name)
#: An attribute with a dot is a method (``Class.method``); a plain name
#: is a module-level function, re-bound in every listed module that
#: imported it by name.
TARGETS = [
    ("repro.runtime.runner", "SimulationRunner.run", "runtime.run", None, ()),
    ("repro.runtime.scenarios", "build_stepper", "runtime.build_stepper", None,
     ("repro.runtime.runner",)),
    ("repro.runtime.scenarios", "build_engine", "runtime.build_engine", None,
     ("repro.runtime.runner",)),
    ("repro.runtime.guards", "GuardSuite.check_step", "runtime.guard", None, ()),
    ("repro.runtime.telemetry", "TelemetryWriter.append", "runtime.telemetry", None, ()),
    ("repro.runtime.telemetry", "TelemetryWriter.event", "runtime.telemetry", None, ()),
    ("repro.diagnostics.timers", "ConservationLedger.update", "runtime.ledger", None, ()),
    ("repro.core.vlasov", "VlasovSolver.drift", "core.drift", None, ()),
    ("repro.core.vlasov", "VlasovSolver.kick", "core.kick", None, ()),
    ("repro.parallel.domain", "DomainSolverAdapter.drift", "core.drift", None, ()),
    ("repro.parallel.domain", "DomainSolverAdapter.kick", "core.kick", None, ()),
    ("repro.core.advection", "advect", "core.advect", _advect_attrs,
     ("repro.core.vlasov", "repro.parallel.domain")),
    ("repro.gravity.poisson", "PeriodicPoissonSolver.solve_fields", "gravity.solve", None, ()),
    ("repro.gravity.poisson", "PeriodicPoissonSolver.acceleration", "gravity.solve", None, ()),
    ("repro.core.hybrid", "HybridSimulation.particle_acceleration", "nbody.force", None, ()),
    ("repro.nbody.treepm", "TreePMSolver.pm_source", "nbody.deposit", None, ()),
    ("repro.nbody.particles", "ParticleSet.kick", "nbody.push", None, ()),
    ("repro.nbody.particles", "ParticleSet.drift", "nbody.push", None, ()),
    ("repro.parallel.domain", "DomainEngine.run_sweeps", "parallel.advect", _sweeps_attrs, ()),
    ("repro.parallel.domain", "DomainEngine._ensure_workers", "parallel.spawn", None, ()),
    ("repro.io.snapshot", "write_checkpoint", "io.checkpoint", _file_attrs,
     ("repro.runtime.scenarios",)),
    ("repro.io.snapshot", "read_checkpoint", "io.read", None, ("repro.runtime.recovery",)),
    ("repro.runtime.recovery", "find_latest_valid_checkpoint", "io.resume", None,
     ("repro.runtime.runner",)),
    ("repro.serve.pipeline", "DiagnosticsPipeline.submit", "serve.submit", None, ()),
    ("repro.io.snapshot", "write_snapshot_chunked", "serve.store", None,
     ("repro.serve.pipeline",)),
]
#: Steppers whose ``advance``/``conserved`` are wrapped (one per scenario).
STEPPERS = ("PlasmaStepper", "GravitationalStepper", "HybridStepper")


class Tracer:
    """In-memory span recorder; thread-aware parent tracking."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            result = None
            t0 = time.monotonic_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.monotonic_ns()
                stack.pop()
                extra = attrs(args, kwargs, result) if attrs is not None else None
                self.spans.append([span_id, parent, name, t0, t1,
                                   threading.get_ident(), extra])

        return traced


def install(tracer: Tracer) -> None:
    """Wrap every entry point of :data:`TARGETS` with ``tracer`` spans."""
    targets = list(TARGETS)
    for cls in STEPPERS:
        targets.append(("repro.runtime.scenarios", f"{cls}.advance", "runtime.advance", None, ()))
        targets.append(("repro.runtime.scenarios", f"{cls}.conserved", "runtime.ledger", None, ()))
    for module_name, attr, name, attrs, rebinds in targets:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, method, tracer.wrap(cls.__dict__[method], name, attrs))
            continue
        original = getattr(module, attr)
        wrapped = tracer.wrap(original, name, attrs)
        for target in (module_name, *rebinds):
            mod = importlib.import_module(target)
            if getattr(mod, attr) is not original:
                raise RuntimeError(f"{target}.{attr} is not {module_name}.{attr}")
            setattr(mod, attr, wrapped)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def _covered(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, cursor = 0, lo
    for a, b in sorted(intervals):
        a, b = max(a, cursor), min(b, hi)
        if b > a:
            total += b - a
            cursor = b
    return total


def self_times(spans: list[list], thread: int) -> dict[str, float]:
    """Per-layer self time [s] of one thread's span tree.

    ``spans`` must include that thread's root span (name
    :data:`ROOT_NAME`, parent 0); its self time is reported as
    :data:`UNACCOUNTED`.  Spans whose parent is not on the thread are
    treated as children of the root.
    """
    mine = [s for s in spans if s[5] == thread]
    ids = {s[0] for s in mine}
    root = next(s for s in mine if s[2] == ROOT_NAME)
    children: dict[int, list[tuple[int, int]]] = {}
    for s in mine:
        if s is root:
            continue
        parent = s[1] if s[1] in ids else root[0]
        children.setdefault(parent, []).append((s[3], s[4]))
    out: dict[str, float] = {}
    for s in mine:
        own = (s[4] - s[3]) - _covered(children.get(s[0], []), s[3], s[4])
        key = UNACCOUNTED if s is root else layer_of(s[2])
        out[key] = out.get(key, 0.0) + own / 1e9
    return out


def chrome_trace(legs: list[dict]) -> dict:
    """Chrome trace-event JSON (``chrome://tracing``) for traced legs.

    ``legs`` are the per-process span files written by
    ``traced_main.py``; timestamps are microseconds from the first
    leg's launch.
    """
    origin = min(leg["spans"][0][3] for leg in legs if leg["spans"])
    events = []
    for leg in legs:
        pid = leg["pid"]
        events.append({"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                       "args": {"name": f"repro {leg['command']} (pid {pid})"}})
        for span_id, parent, name, t0, t1, thread, attrs in leg["spans"]:
            args = {"span": span_id, "parent": parent, "run_id": leg["run_id"]}
            if attrs:
                args.update(attrs)
            events.append({
                "name": name, "cat": layer_of(name), "ph": "X",
                "ts": (t0 - origin) / 1e3, "dur": (t1 - t0) / 1e3,
                "pid": pid, "tid": thread, "args": args,
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
