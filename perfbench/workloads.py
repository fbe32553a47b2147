"""Seeded workload generator.

Each workload is a ``RunConfig`` in plain-dict form plus the launch plan
the harness drives it through (one ``repro run`` leg, or a drained leg
followed by ``repro resume``).  The seed picks only initial-condition
parameters — the perturbation amplitude, or the hybrid scenario's
Gaussian-realization seed — so phase-space cells x steps, and the code
path each sweep takes, never depend on it.  The program receives only
the generated config.

Why these four (each stresses a different layer):

* ``vlasov6d-serial`` — 6-D gravitational Vlasov-Poisson on the plain
  serial kernels; sweeps are ~99% of a step, so this is the kernel-bound
  single-process baseline.
* ``vlasov6d-domain`` — the same config and seed on the persistent
  shared-memory domain engine with 2 workers; the only workload where
  ``repro.parallel`` does the work.  Its final ``f`` must be bitwise
  equal to ``vlasov6d-serial``'s.
* ``hybrid-pm`` — the paper's coupled neutrino-Vlasov + CDM N-body
  system on the PM path, from z = 10 on a scale-factor ladder; the only
  workload where ``repro.nbody`` and the PM mesh solve run, with short
  (6-cell) velocity axes.
* ``plasma1d-restart`` — 1000 tiny 1D1V steps with a checkpoint and a
  diagnostics product every 10 steps, drained at mid-schedule and
  finished by ``repro resume``; the kernel runs on tiny arrays, so
  per-call overhead and orchestration (telemetry, guards, ledger every
  step) are a large share of its step loop.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

#: Workload names in BENCHMARK.json order.
NAMES = ("vlasov6d-serial", "vlasov6d-domain", "hybrid-pm", "plasma1d-restart")
#: Workload -> the workload whose final f it must reproduce bitwise.
REFERENCE_OF = {"vlasov6d-domain": "vlasov6d-serial"}
#: Steps of the 6-D workloads.  With checkpoints and diagnostics every 2
#: steps, 3 steps still write a cadence checkpoint (step 2) and a final
#: one (step 3) — two gathers on the domain engine — while keeping one
#: execution near 10 s (domain engine) to 20 s (hybrid), so that a
#: benchmark invocation can report a median over three of them.
STEPS_6D = 3


@dataclass
class Leg:
    """One process launch: ``repro run <config>`` or ``repro resume <dir>``.

    ``max_steps`` caps the steps of this leg (the runner drains with
    exit 75 when the cap lands before the schedule's end).
    """

    command: str
    max_steps: int | None
    expect_exit: int


@dataclass
class Workload:
    """A generated workload: the config the program sees plus the plan."""

    name: str
    seed: int
    config: dict
    legs: list[Leg]
    #: Workload whose final ``f`` this one must reproduce bitwise.
    reference: str | None = None
    ic: dict = field(default_factory=dict)

    @property
    def n_steps(self) -> int:
        return int(self.config["schedule"]["n_steps"])

    @property
    def cells(self) -> int:
        g = self.config["grid"]
        return math.prod(g["nx"]) * math.prod(g["nu"])

    @property
    def cell_updates(self) -> int:
        return self.cells * self.n_steps

    @property
    def mass_key(self) -> str:
        return "nu_mass" if self.config["scenario"] == "hybrid" else "mass"

    def expected_products(self, steps: int | None = None) -> int:
        """Diagnostics products a run reaching ``steps`` must have stored."""
        steps = self.n_steps if steps is None else steps
        every = self.config["diagnostics"]["every_steps"]
        done = steps == self.n_steps
        return steps // every + (1 if done and steps % every else 0)


def _amplitude(seed: int, lo: float, hi: float) -> float:
    return round(random.Random(seed).uniform(lo, hi), 6)


def _vlasov6d(seed: int, domain: bool) -> tuple[dict, dict]:
    # The mode stays fixed: it sets the sign pattern of the kick shifts,
    # and so which upwind branches each domain block runs (mode 1 gives
    # each half-box block sign-uniform ux kicks).  Mode 2 keeps every
    # block mixed-sign, like the serial sweep, whatever the amplitude.
    ic = {"mode": 2, "amplitude": _amplitude(seed, 0.02, 0.08)}
    box, v_max, nx = 4.0 * math.pi, 6.0, (16, 16, 8)
    config = {
        "scenario": "gravitational",
        "name": "vlasov6d",
        "scheme": "slmpp5",
        "grid": {"nx": list(nx), "nu": [8, 8, 8], "box_size": box,
                 "v_max": v_max, "dtype": "float32"},
        "schedule": {"kind": "time", "n_steps": STEPS_6D,
                     "dt": 0.25 * (box / max(nx)) / v_max},
        "checkpoint": {"every_steps": 2, "keep_last": 3},
        "diagnostics": {"every_steps": 2},
        # kicks use the zero velocity boundary, so mass leaving through
        # |u| = v_max is physical outflow (1.5e-6 measured after 4 steps): the
        # bound sits above it, well below a real conservation leak
        "guards": {"max_mass_drift": 1.0e-5},
        "params": {"g_newton": 1.0, "sigma_v": 1.0, "rho0": 1.0, **ic},
    }
    if domain:
        config["engine"] = {"engine": "domain", "n_workers": 2}
    return config, ic


def _hybrid(seed: int) -> tuple[dict, dict]:
    ic = {"seed": random.Random(seed).randrange(1, 2**31)}
    config = {
        "scenario": "hybrid",
        "name": "hybrid-pm",
        "scheme": "slmpp5",
        "grid": {"nx": [16, 16, 16], "nu": [6, 6, 6], "box_size": 200.0,
                 "dtype": "float32"},
        "schedule": {"kind": "scale_factor", "n_steps": STEPS_6D,
                     "a_start": 1.0 / 11.0, "a_end": 1.0, "spacing": "log"},
        "checkpoint": {"every_steps": 2, "keep_last": 3},
        "diagnostics": {"every_steps": 2},
        # the Fermi-Dirac tail beyond the v_max cutoff leaves through the
        # zero velocity boundary as structure grows (~3e-4 by z = 0)
        "guards": {"max_mass_drift": 2.0e-3},
        "params": {"m_nu": 0.4, "use_tree": False, **ic},
    }
    return config, ic


def _plasma(seed: int) -> tuple[dict, dict]:
    ic = {"mode": 1, "amplitude": _amplitude(seed, 0.005, 0.05)}
    config = {
        "scenario": "plasma",
        "name": "plasma1d-restart",
        "scheme": "slmpp5",
        "grid": {"nx": [64], "nu": [128], "box_size": 4.0 * math.pi,
                 "v_max": 6.0, "dtype": "float64"},
        "schedule": {"kind": "time", "n_steps": 1000, "dt": 0.05},
        # every 10 steps: with a checkpoint and a product (each fsync'd)
        # every step, the run time followed the host disk's fsync latency
        # and drifted up to 2x within minutes
        "checkpoint": {"every_steps": 10, "keep_last": 3},
        "diagnostics": {"every_steps": 10},
        "params": ic,
    }
    return config, ic


def build(name: str, seed: int) -> Workload:
    """The workload ``name`` for workload seed ``seed``."""
    if name in ("vlasov6d-serial", "vlasov6d-domain"):
        domain = name == "vlasov6d-domain"
        config, ic = _vlasov6d(seed, domain)
        return Workload(name, seed, config, [Leg("run", None, 0)],
                        reference=REFERENCE_OF.get(name), ic=ic)
    if name == "hybrid-pm":
        config, ic = _hybrid(seed)
        return Workload(name, seed, config, [Leg("run", None, 0)], ic=ic)
    if name == "plasma1d-restart":
        config, ic = _plasma(seed)
        half = config["schedule"]["n_steps"] // 2
        return Workload(name, seed, config,
                        [Leg("run", half, 75), Leg("resume", None, 0)], ic=ic)
    raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")
