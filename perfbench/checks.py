"""Output checks: a run whose outputs are wrong is a failed run.

Every execution the harness times is checked here, from the files the
program left behind: exit codes, the final checkpoint (re-read through
the program's own ``read_checkpoint``, which verifies the per-array
CRCs), the telemetry stream (gapless steps, guard reports, mass drift,
fallback and degradation events), and the diagnostics products.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from launch import Execution

#: Event kinds that mean the run took a different code path than the
#: one being measured (fallback, degradation, recovery or injection).
FORBIDDEN_EVENTS = frozenset({
    "domain_cfl_fallback", "domain_fft_fallback", "domain_degraded",
    "domain_worker_failure", "engine_degraded", "worker_failure",
    "fft_fallback", "rollback", "checkpoint_quarantined", "fault_injected",
    "diagnostics_dropped", "diagnostics_error",
})
DEFAULT_MAX_MASS_DRIFT = 1.0e-6


def read_stream(path: Path) -> tuple[list[dict], list[dict]]:
    """(step records, event records) of a telemetry stream."""
    from repro.runtime.telemetry import read_events, read_telemetry

    if not path.exists():
        return [], []
    return read_telemetry(path), read_events(path)


def f_digest(f: np.ndarray) -> str:
    """Bitwise identity of a distribution function (dtype, shape, bytes)."""
    h = hashlib.sha256(f"{f.dtype.str}{f.shape}".encode())
    h.update(np.ascontiguousarray(f).tobytes())
    return h.hexdigest()


def check_execution(ex: Execution) -> tuple[list[str], str | None]:
    """Check one execution; returns (failures, digest of the final f).

    The execution must reach the schedule's end, or the step its last
    leg drains at.
    """
    from repro.io.snapshot import read_checkpoint

    wl = ex.workload
    failures: list[str] = []
    steps = wl.legs[-1].max_steps or wl.n_steps
    if len(ex.legs) != len(wl.legs):
        failures.append(f"ran {len(ex.legs)} of {len(wl.legs)} legs")
    for leg in ex.legs:
        if leg.timed_out:
            failures.append(f"{leg.command}: timed out")
        elif leg.exit_code != leg.expect_exit:
            failures.append(f"{leg.command}: exit {leg.exit_code}, "
                            f"expected {leg.expect_exit} (log {leg.log.name})")
    if failures:
        return failures, None

    manifest = json.loads((ex.run_dir / "run.json").read_text())
    if manifest.get("last_step") != steps:
        failures.append(f"run.json last_step {manifest.get('last_step')} != {steps}")

    digest = None
    ck = ex.run_dir / "checkpoints" / f"ck_{steps:08d}.npz"
    try:
        _grid, f, _particles, header = read_checkpoint(ck)
    except Exception as exc:  # any unreadable checkpoint fails the run
        failures.append(f"final checkpoint {ck.name}: {type(exc).__name__}: {exc}")
    else:
        if "checksums" not in header:
            failures.append(f"final checkpoint {ck.name} carries no CRCs")
        if header.get("step") != steps:
            failures.append(f"final checkpoint step {header.get('step')} != {steps}")
        if f.shape != tuple(wl.config["grid"]["nx"]) + tuple(wl.config["grid"]["nu"]):
            failures.append(f"final f has shape {f.shape}")
        elif not np.isfinite(f).all():
            failures.append("final f is not finite")
        else:
            digest = f_digest(f)

    records, events = read_stream(ex.telemetry)
    seen = [r["step"] for r in records]
    if seen != list(range(1, steps + 1)):
        failures.append(f"telemetry steps are not 1..{steps} without gaps "
                        f"({len(seen)} records)")
    bound = wl.config.get("guards", {}).get("max_mass_drift", DEFAULT_MAX_MASS_DRIFT)
    for r in records:
        for report in r["guards"]:
            if report["policy"] not in ("off", "warn"):
                failures.append(f"step {r['step']}: {report['policy']} guard "
                                f"report: {report['message']}")
        drift = r["drifts"].get(wl.mass_key, {}).get("drift")
        if drift is None or not drift <= bound:
            failures.append(f"step {r['step']}: {wl.mass_key} drift {drift} "
                            f"outside the guard bound {bound}")
            break

    kinds = sorted({e["event"] for e in events} & FORBIDDEN_EVENTS)
    if kinds:
        failures.append(f"telemetry carries {', '.join(kinds)} events")
    closed = [e for e in events if e["event"] == "diagnostics_closed"]
    if len(closed) != len(ex.legs):
        failures.append(f"{len(closed)} diagnostics_closed events for "
                        f"{len(ex.legs)} legs")
    for key in ("dropped", "errors"):
        total = sum(e.get(key, 0) for e in closed)
        if total:
            failures.append(f"diagnostics {key} = {total}")
    products = _product_steps(ex.run_dir / "diagnostics")
    expected = wl.expected_products(steps)
    if len(products) != expected:
        failures.append(f"{len(products)} diagnostics products, expected {expected}")
    missing = [s for s in products
               if not (ex.run_dir / "diagnostics" / f"snap_{s:08d}" / "manifest.json").exists()]
    if missing:
        failures.append(f"diagnostics snapshots missing for steps {missing[:3]}")
    return failures, digest


def _product_steps(diag_dir: Path) -> list[int]:
    from repro.serve.pipeline import read_products

    return [int(r["step"]) for r in read_products(diag_dir)]


def check_reference(digest: str | None, reference: str | None, name: str) -> list[str]:
    """The final f must be bitwise equal to the reference workload's."""
    if digest is None or reference is None:
        return [f"no final-f digest to compare against {name}"]
    if digest != reference:
        return [f"final f differs bitwise from {name} "
                f"({digest[:12]} != {reference[:12]})"]
    return []
