"""End-to-end benchmark of ``repro run``, with a per-layer traced run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (``perfbench/workloads.py``): ``vlasov6d-serial``,
``vlasov6d-domain``, ``hybrid-pm``, ``plasma1d-restart``; ``all`` runs
the four in turn.  ``BENCHMARK.json`` lists ``vlasov6d-domain`` and
``hybrid-pm``: ``vlasov6d-serial`` still runs, checked but untimed, as
the bitwise reference of every ``vlasov6d-domain`` invocation, and the
tiny steps of ``plasma1d-restart`` follow the host's speed (its median
step time drifted by up to 50% within minutes on a shared 2-core host,
more than any bound allows).

``--trace 0`` measures the end-to-end metrics with tracing off.  Each
execution launches the real CLI in fresh processes, one at a time, and
is timed from outside (see ``launch.py``).  Executions repeat until
``--seconds`` have passed and at least three are done; every metric is
the median over the executions.  Every execution is checked
(``checks.py``): a wrong exit code, a timeout or a failed output check
fails it, and ``vlasov6d-domain``'s final ``f`` must match the digest
of ``vlasov6d-serial``'s for the same seed (computed untimed, then
cached under ``perfbench/.work/refs`` per seed and source version).

``--trace 1`` runs one untraced and one traced execution, prints the
per-layer self-time table, writes the traced spans as Chrome
trace-event JSON, and reports the per-layer metrics plus the tracing
overhead (the relative drop of ``cell_updates_per_s`` under tracing).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full
result, with the host/code fingerprint, lands in
``perfbench/.work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import statistics
import sys
import time
import uuid
from pathlib import Path

import checks
import launch
import provenance
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
#: Hard wall-clock budget of one invocation [s]; legs still running at
#: this point are killed and fail the run.
RUN_BUDGET_S = 170.0
#: Executions per invocation at the least.  On a 2-core host shared with
#: other jobs, the wall time of single executions spread by up to 25%
#: over ten seeds; a median of three shrugs off one disturbed execution.
MIN_EXECUTIONS = 3

E2E_UNITS = {
    "tts_s": "s",
    "setup_s": "s",
    "cell_updates_per_s": "1/s",
    "step_s_p50": "s",
    "peak_rss_mb": "MB",
}
#: Printed and saved with the result, but not BENCHMARK.json metrics:
#: the per-step tail exists only where one execution yields enough steps
#: that at least ten samples lie beyond the 90th percentile, and the
#: first step's warm-up is a difference of two noisy step times.
INFORMATIONAL = {"step_s_p90": "s", "first_step_excess_s": "s"}
P90_MIN_STEPS = 100


class Tally:
    """Executions attempted and failed, with the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[tuple[str, list[str]]] = []

    def record(self, label: str, failures: list[str]) -> bool:
        self.attempted += 1
        if failures:
            self.failures.append((label, failures))
            for reason in failures:
                print(f"FAILED {label}: {reason}", file=sys.stderr)
        return not failures

    @property
    def failed(self) -> int:
        return len(self.failures)


def end_to_end(ex) -> dict:
    """One checked execution's end-to-end numbers.

    Set-up is launch -> start of the first step (interpreter start,
    imports, IC build, engine construction): the moment the first
    telemetry step record lands, less that step's own wall time.  Cell
    updates per second divide by the time after set-up, so the first
    step's warm-up (plans, arena fill, lazy worker start), checkpoints
    and the final drain all count; the warm-up is also reported on its
    own, against the median of the later steps.
    """
    wl = ex.workload
    walls = [r["wall_s"] for r in checks.read_stream(ex.telemetry)[0]]
    setup = ex.legs[0].first_record_s - walls[0]
    out = {
        "tts_s": ex.tts_s,
        "setup_s": setup,
        "cell_updates_per_s": wl.cell_updates / (ex.tts_s - setup),
        "step_s_p50": statistics.median(walls),
        "peak_rss_mb": max(leg.peak_rss_mb for leg in ex.legs),
    }
    if len(walls) > 1:
        out["first_step_excess_s"] = walls[0] - statistics.median(walls[1:])
    if len(walls) >= P90_MIN_STEPS:
        out["step_s_p90"] = statistics.quantiles(walls, n=10)[8]
    return out


class Harness:
    """Executes and checks runs of one workload, keeping the tally.

    ``work`` holds the run directories and the cache of reference
    digests (the final-f digest of a reference workload for one seed and
    one version of the sources).
    """

    def __init__(self, workload, deadline: float, work: Path = WORK) -> None:
        self.workload = workload
        self.deadline = deadline
        self.work = work
        self.tally = Tally()
        self.serial = 0
        self.reference_digest: str | None = None

    def run(self, workload, label: str, traced: bool = False, run_id: str = ""):
        """Execute and check; returns the execution, or None if it failed."""
        self.serial += 1
        run_dir = self.work / "runs" / f"{self.serial:02d}-{label}"
        ex = launch.execute(workload, ROOT, run_dir, self.deadline,
                            traced=traced, run_id=run_id)
        failures, digest = checks.check_execution(ex)
        if workload.reference and not failures:
            failures += checks.check_reference(digest, self.reference_digest,
                                               workload.reference)
        if not self.tally.record(label, failures):
            return None
        if workload.name in REFERENCED:
            path = self._reference_path(workload)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps({"workload": workload.name,
                                        "seed": workload.seed,
                                        "digest": digest}) + "\n")
        ex.digest = digest
        return ex

    def ensure_reference(self) -> None:
        """Load (or compute, untimed) the reference digest for this seed."""
        if not self.workload.reference:
            return
        ref = workloads.build(self.workload.reference, self.workload.seed)
        cached = self._reference_path(ref)
        if not cached.exists():
            self.run(ref, "reference")
        if cached.exists():
            self.reference_digest = json.loads(cached.read_text())["digest"]

    def _reference_path(self, workload) -> Path:
        blob = (json.dumps(workload.config, sort_keys=True)
                + provenance.source_digest(ROOT))
        key = hashlib.sha256(blob.encode()).hexdigest()[:32]
        return self.work / "refs" / f"{workload.name}-{key}.json"


#: Workloads whose final f other workloads must reproduce bitwise.
REFERENCED = frozenset(workloads.REFERENCE_OF.values())


def measure(h: Harness, seconds: float) -> dict:
    """End-to-end metrics: medians over the executions of one invocation.

    Executions repeat until ``seconds`` have passed and at least
    :data:`MIN_EXECUTIONS` are done, but none starts that would overrun
    the invocation's budget.  Peak RSS is a median too: on the kinetic
    workloads it lands on one of two levels from launch to launch.
    """
    wl = h.workload
    runs: list[dict] = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        ex = h.run(wl, "main")
        if ex is None:
            break
        runs.append(end_to_end(ex))
        took = time.monotonic() - t0
        if time.monotonic() + took > h.deadline:
            break
        if len(runs) >= MIN_EXECUTIONS and time.monotonic() - start >= seconds:
            break
    if not runs:
        return {}
    out = {name: statistics.median(r[name] for r in runs)
           for name in (*E2E_UNITS, *INFORMATIONAL) if name in runs[0]}
    out["samples"] = {"executions": len(runs), "steps_per_execution": wl.n_steps}
    return out


# ----------------------------------------------------------------------
# the traced run
# ----------------------------------------------------------------------

PER_LAYER_UNITS = {
    "runtime.advance_s": "s", "runtime.orchestration_frac": "ratio",
    "runtime.guard_s": "s", "runtime.telemetry_s": "s", "runtime.ledger_s": "s",
    "runtime.build_stepper_s": "s", "runtime.build_engine_s": "s",
    "core.drift_s": "s", "core.kick_s": "s", "core.sweeps": "count",
    "core.sweep_cells_per_s": "1/s", "core.sweep_bytes_computed": "B",
    "gravity.solve_s": "s", "gravity.solves": "count",
    "fft.transforms": "count", "fft.plans": "count",
    "nbody.force_s": "s", "nbody.deposit_s": "s", "nbody.push_s": "s",
    "domain.advect_s": "s", "domain.interior_s": "s", "domain.boundary_s": "s",
    "domain.halo_s": "s", "domain.fft_s": "s", "domain.halo_bytes": "B",
    "domain.halo_exchanges": "count", "domain.gathers": "count",
    "domain.scatters": "count", "domain.cfl_fallbacks": "count",
    "domain.degradations": "count", "domain.spawn_s": "s",
    "io.checkpoints": "count", "io.checkpoint_s_p50": "s",
    "io.bytes_written": "B", "io.write_mbps": "MB/s", "io.resume_s": "s",
    "serve.submit_s": "s", "serve.store_s": "s", "serve.products": "count",
    "serve.dropped": "count", "serve.errors": "count",
    "tracing.overhead_frac": "ratio",
    **{f"self.{layer}_s": "s" for layer in (*tracing.LAYERS, tracing.UNACCOUNTED)},
}


def layer_metrics(ex, legs: list[dict], overhead: float) -> tuple[dict, dict]:
    """(per-layer metrics, self-time table) of one traced execution."""
    from repro.runtime.telemetry import summarize

    spans = [s for leg in legs for s in leg["spans"]]

    def named(name):
        return [s for s in spans if s[2] == name]

    def dur(name):
        return sum(s[4] - s[3] for s in named(name)) / 1e9

    def attr(name, key):
        return sum((s[6] or {}).get(key, 0) for s in named(name))

    gravity_top = []
    for leg in legs:
        names = {s[0]: s[2] for s in leg["spans"]}
        gravity_top += [s for s in leg["spans"]
                        if s[2] == "gravity.solve" and names.get(s[1]) != "gravity.solve"]
    sweep_s = dur("core.advect") + dur("parallel.advect")
    sweep_cells = attr("core.advect", "cells") + attr("parallel.advect", "cells")
    ck = sorted(s[4] - s[3] for s in named("io.checkpoint"))
    ck_bytes = attr("io.checkpoint", "bytes")
    domain = summarize(ex.telemetry).get("domain") or {}
    sections = domain.get("section_seconds", {})
    closed = [e for e in checks.read_stream(ex.telemetry)[1] if e["event"] == "diagnostics_closed"]
    m = {
        "runtime.advance_s": dur("runtime.advance"),
        "runtime.orchestration_frac": 1.0 - dur("runtime.advance") / dur("runtime.run"),
        "runtime.guard_s": dur("runtime.guard"),
        "runtime.telemetry_s": dur("runtime.telemetry"),
        "runtime.ledger_s": dur("runtime.ledger"),
        "runtime.build_stepper_s": dur("runtime.build_stepper"),
        "runtime.build_engine_s": dur("runtime.build_engine"),
        "core.drift_s": dur("core.drift"),
        "core.kick_s": dur("core.kick"),
        "core.sweeps": len(named("core.advect")) + attr("parallel.advect", "sweeps"),
        "core.sweep_cells_per_s": sweep_cells / sweep_s if sweep_s else 0.0,
        "core.sweep_bytes_computed": attr("core.advect", "bytes")
        + attr("parallel.advect", "bytes"),
        "gravity.solve_s": sum(s[4] - s[3] for s in gravity_top) / 1e9,
        "gravity.solves": len(gravity_top),
        "fft.transforms": sum(leg["fft"]["n_forward"] + leg["fft"]["n_inverse"]
                              for leg in legs),
        "fft.plans": sum(leg["fft"]["n_plans"] for leg in legs),
        "nbody.force_s": dur("nbody.force"),
        "nbody.deposit_s": dur("nbody.deposit"),
        "nbody.push_s": dur("nbody.push"),
        "domain.advect_s": dur("parallel.advect"),
        "domain.interior_s": sections.get("interior", 0.0),
        "domain.boundary_s": sections.get("boundary", 0.0),
        "domain.halo_s": sections.get("halo", 0.0),
        "domain.fft_s": sections.get("fft", 0.0),
        "domain.halo_bytes": domain.get("halo_bytes", 0),
        "domain.halo_exchanges": domain.get("halo_exchanges", 0),
        "domain.gathers": domain.get("gathers", 0),
        "domain.scatters": domain.get("scatters", 0),
        "domain.cfl_fallbacks": domain.get("cfl_fallbacks", 0),
        "domain.degradations": domain.get("degradations", 0),
        "domain.spawn_s": dur("parallel.spawn"),
        "io.checkpoints": len(ck),
        "io.checkpoint_s_p50": statistics.median(ck) / 1e9 if ck else 0.0,
        "io.bytes_written": ck_bytes,
        "io.write_mbps": ck_bytes / dur("io.checkpoint") / 1e6 if ck else 0.0,
        "io.resume_s": dur("io.resume"),
        "serve.submit_s": dur("serve.submit"),
        "serve.store_s": dur("serve.store"),
        "serve.products": sum(e.get("written", 0) for e in closed),
        "serve.dropped": sum(e.get("dropped", 0) for e in closed),
        "serve.errors": sum(e.get("errors", 0) for e in closed),
        "tracing.overhead_frac": overhead,
    }
    table = dict.fromkeys((*tracing.LAYERS, tracing.UNACCOUNTED), 0.0)
    for leg in legs:
        for layer, seconds in tracing.self_times(leg["spans"], leg["main_thread"]).items():
            table[layer] += seconds
    m.update({f"self.{layer}_s": seconds for layer, seconds in table.items()})
    return m, table


def print_self_times(table: dict) -> None:
    wall = sum(table.values())
    print(f"{'layer':<12} {'self_s':>10} {'share':>7}")
    for layer in (*tracing.LAYERS, tracing.UNACCOUNTED):
        seconds = table.get(layer, 0.0)
        print(f"{layer:<12} {seconds:10.4f} {seconds / wall:7.1%}")
    print(f"{'wall':<12} {wall:10.4f} {1:7.1%}  (traced leg wall, rows + unaccounted)")


def traced(h: Harness, trace_dir: Path = WORK / "traces") -> dict:
    """Per-layer metrics: one untraced and one traced execution."""
    wl = h.workload
    plain = h.run(wl, "untraced")
    if plain is None:
        return {}
    base = end_to_end(plain)
    run_id = uuid.uuid4().hex[:16]
    ex = h.run(wl, "traced", traced=True, run_id=run_id)
    if ex is None:
        return {}
    legs = [json.loads(p.read_text()) for p in ex.spans_files]
    e2e = end_to_end(ex)
    plain_rate, traced_rate = base["cell_updates_per_s"], e2e["cell_updates_per_s"]
    metrics, table = layer_metrics(ex, legs, (plain_rate - traced_rate) / plain_rate)
    print_self_times(table)
    trace_path = trace_dir / f"{wl.name}-seed{wl.seed}-{run_id}.json"
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    trace_path.write_text(json.dumps(tracing.chrome_trace(legs)))
    print(f"chrome trace: {trace_path}")
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Measure one workload, print its table, save its record."""
    started = time.monotonic()
    shutil.rmtree(WORK / "runs", ignore_errors=True)
    workload = workloads.build(name, seed)
    h = Harness(workload, started + RUN_BUDGET_S)
    h.ensure_reference()
    if trace:
        values, units = traced(h), PER_LAYER_UNITS
    else:
        values, units = measure(h, seconds), E2E_UNITS
    missing = [metric for metric in units if metric not in values]
    if missing and not h.tally.failed:
        h.tally.record("metrics", [f"not measured: {', '.join(missing)}"])
    metrics = {metric: {"value": values.get(metric, 0.0), "unit": unit}
               for metric, unit in units.items()}
    result = {
        "correct": h.tally.failed == 0,
        "attempted": h.tally.attempted,
        "failed": h.tally.failed,
        "metrics": metrics,
    }
    fp = provenance.fingerprint(ROOT, launch.child_env(ROOT), name, seed)
    print(f"provenance: {json.dumps(fp, sort_keys=True)}")
    print(f"workload {name} seed {seed}: ic {workload.ic}, "
          f"{workload.cells} cells x {workload.n_steps} steps, "
          f"{h.tally.failed} failed of {h.tally.attempted} attempted")
    for metric, row in metrics.items():
        print(f"  {metric:<28} {row['value']:>16.6g} {row['unit']}")
    informational = {k: values[k] for k in INFORMATIONAL if k in values}
    for metric, value in informational.items():
        print(f"  {metric:<28} {value:>16.6g} {INFORMATIONAL[metric]}  (informational)")
    record = {**result, "provenance": fp, "trace": trace,
              "samples": values.get("samples"), "ic": workload.ic,
              "informational": informational,
              "failures": h.tally.failures, "elapsed_s": time.monotonic() - started}
    out = WORK / "results" / f"{name}-seed{seed}-trace{trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=2) + "\n")
    return result


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=5.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
        print(json.dumps(result))
        return 0
    # every workload in turn: one table per workload, then the roll-up
    results = {name: run_workload(name, args.seed, args.seconds, args.trace)
               for name in workloads.NAMES}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}/{metric}": row for name, r in results.items()
                    for metric, row in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
