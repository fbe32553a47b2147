"""Launch the real CLI in fresh processes and time it from outside.

Every leg is a new interpreter running ``python -m repro run|resume``
(or the traced wrapper around the same CLI).  The harness observes it
only from outside: wall clock around the process, its exit code, the
``rusage`` that ``wait4`` returns for that one process tree, and the
moment its first telemetry step record lands on disk.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import Workload

#: How often the first-step watch polls telemetry.jsonl [s].
POLL_S = 0.002
#: SIGTERM -> SIGKILL grace for a leg that overran its budget [s].
KILL_GRACE_S = 5.0
#: Environment variables that would change what the program computes.
SCRUBBED_ENV = ("REPRO_FAULTS", "REPRO_SNAPSHOT_CRC")
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_MAX_THREADS", "REPRO_FFT_WORKERS")


def affinity_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def child_env(root: Path) -> dict:
    """The children's environment: the checkout's sources, capped pools."""
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["PYTHONPATH"] = str(root / "src")
    cores = str(affinity_cores())
    for key in THREAD_ENV:
        env[key] = cores
    return env


@dataclass
class LegResult:
    command: str
    expect_exit: int
    exit_code: int | None
    wall_s: float
    #: launch -> first new telemetry step record seen on disk [s]
    first_record_s: float | None
    peak_rss_mb: float
    timed_out: bool
    log: Path


@dataclass
class Execution:
    """One workload execution: every leg of it, in one run directory."""

    workload: Workload
    run_dir: Path
    legs: list[LegResult] = field(default_factory=list)
    tts_s: float = 0.0
    spans_files: list[Path] = field(default_factory=list)
    #: sha256 of the final f, set once the execution passed its checks
    digest: str | None = None

    @property
    def telemetry(self) -> Path:
        return self.run_dir / "telemetry.jsonl"


class _FirstStepWatch:
    """Tails telemetry.jsonl until a new per-step record appears."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self.offset = path.stat().st_size if path.exists() else 0
        self.tail = b""

    def seen(self) -> bool:
        try:
            with open(self.path, "rb") as fh:
                fh.seek(self.offset)
                data = fh.read()
        except FileNotFoundError:
            return False
        self.offset += len(data)
        lines = (self.tail + data).split(b"\n")
        self.tail = lines.pop()
        # step records serialize their keys in schema order, "step" first
        return any(line.startswith(b'{"step"') for line in lines)


def _signal_group(pgid: int, sig: int) -> None:
    try:
        os.killpg(pgid, sig)
    except ProcessLookupError:
        pass


def launch_leg(argv: list[str], env: dict, cwd: Path, log: Path,
               telemetry: Path, timeout: float, command: str,
               expect_exit: int) -> LegResult:
    """Run one process to completion; see :class:`LegResult`."""
    watch = _FirstStepWatch(telemetry)
    env = dict(env)
    with open(log, "wb") as out:
        t0 = time.monotonic()
        env["PERFBENCH_LAUNCH_NS"] = str(time.monotonic_ns())
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out,
                                stderr=subprocess.STDOUT,
                                start_new_session=True)
    # On timeout: SIGTERM the process group (the runner drains), then
    # SIGKILL it after a grace period.  Only this thread reaps the child.
    timed_out = threading.Event()

    def _expire() -> None:
        timed_out.set()
        _signal_group(proc.pid, signal.SIGTERM)

    watchdogs = [threading.Timer(timeout, _expire),
                 threading.Timer(timeout + KILL_GRACE_S, _signal_group,
                                 (proc.pid, signal.SIGKILL))]
    for timer in watchdogs:
        timer.daemon = True
        timer.start()
    first = None
    status = rusage = None
    try:
        while first is None:
            pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if watch.seen():
                first = time.monotonic() - t0
            else:
                time.sleep(POLL_S)
        if first is not None:
            _, status, rusage = os.wait4(proc.pid, 0)
        wall = time.monotonic() - t0
    finally:
        for timer in watchdogs:
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    # the process group may hold stragglers (e.g. orphaned workers)
    _signal_group(proc.pid, signal.SIGKILL)
    if first is None and watch.seen():
        first = wall
    return LegResult(
        command=command, expect_exit=expect_exit,
        exit_code=None if timed_out.is_set() else proc.returncode,
        wall_s=wall, first_record_s=first,
        # ru_maxrss of a reaped child is the largest process of its tree
        peak_rss_mb=rusage.ru_maxrss / 1024.0, timed_out=timed_out.is_set(),
        log=log,
    )


def execute(workload: Workload, root: Path, run_dir: Path, deadline: float,
            traced: bool = False, run_id: str = "") -> Execution:
    """Drive every leg of ``workload`` in a fresh ``run_dir``."""
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.parent.mkdir(parents=True, exist_ok=True)
    config_path = run_dir.parent / f"{run_dir.name}.config.json"
    config_path.write_text(json.dumps(workload.config, indent=2))
    env = child_env(root)
    ex = Execution(workload, run_dir)
    for k, leg in enumerate(workload.legs):
        if leg.command == "run":
            cli = ["run", str(config_path), "--run-dir", str(run_dir)]
        else:
            cli = ["resume", str(run_dir)]
        if leg.max_steps is not None:
            cli += ["--max-steps", str(leg.max_steps)]
        if traced:
            spans = run_dir.parent / f"{run_dir.name}.spans{k}.json"
            ex.spans_files.append(spans)
            argv = [sys.executable, str(Path(__file__).with_name("traced_main.py")),
                    "--spans", str(spans), "--run-id", run_id, "--", *cli]
        else:
            argv = [sys.executable, "-m", "repro", *cli]
        timeout = deadline - time.monotonic()
        if timeout <= 0:
            break
        result = launch_leg(argv, env, root, run_dir.parent / f"{run_dir.name}.leg{k}.log",
                            ex.telemetry, timeout, leg.command, leg.expect_exit)
        ex.legs.append(result)
        ex.tts_s += result.wall_s
        if result.exit_code != leg.expect_exit:
            break
    return ex
