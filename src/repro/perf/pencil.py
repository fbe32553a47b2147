"""Pencil-sharded multicore execution of directional SL sweeps.

The paper decomposes *physical space* across nodes and keeps velocity
space whole on every rank (§5.1.3), so each directional sweep is
embarrassingly parallel over any axis it does not advect.  The
:class:`PencilEngine` is the single-node analog: it cuts the phase-space
array into contiguous pencils along a non-advected axis (the shard
geometry of :func:`repro.parallel.decomposition.pencil_slices`) and
dispatches one serial :func:`repro.core.advection.advect` per pencil
across a worker pool.

Because the advection operator only couples cells *along* the advected
axis, pencils need no halo exchange and every worker executes exactly
the floating-point operations the serial sweep would execute on its
slice — the sharded result is **bitwise-identical** to the serial one
(a property the test suite asserts for every scheme and BC).

Backends
--------
``threads``
    ``ThreadPoolExecutor``; pencils are views of the caller's arrays
    (zero copies).  NumPy releases the GIL inside the array kernels, so
    the sweeps overlap on multicore hosts.  This is the default and the
    fast path.
``serial``
    Run in the calling thread (still arena-pooled).  The engine also
    falls back to serial when the array is too small to amortize
    dispatch (``min_shard_bytes``) or has no shardable axis.

Each worker slot owns a private :class:`~repro.perf.arena.ScratchArena`,
so steady-state sweeps are allocation-free in every worker.

Supervision
-----------
Thread pools do not lose workers; the one infrastructure failure is a
sweep that exceeds ``task_timeout``.  The engine then abandons the pool,
**degrades permanently** to ``serial``, finishes the sweep there, and
publishes an ``engine_degraded`` telemetry event.  Because both backends
execute identical floating-point operations, degradation never changes
the answer — only the wall clock.
"""

from __future__ import annotations

import os
from concurrent.futures import BrokenExecutor, ThreadPoolExecutor, wait

import numpy as np

from ..core.advection import SCHEMES, advect
from ..parallel.decomposition import pencil_slices
from .arena import ScratchArena

__all__ = ["PencilEngine", "SweepTimeout"]


class SweepTimeout(RuntimeError):
    """A sharded sweep exceeded the engine's ``task_timeout``."""


def _emit(kind: str, **fields) -> None:
    """Publish a telemetry event (lazy import; no-op outside a run)."""
    try:
        from ..runtime.telemetry import emit_event
    except Exception:  # pragma: no cover - import cycles during teardown
        return
    emit_event(kind, **fields)


def _available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


class PencilEngine:
    """Shard directional sweeps into pencils and run them concurrently.

    Parameters
    ----------
    n_workers:
        Worker pool size; defaults to the CPUs this process may run on.
    backend:
        ``"threads"`` (default) or ``"serial"``.
    pencils_per_worker:
        Pencils per worker (>1 trades dispatch overhead for load balance
        when per-pencil cost varies, e.g. kicks whose per-pencil shift
        bound, and with it the zero-BC pad, differs across pencils).
    min_shard_bytes:
        Arrays smaller than this run serially — dispatch overhead beats
        the win on small problems (see docs/PERFORMANCE.md).  Set 0 to
        force sharding (the tests do).
    task_timeout:
        Wall-clock budget [s] for one sharded sweep; ``None`` (default)
        waits forever.  Exceeding it counts as a worker failure.
    """

    def __init__(
        self,
        n_workers: int | None = None,
        backend: str = "threads",
        pencils_per_worker: int = 1,
        min_shard_bytes: int = 1 << 16,
        task_timeout: float | None = None,
    ) -> None:
        if backend not in ("threads", "serial"):
            raise ValueError(f"unknown backend {backend!r}")
        if n_workers is not None and n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if pencils_per_worker < 1:
            raise ValueError("pencils_per_worker must be >= 1")
        self.n_workers = int(n_workers) if n_workers else _available_cores()
        self.backend = backend
        self.pencils_per_worker = int(pencils_per_worker)
        self.min_shard_bytes = int(min_shard_bytes)
        self.task_timeout = task_timeout
        self._executor = None
        self._arenas: list[ScratchArena] = []
        #: plan of the most recent ``advect`` call, for tests/benchmarks:
        #: dict with backend / shard_axis / n_pencils (or None if serial).
        self.last_plan: dict | None = None
        #: cumulative supervision counters (survive degradation).
        self.retries = 0
        #: backends abandoned by supervision, in order (["threads"]).
        self.degradations: list[str] = []

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        """Shut the worker pool down (idempotent; the engine is reusable)."""
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "PencilEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing
        try:
            self.close()
        except Exception:
            pass

    def _pool(self):
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=self.n_workers, thread_name_prefix="pencil",
            )
        return self._executor

    def _arena(self, slot: int) -> ScratchArena:
        while len(self._arenas) <= slot:
            self._arenas.append(ScratchArena())
        return self._arenas[slot]

    # -- planning -------------------------------------------------------

    @staticmethod
    def pick_shard_axis(shape: tuple[int, ...], axis: int) -> int | None:
        """Longest non-advected axis (ties favor the leading — spatial —
        axes, mirroring the paper's space-only decomposition)."""
        best, best_len = None, 1
        for d, ln in enumerate(shape):
            if d == axis:
                continue
            if ln > best_len:
                best, best_len = d, ln
        return best

    def _plan(self, f: np.ndarray, sh: np.ndarray, axis: int, shard_axis):
        """Decide shard axis and pencil count; None means run serial."""
        if self.backend == "serial" or self.n_workers < 2:
            return None
        if f.nbytes < self.min_shard_bytes:
            return None
        if shard_axis is None:
            shard_axis = self.pick_shard_axis(f.shape, axis)
        else:
            shard_axis %= f.ndim
            if shard_axis == axis:
                raise ValueError("cannot shard along the advected axis")
        if shard_axis is None:
            return None
        parts = min(
            self.n_workers * self.pencils_per_worker, f.shape[shard_axis]
        )
        if parts < 2:
            return None
        return shard_axis, parts

    @staticmethod
    def _slice_shift(sh: np.ndarray, shard_axis: int, sl: slice):
        if sh.ndim and sh.shape[shard_axis] != 1:
            idx = tuple(
                sl if d == shard_axis else slice(None) for d in range(sh.ndim)
            )
            return sh[idx]
        return sh

    # -- execution ------------------------------------------------------

    def advect(
        self,
        f: np.ndarray,
        shift,
        axis: int,
        scheme: str = "slmpp5",
        bc: str = "periodic",
        out: np.ndarray | None = None,
        shard_axis: int | None = None,
    ) -> np.ndarray:
        """Sharded equivalent of :func:`repro.core.advection.advect`.

        Returns the same result, bitwise, for any scheme/BC/shift.  The
        engine requires the result shape to equal ``f.shape`` (shift
        axes of size 1 or matching f), which is the solver's case; an
        exotic broadcast falls back to the serial kernel.
        """
        if scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {scheme!r}")
        axis %= f.ndim
        sh = np.asarray(shift)
        broadcast_ok = sh.ndim == 0 or (
            sh.ndim == f.ndim
            and all(s in (1, fs) for s, fs in zip(sh.shape, f.shape))
        )
        plan = None
        if broadcast_ok:
            plan = self._plan(f, sh, axis, shard_axis)
        if plan is None:
            self.last_plan = None
            return advect(
                f, shift, axis, scheme=scheme, bc=bc, out=out,
                arena=self._arena(0),
            )
        shard, parts = plan
        slices = pencil_slices(f.shape[shard], parts)
        if out is None:
            out = np.empty_like(f)
        elif out.shape != f.shape or out.dtype != f.dtype:
            raise ValueError(
                f"out has shape {out.shape}/{out.dtype}, "
                f"engine needs {f.shape}/{f.dtype}"
            )
        self.last_plan = {
            "backend": self.backend,
            "shard_axis": shard,
            "n_pencils": len(slices),
        }
        self._run_threads(f, sh, axis, scheme, bc, out, shard, slices)
        return out

    # -- supervision ----------------------------------------------------

    def _await(self, futures) -> None:
        """Wait for a sweep's futures within budget; re-raise failures."""
        done, pending = wait(futures, timeout=self.task_timeout)
        if pending:
            for fut in pending:
                fut.cancel()
            raise SweepTimeout(
                f"{len(pending)}/{len(futures)} pencils still pending "
                f"after {self.task_timeout}s"
            )
        for fut in done:
            fut.result()  # re-raise the first worker failure

    def _teardown_pool(self) -> None:
        """Abandon the (possibly broken/stalled) pool without blocking."""
        executor, self._executor = self._executor, None
        if executor is not None:
            try:
                executor.shutdown(wait=False, cancel_futures=True)
            except Exception:  # pragma: no cover - broken-pool teardown
                pass

    def _degrade(self, reason: str) -> None:
        """Drop to serial permanently; record and publish."""
        self.degradations.append(self.backend)
        _emit(
            "engine_degraded",
            from_backend=self.backend, to_backend="serial", reason=reason,
        )
        self.backend = "serial"

    def _run_serial(self, f, sh, axis, scheme, bc, out) -> None:
        """Last-resort path: the plain serial kernel (same bits)."""
        self.last_plan = None
        advect(f, sh, axis, scheme=scheme, bc=bc, out=out,
               arena=self._arena(0))

    def _run_threads(self, f, sh, axis, scheme, bc, out, shard, slices):
        try:
            self._threads_sweep(f, sh, axis, scheme, bc, out, shard, slices)
        except (BrokenExecutor, SweepTimeout) as exc:
            # Thread pools don't lose workers; the only infra failure is
            # a stall past task_timeout — no point retrying a stall on
            # the same pool, degrade straight to serial and finish.
            self._teardown_pool()
            self.retries += 1
            _emit("worker_failure", backend="threads", error=repr(exc))
            self._degrade(repr(exc))
            self._run_serial(f, sh, axis, scheme, bc, out)

    def _threads_sweep(self, f, sh, axis, scheme, bc, out, shard, slices):
        def one(slot: int, sl: slice) -> None:
            idx = tuple(
                sl if d == shard else slice(None) for d in range(f.ndim)
            )
            advect(
                f[idx], self._slice_shift(sh, shard, sl), axis,
                scheme=scheme, bc=bc, out=out[idx], arena=self._arena(slot),
            )

        self._await([
            self._pool().submit(one, slot, sl)
            for slot, sl in enumerate(slices)
        ])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PencilEngine(backend={self.backend!r}, "
            f"n_workers={self.n_workers}, "
            f"pencils_per_worker={self.pencils_per_worker})"
        )
