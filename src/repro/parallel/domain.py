"""Real-transport 3-D domain decomposition: the ``DomainEngine``.

This is the production promotion of the virtual layout in
:mod:`repro.parallel.vmpi`: the spatial grid is partitioned into 3-D
blocks (paper §5.1.3 — velocity space is never split), each block is
pinned to a **persistent worker process** that holds its subdomain in
``multiprocessing.shared_memory`` across *all* steps, and halo exchange
is a direct shared-memory read of the neighbors' ghost slabs into a
padded block (see :mod:`repro.parallel.workers`).  Unlike
:class:`repro.perf.pencil.PencilEngine`, nothing is scattered or
gathered per sweep: the distribution function lives in the workers'
segments for the lifetime of the run, and the parent only gathers when
someone actually asks for the full array (checkpoints, diagnostics) —
the ``gather_count`` counter makes that observable and the benchmarks
assert it stays zero across steps.

Bitwise identity with the serial solver is a hard invariant, inherited
from two empirically pinned facts (asserted by the test suite):

* a padded block sweep equals the serial sweep exactly while every
  shift stays **below one cell** — the engine checks each spatial
  sweep's max shift and falls back to a gather → host sweep → scatter
  for the rare sweep at CFL >= 1 (``domain_cfl_fallback``); velocity
  kicks never cross block boundaries and have no cap;
* per-cell velocity moments are block-local (§5.1.3), so the density
  mesh assembled from worker slabs is the serial one bit for bit — and
  the field solve runs on the parent from that mesh, with the serial
  spectral backend, so the accelerations are the serial ones too.

On one node the paper's halo and FFT-transpose latency hiding has
nothing to hide: a halo is a shared-memory copy, and the mesh FFT is
well under 1% of a step, so neither is overlapped or distributed here.

Supervision: a dead or wedged worker tears the fleet down and retries
on fresh processes (the parent-owned segments survive, so the
current-role buffers are the recovery state — SIGKILL loses no data);
an exhausted retry budget
degrades permanently down the ladder **domain → pencil(threads) →
serial**, finishing the step host-side from the gathered state.  All
segments register with this module's atexit leak sweep.
"""

from __future__ import annotations

import atexit
import time
from contextlib import nullcontext
from typing import TYPE_CHECKING

import numpy as np

from ..core.advection import SCHEMES, advect
from ..core.mesh import PhaseSpaceGrid
from ..core.vlasov import _AXIS_NAMES, VlasovSolver
from ..perf.arena import ScratchArena
from ..perf.pencil import PencilEngine, _available_cores, _emit
from .decomposition import BlockDecomposition
from .exchange import required_ghost
from .vmpi import MessageRecord
from .workers import WorkerSpec, worker_main

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..diagnostics.timers import StepTimer

__all__ = ["DomainEngine", "DomainSolverAdapter", "DomainWorkerError"]

#: Spatial shifts must stay strictly below one cell for block sweeps to
#: be bitwise-identical to serial (integer part of the departure shift
#: crosses block seams otherwise).
_CFL_LIMIT = 1.0


# -- shared-memory leak guard ------------------------------------------------
#
# Every segment the engine creates is registered here and deregistered on
# the normal release path; whatever is still registered when the process
# exits (crash mid-step, exception between create and release) is
# unlinked by the atexit hook.  Without this, a SIGKILL'd run leaves
# /dev/shm blocks behind until reboot.

_LIVE_SEGMENTS: dict[int, object] = {}


def _register_segment(shm) -> None:
    _LIVE_SEGMENTS[id(shm)] = shm


def _release_segment(shm) -> None:
    """Close + unlink one segment, tolerating partial prior cleanup."""
    _LIVE_SEGMENTS.pop(id(shm), None)
    try:
        shm.close()
    except BufferError:  # a view still alive; unlink still detaches the name
        pass
    try:
        shm.unlink()
    except FileNotFoundError:
        pass


@atexit.register
def _cleanup_leaked_segments() -> None:  # pragma: no cover - exit path
    for shm in list(_LIVE_SEGMENTS.values()):
        _release_segment(shm)


class DomainWorkerError(RuntimeError):
    """A domain worker died, answered garbage, or timed out."""


def _auto_topology(nx: tuple[int, ...], n_workers: int) -> tuple[int, ...]:
    """Factor ``n_workers`` over the spatial axes, longest-first.

    Greedy: each prime factor of ``n_workers`` (largest first) goes to
    the axis with the most cells per current block — the same heuristic
    a human uses filling in Table 2's (n_x, n_y, n_z).
    """
    factors = []
    n = max(1, int(n_workers))
    p = 2
    while p * p <= n:
        while n % p == 0:
            factors.append(p)
            n //= p
        p += 1
    if n > 1:
        factors.append(n)
    topo = [1] * len(nx)
    for f in sorted(factors, reverse=True):
        ax = max(range(len(nx)), key=lambda d: nx[d] / topo[d])
        topo[ax] *= f
    return tuple(topo)


class _FaultPool:
    """Pool facade handed to ``FaultPlan.worker_fault``.

    The chaos harness calls ``pool.submit(_kill_self)`` /
    ``pool.submit(_occupy, seconds)``; here a submit becomes a
    fire-and-forget ``"call"`` command to one worker, round-robin.
    """

    def __init__(self, engine: "DomainEngine") -> None:
        self._engine = engine

    def submit(self, fn, *args) -> None:
        self._engine._inject_call(fn, args)


class DomainEngine:
    """Persistent-worker spatial domain decomposition (see module doc).

    Parameters
    ----------
    topology:
        Workers per spatial axis, e.g. ``(2, 2, 1)``; ``None`` factors
        ``n_workers`` automatically over the grid's axes at bind time.
    n_workers:
        Worker count when ``topology`` is ``None`` (default: available
        cores, capped at 4 — domain workers hold whole subdomains, they
        are not cheap threads).
    max_retries / backoff_base / task_timeout:
        Supervision budget: fleet respawns before degrading, the first
        backoff delay [s] (doubled per retry), and the wall-clock budget
        [s] of one command round (``None`` waits forever).
    """

    #: duck-typing marker for the drivers (no import needed there)
    is_domain_engine = True

    def __init__(
        self,
        topology: tuple[int, ...] | None = None,
        n_workers: int | None = None,
        max_retries: int = 2,
        backoff_base: float = 0.05,
        task_timeout: float | None = None,
    ) -> None:
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if n_workers is not None and n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.topology = tuple(int(p) for p in topology) if topology else None
        if self.topology is not None and any(p < 1 for p in self.topology):
            raise ValueError("topology entries must be >= 1")
        self.n_workers = n_workers
        self.max_retries = int(max_retries)
        self.backoff_base = float(backoff_base)
        self.task_timeout = task_timeout

        #: chaos-harness injection point, called as ``hook(self, pool)``
        #: before each sweep (see :class:`_FaultPool`).
        self.fault_hook = None
        self.timer: "StepTimer | None" = None

        # supervision / residency counters (observable by tests & bench)
        self.retries = 0
        self.degradations: list[str] = []
        self.degraded = False
        self.gather_count = 0
        self.scatter_count = 0
        self.cfl_fallbacks = 0
        self.halo_bytes = 0
        #: per-message halo accounting, same records the VirtualComm
        #: logs — the vmpi parity test diffs the two.
        self.halo_log: list[MessageRecord] = []

        # bound geometry (set by bind)
        self.grid: PhaseSpaceGrid | None = None
        self.scheme = ""
        self.velocity_bc = "zero"
        self.ghost = 0
        self.decomp: BlockDecomposition | None = None

        # runtime state
        self._cur = 0  # role index of the current-f segments
        self._host: np.ndarray | None = None
        self._host_dirty = False  # host has writes the segments lack
        self._host_stale = False  # segments have writes the host lacks
        self._host_tmp: np.ndarray | None = None
        self._segments: dict[str, object] = {}
        self._seg_names: list[tuple[str, str]] = []
        self._mesh_names: dict[str, str] = {}
        self._procs: list = []
        self._conns: list = []
        self._victim = 0
        self._started = False
        self._arena = ScratchArena()

    # -- binding --------------------------------------------------------

    @property
    def size(self) -> int:
        """Worker count (1 before bind when topology is automatic)."""
        if self.decomp is not None:
            return self.decomp.size
        if self.topology is not None:
            return int(np.prod(self.topology))
        return self.n_workers or 1

    def bind(
        self,
        grid: PhaseSpaceGrid,
        scheme: str,
        timer: "StepTimer | None" = None,
        velocity_bc: str = "zero",
    ) -> None:
        """Fix the engine to one grid geometry (idempotent per geometry).

        Rebinding to a different grid/scheme tears everything down first;
        rebinding to the same one only refreshes ``timer``.
        """
        if scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {scheme!r}")
        if self.grid == grid and self.scheme == scheme \
                and self.velocity_bc == velocity_bc:
            self.timer = timer
            return
        if self.grid is not None:
            self.close()
        topo = self.topology
        if topo is None:
            workers = self.n_workers or min(_available_cores(), 4)
            topo = _auto_topology(grid.nx, workers)
        if len(topo) != grid.dim:
            raise ValueError(
                f"topology {topo} does not match grid dimension {grid.dim}"
            )
        ghost = required_ghost(scheme, 0.0)  # block sweeps run at CFL < 1
        decomp = BlockDecomposition(grid.nx, topo)
        for d in range(grid.dim):
            if topo[d] == 1:
                continue
            thinnest = grid.nx[d] // topo[d]
            if thinnest < ghost:
                raise ValueError(
                    f"axis {d}: {topo[d]} blocks over {grid.nx[d]} cells "
                    f"leaves {thinnest} < ghost width {ghost}; "
                    "use fewer workers or a larger mesh"
                )
        self.grid = grid
        self.scheme = scheme
        self.velocity_bc = velocity_bc
        self.timer = timer
        self.ghost = ghost
        self.decomp = decomp
        self.topology = topo

    def set_host(self, host: np.ndarray, dirty: bool = True) -> None:
        """Point the engine at the adapter's host mirror of f."""
        self._host = host
        if dirty:
            self._host_dirty = True
            self._host_stale = False

    # -- segments & workers ---------------------------------------------

    def _create_segment(self, nbytes: int):
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(create=True, size=max(1, nbytes))
        _register_segment(shm)
        self._segments[shm.name] = shm
        return shm

    def _ensure_segments(self) -> None:
        if self._seg_names:
            return
        grid, decomp = self.grid, self.decomp
        nu_cells = int(np.prod(grid.nu, dtype=np.int64))
        itemsize = np.dtype(grid.dtype).itemsize
        for r in range(decomp.size):
            cells = int(np.prod(decomp.local_shape(r), dtype=np.int64))
            nbytes = cells * nu_cells * itemsize
            self._seg_names.append(
                (self._create_segment(nbytes).name,
                 self._create_segment(nbytes).name)
            )
        nx_cells = int(np.prod(grid.nx, dtype=np.int64))
        self._mesh_names = {
            "rho": self._create_segment(nx_cells * 8).name,
            "accel": self._create_segment(grid.dim * nx_cells * 8).name,
        }

    def _view(self, name: str, shape, dtype) -> np.ndarray:
        return np.ndarray(shape, dtype=dtype, buffer=self._segments[name].buf)

    def _block_view(self, rank: int, role: int) -> np.ndarray:
        shape = self.decomp.local_shape(rank) + self.grid.nu
        return self._view(self._seg_names[rank][role], shape, self.grid.dtype)

    def _worker_spec(self, rank: int) -> WorkerSpec:
        decomp, grid = self.decomp, self.grid
        return WorkerSpec(
            rank=rank,
            grid=grid,
            scheme=self.scheme,
            ghost=self.ghost,
            seg_names=tuple(self._seg_names),
            block_shapes=tuple(
                decomp.local_shape(r) for r in range(decomp.size)
            ),
            own_bounds=tuple(
                (sl.start, sl.stop) for sl in decomp.local_slice(rank)
            ),
            neighbors=tuple(
                (decomp.neighbor(rank, d, -1), decomp.neighbor(rank, d, +1))
                for d in range(grid.dim)
            ),
            rho_name=self._mesh_names["rho"],
            accel_name=self._mesh_names["accel"],
        )

    def _ensure_workers(self) -> None:
        if self._procs:
            return
        import multiprocessing as mp

        ctx = mp.get_context(
            "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        )
        procs, conns = [], []
        for r in range(self.decomp.size):
            parent, child = ctx.Pipe()
            proc = ctx.Process(
                target=worker_main, args=(child, self._worker_spec(r)),
                daemon=True, name=f"domain-{r}",
            )
            proc.start()
            child.close()
            procs.append(proc)
            conns.append(parent)
        self._procs, self._conns = procs, conns
        self._round([("ping",)] * len(procs))
        if not self._started:
            self._started = True
            _emit(
                "domain_started",
                topology=list(self.topology), workers=len(procs),
                ghost=self.ghost,
            )

    def _ensure_ready(self) -> None:
        if self.degraded:
            raise DomainWorkerError("engine is permanently degraded")
        if self.grid is None:
            raise RuntimeError("DomainEngine.bind() was never called")
        self._ensure_segments()
        self._ensure_workers()
        if self._host_dirty:
            for r in range(self.decomp.size):
                self._block_view(r, self._cur)[...] = \
                    self._host[self.decomp.local_slice(r)]
            self._host_dirty = False
            self._host_stale = False
            self.scatter_count += 1
            _emit("domain_scatter", nbytes=int(self._host.nbytes))

    def _teardown_workers(self, graceful: bool = False) -> None:
        procs, self._procs = self._procs, []
        conns, self._conns = self._conns, []
        for conn in conns:
            if graceful:
                try:
                    conn.send(("close",))
                except (BrokenPipeError, OSError):
                    pass
            try:
                conn.close()
            except OSError:  # pragma: no cover - already gone
                pass
        for proc in procs:
            proc.join(timeout=0.5 if graceful else 0.0)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=1.0)

    def _release_segments(self) -> None:
        for shm in list(self._segments.values()):
            _release_segment(shm)
        self._segments.clear()
        self._seg_names = []
        self._mesh_names = {}

    def close(self) -> None:
        """Stop workers and unlink segments (engine stays re-bindable)."""
        had_workers = bool(self._procs)
        self._teardown_workers(graceful=True)
        self._release_segments()
        if had_workers:
            _emit("domain_closed")
        self.grid = None
        self.decomp = None
        self.scheme = ""
        self._started = False

    def __enter__(self) -> "DomainEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing
        try:
            self._teardown_workers()
            self._release_segments()
        except Exception:
            pass

    # -- command rounds --------------------------------------------------

    def _round(self, payloads: list) -> list:
        """Send one command per worker, collect every reply (a barrier)."""
        conns = self._conns
        if len(conns) != len(payloads):
            raise DomainWorkerError("worker fleet is down")
        try:
            for conn, payload in zip(conns, payloads):
                conn.send(payload)
        except (BrokenPipeError, OSError) as exc:
            raise DomainWorkerError(f"send failed: {exc!r}") from exc
        deadline = None if self.task_timeout is None \
            else time.monotonic() + self.task_timeout
        replies = []
        for r, conn in enumerate(conns):
            try:
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not conn.poll(remaining):
                        raise DomainWorkerError(
                            f"worker {r} timed out after {self.task_timeout}s"
                        )
                status, value = conn.recv()
            except (EOFError, OSError) as exc:
                raise DomainWorkerError(f"worker {r} died: {exc!r}") from exc
            if status != "ok":
                raise DomainWorkerError(f"worker {r} failed:\n{value}")
            replies.append(value)
        return replies

    def _supervised_round(self, payloads: list) -> list:
        """A command round under the retry → degrade supervision policy.

        Worker death tears the fleet down and retries on fresh processes
        (segments survive — the current-role buffers are authoritative);
        an exhausted budget degrades the engine permanently, after
        syncing the host mirror from the surviving segments, and
        re-raises for the caller's fallback path.
        """
        delay = self.backoff_base
        for attempt in range(self.max_retries + 1):
            try:
                self._ensure_ready()
                return self._round(payloads)
            except DomainWorkerError as exc:
                if self.degraded:
                    raise
                self.retries += 1
                self._teardown_workers()
                _emit(
                    "domain_worker_failure",
                    attempt=attempt, error=repr(exc),
                )
                if attempt >= self.max_retries:
                    self._permanent_degrade(repr(exc))
                    raise
                time.sleep(delay)
                delay *= 2.0
        raise AssertionError("unreachable")  # pragma: no cover

    def _permanent_degrade(self, reason: str) -> None:
        if self.degraded:
            return
        # the parent created the segments: they outlive any worker death,
        # so the current-role blocks are intact recovery state (unless the
        # host mirror is the newer of the two — then it already wins)
        if self._host is not None and self._seg_names and not self._host_dirty:
            self._gather_into_host()
            self._host_stale = False
        self.degradations.append("domain")
        self.degraded = True
        _emit(
            "domain_degraded",
            from_engine="domain", to_backend="pencil-threads", reason=reason,
        )
        self._teardown_workers()
        self._release_segments()

    def _inject_call(self, fn, args) -> None:
        if not self._conns:
            return
        r = self._victim % len(self._conns)
        self._victim += 1
        try:
            self._conns[r].send(("call", fn, args))
        except (BrokenPipeError, OSError):  # pragma: no cover - racing death
            pass

    def make_fallback_engine(self) -> PencilEngine:
        """Next rung of the ladder: a threads PencilEngine (then serial)."""
        return PencilEngine(
            n_workers=self.size, backend="threads",
            task_timeout=self.task_timeout,
        )

    # -- host mirror ----------------------------------------------------

    def _gather_into_host(self) -> None:
        for r in range(self.decomp.size):
            self._host[self.decomp.local_slice(r)] = \
                self._block_view(r, self._cur)

    def refresh_host(self) -> None:
        """Gather worker state into the host mirror if it is stale."""
        if self.degraded or self._host_stale is False or self._host_dirty:
            return
        self._gather_into_host()
        self._host_stale = False
        self.gather_count += 1
        _emit("domain_gather", nbytes=int(self._host.nbytes), reason="host")

    def mark_host_dirty(self) -> None:
        """Host mirror was mutated in place (fault injection, IC load)."""
        self._host_dirty = True
        self._host_stale = False

    # -- sweeps ----------------------------------------------------------

    def run_sweeps(self, items: list[dict], accel: np.ndarray | None) -> int:
        """Run directional sweeps on the workers; return how many fully
        completed.  A shortfall means the engine degraded mid-plan — the
        current f is then in the host mirror and the adapter finishes
        the remaining items there (bitwise, only slower)."""
        if self.degraded:
            return 0
        try:
            self._ensure_ready()
            if accel is not None:
                self._view(
                    self._mesh_names["accel"],
                    (self.grid.dim,) + self.grid.nx, np.float64,
                )[...] = accel
        except DomainWorkerError:
            self._permanent_degrade("fleet unavailable")
            return 0
        for k, item in enumerate(items):
            try:
                self._one_sweep(item)
            except DomainWorkerError:
                return k
        return len(items)

    def _one_sweep(self, item: dict) -> None:
        grid, decomp = self.grid, self.decomp
        d, kind = item["d"], item["kind"]
        ctx = self.timer.section(item["name"]) if self.timer is not None \
            else nullcontext()
        with ctx:
            if self.fault_hook is not None:
                self.fault_hook(self, _FaultPool(self))
            if kind == "x":
                max_u = float(np.abs(grid.u_centers(d)).max())
                if max_u * abs(item["factor"]) >= _CFL_LIMIT:
                    self._cfl_fallback(item)
                    return
            padded = kind == "x" and self.topology[d] > 1
            job = {
                "src": self._cur, "dst": 1 - self._cur,
                "kind": kind, "d": d, "axis": item["axis"],
                "factor": item["factor"], "bc": item["bc"],
                "padded": padded,
            }
            replies = self._supervised_round([("sweep", job)] * decomp.size)
            self._cur = 1 - self._cur
            self._host_stale = True
            if self.timer is not None:
                self.timer.add("domain/interior", max(r[1] for r in replies))
                if padded:
                    self.timer.add("domain/halo", max(r[0] for r in replies))
            if padded:
                self._log_halo(d)

    def _log_halo(self, d: int) -> None:
        """Account the sweep's ghost reads as the messages they replace.

        Reading the left neighbor's high slab is the message that
        neighbor would have sent rightward (``ghost+{axis}``), and
        symmetrically — identical pairs, sizes and tags to
        :func:`repro.parallel.exchange.exchange_ghosts`, which the vmpi
        parity test holds us to.  Self-sends (single block on the axis)
        are never logged, matching ``VirtualComm.sendrecv``.
        """
        grid, decomp, g = self.grid, self.decomp, self.ghost
        nu_cells = int(np.prod(grid.nu, dtype=np.int64))
        itemsize = np.dtype(grid.dtype).itemsize
        swept = 0
        for r in range(decomp.size):
            shape = decomp.local_shape(r)
            transverse = int(np.prod(shape, dtype=np.int64)) // shape[d]
            nbytes = g * transverse * nu_cells * itemsize
            left = decomp.neighbor(r, d, -1)
            right = decomp.neighbor(r, d, +1)
            self.halo_log.append(
                MessageRecord(src=left, dst=r, nbytes=nbytes, tag=f"ghost+{d}")
            )
            self.halo_log.append(
                MessageRecord(src=right, dst=r, nbytes=nbytes, tag=f"ghost-{d}")
            )
            swept += 2 * nbytes
        self.halo_bytes += swept
        _emit("domain_halo_exchange", axis=d, nbytes=swept,
              messages=2 * decomp.size)

    def _cfl_fallback(self, item: dict) -> None:
        """Gather → host sweep → scatter for a shift at or above 1 cell.

        Block sweeps are only bitwise below one cell of shift; rather
        than silently diverge, the engine pays two full-domain copies
        and runs the serial kernel.  Counted and published — a run that
        does this every step has its dt misconfigured for this engine.
        """
        self.cfl_fallbacks += 1
        self.gather_count += 1
        self.scatter_count += 1
        _emit("domain_cfl_fallback", axis=item["d"],
              factor=float(item["factor"]))
        _emit("domain_gather", nbytes=int(self._host.nbytes), reason="cfl")
        self._gather_into_host()
        u = self.grid.u_center_broadcast(item["d"])
        shift = u * item["factor"]
        if self._host_tmp is None or self._host_tmp.shape != self._host.shape \
                or self._host_tmp.dtype != self._host.dtype:
            self._host_tmp = np.empty_like(self._host)
        advect(self._host, shift, item["axis"], scheme=self.scheme,
               bc=item["bc"], out=self._host_tmp, arena=self._arena)
        self._host[...] = self._host_tmp
        for r in range(self.decomp.size):
            self._block_view(r, self._cur)[...] = \
                self._host[self.decomp.local_slice(r)]
        _emit("domain_scatter", nbytes=int(self._host.nbytes))
        self._host_stale = False

    # -- moments / guards ------------------------------------------------

    def density(self) -> np.ndarray:
        """The density mesh assembled from worker slabs (bitwise serial)."""
        self._ensure_ready()
        self._supervised_round([("density", self._cur)] * self.decomp.size)
        return np.array(
            self._view(self._mesh_names["rho"], self.grid.nx, np.float64)
        )

    def reduce_moments(self) -> dict:
        """Partial-sum reductions: ``{"mass": float, "ke": float}``.

        Summed per block then across blocks — not bitwise against the
        serial full-array ``np.sum`` (pairwise order differs), but exact
        to the ledger's drift tolerances; f itself is never touched.
        """
        self._ensure_ready()
        replies = self._supervised_round(
            [("reduce", self._cur)] * self.decomp.size
        )
        grid = self.grid
        mass = sum(r["mass"] for r in replies) * grid.cell_volume
        ke = 0.0
        for d in range(grid.dim):
            ke += sum(r["ke"][d] for r in replies)
        return {"mass": float(mass), "ke": float(0.5 * ke * grid.cell_volume)}

    def f_stats(self) -> tuple[int, float]:
        """(non-finite count, global min) of f — exact under aggregation."""
        self._ensure_ready()
        replies = self._supervised_round(
            [("stats", self._cur)] * self.decomp.size
        )
        return (
            int(sum(r[0] for r in replies)),
            float(min(r[1] for r in replies)),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DomainEngine(topology={self.topology}, "
            f"ghost={self.ghost}, degraded={self.degraded})"
        )


class DomainSolverAdapter:
    """Drop-in :class:`VlasovSolver` facade over a :class:`DomainEngine`.

    Owns a real host-side solver as (a) the lazily synced mirror of f —
    ``adapter.f`` gathers only when read, so checkpoints and diagnostics
    work while steps never pay a full-domain copy — and (b) the degraded
    executor: when the engine exhausts its supervision budget mid-plan,
    the remaining sweeps finish on the host solver with a threads
    :class:`PencilEngine` (the **domain → pencil → serial** ladder),
    computing shifts with exactly the serial solver's arithmetic so the
    answer never changes.
    """

    def __init__(
        self,
        engine: DomainEngine,
        grid: PhaseSpaceGrid,
        scheme: str = "slmpp5",
        velocity_bc: str = "zero",
        timer: "StepTimer | None" = None,
    ) -> None:
        self.engine = engine
        self.grid = grid
        self.scheme = scheme
        self.velocity_bc = velocity_bc
        self.timer = timer
        self.solver = VlasovSolver(
            grid, scheme=scheme, velocity_bc=velocity_bc, timer=timer,
        )
        engine.bind(grid, scheme, timer=timer, velocity_bc=velocity_bc)
        engine.set_host(self.solver.f, dirty=True)
        self.mode = "domain"

    # -- state ----------------------------------------------------------

    def _active(self) -> bool:
        if self.mode == "domain" and self.engine.degraded:
            self._adopt_fallback()
        return self.mode == "domain"

    def _adopt_fallback(self) -> None:
        if self.mode != "domain":
            return
        self.mode = "fallback"
        self.solver.engine = self.engine.make_fallback_engine()

    @property
    def f(self) -> np.ndarray:
        """The distribution function (gathers from the workers if stale)."""
        if self._active():
            self.engine.refresh_host()
        return self.solver.f

    @f.setter
    def f(self, value: np.ndarray) -> None:
        self.solver.f = np.asarray(value, dtype=self.grid.dtype)
        if self.mode == "domain":
            self.engine.set_host(self.solver.f, dirty=True)

    def notify_f_mutated(self) -> None:
        """The host array was mutated in place (fault injection)."""
        if self._active():
            self.engine.mark_host_dirty()

    def f_stats(self) -> tuple[int, float]:
        """(non-finite count, min) without gathering (guards hot path)."""
        if self._active():
            try:
                return self.engine.f_stats()
            except DomainWorkerError:
                self._adopt_fallback()
        f = self.f
        n_bad = int(f.size - np.count_nonzero(np.isfinite(f)))
        return (n_bad, float(f.min()))

    # -- split operators -------------------------------------------------

    def drift(self, dt_drift: float) -> None:
        """Spatial advections, z-y-x order (Eq. 5)."""
        items = [
            {
                "name": f"vlasov/drift/{_AXIS_NAMES[d]}",
                "kind": "x", "d": d,
                "axis": self.grid.spatial_axis(d),
                "factor": dt_drift / self.grid.dx[d],
                "bc": "periodic",
            }
            for d in reversed(range(self.grid.dim))
        ]
        self._run_plan(items, accel=None)

    def kick(self, accel: np.ndarray, dt_kick: float) -> None:
        """Velocity advections, x-y-z order (Eq. 5); block-local always."""
        accel = np.asarray(accel)
        if accel.shape != (self.grid.dim,) + self.grid.nx:
            raise ValueError(
                f"accel shape {accel.shape} != "
                f"{(self.grid.dim,) + self.grid.nx}"
            )
        items = [
            {
                "name": f"vlasov/kick/u{_AXIS_NAMES[d]}",
                "kind": "v", "d": d,
                "axis": self.grid.velocity_axis(d),
                "factor": dt_kick / self.grid.du[d],
                "bc": self.velocity_bc,
            }
            for d in range(self.grid.dim)
        ]
        self._run_plan(items, accel=accel)

    def strang_step(
        self, accel_first, dt_kick_first, dt_drift,
        recompute_accel, dt_kick_second,
    ) -> None:
        """One full KDK step (matches :meth:`VlasovSolver.strang_step`)."""
        self.kick(accel_first, dt_kick_first)
        self.drift(dt_drift)
        self.kick(recompute_accel(), dt_kick_second)

    def _run_plan(self, items: list[dict], accel) -> None:
        if self._active():
            done = self.engine.run_sweeps(
                items, np.asarray(accel, dtype=np.float64)
                if accel is not None else None,
            )
            items = items[done:]
            if not items:
                return
            # the engine degraded mid-plan; it has already synced f into
            # our host solver's array — finish there
            self._adopt_fallback()
        for item in items:
            self._host_sweep(item, accel)

    def _host_sweep(self, item: dict, accel) -> None:
        """One sweep on the host solver, shift arithmetic bit-for-bit the
        serial solver's (``u * (dt/dx)`` / ``a_d * (dt/du)``)."""
        d = item["d"]
        if item["kind"] == "x":
            u = self.grid.u_center_broadcast(d)
            shift = u * item["factor"]
        else:
            a_d = np.asarray(accel)[d].astype(np.float64, copy=False)
            a_d = a_d.reshape(self.grid.nx + (1,) * self.grid.dim)
            shift = a_d * item["factor"]
        self.solver._sweep(item["name"], shift, item["axis"], item["bc"])

    # -- CFL bookkeeping --------------------------------------------------

    def max_drift_cfl(self, dt_drift: float) -> float:
        """Largest spatial shift in cells (see :class:`VlasovSolver`)."""
        return max(
            self.grid.v_max * abs(dt_drift) / self.grid.dx[d]
            for d in range(self.grid.dim)
        )

    def max_kick_cfl(self, accel: np.ndarray, dt_kick: float) -> float:
        """Largest velocity shift in cells (see :class:`VlasovSolver`)."""
        accel = np.asarray(accel)
        return max(
            float(np.abs(accel[d]).max()) * abs(dt_kick) / self.grid.du[d]
            for d in range(self.grid.dim)
        )

    # -- moments ----------------------------------------------------------

    def density(self) -> np.ndarray:
        """Mass density on the spatial mesh (worker-resident, bitwise)."""
        if self._active():
            try:
                return self.engine.density()
            except DomainWorkerError:
                self._adopt_fallback()
        return self.solver.density()

    def total_mass(self) -> float:
        """Total phase-space mass (distributed partial sums)."""
        if self._active():
            try:
                return self.engine.reduce_moments()["mass"]
            except DomainWorkerError:
                self._adopt_fallback()
        return self.solver.total_mass()

    def kinetic_energy(self) -> float:
        """Kinetic energy (distributed partial sums)."""
        if self._active():
            try:
                return self.engine.reduce_moments()["ke"]
            except DomainWorkerError:
                self._adopt_fallback()
        return self.solver.kinetic_energy()
