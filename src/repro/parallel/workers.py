"""Persistent domain-decomposition worker processes (paper §5 layout).

One worker per spatial block, alive for the whole run: the block's slab
of the distribution function lives in two ``multiprocessing.shared_memory``
segments (the double buffer of :class:`repro.core.vlasov.VlasovSolver`,
made cross-process), and every command from the parent addresses those
segments by *role* index — the worker itself is stateless about which
buffer currently holds f, so a killed-and-respawned worker resumes from
the untouched current-role segment without any re-scatter.

A sweep along a partitioned spatial axis copies the two ``ghost``-wide
boundary slabs straight out of the neighbor blocks' shared segments into
a padded block, advects that, and keeps the center — the halo exchange
of the paper's §5.1.3, done as a shared-memory copy.  On one node that
copy is cheaper than the interior sweep, so there is no latency to hide
behind it and it is not overlapped.  The result is bitwise-identical to
the serial sweep as long as every shift stays below one cell — the
engine enforces that CFL cap and gathers to the host for the rare sweep
that exceeds it.

Everything here must stay importable under the ``spawn`` start method:
module-level functions only, specs picklable.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass

import numpy as np

from ..core.advection import advect
from ..core.mesh import PhaseSpaceGrid
from ..perf.arena import ScratchArena

__all__ = ["WorkerSpec", "worker_main"]


def _attach_shm(name: str):
    from multiprocessing import shared_memory

    try:  # Python >= 3.13: don't double-register with the resource tracker
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # pragma: no cover - older interpreters
        return shared_memory.SharedMemory(name=name)


@dataclass(frozen=True)
class WorkerSpec:
    """Everything one worker needs to attach and serve (picklable).

    ``seg_names`` / ``block_shapes`` cover *all* ranks: halo exchange
    reads the neighbors' current-role segments directly, so every worker
    can attach every block segment (attachment is an mmap, not a copy).
    """

    rank: int
    grid: PhaseSpaceGrid
    scheme: str
    ghost: int
    #: per-rank (role-0 name, role-1 name) block segments
    seg_names: tuple[tuple[str, str], ...]
    #: per-rank spatial block shape (trailing velocity axes are grid.nu)
    block_shapes: tuple[tuple[int, ...], ...]
    #: this rank's (start, stop) per spatial axis in the global mesh
    own_bounds: tuple[tuple[int, int], ...]
    #: this rank's (left, right) neighbor rank per spatial axis
    neighbors: tuple[tuple[int, int], ...]
    rho_name: str
    accel_name: str


class _WorkerState:
    """Attached segments, cached views and scratch arena of one worker."""

    def __init__(self, spec: WorkerSpec) -> None:
        self.spec = spec
        self.grid = spec.grid
        self.arena = ScratchArena()
        self._shm: dict[str, object] = {}
        self._views: dict = {}

    def _segment(self, name: str):
        shm = self._shm.get(name)
        if shm is None:
            shm = self._shm[name] = _attach_shm(name)
        return shm

    def block(self, rank: int, role: int) -> np.ndarray:
        key = ("block", rank, role)
        view = self._views.get(key)
        if view is None:
            shape = self.spec.block_shapes[rank] + self.grid.nu
            shm = self._segment(self.spec.seg_names[rank][role])
            view = np.ndarray(shape, dtype=self.grid.dtype, buffer=shm.buf)
            self._views[key] = view
        return view

    def mesh(self, name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        key = ("mesh", name)
        view = self._views.get(key)
        if view is None:
            shm = self._segment(name)
            view = np.ndarray(shape, dtype=dtype, buffer=shm.buf)
            self._views[key] = view
        return view

    def close(self) -> None:
        self._views.clear()
        for shm in self._shm.values():
            try:
                shm.close()
            except BufferError:  # pragma: no cover - view teardown order
                pass
        self._shm.clear()


def _ax(ndim: int, axis: int, sl: slice) -> tuple:
    """Index tuple slicing ``sl`` along ``axis`` only."""
    return tuple(sl if d == axis else slice(None) for d in range(ndim))


# -- sweep ------------------------------------------------------------------


def _shift_for(state: _WorkerState, job: dict) -> np.ndarray:
    """The advection shift, computed exactly as the serial solver does.

    Drift: ``u_center_broadcast(d) * (dt/dx_d)`` — identical on every
    rank (velocity space is never decomposed).  Kick: the block's slab of
    the float64 acceleration mesh times ``dt/du_d``; an elementwise
    product of a slab equals the slab of the product, so the bits match
    the serial full-mesh shift row for row.
    """
    grid, d, factor = state.grid, job["d"], job["factor"]
    if job["kind"] == "x":
        return grid.u_center_broadcast(d) * factor
    accel = state.mesh(
        state.spec.accel_name, (grid.dim,) + grid.nx, np.float64
    )
    own = tuple(slice(lo, hi) for lo, hi in state.spec.own_bounds)
    a_d = np.ascontiguousarray(accel[d][own])
    a_d = a_d.reshape(a_d.shape + (1,) * grid.dim)
    return a_d * factor


def _sweep(state: _WorkerState, job: dict) -> tuple:
    """One directional advection of the local block.

    Returns ``(halo_seconds, interior_seconds)``: the ghost-slab copy
    (zero unless ``job["padded"]``) and the advection itself.
    """
    spec = state.spec
    cur = state.block(spec.rank, job["src"])
    dst = state.block(spec.rank, job["dst"])
    axis, g = job["axis"], spec.ghost
    shift = _shift_for(state, job)

    if not job["padded"]:
        t0 = time.perf_counter()
        advect(cur, shift, axis, scheme=spec.scheme, bc=job["bc"],
               out=dst, arena=state.arena)
        return (0.0, time.perf_counter() - t0)

    # partitioned spatial axis: assemble the padded slab from the
    # neighbors' boundary layers, advect it, copy the center back.
    ndim = cur.ndim
    n = cur.shape[axis]
    left, right = spec.neighbors[job["d"]]
    nbr_l = state.block(left, job["src"])
    nbr_r = state.block(right, job["src"])
    n_l = nbr_l.shape[axis]
    t0 = time.perf_counter()
    pshape = list(cur.shape)
    pshape[axis] = n + 2 * g
    padded = state.arena.take(("worker", "pad"), pshape, cur.dtype)
    padded[_ax(ndim, axis, slice(0, g))] = \
        nbr_l[_ax(ndim, axis, slice(n_l - g, n_l))]
    padded[_ax(ndim, axis, slice(g, g + n))] = cur
    padded[_ax(ndim, axis, slice(g + n, g + n + g))] = \
        nbr_r[_ax(ndim, axis, slice(0, g))]
    t1 = time.perf_counter()
    out = state.arena.take(("worker", "pad_out"), pshape, cur.dtype)
    advect(padded, shift, axis, scheme=spec.scheme, bc="periodic",
           out=out, arena=state.arena)
    dst[...] = out[_ax(ndim, axis, slice(g, g + n))]
    return (t1 - t0, time.perf_counter() - t1)


# -- moments / guards -------------------------------------------------------


def _density(state: _WorkerState, role: int) -> None:
    """Write this block's density slab into the shared rho mesh.

    Velocity space is whole on every rank (§5.1.3), so the per-cell
    reduction is the serial one exactly — bitwise — on the block's cells.
    """
    grid = state.spec.grid
    blk = state.block(state.spec.rank, role)
    rho = state.mesh(state.spec.rho_name, grid.nx, np.float64)
    own = tuple(slice(lo, hi) for lo, hi in state.spec.own_bounds)
    vel_axes = tuple(range(grid.dim, 2 * grid.dim))
    rho[own] = blk.sum(axis=vel_axes, dtype=np.float64) * grid.cell_volume_u


def _reduce(state: _WorkerState, role: int) -> dict:
    """Partial sums for the conserved-quantity ledger (mass, kinetic)."""
    grid = state.spec.grid
    blk = state.block(state.spec.rank, role)
    ke = []
    for d in range(grid.dim):
        u = grid.u_center_broadcast(d).astype(np.float64)
        ke.append(float((blk * u**2).sum(dtype=np.float64)))
    return {"mass": float(blk.sum(dtype=np.float64)), "ke": ke}


def _stats(state: _WorkerState, role: int) -> tuple:
    """(non-finite count, min) of the block — exact under aggregation."""
    blk = state.block(state.spec.rank, role)
    n_bad = int(blk.size - np.count_nonzero(np.isfinite(blk)))
    return (n_bad, float(blk.min()))


# -- main loop --------------------------------------------------------------


def worker_main(conn, spec: WorkerSpec) -> None:
    """Serve commands over ``conn`` until 'close' or EOF.

    Protocol: every command gets exactly one ``("ok", value)`` or
    ``("err", traceback)`` reply, except ``"call"`` (fire-and-forget —
    the chaos harness injects ``_kill_self`` through it, which never
    returns) and ``"close"``.
    """
    state = _WorkerState(spec)
    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            cmd = msg[0]
            if cmd == "close":
                break
            if cmd == "call":
                fn, args = msg[1], msg[2]
                try:
                    fn(*args)
                except Exception:  # pragma: no cover - injected faults
                    pass
                continue
            try:
                if cmd == "sweep":
                    value = _sweep(state, msg[1])
                elif cmd == "density":
                    value = _density(state, msg[1])
                elif cmd == "reduce":
                    value = _reduce(state, msg[1])
                elif cmd == "stats":
                    value = _stats(state, msg[1])
                elif cmd == "ping":
                    value = {"rank": spec.rank}
                else:
                    raise ValueError(f"unknown command {cmd!r}")
                reply = ("ok", value)
            except Exception:
                reply = ("err", traceback.format_exc())
            try:
                conn.send(reply)
            except (BrokenPipeError, OSError):  # pragma: no cover
                break
    finally:
        state.close()
        try:
            conn.close()
        except OSError:  # pragma: no cover - teardown
            pass
