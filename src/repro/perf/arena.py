"""Preallocated scratch buffers for the hot advection path.

A directional semi-Lagrangian sweep allocates roughly ten large
temporaries per call — prefix sums, stencil gathers, fractional fluxes,
ghost-padded copies, the flux-difference update.  At one sweep that is
noise; at the six sweeps per Strang step times thousands of steps the
allocator (and the page-faulting of fresh memory) becomes a measurable
tax on the paper's hot loop.

:class:`ScratchArena` is a keyed pool of uninitialized work buffers.
The advection kernels request buffers by ``(key, shape, dtype)``, but
the pool holds **one flat buffer per** ``(key, dtype)``: a request
returns the leading ``prod(shape)`` elements of that buffer, reshaped
(C-contiguous, like :func:`numpy.empty`).  The buffer only grows — a
request larger than what the key holds reallocates it (a miss); every
smaller or equal request reuses it (a hit).  So the six sweep
orientations of a Strang step, whose axis-last views all have different
shapes, share one buffer set, and a kick whose positive/negative line
split changes from step to step does not pin a new set per split: the
pool's footprint is the largest request per key, flat once the workload
has made each request once.

Discipline
----------
* Buffers come back **uninitialized** (whatever the previous call left
  in them); consumers must overwrite every element they read.
* One key names **one live buffer**: a second request under the same
  key (any shape) returns the same memory, so a caller must be done
  with a buffer before it asks for its key again.  Concurrent uses
  within one computation take distinct keys.
* One arena serves **one caller at a time**.  It is deliberately not
  locked: give each worker thread/process of a
  :class:`repro.perf.pencil.PencilEngine` its own arena.
* An arena pins its high-water memory until :meth:`clear` — size it to
  the workload by simply letting the workload make its requests.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["ScratchArena"]


class ScratchArena:
    """Keyed pool of reusable uninitialized NumPy work buffers."""

    __slots__ = ("_pool", "hits", "misses")

    def __init__(self) -> None:
        #: (key, dtype) -> (flat buffer, view of the last shape handed out)
        self._pool: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
        self.hits = 0
        self.misses = 0

    def take(self, key, shape, dtype) -> np.ndarray:
        """Return a ``shape``-shaped view of the pooled buffer for ``(key, dtype)``.

        Contents are unspecified — the caller must fully overwrite.
        ``key`` is any hashable tag distinguishing concurrent uses within
        one computation; the same key with a different shape is the same
        memory.  The buffer grows (a miss) only when ``shape`` needs more
        elements than it holds; the view is C-contiguous, and a repeat of
        the previous shape returns the very same view object.
        """
        shape = tuple(shape)
        dt = np.dtype(dtype)
        size = math.prod(shape)
        slot = (key, dt)
        entry = self._pool.get(slot)
        if entry is None or entry[0].size < size:
            self.misses += 1
            flat = np.empty(size, dtype=dt)
        else:
            self.hits += 1
            flat, view = entry
            if view.shape == shape:
                return view
        view = flat[:size].reshape(shape)
        self._pool[slot] = (flat, view)
        return view

    @property
    def nbytes(self) -> int:
        """Total bytes currently pinned by the pool."""
        return sum(flat.nbytes for flat, _ in self._pool.values())

    @property
    def n_buffers(self) -> int:
        """Number of distinct pooled buffers."""
        return len(self._pool)

    def clear(self) -> None:
        """Drop every pooled buffer (and reset the hit/miss counters)."""
        self._pool.clear()
        self.hits = 0
        self.misses = 0

    def stats(self) -> dict[str, int]:
        """Pool health: buffer count, pinned bytes, hit/miss counters."""
        return {
            "n_buffers": self.n_buffers,
            "nbytes": self.nbytes,
            "hits": self.hits,
            "misses": self.misses,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ScratchArena(buffers={self.n_buffers}, "
            f"pinned={self.nbytes / 2**20:.1f} MiB, "
            f"hits={self.hits}, misses={self.misses})"
        )
