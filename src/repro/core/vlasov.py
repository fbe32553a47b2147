"""The phase-space Vlasov solver: directional splitting of Eq. (1).

A :class:`VlasovSolver` owns the distribution function and applies the two
elementary split operators of the paper's §5.1.1:

* ``drift`` — the spatial advections of Eq. (3), speed u_i / a^2 (the
  cosmological 1/a^2 is folded into the *effective* drift time supplied by
  the caller, so the solver itself is cosmology-agnostic);
* ``kick``  — the velocity advections of Eq. (4), speed -dphi/dx_i,
  supplied as an acceleration field on the spatial mesh.

One full time step composes them in the Strang sequence of Eq. (5):
half kick, full drift, half kick — with the caller recomputing the
potential between the drift and the second half kick (KDK), which keeps
the whole Vlasov-Poisson loop second order in time while the advections
themselves are spatially 5th order and single-stage.

Thanks to the semi-Lagrangian fluxes, *no CFL restriction* applies: the
paper's neutrinos move many cells per step at high redshift.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .advection import SCHEMES, advect
from .mesh import PhaseSpaceGrid
from . import moments

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..diagnostics.timers import StepTimer
    from ..perf.arena import ScratchArena
    from ..perf.pencil import PencilEngine

#: axis letters for timer section names (vlasov/drift/x, vlasov/kick/ux, ...)
_AXIS_NAMES = "xyz"


@dataclass
class VlasovSolver:
    """Finite-volume Vlasov solver on a :class:`PhaseSpaceGrid`.

    Attributes
    ----------
    grid:
        Phase-space geometry.
    scheme:
        Advection scheme name (default the paper's ``slmpp5``).
    f:
        The distribution function, allocated zero; load initial conditions
        by assigning into it (``solver.f[...] = ...``).
    velocity_bc:
        Boundary condition along the velocity axes; the paper truncates at
        [-V, V) which is the ``zero`` (outflow) condition.
    engine:
        Optional :class:`repro.perf.pencil.PencilEngine`; when set, every
        directional sweep is pencil-sharded across its workers (bitwise
        identical to the serial path).
    timer:
        Optional :class:`repro.diagnostics.StepTimer`; when set, every
        sweep is recorded as ``vlasov/drift/x`` ... ``vlasov/kick/uz``,
        so ``timer.report()`` reproduces the paper's Fig. 7-style
        per-section breakdown.
    arena:
        Scratch-buffer pool for the serial path (created automatically);
        sweeps reuse it so steady-state stepping is allocation-free.

    The solver double-buffers f: each sweep writes into a spare array and
    swaps, so stepping allocates nothing after the first sweep.
    """

    grid: PhaseSpaceGrid
    scheme: str = "slmpp5"
    velocity_bc: str = "zero"
    engine: "PencilEngine | None" = None
    timer: "StepTimer | None" = None
    arena: "ScratchArena | None" = None
    f: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        self.f = self.grid.zeros_f()
        if self.arena is None:
            from ..perf.arena import ScratchArena

            self.arena = ScratchArena()
        self._back: np.ndarray | None = None

    # ------------------------------------------------------------------
    # split operators
    # ------------------------------------------------------------------

    def _sweep(self, name: str, shift, axis: int, bc: str) -> None:
        """One directional advection: timed, engine-aware, double-buffered."""
        if self._back is None or self._back.shape != self.f.shape \
                or self._back.dtype != self.f.dtype:
            self._back = np.empty_like(self.f)
        ctx = self.timer.section(name) if self.timer is not None else nullcontext()
        with ctx:
            if self.engine is not None:
                self.engine.advect(
                    self.f, shift, axis, scheme=self.scheme, bc=bc,
                    out=self._back,
                )
            else:
                advect(
                    self.f, shift, axis, scheme=self.scheme, bc=bc,
                    out=self._back, arena=self.arena,
                )
        self.f, self._back = self._back, self.f

    def drift(self, dt_drift: float) -> None:
        """Apply D_x D_y D_z: advect along every spatial axis.

        Parameters
        ----------
        dt_drift:
            Effective drift time; cosmological callers pass
            int dt / a(t)^2 over the step (paper's u/a^2 advection speed),
            static problems pass plain dt.

        Following Eq. (5) the drifts are applied in z, y, x order (the
        rightmost operator acts first).
        """
        for d in reversed(range(self.grid.dim)):
            u = self.grid.u_center_broadcast(d)
            shift = u * (dt_drift / self.grid.dx[d])
            self._sweep(
                f"vlasov/drift/{_AXIS_NAMES[d]}", shift,
                self.grid.spatial_axis(d), "periodic",
            )

    def kick(self, accel: np.ndarray, dt_kick: float) -> None:
        """Apply D_ux D_uy D_uz: advect along every velocity axis.

        Parameters
        ----------
        accel:
            Acceleration field -grad(phi) on the spatial mesh, shape
            ``(dim,) + grid.nx``.
        dt_kick:
            Effective kick time (int dt over the half step for
            cosmological callers).

        Applied in x, y, z order (rightmost first in Eq. 5).
        """
        accel = np.asarray(accel)
        if accel.shape != (self.grid.dim,) + self.grid.nx:
            raise ValueError(
                f"accel shape {accel.shape} != {(self.grid.dim,) + self.grid.nx}"
            )
        for d in range(self.grid.dim):
            # broadcast the spatial field over the velocity axes, keeping
            # size 1 along the advected velocity axis; the shift stays in
            # float64 — casting the acceleration to float32 storage first
            # rounds the departure points themselves (the same precision
            # leak the fluxes had), while advect already confines storage
            # precision to f
            a_d = accel[d].astype(np.float64, copy=False)
            a_d = a_d.reshape(self.grid.nx + (1,) * self.grid.dim)
            shift = a_d * (dt_kick / self.grid.du[d])
            self._sweep(
                f"vlasov/kick/u{_AXIS_NAMES[d]}", shift,
                self.grid.velocity_axis(d), self.velocity_bc,
            )

    def strang_step(
        self,
        accel_first: np.ndarray,
        dt_kick_first: float,
        dt_drift: float,
        recompute_accel,
        dt_kick_second: float,
    ) -> None:
        """One full Strang (KDK) step of Eq. (5).

        ``recompute_accel`` is a callable invoked *after* the drift with no
        arguments, returning the updated acceleration field for the second
        half kick (callers close over their Poisson solve; the density has
        changed during the drift).
        """
        self.kick(accel_first, dt_kick_first)
        self.drift(dt_drift)
        self.kick(recompute_accel(), dt_kick_second)

    # ------------------------------------------------------------------
    # CFL bookkeeping (informational: the SL scheme has no stability limit,
    # but accuracy and the splitting error still favor moderate shifts)
    # ------------------------------------------------------------------

    def max_drift_cfl(self, dt_drift: float) -> float:
        """Largest spatial shift in cells for a given effective drift time."""
        return max(
            self.grid.v_max * abs(dt_drift) / self.grid.dx[d]
            for d in range(self.grid.dim)
        )

    def max_kick_cfl(self, accel: np.ndarray, dt_kick: float) -> float:
        """Largest velocity shift in cells for a given acceleration field."""
        accel = np.asarray(accel)
        return max(
            float(np.abs(accel[d]).max()) * abs(dt_kick) / self.grid.du[d]
            for d in range(self.grid.dim)
        )

    # ------------------------------------------------------------------
    # moments (delegated; no communication by construction, §5.1.3)
    # ------------------------------------------------------------------

    def density(self) -> np.ndarray:
        """Mass density on the spatial mesh."""
        return moments.density(self.f, self.grid)

    def total_mass(self) -> float:
        """Total phase-space mass."""
        return moments.total_mass(self.f, self.grid)

    def kinetic_energy(self) -> float:
        """Kinetic energy in canonical velocity."""
        return moments.kinetic_energy(self.f, self.grid)
