"""Tests of the perf subsystem: ScratchArena and the PencilEngine.

The load-bearing property: for every scheme, both boundary conditions
and mixed-sign shift arrays, the pencil-sharded sweep is **bitwise
identical** to the serial ``advect`` — sharding happens along an axis
the advection operator does not couple, so each worker executes exactly
the serial arithmetic on its slice.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PhaseSpaceGrid, VlasovSolver
from repro.core.advection import SCHEMES, advect
from repro.diagnostics import StepTimer
from repro.parallel.decomposition import pencil_slices
from repro.perf import PencilEngine, ScratchArena

pytestmark = pytest.mark.smoke


# ---------------------------------------------------------------------------
# ScratchArena
# ---------------------------------------------------------------------------


class TestScratchArena:
    def test_reuse_same_signature(self):
        """Same key, any shape: one flat buffer, grown only by a larger
        request, always handed out C-contiguous; a repeated shape gets
        the very same view back."""
        a = ScratchArena()
        b1 = a.take("x", (4, 5), np.float32)
        b2 = a.take("x", (4, 5), np.float32)
        assert b1 is b2
        assert a.stats() == {
            "n_buffers": 1, "nbytes": 80, "hits": 1, "misses": 1,
        }
        b3 = a.take("x", (2, 3), np.float32)      # smaller: same memory
        assert np.shares_memory(b1, b3)
        assert b3.shape == (2, 3) and b3.flags.c_contiguous
        assert a.misses == 1 and a.nbytes == 80
        b4 = a.take("x", (6, 5), np.float32)      # larger: grows the buffer
        assert b4.shape == (6, 5) and b4.flags.c_contiguous
        assert not np.shares_memory(b1, b4)
        assert a.stats() == {
            "n_buffers": 1, "nbytes": 120, "hits": 2, "misses": 2,
        }
        b5 = a.take("x", (4, 5), np.float32)      # back down: no regrowth
        assert np.shares_memory(b4, b5)
        assert a.misses == 2 and a.nbytes == 120

    def test_distinct_keys_shapes_dtypes(self):
        """Distinct keys or dtypes stay distinct memory; a different shape
        under one key and dtype does not."""
        a = ScratchArena()
        x4 = a.take("x", (4,), np.float32)
        assert not np.shares_memory(x4, a.take("y", (4,), np.float32))
        assert not np.shares_memory(x4, a.take("x", (4,), np.float64))
        assert np.shares_memory(x4, a.take("x", (2, 2), np.float32))
        assert a.n_buffers == 3

    def test_changing_kick_signs_pin_a_flat_pool(self):
        """Kicks whose a(x) changes phase every step move lines between the
        positive and the mirrored branch, so the per-branch block shapes
        change; the pool still stops growing after the first steps."""
        grid = PhaseSpaceGrid(nx=(8, 8), nu=(6, 6), box_size=1.0, v_max=1.0,
                              dtype=np.float32)
        solver = VlasovSolver(grid)
        solver.f[...] = 0.5 + np.random.default_rng(3).random(solver.f.shape)
        xs = (np.arange(8) + 0.5) / 8
        X, Y = np.meshgrid(xs, xs, indexing="ij")

        def accel(phase):
            return np.stack([np.sin(2 * np.pi * X + phase) + 0.3,
                             np.cos(2 * np.pi * Y - phase) - 0.3])

        pinned, n_pos = [], set()
        for step in range(1, 7):
            a1, a2 = accel(0.9 * step), accel(0.9 * step + 0.45)
            solver.strang_step(a1, 0.05, 0.1, lambda: a2, 0.05)
            pinned.append((solver.arena.n_buffers, solver.arena.nbytes))
            n_pos |= {int((a[d] >= 0).sum()) for a in (a1, a2) for d in (0, 1)}
        assert len(n_pos) > 2  # the positive-line count really changes
        assert pinned[1:] == [pinned[1]] * 5

    def test_warm_strang_step_is_pool_served(self):
        """After one warm-up Strang step, a second step allocates nothing
        new: every scratch request (pad, stencil, flux, limiter) is an
        arena hit."""
        grid = PhaseSpaceGrid(
            nx=(8, 6), nu=(6, 8), box_size=1.0, v_max=1.0, dtype=np.float32
        )
        solver = VlasovSolver(grid)
        rng = np.random.default_rng(3)
        solver.f[...] = 0.5 + rng.random(grid.shape, dtype=np.float32)
        accel = rng.standard_normal((2,) + grid.nx)
        solver.strang_step(accel, 0.05, 0.1, lambda: accel, 0.05)  # warm
        before = solver.arena.stats()
        solver.strang_step(accel, 0.05, 0.1, lambda: accel, 0.05)
        after = solver.arena.stats()
        assert after["misses"] == before["misses"], (
            "warm Strang step allocated fresh scratch: "
            f"{after['misses'] - before['misses']} new buffers"
        )
        assert after["hits"] > before["hits"]

    def test_clear_drops_everything(self):
        a = ScratchArena()
        a.take("x", (1024,), np.float64)
        assert a.nbytes == 8192
        a.clear()
        assert a.nbytes == 0 and a.n_buffers == 0 and a.misses == 0


# ---------------------------------------------------------------------------
# pencil_slices (the shard geometry, shared with parallel.decomposition)
# ---------------------------------------------------------------------------


class TestPencilSlices:
    def test_even_partition(self):
        assert pencil_slices(12, 3) == [slice(0, 4), slice(4, 8), slice(8, 12)]

    def test_remainder_spread_front(self):
        assert pencil_slices(10, 3) == [slice(0, 4), slice(4, 7), slice(7, 10)]

    def test_parts_clipped_to_n(self):
        assert pencil_slices(2, 8) == [slice(0, 1), slice(1, 2)]

    def test_covers_axis_exactly(self):
        for n in (1, 7, 16, 33):
            for parts in (1, 2, 5, 40):
                sls = pencil_slices(n, parts)
                cells = [i for sl in sls for i in range(sl.start, sl.stop)]
                assert cells == list(range(n))

    def test_invalid(self):
        with pytest.raises(ValueError):
            pencil_slices(0, 2)
        with pytest.raises(ValueError):
            pencil_slices(4, 0)


# ---------------------------------------------------------------------------
# PencilEngine == serial advect, bitwise
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def thread_engine():
    with PencilEngine(n_workers=3, backend="threads", min_shard_bytes=0) as e:
        yield e


def _mixed_sign_case(seed: int = 7):
    rng = np.random.default_rng(seed)
    f = (0.5 + rng.random((12, 10, 16))).astype(np.float32)
    shift = rng.uniform(-3.3, 3.3, size=(12, 10, 1)).astype(np.float32)
    assert (shift > 0).any() and (shift < 0).any()
    return f, shift


class TestEngineBitwiseEquality:
    @pytest.mark.parametrize("bc", ["periodic", "zero"])
    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    def test_all_schemes_both_bcs_mixed_sign(self, thread_engine, scheme, bc):
        f, shift = _mixed_sign_case()
        ref = advect(f, shift, 2, scheme=scheme, bc=bc)
        got = thread_engine.advect(f, shift, 2, scheme=scheme, bc=bc)
        assert thread_engine.last_plan["n_pencils"] >= 2
        assert got.tobytes() == ref.tobytes()

    @given(
        seed=st.integers(0, 2**31 - 1),
        axis=st.integers(0, 2),
        workers=st.integers(2, 5),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_random_axis_and_worker_count(self, seed, axis, workers):
        rng = np.random.default_rng(seed)
        f = (0.5 + rng.random((9, 8, 11))).astype(np.float32)
        sh_shape = [9, 8, 11]
        sh_shape[axis] = 1
        shift = rng.uniform(-2.5, 2.5, size=sh_shape).astype(np.float32)
        ref = advect(f, shift, axis, scheme="slmpp5", bc="periodic")
        with PencilEngine(n_workers=workers, min_shard_bytes=0) as eng:
            got = eng.advect(f, shift, axis, scheme="slmpp5", bc="periodic")
        assert got.tobytes() == ref.tobytes()

    def test_scalar_shift_and_out_buffer(self, thread_engine):
        f, _ = _mixed_sign_case(3)
        ref = advect(f, 1.8, 1, scheme="slp5")
        buf = np.empty_like(f)
        got = thread_engine.advect(f, 1.8, 1, scheme="slp5", out=buf)
        assert got is buf
        assert got.tobytes() == ref.tobytes()


class TestEnginePlanning:
    def test_picks_longest_non_advected_axis(self):
        assert PencilEngine.pick_shard_axis((4, 32, 8), axis=1) == 2
        assert PencilEngine.pick_shard_axis((32, 16, 8), axis=1) == 0
        # tie favors the leading (spatial) axis
        assert PencilEngine.pick_shard_axis((16, 8, 16), axis=2) == 0
        # nothing shardable on a 1-D problem
        assert PencilEngine.pick_shard_axis((64,), axis=0) is None

    def test_small_arrays_fall_back_to_serial(self):
        eng = PencilEngine(n_workers=4, min_shard_bytes=1 << 30)
        f, shift = _mixed_sign_case()
        ref = advect(f, shift, 2, scheme="slmpp5")
        got = eng.advect(f, shift, 2, scheme="slmpp5")
        assert eng.last_plan is None
        assert got.tobytes() == ref.tobytes()

    def test_explicit_shard_axis(self, thread_engine):
        f, shift = _mixed_sign_case()
        ref = advect(f, shift, 2, scheme="slmpp5")
        got = thread_engine.advect(f, shift, 2, scheme="slmpp5", shard_axis=1)
        assert thread_engine.last_plan["shard_axis"] == 1
        assert got.tobytes() == ref.tobytes()

    def test_shard_along_advected_axis_rejected(self, thread_engine):
        f, shift = _mixed_sign_case()
        with pytest.raises(ValueError, match="advected axis"):
            thread_engine.advect(f, shift, 2, shard_axis=2)

    def test_bad_backend_and_worker_count(self):
        with pytest.raises(ValueError):
            PencilEngine(backend="gpu")
        with pytest.raises(ValueError):
            PencilEngine(n_workers=0)
        with pytest.raises(ValueError):
            PencilEngine(pencils_per_worker=0)

    def test_unknown_scheme_rejected(self, thread_engine):
        with pytest.raises(ValueError, match="unknown scheme"):
            thread_engine.advect(np.ones((4, 8), np.float32), 0.5, 1, scheme="nope")


# ---------------------------------------------------------------------------
# Solver integration: engine-driven Strang stepping
# ---------------------------------------------------------------------------


class TestSolverIntegration:
    def test_strang_step_bitwise_and_timed(self):
        grid = PhaseSpaceGrid(nx=(16, 8), nu=(12, 10), box_size=1.0, v_max=4.0)
        rng = np.random.default_rng(3)
        ic = (0.5 + rng.random(grid.shape)).astype(np.float32)
        accel = rng.standard_normal((2,) + grid.nx)

        serial = VlasovSolver(grid)
        serial.f[...] = ic
        timer = StepTimer()
        with PencilEngine(n_workers=3, min_shard_bytes=0) as eng:
            sharded = VlasovSolver(grid, engine=eng, timer=timer)
            sharded.f[...] = ic
            for s in (serial, sharded):
                s.strang_step(accel, 0.03, 0.06, lambda: accel, 0.03)
        assert sharded.f.tobytes() == serial.f.tobytes()
        # per-sweep sections for the Fig. 7-style breakdown
        for name in ("vlasov/drift/x", "vlasov/drift/y",
                     "vlasov/kick/ux", "vlasov/kick/uy"):
            expected = 1 if "drift" in name else 2  # KDK: two half kicks
            assert timer.sections[name].count == expected

    def test_repeated_steps_allocation_free(self):
        grid = PhaseSpaceGrid(nx=(12,), nu=(16,), box_size=1.0, v_max=3.0)
        solver = VlasovSolver(grid)
        solver.f[...] = 0.5
        solver.drift(0.04)
        solver.drift(0.04)
        misses = solver.arena.misses
        for _ in range(3):
            solver.drift(0.04)
        assert solver.arena.misses == misses  # steady state: pure reuse
