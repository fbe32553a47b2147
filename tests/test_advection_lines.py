"""One upwind branch per line: the mixed-sign sweep against its reference.

Under directional splitting every 1-D line of a sweep carries one
constant shift, so ``interface_flux`` partitions the lines by sign and
runs only the branch each line needs.  The reference below is the
whole-array formulation it replaced — both branches over every line,
then a mask select — kept here verbatim so the partitioned kernel can be
checked against it bit for bit across every scheme, boundary condition,
dtype, shift shape and arena a sweep can reach.  A second case checks
the two integer-shift lookups against each other: the roll path a
uniform ``k`` takes and the gather path a varying ``k`` takes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import advection
from repro.core.advection import SCHEMES, advect
from repro.perf import ScratchArena

pytestmark = pytest.mark.smoke

#: non-advected extents plus the advected length used throughout
FSHAPE = (8, 6, 4, 10)


def _reference_interface_flux(fw, sh, spec, arena=None):
    """The mask-select formulation: both branches on the whole array."""
    any_neg = bool(np.any(sh < 0.0))
    any_pos = bool(np.any(sh > 0.0))
    if not any_neg:
        return advection._flux_positive(fw, sh, spec, None, "pos")
    if not any_pos:
        return advection._mirror_flux(fw, sh, spec, None)
    pos_mask = sh >= 0.0
    f_pos = advection._flux_positive(
        fw, np.where(pos_mask, sh, 0.0), spec, None, "pos"
    )
    f_neg = advection._mirror_flux(fw, np.where(pos_mask, 0.0, sh), spec, None)
    mix = np.empty(
        np.broadcast_shapes(f_pos.shape, f_neg.shape, pos_mask.shape),
        dtype=f_pos.dtype,
    )
    mix[...] = f_neg
    np.copyto(mix, f_pos, where=pos_mask)
    return mix


def _profile_shape(axis: int, varying: tuple[int, ...]) -> tuple[int, ...]:
    """Shift shape: FSHAPE's extent on ``varying`` axes, 1 elsewhere."""
    return tuple(
        FSHAPE[d] if d in varying and d != axis else 1 for d in range(len(FSHAPE))
    )


def _shift(kind: str, axis: int, rng: np.random.Generator):
    """(f shape, shift) for one shift family."""
    others = [d for d in range(len(FSHAPE)) if d != axis]
    n = FSHAPE[axis]
    if kind == "drift":
        # varies along one non-advected axis, symmetric like u-centers
        shape = _profile_shape(axis, (others[1],))
        vals = np.linspace(-1.7, 1.7, FSHAPE[others[1]])
        return FSHAPE, vals.reshape(shape)
    if kind == "kick":
        # two varying axes, random signs, |shift| beyond the axis length
        shape = _profile_shape(axis, (others[0], others[2]))
        mag = rng.uniform(0.0, 2.5 * n, size=shape)
        return FSHAPE, mag * rng.choice([-1.0, 1.0], size=shape)
    if kind == "zero_lines":
        shape = _profile_shape(axis, (others[0], others[1]))
        sh = rng.uniform(-1.5, 1.5, size=shape)
        sh.reshape(-1)[::3] = 0.0
        sh.reshape(-1)[1] = -0.0
        return FSHAPE, sh
    if kind == "all_positive":
        shape = _profile_shape(axis, (others[0], others[1]))
        return FSHAPE, rng.uniform(0.0, 2.5, size=shape)
    if kind == "all_negative":
        shape = _profile_shape(axis, (others[0], others[1]))
        return FSHAPE, -rng.uniform(0.0, 2.5, size=shape)
    if kind == "expanding":
        # f has extent 1 where the shift varies: the result broadcasts up
        fshape = tuple(1 if d == others[1] else s for d, s in enumerate(FSHAPE))
        shape = _profile_shape(axis, (others[0], others[1]))
        return fshape, rng.uniform(-2.5, 2.5, size=shape)
    raise AssertionError(kind)


SHIFT_KINDS = (
    "drift", "kick", "zero_lines", "all_positive", "all_negative", "expanding",
)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("bc", ["periodic", "zero"])
@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_matches_mask_select_reference(scheme, bc, dtype, monkeypatch):
    rng = np.random.default_rng([sorted(SCHEMES).index(scheme), bc == "zero"])
    for axis in (0, len(FSHAPE) - 1):
        for kind in SHIFT_KINDS:
            fshape, sh = _shift(kind, axis, rng)
            f = (0.1 + rng.random(fshape)).astype(dtype)
            with monkeypatch.context() as m:
                m.setattr(advection, "interface_flux", _reference_interface_flux)
                ref = advect(f, sh, axis, scheme=scheme, bc=bc)
            for arena in (None, ScratchArena()):
                got = advect(f, sh, axis, scheme=scheme, bc=bc, arena=arena)
                assert got.shape == ref.shape
                assert got.tobytes() == ref.tobytes(), (
                    f"{scheme}/{bc}/{np.dtype(dtype).name} axis {axis} "
                    f"{kind} arena={arena is not None}"
                )


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("bc", ["periodic", "zero"])
@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_roll_path_matches_gather_path(scheme, bc, dtype):
    """A uniform integer shift takes the roll path, a varying one the
    gather path; the lines both fields share must come out bitwise equal.

    Every line's shift has integer part 1 (the fractional part varies,
    so the limiters see distinct alphas).  Raising one line's shift by
    two cells makes ``k`` vary and sends the whole sweep down the gather
    path; every other line is untouched and must not change by a bit.
    """
    rng = np.random.default_rng([sorted(SCHEMES).index(scheme), bc == "zero"])
    for axis in (0, len(FSHAPE) - 1):
        f = (0.1 + rng.random(FSHAPE)).astype(dtype)
        shape = _profile_shape(axis, tuple(range(len(FSHAPE))))
        uniform = 1.0 + 0.9 * rng.random(shape)
        varied = uniform.copy()
        varied.reshape(-1)[0] += 2.0
        for arena in (None, ScratchArena()):
            roll = advect(f, uniform, axis, scheme=scheme, bc=bc, arena=arena)
            gather = advect(f, varied, axis, scheme=scheme, bc=bc, arena=arena)
            keep = np.moveaxis(uniform == varied, axis, -1)[..., 0]
            assert 0 < np.count_nonzero(keep) < keep.size
            mine, theirs = (
                np.moveaxis(g, axis, -1)[keep] for g in (roll, gather)
            )
            assert mine.tobytes() == theirs.tobytes(), (
                f"{scheme}/{bc}/{np.dtype(dtype).name} axis {axis} "
                f"arena={arena is not None}"
            )


@pytest.mark.parametrize("bc", ["periodic", "zero"])
@pytest.mark.parametrize("kind", ["drift", "kick", "zero_lines"])
def test_each_line_takes_one_branch(kind, bc, monkeypatch):
    """One mixed sweep feeds P + (L - P) = L rows to the flux kernel, not 2L."""
    axis = len(FSHAPE) - 1
    _, sh = _shift(kind, axis, np.random.default_rng(7))
    f = np.random.default_rng(8).random(FSHAPE).astype(np.float32)
    rows = []
    inner = advection._flux_positive

    def spy(fw, sh_, *args, **kwargs):
        rows.append(int(np.prod(fw.shape[:-1])))
        return inner(fw, sh_, *args, **kwargs)

    monkeypatch.setattr(advection, "_flux_positive", spy)
    advect(f, sh, axis, bc=bc, arena=ScratchArena())
    n_lines = int(np.prod(FSHAPE[:-1]))
    n_pos = int(np.count_nonzero(np.broadcast_to(sh >= 0.0, FSHAPE[:-1] + (1,))))
    assert 0 < n_pos < n_lines
    assert rows == [n_pos, n_lines - n_pos]
