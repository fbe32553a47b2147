"""Monotonicity- and positivity-preserving limiters.

Implements the MP (monotonicity-preserving) interface-value limiter of
Suresh & Huynh (1997) [paper ref. 22] adapted to the conservative
semi-Lagrangian flux of the SL-MPP5 scheme (paper §5.2, ref. [23]), plus
the explicit positivity clamp on the donated fractional mass.

All functions are shape-polymorphic and operate on the *gathered* stencil
arrays produced by :mod:`repro.core.advection` — entry ``st[m+r]`` holds
the cell average ``fbar_{j+m}`` of the donor-cell neighborhood, broadcast
over the rest of the phase-space axes.
"""

from __future__ import annotations

import numpy as np


def _take(arena, key, shape, dtype):
    """Pooled scratch when an arena is supplied, a fresh array otherwise.

    The pooled limiter paths below replay their allocating expressions
    ufunc for ufunc into these buffers — elementwise ops with identical
    inputs produce identical bits wherever they land, so pooling changes
    wall clock and allocator traffic only (the same contract as
    :mod:`repro.core.advection`'s ``_scratch``).
    """
    if arena is None:
        return np.empty(shape, dtype=dtype)
    return arena.take(key, shape, dtype)


def minmod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Two-argument minmod: the smaller-magnitude one if signs agree, else 0."""
    return 0.5 * (np.sign(a) + np.sign(b)) * np.minimum(np.abs(a), np.abs(b))


def minmod4(a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Four-argument minmod (Suresh & Huynh Eq. 2.26)."""
    sgn = 0.125 * (np.sign(a) + np.sign(b)) * np.abs(
        (np.sign(a) + np.sign(c)) * (np.sign(a) + np.sign(d))
    )
    return sgn * np.minimum(
        np.minimum(np.abs(a), np.abs(b)), np.minimum(np.abs(c), np.abs(d))
    )


def _minmod4_into(out, a, b, c, d, w1, w2, w3) -> np.ndarray:
    """:func:`minmod4` replayed into caller scratch, term for term.

    ``out``/``w1``/``w2``/``w3`` must not alias any of ``a``..``d``.
    Multiplication by the exact scalars 0.125 etc. and the commuted
    scalar products are IEEE-exact, so the result is bitwise
    :func:`minmod4`.
    """
    np.sign(a, out=w1)                      # sa
    np.sign(b, out=w2)
    np.add(w1, w2, out=w2)                  # sa + sb
    np.multiply(w2, 0.125, out=w2)          # 0.125 * (sa + sb)
    np.sign(c, out=w3)
    np.add(w1, w3, out=w3)                  # sa + sc
    np.sign(d, out=out)
    np.add(w1, out, out=out)                # sa + sd
    np.multiply(w3, out, out=w3)
    np.abs(w3, out=w3)
    np.multiply(w2, w3, out=w2)             # sgn
    np.abs(a, out=w1)
    np.abs(b, out=w3)
    np.minimum(w1, w3, out=w1)              # min(|a|, |b|)
    np.abs(c, out=w3)
    np.abs(d, out=out)
    np.minimum(w3, out, out=w3)             # min(|c|, |d|)
    np.minimum(w1, w3, out=w1)
    np.multiply(w2, w1, out=out)
    return out


def median3(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Median of three values, written as x + minmod(lo - x, hi - x)."""
    return x + minmod(lo - x, hi - x)


def mp_limit_interface(
    f_interface: np.ndarray,
    stencil: np.ndarray,
    alpha_mp: float = 4.0,
    eps: float = 0.0,
) -> np.ndarray:
    """Apply the Suresh-Huynh MP constraint to an interface value.

    The flow is rightward out of donor cell j; ``stencil`` holds the five
    cell averages ``(f_{j-2}, f_{j-1}, f_j, f_{j+1}, f_{j+2})`` stacked on
    axis 0.  ``f_interface`` is the unlimited interface (departure-interval
    average) value produced by the semi-Lagrangian reconstruction.

    Returns the limited interface value: unchanged wherever the data are
    smooth and monotone (the O(dx^5) accuracy is preserved there), clipped
    into the MP bounds near discontinuities/extrema.

    Parameters
    ----------
    f_interface:
        Unlimited interface value(s).
    stencil:
        Array of shape ``(5,) + f_interface.shape``.
    alpha_mp:
        The MP "alpha" parameter bounding the allowed overshoot relative to
        the upwind slope; Suresh & Huynh recommend 4.
    eps:
        Tolerance in the smoothness test; 0 enforces strict bounds.
    """
    if stencil.shape[0] != 5:
        raise ValueError("MP limiter needs a 5-cell stencil")
    fm2, fm1, f0, fp1, fp2 = (stencil[m] for m in range(5))

    f_mp = f0 + minmod(fp1 - f0, alpha_mp * (f0 - fm1))
    need = (f_interface - f0) * (f_interface - f_mp) > eps

    if not np.any(need):
        return f_interface

    f_min, f_max = mp_bounds(stencil, alpha_mp)
    limited = median3(f_interface, f_min, f_max)
    return np.where(need, limited, f_interface)


def mp_bounds(
    stencil: np.ndarray,
    alpha_mp: float = 4.0,
    arena=None,
    tag=("mp",),
) -> tuple[np.ndarray, np.ndarray]:
    """Suresh-Huynh MP interval [f_min, f_max] for rightward flow.

    The interval always contains the donor average ``f_j``; near smooth
    extrema the curvature terms (f_MD, f_LC) widen it so that limiting does
    not degrade the formal order of accuracy, while at discontinuities it
    collapses to the local data range.

    ``arena``/``tag`` route every temporary (about fifteen full-size
    arrays in the allocating form) through pooled scratch; the ufunc
    sequence replays the expressions below operation for operation, so
    the returned bounds are bitwise-identical either way.  The returned
    arrays live in the pool and are overwritten by the next same-tag
    call.
    """
    fm2, fm1, f0, fp1, fp2 = (stencil[m] for m in range(5))
    shape = stencil.shape[1:]
    dt = stencil.dtype
    dm = _take(arena, (*tag, "dm"), shape, dt)
    d0 = _take(arena, (*tag, "d0"), shape, dt)
    dp = _take(arena, (*tag, "dp"), shape, dt)
    ta = _take(arena, (*tag, "ta"), shape, dt)
    tb = _take(arena, (*tag, "tb"), shape, dt)
    w1 = _take(arena, (*tag, "w1"), shape, dt)
    w2 = _take(arena, (*tag, "w2"), shape, dt)
    w3 = _take(arena, (*tag, "w3"), shape, dt)
    m4p = _take(arena, (*tag, "m4p"), shape, dt)
    m4m = _take(arena, (*tag, "m4m"), shape, dt)
    ful = _take(arena, (*tag, "ful"), shape, dt)
    fmd = _take(arena, (*tag, "fmd"), shape, dt)
    flc = _take(arena, (*tag, "flc"), shape, dt)
    f_min = _take(arena, (*tag, "min"), shape, dt)
    f_max = _take(arena, (*tag, "max"), shape, dt)

    # d_m1 = fm2 - 2.0 * fm1 + f0   (and cyclic siblings)
    np.multiply(fm1, 2.0, out=w1)
    np.subtract(fm2, w1, out=dm)
    np.add(dm, f0, out=dm)
    np.multiply(f0, 2.0, out=w1)
    np.subtract(fm1, w1, out=d0)
    np.add(d0, fp1, out=d0)
    np.multiply(fp1, 2.0, out=w1)
    np.subtract(f0, w1, out=dp)
    np.add(dp, fp2, out=dp)
    # dm4_p = minmod4(4 d_0 - d_p1, 4 d_p1 - d_0, d_0, d_p1)
    np.multiply(d0, 4.0, out=ta)
    np.subtract(ta, dp, out=ta)
    np.multiply(dp, 4.0, out=tb)
    np.subtract(tb, d0, out=tb)
    _minmod4_into(m4p, ta, tb, d0, dp, w1, w2, w3)
    # dm4_m = minmod4(4 d_0 - d_m1, 4 d_m1 - d_0, d_0, d_m1)
    np.multiply(d0, 4.0, out=ta)
    np.subtract(ta, dm, out=ta)
    np.multiply(dm, 4.0, out=tb)
    np.subtract(tb, d0, out=tb)
    _minmod4_into(m4m, ta, tb, d0, dm, w1, w2, w3)

    # f_ul = f0 + alpha_mp * (f0 - fm1)
    np.subtract(f0, fm1, out=ful)
    np.multiply(ful, alpha_mp, out=ful)
    np.add(f0, ful, out=ful)
    # f_md = 0.5 * (f0 + fp1) - 0.5 * dm4_p
    np.add(f0, fp1, out=fmd)
    np.multiply(fmd, 0.5, out=fmd)
    np.multiply(m4p, 0.5, out=w1)
    np.subtract(fmd, w1, out=fmd)
    # f_lc = f0 + 0.5 * (f0 - fm1) + (4/3) * dm4_m
    np.subtract(f0, fm1, out=flc)
    np.multiply(flc, 0.5, out=flc)
    np.add(f0, flc, out=flc)
    np.multiply(m4m, 4.0 / 3.0, out=w1)
    np.add(flc, w1, out=flc)

    np.minimum(f0, fp1, out=w1)
    np.minimum(w1, fmd, out=w1)
    np.minimum(f0, ful, out=w2)
    np.minimum(w2, flc, out=w2)
    np.maximum(w1, w2, out=f_min)
    np.maximum(f0, fp1, out=w1)
    np.maximum(w1, fmd, out=w1)
    np.maximum(f0, ful, out=w2)
    np.maximum(w2, flc, out=w2)
    np.minimum(w1, w2, out=f_max)
    return f_min, f_max


def mp_limit_departure_average(
    u: np.ndarray,
    alpha: np.ndarray,
    stencil: np.ndarray,
    alpha_mp: float = 4.0,
    arena=None,
    tag="mp",
) -> np.ndarray:
    """MP limiting of the semi-Lagrangian departure-interval average.

    This is the SL-MPP constraint of the paper's scheme [23]: the
    conservative SL flux donates ``alpha * u`` from donor cell j, where
    ``u`` is the reconstruction average over the rightmost ``alpha``
    fraction of the cell.  The updated cell average is the convex
    combination

        f_i^{n+1} = (1 - alpha) * w_j + alpha * u_{j-1},
        w_j = (f_j - alpha u_j) / (1 - alpha)   (the remainder average).

    Monotonicity for *any* alpha in [0, 1] therefore follows from keeping
    ``u_j`` inside the MP interval of cell j's *right* interface and
    ``w_j`` inside the MP interval of its *left* interface (the mirrored
    bounds) — no CFL restriction, which is what lets the single-stage
    scheme run at the advective CFL of the whole step.  The two
    requirements translate into an intersection interval for u, never
    empty because u = f_j satisfies both.

    With an ``arena`` every full-size temporary lives in pooled scratch
    (the returned array too — it is overwritten by the next same-tag
    call); without one each is freshly allocated, with the same bits.
    ``u``, ``alpha`` and ``stencil`` must share one dtype (what
    :mod:`repro.core.advection` passes — alpha is cast to the working
    dtype there): every temporary is written through ``out=`` in
    ``stencil``'s dtype, so a mixed call would silently down-cast and
    raises :class:`TypeError` instead.
    """
    if stencil.shape[0] != 5:
        raise ValueError("MP limiter needs a 5-cell stencil")
    f0 = stencil[2]
    alpha = np.asarray(alpha)
    dt = stencil.dtype
    if u.dtype != dt or alpha.dtype != dt:
        raise TypeError(
            f"u ({u.dtype}), alpha ({alpha.dtype}) and stencil ({dt}) "
            "must share one dtype"
        )
    b_min, b_max = mp_bounds(stencil, alpha_mp, arena=arena, tag=(tag, "r"))
    # remainder average sits at the cell's left edge: mirrored stencil;
    # the scratch buffers are shared with the first call (same keys),
    # only the four bound outputs get distinct tags
    bm_min, bm_max = mp_bounds(
        stencil[::-1], alpha_mp, arena=arena, tag=(tag, "l")
    )
    tiny = np.asarray(1.0e-7, dtype=u.dtype)
    safe_alpha = np.maximum(alpha, tiny)   # alpha-shaped: cheap
    om_alpha = 1.0 - alpha                 # alpha-shaped: cheap
    shape = np.broadcast_shapes(b_min.shape, alpha.shape, u.shape)
    va = _take(arena, (tag, "lim_a"), shape, dt)
    vb = _take(arena, (tag, "lim_b"), shape, dt)
    vc = _take(arena, (tag, "lim_c"), shape, dt)
    vd = _take(arena, (tag, "lim_d"), shape, dt)
    # lo = maximum(b_min, (f0 - (1 - alpha) * bm_max) / safe_alpha)
    np.multiply(om_alpha, bm_max, out=va)
    np.subtract(f0, va, out=va)
    np.divide(va, safe_alpha, out=va)
    np.maximum(b_min, va, out=va)
    # hi = minimum(b_max, (f0 - (1 - alpha) * bm_min) / safe_alpha)
    np.multiply(om_alpha, bm_min, out=vb)
    np.subtract(f0, vb, out=vb)
    np.divide(vb, safe_alpha, out=vb)
    np.minimum(b_max, vb, out=vb)
    # median3(u, lo, hi) = u + minmod(lo - u, hi - u)
    np.subtract(va, u, out=va)
    np.subtract(vb, u, out=vb)
    np.sign(va, out=vc)
    np.sign(vb, out=vd)
    np.add(vc, vd, out=vc)
    np.multiply(vc, 0.5, out=vc)           # 0.5 * (sign + sign)
    np.abs(va, out=va)
    np.abs(vb, out=vb)
    np.minimum(va, vb, out=va)
    np.multiply(vc, va, out=va)
    np.add(u, va, out=va)
    return va


def positivity_clamp_fraction(
    phi: np.ndarray, donor: np.ndarray, arena=None, tag="clamp"
) -> np.ndarray:
    """Clamp the donated fractional mass into [0, donor-cell mass].

    ``phi`` is the fractional part of the semi-Lagrangian flux — the mass
    taken from the rightmost ``alpha`` of donor cell j.  Because the
    departure intervals of consecutive interfaces tile the grid exactly,
    enforcing ``0 <= phi <= fbar_j`` guarantees the updated averages stay
    non-negative for *any* CFL number (see DESIGN.md and the tests in
    ``tests/test_advection_properties.py``).  With an ``arena`` the
    bound and the result live in pooled scratch (same clip, same bits).
    """
    hi = _take(arena, (tag, "hi"), donor.shape, donor.dtype)
    np.maximum(donor, 0.0, out=hi)
    shape = np.broadcast_shapes(phi.shape, hi.shape)
    out = _take(arena, (tag, "phi"), shape, np.result_type(phi, hi))
    return np.clip(phi, 0.0, hi, out=out)


def weno_smoothness(stencil: np.ndarray) -> np.ndarray:
    """Jiang-Shu smoothness indicators of the three quadratic sub-stencils.

    Returns array of shape ``(3,) + stencil.shape[1:]``.  The nonlinear
    WENO weights are formed in :mod:`repro.core.advection`, where the
    *ideal* (linear) weights are known — in the semi-Lagrangian setting
    they depend on the shift fraction alpha.
    """
    if stencil.shape[0] != 5:
        raise ValueError("WENO-5 smoothness needs a 5-cell stencil")
    fm2, fm1, f0, fp1, fp2 = (stencil[m] for m in range(5))
    beta0 = (13.0 / 12.0) * (fm2 - 2 * fm1 + f0) ** 2 + 0.25 * (
        fm2 - 4 * fm1 + 3 * f0
    ) ** 2
    beta1 = (13.0 / 12.0) * (fm1 - 2 * f0 + fp1) ** 2 + 0.25 * (fm1 - fp1) ** 2
    beta2 = (13.0 / 12.0) * (f0 - 2 * fp1 + fp2) ** 2 + 0.25 * (
        3 * f0 - 4 * fp1 + fp2
    ) ** 2
    return np.stack([beta0, beta1, beta2])
