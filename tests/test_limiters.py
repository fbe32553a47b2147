"""MP limiter machinery: minmod, bounds, departure-average limiting."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.limiters import (
    median3,
    minmod,
    minmod4,
    mp_bounds,
    mp_limit_departure_average,
    mp_limit_interface,
    positivity_clamp_fraction,
    weno_smoothness,
)

finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


class TestMinmod:
    @given(finite, finite)
    def test_minmod_properties(self, a, b):
        m = float(minmod(np.float64(a), np.float64(b)))
        if a == 0.0 or b == 0.0 or np.sign(a) != np.sign(b):
            assert m == 0.0
        else:
            assert abs(m) == pytest.approx(min(abs(a), abs(b)))
            assert np.sign(m) == np.sign(a)

    def test_minmod4_zero_on_sign_disagreement(self):
        assert minmod4(
            np.float64(1.0), np.float64(-1.0), np.float64(2.0), np.float64(3.0)
        ) == 0.0

    def test_minmod4_takes_smallest(self):
        m = minmod4(np.float64(3.0), np.float64(1.0), np.float64(2.0), np.float64(4.0))
        assert m == pytest.approx(1.0)

    @given(finite, finite, finite)
    def test_median3_is_median(self, x, lo, hi):
        # x + (lo - x) suffers catastrophic cancellation when lo ~ -x, so
        # the achievable agreement is ~eps * max magnitude
        m = float(median3(np.float64(x), np.float64(lo), np.float64(hi)))
        scale = max(abs(x), abs(lo), abs(hi), 1.0)
        assert m == pytest.approx(
            float(np.median([x, lo, hi])), abs=1e-12 * scale
        )


class TestMpBounds:
    def test_bounds_contain_donor(self, rng):
        st5 = rng.standard_normal((5, 100))
        lo, hi = mp_bounds(st5)
        assert np.all(lo <= st5[2] + 1e-12)
        assert np.all(hi >= st5[2] - 1e-12)

    def test_smooth_monotone_data_interface_untouched(self):
        # on smooth increasing data the order-5 interface value is inside
        x = np.linspace(0, 1, 9)
        f = np.sin(x)  # smooth, monotone on [0,1]
        st5 = np.stack([f[m : m + 5] for m in range(5)])  # sliding stencils? build properly
        # build canonical stencils around cells 2..4
        stencils = np.stack([f[i - 2 : i + 3] for i in range(2, 7)], axis=1)
        from repro.core.stencil import edge_value_coefficients

        coef = edge_value_coefficients(5)
        f_if = (coef[:, None] * stencils).sum(axis=0)
        limited = mp_limit_interface(f_if, stencils)
        assert np.allclose(limited, f_if)

    def test_interface_clipped_at_discontinuity(self):
        # a step: the unlimited interface value can overshoot; MP clips it
        f = np.array([0.0, 0.0, 1.0, 1.0, 1.0])
        st5 = f.reshape(5, 1)
        bad_value = np.array([1.4])
        limited = mp_limit_interface(bad_value, st5)
        assert limited[0] <= 1.0 + 1e-12


class TestDepartureAverageLimiter:
    def test_exact_at_alpha_one(self, rng):
        # at alpha = 1 the only admissible average is the donor average
        st5 = rng.standard_normal((5, 50))
        u = rng.standard_normal(50) * 10
        out = mp_limit_departure_average(u, np.float64(1.0), st5)
        assert np.allclose(out, st5[2], atol=1e-5)

    def test_identity_for_in_bounds_values(self, rng):
        st5 = np.sort(rng.standard_normal((5, 50)), axis=0)  # monotone stencils
        # donor average itself is always admissible
        f0 = st5[2]
        out = mp_limit_departure_average(f0.copy(), np.float64(0.4), st5)
        assert np.allclose(out, f0, atol=1e-10)

    @given(st.integers(0, 2**31 - 1), st.floats(0.01, 0.99))
    @settings(max_examples=50, deadline=None)
    def test_update_stays_in_mp_envelope(self, seed, alpha):
        """The defining invariant: with u_j limited, both the departure
        average and the remainder average stay inside the MP interval."""
        r = np.random.default_rng(seed)
        st5 = r.standard_normal((5, 20))
        u = r.standard_normal(20) * 5
        out = mp_limit_departure_average(u, np.float64(alpha), st5)
        f0 = st5[2]
        b_lo, b_hi = mp_bounds(st5)
        bm_lo, bm_hi = mp_bounds(st5[::-1])
        w = (f0 - alpha * out) / (1.0 - alpha)
        eps = 1e-7 * (1 + np.abs(st5).max())
        assert np.all(out >= b_lo - eps) and np.all(out <= b_hi + eps)
        assert np.all(w >= bm_lo - eps) and np.all(w <= bm_hi + eps)

    @pytest.mark.parametrize("mixed", ["u", "alpha", "stencil"])
    def test_mixed_dtypes_rejected(self, rng, mixed):
        """A mixed call would down-cast through ``out=``; it raises instead."""
        dt = {k: np.float32 for k in ("u", "alpha", "stencil")}
        dt[mixed] = np.float64
        st5 = rng.standard_normal((5, 8)).astype(dt["stencil"])
        u = rng.standard_normal(8).astype(dt["u"])
        with pytest.raises(TypeError, match="one dtype"):
            mp_limit_departure_average(u, np.asarray(0.4, dtype=dt["alpha"]), st5)


class TestPositivityClamp:
    def test_clamps_to_donor_mass(self):
        phi = np.array([-0.5, 0.3, 2.0])
        donor = np.array([1.0, 1.0, 1.0])
        out = positivity_clamp_fraction(phi, donor)
        assert np.allclose(out, [0.0, 0.3, 1.0])

    def test_negative_donor_gives_zero(self):
        out = positivity_clamp_fraction(np.array([0.5]), np.array([-1.0]))
        assert out[0] == 0.0

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_never_exceeds_donor(self, seed):
        r = np.random.default_rng(seed)
        phi = r.standard_normal(50)
        donor = np.abs(r.standard_normal(50))
        out = positivity_clamp_fraction(phi, donor)
        assert np.all(out >= 0.0)
        assert np.all(out <= donor + 1e-12)


class TestWenoSmoothness:
    def test_zero_for_constant_data(self):
        st5 = np.ones((5, 10))
        assert np.allclose(weno_smoothness(st5), 0.0)

    def test_detects_discontinuity(self):
        smooth = np.linspace(0, 1, 5).reshape(5, 1)
        jump = np.array([0.0, 0.0, 0.0, 1.0, 1.0]).reshape(5, 1)
        b_smooth = weno_smoothness(smooth)
        b_jump = weno_smoothness(jump)
        # the sub-stencil containing the jump is much rougher (linear data
        # carries only the small first-derivative term of beta)
        assert b_jump[2] > 30 * b_smooth[2] + 1e-12

    def test_requires_five_cells(self):
        with pytest.raises(ValueError):
            weno_smoothness(np.ones((3, 4)))
