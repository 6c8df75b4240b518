from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import zeta as scipy_zeta

from gaborwt import spline_core
from gaborwt.spline_core import (
    ComplexResponse,
    FrequencyGrid,
    SplineParams,
    autocorr_ft,
    bspline_ft,
    fd_ft,
    frac_power,
    ht_filter,
    refinement_ft,
)


class TestSplineParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            SplineParams(-0.5, 0.0)
        with pytest.raises(ValueError):
            SplineParams(np.inf, 0.0)
        with pytest.raises(ValueError):
            SplineParams(1.0, np.nan)

    def test_half_shift(self):
        p = SplineParams(2.0, 0.25).half_shifted()
        assert p.alpha == 2.0 and p.tau == 0.75


class TestFrequencyGrid:
    def test_bin_layout(self):
        g = FrequencyGrid(8)
        assert g.omega[0] == 0.0
        assert g.omega[4] == np.pi
        assert g.omega[7] == pytest.approx(-np.pi / 4)

    def test_negation_map(self):
        g = FrequencyGrid(16)
        m = g.negated_bins()
        # closed under negation except DC and Nyquist which are fixed points
        for k in range(1, 16):
            if k != 8:
                assert g.omega[m[k]] == pytest.approx(-g.omega[k])

    def test_rejects_bad_lengths(self):
        for n in (0, 2, 6, 100):
            with pytest.raises(ValueError):
                FrequencyGrid(n)

    def test_omega_is_not_an_argument(self):
        # omega is derived from n, so it is not an argument
        with pytest.raises(TypeError):
            FrequencyGrid(8, omega=np.zeros(8))

    def test_compares_and_hashes_by_length(self):
        assert FrequencyGrid(8) == FrequencyGrid(8)
        assert hash(FrequencyGrid(8)) == hash(FrequencyGrid(8))
        assert FrequencyGrid(8) != FrequencyGrid(16)
        assert len({FrequencyGrid(8), FrequencyGrid(8), FrequencyGrid(16)}) == 2


class TestFracPower:
    def test_principal_branch(self):
        assert frac_power(-4.0, 0.5) == pytest.approx(2j)
        assert frac_power(1j, 2.0) == pytest.approx(-1.0)

    def test_zero_base(self):
        assert frac_power(0.0, 1.5) == 0.0
        with pytest.raises(ValueError):
            frac_power(0.0, -0.5)

    def test_zeros_in_an_array(self):
        z = np.array([0.0, -4.0, 0.0, 1j, 2.0 + 3.0j])
        zero = z == 0
        for gamma in (0.5, 1.0, 2.5):
            got = frac_power(z, gamma)
            assert np.array_equal(got[zero], np.zeros(2))
            nz = z[~zero]
            assert np.array_equal(got[~zero],
                                  np.abs(nz) ** gamma * np.exp(1j * gamma * np.angle(nz)))
        for gamma in (0.0, -0.5):
            with pytest.raises(ValueError):
                frac_power(z, gamma)
        assert np.array_equal(spline_core._pow0(z, 0.0), np.ones(5))

    @given(st.floats(0.1, 10.0), st.floats(-3.0, 3.0))
    @settings(max_examples=50, deadline=None)
    def test_matches_real_power_on_positive_axis(self, base, gamma):
        assert frac_power(base, gamma) == pytest.approx(base**gamma, rel=1e-12)


class TestBsplineFT:
    def test_dc_normalization(self):
        for alpha, tau in ((0.0, 0.0), (1.5, 0.3), (4.0, -0.7)):
            assert bspline_ft(SplineParams(alpha, tau), 0.0) == 1.0

    def test_value_at_pi(self):
        # beta^(pi) = (2/pi)^(alpha+1) e^{-j pi tau}
        for alpha, tau in ((1.0, 1.0), (3.0, 0.25)):
            want = (2.0 / np.pi) ** (alpha + 1) * np.exp(-1j * np.pi * tau)
            got = bspline_ft(SplineParams(alpha, tau), np.pi)
            assert got == pytest.approx(want, abs=1e-14)
        # degree-1 integer case: -4/pi^2 envelope
        assert bspline_ft(SplineParams(1.0, 1.0), np.pi) == pytest.approx(
            -4.0 / np.pi**2, abs=1e-14)

    def test_zeros_at_nonzero_multiples(self):
        p = SplineParams(2.5, 0.1)
        vals = bspline_ft(p, 2.0 * np.pi * np.array([1.0, -1.0, 2.0]))
        # float multiples of 2*pi land a rounding error away from the
        # exact zeros, where the transform is still vanishingly small
        assert np.max(np.abs(vals)) <= 1e-12

    def test_magnitude_independent_of_shift(self):
        w = np.linspace(-9.0, 9.0, 301)
        a = np.abs(bspline_ft(SplineParams(2.0, 0.0), w))
        b = np.abs(bspline_ft(SplineParams(2.0, 0.37), w))
        np.testing.assert_allclose(a, b, atol=1e-13)

    def test_integer_degree_matches_sinc_power(self):
        # tau = 0, odd alpha: beta^ = (sin(w/2)/(w/2))^{alpha+1}
        w = np.linspace(-5.0, 5.0, 101)
        w = w[w != 0.0]
        got = bspline_ft(SplineParams(3.0, 0.0), w)
        want = (np.sin(w / 2.0) / (w / 2.0)) ** 4
        np.testing.assert_allclose(got, want, atol=1e-13)


class TestRefinementFT:
    def test_dc_gain(self):
        for alpha, tau in ((0.0, 0.0), (3.0, 0.25), (5.5, -0.4)):
            assert refinement_ft(SplineParams(alpha, tau), 0.0) == pytest.approx(1.0)

    def test_two_scale_identity(self):
        w = np.linspace(-2.9, 2.9, 101)
        for tau in (0.0, 0.25, 0.5):
            p = SplineParams(3.0, tau)
            lhs = bspline_ft(p, 2.0 * w)
            rhs = refinement_ft(p, w) * bspline_ft(p, w)
            np.testing.assert_allclose(lhs, rhs, atol=1e-14)

    def test_half_shift_is_half_delay(self):
        w = np.linspace(-3.1, 3.1, 101)
        p = SplineParams(2.0, 0.1)
        got = refinement_ft(p.half_shifted(), w)
        want = np.exp(-1j * w / 2.0) * refinement_ft(p, w)
        np.testing.assert_allclose(got, want, atol=1e-14)

    def test_hermitian(self):
        grid = FrequencyGrid(64)
        vals = refinement_ft(SplineParams(2.3, 0.4), grid.omega)
        ComplexResponse(grid, vals, real_time_domain=True)  # asserts symmetry

    @pytest.mark.parametrize("alpha", [0.5, 2.5, 3.0])
    @pytest.mark.parametrize("tau", [0.0, 0.25, 0.5])
    def test_bits_of_the_defining_product(self, alpha, tau):
        # both powers share one modulus and argument; the product keeps
        # the order of the closed form, to the last bit
        grid_w = FrequencyGrid(4096).omega
        w = np.concatenate([grid_w, np.pi - grid_w])  # the arguments of h_tilde and g_tilde
        x = 1.0 + np.exp(1j * w)
        g1, g2 = (alpha + 1.0) / 2.0 - tau, (alpha + 1.0) / 2.0 + tau
        want = 2.0 ** -(alpha + 1.0) * spline_core._pow0(x, g1) * spline_core._pow0(np.conj(x), g2)
        assert np.array_equal(refinement_ft(SplineParams(alpha, tau), w), want)


class TestFdFT:
    def test_half_shift_operator_value(self):
        # D = D^0_{-1/2} at pi/2 on the principal branch
        got = fd_ft(0.0, -0.5, np.pi / 2.0)
        assert got == pytest.approx(np.exp(-1j * np.pi / 4.0), abs=1e-14)

    def test_half_shift_closed_form(self):
        w = np.linspace(-3.0, 3.0, 501)
        w = w[np.abs(w) > 1e-9]
        got = fd_ft(0.0, -0.5, w)
        want = -1j * np.sign(w) * np.exp(1j * w / 2.0)
        np.testing.assert_allclose(got, want, atol=1e-13)

    def test_value_at_pi_and_zero(self):
        assert fd_ft(0.0, -0.5, np.pi) == pytest.approx(1.0)
        assert fd_ft(0.0, -0.5, 0.0) == 0.0
        assert fd_ft(0.0, 0.0, 0.0) == 1.0  # trivial operator

    def test_unit_modulus(self):
        w = np.linspace(-3.1, 3.1, 301)
        w = w[w != 0.0]
        np.testing.assert_allclose(np.abs(fd_ft(0.0, -0.5, w)), 1.0, atol=1e-14)

    def test_fourier_coefficients_match_ht_filter(self):
        # inverse DFT of D on a fine grid reproduces d[k] = 1/(pi(k+1/2))
        n = 1 << 14
        g = FrequencyGrid(n)
        d = np.fft.ifft(fd_ft(0.0, -0.5, g.omega))
        k = np.array([0, 1, 2, 5, -1, -2, -6])
        got = d[k % n].real
        np.testing.assert_allclose(got, ht_filter(k), atol=2e-4)


class TestHtFilter:
    def test_values(self):
        np.testing.assert_allclose(ht_filter([0, -1]), [2.0 / np.pi, -2.0 / np.pi])

    def test_antisymmetry_and_energy(self):
        k = np.arange(-500, 500)
        d = ht_filter(k)
        np.testing.assert_allclose(d, -ht_filter(-k - 1), atol=1e-15)
        assert np.sum(d**2) == pytest.approx(1.0, abs=1e-3)


class TestAutocorrFT:
    def test_normalizations(self):
        assert autocorr_ft(1.0, np.pi) == pytest.approx(1.0 / 3.0, abs=1e-14)
        w = np.linspace(-7.0, 7.0, 101)
        np.testing.assert_allclose(autocorr_ft(0.0, w), 1.0, atol=1e-12)
        assert autocorr_ft(2.5, 0.0) == 1.0

    def test_matches_brute_force_sum(self):
        alpha, w = 2.5, 1.3
        p = SplineParams(alpha, 0.0)
        ks = np.arange(-2000, 2001)
        brute = np.sum(np.abs(bspline_ft(p, w + 2.0 * np.pi * ks)) ** 2)
        assert autocorr_ft(alpha, w) == pytest.approx(brute, rel=1e-10)

    def test_stable_at_extreme_arguments(self):
        # tiny residues mod 2*pi must not overflow the lattice sum
        vals = autocorr_ft(10.0, np.array([1e-14, 2.0 * np.pi - 1e-14, 64.0 * np.pi + 1e-9]))
        assert np.all(np.isfinite(vals)) and np.all(vals > 0.0)

    @given(st.floats(0.0, 8.0), st.floats(-20.0, 20.0))
    @example(0.0, -1.192092896e-07)
    @example(0.0, 5e-324)
    @settings(max_examples=50, deadline=None)
    def test_positive_and_bounded(self, alpha, w):
        a = autocorr_ft(alpha, w)
        assert 0.0 < a <= 1.0 + 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            autocorr_ft(-1.0, 0.5)


# the kernel's accuracy, in relative terms, fixed from the dtype beforehand
ZETA_RTOL = 8 * np.finfo(np.float64).eps
# s = 2(alpha + 1) over alpha = 0, .25, ..., 10, and two large orders
ZETA_ORDERS = [*np.arange(2.0, 22.5, 0.5), 50.0, 202.0]
SWEEP_ALPHAS = (0.0, 0.5, 1.0, 2.0, 2.5, 3.0, 6.0, 10.0)


def _autocorr_with_scipy(alpha, w):
    """autocorr_ft with SciPy's Hurwitz zeta in place of the in-package one."""
    with mock.patch.object(spline_core, "_hurwitz_zeta", scipy_zeta):
        return autocorr_ft(alpha, w)


class TestHurwitzZeta:
    # autocorr_ft calls the kernel with q in [1, 2]; take that interval
    # densely, with its endpoints and the floats on either side of them
    Q = np.concatenate([
        np.linspace(1.0, 2.0, 8193),
        [np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0),
         np.nextafter(2.0, 1.0), np.nextafter(2.0, 3.0)],
    ])

    @pytest.mark.parametrize("s", ZETA_ORDERS)
    def test_matches_scipy(self, s):
        np.testing.assert_allclose(spline_core._hurwitz_zeta(s, self.Q), scipy_zeta(s, self.Q),
                                   rtol=ZETA_RTOL, atol=0.0)

    @pytest.mark.parametrize("alpha", SWEEP_ALPHAS)
    def test_bits_of_the_plain_loop(self, alpha):
        # the in-place accumulation rounds exactly as the out-of-place
        # Euler-Maclaurin loop it replaces
        s, q = 2.0 * (alpha + 1.0), self.Q
        w = q + 9.0
        want = q ** -s
        for k in range(1, 10):
            want = want + (q + k) ** -s
        b = w ** -s
        want = want + b * w / (s - 1.0)
        want = want - 0.5 * b
        k = 0.0
        for divisor in spline_core._EM_DIVISORS:
            b = b * (s + k) / w
            want = want + b / divisor
            b = b * (s + k + 1.0) / w
            k += 2.0
        assert np.array_equal(spline_core._hurwitz_zeta(s, q), want)

    def test_large_order_stays_finite(self):
        # zeta(s, q) -> q^{-s}: 1 at q = 1 and 0 above it
        got = spline_core._hurwitz_zeta(1e300, np.array([1.0, 1.5, 2.0]))
        np.testing.assert_array_equal(got, [1.0, 0.0, 0.0])


class TestAutocorrAgainstScipyZeta:
    @pytest.mark.parametrize("alpha", SWEEP_ALPHAS)
    def test_design_grid(self, alpha):
        # the three arguments a design evaluates: w, w + pi and 2w
        w = FrequencyGrid(4096).omega
        for arg in (w, w + np.pi, 2.0 * w):
            np.testing.assert_allclose(autocorr_ft(alpha, arg), _autocorr_with_scipy(alpha, arg),
                                       rtol=ZETA_RTOL, atol=0.0)

    @given(st.floats(0.0, 8.0), st.floats(-20.0, 20.0))
    @settings(max_examples=100, deadline=None)
    def test_hypothesis_range(self, alpha, w):
        assert autocorr_ft(alpha, w) == pytest.approx(_autocorr_with_scipy(alpha, w),
                                                      rel=ZETA_RTOL, abs=0.0)


class TestComplexResponse:
    def test_rejects_non_hermitian(self):
        grid = FrequencyGrid(8)
        vals = np.zeros(8, dtype=complex)
        vals[1] = 1j  # conjugate bin left at zero
        with pytest.raises(ValueError):
            ComplexResponse(grid, vals, real_time_domain=True)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            ComplexResponse(FrequencyGrid(8), np.zeros(4))

    def test_stores_hermitian_part_of_sub_tolerance_noise(self):
        grid = FrequencyGrid(16)
        neg = grid.negated_bins()
        rng = np.random.default_rng(3)
        real = np.fft.fft(rng.standard_normal(16))
        noise = 1e-14 * (rng.standard_normal(16) + 1j * rng.standard_normal(16))
        raw = real + (noise - np.conj(noise[neg]))  # anti-Hermitian noise
        assert 0.0 < ComplexResponse(grid, raw).hermitian_deviation() <= 1e-12
        r = ComplexResponse(grid, raw, real_time_domain=True)
        assert r.hermitian_deviation() == 0.0
        np.testing.assert_array_equal(r.values, 0.5 * (raw + np.conj(raw[neg])))
        np.testing.assert_allclose(r.values, real, rtol=0.0, atol=1e-14)

    def test_exactly_hermitian_values_kept_as_given(self):
        grid = FrequencyGrid(16)
        raw = np.fft.fft(np.arange(16.0))
        vals = raw + np.conj(raw[grid.negated_bins()])  # Hermitian to the last bit
        assert ComplexResponse(grid, vals, real_time_domain=True).values is vals
