import numpy as np
import pytest

from gaborwt.filter_design import (
    RieszBoundError,
    _level_filters,
    analytic_filter,
    design_channel,
    design_dual_tree,
    ht_pair_channel,
    prefilter_response,
    verify_pr,
)
from gaborwt.spline_core import FrequencyGrid, SplineParams, autocorr_ft, bspline_ft, fd_ft
from gaborwt.transform1d import Signal1D, dtcwt1d_forward, dtcwt1d_inverse

RESPONSES = ("h_tilde", "g_tilde", "h", "g")


class TestDesignChannel:
    def test_dc_gains(self):
        ch = design_channel(SplineParams(3.0, 0.0), 256, 3)
        for lf in ch.levels:
            assert lf.h_tilde.values[0] == pytest.approx(1.0)
            assert abs(lf.g_tilde.values[0]) <= 1e-15

    def test_pr_within_tolerance(self):
        ch = design_channel(SplineParams(3.0, 0.0), 256, 3)
        assert verify_pr(ch) <= 1e-12

    def test_pr_fractional_parameters(self):
        ch = design_channel(SplineParams(2.5, 0.15), 256, 3)
        assert verify_pr(ch) <= 1e-12

    def test_level_grid_halving(self):
        ch = design_channel(SplineParams(2.0, 0.0), 256, 3)
        assert [lf.grid.n for lf in ch.levels] == [256, 128, 64]

    def test_geometry_validation(self):
        p = SplineParams(2.0, 0.0)
        with pytest.raises(ValueError):
            design_channel(p, 100, 2)  # not a power of two
        with pytest.raises(ValueError):
            design_channel(p, 64, 0)
        with pytest.raises(ValueError):
            design_channel(p, 64, 5)  # residual grid too small

    def test_riesz_guard(self):
        # very high degrees push min A below the stability floor
        with pytest.raises(RieszBoundError):
            design_channel(SplineParams(40.0, 0.0), 64, 1)

    def test_broken_channel_fails_pr(self):
        from dataclasses import replace
        from gaborwt.spline_core import ComplexResponse
        ch = design_channel(SplineParams(3.0, 0.0), 64, 1)
        lf = ch.levels[0]
        zeroed = replace(lf, g=ComplexResponse(lf.grid, np.zeros(64)),
                         g_tilde=ComplexResponse(lf.grid, np.zeros(64)))
        broken = replace(ch, levels=(zeroed,))
        assert verify_pr(broken) >= 0.5


class TestHtPairChannel:
    @pytest.mark.parametrize("alpha", [1.0, 2.0, 3.0, 6.0])
    @pytest.mark.parametrize("n", [64, 256])
    def test_matches_direct_design(self, alpha, n):
        ch = design_channel(SplineParams(alpha, 0.0), n, 2)
        paired = ht_pair_channel(ch)
        direct = design_channel(SplineParams(alpha, 0.5), n, 2)
        for lf1, lf2 in zip(paired.levels, direct.levels):
            for name in ("h_tilde", "g_tilde", "h", "g"):
                dev = np.max(np.abs(getattr(lf1, name).values
                                    - getattr(lf2, name).values))
                assert dev <= 1e-12
        np.testing.assert_allclose(paired.prefilter.values,
                                   direct.prefilter.values, atol=1e-12)

    def test_pr_preserved(self):
        ch = design_channel(SplineParams(3.0, 0.25), 256, 3)
        assert verify_pr(ht_pair_channel(ch)) <= 1e-12

    def test_lowpass_is_half_delay_inside_open_interval(self):
        ch = design_channel(SplineParams(2.0, 0.1), 128, 1)
        paired = ht_pair_channel(ch)
        lf, lfp = ch.levels[0], paired.levels[0]
        interior = np.abs(lf.grid.omega) < np.pi  # exclude the Nyquist bin
        want = np.exp(-1j * lf.grid.omega[interior] / 2.0) * lf.h_tilde.values[interior]
        np.testing.assert_allclose(lfp.h_tilde.values[interior], want, atol=1e-12)

    def test_highpass_magnitude_preserved(self):
        ch = design_channel(SplineParams(3.0, 0.0), 128, 1)
        paired = ht_pair_channel(ch)
        lf, lfp = ch.levels[0], paired.levels[0]
        off_dc = np.arange(1, 128)
        np.testing.assert_allclose(np.abs(lfp.g.values[off_dc]),
                                   np.abs(lf.g.values[off_dc]), atol=1e-12)

    def test_highpass_modulation(self):
        ch = design_channel(SplineParams(3.0, 0.0), 128, 1)
        paired = ht_pair_channel(ch)
        d = fd_ft(0.0, -0.5, ch.levels[0].grid.omega)
        np.testing.assert_allclose(paired.levels[0].g_tilde.values,
                                   d * ch.levels[0].g_tilde.values, atol=1e-13)


class TestPrefilter:
    def test_dc_is_one(self):
        pre = prefilter_response(SplineParams(3.0, 0.25), FrequencyGrid(64))
        assert pre.values[0] == pytest.approx(1.0)

    def test_value_at_nyquist_integer_shift(self):
        pre = prefilter_response(SplineParams(1.0, 1.0), FrequencyGrid(64))
        want = (-4.0 / np.pi**2) / autocorr_ft(1.0, np.pi)
        assert pre.values[32].real == pytest.approx(want, abs=1e-13)
        assert want == pytest.approx(-12.0 / np.pi**2, abs=1e-13)

    def test_interior_matches_definition(self):
        p = SplineParams(2.5, 0.3)
        pre = prefilter_response(p, FrequencyGrid(128))
        w = pre.grid.omega
        mask = np.abs(w) < np.pi
        want = bspline_ft(p, w[mask]) / autocorr_ft(p.alpha, w[mask])
        np.testing.assert_allclose(pre.values[mask], want, atol=1e-13)

    def test_design_shares_one_grid(self):
        # both channels' pre-filters and level-0 responses hold level 0's grid
        d = design_dual_tree(SplineParams(2.5, 0.25), 256, 3)
        grid = d.channel_a.levels[0].grid
        for ch in (d.channel_a, d.channel_b):
            assert ch.prefilter.grid is grid
            for name in RESPONSES:
                assert getattr(ch.levels[0], name).grid is grid

    def test_no_zero_bins(self):
        for tau in (0.0, 0.25, 0.5, 1.0):
            pre = prefilter_response(SplineParams(2.0, tau), FrequencyGrid(128))
            assert np.min(np.abs(pre.values)) > 0.0


class TestAnalyticFilter:
    def test_one_sided(self):
        d = design_dual_tree(SplineParams(3.0, 0.0), 256, 3)
        pa = analytic_filter(d)
        neg = np.arange(129, 256)  # omega in (-pi, 0)
        assert np.max(np.abs(pa.values[neg])) <= 1e-10
        assert abs(pa.values[0]) <= 1e-10

    def test_positive_side_doubles(self):
        d = design_dual_tree(SplineParams(3.0, 0.0), 256, 3)
        pa = analytic_filter(d)
        cha = d.channel_a
        pos = np.arange(1, 128)
        want = 2.0 * cha.prefilter.values[pos] * cha.levels[0].g_tilde.values[pos]
        np.testing.assert_allclose(pa.values[pos], want, atol=1e-12)


class TestBiorthogonalityInvariants:
    def test_cross_spectrum_shift_invariant(self):
        # the sampled Gram spectrum is identical for tau and tau + 1/2
        w = np.linspace(-3.1, 3.1, 101)
        np.testing.assert_allclose(autocorr_ft(2.0, w), autocorr_ft(2.0, w),
                                   atol=0.0)  # structurally tau-free

    def test_dual_tree_wrapper(self):
        d = design_dual_tree(SplineParams(3.0, 0.0), 128, 2)
        assert d.signal_len == 128 and d.levels == 2
        assert d.channel_b.params.tau == 0.5

    def test_dual_tree_cached(self):
        a = design_dual_tree(SplineParams(3.0, 0.0), 128, 2)
        assert design_dual_tree(SplineParams(3.0, 0.0), 128, 2) is a



class TestOneGrid:
    """Every level is sampled from the one level-0 evaluation."""

    CASES = [(3.0, 0.0, 256, 3), (2.5, 0.25, 1024, 4), (0.0, 0.5, 64, 4), (6.0, -0.7, 512, 2)]

    @pytest.mark.parametrize("alpha,tau,n,levels", CASES)
    def test_levels_are_level0_subsamples(self, alpha, tau, n, levels):
        d = design_dual_tree(SplineParams(alpha, tau), n, levels)
        for ch in (d.channel_a, d.channel_b):
            lf0 = ch.levels[0]
            for i, lf in enumerate(ch.levels[1:], start=1):
                assert lf.grid.n == n >> i
                for name in RESPONSES:
                    assert np.array_equal(getattr(lf, name).values,
                                          getattr(lf0, name).values[::2**i])

    @pytest.mark.parametrize("alpha,tau,n,levels", CASES)
    def test_levels_match_closed_form_on_their_grid(self, alpha, tau, n, levels):
        p = SplineParams(alpha, tau)
        ch = design_channel(p, n, levels)
        for i, lf in enumerate(ch.levels):
            direct = _level_filters(p, FrequencyGrid(n >> i))
            for name in RESPONSES:
                np.testing.assert_allclose(getattr(lf, name).values,
                                           getattr(direct, name).values, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("alpha,tau,n,levels", CASES)
    def test_real_filters_exactly_hermitian(self, alpha, tau, n, levels):
        d = design_dual_tree(SplineParams(alpha, tau), n, levels)
        for ch in (d.channel_a, d.channel_b):
            responses = [ch.prefilter] + [getattr(lf, name) for lf in ch.levels
                                          for name in RESPONSES]
            for r in responses:
                assert r.real_time_domain
                assert r.hermitian_deviation() == 0.0


class TestHighDegreeDesigns:
    """alpha=10, tau=0 at n=512 and 1024: the partner channel is modulated
    from exactly Hermitian responses, so its raw rounding stays inside the
    unchanged Hermitian tolerance."""

    @pytest.mark.parametrize("n", [512, 1024])
    def test_builds_with_perfect_reconstruction(self, n):
        d = design_dual_tree(SplineParams(10.0, 0.0), n, 4)
        assert verify_pr(d.channel_a) <= 1e-12
        assert verify_pr(d.channel_b) <= 1e-12
        x = np.random.default_rng(n).standard_normal(n)
        back = dtcwt1d_inverse(dtcwt1d_forward(Signal1D(x), d), d).samples
        assert np.max(np.abs(back - x)) <= 1e-10
