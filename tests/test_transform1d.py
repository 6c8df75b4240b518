import warnings

import numpy as np
import pytest

from gaborwt.filter_design import design_dual_tree
from gaborwt.spline_core import ComplexResponse, FrequencyGrid, SplineParams
from gaborwt.transform1d import (
    Pyramid1D,
    Signal1D,
    analyze_level,
    dtcwt1d_forward,
    dtcwt1d_inverse,
    fold,
    half_fold,
    half_unfold,
    project,
    render_scaling,
    render_wavelet,
    synthesize_level,
    unfold,
    unproject,
    _dense_grid,
    _dropped_imag_bound_1d,
    _irfft,
    _wavelet_hat,
)

RNG = np.random.default_rng(42)


def _design(alpha=3.0, tau=0.0, n=256, levels=3):
    return design_dual_tree(SplineParams(alpha, tau), n, levels)


class TestSignal1D:
    def test_validation(self):
        with pytest.raises(ValueError):
            Signal1D(np.zeros(100))
        with pytest.raises(ValueError):
            Signal1D(np.array([1.0, np.nan, 0.0, 0.0]))
        with pytest.raises(ValueError):
            Signal1D(np.zeros((8, 8)))


class TestProject:
    def test_identity_filter(self):
        f = RNG.standard_normal(64)
        pre = ComplexResponse(FrequencyGrid(64), np.ones(64))
        np.testing.assert_allclose(project(f, pre), f, atol=1e-13)

    def test_constant_signal(self):
        d = _design(n=64, levels=2)
        out = project(np.ones(64), d.channel_a.prefilter)
        np.testing.assert_allclose(out, 1.0, atol=1e-12)

    def test_round_trip(self):
        d = _design(n=128, levels=2)
        f = RNG.standard_normal(128)
        c = project(f, d.channel_a.prefilter)
        np.testing.assert_allclose(unproject(c, d.channel_a.prefilter), f, atol=1e-12)

    def test_length_mismatch(self):
        d = _design(n=128, levels=2)
        with pytest.raises(ValueError):
            project(np.zeros(64), d.channel_a.prefilter)


class TestLevels:
    def test_linearity(self):
        d = _design(n=64, levels=1)
        lf = d.channel_a.levels[0]
        x, y = RNG.standard_normal(64), RNG.standard_normal(64)
        lx, hx = analyze_level(x, lf.h_tilde, lf.g_tilde)
        ly, hy = analyze_level(y, lf.h_tilde, lf.g_tilde)
        lc, hc = analyze_level(2.0 * x - 3.0 * y, lf.h_tilde, lf.g_tilde)
        np.testing.assert_allclose(lc, 2.0 * lx - 3.0 * ly, atol=1e-12)
        np.testing.assert_allclose(hc, 2.0 * hx - 3.0 * hy, atol=1e-12)

    def test_constant_kills_highpass(self):
        d = _design(n=64, levels=1)
        lf = d.channel_a.levels[0]
        _, hi = analyze_level(np.ones(64), lf.h_tilde, lf.g_tilde)
        assert np.max(np.abs(hi)) <= 1e-12

    def test_single_level_round_trip(self):
        d = _design(n=64, levels=1)
        lf = d.channel_a.levels[0]
        c = RNG.standard_normal(64)
        lo, hi = analyze_level(c, lf.h_tilde, lf.g_tilde)
        rec = synthesize_level(lo, hi, lf.h, lf.g)
        np.testing.assert_allclose(rec, c, atol=1e-12)

    def test_shape_validation(self):
        d = _design(n=64, levels=1)
        lf = d.channel_a.levels[0]
        with pytest.raises(ValueError):
            analyze_level(np.zeros(32), lf.h_tilde, lf.g_tilde)
        with pytest.raises(ValueError):
            synthesize_level(np.zeros(64), np.zeros(64), lf.h, lf.g)


class TestAxis:
    @pytest.mark.parametrize("axis", [0, 1])
    def test_matches_per_line_1d(self, axis):
        x = RNG.standard_normal((64, 32))
        n = x.shape[axis]
        d = _design(n=n, levels=1)
        lf, pre = d.channel_a.levels[0], d.channel_a.prefilter
        lines = [x[:, j] for j in range(32)] if axis == 0 else list(x)

        def stacked(outs):
            return np.stack(outs, axis=1 - axis)

        np.testing.assert_allclose(project(x, pre, axes=(axis,)),
                                   stacked([project(v, pre) for v in lines]), rtol=0, atol=1e-15)
        np.testing.assert_allclose(unproject(x, pre, axes=(axis,)),
                                   stacked([unproject(v, pre) for v in lines]), rtol=0, atol=1e-15)
        lo, hi = analyze_level(x, lf.h_tilde, lf.g_tilde, axis=axis)
        per_line = [analyze_level(v, lf.h_tilde, lf.g_tilde) for v in lines]
        np.testing.assert_allclose(lo, stacked([o[0] for o in per_line]), rtol=0, atol=1e-15)
        np.testing.assert_allclose(hi, stacked([o[1] for o in per_line]), rtol=0, atol=1e-15)
        rec = synthesize_level(lo, hi, lf.h, lf.g, axis=axis)
        want = stacked([synthesize_level(a, b, lf.h, lf.g) for a, b in per_line])
        np.testing.assert_allclose(rec, want, rtol=0, atol=1e-15)

    def test_one_prefilter_per_axis(self):
        pre = _design(n=64, levels=1).channel_a.prefilter
        with pytest.raises(ValueError):
            project(np.zeros((64, 64)), pre, axes=(0, 1))


def _kept(x, axis, bins):
    return np.take(x, np.arange(bins), axis=axis)


class TestHalfSpectrum:
    """half_fold/half_unfold against fold/unfold on the bins the rfft layout
    keeps.  The identities hold for any response, so a random complex one
    is used.  A generator of its own keeps the module's draws unchanged."""

    rng = np.random.default_rng(7)

    CASES = [
        ((16, 32), 1, ()),       # axis 0 in samples: no flip
        ((16, 32), 1, (0,)),     # axis 0 in frequency: -kx flip
        ((5, 64), 1, (0,)),      # rectangular, odd length of the flipped axis
        ((64, 16), 1, ()),
        ((12, 8), 1, (0,)),      # smallest level grid
        ((12, 8), 1, ()),
        ((32, 6), 0, (1,)),      # transform axis 0, axis 1 in frequency
        ((8,), -1, ()),
    ]

    def _spectrum(self, shape, axis, freq_axes):
        x = self.rng.standard_normal(shape)
        return np.fft.fftn(x, axes=tuple(freq_axes) + (axis % len(shape),))

    @pytest.mark.parametrize("shape,axis,freq_axes", CASES)
    def test_fold_matches_full(self, shape, axis, freq_axes):
        n = shape[axis]
        spec = self._spectrum(shape, axis, freq_axes)
        v = self.rng.standard_normal(n) + 1j * self.rng.standard_normal(n)
        want = _kept(fold(spec, v, axis), axis, n // 4 + 1)
        got = half_fold(_kept(spec, axis, n // 2 + 1), v, axis, freq_axes)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    @pytest.mark.parametrize("shape,axis,freq_axes", CASES)
    def test_unfold_matches_full(self, shape, axis, freq_axes):
        n = shape[axis]
        half_shape = tuple(s // 2 if a == axis % len(shape) else s for a, s in enumerate(shape))
        spec = self._spectrum(half_shape, axis, freq_axes)
        v = self.rng.standard_normal(n) + 1j * self.rng.standard_normal(n)
        want = _kept(unfold(spec, v, axis), axis, n // 2 + 1)
        got = half_unfold(_kept(spec, axis, n // 4 + 1), v, axis, freq_axes)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    def test_bin_count_validated(self):
        v = np.ones(16)
        with pytest.raises(ValueError, match="9 bins"):
            half_fold(np.zeros((4, 16), complex), v, axis=1)
        with pytest.raises(ValueError, match="5 bins"):
            half_unfold(np.zeros((4, 8), complex), v, axis=1)


def _counted_ffts(monkeypatch):
    """Wrap every numpy.fft transform so that its calls are listed by name."""
    calls = []
    for name in np.fft.__all__:
        fn = getattr(np.fft, name)
        if callable(fn) and "freq" not in name and "shift" not in name:
            def counted(*args, _fn=fn, _name=name, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(np.fft, name, counted)
    return calls


class TestRealFFTPath:
    """The 1D kernels run on half spectra: real DFTs only, same call sequence."""

    rng = np.random.default_rng(17)

    @pytest.mark.parametrize("levels", [1, 3, 6])  # 6 = log2(n) - 2
    def test_round_trip_calls_only_real_ffts(self, monkeypatch, levels):
        n = 256
        d = design_dual_tree(SplineParams(3.0, 0.25), n, levels)
        f = Signal1D(self.rng.standard_normal(n))
        calls = _counted_ffts(monkeypatch)
        rec = dtcwt1d_inverse(dtcwt1d_forward(f, d), d)
        assert np.max(np.abs(rec.samples - f.samples)) <= 1e-13
        assert set(calls) == {"rfft", "irfft"}
        # per channel: projection 2, each level 3 (analysis) and 3 (synthesis), unprojection 2
        assert len(calls) == 2 * (2 + 6 * levels + 2)
        assert calls.count("rfft") == calls.count("irfft")


class TestDroppedResidue:
    """The check on the imaginary residue that irfft drops in the 1D kernels."""

    rng = np.random.default_rng(19)
    N = 64

    @pytest.mark.parametrize("bin_", [0, 32])  # DC and Nyquist
    def test_imaginary_edge_bin_raises(self, bin_):
        spec = np.fft.rfft(self.rng.standard_normal(self.N))
        spec[bin_] += 1e-6j * self.N
        with pytest.raises(AssertionError, match="imaginary residue"):
            _irfft(spec, self.N, -1)

    def test_hermitian_spectrum_passes(self):
        x = self.rng.standard_normal(self.N)
        spec = np.fft.rfft(x)
        np.testing.assert_allclose(_irfft(spec, self.N, -1), x, rtol=0, atol=1e-15 * self.N)
        # any interior bin stands for a conjugate pair: real content
        spec[5] += 3.0 + 4.0j
        assert _dropped_imag_bound_1d(spec, self.N, -1) == 0.0
        assert np.isfinite(_irfft(spec, self.N, -1)).all()

    def test_empty_batch_passes(self):
        assert _irfft(np.zeros((0, self.N // 2 + 1), complex), self.N, -1).shape == (0, self.N)

    @pytest.mark.parametrize("shape,axis", [((64,), -1), ((64, 8), 0), ((8, 64), 1), ((8, 64), -1)])
    def test_bound_covers_dropped_residue(self, shape, axis):
        n = shape[axis]
        spec = np.fft.rfft(self.rng.standard_normal(shape), axis=axis)
        last = np.moveaxis(spec, axis, -1)  # a view: writes reach spec
        last[..., [0, n // 2]] += 1e-3j * self.rng.standard_normal(last.shape[:-1] + (2,))
        # the full spectrum that irfft completes, with the edge bins as given
        full = np.concatenate((last, np.conj(last[..., n // 2 - 1:0:-1])), axis=-1)
        dropped = np.max(np.abs(np.fft.ifft(full).imag))
        bound = _dropped_imag_bound_1d(spec, n, axis)
        # never below the residue, and with two bins per line attained by
        # it; ifft's own rounding (unit-scale data) adds up to ~1e-16
        assert bound > 1e-6
        assert dropped <= bound + 1e-15
        assert dropped >= bound - 1e-15


def _ref_prefilter(x, values, axis, op):
    v = values.reshape((-1,) + (1,) * (x.ndim - 1 - axis % x.ndim))
    return np.fft.ifft(op(np.fft.fft(x, axis=axis), v), axis=axis).real


def _ref_analyze(x, filt, axis):
    return np.fft.ifft(fold(np.fft.fft(x, axis=axis), filt.values, axis), axis=axis).real


def _ref_synthesize(lo, hi, h, g, axis):
    spec = unfold(np.fft.fft(lo, axis=axis), h.values, axis)
    spec += unfold(np.fft.fft(hi, axis=axis), g.values, axis)
    return 2.0 * np.fft.ifft(spec, axis=axis).real


class TestAgainstFullSpectrum:
    """The four kernels against the full-spectrum algorithm: fft, fold or
    unfold by the raw filter values, ifft and the real part."""

    rng = np.random.default_rng(23)

    @pytest.mark.parametrize("shape,axis", [((64, 16), 0), ((16, 64), 1), ((8, 64), -1),
                                            ((128,), -1)])
    @pytest.mark.parametrize("channel", ["channel_a", "channel_b"])
    def test_kernels_match(self, shape, axis, channel):
        n = shape[axis]
        ch = getattr(design_dual_tree(SplineParams(2.5, 0.3), n, 1), channel)
        lf, pre = ch.levels[0], ch.prefilter
        x = self.rng.standard_normal(shape)

        def close(got, want):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

        close(project(x, pre, axes=(axis,)), _ref_prefilter(x, pre.values, axis, np.multiply))
        close(unproject(x, pre, axes=(axis,)), _ref_prefilter(x, pre.values, axis, np.divide))
        lo, hi = analyze_level(x, lf.h_tilde, lf.g_tilde, axis=axis)
        close(lo, _ref_analyze(x, lf.h_tilde, axis))
        close(hi, _ref_analyze(x, lf.g_tilde, axis))
        close(synthesize_level(lo, hi, lf.h, lf.g, axis=axis),
              _ref_synthesize(lo, hi, lf.h, lf.g, axis))


class TestFullTransform:
    @pytest.mark.parametrize("alpha", [1.0, 2.0, 3.0, 6.0])
    @pytest.mark.parametrize("tau", [0.0, 0.25])
    @pytest.mark.parametrize("n,levels", [(128, 2), (256, 3), (256, 1)])
    def test_perfect_reconstruction(self, alpha, tau, n, levels):
        d = design_dual_tree(SplineParams(alpha, tau), n, levels)
        worst = 0.0
        for _ in range(3):
            f = Signal1D(RNG.standard_normal(n))
            rec = dtcwt1d_inverse(dtcwt1d_forward(f, d), d)
            worst = max(worst, np.max(np.abs(rec.samples - f.samples)))
        assert worst <= 1e-10 * 10.0  # relative to unit-scale input

    def test_redundancy_factor(self):
        d = _design()
        pyr = dtcwt1d_forward(Signal1D(RNG.standard_normal(256)), d)
        assert pyr.coefficient_count() == 2 * 256
        assert [wi.size for wi in pyr.w] == [128, 64, 32]

    def test_zero_signal(self):
        d = _design()
        pyr = dtcwt1d_forward(Signal1D(np.zeros(256)), d)
        assert all(np.all(wi == 0) for wi in pyr.w)
        assert np.all(pyr.lowpass_a == 0) and np.all(pyr.lowpass_b == 0)

    def test_constant_kills_subbands(self):
        d = _design()
        pyr = dtcwt1d_forward(Signal1D(np.ones(256)), d)
        assert max(np.max(np.abs(wi)) for wi in pyr.w) <= 1e-12

    def test_magnitude_shift_invariance(self):
        d = _design()
        base = np.cos(2.0 * np.pi * 104 * np.arange(256) / 256)  # passband tone
        ref = np.abs(dtcwt1d_forward(Signal1D(base), d).w[0])
        for shift in range(1, 8):
            mag = np.abs(dtcwt1d_forward(Signal1D(np.roll(base, shift)), d).w[0])
            assert np.max(np.abs(mag - ref)) <= 0.01 * np.max(ref)
            # while the real part genuinely oscillates with the shift
        re0 = dtcwt1d_forward(Signal1D(base), d).w[0].real
        re1 = dtcwt1d_forward(Signal1D(np.roll(base, 1)), d).w[0].real
        assert np.max(np.abs(re0 - re1)) > 0.1 * np.max(np.abs(re0))

    def test_left_inverse_on_range(self):
        d = _design()
        f = Signal1D(RNG.standard_normal(256))
        pyr = dtcwt1d_forward(f, d)
        pyr2 = dtcwt1d_forward(dtcwt1d_inverse(pyr, d), d)
        np.testing.assert_allclose(pyr2.lowpass_a, pyr.lowpass_a, atol=1e-11)
        for a, b in zip(pyr2.w, pyr.w):
            np.testing.assert_allclose(a, b, atol=1e-11)

    @pytest.mark.parametrize("where", ["lowpass", "subband"])
    def test_non_finite_pyramid_rejected(self, where):
        d = _design()
        pyr = dtcwt1d_forward(Signal1D(np.cos(np.arange(256.0))), d)
        if where == "lowpass":
            pyr.lowpass_b[3] = np.nan
        else:
            pyr.w[1][5] = complex(0.0, np.inf)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # rejected before any arithmetic
            with pytest.raises(ValueError, match="pyramid contains non-finite values"):
                dtcwt1d_inverse(pyr, d)

    def test_shape_mismatch(self):
        d = _design()
        with pytest.raises(ValueError):
            dtcwt1d_forward(Signal1D(np.zeros(128)), d)
        bad = Pyramid1D(np.zeros(16), np.zeros(16), (np.zeros(64, complex),))
        with pytest.raises(ValueError):
            dtcwt1d_inverse(bad, d)


class TestRenderWavelet:
    def test_hilbert_pair_identity(self):
        p = SplineParams(3.0, 0.0)
        _, _, omega = _dense_grid(1 << 12, 6)
        dev = np.abs(_wavelet_hat(p.half_shifted(), omega)
                     + 1j * np.sign(omega) * _wavelet_hat(p, omega))
        assert np.max(dev) <= 1e-10

    def test_zero_mean(self):
        x, psi = render_wavelet(SplineParams(3.0, 0.0))
        dx = x[1] - x[0]
        peak = np.max(np.abs(psi))
        assert abs(np.sum(psi.real) * dx) <= 1e-8 * peak
        assert abs(np.sum(psi.imag) * dx) <= 1e-8 * peak

    def test_equal_component_norms(self):
        _, psi = render_wavelet(SplineParams(2.5, 0.25))
        nr, ni = np.linalg.norm(psi.real), np.linalg.norm(psi.imag)
        assert abs(nr / ni - 1.0) <= 1e-10

    def test_one_sided_spectrum(self):
        _, psi = render_wavelet(SplineParams(3.0, 0.0))
        spec = np.fft.fft(psi)
        n = spec.size
        neg = np.abs(spec[n // 2 + 1 :])
        assert np.max(neg) <= 1e-10 * np.max(np.abs(spec))

    def test_insufficient_resolution(self):
        with pytest.raises(ValueError):
            render_wavelet(SplineParams(3.0, 0.0), n=64, octaves=8)

    def test_scaling_function_integral(self):
        x, b = render_scaling(SplineParams(3.0, 0.5))
        dx = x[1] - x[0]
        assert np.sum(b.real) * dx == pytest.approx(1.0, abs=1e-10)
        # centered at tau in the Gaussian-limit sense
        w = np.abs(b) / np.sum(np.abs(b))
        assert np.sum(w * x) == pytest.approx(0.5, abs=1e-6)
