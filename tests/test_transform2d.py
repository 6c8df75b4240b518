import numpy as np
import pytest

from gaborwt.spline_core import SplineParams
from gaborwt.transform1d import analyze_level, project
from gaborwt.transform2d import (
    CHANNEL_SHIFTS,
    ORIENTATIONS,
    ChannelTable,
    Pyramid2D,
    _XI_SLOTS,
    _ZETA_SLOTS,
    _dropped_imag_bound,
    _samples,
    build_channel_table,
    directional_ht_check,
    dtcwt2d_forward,
    dtcwt2d_inverse,
    mix_subbands,
    quadrant_energy_fraction,
    render_wavelet2d,
    unmix_subbands,
)

RNG = np.random.default_rng(3)
P3 = SplineParams(3.0, 0.0)

# the paper's mixers, w = LAMBDA_R zeta + j LAMBDA_I xi: the identity on
# slots 1-4 and +-1/sqrt(2) on the HH slots 5-6
_S = 1.0 / np.sqrt(2.0)
LAMBDA_R = np.eye(6)
LAMBDA_R[4:, 4:] = [[_S, -_S], [_S, _S]]
LAMBDA_I = np.eye(6)
LAMBDA_I[4:, 4:] = [[_S, _S], [_S, -_S]]


class TestMixing:
    def test_orthonormal_exactly(self):
        # entries are exact {0, 1, +-1/sqrt(2)}; the product is identity
        # to one rounding of (1/sqrt(2))^2 + (1/sqrt(2))^2
        np.testing.assert_allclose(LAMBDA_R @ LAMBDA_R.T, np.eye(6), atol=1e-15)
        np.testing.assert_allclose(LAMBDA_I @ LAMBDA_I.T, np.eye(6), atol=1e-15)

    def test_matches_matrix_reference(self):
        def assert_close(got, want):  # to 1e-15 of the largest entry
            got, want = np.array(got), np.array(want)
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

        rng = np.random.default_rng(5)
        zeta = [rng.standard_normal((8, 4)) for _ in range(6)]
        xi = [rng.standard_normal((8, 4)) for _ in range(6)]
        w = mix_subbands(zeta, xi)
        assert_close(w, np.einsum("kl,lxy->kxy", LAMBDA_R, zeta)
                     + 1j * np.einsum("kl,lxy->kxy", LAMBDA_I, xi))
        z2, x2 = unmix_subbands(w)
        assert_close(z2, np.einsum("lk,lxy->kxy", LAMBDA_R, [wk.real for wk in w]))
        assert_close(x2, np.einsum("lk,lxy->kxy", LAMBDA_I, [wk.imag for wk in w]))

    def test_identity_block_impulse(self):
        imp = np.zeros((4, 4))
        imp[1, 2] = 1.0
        zeros = [np.zeros((4, 4))] * 5
        w = mix_subbands([imp] + zeros, [imp] + zeros)
        np.testing.assert_array_equal(w[0], (1 + 1j) * imp)
        for k in range(1, 6):
            assert np.all(w[k] == 0)

    def test_diagonal_block_formulas(self):
        a, b, c, d = (RNG.standard_normal((4, 4)) for _ in range(4))
        z = [np.zeros((4, 4))] * 4
        w = mix_subbands(z + [a, b], z + [c, d])
        s = np.sqrt(2.0)
        np.testing.assert_allclose(w[4], (a - b) / s + 1j * (c + d) / s, atol=1e-14)
        np.testing.assert_allclose(w[5], (a + b) / s + 1j * (c - d) / s, atol=1e-14)

    def test_unmix_round_trip(self):
        zeta = [RNG.standard_normal((8, 8)) for _ in range(6)]
        xi = [RNG.standard_normal((8, 8)) for _ in range(6)]
        z2, x2 = unmix_subbands(mix_subbands(zeta, xi))
        for a, b in zip(zeta, z2):
            np.testing.assert_allclose(a, b, atol=1e-14)
        for a, b in zip(xi, x2):
            np.testing.assert_allclose(a, b, atol=1e-14)


class TestGroupingTables:
    def test_slots_form_a_bijection(self):
        slots = list(_ZETA_SLOTS) + list(_XI_SLOTS)
        assert len(slots) == 12 and len(set(slots)) == 12
        assert {s[0] for s in slots} == {"HL", "LH", "HH"}
        assert {s[1] for s in slots} == {0, 1, 2, 3}
        # each (band, channel) combination appears exactly once
        assert set(slots) == {(b, c) for b in ("HL", "LH", "HH") for c in range(4)}

    def test_orientation_angles(self):
        assert ORIENTATIONS[:2] == (0.0, 0.0)
        assert ORIENTATIONS[2] == ORIENTATIONS[3] == np.pi / 2
        assert ORIENTATIONS[4] == np.pi / 4
        assert ORIENTATIONS[5] == 3 * np.pi / 4


class TestChannelTable:
    def test_channel_enumeration(self):
        assert set(CHANNEL_SHIFTS) == {(0, 0), (0, 1), (1, 0), (1, 1)}
        table = build_channel_table(P3, (64, 64), 2)
        chx4, chy4 = table.channel(3)
        assert chx4.params.tau == 0.5 and chy4.params.tau == 0.5

    def test_reuses_two_designs_per_axis(self):
        table = build_channel_table(P3, (64, 64), 2)
        # square images share the axis designs outright
        assert table.x_filters is table.y_filters
        assert table.channel(0)[0] is table.channel(1)[0]

    def test_prefilter_dc(self):
        table = build_channel_table(P3, (64, 64), 2)
        chx, chy = table.channel(0)
        assert chx.prefilter.values[0] == pytest.approx(1.0)
        assert chy.prefilter.values[0] == pytest.approx(1.0)


class TestFullTransform2D:
    @pytest.mark.parametrize("alpha", [2.0, 3.0, 6.0])
    @pytest.mark.parametrize("size,levels", [(64, 1), (64, 2), (128, 2)])
    def test_perfect_reconstruction(self, alpha, size, levels):
        table = build_channel_table(SplineParams(alpha, 0.0), (size, size), levels)
        img = RNG.standard_normal((size, size))
        rec = dtcwt2d_inverse(dtcwt2d_forward(img, table), table)
        assert np.max(np.abs(rec - img)) <= 1e-10

    def test_rectangular_image(self):
        table = build_channel_table(P3, (64, 32), 1)
        img = RNG.standard_normal((64, 32))
        rec = dtcwt2d_inverse(dtcwt2d_forward(img, table), table)
        assert np.max(np.abs(rec - img)) <= 1e-10

    def test_constant_image(self):
        table = build_channel_table(P3, (64, 64), 2)
        pyr = dtcwt2d_forward(np.ones((64, 64)), table)
        assert max(np.max(np.abs(wk)) for lvl in pyr.w for wk in lvl) <= 1e-12

    def test_subband_counts_and_shapes(self):
        table = build_channel_table(P3, (64, 64), 2)
        pyr = dtcwt2d_forward(RNG.standard_normal((64, 64)), table)
        assert len(pyr.lowpass) == 4 and pyr.levels == 2
        assert all(len(lvl) == 6 for lvl in pyr.w)
        assert pyr.w[0][0].shape == (32, 32) and pyr.w[1][0].shape == (16, 16)
        # 4x redundancy: 4 lowpass + 12 reals worth of complex per level
        count = sum(a.size for a in pyr.lowpass) + 2 * sum(
            wk.size for lvl in pyr.w for wk in lvl)
        assert count == 4 * 64 * 64

    def test_linearity_of_round_trip(self):
        table = build_channel_table(P3, (64, 64), 1)
        a = RNG.standard_normal((64, 64))
        b = RNG.standard_normal((64, 64))
        ra = dtcwt2d_inverse(dtcwt2d_forward(a, table), table)
        rb = dtcwt2d_inverse(dtcwt2d_forward(b, table), table)
        rc = dtcwt2d_inverse(dtcwt2d_forward(a + 2.0 * b, table), table)
        np.testing.assert_allclose(rc, ra + 2.0 * rb, atol=1e-10)

    def test_zero_pyramid(self):
        table = build_channel_table(P3, (64, 64), 1)
        pyr = dtcwt2d_forward(np.zeros((64, 64)), table)
        assert np.max(np.abs(dtcwt2d_inverse(pyr, table))) == 0.0

    def test_dim_mismatch(self):
        table = build_channel_table(P3, (64, 64), 1)
        with pytest.raises(ValueError):
            dtcwt2d_forward(np.zeros((32, 32)), table)


    def test_non_finite_image_rejected(self):
        table = build_channel_table(P3, (64, 64), 1)
        for bad in (np.nan, np.inf, -np.inf):
            img = RNG.standard_normal((64, 64))
            img[7, 9] = bad
            with pytest.raises(ValueError, match="non-finite"):
                dtcwt2d_forward(img, table)

    @pytest.mark.parametrize("where", ["lowpass", "subband"])
    def test_non_finite_pyramid_rejected(self, where):
        table = build_channel_table(P3, (64, 64), 2)
        pyr = dtcwt2d_forward(RNG.standard_normal((64, 64)), table)
        if where == "lowpass":
            pyr.lowpass[2][1, 1] = np.nan
        else:
            pyr.w[1][4][0, 3] = complex(0.0, np.inf)
        with pytest.raises(ValueError, match="non-finite"):
            dtcwt2d_inverse(pyr, table)


def _separable_forward(img, table):
    """The per-axis algorithm: project each channel with one 2D FFT pair,
    then per level run the 1D analysis kernel along x and then along y."""
    bands = []
    lows = []
    for n in range(4):
        chx, chy = table.channel(n)
        c = project(img, chx.prefilter, chy.prefilter, axes=(0, 1))
        per_level = []
        for lfx, lfy in zip(chx.levels, chy.levels):
            lx, hx = analyze_level(c, lfx.h_tilde, lfx.g_tilde, axis=0)
            c, lh = analyze_level(lx, lfy.h_tilde, lfy.g_tilde, axis=1)
            hl, hh = analyze_level(hx, lfy.h_tilde, lfy.g_tilde, axis=1)
            per_level.append({"HL": hl, "LH": lh, "HH": hh})
        bands.append(per_level)
        lows.append(c)
    w = tuple(
        mix_subbands(tuple(bands[ch][i][band] for band, ch in _ZETA_SLOTS),
                     tuple(bands[ch][i][band] for band, ch in _XI_SLOTS))
        for i in range(table.levels))
    return lows, w


class TestAgainstSeparableReference:
    """The spectral 2D transform against the per-axis algorithm built from
    transform1d's public kernels."""

    @pytest.mark.parametrize("alpha,tau,shape,levels", [
        (3.0, 0.0, (64, 64), 2),
        (3.0, 2.5, (64, 256), 4),   # rectangular, maximum levels for 64
        (2.0, 0.3, (128, 32), 3),   # maximum levels for 32
        (6.0, -0.7, (32, 32), 3),
    ])
    def test_matches_reference(self, alpha, tau, shape, levels):
        table = build_channel_table(SplineParams(alpha, tau), shape, levels)
        img = RNG.standard_normal(shape)
        pyr = dtcwt2d_forward(img, table)
        lows, w = _separable_forward(img, table)
        scale = max(np.max(np.abs(a)) for a in lows)
        for got, want in zip(pyr.lowpass, lows):
            assert np.max(np.abs(got - want)) <= 1e-13 * scale
        scale = max(np.max(np.abs(wk)) for lvl in w for wk in lvl)
        for lvl_got, lvl_want in zip(pyr.w, w):
            for got, want in zip(lvl_got, lvl_want):
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) <= 1e-13 * scale
        rec = dtcwt2d_inverse(pyr, table)
        assert np.max(np.abs(rec - img)) <= 1e-12


class TestFFTCount:
    @pytest.mark.parametrize("shape,levels", [((64, 64), 1), ((64, 128), 3), ((128, 128), 4)])
    def test_round_trip_call_count(self, monkeypatch, shape, levels):
        calls = []
        for name in np.fft.__all__:
            fn = getattr(np.fft, name)
            if callable(fn) and "freq" not in name and "shift" not in name:
                def counted(*args, _fn=fn, _name=name, **kwargs):
                    calls.append(_name)
                    return _fn(*args, **kwargs)
                monkeypatch.setattr(np.fft, name, counted)
        table = build_channel_table(P3, shape, levels)
        img = RNG.standard_normal(shape)
        calls.clear()
        rec = dtcwt2d_inverse(dtcwt2d_forward(img, table), table)
        assert np.max(np.abs(rec - img)) <= 1e-12
        # one image DFT; per channel three subbands per level and one residue
        assert len(calls) == 2 * (1 + 4 * (3 * levels + 1))


class TestHalfSpectrumPath:
    def test_round_trip_calls_only_real_ffts(self, monkeypatch):
        calls = []
        for name in np.fft.__all__:
            fn = getattr(np.fft, name)
            if callable(fn) and "freq" not in name and "shift" not in name:
                def counted(*args, _fn=fn, _name=name, **kwargs):
                    calls.append(_name)
                    return _fn(*args, **kwargs)
                monkeypatch.setattr(np.fft, name, counted)
        table = build_channel_table(P3, (64, 128), 3)
        img = RNG.standard_normal((64, 128))
        calls.clear()
        dtcwt2d_forward(img, table)
        assert set(calls) == {"rfft2", "irfft2"} and calls[0] == "rfft2"
        assert calls.count("rfft2") == 1
        calls.clear()
        dtcwt2d_inverse(dtcwt2d_forward(RNG.standard_normal((64, 128)), table), table)
        assert set(calls) == {"rfft2", "irfft2"}


class TestSampleCheck:
    """The check on the imaginary residue that irfft2 drops."""

    SHAPE = (16, 32)

    def test_valid_spectrum_passes(self):
        img = RNG.standard_normal(self.SHAPE)
        out = _samples(np.fft.rfft2(img), self.SHAPE)
        assert np.max(np.abs(out - img)) <= 1e-15 * np.max(np.abs(img))

    @pytest.mark.parametrize("column", [0, 16])  # DC and Nyquist columns
    @pytest.mark.parametrize("row", [0, 3])
    def test_anti_hermitian_content_raises(self, column, row):
        spec = np.fft.rfft2(RNG.standard_normal(self.SHAPE))
        spec[row, column] += 1e-6j * spec.size
        with pytest.raises(AssertionError, match="imaginary residue"):
            _samples(spec, self.SHAPE)

    def test_hermitian_content_passes(self):
        # a conjugate pair along x in the Nyquist column is real content
        spec = np.fft.rfft2(RNG.standard_normal(self.SHAPE))
        z = 3.0 + 4.0j
        spec[3, 16] += z
        spec[-3, 16] += np.conj(z)
        assert np.isfinite(_samples(spec, self.SHAPE)).all()

    def test_bound_covers_dropped_residue(self):
        spec = np.fft.rfft2(RNG.standard_normal(self.SHAPE))
        spec[:, [0, 16]] += 1e-3j * RNG.standard_normal((16, 2))
        full = np.empty((16, 32), dtype=complex)
        full[:, :17] = spec
        full[:, 17:] = np.conj(spec[(-np.arange(16)) % 16][:, 15:0:-1])
        dropped = np.max(np.abs(np.fft.ifft2(full).imag))
        assert 0 < dropped <= _dropped_imag_bound(spec, self.SHAPE)


class TestMixingMatrices:
    def test_identity_slots_are_read_only_views(self):
        w = mix_subbands([RNG.standard_normal((4, 4)) for _ in range(6)],
                         [RNG.standard_normal((4, 4)) for _ in range(6)])
        zeta, xi = unmix_subbands(w)
        assert np.shares_memory(zeta[0], w[0]) and np.shares_memory(xi[3], w[3])
        with pytest.raises(ValueError):
            zeta[0][0, 0] = 1.0
        assert not np.shares_memory(zeta[4], w[4])  # scaled slots are new arrays


class TestOrientationSelectivity:
    @pytest.mark.parametrize("angle,freq", [
        (0, (1, 0)), (1, (0, 1)), (2, (1, 1)), (3, (-1, 1))])
    def test_plane_wave_energy(self, angle, freq):
        size = 64
        table = build_channel_table(P3, (size, size), 2)
        w1 = 2.0 * np.pi * 26 / size
        xx, yy = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
        img = np.cos(w1 * (freq[0] * xx + freq[1] * yy))
        pyr = dtcwt2d_forward(img, table)
        e = np.array([sum(float(np.sum(np.abs(lvl[k]) ** 2)) for lvl in pyr.w)
                      for k in range(6)])
        groups = ((0, 1), (2, 3), (4,), (5,))
        fracs = [np.sum(e[list(g)]) / np.sum(e) for g in groups]
        assert fracs[angle] > 0.9
        assert all(f < 0.05 for i, f in enumerate(fracs) if i != angle)


class TestRenders:
    def test_equal_component_norms(self):
        for k in range(1, 7):
            _, f = render_wavelet2d(k, P3)
            nr, ni = np.linalg.norm(f.real), np.linalg.norm(f.imag)
            assert abs(nr / ni - 1.0) <= 1e-8

    def test_invalid_orientation(self):
        with pytest.raises(ValueError):
            render_wavelet2d(0, P3)
        with pytest.raises(ValueError):
            render_wavelet2d(7, P3)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_quadrant_support(self, k):
        assert quadrant_energy_fraction(k, P3) <= 1e-8

    def test_psi1_approximates_shifted_psi2(self):
        devs = []
        for alpha in (3.0, 6.0):
            p = SplineParams(alpha, 0.0)
            x, f1 = render_wavelet2d(1, p)
            _, f2 = render_wavelet2d(2, p)
            shift = int(round(0.5 / (x[1] - x[0])))
            dev = np.max(np.abs(f1 - np.roll(f2, -shift, axis=1)))
            devs.append(dev / np.max(np.abs(f1)))
        assert devs[0] < 0.01 and devs[1] < devs[0]


class TestDirectionalHT:
    @pytest.mark.parametrize("k", range(1, 7))
    def test_relation_holds(self, k):
        assert directional_ht_check(k, P3) <= 1e-10

    def test_wrong_angle_fails(self):
        # applying the k=1 multiplier with the axis rotated by 90 degrees
        # must not satisfy the relation (sanity check of the oracle)
        from gaborwt.transform2d import _hat2d
        w = np.linspace(-24.0, 24.0, 256)
        hat_p = _hat2d(1, P3, w, w)
        hat_m = _hat2d(1, P3, -w, -w)
        re_hat = 0.5 * (hat_p + np.conj(hat_m))
        im_hat = (hat_p - np.conj(hat_m)) / 2j
        proj = np.add.outer(0.0 * w, w)  # u rotated to the y axis
        mask = np.abs(proj) > 1e-9
        dev = np.abs(im_hat + 1j * np.sign(proj) * re_hat)
        assert np.max(dev[mask]) > 1e-2
