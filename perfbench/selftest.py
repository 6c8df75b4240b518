"""Tests of the benchmark itself: each check rejects a corrupted output,
and the tracer sees every binding and computes self times correctly.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/selftest.py
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import gaborwt  # noqa: E402
import gaborwt.cli  # noqa: E402
import gaborwt.io  # noqa: E402
import checks  # noqa: E402
from tracer import Tracer  # noqa: E402

N, LEVELS = 256, 3
P = gaborwt.SplineParams(3.0, 0.0)


@pytest.fixture(scope="module")
def design():
    return gaborwt.design_dual_tree(P, N, LEVELS)


def forward(x, design):
    return checks.pyramid1d_bands(gaborwt.dtcwt1d_forward(gaborwt.Signal1D(x), design))


@pytest.fixture(scope="module")
def outputs(design):
    rng = np.random.default_rng(7)
    f = rng.standard_normal(N)
    g = np.roll(f, 2 ** LEVELS)
    a, b = 1.5, -0.75
    return {
        "f": f, "a": a, "b": b,
        "t_f": forward(f, design), "t_g": forward(g, design),
        "t_c": forward(a * f + b * g, design),
        "restored": gaborwt.dtcwt1d_inverse(
            gaborwt.dtcwt1d_forward(gaborwt.Signal1D(f), design), design).samples,
        "shifts": checks.subband_shifts(2, 1, LEVELS),
    }


def perturbed(bands, which=3, index=5, eps=1e-9):
    out = [b.copy() for b in bands]
    out[which][index] += eps * checks._scale(bands)
    return out


class TestTransformChecks:
    def test_correct_output_passes(self, outputs):
        o = outputs
        assert checks.roundtrip_error(o["f"], o["restored"]) <= checks.ROUNDTRIP_TOL
        assert checks.linearity_error(o["t_c"], o["t_f"], o["t_g"], o["a"], o["b"]) <= checks.LINEARITY_TOL
        assert checks.shift_error(o["t_g"], o["t_f"], o["shifts"], (0,)) <= checks.SHIFT_TOL

    def test_perturbed_coefficient_fails_linearity(self, outputs):
        o = outputs
        err = checks.linearity_error(perturbed(o["t_c"]), o["t_f"], o["t_g"], o["a"], o["b"])
        assert err > checks.LINEARITY_TOL

    def test_perturbed_coefficient_fails_shift(self, outputs):
        o = outputs
        assert checks.shift_error(perturbed(o["t_g"]), o["t_f"], o["shifts"], (0,)) > checks.SHIFT_TOL

    def test_wrong_subband_shift_fails(self, outputs):
        o = outputs
        wrong = [s + 1 for s in o["shifts"]]
        assert checks.shift_error(o["t_g"], o["t_f"], wrong, (0,)) > checks.SHIFT_TOL

    def test_shifted_restored_signal_fails_roundtrip(self, outputs):
        o = outputs
        assert checks.roundtrip_error(o["f"], np.roll(o["restored"], 1)) > checks.ROUNDTRIP_TOL
        assert checks.roundtrip_error(o["f"], o["restored"][:-1]) == float("inf")


class TestDesignChecks:
    def test_correct_design_passes(self, design):
        errors = checks.design_errors(checks.channel_arrays(design.channel_a),
                                      checks.channel_arrays(design.channel_b))
        assert checks.design_ok(errors), errors

    @pytest.mark.parametrize("name", ["h_tilde", "g_tilde", "h", "g"])
    def test_perturbed_filter_bin_fails_pr(self, design, name):
        levels_a = checks.channel_arrays(design.channel_a)
        levels_b = checks.channel_arrays(design.channel_b)
        levels_a[1][name][9] += 1e-9
        errors = checks.design_errors(levels_a, levels_b)
        assert errors["pr"] > checks.PR_TOL
        assert not checks.design_ok(errors)

    @pytest.mark.parametrize("name", ["g", "g_tilde"])
    def test_perturbed_partner_bin_fails_ht(self, design, name):
        levels_a = checks.channel_arrays(design.channel_a)
        levels_b = checks.channel_arrays(design.channel_b)
        # the partner channel's bin no longer equals D times the first's
        levels_b[0][name][N // 4] *= 1.0 + 1e-9
        assert checks.design_errors(levels_a, levels_b)["ht"] > checks.HT_TOL

    def test_dc_gain_checked(self, design):
        levels_a = checks.channel_arrays(design.channel_a)
        levels_a[0]["h_tilde"][0] = 1.0 + 1e-9
        assert checks.design_errors(levels_a, checks.channel_arrays(design.channel_b))["dc"] > checks.DC_TOL

    def test_half_shift_operator(self):
        d = checks.half_shift_operator(8)
        w = checks.omega_grid(8)
        assert d[0] == 0 and d[4] == 1
        np.testing.assert_allclose(d[1], -1j * np.exp(0.5j * w[1]))
        np.testing.assert_allclose(d[7], 1j * np.exp(0.5j * w[7]))


class TestStoredPyramid2D:
    shape, levels = (64, 64), 2

    @pytest.fixture(scope="class")
    def stored(self, tmp_path_factory):
        img = np.random.default_rng(3).standard_normal(self.shape)
        table = gaborwt.build_channel_table(P, self.shape, self.levels)
        pyr = gaborwt.dtcwt2d_forward(img, table)
        out = tmp_path_factory.mktemp("pyr")
        gaborwt.io.save_pyramid2d(out, pyr, P)
        s = 2 ** self.levels
        shifted = gaborwt.dtcwt2d_forward(np.roll(img, (s, s), axis=(0, 1)), table)
        restored = gaborwt.dtcwt2d_inverse(pyr, table)
        return img, out, checks.pyramid2d_bands(shifted), restored

    def test_reads_every_band_and_counts_reals(self, stored):
        img, out, _, _ = stored
        bands, reals = checks.read_stored_pyramid2d(out)
        assert reals == checks.REDUNDANCY_2D * img.size
        assert len(bands) == 4 + 6 * self.levels

    def test_truncated_band_file_rejected(self, stored):
        img, out, _, _ = stored
        path = out / "w1_1.c16"
        data = path.read_bytes()
        try:
            path.write_bytes(data[:-16])
            with pytest.raises(ValueError):
                checks.read_stored_pyramid2d(out)
        finally:
            path.write_bytes(data)

    def test_shift_check_passes_and_rejects_perturbed(self, stored):
        _, out, shifted, _ = stored
        bands, _ = checks.read_stored_pyramid2d(out)
        shifts = checks.subband_shifts(4, 6, self.levels)
        assert checks.shift_error(shifted, bands, shifts, (0, 1)) <= checks.SHIFT_TOL
        bad = [b.copy() for b in bands]
        bad[6][3, 4] += 1e-9 * checks._scale(bands)
        assert checks.shift_error(shifted, bad, shifts, (0, 1)) > checks.SHIFT_TOL

    def test_shifted_restored_image_fails(self, stored):
        img, _, _, restored = stored
        assert checks.roundtrip_error(img.ravel(), restored.ravel()) <= checks.ROUNDTRIP_TOL
        assert checks.roundtrip_error(img.ravel(), np.roll(restored, 1, axis=1).ravel()) > checks.ROUNDTRIP_TOL


class TestTracer:
    def test_installed_at_every_binding_and_removed(self):
        originals = {
            "spline_core": gaborwt.spline_core.autocorr_ft,
            "filter_design": gaborwt.filter_design.autocorr_ft,
            "package": gaborwt.autocorr_ft,
            "cli": gaborwt.cli.dtcwt2d_forward,
            "numpy": np.fft.fft,
        }
        tracer = Tracer()
        tracer.install()
        try:
            assert gaborwt.filter_design.autocorr_ft is gaborwt.spline_core.autocorr_ft
            assert gaborwt.autocorr_ft is gaborwt.spline_core.autocorr_ft
            assert gaborwt.spline_core.autocorr_ft is not originals["spline_core"]
            assert gaborwt.cli.dtcwt2d_forward is gaborwt.transform2d.dtcwt2d_forward
            assert gaborwt.cli.dtcwt2d_forward is not originals["cli"]
            assert np.fft.fft is not originals["numpy"]
        finally:
            tracer.uninstall()
        assert gaborwt.spline_core.autocorr_ft is originals["spline_core"]
        assert gaborwt.filter_design.autocorr_ft is originals["filter_design"]
        assert gaborwt.autocorr_ft is originals["package"]
        assert gaborwt.cli.dtcwt2d_forward is originals["cli"]
        assert np.fft.fft is originals["numpy"]

    def test_counts_fft_calls_of_a_round_trip(self, design):
        tracer = Tracer()
        tracer.install()
        tracer.recording = True
        try:
            with tracer.operation():
                pyr = gaborwt.dtcwt1d_forward(gaborwt.Signal1D(np.ones(N)), design)
                gaborwt.dtcwt1d_inverse(pyr, design)
        finally:
            tracer.recording = False
            tracer.uninstall()
        # per channel: projection 2, each level 3 (analysis) and 3 (synthesis), unprojection 2
        assert tracer.fft_counts()["calls"] == 2 * (2 + 6 * LEVELS + 2)
        agg = tracer.aggregate()
        assert agg["transform1d.analyze_level"]["calls"] == 2 * LEVELS
        assert tracer.ops == 1

    def test_self_time_is_span_minus_children(self):
        tracer = Tracer()
        # parent [0, 10] with children [1, 3] and [4, 8]; grandchild [5, 6]
        for name, start, end, parent in (("p", 0, 10, -1), ("c", 1, 3, 0),
                                         ("c", 4, 8, 0), ("g", 5, 6, 2)):
            tracer._open(name)
            tracer._stack.pop()
            tracer.start[-1], tracer.end[-1], tracer.parent[-1] = start, end, parent
        agg = tracer.aggregate()
        assert agg["p"] == {"calls": 1, "s": 10.0, "self_s": 4.0}
        assert agg["c"] == {"calls": 2, "s": 6.0, "self_s": 5.0}
        assert agg["g"] == {"calls": 1, "s": 1.0, "self_s": 1.0}

    def test_nothing_recorded_while_paused(self, design):
        tracer = Tracer()
        tracer.install()
        tracer.recording = True
        try:
            with tracer.paused():
                gaborwt.dtcwt1d_forward(gaborwt.Signal1D(np.ones(N)), design)
        finally:
            tracer.recording = False
            tracer.uninstall()
        assert len(tracer.start) == 0 and not tracer.fft_log
