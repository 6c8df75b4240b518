import json

import numpy as np
import pytest

from gaborwt.cli import main
from gaborwt.filter_design import design_dual_tree
from gaborwt.io import (
    load_pyramid1d,
    load_pyramid2d,
    read_image,
    read_pfm,
    read_signal,
    save_pyramid1d,
    save_pyramid2d,
    write_image,
    write_pfm,
    write_pgm_preview,
    write_signal,
)
from gaborwt.spline_core import SplineParams
from gaborwt.transform1d import Signal1D, dtcwt1d_forward
from gaborwt.transform2d import build_channel_table, dtcwt2d_forward

RNG = np.random.default_rng(11)


class TestSignalCodec:
    def test_csv_round_trip_bit_exact(self, tmp_path):
        sig = RNG.standard_normal(64)
        path = tmp_path / "s.csv"
        write_signal(path, sig, "csv")
        got = read_signal(path)
        assert np.array_equal(got, sig)

    def test_raw_round_trip_bit_exact(self, tmp_path):
        sig = RNG.standard_normal(64)
        path = tmp_path / "s.f8"
        write_signal(path, sig, "raw")
        assert np.array_equal(read_signal(path), sig)

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            write_signal(tmp_path / "x", np.zeros(4), "xml")


class TestImageCodec:
    def test_raw_sidecar_round_trip(self, tmp_path):
        img = RNG.standard_normal((16, 32))
        path = tmp_path / "img.f8"
        write_image(path, img, "raw")
        assert np.array_equal(read_image(path), img)
        side = json.loads((tmp_path / "img.f8.json").read_text())
        assert side["width"] == 32 and side["height"] == 16

    def test_pgm_16bit_round_trip(self, tmp_path):
        img = RNG.random((8, 8))
        path = tmp_path / "img.pgm"
        write_image(path, img, "pgm")
        got = read_image(path)
        # values land in [0, 1] with 16-bit quantization of the range
        assert got.shape == (8, 8)
        assert np.min(got) >= 0.0 and np.max(got) <= 1.0
        scaled = (img - img.min()) / (img.max() - img.min())
        np.testing.assert_allclose(got, scaled, atol=1.0 / 65535)

    def test_pgm_8bit(self, tmp_path):
        img = np.linspace(0.0, 1.0, 64).reshape(8, 8)
        path = tmp_path / "img.pgm"
        write_image(path, img, "pgm", maxval=255)
        got = read_image(path)
        np.testing.assert_allclose(got, img, atol=1.0 / 255)

    def test_pfm_round_trip(self, tmp_path):
        img = RNG.standard_normal((12, 20))
        path = tmp_path / "f.pfm"
        write_pfm(path, img)
        got = read_pfm(path)
        np.testing.assert_allclose(got, img, atol=1e-6)
        assert (tmp_path / "f.pfm").read_bytes().startswith(b"Pf\n20 12\n-1.0\n")

    def test_pgm_preview_of_complex_field(self, tmp_path):
        field = RNG.standard_normal((8, 8)) + 1j * RNG.standard_normal((8, 8))
        write_pgm_preview(tmp_path / "p.pgm", field)
        got = read_image(tmp_path / "p.pgm")
        assert got.shape == (8, 8)


class TestPyramidCodec:
    def test_pyramid1d_round_trip_bit_exact(self, tmp_path):
        p = SplineParams(3.0, 0.25)
        d = design_dual_tree(p, 64, 2)
        pyr = dtcwt1d_forward(Signal1D(RNG.standard_normal(64)), d)
        save_pyramid1d(tmp_path / "pyr", pyr, p)
        got, params, levels = load_pyramid1d(tmp_path / "pyr")
        assert params == p and levels == 2
        assert np.array_equal(got.lowpass_a, pyr.lowpass_a)
        assert np.array_equal(got.lowpass_b, pyr.lowpass_b)
        for a, b in zip(got.w, pyr.w):
            assert np.array_equal(a, b)

    def test_pyramid2d_round_trip_bit_exact(self, tmp_path):
        p = SplineParams(3.0, 0.0)
        table = build_channel_table(p, (32, 32), 1)
        pyr = dtcwt2d_forward(RNG.standard_normal((32, 32)), table)
        save_pyramid2d(tmp_path / "pyr", pyr, p)
        got, params, levels = load_pyramid2d(tmp_path / "pyr")
        assert params == p and levels == 1
        for a, b in zip(got.lowpass, pyr.lowpass):
            assert np.array_equal(a, b)
        for la, lb in zip(got.w, pyr.w):
            for a, b in zip(la, lb):
                assert np.array_equal(a, b)

    def test_kind_checked(self, tmp_path):
        (tmp_path / "manifest.json").write_text('{"kind": "pyramid2d"}')
        with pytest.raises(ValueError):
            load_pyramid1d(tmp_path)


class TestCli:
    def test_xform1d_round_trip(self, tmp_path):
        sig = RNG.standard_normal(128)
        write_signal(tmp_path / "in.csv", sig, "csv")
        assert main(["xform1d", "--alpha", "3", "--tau", "0", "--levels", "2",
                     "--in", str(tmp_path / "in.csv"),
                     "--out", str(tmp_path / "pyr")]) == 0
        assert main(["ixform1d", "--in", str(tmp_path / "pyr"),
                     "--out", str(tmp_path / "out.csv")]) == 0
        got = read_signal(tmp_path / "out.csv")
        assert np.max(np.abs(got - sig)) <= 1e-10

    def test_xform2d_round_trip(self, tmp_path):
        img = RNG.standard_normal((32, 32))
        write_image(tmp_path / "in.f8", img, "raw")
        assert main(["xform2d", "--alpha", "3", "--tau", "0.25", "--levels", "1",
                     "--in", str(tmp_path / "in.f8"),
                     "--out", str(tmp_path / "pyr")]) == 0
        assert main(["ixform2d", "--in", str(tmp_path / "pyr"),
                     "--out", str(tmp_path / "out.f8")]) == 0
        got = read_image(tmp_path / "out.f8")
        assert np.max(np.abs(got - img)) <= 1e-10

    def test_render_1d_and_2d(self, tmp_path):
        assert main(["render", "--alpha", "6", "--tau", "0",
                     "--out", str(tmp_path / "psi.csv")]) == 0
        lines = (tmp_path / "psi.csv").read_text().splitlines()
        assert lines[0] == "x,real,imag" and len(lines) == (1 << 12) + 1
        assert main(["render", "--alpha", "6", "--tau", "0",
                     "--orientation", "5", "--length", "256", "--octaves", "3",
                     "--format", "pgm",
                     "--out", str(tmp_path / "psi5.pfm")]) == 0
        assert read_pfm(tmp_path / "psi5.pfm").shape == (256, 256)
        assert (tmp_path / "psi5.pgm").exists()

    def test_gabor_compare(self, tmp_path):
        out = tmp_path / "conv.csv"
        assert main(["gabor-compare", "--alphas", "3,6", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3

    def test_invalid_alpha_exits_2(self, tmp_path):
        write_signal(tmp_path / "in.csv", np.zeros(64), "csv")
        assert main(["xform1d", "--alpha", "-1", "--tau", "0",
                     "--in", str(tmp_path / "in.csv"),
                     "--out", str(tmp_path / "bad")]) == 2

    def test_non_power_of_two_input_exits_2(self, tmp_path):
        write_signal(tmp_path / "odd.csv", np.zeros(100), "csv")
        assert main(["xform1d", "--alpha", "3", "--tau", "0",
                     "--in", str(tmp_path / "odd.csv"),
                     "--out", str(tmp_path / "pyr")]) == 2

    def test_non_finite_image_exits_2(self, tmp_path, capsys):
        img = RNG.standard_normal((32, 32))
        img[3, 5] = np.nan
        write_image(tmp_path / "nan.f8", img, "raw")
        assert main(["xform2d", "--alpha", "3", "--tau", "0", "--levels", "1",
                     "--in", str(tmp_path / "nan.f8"),
                     "--out", str(tmp_path / "pyr")]) == 2
        assert "non-finite" in capsys.readouterr().err
        assert not (tmp_path / "pyr").exists()

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["xform1d"])  # missing required flags
        assert exc.value.code == 2

    @pytest.mark.parametrize("exc,code", [(AssertionError, 3), (ValueError, 2)])
    def test_internal_error_exit_code(self, tmp_path, monkeypatch, exc, code):
        def fail(*args):
            raise exc("injected")

        monkeypatch.setattr("gaborwt.cli.dtcwt1d_forward", fail)
        write_signal(tmp_path / "in.csv", np.zeros(64), "csv")
        assert main(["xform1d", "--alpha", "3", "--tau", "0", "--levels", "2",
                     "--in", str(tmp_path / "in.csv"),
                     "--out", str(tmp_path / "pyr")]) == code
