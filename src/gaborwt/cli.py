"""Command-line front end.

Commands: xform1d, ixform1d, xform2d, ixform2d, render, verify,
gabor-compare.  Exit codes: 0 success, 1 verification failure, 2 usage
or I/O error, 3 internal error (a numerical invariant of the transform
failed, e.g. an imaginary residue).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .filter_design import design_dual_tree
from .gabor_analysis import convergence_report
from .io import (
    read_image, read_signal, save_pyramid1d, save_pyramid2d,
    load_pyramid1d, load_pyramid2d, write_image, write_pfm,
    write_pgm_preview, write_signal,
)
from .spline_core import SplineParams
from .transform1d import Signal1D, dtcwt1d_forward, dtcwt1d_inverse, render_wavelet
from .transform2d import build_channel_table, dtcwt2d_forward, dtcwt2d_inverse, render_wavelet2d
from .verify import format_report, run_all

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _spline_args(sp, tau_default=0.0):
    sp.add_argument("--alpha", type=float, required=True, help="spline degree (>= 0)")
    sp.add_argument("--tau", type=float, default=tau_default, help="spline shift")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gaborwt",
        description="Gabor-like dual-tree complex wavelet transforms on fractional B-splines",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("xform1d", help="forward 1D transform of a stored signal")
    _spline_args(sp)
    sp.add_argument("--levels", type=int, default=3)
    sp.add_argument("--in", dest="in_path", required=True)
    sp.add_argument("--out", dest="out_path", required=True, help="output pyramid directory")
    sp.add_argument("--format", choices=("csv", "raw"), default=None, help="input signal format")

    sp = sub.add_parser("ixform1d", help="inverse 1D transform of a stored pyramid")
    sp.add_argument("--in", dest="in_path", required=True, help="pyramid directory")
    sp.add_argument("--out", dest="out_path", required=True)
    sp.add_argument("--format", choices=("csv", "raw"), default="csv", help="output signal format")

    sp = sub.add_parser("xform2d", help="forward 2D transform of a stored image")
    _spline_args(sp)
    sp.add_argument("--levels", type=int, default=2)
    sp.add_argument("--in", dest="in_path", required=True, help="PGM or raw image")
    sp.add_argument("--out", dest="out_path", required=True, help="output pyramid directory")

    sp = sub.add_parser("ixform2d", help="inverse 2D transform of a stored pyramid")
    sp.add_argument("--in", dest="in_path", required=True, help="pyramid directory")
    sp.add_argument("--out", dest="out_path", required=True)
    sp.add_argument("--format", choices=("raw", "pgm"), default="raw", help="output image format")

    sp = sub.add_parser("render", help="render a dense analytic wavelet")
    _spline_args(sp)
    sp.add_argument("--orientation", type=int, default=0,
                    help="0 for the 1D wavelet, 1..6 for a 2D directional wavelet")
    sp.add_argument("--length", type=int, default=None, help="grid samples per axis")
    sp.add_argument("--octaves", type=int, default=None, help="sample density 2^-octaves")
    sp.add_argument("--out", dest="out_path", required=True,
                    help="CSV output (1D) or PFM output (2D)")
    sp.add_argument("--format", choices=("csv", "pfm", "pgm"), default=None)

    sp = sub.add_parser("verify", help="run the full numerical verification suite")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", dest="out_path", default=None,
                    help="optional CSV dump of the analytic filter magnitude")
    sp.add_argument("--json", action="store_true",
                    help="print one JSON object per check instead of the report")

    sp = sub.add_parser("gabor-compare", help="tabulate Gabor convergence per degree")
    sp.add_argument("--alphas", default="3,4,6,10", help="comma-separated increasing degrees")
    sp.add_argument("--tau", type=float, default=0.0)
    sp.add_argument("--out", dest="out_path", required=True, help="CSV report path")

    return ap


# built once: argparse reads but never changes a parser while parsing
_PARSER = _build_parser()


def cmd_xform1d(args) -> int:
    p = SplineParams(args.alpha, args.tau)
    f = Signal1D(read_signal(args.in_path, args.format))
    design = design_dual_tree(p, f.n, args.levels)
    save_pyramid1d(args.out_path, dtcwt1d_forward(f, design), p)
    print(f"wrote pyramid to {args.out_path}")
    return EXIT_OK


def cmd_ixform1d(args) -> int:
    pyr, p, levels = load_pyramid1d(args.in_path)
    design = design_dual_tree(p, pyr.signal_len, levels)
    write_signal(args.out_path, dtcwt1d_inverse(pyr, design).samples, args.format)
    print(f"wrote signal to {args.out_path}")
    return EXIT_OK


def cmd_xform2d(args) -> int:
    p = SplineParams(args.alpha, args.tau)
    img = read_image(args.in_path)
    table = build_channel_table(p, img.shape, args.levels)
    save_pyramid2d(args.out_path, dtcwt2d_forward(img, table), p)
    print(f"wrote pyramid to {args.out_path}")
    return EXIT_OK


def cmd_ixform2d(args) -> int:
    pyr, p, levels = load_pyramid2d(args.in_path)
    table = build_channel_table(p, pyr.shape, levels)
    write_image(args.out_path, dtcwt2d_inverse(pyr, table), args.format)
    print(f"wrote image to {args.out_path}")
    return EXIT_OK


def cmd_render(args) -> int:
    p = SplineParams(args.alpha, args.tau)
    if args.orientation == 0:
        n = args.length or 1 << 12
        octaves = args.octaves if args.octaves is not None else 6
        x, psi = render_wavelet(p, n, octaves)
        with open(args.out_path, "w") as fh:
            fh.write("x,real,imag\n")
            for xi, v in zip(x, psi):
                fh.write(f"{xi:.8f},{v.real:.12e},{v.imag:.12e}\n")
    else:
        n = args.length or 1 << 9
        octaves = args.octaves if args.octaves is not None else 4
        _, field = render_wavelet2d(args.orientation, p, n, octaves)
        write_pfm(args.out_path, np.abs(field))
        if args.format == "pgm":
            write_pgm_preview(str(Path(args.out_path).with_suffix(".pgm")), field)
    print(f"wrote render to {args.out_path}")
    return EXIT_OK


def cmd_verify(args) -> int:
    results = run_all(seed=args.seed, analytic_data_path=args.out_path)
    if args.json:
        for r in results:
            print(json.dumps(dataclasses.asdict(r)))
    else:
        print(format_report(results))
    return EXIT_OK if all(r.passed for r in results) else EXIT_CHECK_FAILED


def cmd_gabor_compare(args) -> int:
    alphas = [float(a) for a in args.alphas.split(",") if a.strip()]
    rows = convergence_report(alphas, tau=args.tau, csv_path=args.out_path)
    for alpha, dev, up in rows:
        print(f"alpha={alpha:g}  sup_deviation={dev:.5f}  uncertainty={up:.6f}")
    print(f"wrote report to {args.out_path}")
    return EXIT_OK


_HANDLERS = {
    "xform1d": cmd_xform1d,
    "ixform1d": cmd_ixform1d,
    "xform2d": cmd_xform2d,
    "ixform2d": cmd_ixform2d,
    "render": cmd_render,
    "verify": cmd_verify,
    "gabor-compare": cmd_gabor_compare,
}


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
