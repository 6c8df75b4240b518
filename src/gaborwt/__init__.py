"""Gabor-like dual-tree complex wavelet transforms on fractional B-splines.

Exact Hilbert-transform pairs of semi-orthogonal spline wavelet bases
and the 1D/2D dual-tree complex transforms built from them, with
FFT-based perfect-reconstruction filter banks, Gabor-limit analysis and
file codecs for signals, images and pyramids.
"""

from .spline_core import (
    SplineParams, FrequencyGrid, ComplexResponse,
    frac_power, bspline_ft, refinement_ft, fd_ft, ht_filter, autocorr_ft,
)
from .filter_design import (
    ChannelFilters, DualTreeDesign, design_channel, design_dual_tree,
    ht_pair_channel, verify_pr, prefilter_response, analytic_filter,
)
from .transform1d import (
    Signal1D, Pyramid1D, project, unproject, analyze_level, synthesize_level,
    dtcwt1d_forward, dtcwt1d_inverse, render_wavelet, render_scaling,
)
from .transform2d import (
    ChannelTable, Pyramid2D, ORIENTATIONS,
    build_channel_table, mix_subbands, unmix_subbands,
    dtcwt2d_forward, dtcwt2d_inverse, render_wavelet2d,
    directional_ht_check, quadrant_energy_fraction,
)
from .gabor_analysis import (
    GaborConstants, gabor1d, gaussian_limit, gabor2d,
    uncertainty_product, sup_deviation_1d, sup_deviation_2d, convergence_report,
)
from .verify import CheckResult, run_all, format_report

__version__ = "0.1.0"
