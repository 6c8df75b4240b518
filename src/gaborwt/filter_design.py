"""Semi-orthogonal spline channel filters and their Hilbert-pair partners.

A channel bundles the four perfect-reconstruction filters of one
decimated wavelet decomposition (analysis lowpass/highpass ``h_tilde``,
``g_tilde`` and synthesis ``h``, ``g``), sampled on the DFT grid of every
pyramid level, together with the projection pre-filter.  The responses
are 2*pi-periodic, so they are evaluated once, on the signal's n-grid:
level i holds every 2^i-th bin of level 0.  The second
dual-tree channel is obtained from the first by modulation with the
discrete Hilbert filter, which shifts the underlying spline by half a
sample and preserves perfect reconstruction exactly.

Closed forms (z = e^{jw}):

    h_tilde(z) = refinement filter of beta^a_t
    g_tilde(z) = z * A(-z) * h_tilde(-1/z)
    h(z)       = h_tilde(z) * A(z) / A(z^2)
    g(z)       = g_tilde(z) / (A(z^2) * A(-z))
    p(z)       = beta^(w) / A(z)          (dual-spline projection filter)

where A is the autocorrelation filter.  Dual-tree pairs are cached per
(alpha, tau, n, levels) so a design is built once per signal length.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .spline_core import (
    ComplexResponse,
    FrequencyGrid,
    SplineParams,
    autocorr_ft,
    bspline_ft,
    fd_ft,
    refinement_ft,
)

__all__ = [
    "LevelFilters",
    "ChannelFilters",
    "DualTreeDesign",
    "design_channel",
    "ht_pair_channel",
    "verify_pr",
    "prefilter_response",
    "analytic_filter",
    "design_dual_tree",
]

RIESZ_FLOOR = 1e-8


class RieszBoundError(ValueError):
    """Autocorrelation spectrum too close to zero for a stable design."""


@dataclass(frozen=True)
class LevelFilters:
    """The four PR filters of one pyramid level, on that level's grid."""

    h_tilde: ComplexResponse
    g_tilde: ComplexResponse
    h: ComplexResponse
    g: ComplexResponse

    @property
    def grid(self) -> FrequencyGrid:
        return self.h_tilde.grid


@dataclass(frozen=True)
class ChannelFilters:
    """Per-level analysis/synthesis filters plus the projection pre-filter.

    ``autocorr`` is A(w) on the level-0 grid.  It does not depend on tau,
    so the Hilbert partner's pre-filter divides by the same array.
    """

    params: SplineParams
    levels: tuple[LevelFilters, ...]
    prefilter: ComplexResponse
    autocorr: np.ndarray = field(repr=False, compare=False)


@dataclass(frozen=True)
class DualTreeDesign:
    """A matched pair of channels whose wavelets form an exact HT pair."""

    channel_a: ChannelFilters
    channel_b: ChannelFilters
    levels: int
    signal_len: int


def _validate_geometry(n: int, levels: int):
    if n < 4 or (n & (n - 1)) != 0:
        raise ValueError(f"signal length must be a power of two >= 4, got {n}")
    if levels < 1:
        raise ValueError("need at least one decomposition level")
    if n >> levels < 2 or levels > int(np.log2(n)) - 2:
        raise ValueError(
            f"too many levels ({levels}) for length {n}; need levels <= log2(n) - 2"
        )


def _autocorr_checked(alpha: float, omega: np.ndarray) -> np.ndarray:
    a = autocorr_ft(alpha, omega)
    if np.min(a) < RIESZ_FLOOR:
        bad = int(np.argmin(a))
        raise RieszBoundError(
            f"autocorrelation {a[bad]:.3e} below {RIESZ_FLOOR} at omega={omega[bad]:.6f}"
        )
    return a


def _level_filters(p: SplineParams, grid: FrequencyGrid, a_w: np.ndarray) -> LevelFilters:
    """The four filters on ``grid``, given ``a_w`` = A(w) on it."""
    w = grid.omega
    a_mirror = _autocorr_checked(p.alpha, w + np.pi)
    a_dil = _autocorr_checked(p.alpha, 2.0 * w)

    ht = refinement_ft(p, w)
    # h_tilde(-1/z) is the closed form at frequency pi - w
    gt = np.multiply(1j, w)
    np.exp(gt, out=gt)
    gt *= a_mirror
    gt *= refinement_ft(p, np.pi - w)
    h = ht * a_w
    h /= a_dil
    a_dil *= a_mirror  # A(2w) A(w+pi); the A arrays are released once g is formed
    del a_mirror
    g = gt / a_dil
    del a_dil
    return LevelFilters(
        h_tilde=ComplexResponse(grid, ht, real_time_domain=True),
        g_tilde=ComplexResponse(grid, gt, real_time_domain=True),
        h=ComplexResponse(grid, h, real_time_domain=True),
        g=ComplexResponse(grid, g, real_time_domain=True),
    )


def prefilter_response(p: SplineParams, grid: FrequencyGrid,
                       autocorr: np.ndarray | None = None) -> ComplexResponse:
    """Projection pre-filter P = dual-spline spectrum beta^/A on ``grid``.

    ``autocorr`` is A on ``grid`` when the caller has it already (a design
    evaluates A(w) once for both channels); otherwise it is evaluated here.

    The continuous definition only covers the open interval (-pi, pi); a
    real filter on an even grid must have a real Nyquist response, so the
    Nyquist bin's phase e^{-j pi tau} is flattened to its nearest real
    value (sign of cos(pi*tau), +1 at the half-integer ambiguity).  The
    response has no zero bins, which makes the projection invertible.
    """
    w = grid.omega
    if autocorr is None:
        autocorr = _autocorr_checked(p.alpha, w)
    vals = bspline_ft(p, w)
    vals /= autocorr
    c = np.cos(np.pi * p.tau)
    sign = 1.0 if abs(c) < 1e-12 else np.sign(c)
    vals[grid.n // 2] = sign * np.abs(vals[grid.n // 2])
    return ComplexResponse(grid, vals, real_time_domain=True)


def _all_levels(lf0: LevelFilters, grids) -> tuple[LevelFilters, ...]:
    """The filters on each of ``grids``, the n/2^i-grid of level i: level
    0's responses on every 2^i-th bin, which is the closed form sampled
    on that grid.  They are stored contiguous: as strided views they made
    the 1D kernels about 1% slower."""
    def sample(r: ComplexResponse, grid: FrequencyGrid) -> ComplexResponse:
        return ComplexResponse(grid, np.ascontiguousarray(r.values[::lf0.grid.n // grid.n]), True)
    return tuple(LevelFilters(*(sample(r, grid) for r in (lf0.h_tilde, lf0.g_tilde, lf0.h, lf0.g)))
                 for grid in grids)


def design_channel(p: SplineParams, n: int, levels: int) -> ChannelFilters:
    """Build the semi-orthogonal spline channel for an n-sample signal.

    The pre-filter and level 0 share one n-grid and one evaluation of
    A(w) on it.  Uncached: designs are cached whole, as dual-tree pairs,
    by :func:`design_dual_tree`.  Raises RieszBoundError when the
    autocorrelation spectrum drops below the stability floor.
    """
    _validate_geometry(n, levels)
    grids = [FrequencyGrid(n >> i) for i in range(levels)]
    a_w = _autocorr_checked(p.alpha, grids[0].omega)
    return ChannelFilters(p, _all_levels(_level_filters(p, grids[0], a_w), grids),
                          prefilter_response(p, grids[0], a_w), a_w)


def ht_pair_channel(ch: ChannelFilters) -> ChannelFilters:
    """Channel of the half-shifted spline, obtained by HT modulation.

    g_tilde' = D(z) g_tilde, g' = D(z) g (highpass pair), while the
    lowpass filters pick up the conjugate-mirrored factor D(-1/z), which
    equals the half-sample delay e^{-jw/2} on the open interval.  Level 0
    is modulated and the coarser levels subsampled from it; the pre-filter
    is rebuilt for the shifted spline, on the same A(w).  Bin-wise identical
    (to ~1e-15) to a direct design at tau + 1/2.
    """
    p2 = ch.params.half_shifted()
    lf = ch.levels[0]
    w = lf.grid.omega
    d = fd_ft(0.0, -0.5, w)
    d_mirror = fd_ft(0.0, -0.5, np.pi - w)  # D(-e^{-jw})
    level0 = LevelFilters(
        h_tilde=ComplexResponse(lf.grid, d_mirror * lf.h_tilde.values, True),
        g_tilde=ComplexResponse(lf.grid, d * lf.g_tilde.values, True),
        h=ComplexResponse(lf.grid, d_mirror * lf.h.values, True),
        g=ComplexResponse(lf.grid, d * lf.g.values, True),
    )
    return ChannelFilters(p2, _all_levels(level0, [level.grid for level in ch.levels]),
                          prefilter_response(p2, lf.grid, ch.autocorr), ch.autocorr)


def verify_pr(ch: ChannelFilters) -> float:
    """Max deviation from the two perfect-reconstruction identities.

    Per level and bin (z = e^{jw}):
        |g(1/z) g_tilde(z) + h(1/z) h_tilde(z) - 1|     (transfer)
        |g(1/z) g_tilde(-z) + h(1/z) h_tilde(-z)|        (alias)

    The filters are real, so the 1/z responses are bin-wise conjugates.
    """
    worst = 0.0
    for lf in ch.levels:
        n = lf.grid.n
        mirror = (np.arange(n) + n // 2) % n
        hs = np.conj(lf.h.values)
        gs = np.conj(lf.g.values)
        transfer = gs * lf.g_tilde.values + hs * lf.h_tilde.values - 1.0
        alias = gs * lf.g_tilde.values[mirror] + hs * lf.h_tilde.values[mirror]
        worst = max(worst, np.max(np.abs(transfer)), np.max(np.abs(alias)))
    return float(worst)


def analytic_filter(design: DualTreeDesign) -> ComplexResponse:
    """Combined projection/wavelet filter P_a = P g_tilde + j P' g_tilde'.

    One-sided: |P_a| vanishes on the negative-frequency bins and at DC
    (the Nyquist bin is excluded from that statement; it carries the
    grid's phase-flattening convention).
    """
    cha, chb = design.channel_a, design.channel_b
    vals = (
        cha.prefilter.values * cha.levels[0].g_tilde.values
        + 1j * chb.prefilter.values * chb.levels[0].g_tilde.values
    )
    return ComplexResponse(cha.prefilter.grid, vals)


@functools.lru_cache(maxsize=64)
def _design_dual_tree_cached(alpha: float, tau: float, n: int, levels: int) -> DualTreeDesign:
    cha = design_channel(SplineParams(alpha, tau), n, levels)
    return DualTreeDesign(cha, ht_pair_channel(cha), levels, n)


def design_dual_tree(p: SplineParams, n: int, levels: int) -> DualTreeDesign:
    """Dual-tree pair: direct design at tau plus its HT-modulated partner.

    The pair is cached per (alpha, tau, n, levels): the package's one
    design cache, so a design is built once per signal length.
    """
    return _design_dual_tree_cached(p.alpha, p.tau, n, levels)
