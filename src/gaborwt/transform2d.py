"""Four-channel separable 2D dual-tree transform with six oriented subbands.

Four separable biorthogonal decompositions are run in parallel, one per
combination of the two spline shifts (tau, tau + 1/2) on the two axes.
Their 12 highpass subbands per level are permuted into two 6-vectors
(zeta, xi) and mixed by the orthonormal block matrices Lambda_R and
Lambda_I into six complex subbands, each oriented along one of the
angles 0, 0, 90, 90, 45, 135 degrees.  The transform is 4x redundant
and exactly invertible.  Each channel is the tensor product of two 1D
decompositions: one level runs transform1d's kernels along axis 0 and
then along axis 1, and the projection applies both axes' pre-filters
with one 2D FFT pair.

Axis convention: images are indexed [x, y] (axis 0 is x, axis 1 is y).
HL denotes high-x/low-y, LH low-x/high-y.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .filter_design import ChannelFilters, design_dual_tree
from .spline_core import SplineParams, bspline_ft
from .transform1d import (
    analyze_level, project, render_scaling, render_wavelet, synthesize_level, unproject,
    _wavelet_hat,
)

__all__ = [
    "CHANNEL_SHIFTS",
    "ORIENTATIONS",
    "ChannelTable",
    "Pyramid2D",
    "MixingMatrices",
    "build_channel_table",
    "mix_subbands",
    "unmix_subbands",
    "dtcwt2d_forward",
    "dtcwt2d_inverse",
    "render_wavelet2d",
    "directional_ht_check",
    "quadrant_energy_fraction",
]

# channel n -> (x-shift index, y-shift index); 0 = tau, 1 = tau + 1/2
CHANNEL_SHIFTS = ((0, 0), (0, 1), (1, 0), (1, 1))

# orientation angles of the six complex subbands, radians
ORIENTATIONS = (0.0, 0.0, np.pi / 2, np.pi / 2, np.pi / 4, 3 * np.pi / 4)

# (band, channel) feeding each slot of the real (zeta) and imaginary (xi)
# 6-vectors; channels are 0-based.  Each (band, channel) pair appears in
# exactly one slot of exactly one vector.
_ZETA_SLOTS = (("HL", 0), ("HL", 1), ("LH", 0), ("LH", 2), ("HH", 0), ("HH", 3))
_XI_SLOTS = (("HL", 2), ("HL", 3), ("LH", 1), ("LH", 3), ("HH", 1), ("HH", 2))


@dataclass(frozen=True)
class MixingMatrices:
    """Orthonormal 6x6 mixers: identity on slots 1-4, +-1/sqrt(2) on 5-6."""

    lambda_r: np.ndarray
    lambda_i: np.ndarray

    @classmethod
    def standard(cls) -> "MixingMatrices":
        r = np.eye(6)
        i = np.eye(6)
        s = 1.0 / np.sqrt(2.0)
        r[4:, 4:] = np.array([[s, -s], [s, s]])
        i[4:, 4:] = np.array([[s, s], [s, -s]])
        return cls(r, i)


@dataclass(frozen=True)
class ChannelTable:
    """Per-axis filter designs and separable pre-filters of the 4 channels."""

    params: SplineParams
    shape: tuple[int, int]
    levels: int
    x_filters: tuple[ChannelFilters, ChannelFilters]  # (tau, tau + 1/2)
    y_filters: tuple[ChannelFilters, ChannelFilters]

    def channel(self, n: int) -> tuple[ChannelFilters, ChannelFilters]:
        """(x-axis, y-axis) filters of channel n in 0..3."""
        ix, iy = CHANNEL_SHIFTS[n]
        return self.x_filters[ix], self.y_filters[iy]


@dataclass(frozen=True)
class Pyramid2D:
    """Four lowpass residues plus J levels of six complex subbands."""

    lowpass: tuple[np.ndarray, ...]
    w: tuple[tuple[np.ndarray, ...], ...]  # w[level][orientation]

    @property
    def levels(self) -> int:
        return len(self.w)

    @property
    def shape(self) -> tuple[int, int]:
        m = self.w[0][0].shape
        return (2 * m[0], 2 * m[1])


def build_channel_table(p: SplineParams, shape: tuple[int, int], levels: int) -> ChannelTable:
    """Instantiate the four separable channels from each axis's dual-tree pair."""
    mx, my = shape

    def pair(n):
        d = design_dual_tree(p, n, levels)
        return d.channel_a, d.channel_b

    xf = pair(mx)
    yf = xf if my == mx else pair(my)
    return ChannelTable(p, (mx, my), levels, xf, yf)


def mix_subbands(zeta, xi, m: MixingMatrices | None = None):
    """w = Lambda_R zeta + j Lambda_I xi, applied subband-wise."""
    m = m or MixingMatrices.standard()
    zr = [sum(m.lambda_r[k, l] * zeta[l] for l in range(6) if m.lambda_r[k, l])
          for k in range(6)]
    zi = [sum(m.lambda_i[k, l] * xi[l] for l in range(6) if m.lambda_i[k, l])
          for k in range(6)]
    return tuple(a + 1j * b for a, b in zip(zr, zi))


def unmix_subbands(w, m: MixingMatrices | None = None):
    """Invert :func:`mix_subbands` via the transposed (orthonormal) mixers."""
    m = m or MixingMatrices.standard()
    zeta = [sum(m.lambda_r[l, k] * w[l].real for l in range(6) if m.lambda_r[l, k])
            for k in range(6)]
    xi = [sum(m.lambda_i[l, k] * w[l].imag for l in range(6) if m.lambda_i[l, k])
          for k in range(6)]
    return tuple(zeta), tuple(xi)


def dtcwt2d_forward(image: np.ndarray, table: ChannelTable) -> Pyramid2D:
    """Frame operator: image -> (c_J(1..4), w_1..w_J)."""
    img = np.asarray(image, dtype=np.float64)
    if img.shape != table.shape:
        raise ValueError(f"image shape {img.shape} does not match table {table.shape}")
    lows = []
    bands = [[] for _ in range(4)]  # per channel, per level: dict of HL/LH/HH
    for n in range(4):
        chx, chy = table.channel(n)
        c = project(img, chx.prefilter, chy.prefilter, axes=(0, 1))
        for lfx, lfy in zip(chx.levels, chy.levels):
            lx, hx = analyze_level(c, lfx.h_tilde, lfx.g_tilde, axis=0)
            ll, lh = analyze_level(lx, lfy.h_tilde, lfy.g_tilde, axis=1)
            hl, hh = analyze_level(hx, lfy.h_tilde, lfy.g_tilde, axis=1)
            bands[n].append({"HL": hl, "LH": lh, "HH": hh})
            c = ll
        lows.append(c)
    w_levels = []
    for i in range(table.levels):
        zeta = tuple(bands[ch][i][band] for band, ch in _ZETA_SLOTS)
        xi = tuple(bands[ch][i][band] for band, ch in _XI_SLOTS)
        w_levels.append(mix_subbands(zeta, xi))
    return Pyramid2D(tuple(lows), tuple(w_levels))


def dtcwt2d_inverse(p: Pyramid2D, table: ChannelTable) -> np.ndarray:
    """Exact inverse: unmix, unpermute, per-channel synthesis, average."""
    if p.levels != table.levels or p.shape != table.shape:
        raise ValueError("pyramid shape does not match table")
    bands = [[{} for _ in range(table.levels)] for _ in range(4)]
    for i in range(table.levels):
        zeta, xi = unmix_subbands(p.w[i])
        for slot, (band, ch) in enumerate(_ZETA_SLOTS):
            bands[ch][i][band] = zeta[slot]
        for slot, (band, ch) in enumerate(_XI_SLOTS):
            bands[ch][i][band] = xi[slot]
    acc = np.zeros(table.shape)
    for n in range(4):
        chx, chy = table.channel(n)
        c = p.lowpass[n]
        for i in reversed(range(table.levels)):
            lfx, lfy = chx.levels[i], chy.levels[i]
            b = bands[n][i]
            lx = synthesize_level(c, b["LH"], lfy.h, lfy.g, axis=1)
            hx = synthesize_level(b["HL"], b["HH"], lfy.h, lfy.g, axis=1)
            c = synthesize_level(lx, hx, lfx.h, lfx.g, axis=0)
        acc += unproject(c, chx.prefilter, chy.prefilter, axes=(0, 1))
    return acc / 4.0


# ---------------------------------------------------------------------------
# dense renders of the six complex directional wavelets

def render_wavelet2d(k: int, p: SplineParams, n: int = 1 << 9, octaves: int = 4):
    """Dense samples of Psi_k on an n x n grid; returns (x, field).

    Psi_1 = psi_a(x) beta_t(y)        Psi_2 = psi_a(x) beta_{t+1/2}(y)
    Psi_3 = beta_t(x) psi_a(y)        Psi_4 = beta_{t+1/2}(x) psi_a(y)
    Psi_5 = psi_a(x) psi_a(y)/sqrt2   Psi_6 = conj(psi_a)(x) psi_a(y)/sqrt2

    where psi_a is the analytic 1D wavelet.
    """
    if k not in range(1, 7):
        raise ValueError(f"orientation index must be 1..6, got {k}")
    x, psi = render_wavelet(p, n, octaves)
    _, b0 = render_scaling(p, n, octaves)
    _, b1 = render_scaling(p.half_shifted(), n, octaves)
    fx, fy = {
        1: (psi, b0),
        2: (psi, b1),
        3: (b0, psi),
        4: (b1, psi),
        5: (psi / np.sqrt(2.0), psi),
        6: (np.conj(psi) / np.sqrt(2.0), psi),
    }[k]
    return x, np.outer(fx, fy)


def _hat2d(k: int, p: SplineParams, wx: np.ndarray, wy: np.ndarray) -> np.ndarray:
    """Closed-form 2D spectrum of Psi_k on the outer grid wx x wy."""
    def psi_a(w):
        return (1.0 + np.sign(w)) * _wavelet_hat(p, w)

    def psi_a_conj(w):  # spectrum of conj(psi_a): conj mirrored to w < 0
        return np.conj(psi_a(-w))

    factors = {
        1: (psi_a, lambda w: bspline_ft(p, w)),
        2: (psi_a, lambda w: bspline_ft(p.half_shifted(), w)),
        3: (lambda w: bspline_ft(p, w), psi_a),
        4: (lambda w: bspline_ft(p.half_shifted(), w), psi_a),
        5: (lambda w: psi_a(w) / np.sqrt(2.0), psi_a),
        6: (lambda w: psi_a_conj(w) / np.sqrt(2.0), psi_a),
    }
    fx, fy = factors[k]
    return np.outer(fx(wx), fy(wy))


def directional_ht_check(k: int, p: SplineParams, n: int = 1 << 9,
                         wmax: float = 24.0) -> float:
    """Max deviation of the directional HT relation for orientation k.

    Splits the closed-form spectrum into the transforms of Re(Psi_k) and
    Im(Psi_k) via the conjugate-symmetry decomposition and checks
    Im^(w) = -j sign(w . u_theta) Re^(w) on a dense grid (bins on the
    line w . u_theta = 0 excluded).
    """
    if k not in range(1, 7):
        raise ValueError(f"orientation index must be 1..6, got {k}")
    w = np.linspace(-wmax, wmax, n)
    hat_p = _hat2d(k, p, w, w)
    hat_m = _hat2d(k, p, -w, -w)  # entry (i, j) holds Psi^ at (-w[i], -w[j])
    re_hat = 0.5 * (hat_p + np.conj(hat_m))
    im_hat = (hat_p - np.conj(hat_m)) / 2j
    theta = ORIENTATIONS[k - 1]
    proj = np.add.outer(w * np.cos(theta), w * np.sin(theta))
    mask = np.abs(proj) > 1e-9
    dev = im_hat + 1j * np.sign(proj) * re_hat
    return float(np.max(np.abs(dev[mask])))


def quadrant_energy_fraction(k: int, p: SplineParams, n: int = 1 << 9,
                             wmax: float = 24.0) -> float:
    """Fraction of |Psi_k^|^2 outside its nominal spectral support.

    Supports: k = 1, 2 -> half-plane wx > 0; k = 3, 4 -> wy > 0;
    k = 5 -> quadrant wx > 0, wy > 0; k = 6 -> wx < 0, wy > 0.
    """
    if k not in range(1, 7):
        raise ValueError(f"orientation index must be 1..6, got {k}")
    w = np.linspace(-wmax, wmax, n)
    e = np.abs(_hat2d(k, p, w, w)) ** 2
    wx, wy = np.meshgrid(w, w, indexing="ij")
    inside = {
        1: wx > 0, 2: wx > 0, 3: wy > 0, 4: wy > 0,
        5: (wx > 0) & (wy > 0), 6: (wx < 0) & (wy > 0),
    }[k]
    total = float(np.sum(e))
    return float(np.sum(e[~inside]) / total)
