"""Four-channel separable 2D dual-tree transform with six oriented subbands.

Four separable biorthogonal decompositions are run in parallel, one per
combination of the two spline shifts (tau, tau + 1/2) on the two axes.
Their 12 highpass subbands per level are permuted into two 6-vectors
(zeta, xi) and mixed by the orthonormal block matrices Lambda_R and
Lambda_I into six complex subbands, each oriented along one of the
angles 0, 0, 90, 90, 45, 135 degrees.  The transform is 4x redundant
and exactly invertible.

Each channel is the tensor product of two 1D decompositions, run on
spectra with transform1d's spectral helpers: one level folds along x
with :func:`~gaborwt.transform1d.fold` and then along y with
:func:`~gaborwt.transform1d.half_fold`, and each level's LL spectrum
feeds the next level directly.  All signals and channel subbands are
real, so every spectrum is kept in the rfft2 layout, M x (N/2 + 1):
axis 0 holds the full x-spectrum and axis 1 the y-bins 0..N/2.  The
analysis takes one rfft2 of the image for all four channels; the
projection pre-filters ride on the level-1 filters, and the level-1
x-folds are shared by the two channels with the same x-shift.  Only the
subbands and the residues are transformed back to samples, by irfft2,
after a check on the imaginary residue it drops.  Synthesis mirrors
this: one rfft2 per stored band, 1/P in the level-1 filters, and one
irfft2 of the summed spectrum of all channels.

Axis convention: images are indexed [x, y] (axis 0 is x, axis 1 is y).
HL denotes high-x/low-y, LH low-x/high-y.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .filter_design import ChannelFilters, design_dual_tree
from .spline_core import SplineParams, bspline_ft
from .transform1d import (
    _check_dropped,
    _check_finite,
    _wavelet_hat,
    fold,
    half_fold,
    half_unfold,
    render_scaling,
    render_wavelet,
    unfold,
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


def _combine(out: np.ndarray, row: np.ndarray, bands) -> None:
    """out = sum_l row[l] bands[l], written in place; zero coefficients skipped.

    The sum is formed as c0 (b0 + sum_l (c_l / c0) b_l) from the first
    nonzero coefficient c0, so a ratio of +-1 is a plain add or subtract
    and c0 = 1 needs no multiply: the standard mixers take no temporary.
    """
    terms = [(c, b) for c, b in zip(row, bands) if c]
    if not terms:
        out[...] = 0.0
        return
    (c0, acc), rest = terms[0], terms[1:]
    for c, b in rest:
        r = c / c0
        (np.add if r > 0 else np.subtract)(acc, b if abs(r) == 1.0 else abs(r) * b, out=out)
        acc = out
    if c0 != 1.0:
        np.multiply(acc, c0, out=out)
    elif acc is not out:
        np.copyto(out, acc)


def mix_subbands(zeta, xi, m: MixingMatrices | None = None):
    """w = Lambda_R zeta + j Lambda_I xi, applied subband-wise.

    Each complex subband is allocated once, and its real and imaginary
    parts are written in place.
    """
    m = m or MixingMatrices.standard()
    w = []
    for k in range(6):
        wk = np.empty(np.shape(zeta[0]), dtype=np.complex128)
        _combine(wk.real, m.lambda_r[k], zeta)
        _combine(wk.imag, m.lambda_i[k], xi)
        w.append(wk)
    return tuple(w)


def unmix_subbands(w, m: MixingMatrices | None = None):
    """Invert :func:`mix_subbands` via the transposed (orthonormal) mixers.

    A slot that is one subband's real or imaginary part unscaled, as on
    the identity block of the standard mixers, is returned as a read-only
    view of it; every other slot is allocated once.
    """
    m = m or MixingMatrices.standard()

    def part(mat, src):
        out = []
        for k in range(6):
            nz = np.flatnonzero(mat[:, k])
            if nz.size == 1 and mat[nz[0], k] == 1.0:
                band = src[nz[0]]
                band.flags.writeable = False
            else:
                band = np.empty(np.shape(w[0]))
                _combine(band, mat[:, k], src)
            out.append(band)
        return tuple(out)

    return part(m.lambda_r, [wk.real for wk in w]), part(m.lambda_i, [wk.imag for wk in w])


def _analysis_filters(ch: ChannelFilters):
    """Per-level (h~, g~) values of one axis, the pre-filter folded into level 1."""
    pre = ch.prefilter.values
    return [tuple(pre * r.values if i == 0 else r.values
                  for r in (lf.h_tilde, lf.g_tilde)) for i, lf in enumerate(ch.levels)]


def _synthesis_filters(ch: ChannelFilters):
    """Per-level values v with conj(v) = 2 conj(h), 2 conj(g); 1/P folded into level 1.

    The factor 2 compensates the decimation's 1/2 on this axis.
    """
    inv = 2.0 / np.conj(ch.prefilter.values)
    return [tuple((inv if i == 0 else 2.0) * r.values for r in (lf.h, lf.g))
            for i, lf in enumerate(ch.levels)]


def _per_axis(table: ChannelTable, filters):
    """``filters`` of the two x-channels and the two y-channels; a square
    table shares its axis designs, and then the values too."""
    fx = [filters(ch) for ch in table.x_filters]
    fy = fx if table.y_filters is table.x_filters else [filters(ch) for ch in table.y_filters]
    return fx, fy


def _dropped_imag_bound(spec: np.ndarray, shape: tuple[int, int]) -> float:
    """Bound on the imaginary residue that irfft2 drops from a half spectrum.

    Only columns 0 and n/2 of the rfft2 layout can carry anti-Hermitian
    content; irfft2 keeps their Hermitian part along x and discards the
    rest.  The discarded samples are bounded by
    sum over c in {0, n/2} of sum_kx |X[kx, c] - conj(X[-kx, c])| / (2 m n).
    """
    m, n = shape
    total = 0.0
    for c in (0, n // 2):
        col = spec[:, c]
        total += 2.0 * abs(col[0].imag) + float(np.sum(np.abs(col[1:] - np.conj(col[:0:-1]))))
    return total / (2.0 * m * n)


def _samples(spec: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Real samples of the given shape from a half spectrum (the rfft2 layout).

    Raises AssertionError when the imaginary residue irfft2 drops may
    exceed the tolerance, relative to max(1, max|out|) as in transform1d.
    """
    return _check_dropped(_dropped_imag_bound(spec, shape), np.fft.irfft2(spec, s=shape))


def _y_fold(spec: np.ndarray, values: np.ndarray) -> np.ndarray:
    return half_fold(spec, values, axis=1, freq_axes=(0,))


def _y_unfold(spec: np.ndarray, values: np.ndarray) -> np.ndarray:
    return half_unfold(spec, values, axis=1, freq_axes=(0,))


def _channel_analysis(lx: np.ndarray, hx: np.ndarray, fx: list, fy: list):
    """Per-level subbands and the residue of one channel, from its level-1 x-folds."""
    bands = []
    for i, (ht, gt) in enumerate(fy):
        if i:
            lx, hx = fold(c, fx[i][0], axis=0), fold(c, fx[i][1], axis=0)
        shape = (lx.shape[0], ht.size // 2)
        c = _y_fold(lx, ht)
        bands.append({"HL": _samples(_y_fold(hx, ht), shape),
                      "LH": _samples(_y_fold(lx, gt), shape),
                      "HH": _samples(_y_fold(hx, gt), shape)})
    return bands, _samples(c, shape)


def dtcwt2d_forward(image: np.ndarray, table: ChannelTable) -> Pyramid2D:
    """Frame operator: image -> (c_J(1..4), w_1..w_J)."""
    img = np.asarray(image, dtype=np.float64)
    if img.shape != table.shape:
        raise ValueError(f"image shape {img.shape} does not match table {table.shape}")
    _check_finite((img,), "image")
    spec = np.fft.rfft2(img)
    fx, fy = _per_axis(table, _analysis_filters)
    lows = [None] * 4
    bands = [None] * 4  # per channel, per level: dict of HL/LH/HH
    for ix in (0, 1):
        # level-1 x-folds, shared by the two channels of this x-shift
        lx, hx = fold(spec, fx[ix][0][0], axis=0), fold(spec, fx[ix][0][1], axis=0)
        if ix:  # the last x-folds exist: the image spectrum is done
            del spec
        for iy in (0, 1):
            n = CHANNEL_SHIFTS.index((ix, iy))
            bands[n], lows[n] = _channel_analysis(lx, hx, fx[ix], fy[iy])
        del lx, hx
    w_levels = []
    for i in range(table.levels):
        level = [b[i] for b in bands]
        for b in bands:  # each level's bands are released once mixed
            b[i] = None
        zeta = tuple(level[ch][band] for band, ch in _ZETA_SLOTS)
        xi = tuple(level[ch][band] for band, ch in _XI_SLOTS)
        w_levels.append(mix_subbands(zeta, xi))
    return Pyramid2D(tuple(lows), tuple(w_levels))


def _y_synthesis(c: np.ndarray, b: dict, h: np.ndarray, g: np.ndarray):
    """Low-x and high-x spectra of one level from its LL spectrum and bands."""
    lx = _y_unfold(c, h)
    lx += _y_unfold(np.fft.rfft2(b["LH"]), g)
    hx = _y_unfold(np.fft.rfft2(b["HL"]), h)
    hx += _y_unfold(np.fft.rfft2(b["HH"]), g)
    return lx, hx


def _x_synthesis(lx: np.ndarray, hx: np.ndarray, h: np.ndarray, g: np.ndarray) -> np.ndarray:
    c = unfold(lx, h, axis=0)
    c += unfold(hx, g, axis=0)
    return c


def _channel_synthesis(low: np.ndarray, bands: list, fx: list, fy: list):
    """Level-1 low-x and high-x spectra of one channel, before its last x-step."""
    c = np.fft.rfft2(low)
    for i in reversed(range(1, len(bands))):
        c = _x_synthesis(*_y_synthesis(c, bands[i], *fy[i]), *fx[i])
    return _y_synthesis(c, bands[0], *fy[0])


def dtcwt2d_inverse(p: Pyramid2D, table: ChannelTable) -> np.ndarray:
    """Exact inverse: unmix, unpermute, per-channel synthesis, average."""
    if p.levels != table.levels or p.shape != table.shape:
        raise ValueError("pyramid shape does not match table")
    _check_finite((*p.lowpass, *(wk for lvl in p.w for wk in lvl)), "pyramid")
    bands = [[{} for _ in range(table.levels)] for _ in range(4)]
    for i in range(table.levels):
        zeta, xi = unmix_subbands(p.w[i])
        for slot, (band, ch) in enumerate(_ZETA_SLOTS):
            bands[ch][i][band] = zeta[slot]
        for slot, (band, ch) in enumerate(_XI_SLOTS):
            bands[ch][i][band] = xi[slot]
    fxs, fy = _per_axis(table, _synthesis_filters)

    def x_group(ix):
        fx = fxs[ix]
        n0, n1 = (CHANNEL_SHIFTS.index((ix, iy)) for iy in (0, 1))
        lx, hx = _channel_synthesis(p.lowpass[n0], bands[n0], fx, fy[0])
        lx1, hx1 = _channel_synthesis(p.lowpass[n1], bands[n1], fx, fy[1])
        lx += lx1
        hx += hx1
        return _x_synthesis(lx, hx, *fx[0])

    spec = x_group(0)
    spec += x_group(1)
    out = _samples(spec, table.shape)
    out /= 4.0
    return out


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
