"""Periodic 1D dual-tree complex wavelet transform.

All filtering is circular and runs in the frequency domain: analysis is
multiply-then-fold (decimation as spectral aliasing), synthesis is
replicate-then-multiply (upsampling as spectral replication).  The two
channels of a :class:`~gaborwt.filter_design.DualTreeDesign` are run in
lock-step and their highpass outputs combined into complex subbands
w_i = cH_i + j c'H_i, giving a 2x-redundant analytic decomposition with
an exact left inverse.

The spectral helpers :func:`fold` and :func:`unfold` act along any axis
of an array of spectra.  The one-level kernels wrap them in a DFT pair
along that axis; the 2D transform calls them directly and stays in the
frequency domain between levels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .filter_design import ChannelFilters, DualTreeDesign
from .spline_core import ComplexResponse, SplineParams, autocorr_ft, bspline_ft, refinement_ft

__all__ = [
    "Signal1D",
    "Pyramid1D",
    "project",
    "unproject",
    "fold",
    "unfold",
    "analyze_level",
    "synthesize_level",
    "dtcwt1d_forward",
    "dtcwt1d_inverse",
    "render_wavelet",
    "render_scaling",
]

_IMAG_TOL = 1e-12


@dataclass(frozen=True)
class Signal1D:
    """Real finite signal of power-of-two length."""

    samples: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=np.float64)
        if s.ndim != 1:
            raise ValueError("signal must be one-dimensional")
        n = s.size
        if n < 4 or (n & (n - 1)) != 0:
            raise ValueError(f"signal length must be a power of two >= 4, got {n}")
        if not np.all(np.isfinite(s)):
            raise ValueError("signal contains non-finite values")
        object.__setattr__(self, "samples", s)

    @property
    def n(self) -> int:
        return self.samples.size


@dataclass(frozen=True)
class Pyramid1D:
    """Dual-tree coefficient pyramid: two real residues + J complex subbands.

    ``w[i]`` has length n / 2^(i+1); the residues have length n / 2^J.
    Total coefficient count (counting complex as two reals) is 2n.
    """

    lowpass_a: np.ndarray
    lowpass_b: np.ndarray
    w: tuple[np.ndarray, ...]

    @property
    def levels(self) -> int:
        return len(self.w)

    @property
    def signal_len(self) -> int:
        return self.w[0].size * 2

    def coefficient_count(self) -> int:
        return self.lowpass_a.size + self.lowpass_b.size + 2 * sum(s.size for s in self.w)


def _real_part(x: np.ndarray) -> np.ndarray:
    """Real part of a kernel output, after checking its imaginary residue.

    The tolerance is relative to max(1, max|real|), so max|real| is only
    needed once the residue exceeds the absolute tolerance.
    """
    if x.size:
        resid = float(np.max(np.abs(x.imag)))
        if resid > _IMAG_TOL and resid > _IMAG_TOL * max(1.0, float(np.max(np.abs(x.real)))):
            raise AssertionError(f"imaginary residue {resid:.3e} exceeds tolerance")
    return np.ascontiguousarray(x.real)


def _separable(c: np.ndarray, pre: tuple[ComplexResponse, ...], axes) -> np.ndarray:
    """Broadcast product of one pre-filter per axis of ``axes``."""
    if len(pre) != len(axes):
        raise ValueError("need one pre-filter per axis")
    sep = 1.0
    for resp, axis in zip(pre, axes):
        if c.shape[axis] != resp.grid.n:
            raise ValueError("signal and pre-filter length mismatch")
        # length-1 axes after ``axis`` make the response broadcast along it
        sep = sep * resp.values.reshape((-1,) + (1,) * (c.ndim - 1 - axis % c.ndim))
    return sep


def _fft(x: np.ndarray, axes, inverse: bool = False) -> np.ndarray:
    """One (inverse) DFT over ``axes``.

    A single axis goes to fft/ifft: fftn's call overhead is twice theirs,
    which is a few percent of a whole transform of a short signal.
    """
    if len(axes) == 1:
        return (np.fft.ifft if inverse else np.fft.fft)(x, axis=axes[0])
    return (np.fft.ifftn if inverse else np.fft.fftn)(x, axes=axes)


def project(c: np.ndarray, *pre: ComplexResponse, axes=(-1,)) -> np.ndarray:
    """Pre-filter samples into scaling-space coefficients (circular).

    ``pre`` holds one response per axis of ``axes``; their separable
    product is applied with one FFT pair over those axes.
    """
    sep = _separable(c, pre, axes)
    return _real_part(_fft(_fft(c, axes) * sep, axes, inverse=True))


def unproject(c: np.ndarray, *pre: ComplexResponse, axes=(-1,)) -> np.ndarray:
    """Invert :func:`project` by spectral division (P has no zero bins)."""
    sep = _separable(c, pre, axes)
    return _real_part(_fft(_fft(c, axes) / sep, axes, inverse=True))


def fold(spec: np.ndarray, values: np.ndarray, axis: int = -1) -> np.ndarray:
    """Filter a spectrum by ``values`` and decimate it by 2 along ``axis``.

    Decimation is the spectral fold Y(k) = (X_F(k) + X_F(k + n/2)) / 2 of
    the filtered spectrum X_F = X v, computed as 0.5 (X_lo v_lo + X_hi v_hi)
    from the two half-spectra, without forming X_F.  The other axes of
    ``spec`` may hold a spectrum or samples.
    """
    ax = axis % spec.ndim
    half = spec.shape[ax] // 2
    v = values.reshape((-1,) + (1,) * (spec.ndim - 1 - ax))
    lo = (slice(None),) * ax + (slice(None, half),)
    hi = (slice(None),) * ax + (slice(half, None),)
    out = spec[lo] * v[:half]
    out += spec[hi] * v[half:]
    out *= 0.5
    return out


def unfold(spec: np.ndarray, values: np.ndarray, axis: int = -1) -> np.ndarray:
    """Upsample a spectrum by 2 along ``axis`` and filter it by ``conj(values)``.

    Upsampling replicates the half-length spectrum over the full grid;
    both copies are written in one broadcast product into the two halves
    of the output.
    """
    ax = axis % spec.ndim
    shape, half = spec.shape, spec.shape[ax]
    out = np.empty(shape[:ax] + (2 * half,) + shape[ax + 1:], dtype=np.complex128)
    np.multiply(spec.reshape(shape[:ax] + (1,) + shape[ax:]),
                values.conj().reshape((2, half) + (1,) * (spec.ndim - 1 - ax)),
                out=out.reshape(shape[:ax] + (2, half) + shape[ax + 1:]))
    return out


def analyze_level(c: np.ndarray, h_tilde: ComplexResponse, g_tilde: ComplexResponse,
                  axis: int = -1):
    """One analysis step along ``axis``: filter and decimate both branches.

    One DFT of ``c``, a :func:`fold` per branch, and a half-length
    inverse DFT per branch.
    """
    n = c.shape[axis]
    if n != h_tilde.grid.n or n != g_tilde.grid.n:
        raise ValueError("coefficient length does not match filter grid")
    spec = np.fft.fft(c, axis=axis)
    return tuple(_real_part(np.fft.ifft(fold(spec, filt.values, axis), axis=axis))
                 for filt in (h_tilde, g_tilde))


def synthesize_level(cl: np.ndarray, ch: np.ndarray,
                     h: ComplexResponse, g: ComplexResponse, axis: int = -1) -> np.ndarray:
    """One synthesis step along ``axis``: upsample, filter and merge both branches.

    Each branch is one DFT and an :func:`unfold`; the sum goes through
    one full-length inverse DFT.  The decimation's 1/2 is compensated
    here by the factor 2.
    """
    n = h.grid.n
    if cl.shape[axis] != n // 2 or ch.shape[axis] != n // 2:
        raise ValueError("subband length does not match filter grid")
    if n != g.grid.n:
        raise ValueError("synthesis filters on mismatched grids")
    out = unfold(np.fft.fft(cl, axis=axis), h.values, axis)
    out += unfold(np.fft.fft(ch, axis=axis), g.values, axis)
    out *= 2.0
    return _real_part(np.fft.ifft(out, axis=axis))


def _analyze_channel(c0: np.ndarray, ch: ChannelFilters):
    """Run the full analysis recursion of one channel."""
    highs = []
    c = c0
    for lf in ch.levels:
        c, hi = analyze_level(c, lf.h_tilde, lf.g_tilde)
        highs.append(hi)
    return c, highs


def _synthesize_channel(low: np.ndarray, highs, ch: ChannelFilters) -> np.ndarray:
    c = low
    for lf, hi in zip(reversed(ch.levels), reversed(highs)):
        c = synthesize_level(c, hi, lf.h, lf.g)
    return c


def dtcwt1d_forward(f: Signal1D, design: DualTreeDesign) -> Pyramid1D:
    """Frame operator T: f -> (c_J, c'_J, w_1..w_J)."""
    if f.n != design.signal_len:
        raise ValueError(
            f"signal length {f.n} does not match design length {design.signal_len}"
        )
    ca0 = project(f.samples, design.channel_a.prefilter)
    cb0 = project(f.samples, design.channel_b.prefilter)
    la, ha = _analyze_channel(ca0, design.channel_a)
    lb, hb = _analyze_channel(cb0, design.channel_b)
    w = tuple(a + 1j * b for a, b in zip(ha, hb))
    return Pyramid1D(la, lb, w)


def dtcwt1d_inverse(p: Pyramid1D, design: DualTreeDesign) -> Signal1D:
    """Left inverse of :func:`dtcwt1d_forward` (exact on range(T))."""
    if p.levels != design.levels or p.signal_len != design.signal_len:
        raise ValueError("pyramid shape does not match design")
    ca = _synthesize_channel(p.lowpass_a, [wi.real for wi in p.w], design.channel_a)
    cb = _synthesize_channel(p.lowpass_b, [wi.imag for wi in p.w], design.channel_b)
    fa = unproject(ca, design.channel_a.prefilter)
    fb = unproject(cb, design.channel_b.prefilter)
    return Signal1D(0.5 * (fa + fb))


# ---------------------------------------------------------------------------
# dense rendering of the continuous wavelet and scaling function

def _wavelet_hat(p: SplineParams, omega: np.ndarray) -> np.ndarray:
    """Continuous spectrum of the semi-orthogonal B-spline wavelet.

    Two-scale relation: psi^(2w) = G~(e^{jw}) beta^(w) / 2, with
    G~(e^{jw}) = e^{jw} A(-e^{jw}) H~(-e^{-jw}) evaluated at real w.
    """
    w = omega / 2.0
    gt = np.exp(1j * w) * autocorr_ft(p.alpha, w + np.pi) * refinement_ft(p, np.pi - w)
    return 0.5 * gt * bspline_ft(p, w)


def _dense_grid(n: int, octaves: int):
    if n < 1 << max(octaves + 2, 6):
        raise ValueError(
            f"grid of {n} samples too coarse for {octaves} octaves of resolution"
        )
    dx = 2.0 ** -octaves
    x = (np.arange(n) - n // 2) * dx
    omega = 2.0 * np.pi * np.fft.fftfreq(n, d=dx)
    return x, dx, omega


def render_wavelet(p: SplineParams, n: int = 1 << 12, octaves: int = 6):
    """Dense samples of the analytic wavelet Psi = psi_t + j psi_{t+1/2}.

    Returns (x, samples) where x spans [-n/2, n/2) * 2^-octaves centered
    at the origin.  The spectrum is one-sided, (1 + sign(w)) psi^_t(w),
    since the half-shifted wavelet is the exact Hilbert transform of the
    first.
    """
    x, dx, omega = _dense_grid(n, octaves)
    hat = (1.0 + np.sign(omega)) * _wavelet_hat(p, omega)
    samples = np.fft.ifft(hat) / dx
    return x, np.roll(samples, n // 2)


def render_scaling(p: SplineParams, n: int = 1 << 12, octaves: int = 6):
    """Dense samples of the fractional B-spline beta^a_t itself."""
    x, dx, omega = _dense_grid(n, octaves)
    samples = np.fft.ifft(bspline_ft(p, omega)) / dx
    return x, np.roll(samples, n // 2)
