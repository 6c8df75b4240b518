"""Asymptotic Gabor approximations of the spline wavelets.

For large degree the analytic B-spline wavelet approaches a Gabor atom
(Gaussian envelope times complex exponential), and the fractional
B-spline itself approaches a Gaussian.  This module evaluates the
closed-form limits and measures how fast the rendered wavelets converge
to them: amplitude-matched sup-norm deviation and Heisenberg
uncertainty product (lower bound 1/2, attained only by Gabor atoms).

The limit carrier frequency is negative (omega0 < 0); the rendered
analytic wavelets carry the opposite spectral sign, so comparisons try
both the limit and its conjugate and report the better match.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .spline_core import SplineParams
from .transform1d import render_wavelet
from .transform2d import render_wavelet2d

__all__ = [
    "GaborConstants",
    "gabor1d",
    "gaussian_limit",
    "gabor2d",
    "uncertainty_product",
    "sup_deviation_1d",
    "sup_deviation_2d",
    "convergence_report",
]

M0 = 0.670
OMEGA0 = -5.142
DELTA_OMEGA0 = 2.670


@dataclass(frozen=True)
class GaborConstants:
    """Limit constants specialized to one degree alpha."""

    alpha: float
    m: float
    sigma: float
    m1: float
    m2: float
    sigma1: float
    sigma2: float

    @classmethod
    def for_degree(cls, alpha: float) -> "GaborConstants":
        a1 = alpha + 1.0
        m = 2.0 * M0**a1 * DELTA_OMEGA0 / np.sqrt(2.0 * np.pi * a1)
        sigma = np.sqrt(a1) / DELTA_OMEGA0
        m1 = 2.0 * np.sqrt(3.0) * M0**a1 * DELTA_OMEGA0 / (np.pi * a1)
        m2 = 2.0 * M0 ** (2.0 * a1) * DELTA_OMEGA0**2 / (np.pi * a1)
        sigma2 = np.sqrt(a1 / 6.0)
        return cls(alpha, m, sigma, m1, m2, sigma, sigma2)


def gabor1d(p: SplineParams, x) -> np.ndarray:
    """Limiting 1D Gabor atom: envelope centered at 1/2, carrier omega0."""
    c = GaborConstants.for_degree(p.alpha)
    x = np.asarray(x, dtype=np.float64)
    env = c.m * np.exp(-((x - 0.5) ** 2) / (2.0 * c.sigma**2))
    return env * np.exp(1j * (OMEGA0 * x - OMEGA0 / 2.0 - np.pi * p.tau))


def gaussian_limit(p: SplineParams, x) -> np.ndarray:
    """Limiting Gaussian of the B-spline itself, centered at x = tau."""
    x = np.asarray(x, dtype=np.float64)
    sg = np.sqrt(p.alpha + 1.0) / (2.0 * np.sqrt(3.0))
    return np.exp(-((x - p.tau) ** 2) / (2.0 * sg**2)) / (sg * np.sqrt(2.0 * np.pi))


def gabor2d(k: int, p: SplineParams, x, y) -> np.ndarray:
    """Limiting 2D Gabor atom of orientation k on the outer grid x (x) y."""
    if k not in range(1, 7):
        raise ValueError(f"orientation index must be 1..6, got {k}")
    c = GaborConstants.for_degree(p.alpha)
    x = np.asarray(x, dtype=np.float64)[:, None]
    y = np.asarray(y, dtype=np.float64)[None, :]
    t = p.tau
    phase1 = -OMEGA0 / 2.0 - np.pi * t

    def genv(u, center, sigma):
        return np.exp(-((u - center) ** 2) / (2.0 * sigma**2))

    def genv2(u, center):
        # scaling-direction window; sigma2^2 is twice the Gaussian
        # variance (matches the gaussian_limit of the B-spline factor)
        return np.exp(-((u - center) ** 2) / c.sigma2**2)

    if k in (1, 2):
        yc = t if k == 1 else t + 0.5
        return (c.m1 * genv(x, 0.5, c.sigma1) * genv2(y, yc)
                * np.exp(1j * (OMEGA0 * x + phase1)))
    if k in (3, 4):
        xc = t if k == 3 else t + 0.5
        return (c.m1 * genv2(x, xc) * genv(y, 0.5, c.sigma1)
                * np.exp(1j * (OMEGA0 * y + phase1)))
    env = c.m2 * genv(x, 0.5, c.sigma1) * genv(y, 0.5, c.sigma1)
    if k == 5:
        return env * np.exp(1j * (OMEGA0 * (x + y) - OMEGA0 - 2.0 * np.pi * t))
    return env * np.exp(1j * OMEGA0 * (y - x))


def uncertainty_product(samples: np.ndarray, dx: float) -> float:
    """Heisenberg product dx * domega from second moments of |f|^2, |f^|^2.

    Requires the samples to have decayed to <= 1e-6 of the peak at both
    window ends (otherwise the moments are truncation artifacts).
    """
    f = np.asarray(samples, dtype=np.complex128)
    peak = float(np.max(np.abs(f)))
    if peak == 0.0:
        raise ValueError("zero signal has no uncertainty product")
    edge = max(np.abs(f[0]), np.abs(f[-1]))
    if edge > 1e-6 * peak:
        raise ValueError(f"insufficient decay at window edges ({edge/peak:.2e} of peak)")
    n = f.size
    x = np.arange(n) * dx

    def spread(vals, axis_vals):
        w = np.abs(vals) ** 2
        w = w / np.sum(w)
        mean = np.sum(w * axis_vals)
        return np.sqrt(np.sum(w * (axis_vals - mean) ** 2))

    dx_spread = spread(f, x)
    spec = np.fft.fftshift(np.fft.fft(f))
    omega = np.fft.fftshift(2.0 * np.pi * np.fft.fftfreq(n, d=dx))
    dw_spread = spread(spec, omega)
    return float(dx_spread * dw_spread)


def _matched_sup_dev(rendered: np.ndarray, targets) -> float:
    """Relative sup deviation after complex least-squares amplitude match.

    The asymptotic relation fixes shape only, so a single complex scale
    is fit first.  Several equivalent target forms are tried and the
    best match reported: the carrier sign of the limit is tied to a
    Fourier-sign convention, and the rendered wavelet realizes the
    conjugate convention, which also relocates the envelope by one unit
    along each oscillating axis.
    """
    def dev(g):
        c = np.vdot(g, rendered) / np.vdot(g, g)
        return float(np.max(np.abs(rendered - c * g)) / np.max(np.abs(rendered)))

    return min(dev(g) for t in targets for g in (t, np.conj(t)))


def _sup_dev_1d(p: SplineParams, x: np.ndarray, psi: np.ndarray) -> float:
    return _matched_sup_dev(psi, [gabor1d(p, x), gabor1d(p, x + 1.0)])


def sup_deviation_1d(p: SplineParams, n: int = 1 << 12, octaves: int = 6) -> float:
    """Amplitude-matched sup deviation of the rendered 1D analytic wavelet."""
    return _sup_dev_1d(p, *render_wavelet(p, n, octaves))


def sup_deviation_2d(k: int, p: SplineParams, n: int = 1 << 9, octaves: int = 4) -> float:
    """Amplitude-matched sup deviation of the rendered 2D wavelet Psi_k."""
    x, field = render_wavelet2d(k, p, n, octaves)
    targets = [gabor2d(k, p, x + sx, x + sy).ravel()
               for sx in (0.0, 1.0) for sy in (0.0, 1.0)]
    return _matched_sup_dev(field.ravel(), targets)


def convergence_report(alphas, n: int = 1 << 12, octaves: int = 6,
                       tau: float = 0.0, csv_path=None):
    """Tabulate Gabor convergence per degree.

    Returns a list of (alpha, sup_dev_1d, uncertainty) rows, optionally
    written as CSV.  Deviations and uncertainty products both decrease
    as alpha grows (toward 0 and the Heisenberg bound 1/2).
    """
    alphas = list(alphas)
    if any(b <= a for a, b in zip(alphas, alphas[1:])):
        raise ValueError("degrees must be strictly increasing")
    rows = []
    for alpha in alphas:
        p = SplineParams(alpha, tau)
        x, psi = render_wavelet(p, n, octaves)
        rows.append((alpha, _sup_dev_1d(p, x, psi), uncertainty_product(psi, float(x[1] - x[0]))))
    if csv_path is not None:
        with open(csv_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["alpha", "sup_deviation", "uncertainty_product"])
            writer.writerows(rows)
    return rows
