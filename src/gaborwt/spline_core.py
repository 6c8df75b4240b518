"""Closed-form frequency-domain building blocks for fractional B-splines.

Everything here is evaluated directly in the frequency domain: the
fractional B-spline transform, the two-scale refinement filter, the
fractional finite-difference (FD) operator, the discrete Hilbert filter
d[k] = 1/(pi(k+1/2)) and the autocorrelation (Gram) filter.  The spline
filters have infinite time-domain support, so no coefficient truncation
is ever performed; filters exist only as samples on a DFT grid, and a
real filter's samples are stored exactly Hermitian (:class:`ComplexResponse`).
The Hurwitz zeta function behind the Gram filter is computed in-package
(:func:`_hurwitz_zeta`, the Euler-Maclaurin scheme of Cephes' ``zeta``,
DLMF 25.11), so the module needs nothing beyond numpy.

Branch convention: all fractional powers use the principal argument
Arg z in (-pi, pi].  With this convention the zeroth-order half-shift
operator reduces to

    D(e^{j w}) = -j sign(w) e^{+j w/2},   w in (-pi, pi),

whose Fourier coefficients are exactly 1/(pi(k+1/2)).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SplineParams",
    "FrequencyGrid",
    "ComplexResponse",
    "frac_power",
    "bspline_ft",
    "refinement_ft",
    "fd_ft",
    "ht_filter",
    "autocorr_ft",
]

_HERMITIAN_TOL = 1e-12

# (2j)! / B_{2j} for j = 1..12: the Euler-Maclaurin divisors of Cephes' zeta
_EM_DIVISORS = (
    12.0, -720.0, 30240.0, -1209600.0, 47900160.0, -1.8924375803183791606e9,
    7.47242496e10, -2.950130727918164224e12, 1.1646782814350067249e14,
    -4.5979787224074726105e15, 1.8152105401943546773e17, -7.1661652561756670113e18,
)


@dataclass(frozen=True)
class SplineParams:
    """Degree/shift pair identifying a fractional B-spline multiresolution.

    alpha : real degree, must be >= 0 and finite.
    tau   : real shift in samples, must be finite.
    """

    alpha: float
    tau: float

    def __post_init__(self):
        if not (np.isfinite(self.alpha) and np.isfinite(self.tau)):
            raise ValueError("spline parameters must be finite")
        if self.alpha < 0:
            raise ValueError(f"degree must be non-negative, got {self.alpha}")

    def half_shifted(self) -> "SplineParams":
        """Parameters of the Hilbert-pair partner (shift advanced by 1/2)."""
        return SplineParams(self.alpha, self.tau + 0.5)


@dataclass(frozen=True)
class FrequencyGrid:
    """n uniformly spaced DFT frequencies in natural (FFT) bin order.

    omega[k] = 2*pi*k/n remapped to (-pi, pi]; the bin k = n/2 maps to
    exactly +pi.  The grid is closed under negation except that bin.
    """

    n: int
    omega: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n = self.n
        if n < 4 or (n & (n - 1)) != 0:
            raise ValueError(f"grid length must be a power of two >= 4, got {n}")
        k = np.arange(n, dtype=np.float64)
        om = 2.0 * np.pi * k / n
        om[k > n // 2] -= 2.0 * np.pi
        om[n // 2] = np.pi
        object.__setattr__(self, "omega", om)

    def negated_bins(self) -> np.ndarray:
        """Index map k -> bin of -omega[k] (mod 2*pi)."""
        return (-np.arange(self.n)) % self.n


@dataclass
class ComplexResponse:
    """Sampled frequency response on a FrequencyGrid.

    ``real_time_domain`` flags responses of real filters; for those the
    Hermitian symmetry values[(n-k) % n] == conj(values[k]) is asserted,
    and values that pass are stored as their Hermitian part
    0.5 (v(k) + conj(v(-k))), the response of the nearest real filter.
    A real filter's response is thus exactly Hermitian, as the half
    spectra of real data (the rfft layout) need: they keep one bin of
    each conjugate pair, so an anti-Hermitian rounding residue would
    enter them from one side only.
    """

    grid: FrequencyGrid
    values: np.ndarray
    real_time_domain: bool = False

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.shape != (self.grid.n,):
            raise ValueError("response length does not match grid")
        if self.real_time_domain:
            dev = self.hermitian_deviation()
            if dev > _HERMITIAN_TOL:
                raise ValueError(f"response is not Hermitian (deviation {dev:.3e})")
            if dev > 0.0:
                self.values = 0.5 * (self.values + np.conj(self.values[self.grid.negated_bins()]))

    def hermitian_deviation(self) -> float:
        flipped = self.values[self.grid.negated_bins()]
        return float(np.max(np.abs(flipped - np.conj(self.values))))


def frac_power(z, gamma):
    """Principal-branch fractional power |z|^gamma * exp(j*gamma*Arg z).

    Arg z is taken in (-pi, pi] (so e.g. (-4)**0.5 = 2j).  z = 0 is
    mapped to 0 for gamma > 0 and rejected otherwise.
    """
    z = np.asarray(z, dtype=np.complex128)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    zero = z == 0
    if np.any(zero) and gamma <= 0:
        raise ValueError("0 cannot be raised to a non-positive fractional power")
    out = np.zeros_like(z)
    nz = ~zero
    out[nz] = np.abs(z[nz]) ** gamma * np.exp(1j * gamma * np.angle(z[nz]))
    return out[0] if scalar else out


def _pow0(z, gamma):
    """Like frac_power but with the continuous extension 0**0 = 1.

    Used internally where a base vanishes while its exponent is zero
    (e.g. integer-order reductions of the refinement and FD filters).
    """
    if gamma == 0:
        return np.ones_like(np.atleast_1d(np.asarray(z, dtype=np.complex128)))
    return np.atleast_1d(frac_power(z, gamma))


def bspline_ft(params: SplineParams, omega) -> np.ndarray:
    """Fourier transform of the fractional B-spline of degree alpha, shift tau.

    beta^(omega) = ((1 - e^{-jw})/(jw))^{(a+1)/2 + t} ((1 - e^{jw})/(-jw))^{(a+1)/2 - t}

    The removable singularities at w = 2*pi*k are evaluated by limit:
    1 at w = 0, 0 elsewhere.
    """
    a, t = params.alpha, params.tau
    w = np.atleast_1d(np.asarray(omega, dtype=np.float64))
    scalar = np.ndim(omega) == 0
    p1 = (a + 1.0) / 2.0 + t
    p2 = (a + 1.0) / 2.0 - t
    out = np.zeros(w.shape, dtype=np.complex128)
    at_dc = w == 0.0
    # 1 - e^{-jw} vanishes at every multiple of 2*pi; nonzero multiples give 0
    at_other_mult = (~at_dc) & (np.abs(np.exp(-1j * w) - 1.0) == 0.0)
    reg = ~(at_dc | at_other_mult)
    if np.any(reg):
        wr = w[reg]
        base1 = (1.0 - np.exp(-1j * wr)) / (1j * wr)
        base2 = (1.0 - np.exp(1j * wr)) / (-1j * wr)
        out[reg] = _pow0(base1, p1) * _pow0(base2, p2)
    out[at_dc] = 1.0
    return out[0] if scalar else out


def refinement_ft(params: SplineParams, omega) -> np.ndarray:
    """Transfer function of the two-scale (refinement) filter.

    H(e^{jw}) = 2^{-(a+1)} (1 + e^{jw})^{(a+1)/2 - t} (1 + e^{-jw})^{(a+1)/2 + t}

    Satisfies H(1) = 1 and, for the half-shifted spline,
    H_{t+1/2}(e^{jw}) = e^{-jw/2} H_t(e^{jw}) on (-pi, pi).
    """
    a, t = params.alpha, params.tau
    w = np.atleast_1d(np.asarray(omega, dtype=np.float64))
    scalar = np.ndim(omega) == 0
    z = np.exp(1j * w)
    out = (2.0 ** -(a + 1.0)) * _pow0(1.0 + z, (a + 1.0) / 2.0 - t) \
        * _pow0(1.0 + np.conj(z), (a + 1.0) / 2.0 + t)
    return out[0] if scalar else out


def fd_ft(alpha: float, tau: float, omega) -> np.ndarray:
    """Symbol of the fractional finite-difference operator.

    D^a_t(e^{jw}) = (1 - e^{-jw})^{a/2 + t} (1 - e^{jw})^{a/2 - t}

    evaluated by the product closed form on the principal branch.  At
    w = 0 (mod 2*pi) the value is defined as 0 (sign(0) = 0 convention;
    the sole exception is the trivial operator a = t = 0 which is 1).
    The zeroth-order half-shift case (a=0, t=-1/2) reduces to
    -j*sign(w)*e^{+jw/2} on the open interval and to 1 at w = pi.
    """
    w = np.atleast_1d(np.asarray(omega, dtype=np.float64))
    scalar = np.ndim(omega) == 0
    e1 = alpha / 2.0 + tau
    e2 = alpha / 2.0 - tau
    z = np.exp(1j * w)
    at_mult = np.abs(1.0 - z) == 0.0
    out = np.zeros(w.shape, dtype=np.complex128)
    reg = ~at_mult
    if np.any(reg):
        out[reg] = (_pow0(1.0 - np.conj(z[reg]), e1) * _pow0(1.0 - z[reg], e2))
    if alpha == 0 and tau == 0:
        out[at_mult] = 1.0
    return out[0] if scalar else out


def ht_filter(k) -> np.ndarray:
    """Discrete Hilbert filter d[k] = 1/(pi*(k + 1/2)).

    Unitary digital surrogate of the continuous Hilbert kernel 1/(pi*x);
    antisymmetric about k = -1/2 with sum of squares equal to 1.
    """
    k = np.asarray(k, dtype=np.float64)
    return 1.0 / (np.pi * (k + 0.5))


def _hurwitz_zeta(s: float, q: np.ndarray) -> np.ndarray:
    """Hurwitz zeta(s, q) = sum_{k >= 0} (q + k)^{-s} for s > 1 and q > 0.

    Euler-Maclaurin summation as in Cephes' ``zeta`` (DLMF 25.11): ten
    direct terms, the integral and half-term at w = q + 9, and twelve
    Bernoulli corrections s(s+1)...(s+2j-2) B_{2j}/(2j)! w^{-s-2j+1}.
    Every term is computed for the whole array, with none of Cephes'
    per-value early exits.  The rising factorial is folded into the power
    of w term by term, so it cannot overflow for a large s.
    """
    w = q + 9.0
    total = q ** -s
    for k in range(1, 10):
        total = total + (q + k) ** -s
    b = w ** -s
    total = total + b * w / (s - 1.0)
    total = total - 0.5 * b
    k = 0.0
    for divisor in _EM_DIVISORS:
        b = b * (s + k) / w
        total = total + b / divisor
        b = b * (s + k + 1.0) / w
        k += 2.0
    return total


def autocorr_ft(alpha: float, omega) -> np.ndarray:
    """Autocorrelation (Gram) filter A^a(e^{jw}) = sum_k |beta^(w + 2 pi k)|^2.

    Because |beta^(w)| = |2 sin(w/2) / w|^{a+1}, the lattice sum reduces
    to a pair of Hurwitz zeta evaluations, computed in-package by
    :func:`_hurwitz_zeta` (Cephes' Euler-Maclaurin scheme, DLMF 25.11),
    to machine precision for every a >= 0.  The result is real and
    positive, and independent of the shift tau.
    """
    if alpha < 0:
        raise ValueError("degree must be non-negative")
    w = np.atleast_1d(np.asarray(omega, dtype=np.float64))
    scalar = np.ndim(omega) == 0
    # A is even; reducing |w| keeps a small negative w small instead of
    # mapping it to 2*pi - |w|, where that subtraction loses its digits
    u = np.mod(np.abs(w), 2.0 * np.pi)  # reduce to [0, 2*pi)
    u[u >= 2.0 * np.pi] = 0.0  # np.mod can round up to exactly 2*pi
    s = 2.0 * (alpha + 1.0)
    out = np.ones(u.shape, dtype=np.float64)
    # subnormal u underflows sin(u/2) to 0; A is 1 to working precision there
    reg = u >= np.finfo(np.float64).tiny
    if np.any(reg):
        # The k = 0 and k = -1 lattice terms blow up as u -> 0 or 2*pi;
        # peel them out of the zetas so every factor stays bounded.
        ur = u[reg]
        q = ur / (2.0 * np.pi)
        m = 2.0 * np.sin(ur / 2.0)
        tail = _hurwitz_zeta(s, 1.0 + q) + _hurwitz_zeta(s, 2.0 - q)
        out[reg] = ((m / ur) ** s + (m / (2.0 * np.pi - ur)) ** s
                    + (m / (2.0 * np.pi)) ** s * tail)
    return float(out[0]) if scalar else out
