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

import functools
from dataclasses import dataclass

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

# bins per block of the frequency kernels and the Hermitian check: their
# temporaries stay cache-sized, and a design's transient memory no longer
# grows with n
_BLOCK = 8192

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

    def __post_init__(self):
        n = self.n
        if n < 4 or (n & (n - 1)) != 0:
            raise ValueError(f"grid length must be a power of two >= 4, got {n}")

    @functools.cached_property
    def omega(self) -> np.ndarray:
        """The frequencies, computed when first read: derived from n, so
        they take no part in equality or hashing, and a grid nothing
        evaluates on (a coarse pyramid level's) holds no array."""
        n = self.n
        om = 2.0 * np.pi * np.arange(n, dtype=np.float64) / n
        om[n // 2 + 1:] -= 2.0 * np.pi
        om[n // 2] = np.pi
        return om

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

    The check and the projection run block by block (:func:`_blocks`),
    reading bin -k from a reversed view rather than through an index
    array, so their temporaries stay a block long.  The operations keep
    their order because the stored responses must not move by a bit: the
    projection adds the same two operands (a floating-point sum is
    commutative), and the check measures |conj(v(-k)) - v(k)|, which is
    exactly the conjugate of v(-k) - conj(v(k)) and so has the same
    modulus.
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
                v = self.values
                part = np.empty_like(v)
                for lo, hi in _blocks(v.size):
                    block = _conj_negated(v, lo, hi, part[lo:hi])
                    block += v[lo:hi]
                    block *= 0.5
                self.values = part

    def hermitian_deviation(self) -> float:
        v = self.values
        scratch = np.empty(min(v.size, _BLOCK + 1), dtype=np.complex128)
        worst = 0.0
        for lo, hi in _blocks(v.size):
            d = _conj_negated(v, lo, hi, scratch[:hi - lo])
            d -= v[lo:hi]
            worst = np.maximum(worst, np.abs(d).max())  # a NaN propagates
        return float(worst)


def _blocks(n: int):
    """(lo, hi) bounds of the blocks that cover n bins: _BLOCK bins each,
    except that a last block of one bin is merged into the one before.
    numpy rounds some operations on a one-element array differently from
    the same operation inside a longer one (an in-place complex product,
    for one), so a one-bin block would move that bin's bits."""
    lo = 0
    while lo < n:
        hi = lo + _BLOCK
        if n - hi <= 1:
            hi = n
        yield lo, hi
        lo = hi


def _conj_negated(v: np.ndarray, lo: int, hi: int, out: np.ndarray) -> np.ndarray:
    """conj(v[-k mod n]) for the bins lo <= k < hi, into ``out``: bin 0 is
    its own mirror, and bins n-lo down to n-hi+1 are read from a reversed
    view."""
    n = v.size
    if lo == 0:
        np.conjugate(v[:1], out=out[:1])
        np.conjugate(v[n - 1:n - hi:-1], out=out[1:])
    else:
        np.conjugate(v[n - lo:n - hi:-1], out=out)
    return out


def _blockwise(kernel, omega, dtype, *args):
    """``kernel(w, out, *args)`` evaluated on the _BLOCK-bin blocks of the
    flattened ``omega``, each written into its slice of one preallocated
    output: a kernel's temporaries are then a few blocks, whatever the
    length.  Every kernel is elementwise, so a bin's value does not depend
    on the block it falls in.  A scalar ``omega`` gives a scalar."""
    w = np.asarray(omega, dtype=np.float64)
    flat = w.reshape(-1)
    out = np.empty(flat.shape, dtype=dtype)
    for lo, hi in _blocks(flat.size):
        kernel(flat[lo:hi], out[lo:hi], *args)
    return out[0] if w.ndim == 0 else out.reshape(w.shape)


def frac_power(z, gamma):
    """Principal-branch fractional power |z|^gamma * exp(j*gamma*Arg z).

    Arg z is taken in (-pi, pi] (so e.g. (-4)**0.5 = 2j).  z = 0 is
    mapped to 0 for gamma > 0 and rejected otherwise; no mask is needed
    for it, since for gamma > 0 the formula itself gives exactly
    0^gamma * e^{j gamma 0} = 0.  The formula is evaluated in one fixed
    order (:func:`_pow0_polar`), because the spline filters are built on
    its values and must keep their bits.
    """
    z = np.asarray(z, dtype=np.complex128)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    if gamma <= 0 and np.any(z == 0):
        raise ValueError("0 cannot be raised to a non-positive fractional power")
    out = _pow0_polar(np.abs(z), np.angle(z), gamma)
    return out[0] if scalar else out


def _pow0(z, gamma):
    """Like frac_power but with the continuous extension 0**0 = 1.

    Used internally where a base vanishes while its exponent is zero
    (e.g. integer-order reductions of the refinement and FD filters).
    """
    z = np.atleast_1d(np.asarray(z, dtype=np.complex128))
    return _pow0_polar(np.abs(z), np.angle(z), gamma)


def _pow0_polar(r: np.ndarray, theta: np.ndarray, gamma: float,
                out: np.ndarray | None = None) -> np.ndarray:
    """z^gamma from r = |z| and theta = Arg z, with 0^0 = 1, into ``out``
    (a new array when None).

    Evaluated as e^{j gamma theta}, formed in ``out`` and then scaled in
    place by r^gamma: the products and their operand pairs of
    r^gamma * e^{j gamma theta}, so the same bits.  Every filter is built
    on these values, and a reordering (a reciprocal, a product regrouped)
    moves their last bits.
    """
    if out is None:
        out = np.empty(r.shape, dtype=np.complex128)
    if gamma == 0:
        out.fill(1.0)
        return out
    if gamma < 0 and np.any(r == 0):
        raise ValueError("0 cannot be raised to a negative fractional power")
    np.multiply(1j * gamma, theta, out=out)
    np.exp(out, out=out)
    out *= r ** gamma
    return out


def bspline_ft(params: SplineParams, omega) -> np.ndarray:
    """Fourier transform of the fractional B-spline of degree alpha, shift tau.

    beta^(omega) = ((1 - e^{-jw})/(jw))^{(a+1)/2 + t} ((1 - e^{jw})/(-jw))^{(a+1)/2 - t}

    The removable singularities at w = 2*pi*k are evaluated by limit:
    1 at w = 0, 0 elsewhere.  The second numerator 1 - e^{jw} is the
    conjugate of the first to the bit, but each base keeps its own
    division: where a base is negative real, the two quotients can carry
    zero imaginary parts of the same sign, and so the same argument -pi
    where conjugates would give -pi and pi (at w = -4*pi, for one).
    """
    a, t = params.alpha, params.tau
    return _blockwise(_bspline_block, omega, np.complex128,
                      (a + 1.0) / 2.0 + t, (a + 1.0) / 2.0 - t)


def _bspline_block(w: np.ndarray, out: np.ndarray, p1: float, p2: float):
    num = np.multiply(-1j, w)
    np.exp(num, out=num)
    np.subtract(1.0, num, out=num)  # 1 - e^{-jw}
    # it vanishes at every multiple of 2*pi, where the limits are used
    reg = np.abs(num) != 0.0
    vals = out
    if not reg.all():
        out[:] = 0.0
        out[w == 0.0] = 1.0
        w, num = w[reg], num[reg]
        vals = np.empty_like(num)
    b2 = np.conjugate(num)  # 1 - e^{jw} to the bit, for w != 0
    np.divide(b2, -1j * w, out=b2)
    b1 = np.divide(num, 1j * w, out=num)
    np.multiply(_pow0_polar(np.abs(b1), np.angle(b1), p1, out=b1),
                _pow0_polar(np.abs(b2), np.angle(b2), p2, out=b2), out=vals)
    if vals is not out:
        out[reg] = vals


def refinement_ft(params: SplineParams, omega) -> np.ndarray:
    """Transfer function of the two-scale (refinement) filter.

    H(e^{jw}) = 2^{-(a+1)} (1 + e^{jw})^{(a+1)/2 - t} (1 + e^{-jw})^{(a+1)/2 + t}

    Satisfies H(1) = 1 and, for the half-shifted spline,
    H_{t+1/2}(e^{jw}) = e^{-jw/2} H_t(e^{jw}) on (-pi, pi).

    With x = 1 + e^{jw}, the second base 1 + e^{-jw} is conj(x) to the
    bit, so both powers come from one modulus |x| and one argument
    +-Arg x.  The product is formed as (2^{-(a+1)} x^g1) conj(x)^g2, the
    order of the formula above: grouping the two powers first moves the
    last bit (at a = 0.5 and 2.5), and every filter is built on these
    values.  x never vanishes on the float grid (sin(fl(pi)) != 0).
    """
    a, t = params.alpha, params.tau
    return _blockwise(_refinement_block, omega, np.complex128,
                      2.0 ** -(a + 1.0), (a + 1.0) / 2.0 - t, (a + 1.0) / 2.0 + t)


def _refinement_block(w: np.ndarray, out: np.ndarray, scale: float, g1: float, g2: float):
    x = np.multiply(1j, w)
    np.exp(x, out=x)
    x += 1.0  # x = 1 + e^{jw}
    r, theta = np.abs(x), np.angle(x)
    _pow0_polar(r, theta, g1, out=out)
    out *= scale
    out *= _pow0_polar(r, np.negative(theta, out=theta), g2, out=x)


def fd_ft(alpha: float, tau: float, omega) -> np.ndarray:
    """Symbol of the fractional finite-difference operator.

    D^a_t(e^{jw}) = (1 - e^{-jw})^{a/2 + t} (1 - e^{jw})^{a/2 - t}

    evaluated by the product closed form on the principal branch; the
    second base is the conjugate of the first to the bit, so both powers
    come from one modulus and one argument.  At w = 0 (mod 2*pi) the
    value is defined as 0 (sign(0) = 0 convention; the sole exception is
    the trivial operator a = t = 0 which is 1).  The zeroth-order
    half-shift case (a=0, t=-1/2) reduces to -j*sign(w)*e^{+jw/2} on the
    open interval and to 1 at w = pi.
    """
    return _blockwise(_fd_block, omega, np.complex128, alpha / 2.0 + tau, alpha / 2.0 - tau,
                      1.0 if alpha == 0 and tau == 0 else 0.0)


def _fd_block(w: np.ndarray, out: np.ndarray, e1: float, e2: float, at_mult_value: float):
    base = np.multiply(1j, w)
    np.exp(base, out=base)
    np.conjugate(base, out=base)
    np.subtract(1.0, base, out=base)  # 1 - conj(e^{jw}); 1 - e^{jw} is its conjugate
    r = np.abs(base)
    reg = r != 0.0
    vals = out
    if not reg.all():
        out[:] = at_mult_value
        r, base = r[reg], base[reg]
        vals = np.empty_like(base)
    theta = np.angle(base)
    np.multiply(_pow0_polar(r, theta, e1, out=base),
                _pow0_polar(r, np.negative(theta, out=theta), e2), out=vals)
    if vals is not out:
        out[reg] = vals


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

    The sums accumulate in place, through one scratch array, but in the
    order and with the operations of the plain loop: ``b *= s + k; b /= w``
    rounds exactly as ``b * (s + k) / w``.  Multiplying by 1/w or a Horner
    form of the corrections would be cheaper, but both move last bits, and
    every design is built on these values.
    """
    w = q + 9.0
    total = q ** -s
    term = np.empty_like(w)
    for k in range(1, 10):
        np.add(q, k, out=term)
        term **= -s
        total += term
    b = w ** -s
    np.multiply(b, w, out=term)
    term /= s - 1.0
    total += term
    np.multiply(b, 0.5, out=term)
    total -= term
    k = 0.0
    for divisor in _EM_DIVISORS:
        b *= s + k
        b /= w
        np.divide(b, divisor, out=term)
        total += term
        b *= s + k + 1.0
        b /= w
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
    out = _blockwise(_autocorr_block, omega, np.float64, 2.0 * (alpha + 1.0))
    return float(out) if np.ndim(omega) == 0 else out


def _autocorr_block(w: np.ndarray, out: np.ndarray, s: float):
    # A is even; reducing |w| keeps a small negative w small instead of
    # mapping it to 2*pi - |w|, where that subtraction loses its digits
    u = np.abs(w)
    np.mod(u, 2.0 * np.pi, out=u)  # reduce to [0, 2*pi)
    u[u >= 2.0 * np.pi] = 0.0  # np.mod can round up to exactly 2*pi
    # subnormal u underflows sin(u/2) to 0; A is 1 to working precision there
    reg = u >= np.finfo(np.float64).tiny
    if reg.all():
        ur, total = u, out
    else:
        out[:] = 1.0
        ur = u[reg]
        total = np.empty_like(ur)
    # The k = 0 and k = -1 lattice terms blow up as u -> 0 or 2*pi; peel
    # them out of the zetas so every factor stays bounded.  The three
    # terms are summed in place, in the order
    # (m/u)^s + (m/(2 pi - u))^s + (m/(2 pi))^s * tail.
    q = ur / (2.0 * np.pi)
    m = ur / 2.0
    np.sin(m, out=m)
    m *= 2.0
    tail = _hurwitz_zeta(s, 1.0 + q)
    tail += _hurwitz_zeta(s, 2.0 - q)
    far = m / (2.0 * np.pi)
    far **= s
    tail *= far  # (m/(2 pi))^s * tail
    np.divide(m, ur, out=total)
    total **= s  # (m/u)^s
    mirror = np.subtract(2.0 * np.pi, ur, out=q)
    np.divide(m, mirror, out=mirror)
    mirror **= s  # (m/(2 pi - u))^s
    total += mirror
    total += tail
    if total is not out:
        out[reg] = total
