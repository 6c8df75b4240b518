"""Property checks on the outputs of the transforms and of filter design.

Every reference is computed here from properties the method must have
(perfect reconstruction, linearity, shift covariance, the PR identities,
the Hilbert relation of the paired highpass filters), never from stored
copies of earlier output.  Each function returns a deviation; the
``*_TOL`` constants are the limits an output must stay within.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

ROUNDTRIP_TOL = 1e-10   # absolute, on unit-variance inputs
LINEARITY_TOL = 1e-12   # relative to the largest coefficient
SHIFT_TOL = 1e-12       # relative to the largest coefficient
PR_TOL = 1e-12          # absolute, transfer = 1 and alias = 0
HT_TOL = 1e-12          # relative to the largest |g|
DC_TOL = 1e-12          # |h_tilde(DC) - 1|
REDUNDANCY_2D = 4       # reals stored per image pixel


def roundtrip_error(x, restored) -> float:
    """Max |restored - x|; infinite when the shapes differ."""
    x, restored = np.asarray(x), np.asarray(restored)
    if x.shape != restored.shape:
        return float("inf")
    return float(np.max(np.abs(restored - x)))


def _scale(bands) -> float:
    return max(float(np.max(np.abs(b))) for b in bands)


def linearity_error(t_comb, t_f, t_g, a: float, b: float) -> float:
    """Max |T(af + bg) - (a Tf + b Tg)| over all subbands, relative."""
    err = max(float(np.max(np.abs(c - (a * x + b * y))))
              for c, x, y in zip(t_comb, t_f, t_g, strict=True))
    return err / _scale(t_comb)


def subband_shifts(n_residues: int, n_bands_per_level: int, levels: int) -> list[int]:
    """Coefficient shifts caused by shifting the input by 2^levels samples.

    The residues live at scale 2^levels and move by 1; a level-i subband
    moves by 2^(levels - i).  Order: residues, then level 1, 2, ...
    """
    shifts = [1] * n_residues
    for i in range(1, levels + 1):
        shifts += [2 ** (levels - i)] * n_bands_per_level
    return shifts


def shift_error(t_shifted, t_ref, shifts, axes) -> float:
    """Max |T(S f) - S' T f| over all subbands, relative.

    ``S'`` rolls each reference subband by its shift along every axis in
    ``axes``; the input was rolled by 2^levels along the same axes.
    """
    axes = tuple(axes)
    err = max(float(np.max(np.abs(ts - np.roll(tr, (s,) * len(axes), axis=axes))))
              for ts, tr, s in zip(t_shifted, t_ref, shifts, strict=True))
    return err / _scale(t_ref)


def pyramid1d_bands(pyr) -> list[np.ndarray]:
    """Residues then subbands of a 1D pyramid, in the order of subband_shifts."""
    return [pyr.lowpass_a, pyr.lowpass_b, *pyr.w]


def pyramid2d_bands(pyr) -> list[np.ndarray]:
    """The four residues then the six subbands of each level."""
    return [*pyr.lowpass, *(wk for level in pyr.w for wk in level)]


# ---------------------------------------------------------------------------
# stored 2D pyramids, read independently of the package's loader

def read_stored_pyramid2d(directory) -> tuple[list[np.ndarray], int]:
    """Bands of a pyramid directory (pyramid2d_bands order) and its real count.

    The real count is taken from the sizes of the data files on disk
    (a complex sample counts as two reals).
    """
    directory = Path(directory)
    manifest = json.loads((directory / "manifest.json").read_text())
    by_name = {e["name"]: e for e in manifest["subbands"]}
    names = [f"lowpass{c}" for c in range(1, 5)]
    names += [f"w{i}_{k}" for i in range(1, manifest["levels"] + 1) for k in range(1, 7)]
    bands, reals = [], 0
    for name in names:
        e = by_name[name]
        dtype = np.dtype(e["dtype"])
        path = directory / e["file"]
        reals += path.stat().st_size // dtype.itemsize * (2 if dtype.kind == "c" else 1)
        bands.append(np.fromfile(path, dtype=dtype).reshape(e["shape"]))
    return bands, reals


# ---------------------------------------------------------------------------
# filter design

def omega_grid(n: int) -> np.ndarray:
    """DFT frequencies in FFT bin order on (-pi, pi], bin n/2 at +pi."""
    k = np.arange(n)
    w = 2.0 * np.pi * k / n
    w[k > n // 2] -= 2.0 * np.pi
    w[n // 2] = np.pi
    return w


def half_shift_operator(n: int) -> np.ndarray:
    """D = -j sign(w) e^{jw/2} on (-pi, pi), and 1 at w = pi."""
    w = omega_grid(n)
    d = -1j * np.sign(w) * np.exp(0.5j * w)
    d[n // 2] = 1.0
    return d


def pr_identity_error(h_tilde, g_tilde, h, g) -> float:
    """Max over bins of |transfer - 1| and |alias| for one level's filters.

    transfer = g*(w) g~(w) + h*(w) h~(w), alias = g*(w) g~(w+pi) + h*(w) h~(w+pi);
    the filters are real, so their responses at -w are conjugates.
    """
    n = h_tilde.size
    mirror = (np.arange(n) + n // 2) % n
    hs, gs = np.conj(h), np.conj(g)
    transfer = gs * g_tilde + hs * h_tilde - 1.0
    alias = gs * g_tilde[mirror] + hs * h_tilde[mirror]
    return float(max(np.max(np.abs(transfer)), np.max(np.abs(alias))))


def ht_relation_error(g_a, g_b) -> float:
    """Max |g_b - D g_a| relative to max |g_a|: the highpass Hilbert pair."""
    d = half_shift_operator(g_a.size)
    return float(np.max(np.abs(g_b - d * g_a)) / np.max(np.abs(g_a)))


def channel_arrays(channel) -> list[dict[str, np.ndarray]]:
    """Copies of each level's four filter responses of a ChannelFilters."""
    return [{name: np.array(getattr(lf, name).values) for name in ("h_tilde", "g_tilde", "h", "g")}
            for lf in channel.levels]


def design_errors(levels_a, levels_b) -> dict[str, float]:
    """PR identities of both channels, the highpass HT relation b = D a
    (for g and g~) and the lowpass DC gains, over every level.

    ``levels_a`` and ``levels_b`` are lists as made by channel_arrays.
    """
    pr = ht = dc = 0.0
    for la, lb in zip(levels_a, levels_b, strict=True):
        for lf in (la, lb):
            pr = max(pr, pr_identity_error(lf["h_tilde"], lf["g_tilde"], lf["h"], lf["g"]))
            dc = max(dc, abs(lf["h_tilde"][0] - 1.0))
        ht = max(ht, ht_relation_error(la["g"], lb["g"]),
                 ht_relation_error(la["g_tilde"], lb["g_tilde"]))
    return {"pr": pr, "ht": ht, "dc": float(dc)}


def design_ok(errors: dict[str, float]) -> bool:
    return errors["pr"] <= PR_TOL and errors["ht"] <= HT_TOL and errors["dc"] <= DC_TOL
