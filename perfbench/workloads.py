"""The benchmark's workloads, each driven through gaborwt's public API.

An operation is timed only across the program's calls; input generation
and the property checks run outside the timed region and, in a traced
round, with recording paused.  Every round attempts the same operations,
so a fault that fails on fixed inputs fails the same share of every run.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gaborwt
import gaborwt.cli
import checks

perf = time.perf_counter
_FFT, _IFFT, _FFT2, _IFFT2 = np.fft.fft, np.fft.ifft, np.fft.fft2, np.fft.ifft2

ALPHA, TAU, LEVELS = 3.0, 0.0, 4


class SpeedProbe:
    """Times a fixed reference kernel around each operation to track machine speed.

    The kernels never touch gaborwt and call the numpy.fft functions bound
    at import, before any tracer wraps them, so their time moves only with
    the speed of the machine.  Each workload's kernel does the same kind of
    work as its operations (small FFTs, large strided FFTs, Hurwitz zeta and
    complex powers), which is what makes the two slow down together.
    Each operation's times are reported scaled by ``factor()`` of the kernel
    times taken just before and just after it: as if the kernel had taken
    its nominal time, a constant set from its times on the machine the
    benchmark was written on.  A factor from the operation's own
    neighbourhood follows drift within a run, which one factor per run
    does not.
    """

    def __init__(self, kernel, nominal_s: float):
        self.run = kernel()
        self.nominal_s = nominal_s
        self.factors: list[float] = []

    def sample(self, repeats: int = 1) -> list[float]:
        times = []
        for _ in range(repeats):
            t0 = perf()
            self.run()
            times.append(perf() - t0)
        return times

    def factor(self, times: list[float]) -> float:
        """nominal / mean of ``times``, the kernel times around one operation."""
        f = self.nominal_s * len(times) / sum(times)
        self.factors.append(f)
        return f


def small_fft_kernel():
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal(1024), rng.standard_normal((128, 128))

    def run():
        for _ in range(4):
            _IFFT(_FFT(a))
        _IFFT2(_FFT2(b))
    return run


def image_fft_kernel():
    rng = np.random.default_rng(0)
    a, v = rng.standard_normal((512, 512)), np.exp(1j * rng.uniform(-3.0, 3.0, (512, 1)))

    def run():
        _IFFT(_FFT(a, axis=0) * v, axis=0)
    return run


def design_kernel():
    from scipy.special import zeta
    rng = np.random.default_rng(0)
    q = rng.uniform(0.01, 0.99, 4096)
    z = 1.0 + np.exp(1j * rng.uniform(-3.0, 3.0, 4096))

    def run():
        zeta(8.0, 1.0 + q) + zeta(8.0, 2.0 - q)
        np.abs(z) ** 2.5 * np.exp(2.5j * np.angle(z))
    return run


@dataclass
class Log:
    """What one set of rounds did: counts, program time and health numbers."""

    attempted: int = 0
    failed: int = 0
    check_failures: int = 0
    program_s: float = 0.0
    forward_s: list = field(default_factory=list)
    inverse_s: list = field(default_factory=list)
    failure_kinds: Counter = field(default_factory=Counter)
    roundtrip_max: float = 0.0
    pr_max: float = 0.0
    ht_max: float = 0.0
    # design_sweep: n -> [built, failed, seconds built, seconds failed]
    per_n: dict = field(default_factory=dict)

    def op(self, program_s: float, ok: bool, failure: str | None = None):
        self.attempted += 1
        self.program_s += program_s
        if failure is not None:
            self.failed += 1
            self.failure_kinds[failure] += 1
        elif not ok:
            self.failed += 1
            self.check_failures += 1

    def design_health(self, errors: dict[str, float]) -> bool:
        """Record a design's check deviations; True if all are in tolerance."""
        self.pr_max = max(self.pr_max, errors["pr"])
        self.ht_max = max(self.ht_max, errors["ht"])
        return checks.design_ok(errors)

    @property
    def succeeded(self) -> int:
        return self.attempted - self.failed


def _failure(exc: Exception) -> str:
    return f"{type(exc).__name__}: {str(exc).split(' (')[0][:80]}"


def design_caches():
    """The functools caches of the package's modules (the design cache)."""
    seen = {}
    for name, mod in list(sys.modules.items()):
        if name.startswith("gaborwt."):
            for value in vars(mod).values():
                if hasattr(value, "cache_info") and hasattr(value, "cache_clear"):
                    seen[id(value)] = value
    return list(seen.values())


def cache_probe(caches):
    """Running totals (hits, lookups) over the given caches."""
    def probe():
        infos = [c.cache_info() for c in caches]
        return sum(i.hits for i in infos), sum(i.hits + i.misses for i in infos)
    return probe


class Workload:
    """Inputs from ``seed``; ``probe`` samples machine speed around operations."""

    def __init__(self, seed: int, tracer, workdir: Path):
        self.rng = np.random.default_rng(seed)
        self.tracer = tracer
        self.dir = workdir
        self.probe = SpeedProbe(*self.probe_kernel)


class Batch1D(Workload):
    """1000 random signals of n = 1024 per round, one round trip each."""

    name = "batch1d"
    n, signals = 1024, 1000
    probe_kernel = (small_fft_kernel, 0.75e-3)

    def setup(self, log: Log):
        self.design = gaborwt.design_dual_tree(gaborwt.SplineParams(ALPHA, TAU), self.n, LEVELS)
        d = self.design
        if not log.design_health(checks.design_errors(checks.channel_arrays(d.channel_a),
                                                      checks.channel_arrays(d.channel_b))):
            log.check_failures += 1

    def _forward(self, x):
        return gaborwt.dtcwt1d_forward(gaborwt.Signal1D(x), self.design)

    def round(self, log: Log):
        tracer, d = self.tracer, self.design
        signals = self.rng.standard_normal((self.signals, self.n))
        coefs = self.rng.uniform(0.5, 2.0, (self.signals, 2)) * self.rng.choice((-1.0, 1.0), (self.signals, 2))
        shift = 2 ** LEVELS
        shifts = checks.subband_shifts(2, 1, LEVELS)
        # one probe sample between consecutive operations serves both
        before = self.probe.sample()
        for f, (a, b) in zip(signals, coefs):
            failure = None
            t0 = t1 = perf()
            try:
                with tracer.operation():
                    t0 = perf()
                    pyr = gaborwt.dtcwt1d_forward(gaborwt.Signal1D(f), d)
                    t1 = perf()
                    rec = gaborwt.dtcwt1d_inverse(pyr, d)
                    t2 = perf()
            except Exception as exc:  # counted as a failed operation
                failure, t2 = _failure(exc), perf()
            after = self.probe.sample()
            k, before = self.probe.factor(before + after), after
            if failure is not None:
                log.op(k * (t2 - t0), False, failure)
                continue
            with tracer.paused():
                g = np.roll(f, shift)
                t_g = checks.pyramid1d_bands(self._forward(g))
                t_c = checks.pyramid1d_bands(self._forward(a * f + b * g))
            t_f = checks.pyramid1d_bands(pyr)
            rt = checks.roundtrip_error(f, rec.samples)
            log.roundtrip_max = max(log.roundtrip_max, rt)
            ok = (rt <= checks.ROUNDTRIP_TOL
                  and checks.linearity_error(t_c, t_f, t_g, a, b) <= checks.LINEARITY_TOL
                  and checks.shift_error(t_g, t_f, shifts, (0,)) <= checks.SHIFT_TOL)
            log.forward_s.append(k * (t1 - t0))
            log.inverse_s.append(k * (t2 - t1))
            log.op(k * (t2 - t0), ok)


class Image2DCli(Workload):
    """One 512x512 raw image per operation: gaborwt xform2d then ixform2d."""

    name = "image2d_cli"
    shape = (512, 512)
    probe_kernel = (image_fft_kernel, 9.5e-3)
    params = gaborwt.SplineParams(ALPHA, TAU)

    def setup(self, log: Log):
        table = gaborwt.build_channel_table(self.params, self.shape, LEVELS)
        for ch_a, ch_b in (table.x_filters, table.y_filters):
            if not log.design_health(checks.design_errors(checks.channel_arrays(ch_a),
                                                          checks.channel_arrays(ch_b))):
                log.check_failures += 1

    def _cli(self, *argv) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return gaborwt.cli.main([str(a) for a in argv])

    def round(self, log: Log):
        tracer = self.tracer
        img = self.rng.standard_normal(self.shape)
        src, pyr_dir, out = self.dir / "input.f8", self.dir / "pyramid", self.dir / "restored.f8"
        shutil.rmtree(pyr_dir, ignore_errors=True)
        src.write_bytes(img.astype("<f8").tobytes())
        Path(f"{src}.json").write_text(json.dumps({"width": self.shape[1], "height": self.shape[0]}))
        before = self.probe.sample(repeats=2)
        failure = None
        t0 = t1 = perf()
        try:
            with tracer.operation():
                t0 = perf()
                rc_fwd = self._cli("xform2d", "--alpha", ALPHA, "--tau", TAU, "--levels", LEVELS,
                                   "--in", src, "--out", pyr_dir)
                t1 = perf()
                rc_inv = self._cli("ixform2d", "--in", pyr_dir, "--out", out) if rc_fwd == 0 else rc_fwd
                t2 = perf()
            if rc_inv != 0:
                failure = f"exit code {rc_inv}"
        except Exception as exc:  # counted as a failed operation
            failure, t2 = _failure(exc), perf()
        if failure is None:
            written = sum(p.stat().st_size for p in pyr_dir.iterdir())
            written += out.stat().st_size + Path(f"{out}.json").stat().st_size
            tracer.count("io.bytes_written", written)
            rt = checks.roundtrip_error(img.ravel(), np.fromfile(out, dtype="<f8"))
            log.roundtrip_max = max(log.roundtrip_max, rt)
            stored, reals = checks.read_stored_pyramid2d(pyr_dir)
            s = 2 ** LEVELS
            with tracer.paused():
                table = gaborwt.build_channel_table(self.params, self.shape, LEVELS)
                shifted = checks.pyramid2d_bands(
                    gaborwt.dtcwt2d_forward(np.roll(img, (s, s), axis=(0, 1)), table))
            ok = (rt <= checks.ROUNDTRIP_TOL
                  and reals == checks.REDUNDANCY_2D * img.size
                  and checks.shift_error(shifted, stored, checks.subband_shifts(4, 6, LEVELS),
                                         (0, 1)) <= checks.SHIFT_TOL)
        k = self.probe.factor(before + self.probe.sample(repeats=2))
        if failure is not None:
            log.op(k * (t2 - t0), False, failure)
            return
        log.forward_s.append(k * (t1 - t0))
        log.inverse_s.append(k * (t2 - t1))
        log.op(k * (t2 - t0), ok)


class DesignSweep(Workload):
    """Cold design over the alpha x tau x n grid, then one round trip each."""

    name = "design_sweep"
    probe_kernel = (design_kernel, 2.9e-3)
    alphas = (0.0, 0.5, 1.0, 2.0, 2.5, 3.0, 6.0, 10.0)
    taus = (0.0, 0.25, 0.5)
    lengths = tuple(2 ** k for k in range(8, 17))
    # forward_s / inverse_s come from this length only, where every
    # configuration builds today, so they do not move when more build;
    # each such design is timed over `timing_repeats` extra round trips
    reference_n, timing_repeats = 256, 8

    def __init__(self, seed: int, tracer, workdir: Path):
        super().__init__(seed, tracer, workdir)
        # the timed round trips are small FFTs, unlike the design work
        self.transform_probe = SpeedProbe(small_fft_kernel, 0.75e-3)

    @staticmethod
    def levels_for(n: int) -> int:
        return min(LEVELS, int(np.log2(n)) - 2)

    def setup(self, log: Log):
        n = self.lengths[0]
        gaborwt.design_dual_tree(gaborwt.SplineParams(self.alphas[0], self.taus[0]), n, self.levels_for(n))
        self.caches = design_caches()

    def round(self, log: Log):
        tracer = self.tracer
        before = self.probe.sample()
        for n in self.lengths:
            levels = self.levels_for(n)
            stats = log.per_n.setdefault(n, [0, 0, 0.0, 0.0])
            for alpha in self.alphas:
                for tau in self.taus:
                    p = gaborwt.SplineParams(alpha, tau)
                    x = self.rng.standard_normal(n)
                    for cache in self.caches:
                        cache.cache_clear()
                    failure = None
                    t0 = perf()
                    try:
                        with tracer.operation():
                            t0 = perf()
                            d = gaborwt.design_dual_tree(p, n, levels)
                            pyr = gaborwt.dtcwt1d_forward(gaborwt.Signal1D(x), d)
                            rec = gaborwt.dtcwt1d_inverse(pyr, d)
                            t1 = perf()
                    except Exception as exc:  # counted as a failed operation
                        failure, t1 = _failure(exc), perf()
                    after = self.probe.sample()
                    k, before = self.probe.factor(before + after), after
                    elapsed = k * (t1 - t0)
                    if failure is not None:
                        log.op(elapsed, False, failure)
                        stats[1] += 1
                        stats[3] += elapsed
                        continue
                    errors = checks.design_errors(checks.channel_arrays(d.channel_a),
                                                  checks.channel_arrays(d.channel_b))
                    rt = checks.roundtrip_error(x, rec.samples)
                    log.roundtrip_max = max(log.roundtrip_max, rt)
                    ok = log.design_health(errors) and rt <= checks.ROUNDTRIP_TOL
                    log.op(elapsed, ok)
                    if n == self.reference_n:
                        self._time_round_trips(x, d, log)
                    stats[0] += 1
                    stats[2] += elapsed

    def _time_round_trips(self, x, d, log: Log):
        """Warm forward and inverse times of a fresh design (not program time
        of the operation, and not traced)."""
        before = self.transform_probe.sample(repeats=2)
        fwd, inv = [], []
        with self.tracer.paused():
            for _ in range(self.timing_repeats):
                t0 = perf()
                pyr = gaborwt.dtcwt1d_forward(gaborwt.Signal1D(x), d)
                t1 = perf()
                gaborwt.dtcwt1d_inverse(pyr, d)
                t2 = perf()
                fwd.append(t1 - t0)
                inv.append(t2 - t1)
        k = self.transform_probe.factor(before + self.transform_probe.sample(repeats=2))
        log.forward_s += [k * t for t in fwd]
        log.inverse_s += [k * t for t in inv]


WORKLOADS = {w.name: w for w in (Batch1D, Image2DCli, DesignSweep)}
