"""In-memory span tracer installed from outside the package.

The tracer wraps the public functions of each gaborwt module, and the
numpy.fft (and, once the package imports it, scipy.fft) transforms,
at every module binding that holds them: ``filter_design`` imports
``autocorr_ft`` by name, ``cli`` imports ``dtcwt2d_forward``, and the
package namespace re-exports most of them.  Nothing inside
``src/gaborwt`` changes.

Spans are kept in flat arrays (name, start, end, parent, operation) and
aggregated when the run ends; a span's self time is its duration minus
the time of its direct child spans.
"""

from __future__ import annotations

import contextlib
import functools
import math
import sys
import time
from array import array
from collections import Counter

import numpy as np

# (module, attribute, span name); the span names are the per-layer
# metric prefixes.  gabor_analysis and verify are on no transform path.
TARGETS = (
    ("gaborwt.spline_core", "autocorr_ft", "spline_core.autocorr_ft"),
    ("gaborwt.spline_core", "refinement_ft", "spline_core.refinement_ft"),
    ("gaborwt.spline_core", "bspline_ft", "spline_core.bspline_ft"),
    ("gaborwt.spline_core", "fd_ft", "spline_core.fd_ft"),
    ("gaborwt.filter_design", "design_dual_tree", "filter_design.design_dual_tree"),
    ("gaborwt.filter_design", "design_channel", "filter_design.design_channel"),
    ("gaborwt.filter_design", "ht_pair_channel", "filter_design.ht_pair_channel"),
    ("gaborwt.filter_design", "prefilter_response", "filter_design.prefilter_response"),
    ("gaborwt.transform1d", "project", "transform1d.project"),
    ("gaborwt.transform1d", "unproject", "transform1d.unproject"),
    ("gaborwt.transform1d", "analyze_level", "transform1d.analyze_level"),
    ("gaborwt.transform1d", "synthesize_level", "transform1d.synthesize_level"),
    ("gaborwt.transform1d", "dtcwt1d_forward", "transform1d.forward"),
    ("gaborwt.transform1d", "dtcwt1d_inverse", "transform1d.inverse"),
    ("gaborwt.transform2d", "dtcwt2d_forward", "transform2d.forward"),
    ("gaborwt.transform2d", "dtcwt2d_inverse", "transform2d.inverse"),
    ("gaborwt.transform2d", "mix_subbands", "transform2d.mix_subbands"),
    ("gaborwt.transform2d", "unmix_subbands", "transform2d.unmix_subbands"),
    ("gaborwt.transform2d", "build_channel_table", "transform2d.build_channel_table"),
    ("gaborwt.io", "read_image", "io.read_image"),
    ("gaborwt.io", "write_image", "io.write_image"),
    ("gaborwt.io", "save_pyramid2d", "io.save_pyramid2d"),
    ("gaborwt.io", "load_pyramid2d", "io.load_pyramid2d"),
    # the CLI span covers argument parsing and dispatch; it is named
    # after the command, e.g. "cli.xform2d"
    ("gaborwt.cli", "main", "cli"),
)

FFT_SPAN = "fft"
# transforms over one axis / two axes / all axes; real transforms are
# counted at 2.5 N log2 N flops, complex ones at 5 N log2 N
_FFT_1AXIS = ("fft", "ifft", "rfft", "irfft", "hfft", "ihfft")
_FFT_2AXES = ("fft2", "ifft2", "rfft2", "irfft2")
_FFT_NAXES = ("fftn", "ifftn", "rfftn", "irfftn")
_REAL_FFTS = frozenset(("rfft", "irfft", "hfft", "ihfft", "rfft2", "irfft2", "rfftn", "irfftn"))


def _fft_counter(name: str):
    """Counter that logs the call's shapes; fft_counts() turns them into counts."""
    def count(tracer, args, kwargs, out):
        a = args[0] if isinstance(args[0], np.ndarray) else np.asarray(args[0])
        axes = kwargs.get("axis", kwargs.get("axes", args[2] if len(args) > 2 else None))
        if isinstance(axes, list):
            axes = tuple(axes)
        tracer.fft_log.append((name, a.shape, a.nbytes, out.shape, out.nbytes, axes))
    return count


def _fft_call_counts(name, in_shape, in_bytes, out_shape, out_bytes, axes):
    """(points, flops, bytes) of one transform call.

    Points are the samples transformed (the larger of input and output);
    flops are computed as 5 N log2 N for complex and 2.5 N log2 N for
    real transforms, N being the transform size; bytes are input plus
    output array sizes.
    """
    if axes is None:
        axes = (-1,) if name in _FFT_1AXIS else (-2, -1) if name in _FFT_2AXES else range(len(out_shape))
    elif isinstance(axes, int):
        axes = (axes,)
    length = math.prod(max(in_shape[ax], out_shape[ax]) for ax in axes)
    points = max(math.prod(in_shape), math.prod(out_shape))
    flops = (2.5 if name in _REAL_FFTS else 5.0) * points * math.log2(max(length, 2))
    return points, flops, in_bytes + out_bytes


def _autocorr_counter(tracer, args, kwargs, out):
    tracer.counts["spline_core.autocorr_ft.points"] += int(np.size(out))


def _cli_span_name(args, kwargs) -> str:
    argv = args[0] if args else kwargs.get("argv")
    return f"cli.{argv[0]}" if argv else "cli"


class Tracer:
    """Records spans around wrapped functions while ``recording`` is set."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.counts: Counter = Counter()
        self.fft_log: list[tuple] = []
        self.recording = False
        self.ops = 0  # operations recorded
        self.cache_probe = None
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    # -- span recording ----------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.ops)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name, counter=None):
        """Return a wrapper of ``fn`` that records a span named ``name``.

        ``name`` may be a callable of (args, kwargs) giving the name.
        """
        tracer = self
        span_name = name if callable(name) else (lambda args, kwargs: name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            idx = tracer._open(span_name(args, kwargs))
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if counter is not None:
                counter(tracer, args, kwargs, out)
            return out

        return traced

    @contextlib.contextmanager
    def paused(self):
        """Stop recording inside the block (the benchmark's own checks)."""
        was, self.recording = self.recording, False
        try:
            yield
        finally:
            self.recording = was

    @contextlib.contextmanager
    def operation(self):
        """Bracket the program calls of one benchmark operation.

        While recording, the operation is counted and the hits and
        lookups of the package's design caches during it are added to
        the counts (``cache_probe`` returns the running totals).
        """
        if not self.recording:
            yield
            return
        self.ops += 1
        hits0, lookups0 = self.cache_probe() if self.cache_probe else (0, 0)
        try:
            yield
        finally:
            if self.cache_probe:
                hits, lookups = self.cache_probe()
                self.counts["filter_design.cache_hits"] += hits - hits0
                self.counts["filter_design.cache_lookups"] += lookups - lookups0

    def count(self, key: str, value: float):
        if self.recording:
            self.counts[key] += value

    # -- installation at every binding --------------------------------------

    def install(self):
        """Wrap every target at every binding in the package, numpy.fft and scipy.fft."""
        import importlib

        wrappers = {}
        for mod_name, attr, span in TARGETS:
            fn = getattr(importlib.import_module(mod_name), attr)
            if span == "cli":
                wrappers[id(fn)] = (fn, self.wrap(fn, _cli_span_name))
            elif span == "spline_core.autocorr_ft":
                wrappers[id(fn)] = (fn, self.wrap(fn, span, _autocorr_counter))
            else:
                wrappers[id(fn)] = (fn, self.wrap(fn, span))
        fft_modules = [m for m in ("numpy.fft", "scipy.fft") if m in sys.modules]
        for mod_name in fft_modules:
            mod = sys.modules[mod_name]
            for name in _FFT_1AXIS + _FFT_2AXES + _FFT_NAXES:
                fn = getattr(mod, name, None)
                if fn is not None and id(fn) not in wrappers:
                    wrappers[id(fn)] = (fn, self.wrap(fn, FFT_SPAN, _fft_counter(name)))
        modules = [m for name, m in list(sys.modules.items())
                   if name == "gaborwt" or name.startswith("gaborwt.")]
        modules += [sys.modules[m] for m in fft_modules]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patched.append((vars(mod), attr, value))

    def uninstall(self):
        for namespace, key, original in reversed(self._patched):
            namespace[key] = original
        self._patched.clear()

    # -- aggregation ----------------------------------------------------------

    def fft_counts(self) -> dict[str, float]:
        """Totals of FFT calls, points, computed flops and computed bytes."""
        memo = {}
        calls = points = flops = nbytes = 0
        for call in self.fft_log:
            c = memo.get(call)
            if c is None:
                c = memo[call] = _fft_call_counts(*call)
            calls += 1
            points += c[0]
            flops += c[1]
            nbytes += c[2]
        return {"calls": calls, "points": points, "flops": flops, "bytes": nbytes}

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total (inclusive) seconds and self seconds."""
        n = len(self.start)
        if n == 0:
            return {}
        names = np.frombuffer(self.name_id, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_s = dur - child
        k = len(self.names)
        total = np.bincount(names, weights=dur, minlength=k)
        self_total = np.bincount(names, weights=self_s, minlength=k)
        calls = np.bincount(names, minlength=k)
        return {name: {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(self_total[i])}
                for i, name in enumerate(self.names)}

    def save(self, path):
        """Write the raw spans as a compressed .npz file."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
        )
