"""Benchmark of gaborwt's FFT dual-tree transforms, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload batch1d --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones of BENCHMARK.json; with ``--trace 1``
they are the per-layer ones, from rounds that alternate between untraced
and traced so the tracing overhead is measured in the same run.  A
summary for people goes to standard error.  See perfbench/README.md.
"""

import time


def python_kernel_s() -> float:
    """Seconds to compile and run a small module of Python functions.

    Set-up is almost all importing, which is this kind of work, so this
    kernel timed just before and just after set-up tracks the machine's
    speed for it (see SETUP_NOMINAL_S).
    """
    t0 = time.perf_counter()
    src = "\n".join(f"def f{i}(x):\n    return [x * {i} + j for j in range(50)]" for i in range(100))
    ns = {}
    exec(compile(src, "<probe>", "exec"), ns)
    sum(sum(ns[f"f{i}"](i)) for i in range(100))
    return time.perf_counter() - t0


_SETUP_PROBE = [python_kernel_s(), python_kernel_s()]
_T0 = time.perf_counter()  # set-up time counts from here

import os  # noqa: E402

# one process, no extra threads: pin every numeric thread pool to 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("batch1d", "image2d_cli", "design_sweep")
# python_kernel_s() on the machine the benchmark was written on; set-up
# time is reported scaled by nominal / mean(kernel times around it), like
# the operation times (workloads.SpeedProbe)
SETUP_NOMINAL_S = 5.0e-3


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def import_package():
    """Import gaborwt from this checkout's src/, never from elsewhere."""
    if not (SRC / "gaborwt" / "__init__.py").is_file():
        raise SystemExit(f"error: no gaborwt package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import gaborwt
    if Path(gaborwt.__file__).resolve().parent != (SRC / "gaborwt").resolve():
        raise SystemExit(f"error: imported gaborwt from {gaborwt.__file__}, not from {SRC}")


def run_rounds(wl, tracer, seconds, trace, logs):
    """Whole rounds until ``seconds`` have passed; in trace mode odd rounds
    are traced and at least one round of each kind runs."""
    start = time.perf_counter()
    rounds = 0
    while True:
        traced = trace and rounds % 2 == 1
        if traced:
            tracer.install()
            tracer.recording = True
        try:
            wl.round(logs[traced])
        finally:
            if traced:
                tracer.recording = False
                tracer.uninstall()
        rounds += 1
        if time.perf_counter() - start >= seconds and (not trace or rounds >= 2):
            return rounds


def end_to_end(setup_s, log):
    """The end-to-end metrics; operation times are already scaled by the
    machine-speed factor measured around each operation (workloads.SpeedProbe)."""
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_s": {"value": log.succeeded / log.program_s if log.program_s > 0 else 0.0,
                      "unit": "ops/s"},
        "forward_s": {"value": statistics.median(log.forward_s or [0.0]), "unit": "s"},
        "inverse_s": {"value": statistics.median(log.inverse_s or [0.0]), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"},
    }


def per_layer(tracer, logs, setup_log):
    agg = tracer.aggregate()
    ops = max(tracer.ops, 1)
    counts = tracer.counts

    def span(name, key="s"):
        return agg.get(name, {}).get(key, 0.0) / ops

    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    for fn in ("autocorr_ft", "refinement_ft", "bspline_ft", "fd_ft"):
        put(f"spline_core.{fn}.s", span(f"spline_core.{fn}"), "s")
    put("spline_core.autocorr_ft.points", counts["spline_core.autocorr_ft.points"] / ops, "count")
    for fn in ("design_dual_tree", "design_channel", "ht_pair_channel", "prefilter_response"):
        put(f"filter_design.{fn}.s", span(f"filter_design.{fn}"), "s")
    lookups = counts["filter_design.cache_lookups"]
    put("filter_design.cache_hit_ratio",
        counts["filter_design.cache_hits"] / lookups if lookups else 0.0, "ratio")
    put("filter_design.cache_lookups_per_op", lookups / ops, "count")
    for fn in ("project", "unproject", "analyze_level", "synthesize_level"):
        put(f"transform1d.{fn}.s", span(f"transform1d.{fn}"), "s")
    put("transform1d.forward.self_s", span("transform1d.forward", "self_s"), "s")
    put("transform1d.inverse.self_s", span("transform1d.inverse", "self_s"), "s")
    for fn in ("forward", "inverse", "mix_subbands", "unmix_subbands", "build_channel_table"):
        put(f"transform2d.{fn}.s", span(f"transform2d.{fn}"), "s")
    put("transform2d.forward.self_s", span("transform2d.forward", "self_s"), "s")
    put("transform2d.inverse.self_s", span("transform2d.inverse", "self_s"), "s")
    fft = tracer.fft_counts()
    put("fft.calls_per_op", fft["calls"] / ops, "count")
    put("fft.points_per_op", fft["points"] / ops, "count")
    put("fft.s", span("fft"), "s")
    put("fft.flops_per_op", fft["flops"] / ops, "flop-computed")
    put("fft.bytes_per_op", fft["bytes"] / ops, "B-computed")
    for fn in ("read_image", "save_pyramid2d", "load_pyramid2d", "write_image"):
        put(f"io.{fn}.s", span(f"io.{fn}"), "s")
    put("io.bytes_written_per_op", counts["io.bytes_written"] / ops, "B")
    put("cli.xform2d.self_s", span("cli.xform2d", "self_s"), "s")
    put("cli.ixform2d.self_s", span("cli.ixform2d", "self_s"), "s")
    every = (setup_log, *logs.values())
    put("check.roundtrip_max_err", max(g.roundtrip_max for g in every), "abs")
    put("check.pr_identity_max", max(g.pr_max for g in every), "abs")
    put("check.ht_relation_max", max(g.ht_max for g in every), "rel")
    plain, traced = logs[False], logs[True]
    overhead = (traced.program_s / traced.attempted) / (plain.program_s / plain.attempted) - 1.0
    put("trace.overhead", overhead, "ratio")
    put("trace.ops", tracer.ops, "count")
    return m


def summary(args, wl, rounds, setup_s, logs) -> str:
    factors = wl.probe.factors
    lines = [f"workload {args.workload} seed {args.seed}: {rounds} rounds, set-up {setup_s:.3f} s, "
             f"machine-speed factor median {statistics.median(factors):.4f} "
             f"(min {min(factors):.4f}, max {max(factors):.4f}) over {len(factors)} operations; "
             "times below are scaled by it"]
    for traced, log in logs.items():
        if not log.attempted:
            continue
        kind = "traced" if traced else "untraced"
        lines.append(f"  {kind}: {log.attempted} attempted, {log.failed} failed "
                     f"({log.check_failures} by a check), {log.succeeded} ok in "
                     f"{log.program_s:.3f} s of program time")
        for kind_name, n in log.failure_kinds.most_common():
            lines.append(f"    failed {n}x  {kind_name}")
        for name, xs in (("forward", log.forward_s), ("inverse", log.inverse_s)):
            if xs:
                p90 = statistics.quantiles(xs, n=10, method="inclusive")[-1] if len(xs) > 1 else xs[0]
                lines.append(f"    {name}: median {statistics.median(xs) * 1e3:.4f} ms, "
                             f"p90 {p90 * 1e3:.4f} ms over {len(xs)} samples")
        for n, (ok, bad, ok_s, bad_s) in sorted(log.per_n.items()):
            lines.append(f"    n={n:6d}: built {ok:3d} in {ok_s:7.3f} s, "
                         f"failed {bad:3d} in {bad_s:7.3f} s")
    return "\n".join(lines)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    import workloads
    from tracer import Tracer

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        tracer = Tracer()
        wl = workloads.WORKLOADS[args.workload](args.seed, tracer, workdir)
        setup_log = workloads.Log()
        wl.setup(setup_log)
        setup_wall_s = time.perf_counter() - _T0
        probe = _SETUP_PROBE + [python_kernel_s(), python_kernel_s()]
        setup_s = setup_wall_s * SETUP_NOMINAL_S * len(probe) / sum(probe)
        tracer.cache_probe = workloads.cache_probe(workloads.design_caches())

        logs = {False: workloads.Log(), True: workloads.Log()}
        rounds = run_rounds(wl, tracer, args.seconds, bool(args.trace), logs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(summary(args, wl, rounds, setup_s, logs), file=sys.stderr)
    print(f"  set-up wall time {setup_wall_s:.3f} s", file=sys.stderr)
    attempted = sum(g.attempted for g in logs.values())
    failed = sum(g.failed for g in logs.values())
    check_failures = sum(g.check_failures for g in logs.values())
    correct = check_failures + setup_log.check_failures == 0
    if args.trace:
        metrics = per_layer(tracer, logs, setup_log)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.npz"
        tracer.save(trace_path)
        print(f"  spans written to {trace_path.relative_to(ROOT)}; "
              f"tracing overhead {metrics['trace.overhead']['value']:+.1%}", file=sys.stderr)
    else:
        metrics = end_to_end(setup_s, logs[False])
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
