"""One benchmark process: set up, then run passes of one workload.

Started by ``run.py`` with the thread caps and ``PYTHONPATH`` already set.
Modes:

- ``setup``: import ``imddsim`` and build the workload's config, then exit.
- ``timed``: set up, run the first (cold) pass, then warm passes until
  ``--seconds`` have gone by (at least ``MIN_WARM_PASSES``); with
  ``--trace 1`` a traced pass and one more untraced pass follow, and the
  spans are written to ``spans.json`` in the workload's output directory.

The last line of standard output is one JSON object with the timings and
the first pass's CSV rows, which ``run.py`` compares across processes.
"""

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

MIN_WARM_PASSES = 1
ROOT = Path(__file__).resolve().parent.parent


def workdir_for(workload: str, seed: int) -> Path:
    """Output directory of one workload and seed; ``run.py`` creates it."""
    return ROOT / "perfbench" / "out" / f"{workload}-seed{seed}"


def timed_pass(workloads, name, workdir, seed):
    """Run one pass; returns (wall seconds, output or None if it raised)."""
    gc.collect()
    t0 = time.perf_counter()
    try:
        out = workloads.run_pass(name, workdir, seed)
    except Exception:
        traceback.print_exc()
        out = None
    return time.perf_counter() - t0, out


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=("setup", "timed"), required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    workdir = workdir_for(args.workload, args.seed)

    t0 = time.perf_counter()
    import imddsim
    t_import = time.perf_counter() - t0
    expected = (ROOT / "src" / "imddsim").resolve()
    if Path(imddsim.__file__).resolve().parent != expected:
        print(f"imddsim imported from {imddsim.__file__}, not {expected}", file=sys.stderr)
        return 2
    import workloads

    workloads.prepare(args.workload, workdir, args.seed)
    t0 = time.perf_counter()
    cfg = workloads.load(args.workload, workdir, args.seed)
    setup_s = t_import + time.perf_counter() - t0

    import numpy
    import scipy
    from imddsim.harness import resolve_sequence_length

    result = {
        "setup_s": setup_s,
        "env": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "omp_threads": os.environ.get("OMP_NUM_THREADS"),
            "seed": args.seed,
            "resolved_symbols": resolve_sequence_length(cfg),
        },
    }
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    calls = workloads.calls_per_pass(args.workload)
    first_s, out = timed_pass(workloads, args.workload, workdir, args.seed)
    reference = out.rows if out is not None else [None] * calls
    attempted, failed = calls, workloads.failed_calls(out, reference, args.workload)
    reports = [r for r in out.reports if r is not None] if out is not None else []
    result.update(
        first_pass_s=first_s,
        reference=reference,
        symbols=out.symbols if out is not None else 0,
        ngmi=statistics.fmean(r.ngmi for r in reports) if reports else 0.0,
        net_bitrate_gbps=max((r.net_bitrate_gbps for r in reports), default=0.0),
    )

    warm = []
    start = time.perf_counter()
    while len(warm) < MIN_WARM_PASSES or time.perf_counter() - start < args.seconds:
        wall, out = timed_pass(workloads, args.workload, workdir, args.seed)
        warm.append(wall)
        attempted += calls
        failed += workloads.failed_calls(out, reference, args.workload)

    if args.trace:
        from tracing import Tracer, fft_lengths, layer_metrics

        gc.collect()
        tracer = Tracer()
        tracer.pass_id = len(warm) + 1
        out = None
        with tracer.installed():
            with tracer.span("pass", "harness") as root:
                try:
                    out = workloads.run_pass(args.workload, workdir, args.seed)
                except Exception:
                    traceback.print_exc()
        attempted += calls
        failed += workloads.failed_calls(out, reference, args.workload)
        # The machine's speed drifts, so the overhead compares the traced
        # pass with the untraced passes right before and after it.
        after, out = timed_pass(workloads, args.workload, workdir, args.seed)
        attempted += calls
        failed += workloads.failed_calls(out, reference, args.workload)
        traced_wall = root.end - root.start
        per_layer = layer_metrics(tracer.spans, tracer.counts)
        per_layer["trace.wall_s"] = traced_wall
        per_layer["trace.overhead_s"] = traced_wall - statistics.fmean([warm[-1], after])
        result["per_layer"] = per_layer
        result["fft_lengths"] = fft_lengths(tracer.spans)
        (workdir / "spans.json").write_text(json.dumps({
            "env": result["env"], "workload": args.workload,
            "per_layer": per_layer, "fft_lengths": result["fft_lengths"],
            "spans": tracer.to_json(),
        }, indent=1))

    result.update(
        warm_s=warm, attempted=attempted, failed=failed,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
