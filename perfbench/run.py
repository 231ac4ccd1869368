"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload {train,eval,tts_long} --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the run sets up several times (``setup_s`` is the
median), then runs operations for ``--seconds`` and reports the
end-to-end metrics.  With ``--trace 1`` it runs the same operations four
times, untraced, traced (every layer wrapped), traced and untraced, and
reports the per-layer metrics; the spans are written to
``.perfbench_out/``.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

BLAS runs on one thread, set before numpy loads: all load comes from
this one thread of this one process, so the other cores of a small
shared machine are left to the rest of the system.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# A second BLAS thread speeds these workloads up by under 10% and spins on
# the core it takes, which makes timings follow the host's other load.
BLAS_THREADS = 1
UNMEASURED = (
    "cli (argument parsing and report I/O)",
    "waiting (one thread, no queues)",
    "sub-layers inside model.forward (attention, FFN, heads)",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("train", "eval", "tts_long"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def tail(values):
    """(value, percentile, samples beyond): the highest percentile with at
    least ten samples above it, never below the median."""
    ordered = sorted(values)
    n = len(ordered)
    if n > 20:
        # ordered[n - 11] has exactly ten samples after it
        return ordered[n - 11], 100.0 * (n - 10) / n, 10
    value = statistics.median(ordered)
    return value, 50.0, sum(1 for v in ordered if v > value)


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without starting git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed: int, nproc: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(ROOT),
        "seed": seed,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def end_to_end(workload, seconds: float):
    setups = []
    for _ in range(workload.scale.setup_repeats):
        start = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - start)
    result = workload.run(seconds=seconds)
    ops = result.ops
    timed = [op.ms for op in ops]
    p50 = statistics.median(timed)
    tail_ms, tail_pct, beyond = tail(timed)
    throughput = sum(op.work for op in ops) / (sum(op.total_ms for op in ops) / 1e3)
    failed = sum(1 for op in ops if op.failure is not None)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "op_ms_p50": (p50, "ms"),
        "op_ms_tail": (tail_ms, "ms"),
        "throughput_per_s": (throughput, "1/s"),
    }
    n = len(ops)
    lines = [
        f"setup_s                   {metrics['setup_s'][0]:.4f} s  (median of {len(setups)} set-ups: "
        + ", ".join(f"{s:.3f}" for s in setups) + ")",
        f"peak_rss_mb               {metrics['peak_rss_mb'][0]:.1f} MB",
        f"failed_fraction           {failed / n:.4f}  ({failed} of {n} operations)",
        f"{workload.op_metric}_p50".ljust(26) + f"{p50:.2f} ms  (n={n})",
        f"{workload.op_metric}_tail".ljust(26)
        + f"{tail_ms:.2f} ms  (p{tail_pct:.1f}, n={n}, {beyond} beyond)",
        f"{workload.work_metric}".ljust(26) + f"{throughput:.4f} 1/s",
    ]
    for name, (value, unit) in result.notes.items():
        lines.append(name.ljust(26) + f"{value:.6g} {unit}")
    lines.append(f"digest                    {result.digest}  (first operations' outputs; information only)")
    for op in ops:
        if op.failure is not None:
            lines.append(f"FAILED: {op.failure}")
    return metrics, n, failed, lines


def traced(workload, seconds: float, out_path: Path):
    from perfbench.tracer import Tracer, instrument, patched, per_layer_metrics

    tracer = Tracer()
    with patched(instrument(tracer)):
        tracer.active = True
        workload.setup()
        tracer.active = False
    # untraced, traced, traced, untraced: the same operations each time, so
    # that a drift in machine speed cancels out of the overhead
    first = workload.run(seconds=seconds / 4, min_ops=1)
    count = len(first.ops)
    with patched(instrument(tracer)):
        tracer.active = True
        traced_runs = [workload.run(count=count, tracer=tracer) for _ in range(2)]
        tracer.active = False
    untraced_runs = [first, workload.run(count=count)]

    def total_ms(runs):
        return sum(op.total_ms for r in runs for op in r.ops)

    overhead = total_ms(traced_runs) / total_ms(untraced_runs) - 1.0
    metrics = per_layer_metrics(tracer.spans, overhead)
    ops = [op for r in untraced_runs + traced_runs for op in r.ops]
    failed = sum(1 for op in ops if op.failure is not None)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "fields": ["name", "start_ns", "end_ns", "parent", "op", "info"],
                "spans": [s.as_list() for s in tracer.spans],
                "metrics": {k: v for k, (v, _) in metrics.items()},
            },
            fh,
            separators=(",", ":"),
        )
    lines = [f"{name.ljust(40)} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines.append(f"operations: the same {count} run untraced, traced, traced, untraced")
    lines.append(f"spans: {len(tracer.spans)} written to {out_path}")
    for op in ops:
        if op.failure is not None:
            lines.append(f"FAILED: {op.failure}")
    return metrics, len(ops), failed, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "codec_infill" / "__init__.py").is_file():
        print(f"codec_infill sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)  # before numpy loads
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS, Scale

    work_dir = OUT_DIR / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, Scale(), work_dir)
    try:
        if args.trace:
            trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
            metrics, attempted, failed, lines = traced(workload, args.seconds, trace_path)
        else:
            metrics, attempted, failed, lines = end_to_end(workload, args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(environment(args.seed, nproc), sort_keys=True))
    for line in lines:
        print(line)
    print("unmeasured: " + "; ".join(UNMEASURED))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
