"""Run one cyclesteer benchmark workload and print its metrics.

    python3 perfbench/run.py --workload radius-default --seed 1 --seconds 20 --trace 0

The load is a closed loop: this one process runs one op at a time, in a
fixed number of whole passes over the workload's inputs (the count
scales with --seconds). Op times are scaled to a reference machine speed
(see reference.py). Every result goes through the workload's correctness
gate after the timed loop. The last line of stdout is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``. With --trace 0
the metrics are the end-to-end ones of BENCHMARK.json; with --trace 1 one
pass runs untraced and then again with wrappers at the module
boundaries, and the metrics are the per-layer ones (spans go to
.perfbench_out/). A ``summary: {...}`` line on stderr adds the tail
latency, the failures and the result quality. cyclesteer is imported
from ``src/`` of this checkout; without it the run prints no result and
exits with code 2.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread: the ops are small dense problems, and the load
# is one op at a time. Set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 5
NOMINAL_SECONDS = 20


def _import_program():
    """Import the workloads, with cyclesteer from this checkout's src/ and
    never from elsewhere; None when the sources are missing."""
    if not (SRC / "cyclesteer" / "__init__.py").is_file():
        print(f"error: no cyclesteer sources under {SRC}", file=sys.stderr)
        return None
    sys.path.insert(0, str(SRC))
    import cyclesteer

    if Path(cyclesteer.__file__).resolve().parent != SRC / "cyclesteer":
        print(f"error: imported cyclesteer from {cyclesteer.__file__}, not {SRC}", file=sys.stderr)
        return None
    import workloads

    return workloads


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True, help="orders the inputs")
    p.add_argument("--seconds", type=float, default=NOMINAL_SECONDS,
                   help="run length; scales the workload's fixed number of passes")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--pool-seed", type=int, default=None,
                   help="draw another input pool (random states, search campaign) to re-check a claim")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def run_passes(workload, inputs, passes, tracer=None):
    """Run ``passes`` whole passes over ``inputs``, one op at a time.

    Returns the ops of every pass and, per op key, the op's fastest
    latency over the passes, scaled to the reference speed. The fastest
    repetition drops bursts of interference that the reference kernel
    did not see; the pass count is fixed, so this does not favour a
    faster program.
    """
    ops, scaled = [], {}
    for _ in range(passes):
        pass_ops = workload.run_pass(inputs, tracer, len(ops))
        samples = [op.speed for op in pass_ops] + [reference.sample(workload.kernel_runs)]
        intervals = [(op.start_s, op.latency_s) for op in pass_ops]
        for op, s in zip(pass_ops, reference.scaled(intervals, samples)):
            scaled.setdefault(op.key, []).append(s)
        ops += pass_ops
    return ops, {key: min(v) for key, v in scaled.items()}


def passes_for(workload, seconds) -> int:
    """Passes per run: the workload's count at the nominal run length,
    scaled with --seconds. The count does not depend on how fast the
    program runs, so two commits are measured on the same work."""
    return max(1, round(workload.passes * seconds / NOMINAL_SECONDS))


def measure_setup(args) -> float:
    """Median time, at the reference speed, for a fresh interpreter to
    import cyclesteer and build the workload's inputs, up to where the
    first op would start."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.pool_seed is not None:
        cmd += ["--pool-seed", str(args.pool_seed)]
    intervals, samples = [], [reference.sample()]
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            intervals.append((t0, perf_counter() - t0))
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != b"ready" or code != 0:
            raise RuntimeError(f"setup probe failed with exit code {code}")
        samples.append(reference.sample())
    return statistics.median(reference.scaled(intervals, samples))


def tail_latency(latencies):
    """(percentile, latency) at the highest percentile with at least ten
    ops beyond it, or None when there are fewer than 20 ops."""
    n = len(latencies)
    if n < 20:
        return None
    return 100.0 * (n - 10) / n, sorted(latencies)[n - 11]


def summarize(workload, ops, scaled, run_errors) -> dict:
    failed = sum(op.failed for op in ops)
    lat = list(scaled.values())
    wall_s = sum(op.latency_s for op in ops)
    summary = {
        "workload": workload.name,
        "attempted": len(ops),
        "failed": failed,
        "ops_per_pass": len(scaled),
        "passes": len(ops) // max(1, len(scaled)),
        "wall_s": wall_s,
        "unscaled_ops_per_s": len(ops) / wall_s,
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_s": statistics.median(lat),
        "failed_op_share": failed / len(ops),
        **workload.quality(ops),
        "failures": [f"{op.key}: {op.error or op.gate}" for op in ops if op.failed] + run_errors,
    }
    tail = tail_latency(lat)
    if tail is not None:
        summary["op_tail_s"] = {"percentile": tail[0], "value": tail[1], "samples": len(lat)}
    return summary


def untraced(args, workload, inputs) -> dict:
    setup_s = measure_setup(args)
    ops, scaled = run_passes(workload, inputs, passes_for(workload, args.seconds))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    s = summarize(workload, ops, scaled, workload.gate(ops))
    s.update(setup_s=setup_s, peak_rss_mb=peak_rss_mb)
    print("summary: " + json.dumps(s), file=sys.stderr)
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_s": {"value": s["ops_per_s"], "unit": "1/s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    return {"correct": not s["failures"], "attempted": len(ops), "failed": s["failed"], "metrics": metrics}


def traced(args, workload, inputs) -> dict:
    """One untraced pass, then the same pass with every boundary wrapped."""
    import spans

    ops_u, scaled_u = run_passes(workload, inputs, 1)
    tracer = spans.Tracer()
    tracer.install()
    try:
        ops_t, scaled_t = run_passes(workload, inputs, 1, tracer)
    finally:
        tracer.uninstall()
    errors = workload.gate(ops_u) + workload.gate(ops_t)
    errors += [f"{t.key}: traced result differs from untraced"
               for u, t in zip(ops_u, ops_t) if u.result != t.result]
    s_u = summarize(workload, ops_u, scaled_u, [])
    s = summarize(workload, ops_t, scaled_t, errors)
    restarts = len(ops_t) if workload.restart_ops else 0
    metrics = spans.layer_metrics(tracer, len(ops_t), restarts)
    metrics["trace.ops_per_s"] = {"value": s["ops_per_s"], "unit": "1/s"}
    metrics["trace.untraced_ops_per_s"] = {"value": s_u["ops_per_s"], "unit": "1/s"}
    metrics["trace.overhead_share"] = {"value": s_u["ops_per_s"] / s["ops_per_s"] - 1.0, "unit": "ratio"}
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{workload.name}-seed{args.seed}.json"
    tracer.write(path)
    s.update(absent_boundaries=tracer.absent, annotate_errors=tracer.annotate_errors,
             spans_file=str(path.relative_to(ROOT)))
    print("summary: " + json.dumps(s), file=sys.stderr)
    failures = s["failures"] + s_u["failures"]
    return {"correct": not failures, "attempted": len(ops_t), "failed": s["failed"], "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = _import_program()
    if wl is None:
        return 2
    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]
    pool_seed = wl.POOL_SEED if args.pool_seed is None else args.pool_seed
    inputs = workload.inputs(args.seed, pool_seed)
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    result = (traced if args.trace else untraced)(args, workload, inputs)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
