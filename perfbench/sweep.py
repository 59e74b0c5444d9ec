"""Run benchmark workloads over several seeds and report each metric's spread.

    python3 perfbench/sweep.py                       # every workload, seeds 1-10
    python3 perfbench/sweep.py --workloads s1-search --seeds 1 2 3 --trace 1
    python3 perfbench/sweep.py --out runs.json      # every run and the statistics

Each run is a separate ``run.py`` process, one after another. For every
workload and metric the table gives the unit, the median, the quartiles
and the spread (interquartile range over median); an end-to-end metric
whose spread exceeds a third of its bound in BENCHMARK.json is flagged.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def environment() -> dict:
    probe = "import numpy, scipy; print(numpy.__version__, scipy.__version__)"
    numpy_v, scipy_v = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    ).stdout.split()
    cpuinfo = Path("/proc/cpuinfo")
    lines = cpuinfo.read_text().splitlines() if cpuinfo.exists() else []
    cpu = next((line.split(":", 1)[1].strip() for line in lines if line.startswith("model name")),
               platform.processor())
    return {
        "python": platform.python_version(),
        "numpy": numpy_v,
        "scipy": scipy_v,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "threads": {var: os.environ.get(var, "1") for var in THREAD_VARS},
    }


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    summary = next((json.loads(line[len("summary: "):]) for line in proc.stderr.splitlines()
                    if line.startswith("summary: ")), None)
    return {"workload": workload, "seed": seed, "trace": trace,
            "result": json.loads(proc.stdout.splitlines()[-1]), "summary": summary}


def stats(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med, "q1": med, "q3": med, "spread": 0.0, "n": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None,
            "n": len(values)}


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in config["workloads"]])
    p.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    p.add_argument("--seconds", type=float, default=config["run_seconds"])
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--out", default=None, help="write every run and the statistics here as JSON")
    args = p.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    runs, table, unsteady = [], {}, []
    for workload in args.workloads:
        rows = [run_one(workload, seed, args.seconds, args.trace) for seed in args.seeds]
        runs += rows
        bad = [r["seed"] for r in rows if not r["result"]["correct"] or r["result"]["failed"]]
        print(f"\n{workload}: {len(rows)} runs, seeds with failures or failed gates: {bad or 'none'}")
        table[workload] = {}
        for name, first in rows[0]["result"]["metrics"].items():
            values = [r["result"]["metrics"][name]["value"] for r in rows]
            if any(v is None for v in values):
                print(f"  {name:28s} absent")
                continue
            s = stats(values)
            table[workload][name] = {"unit": first["unit"], **s}
            flag = ""
            if name in bounds and name != "setup_s" and s["spread"] > bounds[name] / 3:
                flag = f"  spread above a third of bound {bounds[name]}"
                unsteady.append((workload, name))
            spread = "-" if s["spread"] is None else f"{s['spread']:.3f}"
            print(f"  {name:28s} {first['unit']:6s} median {s['median']:<12.6g} "
                  f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} spread {spread}{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"environment": environment(), "seconds": args.seconds, "trace": args.trace,
             "seeds": args.seeds, "statistics": table, "runs": runs}, indent=1) + "\n")
    return 1 if unsteady else 0


if __name__ == "__main__":
    sys.exit(main())
