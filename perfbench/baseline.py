"""Record a baseline: ten untraced runs per workload (one seed each) and one
traced run, summarised as medians and quartile spreads, per-layer time
shares, the tracing overhead and the machine.

    python3 perfbench/baseline.py --out perfbench/baseline.json [--first-seed 11]

Each run is a separate process started exactly as the benchmark command in
BENCHMARK.json. The spread of a metric is the distance between its first
and third quartile (statistics.quantiles, n=4) as a share of its median.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SEEDS = 10


def bench(spec, workload: str, seed: int, trace: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not last["correct"]:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr[-2000:]}")
    path = os.path.join(ROOT, ".bench_out", f"{workload}-seed{seed}-trace{trace}.json")
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None}


def machine() -> dict:
    import numpy

    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            model = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model, "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", required=True)
    p.add_argument("--first-seed", type=int, default=1,
                   help="a second set of runs on other seeds uses 11")
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + SEEDS))
    out = {"machine": machine(), "run_seconds": spec["run_seconds"], "seeds": seeds,
           "workloads": {}}
    for name in names:
        runs = [bench(spec, name, s, 0) for s in seeds]
        traced = bench(spec, name, seeds[0], 1)
        e2e = {m["name"]: summary([r["metrics"][m["name"]] for r in runs])
               for m in spec["end_to_end"]}
        report_keys = [k for k, v in runs[0]["report"].items()
                       if isinstance(v, float) and k != "failed_share"]
        layer = traced["metrics"]
        request_s = layer["trace.request_s"]
        per_request = {m["name"] for m in spec["per_layer"] if m["unit"] == "s/req"}
        shares = {k: layer[k] / request_s for k in per_request - {"trace.request_s"} if layer[k]}
        untraced_rate = runs[0]["metrics"]["norm_frames_per_s"]
        out["workloads"][name] = {
            "end_to_end": e2e,
            "report": {k: summary([r["report"][k] for r in runs]) for k in report_keys},
            "requests": [r["report"]["requests"] for r in runs],
            "digests": {str(s): r["report"]["digest"] for s, r in zip(seeds, runs)},
            "trace": {
                "seed": seeds[0],
                "digest_matches_untraced": traced["report"]["digest"] == runs[0]["report"]["digest"],
                "overhead": 1.0 - layer["trace.norm_frames_per_s"] / untraced_rate,
                "per_layer": layer,
                "shares_of_request_time": dict(sorted(shares.items(), key=lambda kv: -kv[1])),
            },
        }
        worst = max(v["spread"] for k, v in e2e.items() if k != "setup_s")
        print(f"{name}: worst end-to-end spread {worst:.3f}", flush=True)
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(out, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
