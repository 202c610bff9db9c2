"""Smoke test for the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at tiny sizes (the minimum number of requests, no timed
window) twice untraced and once traced. It checks that every run passes its
own correctness checks, that every metric BENCHMARK.json names is reported
together with the applicable end-to-end report lines, and that the output
digest repeats across the three runs. Exits non-zero on any mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run as bench

sys.path[:0] = [os.path.join(bench.ROOT, "src")]

import layers  # noqa: E402
from workloads import AttentionCTC, CharWordLM, Transducer  # noqa: E402

TINY = {
    "long-form": lambda: AttentionCTC("long-form", (40, 60), beam=8, pool=4, full_pipeline=True),
    "wide-beam": lambda: AttentionCTC("wide-beam", (20, 30), beam=8, pool=4, full_pipeline=False),
    "char-word-lm": lambda: CharWordLM(pool=4, n_words=200),
    "transducer": lambda: Transducer(pool=4, t_range=(12, 16)),
}

REPORTED = {  # end-to-end report lines beyond the JSON metrics, per workload
    "all": ("ter", "failed_share", "frames_per_s", "latency_p50_ms", "latency_tail_ms",
            "latency_tail_percentile", "latency_samples", "calibration_ms", "digest"),
    "long-form": ("maskctc_ter", "align_p50_ms", "ctc_forward_p50_ms", "maskctc_p50_ms"),
    "transducer": tuple(layers.CALL_P50S)[:4],
}


def main() -> int:
    with open(os.path.join(bench.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    named = {0: {m["name"] for m in spec["end_to_end"]},
             1: {m["name"] for m in spec["per_layer"]}}
    workdir = os.path.join(bench.ROOT, ".bench_out", f"smoke-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    problems = []
    try:
        if set(TINY) != {w["name"] for w in spec["workloads"]}:
            problems.append("BENCHMARK.json workloads differ from the benchmark's")
        for name, make in TINY.items():
            digests = []
            for trace in (0, 0, 1):
                args = argparse.Namespace(workload=name, seed=3, seconds=0.0, trace=trace)
                out = bench.measure(args, make(), workdir)
                tag = f"{name} trace={trace}"
                if out["failed"]:
                    problems.append(f"{tag}: {out['failed']} failed: {out['failures'][:3]}")
                if set(out["metrics"]) != named[trace]:
                    problems.append(f"{tag}: metrics {sorted(set(out['metrics']) ^ named[trace])} "
                                    "differ from BENCHMARK.json")
                want = REPORTED["all"] + REPORTED.get(name, ())
                missing = [k for k in want if k not in out["report"]]
                if missing:
                    problems.append(f"{tag}: report lacks {missing}")
                digests.append(out["report"]["digest"])
            if len(set(digests)) != 1:
                problems.append(f"{name}: digests differ across runs {digests}")
            print(f"{name}: digest {digests[0][:16]} x3", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for p in problems:
        print(f"SMOKE FAIL {p}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
