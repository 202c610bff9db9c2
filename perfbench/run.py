"""Outside-in benchmark for seqdecode.

    python3 perfbench/run.py --workload long-form --seed 1 --seconds 20 --trace 0

One client sends one request at a time (closed loop, no threads) until
``--seconds`` have passed, and always at least DIGEST_REQUESTS requests.
Inputs are planted-transcript utterances generated from ``--seed``. Set-up
runs SETUPS times and reports its median; each one generates the inputs in a
child process (``generate.py``) and loads them here, so the generators'
temporaries stay out of this process's peak memory. Per-request checks and
the verify phase run outside the timed requests.

The machine's speed swings by up to 2x over minutes on shared hosts, so the
loop also times a fixed calibration kernel between requests (at most every
CALIBRATE_EVERY_S, outside the request latencies). The ``norm_*`` metrics
scale each request's wall time by REF_CALIBRATION_S over the calibration
times around it: they read as milliseconds on a machine where the kernel
takes REF_CALIBRATION_S. The raw wall-clock figures are report lines.

``--trace 0`` measures the end-to-end metrics. ``--trace 1`` wraps the
package's public entry points in spans and reports the per-layer metrics.
Human-readable report lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Results (and, traced, the spans) are written under ``.bench_out/``. The exit
code is 0 only when every request and check passed.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import os
import pickle
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from time import perf_counter

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SETUPS = 3
DIGEST_REQUESTS = 4
TER_CEILING = 0.25  # pooled main-decoder TER above this fails the run
CALIBRATE_EVERY_S = 0.5
CALIBRATION_WINDOW_S = 2.0
REF_CALIBRATION_S = 0.032  # about the kernel's median on the baseline machine

E2E_UNITS = {
    "norm_frames_per_s": "frames/s", "norm_latency_p50_ms": "ms",
    "norm_latency_tail_ms": "ms", "peak_rss_mb": "MB", "setup_s": "s",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def tail(latencies):
    """Highest percentile with at least ten samples beyond it (the minimum
    when there are fewer than eleven samples): (value, percentile, n)."""
    xs = sorted(latencies)
    k = max(0, len(xs) - 11)
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs)


def calibration() -> float:
    """Seconds for a fixed mix of small-array ufuncs, dict building and
    sorting, like the decoders' own mix. Never change it: it is the yardstick
    the norm_* metrics of every commit are measured against. The garbage
    collector is off while it runs, so collections that the requests made
    due are paid by the requests, not by the yardstick."""
    x = np.random.default_rng(0).normal(size=(120, 2, 8, 12))
    gc.disable()
    try:
        t0 = perf_counter()
        for _ in range(30):
            np.maximum(np.logaddexp(x[:-1], x[1:]), x[1:])
            d = {i: (i, str(i)) for i in range(150)}
            sorted(d.items(), key=lambda kv: -kv[0])
        return perf_counter() - t0
    finally:
        gc.enable()


def normalised(spans, cals):
    """Scale each request's latency by REF_CALIBRATION_S over the median
    calibration time within CALIBRATION_WINDOW_S of the request (always
    including the last sample before it and the first after it)."""
    times = [t for t, _ in cals]
    out = []
    for start, end in spans:
        lo = min(bisect.bisect_right(times, start) - 1,
                 bisect.bisect_left(times, start - CALIBRATION_WINDOW_S))
        hi = max(bisect.bisect_left(times, end) + 1,
                 bisect.bisect_right(times, end + CALIBRATION_WINDOW_S))
        speed = statistics.median(c for _, c in cals[max(0, lo):hi])
        out.append((end - start) * REF_CALIBRATION_S / speed)
    return out


def median_rate(frames, latencies):
    """Median over requests of frames decoded per second of latency."""
    return statistics.median(f / t for f, t in zip(frames, latencies))


def pooled_ter(results, decoders):
    edits = sum(r.errors[d][0] for r in results for d in decoders if d in r.errors)
    length = sum(r.errors[d][1] for r in results for d in decoders if d in r.errors)
    return edits / length if length else 0.0


def digest(results):
    """sha256 of every decoder's top-1 sequence and rounded score on the
    first DIGEST_REQUESTS requests, which every run completes."""
    items = [
        [k, name, list(yseq), round(score, 9)]
        for k, r in enumerate(results[:DIGEST_REQUESTS])
        for name, (yseq, score) in sorted(r.top.items())
    ]
    return hashlib.sha256(json.dumps(items).encode()).hexdigest()


def set_up(wl, seed: int, workdir: str):
    """Generate the inputs in a child process, then load them here."""
    from generate import INPUTS_FILE, WORKLOAD_FILE

    with open(os.path.join(workdir, WORKLOAD_FILE), "wb") as f:
        pickle.dump(wl, f)
    subprocess.run([sys.executable, os.path.join(HERE, "generate.py"), workdir, str(seed)],
                   check=True, timeout=150)
    with open(os.path.join(workdir, INPUTS_FILE), "rb") as f:
        inputs = pickle.load(f)
    return wl.load(inputs, workdir)


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(args, wl, workdir: str) -> dict:
    """Set up, run the closed loop, check, and compute the metrics."""
    import layers
    from tracing import Tracer, module_wrappers
    from verify import verify_phase

    setup_times, setup_parts = [], []
    prep = None
    for _ in range(SETUPS):
        prep = None
        gc.collect()
        t0 = perf_counter()
        prep = set_up(wl, args.seed, workdir)
        setup_times.append(perf_counter() - t0)
        setup_parts.append(prep.timings)
    setup_rss_mb = max_rss_mb()

    tracer = Tracer() if args.trace else None
    results, times, latencies, frames, failures = [], [], [], [], []
    spans, cals = [], []  # request (start, end); calibration (time, seconds)
    gc.collect()
    deadline = perf_counter() + args.seconds
    j = 0
    with module_wrappers(tracer) if tracer else nullcontext():
        while j < DIGEST_REQUESTS or perf_counter() < deadline:
            if not cals or perf_counter() - cals[-1][0] >= CALIBRATE_EVERY_S:
                cals.append((perf_counter(), calibration()))
            utt = prep.utts[j % len(prep.utts)]
            if tracer:
                tracer.request = len(results)
                span = tracer.begin("request")
            t0 = perf_counter()
            try:
                out, call_times = wl.run(prep, utt, tracer)
            except Exception:  # a crashed request is a failure; keep serving
                out = None
                failures.append(f"request {j}: {traceback.format_exc(limit=3)}")
            t1 = perf_counter()
            latency = t1 - t0
            if tracer:
                tracer.end(span)
            j += 1
            if out is None:
                continue
            res = wl.check(prep, utt, out)
            failures.extend(f"request {j - 1}: {m}" for m in res.failures)
            results.append(res)
            times.append(call_times)
            latencies.append(latency)
            spans.append((t0, t1))
            frames.append(utt.frames)
        cals.append((perf_counter(), calibration()))
    peak_rss_mb = max_rss_mb()

    checks = verify_phase(prep, np.random.default_rng([args.seed, 1]), workdir)
    decoders = [d for d in ("decode", "beam", "tsd", "alsd", "nsc")
                if results and d in results[0].errors]
    ter = pooled_ter(results, decoders)
    checks["ter_ceiling"] = [] if ter <= TER_CEILING else [
        f"pooled TER {ter:.4f} above {TER_CEILING}"]
    for name, msgs in checks.items():
        failures.extend(f"verify {name}: {m}" for m in msgs)
    attempted = j + len(checks)
    failed = (j - len(results) + sum(1 for r in results if r.failures)
              + sum(1 for msgs in checks.values() if msgs))

    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "requests": len(results), "digest": digest(results),
              "ter": ter, "failed_share": failed / attempted,
              "setup_rss_mb": setup_rss_mb, "peak_rss_mb": peak_rss_mb}
    metrics = {}
    if results:
        tail_value, report["latency_tail_percentile"], report["latency_samples"] = tail(latencies)
        report.update({
            "frames_per_s": median_rate(frames, latencies),
            "latency_p50_ms": 1000.0 * statistics.median(latencies),
            "latency_tail_ms": 1000.0 * tail_value,
            "calibration_ms": 1000.0 * statistics.median(c for _, c in cals),
        })
        if "maskctc" in results[0].errors:
            report["maskctc_ter"] = pooled_ter(results, ["maskctc"])
        for metric, call in layers.CALL_P50S.items():
            vals = [t[call] for t in times if call in t]
            if vals:
                report[metric] = 1000.0 * statistics.median(vals)
        if tracer:
            metrics = layers.per_layer(tracer, results, frames, setup_parts)
            metrics["trace.norm_frames_per_s"] = median_rate(frames, normalised(spans, cals))
        else:
            norm = normalised(spans, cals)
            metrics = {
                "norm_frames_per_s": median_rate(frames, norm),
                "norm_latency_p50_ms": 1000.0 * statistics.median(norm),
                "norm_latency_tail_ms": 1000.0 * tail(norm)[0],
                "peak_rss_mb": peak_rss_mb,
                "setup_s": statistics.median(setup_times),
            }
    return {"report": report, "metrics": metrics,
            "units": layers.UNITS if tracer else E2E_UNITS,
            "attempted": attempted, "failed": failed, "failures": failures,
            "setup_s": setup_times, "frames": frames, "latency_s": latencies,
            "tracer": tracer}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "seqdecode", "__init__.py")):
        print(f"benchmark: no seqdecode sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    out_dir = os.path.join(ROOT, ".bench_out")
    workdir = os.path.join(out_dir, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        res = measure(args, WORKLOADS[args.workload](), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics, units = res["metrics"], res["units"]
    for msg in res["failures"][:20]:
        print(f"FAILED {msg}", file=sys.stderr)
    for key, value in res["report"].items():
        print(f"{key} = {value}")
    for key, value in metrics.items():
        print(f"{key} = {value:.6g} {units[key]}")
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(out_dir, name + ".json"), "w", encoding="utf-8") as f:
        json.dump({k: v for k, v in res.items() if k not in ("tracer", "units")}, f, indent=1)
    if res["tracer"]:
        res["tracer"].dump(os.path.join(out_dir, name + ".spans.jsonl"))
    ok = res["failed"] == 0 and bool(metrics)
    print(json.dumps({
        "correct": ok, "attempted": res["attempted"], "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
