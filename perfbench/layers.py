"""Per-layer metrics from a traced run.

Times and counts are means per request over the run's requests (``/req``
units), so runs that complete different numbers of requests compare.
Metrics of a layer the workload never calls read 0. Set-up timings are the
median over the run's set-ups.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Dict, List

from tracing import CHILD, END, NAME, START

ALGS = ("greedy", "beam", "tsd", "alsd", "nsc")

# end-to-end report lines taken from per-call wall times
CALL_P50S = {
    "rnnt_beam_p50_ms": "transducer.beam",
    "tsd_p50_ms": "transducer.tsd",
    "alsd_p50_ms": "transducer.alsd",
    "nsc_p50_ms": "transducer.nsc",
    "align_p50_ms": "ctc.align",
    "ctc_forward_p50_ms": "ctc.forward",
    "maskctc_p50_ms": "maskctc.decode",
}

UNITS: Dict[str, str] = {
    "scorers.ctc.kernel_s": "s/req",
    "scorers.ctc.calls": "count/req",
    "scorers.ctc.cells": "count/req",
    "scorers.ctc.ns_per_cell": "ns",
    "scorers.ctc.select_state_s": "s/req",
    "scorers.ctc.select_state_calls": "count/req",
    "scorers.ctc.bytes_copied": "B/req",
    "scorers.att.batch_score_s": "s/req",
    "scorers.att.select_state_s": "s/req",
    "beam_search.self_s": "s/req",
    "beam_search.topk_s": "s/req",
    "beam_search.topk_calls": "count/req",
    "beam_search.steps": "count/req",
    "beam_search.successors_built": "count/req",
    "beam_search.successor_keep_ratio": "share",
    "beam_search.early_stop_share": "share",
    "beam_search.live_fallback_share": "share",
    "lm.multilevel.batch_score_s": "s/req",
    "lm.multilevel.select_state_s": "s/req",
    "lm.lookahead.batch_score_s": "s/req",
    "lm.lookahead.select_state_s": "s/req",
    "lm.ngram_score_calls": "count/req",
    "lm.ngram_score_s": "s/req",
    "lm.load_arpa_s": "s",
    "lm.trie_build_s": "s",
    **{f"transducer.{a}_s": "s/req" for a in ALGS},
    **{f"transducer.{a}.self_s": "s/req" for a in ALGS},
    "transducer.model.joint_rows": "count/req",
    "transducer.model.pred_step_calls": "count/req",
    "transducer.model.model_s": "s/req",
    "transducer.lm_calls": "count/req",
    "transducer.beam.pops_per_frame_max": "count",
    "ctc.forward_s": "s/req",
    "ctc.align_s": "s/req",
    "ctc.vad_s": "s/req",
    "ctc.cells": "count/req",
    "ctc.ns_per_cell": "ns",
    "maskctc.decode_s": "s/req",
    "maskctc.mlm_calls": "count/req",
    "maskctc.mlm_s": "s/req",
    "maskctc.collapse_s": "s/req",
    "maskctc.masked_share": "share",
    "core.load_emission_s": "s",
    "scorers.table_build_s": "s",
    "trace.request_s": "s/req",
    "trace.accounted_share": "share",
    "trace.norm_frames_per_s": "frames/s",
}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(tracer, results, frames: List[int],
              setup_parts: List[Dict[str, float]]) -> Dict[str, float]:
    """Every metric in UNITS except trace.norm_frames_per_s, which the
    caller computes like the untraced norm_frames_per_s."""
    n = len(results)
    span_s: Dict[str, float] = defaultdict(float)
    span_self: Dict[str, float] = defaultdict(float)
    span_calls: Dict[str, int] = defaultdict(int)
    request_s = request_child = 0.0
    for rec in tracer.spans:
        d = rec[END] - rec[START]
        span_s[rec[NAME]] += d
        span_self[rec[NAME]] += d - rec[CHILD]
        span_calls[rec[NAME]] += 1
        if rec[NAME] == "request":
            request_s += d
            request_child += rec[CHILD]
    tally_s: Dict[str, float] = defaultdict(float)
    tally_calls: Dict[str, int] = defaultdict(int)
    select_bytes = 0.0
    for (req, name), (calls, seconds) in tracer.tallies.items():
        tally_s[name] += seconds
        tally_calls[name] += calls
        if name == "scorers.ctc.select_state":
            select_bytes += calls * 2 * frames[req] * 8
    count: Dict[str, float] = defaultdict(float)
    for (_, name), value in tracer.counts.items():
        count[name] += value

    def per(x: float) -> float:
        return _ratio(x, n)

    kernel_s = span_s["scorers.ctc.kernel"] + tally_s["scorers.ctc.kernel"]
    ctc_cells = sum(r.extra.get("ctc_cells", 0) for r in results)
    masked = [r.extra["masked"] for r in results if "masked" in r.extra]
    decodes = count["beam_search.decodes"]
    m = {
        "scorers.ctc.kernel_s": per(kernel_s),
        "scorers.ctc.calls": per(span_calls["scorers.ctc.kernel"]
                                 + tally_calls["scorers.ctc.kernel"]),
        "scorers.ctc.cells": per(count["scorers.ctc.cells"]),
        "scorers.ctc.ns_per_cell": 1e9 * _ratio(kernel_s, count["scorers.ctc.cells"]),
        "scorers.ctc.select_state_s": per(tally_s["scorers.ctc.select_state"]),
        "scorers.ctc.select_state_calls": per(tally_calls["scorers.ctc.select_state"]),
        "scorers.ctc.bytes_copied": per(select_bytes),
        "scorers.att.batch_score_s": per(span_s["scorers.att.batch_score"]),
        "scorers.att.select_state_s": per(tally_s["scorers.att.select_state"]),
        "beam_search.self_s": per(span_self["beam_search.decode"]),
        "beam_search.topk_s": per(tally_s["beam_search.topk"]),
        "beam_search.topk_calls": per(tally_calls["beam_search.topk"]),
        "beam_search.steps": per(count["beam_search.steps"]),
        "beam_search.successors_built": per(count["beam_search.successors_built"]),
        "beam_search.successor_keep_ratio": _ratio(count["beam_search.successors_kept"],
                                                   count["beam_search.successors_observed"]),
        "beam_search.early_stop_share": _ratio(count["beam_search.early_stops"], decodes),
        "beam_search.live_fallback_share": _ratio(count["beam_search.live_fallbacks"], decodes),
        "lm.ngram_score_calls": per(tally_calls["lm.ngram_score"]),
        "lm.ngram_score_s": per(tally_s["lm.ngram_score"]),
        "transducer.model.joint_rows": per(count["transducer.model.joint_rows"]),
        "transducer.model.pred_step_calls": per(count["transducer.model.pred_step_calls"]),
        "transducer.model.model_s": per(tally_s["transducer.model.joint"]
                                        + tally_s["transducer.model.joint_batch"]
                                        + tally_s["transducer.model.pred_step"]),
        "transducer.lm_calls": per(count["transducer.lm.score_calls"]),
        "transducer.beam.pops_per_frame_max": max(
            (r.extra.get("pops_per_frame_max", 0) for r in results), default=0),
        "ctc.forward_s": per(span_s["ctc.forward"]),
        "ctc.align_s": per(span_s["ctc.align"]),
        "ctc.vad_s": per(span_s["ctc.vad"]),
        "ctc.cells": per(ctc_cells),
        "ctc.ns_per_cell": 1e9 * _ratio(span_s["ctc.forward"] + span_s["ctc.align"], ctc_cells),
        "maskctc.decode_s": per(span_s["maskctc.decode"]),
        "maskctc.mlm_calls": per(count["maskctc.mlm_calls"]),
        "maskctc.mlm_s": per(span_s["maskctc.mlm"]),
        "maskctc.collapse_s": per(tally_s["maskctc.collapse"]),
        "maskctc.masked_share": _ratio(sum(a for a, _ in masked), sum(b for _, b in masked)),
        "trace.request_s": per(request_s),
        "trace.accounted_share": _ratio(request_child, request_s),
    }
    for variant in ("multilevel", "lookahead"):
        m[f"lm.{variant}.batch_score_s"] = per(span_s[f"lm.{variant}.batch_score"])
        m[f"lm.{variant}.select_state_s"] = per(tally_s[f"lm.{variant}.select_state"])
    for alg in ALGS:
        m[f"transducer.{alg}_s"] = per(span_s[f"transducer.{alg}"])
        m[f"transducer.{alg}.self_s"] = per(span_self[f"transducer.{alg}"])
    for key in ("lm.load_arpa_s", "lm.trie_build_s", "core.load_emission_s",
                "scorers.table_build_s"):
        m[key] = statistics.median(p.get(key, 0.0) for p in setup_parts)
    return {k: m[k] for k in UNITS if k in m}
