"""The four workloads: input generation, loading, and one request each, with
the per-request correctness checks.

Set-up is split in two. ``generate`` runs in a separate process
(``generate.py``): it writes emission files and text models to the work
directory and returns plain tables and references, which that process
pickles. ``load`` runs in the measuring process and builds everything the
requests use from those files through the package's loaders and
constructors, so the generators' temporaries never count towards the
measuring process's peak memory.

A request calls only the package's public functions. When a tracer is given,
the scorers and models it passes are delegating proxies and every public
call is wrapped in a span; the outputs are the same either way.
"""

from __future__ import annotations

import math
import os
import struct
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from seqdecode import (
    BeamConfig,
    CTCPrefixScorer,
    EmissionMatrix,
    LookAheadLMScorer,
    MaskCtcConfig,
    MultiLevelLMScorer,
    TableMLM,
    TableScorer,
    TableTransducer,
    TransducerBeamConfig,
    Vocabulary,
    WordTrie,
    batch_beam_search,
    ctc_confidence_collapse,
    ctc_forced_align,
    ctc_forward,
    ctc_vad,
    load_arpa,
    load_emission,
    mask_ctc_decode,
    transducer_alsd,
    transducer_beam,
    transducer_greedy,
    transducer_nsc,
    transducer_tsd,
)

import gen
from tracing import (
    DecodeStats,
    TracedFullScorer,
    TracedMLM,
    TracedPartialScorer,
    TracedTransducerModel,
    Tracer,
)

SCORE_TOL = 1e-9


@dataclass
class Utterance:
    frames: int
    ref: Tuple[int, ...]
    emission: Optional[EmissionMatrix] = None
    mlm: Optional[TableMLM] = None
    model: Optional[TableTransducer] = None
    variant: str = ""  # which scorer or fusion setting the request uses


@dataclass
class Prepared:
    """Everything set-up produced: the request pool and the shared models."""

    utts: List[Utterance]
    vocab: Optional[Vocabulary] = None
    full: Dict[str, Dict[str, Any]] = field(default_factory=dict)  # variant -> scorers
    partial: Dict[str, Any] = field(default_factory=dict)
    beam: Optional[BeamConfig] = None
    lm: Optional[TableScorer] = None  # transducer fusion LM
    files: Dict[str, str] = field(default_factory=dict)  # for the CLI check
    timings: Dict[str, float] = field(default_factory=dict)


@dataclass
class Result:
    """One request's outputs, in a form the checks and the digest read."""

    frames: int
    top: Dict[str, Tuple[Tuple[int, ...], float]]  # decoder -> top-1 (yseq, score)
    errors: Dict[str, Tuple[int, int]]  # decoder -> (edit distance, reference length)
    failures: List[str]
    extra: Dict[str, Any] = field(default_factory=dict)


def edit_distance(a: Sequence[int], b: Sequence[int]) -> int:
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, 1):
        cur = [i] + [0] * len(b)
        for j, y in enumerate(b, 1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (x != y))
        prev = cur
    return prev[-1]


def weighted_sum_failures(name: str, nbest, weights: Dict[str, float]) -> List[str]:
    """Each entry's weighted per-scorer scores must add up to its total."""
    out = []
    for k, e in enumerate(nbest.entries):
        total = sum(weights[n] * v for n, v in e.scores.items())
        if math.isinf(total) or math.isinf(e.score):
            ok = total == e.score
        else:
            ok = abs(total - e.score) <= SCORE_TOL
        if not ok:
            out.append(f"{name}: entry {k} scores sum to {total!r}, total {e.score!r}")
    return out


class Calls:
    """Times each public call; with a tracer, also wraps it in a span."""

    def __init__(self, tracer: Optional[Tracer]):
        self.tracer = tracer
        self.times: Dict[str, float] = {}

    def __call__(self, name: str, fn: Callable, *args):
        ctx = self.tracer.span(name) if self.tracer else nullcontext()
        t0 = perf_counter()
        with ctx:
            out = fn(*args)
        self.times[name] = self.times.get(name, 0.0) + perf_counter() - t0
        return out


def write_emission(logp: np.ndarray, path: str) -> None:
    """Write the raw-f32 emission format: magic, u32-LE T and V, f32-LE rows."""
    with open(path, "wb") as f:
        f.write(b"EMIS" + struct.pack("<II", *logp.shape) + logp.astype("<f4").tobytes())


def _add_time(timings: Dict[str, float], key: str, t0: float) -> None:
    timings[key] = timings.get(key, 0.0) + perf_counter() - t0


def _load_emission(path: str, timings: Dict[str, float]) -> EmissionMatrix:
    t0 = perf_counter()
    em = load_emission(path)
    _add_time(timings, "core.load_emission_s", t0)
    return em


# --- joint CTC/attention workloads ------------------------------------------------

V_LARGE = 1000


def large_vocab() -> Vocabulary:
    tokens = ["<blank>", "<sos>", "<eos>", "<mask>"] + [f"w{i}" for i in range(4, V_LARGE)]
    return Vocabulary(tokens=tuple(tokens), blank_id=gen.BLANK, sos_id=gen.SOS,
                      eos_id=gen.EOS, mask_id=gen.MASK)


class AttentionCTC:
    """long-form and wide-beam: an order-1 attention table plus CTC prefix
    scoring over V=1000; long-form adds VAD, alignment, forward scoring and
    Mask-CTC to every request."""

    MASK_THRESHOLD = 0.8
    MASK_ITERATIONS = 3

    def __init__(self, name: str, t_range: Tuple[int, int], beam: int, pool: int,
                 full_pipeline: bool):
        self.name = name
        self.t_range = t_range
        self.beam_size = beam
        self.pool = pool
        self.full_pipeline = full_pipeline

    def generate(self, rng: np.random.Generator, workdir: str) -> Dict[str, Any]:
        rows = gen.attention_rows(rng, V_LARGE, alpha=0.02, eos_share=0.05)
        labels = np.array(large_vocab().label_ids(), dtype=np.int64)
        utts = []
        for k, frames in enumerate(gen.size_grid(self.pool, *self.t_range)):
            ref = gen.sample_chain(rng, rows, labels, length=frames // 4, top=8)
            path = gen.plant_path(rng, ref, frames)
            logp = gen.planted_emission(
                rng, path, V_LARGE, labels, peak=(0.55, 0.97), confuse_share=0.15,
                noise_scale=0.5, neg_inf_share=0.05 if k % 4 == 1 else 0.0,
            )
            name = f"{self.name}-{k}.emis"
            write_emission(logp, os.path.join(workdir, name))
            item = {"frames": frames, "ref": tuple(ref), "emission": name}
            if self.full_pipeline:
                # the masked-LM table follows what Mask-CTC will see on the
                # stored (f32) emission
                em = load_emission(os.path.join(workdir, name))
                initial, conf = ctc_confidence_collapse(em, gen.BLANK)
                item["mlm"] = gen.mask_predict_patterns(
                    initial, conf, ref, self.MASK_THRESHOLD, self.MASK_ITERATIONS,
                    V_LARGE, rng,
                )
            utts.append(item)
        return {"rows": rows, "utts": utts}

    def load(self, inputs: Dict[str, Any], workdir: str) -> Prepared:
        timings: Dict[str, float] = {}
        t0 = perf_counter()
        att = TableScorer(context_order=1, vocab_size=V_LARGE, rows=inputs["rows"])
        _add_time(timings, "scorers.table_build_s", t0)
        utts = []
        for item in inputs["utts"]:
            em = _load_emission(os.path.join(workdir, item["emission"]), timings)
            utt = Utterance(frames=item["frames"], ref=item["ref"], emission=em)
            if "mlm" in item:
                utt.mlm = TableMLM(V_LARGE, gen.MASK, item["mlm"])
            utts.append(utt)
        return Prepared(
            utts=utts, vocab=large_vocab(),
            full={"": {"att": att}},
            partial={"ctc": CTCPrefixScorer(blank_id=gen.BLANK, eos_id=gen.EOS)},
            beam=BeamConfig(weights={"att": 0.7, "ctc": 0.3}, beam_size=self.beam_size),
            timings=timings,
        )

    def run(self, prep: Prepared, utt: Utterance, tracer: Optional[Tracer]):
        """One request; returns (outputs, seconds per public call)."""
        full, partial, mlm = prep.full[utt.variant], prep.partial, utt.mlm
        if tracer is not None:
            full = {n: TracedFullScorer(s, tracer, f"scorers.{n}", counts_steps=True)
                    for n, s in full.items()}
            partial = {n: TracedPartialScorer(s, tracer, f"scorers.{n}")
                       for n, s in partial.items()}
            mlm = TracedMLM(mlm, tracer) if mlm is not None else None
        call = Calls(tracer)
        em, vocab, ref = utt.emission, prep.vocab, utt.ref
        out: Dict[str, Any] = {}
        if self.full_pipeline:
            out["vad"] = call("ctc.vad", ctc_vad, em, vocab.blank_id, 0.5, 2, 1)
        out["nbest"] = decode(call, tracer, em, vocab, full, prep.beam, partial)
        if self.full_pipeline:
            out["align"] = call("ctc.align", ctc_forced_align, em, ref, vocab.blank_id)
            out["forward"] = call("ctc.forward", ctc_forward, em, ref, vocab.blank_id)
            cfg = MaskCtcConfig(threshold=self.MASK_THRESHOLD, iterations=self.MASK_ITERATIONS)
            out["maskctc"] = call("maskctc.decode", mask_ctc_decode, em, mlm, vocab, cfg)
        return out, call.times

    def check(self, prep: Prepared, utt: Utterance, out: Dict[str, Any]) -> Result:
        res = decode_result(prep, utt, out["nbest"])
        ref, T = utt.ref, utt.frames
        if not self.full_pipeline:
            return res
        segs = out["vad"]
        if not segs or segs[0].start != 0 or segs[-1].end != T or any(
            a.end != b.start for a, b in zip(segs, segs[1:])
        ) or any(s.start >= s.end for s in segs):
            res.failures.append("vad: segments do not tile [0, T)")
        align, forward = out["align"], out["forward"]
        if not align.score <= forward + SCORE_TOL:
            res.failures.append(f"align: best path {align.score!r} above forward {forward!r}")
        spans = align.spans
        if tuple(s.token for s in spans) != ref or any(
            not 0 <= s.start < s.end <= T for s in spans
        ) or any(a.end > b.start for a, b in zip(spans, spans[1:])):
            res.failures.append("align: spans are not half-open, ordered and on the reference")
        mc = out["maskctc"]
        if mc.mlm_calls > self.MASK_ITERATIONS:
            res.failures.append(f"maskctc: {mc.mlm_calls} masked-LM calls > K")
        res.top["align"] = (tuple(s.start for s in spans), align.score)
        res.top["forward"] = ((), forward)
        res.top["maskctc"] = (mc.tokens, 0.0)
        res.top["vad"] = (tuple(s.end for s in segs), 0.0)
        res.errors["maskctc"] = (edit_distance(mc.tokens, ref), len(ref))
        masked = mc.masked_counts[0] if mc.masked_counts else 0
        res.extra["masked"] = (masked, len(mc.initial_tokens))
        res.extra["ctc_cells"] = 2 * T * (2 * len(ref) + 1)
        return res


def decode_result(prep: Prepared, utt: Utterance, nbest) -> Result:
    best = nbest.best()
    return Result(frames=utt.frames, top={"decode": (best.yseq, best.score)},
                  errors={"decode": (edit_distance(best.yseq, utt.ref), len(utt.ref))},
                  failures=weighted_sum_failures("decode", nbest, prep.beam.weights))


def decode(call: Calls, tracer: Optional[Tracer], em, vocab, full, beam, partial):
    """batch_beam_search in a span, with per-decode step/stop stats."""
    if tracer is None:
        return call("beam_search.decode", batch_beam_search, em, vocab, full, beam, partial)
    tracer.decode = stats = DecodeStats()
    try:
        nbest = call("beam_search.decode", batch_beam_search, em, vocab, full, beam, partial)
    finally:
        tracer.decode = None
    tracer.count("beam_search.decodes")
    tracer.count("beam_search.steps", stats.steps)
    tracer.count("beam_search.successors_built", stats.built)
    tracer.count("beam_search.successors_observed", stats.observed_built)
    tracer.count("beam_search.successors_kept", stats.kept)
    tracer.count("beam_search.early_stops", int(stats.early_stop))
    tracer.count("beam_search.live_fallbacks", int(stats.finals == 0))
    return nbest


# --- letter search with word-LM fusion --------------------------------------------

class CharWordLM:
    """char-word-lm: letters, a seeded 2k-word lexicon and a bigram ARPA;
    requests alternate multi-level and look-ahead fusion, each with CTC."""

    name = "char-word-lm"
    ARPA = "words.arpa"
    LEXICON = "lexicon.txt"

    REF_LEN = (20, 52)  # reference length range in tokens, spaces included

    def __init__(self, pool: int, n_words: int = 2000):
        self.pool = pool
        self.n_words = n_words

    @staticmethod
    def vocab() -> Vocabulary:
        return Vocabulary(tokens=gen.letter_tokens(), blank_id=gen.BLANK, sos_id=gen.SOS,
                          eos_id=gen.EOS)

    def generate(self, rng: np.random.Generator, workdir: str) -> Dict[str, Any]:
        V = self.vocab().size
        words = gen.make_lexicon(rng, self.n_words)
        bigram = gen.make_bigram(rng, words, successors_per_word=4)
        with open(os.path.join(workdir, self.ARPA), "w", encoding="utf-8") as f:
            f.write(bigram.arpa_text())
        with open(os.path.join(workdir, self.LEXICON), "w", encoding="utf-8") as f:
            f.write("\n".join(words) + "\n")
        letters = np.arange(gen.SPACE + 1, V)
        utts = []
        for k, length in enumerate(gen.size_grid(self.pool, *self.REF_LEN)):
            ref = gen.encode_sentence(bigram.sample_sentence(rng, length))
            frames = int(round(len(ref) * rng.uniform(2.4, 2.8)))
            path = gen.plant_path(rng, ref, frames, blank_weight=1.0)
            logp = gen.planted_emission(
                rng, path, V, letters, peak=(0.6, 0.95), confuse_share=0.15,
                noise_scale=1.0,
            )
            name = f"{self.name}-{k}.emis"
            write_emission(logp, os.path.join(workdir, name))
            utts.append({"frames": frames, "ref": tuple(ref), "emission": name,
                         "variant": "multilevel" if k % 2 == 0 else "lookahead"})
        return {"char_rows": gen.letter_bigram_rows(words, V), "utts": utts}

    def load(self, inputs: Dict[str, Any], workdir: str) -> Prepared:
        timings: Dict[str, float] = {}
        vocab = self.vocab()
        arpa = os.path.join(workdir, self.ARPA)
        lexicon = os.path.join(workdir, self.LEXICON)
        t0 = perf_counter()
        word_lm = load_arpa(arpa)
        _add_time(timings, "lm.load_arpa_s", t0)
        with open(lexicon, encoding="utf-8") as f:
            words = f.read().split()
        t0 = perf_counter()
        trie = WordTrie(words, word_lm)
        _add_time(timings, "lm.trie_build_s", t0)
        t0 = perf_counter()
        char_lm = TableScorer(1, vocab.size, inputs["char_rows"])
        _add_time(timings, "scorers.table_build_s", t0)
        full = {
            "multilevel": {"lm": MultiLevelLMScorer(char_lm, word_lm, vocab)},
            "lookahead": {"lm": LookAheadLMScorer(trie, word_lm, vocab)},
        }
        utts = [
            Utterance(frames=item["frames"], ref=item["ref"], variant=item["variant"],
                      emission=_load_emission(os.path.join(workdir, item["emission"]), timings))
            for item in inputs["utts"]
        ]
        beam = BeamConfig(weights={"lm": 0.5, "ctc": 1.0}, beam_size=8, pre_beam_size=vocab.size)
        return Prepared(
            utts=utts, vocab=vocab, full=full,
            partial={"ctc": CTCPrefixScorer(blank_id=gen.BLANK, eos_id=gen.EOS)},
            beam=beam, files={"arpa": arpa, "lexicon": lexicon}, timings=timings,
        )

    def run(self, prep: Prepared, utt: Utterance, tracer: Optional[Tracer]):
        full, partial = prep.full[utt.variant], prep.partial
        if tracer is not None:
            full = {n: TracedFullScorer(s, tracer, f"lm.{utt.variant}", counts_steps=True)
                    for n, s in full.items()}
            partial = {n: TracedPartialScorer(s, tracer, f"scorers.{n}")
                       for n, s in partial.items()}
        call = Calls(tracer)
        nbest = decode(call, tracer, utt.emission, prep.vocab, full, prep.beam, partial)
        return {"nbest": nbest}, call.times

    def check(self, prep: Prepared, utt: Utterance, out: Dict[str, Any]) -> Result:
        return decode_result(prep, utt, out["nbest"])


# --- transducer -------------------------------------------------------------------

class Transducer:
    """transducer: an order-1 TableTransducer per utterance (30 labels, T about
    60, B=4) run through all five searches; every second request adds
    shallow fusion with a label table LM."""

    name = "transducer"
    LABELS = 30
    LM_WEIGHT = 0.3

    def __init__(self, pool: int, t_range: Tuple[int, int] = (50, 70)):
        self.pool = pool
        self.t_range = t_range

    def generate(self, rng: np.random.Generator, workdir: str) -> Dict[str, Any]:
        L = self.LABELS
        lm_rows = {(): np.log(rng.dirichlet(np.full(L, 0.3)))}
        for l in range(L):
            lm_rows[(l,)] = np.log(rng.dirichlet(np.full(L, 0.3)))
        utts = []
        for k, frames in enumerate(gen.size_grid(self.pool, *self.t_range)):
            ref = gen.sample_chain(rng, lm_rows, np.arange(L), length=frames // 3,
                                   repeats=False)
            rows = gen.transducer_rows(rng, ref, frames, L, peak=(0.5, 0.95), noise_scale=1.0)
            utts.append({"frames": frames, "ref": tuple(ref), "rows": rows,
                         "variant": "fusion" if k % 2 == 1 else "plain"})
        return {"lm_rows": lm_rows, "utts": utts}

    def load(self, inputs: Dict[str, Any], workdir: str) -> Prepared:
        L = self.LABELS
        timings: Dict[str, float] = {}
        t0 = perf_counter()
        lm = TableScorer(1, L, inputs["lm_rows"])
        utts = [
            Utterance(frames=item["frames"], ref=item["ref"], variant=item["variant"],
                      model=TableTransducer(context_order=1, frames=item["frames"],
                                            num_labels=L, rows=item["rows"]))
            for item in inputs["utts"]
        ]
        _add_time(timings, "scorers.table_build_s", t0)
        return Prepared(utts=utts, lm=lm, timings=timings)

    def run(self, prep: Prepared, utt: Utterance, tracer: Optional[Tracer]):
        model, lm = utt.model, prep.lm
        if tracer is not None:
            model = TracedTransducerModel(model, tracer)
            lm = TracedFullScorer(lm, tracer, "transducer.lm", counts_steps=False)
        fused = utt.variant == "fusion"
        call = Calls(tracer)
        out: Dict[str, Any] = {"greedy": call("transducer.greedy", transducer_greedy,
                                              model, utt.frames)}
        for alg, fn in SEARCHES.items():
            cfg = TransducerBeamConfig(beam_size=4, algorithm=alg,
                                       lm=lm if fused else None,
                                       lm_weight=self.LM_WEIGHT if fused else 0.0)
            if tracer is not None:
                tracer.frame_pops.clear()
            out[alg] = call(f"transducer.{alg}", fn, model, utt.frames, cfg)
            if tracer is not None and alg == "beam":
                out["pops_per_frame_max"] = max(tracer.frame_pops.values(), default=0)
        return out, call.times

    def check(self, prep: Prepared, utt: Utterance, out: Dict[str, Any]) -> Result:
        greedy = out["greedy"]
        res = Result(frames=utt.frames, top={"greedy": (greedy.yseq, greedy.score)},
                     errors={}, failures=[])
        weights = {"transducer": 1.0, "lm": self.LM_WEIGHT}
        for alg in SEARCHES:
            best = out[alg].best()
            res.top[alg] = (best.yseq, best.score)
            res.errors[alg] = (edit_distance(best.yseq, utt.ref), len(utt.ref))
            res.failures.extend(weighted_sum_failures(alg, out[alg], weights))
        if "pops_per_frame_max" in out:
            res.extra["pops_per_frame_max"] = out["pops_per_frame_max"]
        return res


SEARCHES = {"beam": transducer_beam, "tsd": transducer_tsd,
            "alsd": transducer_alsd, "nsc": transducer_nsc}

WORKLOADS = {
    "long-form": lambda: AttentionCTC("long-form", (320, 480), beam=8, pool=16,
                                      full_pipeline=True),
    "wide-beam": lambda: AttentionCTC("wide-beam", (80, 120), beam=32, pool=16,
                                      full_pipeline=False),
    "char-word-lm": lambda: CharWordLM(pool=48),
    "transducer": lambda: Transducer(pool=64),
}
