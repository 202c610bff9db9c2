"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured evidence (run with ``pytest tests/test_acceptance.py -v -s``).

Tolerances are fixed here, not configurable.
"""

import json
import math
import time

import numpy as np
import pytest

from seqdecode import (
    BeamConfig,
    CTCPrefixScorer,
    EmissionMatrix,
    MaskCtcConfig,
    TableMLM,
    batch_beam_search,
    beam_search,
    ctc_confidence_collapse,
    ctc_forced_align,
    ctc_forward,
    ctc_vad,
    load_arpa,
    mask_ctc_decode,
    ngram_score,
    oracle_best_sequence,
    oracle_ctc_prob,
    oracle_transducer_prob,
    sentence_logprob,
    transducer_alsd,
    transducer_beam,
    transducer_greedy,
    transducer_nsc,
    transducer_tsd,
)
from seqdecode.ctc import merge_runs
from seqdecode.lm import BOS, LookAheadLMScorer, MultiLevelLMScorer, WordTrie
from seqdecode.oracle import OracleBudget
from seqdecode.transducer import TransducerBeamConfig
from seqdecode.cli import main as cli_main

from conftest import (
    dag_transducer,
    make_vocab,
    random_emission,
    random_table_scorer,
)
from test_lm import char_vocab, encode, random_proper_arpa, reference_backoff, score_tokens
from test_maskctc import peaked_emission


def report(criterion: str, detail: str) -> None:
    print(f"\n[acceptance] {criterion}: PASS ({detail})")


def test_criterion_1_ctc_oracle_equivalence():
    """ctc_forward vs path enumeration (1e-6 linear) and accumulated prefix
    scores at eos vs ctc_forward (1e-9), 200+ random instances, < 10 s."""
    start = time.perf_counter()
    checked_forward = 0
    checked_eos = 0
    for seed in range(200):
        rng = np.random.default_rng(31000 + seed)
        vocab_size = int(rng.integers(2, 4))  # blank + 1..2 labels
        frames = int(rng.integers(1, 6))
        em = random_emission(rng, frames, vocab_size)
        labels = tuple(
            int(rng.integers(1, vocab_size)) for _ in range(int(rng.integers(0, 4)))
        )
        dp = ctc_forward(em, labels, 0)
        brute = oracle_ctc_prob(em, labels, 0)
        assert math.exp(dp) == pytest.approx(math.exp(brute), abs=1e-6)
        checked_forward += 1

        # accumulate CTC prefix scores through the labels, then eos
        eos_id = vocab_size  # outside the emission: extend with an eos column
        wide = np.full((frames, vocab_size + 1), -np.inf)
        wide[:, :vocab_size] = em.data
        em_wide = EmissionMatrix(_renorm(wide))
        scorer = CTCPrefixScorer(blank_id=0, eos_id=eos_id)
        state = scorer.init_state(em_wide)
        prefix = (99,)
        total = 0.0
        feasible = True
        for tok in labels:
            scores, scored = scorer.score_partial(prefix, np.array([tok]), state, em_wide)
            total += float(scores[0])
            state = scorer.select_state(scored, tok)
            prefix = prefix + (tok,)
            if state.prefix_score == -np.inf:
                feasible = False
                break
        if feasible:
            eos_scores, _ = scorer.score_partial(
                prefix, np.array([eos_id]), state, em_wide
            )
            total += float(eos_scores[0])
            dp_wide = ctc_forward(em_wide, labels, 0)
            if total == -np.inf or dp_wide == -np.inf:
                assert total == dp_wide
            else:
                assert total == pytest.approx(dp_wide, abs=1e-9)
            checked_eos += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(
        "criterion 1 (CTC oracle equivalence)",
        f"{checked_forward} forward + {checked_eos} eos checks in {elapsed:.2f}s",
    )


def _renorm(logp: np.ndarray) -> np.ndarray:
    out = np.array(logp, copy=True)
    lse = np.logaddexp.reduce(out, axis=1, keepdims=True)
    return out - lse


def test_criterion_2_beam_search_optimality():
    """Exhaustive-width beam top-1 equals the brute-force joint argmax over
    50+ random instances (label alphabet <= 3, L <= 4, T <= 5), < 30 s."""
    start = time.perf_counter()
    budget = OracleBudget(max_vocab=8, max_frames=6, max_len=5)
    for seed in range(50):
        rng = np.random.default_rng(32000 + seed)
        n_labels = int(rng.integers(1, 4))
        vocab = make_vocab(n_labels)
        frames = int(rng.integers(2, 6))
        max_len = int(rng.integers(1, 5))
        em = random_emission(rng, frames, vocab.size)
        fulls = {"att": random_table_scorer(rng, 1, vocab.size)}
        parts = {}
        weights = {"att": float(rng.uniform(0.3, 1.2))}
        if seed % 2 == 0:
            parts["ctc"] = CTCPrefixScorer(blank_id=vocab.blank_id, eos_id=vocab.eos_id)
            weights["ctc"] = float(rng.uniform(0.2, 0.8))
        width = (n_labels + 1) ** (max_len + 1)
        cfg = BeamConfig(
            weights=weights, beam_size=width, pre_beam_size=max(width, vocab.size),
            max_steps=max_len + 1,
        )
        nbest = beam_search(em, vocab, fulls, cfg, parts)
        oracle_yseq, oracle_score = oracle_best_sequence(
            vocab, em, fulls, weights, max_len=max_len,
            partial_scorers=parts, budget=budget,
        )
        assert nbest.best().yseq == oracle_yseq
        assert nbest.best().score == pytest.approx(oracle_score, abs=1e-6)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report("criterion 2 (beam-search optimality)", f"50 instances in {elapsed:.2f}s")


def test_criterion_3_sequential_batched_equivalence():
    """100+ random instances (V up to 50, B up to 8): batch output identical
    in sequences, scores within 1e-9. Zero mismatches."""
    start = time.perf_counter()
    mismatches = 0
    for seed in range(100):
        rng = np.random.default_rng(33000 + seed)
        n_labels = int(rng.integers(2, 47))
        vocab = make_vocab(n_labels)  # vocab size up to 50
        frames = int(rng.integers(2, 11))
        em = random_emission(rng, frames, vocab.size)
        fulls = {"att": random_table_scorer(rng, int(rng.integers(0, 2)), vocab.size,
                                            n_contexts=8)}
        weights = {"att": float(rng.uniform(0.2, 1.2))}
        parts = {}
        if rng.random() < 0.7:
            parts["ctc"] = CTCPrefixScorer(blank_id=vocab.blank_id, eos_id=vocab.eos_id)
            weights["ctc"] = float(rng.uniform(0.1, 0.9))
        if rng.random() < 0.3:
            fulls["lm"] = random_table_scorer(rng, 0, vocab.size)
            weights["lm"] = float(rng.uniform(0.0, 0.6))
        cfg = BeamConfig(
            weights=weights,
            beam_size=int(rng.integers(1, 9)),
            pre_beam_size=None if rng.random() < 0.5 else int(rng.integers(8, 20)),
            max_steps=int(rng.integers(1, 7)),
            min_len_ratio=float(rng.choice([0.0, 0.2])),
        )
        seq = beam_search(em, vocab, fulls, cfg, parts)
        bat = batch_beam_search(em, vocab, fulls, cfg, parts)
        same = [e.yseq for e in seq.entries] == [e.yseq for e in bat.entries] and all(
            a.score == b.score or abs(a.score - b.score) <= 1e-9
            for a, b in zip(seq.entries, bat.entries)
        )
        if not same:
            mismatches += 1
    elapsed = time.perf_counter() - start
    assert mismatches == 0
    report(
        "criterion 3 (sequential/batched equivalence)",
        f"100 instances, 0 mismatches, {elapsed:.2f}s",
    )


def test_criterion_4_transducer_alignment_sum():
    """100+ tiny instances: merged beam score per sequence equals the
    brute-force alignment sum (1e-6 linear); greedy never beats the beam;
    all four search algorithms agree on the top-1 at generous limits."""
    start = time.perf_counter()
    for seed in range(100):
        rng = np.random.default_rng(34000 + seed)
        frames = int(rng.integers(1, 5))
        n_labels = int(rng.integers(1, 3))
        model = dag_transducer(rng, n_labels, frames)
        beam_cfg = TransducerBeamConfig(beam_size=16)
        nbest = transducer_beam(model, frames, beam_cfg)
        for entry in nbest.entries:
            expected = oracle_transducer_prob(model, frames, entry.yseq)
            assert math.exp(entry.score) == pytest.approx(math.exp(expected), abs=1e-6)
        greedy = transducer_greedy(model, frames)
        assert nbest.best().score >= greedy.score - 1e-12
        tops = {
            "beam": nbest.best().yseq,
            "tsd": transducer_tsd(model, frames, TransducerBeamConfig(
                beam_size=16, algorithm="tsd", max_exp_per_step=n_labels + 1)).best().yseq,
            "alsd": transducer_alsd(model, frames, TransducerBeamConfig(
                beam_size=16, algorithm="alsd", u_max=n_labels + 1)).best().yseq,
            "nsc": transducer_nsc(model, frames, TransducerBeamConfig(
                beam_size=16, algorithm="nsc", n_steps=n_labels + 1)).best().yseq,
        }
        assert len(set(tops.values())) == 1, tops
    elapsed = time.perf_counter() - start
    report("criterion 4 (transducer alignment-sum)", f"100 instances in {elapsed:.2f}s")


def test_criterion_5_lm_fusion_telescoping(tmp_path):
    """20+ random lexicons and word LMs: look-ahead per-word telescoping
    (1e-9), multi-level vs look-ahead sentence totals (1e-6), and the ARPA
    loader against an independent backoff evaluator on every context/word."""
    start = time.perf_counter()
    for seed in range(20):
        rng = np.random.default_rng(35000 + seed)
        path = tmp_path / f"lm{seed}.arpa"
        n_words = int(rng.integers(3, 11))
        words = random_proper_arpa(rng, path, n_words=n_words, order=3 if seed % 2 else 2)
        model = load_arpa(str(path))

        grams, _, ref_prob = reference_backoff(path)
        contexts = [()] + [k for k in grams if len(k) in (1, 2)]
        for ctx in contexts:
            for w in sorted(model.vocab):
                assert math.exp(ngram_score(model, ctx, w)) == pytest.approx(
                    ref_prob(ctx, w), abs=1e-9
                ), (ctx, w)

        vocab = char_vocab()
        trie = WordTrie(words, model)
        la = LookAheadLMScorer(trie, model, vocab)
        context = (BOS,)
        state = la.init_state(None)
        prefix = (vocab.sos_id,)
        space = vocab.tokens.index("<space>")
        for word in [words[int(i)] for i in rng.integers(0, len(words), size=4)]:
            increments = 0.0
            for ch in word:
                tok = vocab.tokens.index(ch)
                vec, scored = la.score(prefix, state, None)
                increments += float(vec[tok])
                state = la.select_state(scored, tok)
                prefix = prefix + (tok,)
            vec, scored = la.score(prefix, state, None)
            increments += float(vec[space])
            state = la.select_state(scored, space)
            prefix = prefix + (space,)
            assert increments == pytest.approx(ngram_score(model, context, word), abs=1e-9)
            context = context + (word,)

        char_lm = random_table_scorer(rng, 1, vocab.size)
        ml = MultiLevelLMScorer(char_lm, model, vocab)
        la2 = LookAheadLMScorer(trie, model, vocab)
        sentence = [words[int(i)] for i in rng.integers(0, len(words), size=3)]
        tokens = encode(vocab, sentence)
        ml_total, _ = score_tokens(ml, vocab, tokens)
        la_total, _ = score_tokens(la2, vocab, tokens)
        assert ml_total == pytest.approx(la_total, abs=1e-6)
        assert ml_total == pytest.approx(sentence_logprob(model, sentence), abs=1e-6)
    elapsed = time.perf_counter() - start
    report("criterion 5 (LM fusion telescoping)", f"20 lexicons in {elapsed:.2f}s")


def test_criterion_6_mask_ctc_contracts():
    """Threshold 0 reproduces CTC greedy with zero calls; call counts are
    bounded by K and identical across a length sweep; masked counts strictly
    decrease."""
    vocab = make_vocab(2, with_mask=True)
    rng = np.random.default_rng(36000)
    logits = rng.normal(size=(8, vocab.size))
    logits[:, vocab.mask_id] = -30.0
    logits[:, vocab.sos_id] = -30.0
    em = EmissionMatrix.from_logits(logits)
    mlm = TableMLM(vocab.size, vocab.mask_id)
    result = mask_ctc_decode(em, mlm, vocab, MaskCtcConfig(threshold=0.0, iterations=3))
    assert result.tokens == ctc_confidence_collapse(em, vocab.blank_id)[0]
    assert result.mlm_calls == 0

    counts = {}
    for length in (2, 4, 8, 16):
        specs = [(1 + (i % 2), 0.4) for i in range(length)]
        em = peaked_emission(specs, vocab.size)
        res = mask_ctc_decode(em, mlm, vocab, MaskCtcConfig(threshold=0.9, iterations=2))
        assert res.mlm_calls <= 2
        assert all(a > b for a, b in zip(res.masked_counts, res.masked_counts[1:]))
        assert vocab.mask_id not in res.tokens
        counts[length] = res.mlm_calls
    assert len(set(counts.values())) == 1, counts
    report("criterion 6 (Mask-CTC contracts)",
           f"call counts {counts} over the length sweep")


def test_criterion_7_alignment_and_vad():
    """Viterbi path log-prob never exceeds the forward log-prob; spans and
    VAD segments tile their ranges; run merging is idempotent."""
    checked = 0
    for seed in range(60):
        rng = np.random.default_rng(37000 + seed)
        frames = int(rng.integers(2, 7))
        em = random_emission(rng, frames, 3)
        max_labels = (frames + 1) // 2
        n = int(rng.integers(1, max_labels + 1))
        labels = [int(rng.integers(1, 3)) for _ in range(n)]
        feasible = frames >= len(labels) + sum(
            1 for a, b in zip(labels, labels[1:]) if a == b
        )
        if not feasible:
            continue
        alignment = ctc_forced_align(em, labels, 0)
        forward = ctc_forward(em, labels, 0)
        assert alignment.score <= forward + 1e-12
        spans = alignment.spans
        assert [s.token for s in spans] == labels
        for a, b in zip(spans, spans[1:]):
            assert a.end <= b.start
        for s in spans:
            assert 0 <= s.start < s.end <= frames
        checked += 1

        segments = ctc_vad(
            em, 0,
            on_threshold=float(rng.uniform(0.05, 0.95)),
            min_gap_frames=int(rng.integers(0, 3)),
            margin_frames=int(rng.integers(0, 3)),
        )
        assert segments[0].start == 0 and segments[-1].end == frames
        for a, b in zip(segments, segments[1:]):
            assert a.end == b.start
        runs = [(s.start, s.end) for s in segments if s.kind == "speech"]
        assert merge_runs(runs, 1) == merge_runs(merge_runs(runs, 1), 1)
    assert checked >= 40
    report("criterion 7 (forced alignment & VAD)", f"{checked} feasible instances")


def test_criterion_8_bench_report(tmp_path):
    """CLI bench at V=1000, T=100, B=8, R=10: equality verified and a
    speedup ratio recorded (reported, not asserted), under two minutes."""
    config = tmp_path / "bench.json"
    config.write_text(json.dumps({
        "bench": {"V": 1000, "T": 100, "B": 8, "repeats": 10},
    }))
    out = tmp_path / "report.json"
    start = time.perf_counter()
    rc = cli_main(["bench", "--config", str(config), "--output", str(out), "--seed", "11"])
    elapsed = time.perf_counter() - start
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["equal"] is True
    assert payload["speedup"] is not None and payload["speedup"] > 0
    assert elapsed < 120.0
    note = "" if payload["speedup"] > 1 else " (below the >1 engineering target)"
    report(
        "criterion 8 (performance report)",
        f"speedup x{payload['speedup']:.2f}{note}, sequential mean "
        f"{payload['timings']['sequential']['mean']:.3f}s vs batched "
        f"{payload['timings']['batched']['mean']:.3f}s, total {elapsed:.1f}s",
    )


def test_criterion_9_cli_determinism(tmp_path):
    """Each CLI task run twice with the same seed yields byte-identical
    output files (for bench: the timing-independent payload)."""
    rng = np.random.default_rng(38000)
    vocab = make_vocab(2, with_mask=True)
    from seqdecode import save_emission
    em = random_emission(rng, 5, vocab.size)
    emission_path = tmp_path / "utt.json"
    save_emission(em, str(emission_path), "json")
    table = random_table_scorer(rng, 1, vocab.size)
    table_path = tmp_path / "table.json"
    table.save(str(table_path))
    mlm_path = tmp_path / "mlm.json"
    TableMLM(vocab.size, vocab.mask_id).save(str(mlm_path))

    rows = {
        (): np.log(np.array([[0.4, 0.2, 0.4], [0.3, 0.3, 0.4]])),
        (0,): np.log(np.array([[0.2, 0.2, 0.6], [0.1, 0.1, 0.8]])),
        (1,): np.log(np.array([[0.25, 0.25, 0.5], [0.2, 0.2, 0.6]])),
    }
    from seqdecode import TableTransducer
    model_path = tmp_path / "model.json"
    TableTransducer(1, 2, 2, rows).save(str(model_path))

    configs = {
        "decode": {
            "vocab": vocab.to_dict(), "emission": str(emission_path),
            "scorers": {"att": {"type": "table", "path": str(table_path)},
                        "ctc": {"type": "ctc_prefix"}},
            "beam": {"beam_size": 3, "weights": {"att": 0.7, "ctc": 0.3}, "max_steps": 3},
        },
        "transducer": {
            "model": str(model_path), "tokens": ["a", "b"],
            "transducer": {"algorithm": "beam", "beam_size": 4},
        },
        "maskctc": {
            "vocab": vocab.to_dict(), "emission": str(emission_path),
            "mlm": str(mlm_path), "maskctc": {"threshold": 0.6, "iterations": 2},
        },
        "align": {
            "vocab": vocab.to_dict(), "emission": str(emission_path), "labels": [1],
        },
        "vad": {
            "blank_id": 0, "emission": str(emission_path),
            "vad": {"on_threshold": 0.5, "min_gap_frames": 1, "margin_frames": 1},
        },
        "bench": {"bench": {"V": 10, "T": 8, "B": 2, "repeats": 2}},
    }
    for task, cfg in configs.items():
        cfg_path = tmp_path / f"{task}.json"
        cfg_path.write_text(json.dumps(cfg))
        out1 = tmp_path / f"{task}-1.json"
        out2 = tmp_path / f"{task}-2.json"
        rc1 = cli_main([task, "--config", str(cfg_path), "--output", str(out1),
                        "--seed", "21"])
        rc2 = cli_main([task, "--config", str(cfg_path), "--output", str(out2),
                        "--seed", "21"])
        assert rc1 == 0 and rc2 == 0, task
        if task == "bench":
            p1, p2 = json.loads(out1.read_text()), json.loads(out2.read_text())
            for key in ("equal", "hypothesis_digest", "config"):
                assert p1[key] == p2[key], task
        else:
            assert out1.read_bytes() == out2.read_bytes(), task
    report("criterion 9 (CLI determinism)",
           "byte-identical outputs for decode/transducer/maskctc/align/vad; "
           "timing-independent bench payload identical")
