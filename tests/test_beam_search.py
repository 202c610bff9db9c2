import gc
import importlib
import weakref
from dataclasses import dataclass
from functools import partial

import numpy as np
import pytest

from seqdecode import (
    BeamConfig,
    ConfigError,
    CTCPrefixScorer,
    EmissionMatrix,
    FullScorer,
    LookAheadLMScorer,
    MultiLevelLMScorer,
    PartialScorer,
    TableScorer,
    WordTrie,
    batch_beam_search,
    beam_search,
    load_arpa,
    oracle_best_sequence,
)
from seqdecode.oracle import score_sequence
from seqdecode.beam_search import (
    _SearchContext,
    _may_reach_beam,
    _resolve_lengths,
    _top_cells,
    end_detect,
    top_candidate_ids,
)
from seqdecode import scorers as scorers_mod
from seqdecode.cli import _synth_bench_instance
from seqdecode.core import DecodeError, NBestEntry, NBestList

from conftest import (
    WrappedPartialScorer,
    check_keep_calls,
    counting_fold,
    ctc_state,
    frame_loop_reference,
    make_vocab,
    psi_near,
    random_emission,
    random_table_scorer,
    validate_hypothesis,
)
from test_lm import char_vocab, random_proper_arpa

# the package re-exports the function under the module's own name
bs_mod = importlib.import_module("seqdecode.beam_search")


def greedy_reference(ts: TableScorer, vocab, max_steps: int):
    """Per-step argmax under a table scorer, stopping at eos or the cap."""
    state = ts.init_state(None)
    out = []
    allowed = set(vocab.candidate_ids())
    for _ in range(max_steps):
        vec, _ = ts.score((vocab.sos_id,) + tuple(out), state, None)
        ranked = sorted(range(len(vec)), key=lambda i: (-vec[i], i))
        tok = next(i for i in ranked if i in allowed)
        if tok == vocab.eos_id:
            break
        out.append(tok)
        state = ts.select_state(state, tok)
    return tuple(out)


class TestSequentialBeam:
    def test_b1_order0_is_greedy(self, rng):
        vocab = make_vocab(3)
        em = random_emission(rng, 5, vocab.size)
        ts = random_table_scorer(rng, 0, vocab.size)
        cfg = BeamConfig(weights={"att": 1.0}, beam_size=1, max_steps=5)
        nbest = beam_search(em, vocab, {"att": ts}, cfg)
        assert nbest.best().yseq == greedy_reference(ts, vocab, 5)

    def test_b1_greedy_stops_at_eos(self, rng):
        vocab = make_vocab(2)
        row = np.log(np.array([0.05, 0.1, 0.05, 0.7, 0.1]))  # eos dominates
        ts = TableScorer(0, vocab.size, {(): row})
        em = random_emission(rng, 4, vocab.size)
        cfg = BeamConfig(weights={"att": 1.0}, beam_size=1, max_steps=4)
        nbest = beam_search(em, vocab, {"att": ts}, cfg)
        assert nbest.best().yseq == ()

    @pytest.mark.parametrize("seed", range(6))
    def test_exhaustive_width_matches_oracle(self, seed):
        rng = np.random.default_rng(9000 + seed)
        vocab = make_vocab(2)  # label alphabet size 2
        frames = int(rng.integers(3, 6))
        max_len = int(rng.integers(1, min(4, frames)))
        em = random_emission(rng, frames, vocab.size)
        ts = random_table_scorer(rng, 1, vocab.size)
        ctc = CTCPrefixScorer(blank_id=vocab.blank_id, eos_id=vocab.eos_id)
        weights = {"att": float(rng.uniform(0.3, 1.0)), "ctc": float(rng.uniform(0.1, 1.0))}
        width = (len(vocab.label_ids()) + 1) ** max_len * 4
        cfg = BeamConfig(
            weights=weights, beam_size=width, pre_beam_size=width,
            max_steps=max_len + 1,
        )
        nbest = beam_search(em, vocab, {"att": ts}, cfg, {"ctc": ctc})
        oracle_yseq, oracle_score = oracle_best_sequence(
            vocab, em, {"att": ts}, weights, max_len=max_len, partial_scorers={"ctc": ctc}
        )
        assert nbest.best().yseq == oracle_yseq
        assert nbest.best().score == pytest.approx(oracle_score, abs=1e-9)

    def test_zero_weight_scorer_neutral(self, rng):
        vocab = make_vocab(2)
        em = random_emission(rng, 4, vocab.size)
        ts = random_table_scorer(rng, 1, vocab.size)
        ctc = CTCPrefixScorer(blank_id=vocab.blank_id, eos_id=vocab.eos_id)
        cfg_a = BeamConfig(weights={"att": 1.0}, beam_size=3, max_steps=3)
        cfg_b = BeamConfig(weights={"att": 1.0, "ctc": 0.0}, beam_size=3, max_steps=3)
        na = beam_search(em, vocab, {"att": ts}, cfg_a)
        nb = beam_search(em, vocab, {"att": ts}, cfg_b, {"ctc": ctc})
        assert [(e.yseq, e.score, e.scores) for e in na.entries] == [
            (e.yseq, e.score, e.scores) for e in nb.entries
        ]

    @pytest.mark.parametrize("seed", range(4))
    def test_pre_beam_full_width_equals_partial_everywhere(self, seed):
        rng = np.random.default_rng(9100 + seed)
        vocab = make_vocab(2)
        em = random_emission(rng, 4, vocab.size)
        ts = random_table_scorer(rng, 1, vocab.size)
        ctc = CTCPrefixScorer(blank_id=vocab.blank_id, eos_id=vocab.eos_id)
        weights = {"att": 0.6, "ctc": 0.4}
        wide = BeamConfig(weights=weights, beam_size=3, pre_beam_size=vocab.size, max_steps=4)
        narrow = BeamConfig(weights=weights, beam_size=3, pre_beam_size=3, max_steps=4)
        full = beam_search(em, vocab, {"att": ts}, wide, {"ctc": ctc})
        pruned = beam_search(em, vocab, {"att": ts}, narrow, {"ctc": ctc})
        # with P = V the pre-beam drops nothing; the pruned run is a subset
        # property, checked separately: here full-width must score every
        # candidate and still produce a valid ranking
        assert full.entries == tuple(sorted(full.entries, key=lambda e: (-e.score, e.yseq)))
        assert pruned.best().score <= full.best().score + 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_monotone_in_beam_size(self, seed):
        rng = np.random.default_rng(9200 + seed)
        vocab = make_vocab(2)
        em = random_emission(rng, 5, vocab.size)
        ts = random_table_scorer(rng, 1, vocab.size)
        weights = {"att": 1.0}
        prev_best = -np.inf
        for beam in (1, 2, 4, 8, 16):
            cfg = BeamConfig(weights=weights, beam_size=beam, pre_beam_size=max(beam, 8),
                             max_steps=4)
            nbest = beam_search(em, vocab, {"att": ts}, cfg)
            assert nbest.best().score >= prev_best - 1e-12
            prev_best = nbest.best().score

    def test_hypothesis_breakdown_consistent(self, rng):
        vocab = make_vocab(2)
        em = random_emission(rng, 4, vocab.size)
        ts = random_table_scorer(rng, 1, vocab.size)
        ctc = CTCPrefixScorer(blank_id=vocab.blank_id, eos_id=vocab.eos_id)
        weights = {"att": 0.7, "ctc": 0.3}
        cfg = BeamConfig(weights=weights, beam_size=4, max_steps=4)
        nbest = beam_search(em, vocab, {"att": ts}, cfg, {"ctc": ctc})
        for entry in nbest.entries:
            assert validate_hypothesis(entry, weights)

    def test_min_len_blocks_early_eos(self, rng):
        vocab = make_vocab(2)
        row = np.log(np.array([0.05, 0.1, 0.05, 0.7, 0.1]))
        ts = TableScorer(0, vocab.size, {(): row})
        em = random_emission(rng, 4, vocab.size)
        cfg = BeamConfig(weights={"att": 1.0}, beam_size=1, max_steps=4, min_len_ratio=0.5)
        nbest = beam_search(em, vocab, {"att": ts}, cfg)
        # eos blocked until 2 tokens emitted
        assert len(nbest.best().yseq) >= 2

    def test_config_errors(self, rng):
        vocab = make_vocab(2)
        em = random_emission(rng, 3, vocab.size)
        ts = random_table_scorer(rng, 0, vocab.size)
        with pytest.raises(ConfigError):
            beam_search(em, vocab, {}, BeamConfig(weights={}, beam_size=1))
        with pytest.raises(ConfigError):
            beam_search(em, vocab, {"att": ts}, BeamConfig(weights={}, beam_size=1))
        with pytest.raises(ConfigError):
            beam_search(
                em, vocab, {"att": ts},
                BeamConfig(weights={"att": 1.0, "ghost": 0.5}, beam_size=1),
            )
        with pytest.raises(ConfigError):
            BeamConfig(weights={"att": 1.0}, beam_size=0)
        with pytest.raises(ConfigError):
            BeamConfig(weights={"att": 1.0}, beam_size=4, pre_beam_size=2)

    @pytest.mark.parametrize("search", [beam_search, batch_beam_search])
    @pytest.mark.parametrize("width", [3, 6])
    def test_emission_width_must_equal_vocab_size(self, rng, search, width):
        # scorers as wide as the emission: otherwise the search would return
        # ids the 4-token vocabulary does not have (or skip ones it has)
        vocab = make_vocab(1)
        em = random_emission(rng, 4, width)
        ts = random_table_scorer(rng, 0, width)
        cfg = BeamConfig(weights={"att": 1.0}, beam_size=2, max_steps=3)
        with pytest.raises(ConfigError, match=f"emission has {width} columns"):
            search(em, vocab, {"att": ts}, cfg)

    def test_fallback_to_live_when_nothing_finishes(self, rng):
        vocab = make_vocab(2)
        # eos essentially impossible: nothing can finish in 2 steps
        row = np.log(np.array([1e-9, 0.6, 0.4 - 2e-9, 1e-9, 1e-9]))
        ts = TableScorer(0, vocab.size, {(): row})
        em = random_emission(rng, 4, vocab.size)
        cfg = BeamConfig(weights={"att": 1.0}, beam_size=2, max_steps=2, min_len_ratio=0.9)
        nbest = beam_search(em, vocab, {"att": ts}, cfg)
        assert len(nbest) == 1
        assert len(nbest.best().yseq) == 2  # best live hypothesis, no eos


class FinalBonusScorer(TableScorer):
    """A table scorer with a final adjustment that is never zero and
    depends on the finished yseq (sos to eos) and on its eos state."""

    def final_score(self, prefix, state, emission):
        return 0.5 + 0.1 * len(prefix) + 0.01 * sum(state)


def final_bonus_instance(seed):
    """A search whose full scorer and one partial scorer adjust finished
    hypotheses, next to the CTC prefix scorer."""
    rng = np.random.default_rng(9800 + seed)
    vocab = make_vocab(2)
    em = random_emission(rng, int(rng.integers(3, 6)), vocab.size)

    def bonus_table(order):
        return FinalBonusScorer(order, vocab.size, random_table_scorer(rng, order, vocab.size).rows)

    fulls = {"att": bonus_table(1)}
    parts = {"ctc": CTCPrefixScorer(vocab.blank_id, vocab.eos_id),
             "lm": WrappedPartialScorer(bonus_table(2))}
    return vocab, em, fulls, parts, {"att": 0.6, "ctc": 0.5, "lm": 0.3}


class TestFinalAdjustments:
    @pytest.mark.parametrize("seed", range(4))
    def test_entries_carry_the_adjustments(self, seed):
        vocab, em, fulls, parts, weights = final_bonus_instance(seed)
        cfg = BeamConfig(weights=weights, beam_size=4, max_steps=4)
        seq = beam_search(em, vocab, fulls, cfg, parts)
        bat = batch_beam_search(em, vocab, fulls, cfg, parts)
        assert [e.yseq for e in seq.entries] == [e.yseq for e in bat.entries]
        for a, b in zip(seq.entries, bat.entries):
            assert abs(a.score - b.score) <= 1e-9
            yseq = a.yseq + (vocab.eos_id,)
            joint = score_sequence(yseq, vocab, em, fulls, parts, weights)
            assert a.score == pytest.approx(joint, abs=1e-9)
            for entry in (a, b):
                assert validate_hypothesis(entry, weights)
                # each scorer's own score, its final adjustment included
                for name in weights:
                    alone = score_sequence(
                        yseq, vocab, em, {k: v for k, v in fulls.items() if k == name},
                        {k: v for k, v in parts.items() if k == name}, {name: 1.0})
                    assert entry.scores[name] == pytest.approx(alone, abs=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("search", [beam_search, batch_beam_search])
    def test_exhaustive_width_matches_oracle(self, seed, search):
        vocab, em, fulls, parts, weights = final_bonus_instance(seed)
        max_len = min(3, em.frames - 1)
        width = (len(vocab.label_ids()) + 1) ** max_len * 4
        cfg = BeamConfig(weights=weights, beam_size=width, pre_beam_size=width,
                         max_steps=max_len + 1, end_detect_margin=-1e9)
        best = search(em, vocab, fulls, cfg, parts).best()
        oracle_yseq, oracle_score = oracle_best_sequence(
            vocab, em, fulls, weights, max_len=max_len, partial_scorers=parts)
        assert best.yseq == oracle_yseq
        assert best.score == pytest.approx(oracle_score, abs=1e-9)


class TestEndDetect:
    def _finished(self, score):
        return [NBestEntry(yseq=(1,), score=score)]

    def test_empty_pool_is_false(self):
        assert not end_detect([], [-1.0, -2.0, -3.0], window=3, margin=-10.0)

    def test_rule_fires_by_definition(self):
        pool = self._finished(-1.0)
        # threshold -11: three trailing step bests below it
        assert end_detect(pool, [-1.0, -12.0, -13.0, -14.0], window=3, margin=-10.0)

    def test_improving_scores_keep_searching(self):
        pool = self._finished(-1.0)
        assert not end_detect(pool, [-9.0, -5.0, -2.0], window=3, margin=-10.0)

    def test_needs_window_history(self):
        pool = self._finished(-1.0)
        assert not end_detect(pool, [-20.0], window=3, margin=-10.0)


class TestStopReason:
    """The n-best says why the search ended, and whether its one entry is
    the live fallback; the entries are those of the search alone."""

    @staticmethod
    def ctc_search(search, em, vocab, **config):
        """CTC alone ranks the labels: a uniform attention stand-in, and a
        pre-beam of every token."""
        cfg = BeamConfig(weights={"att": 0.5, "ctc": 0.5}, pre_beam_size=vocab.size, **config)
        return search(em, vocab, {"att": TableScorer(0, vocab.size, {})}, cfg,
                      {"ctc": CTCPrefixScorer(vocab.blank_id, vocab.eos_id)})

    @pytest.mark.parametrize("search", [beam_search, batch_beam_search])
    def test_random_logits_run_out_of_steps_on_the_live_fallback(self, search):
        # criterion 8's instance: random logits never make eos the best
        vocab, em, full, partial_ = _synth_bench_instance(np.random.default_rng(11), 50, 20)
        cfg = BeamConfig(weights={"att": 0.7, "ctc": 0.3}, beam_size=4, max_len_ratio=0.5)
        nbest = search(em, vocab, full, cfg, partial_)
        assert nbest.stop == "max_steps" and nbest.live_fallback
        assert len(nbest) == 1 and len(nbest.best().yseq) == 10

    @pytest.mark.parametrize("search", [beam_search, batch_beam_search])
    def test_planted_transcript_ends_by_end_detect(self, search):
        rng = np.random.default_rng(9630)
        vocab = make_vocab(8)
        labels = [int(t) for t in rng.choice(vocab.label_ids(), 5)]
        em = planted_emission(rng, vocab, labels)
        nbest = self.ctc_search(search, em, vocab, beam_size=3)
        assert nbest.stop == "end_detect" and not nbest.live_fallback
        assert nbest.best().yseq == tuple(labels)

    @pytest.mark.parametrize("search", [beam_search, batch_beam_search])
    def test_a_beam_of_eos_cells_leaves_no_live_hypothesis(self, search):
        # beam 1: the planted transcript's eos cell is the only kept cell
        rng = np.random.default_rng(9631)
        vocab = make_vocab(8)
        labels = [int(t) for t in rng.choice(vocab.label_ids(), 3)]
        em = planted_emission(rng, vocab, labels)
        nbest = self.ctc_search(search, em, vocab, beam_size=1)
        assert nbest.stop == "no_live" and not nbest.live_fallback
        assert [e.yseq for e in nbest.entries] == [tuple(labels)]

    @pytest.mark.parametrize("search", [beam_search, batch_beam_search])
    def test_no_allowed_candidate_ends_on_the_live_fallback(self, search):
        # no label, and eos not yet allowed: the empty live hypothesis
        vocab = make_vocab(0)
        em = random_emission(np.random.default_rng(9632), 4, vocab.size)
        nbest = self.ctc_search(search, em, vocab, beam_size=1, min_len_ratio=0.5)
        assert nbest.stop == "no_candidates" and nbest.live_fallback
        assert [e.yseq for e in nbest.entries] == [()]

    def test_other_searches_leave_the_fields_unset(self):
        nbest = NBestList.from_entries([NBestEntry((1,), -1.0)])
        assert nbest.stop is None and not nbest.live_fallback


class TestBatchEquivalence:
    @pytest.mark.parametrize("seed", range(12))
    def test_small_random_instances(self, seed):
        rng = np.random.default_rng(9300 + seed)
        n_labels = int(rng.integers(1, 4))
        vocab = make_vocab(n_labels)
        frames = int(rng.integers(2, 7))
        em = random_emission(rng, frames, vocab.size)
        ts = random_table_scorer(rng, int(rng.integers(0, 3)), vocab.size)
        fulls = {"att": ts}
        parts = {}
        weights = {"att": float(rng.uniform(0.2, 1.5))}
        if rng.random() < 0.7:
            parts["ctc"] = CTCPrefixScorer(blank_id=vocab.blank_id, eos_id=vocab.eos_id)
            weights["ctc"] = float(rng.uniform(0.1, 1.0))
        cfg = BeamConfig(
            weights=weights,
            beam_size=int(rng.integers(1, 6)),
            max_steps=int(rng.integers(1, frames + 1)),
            min_len_ratio=float(rng.choice([0.0, 0.25])),
        )
        seq = beam_search(em, vocab, fulls, cfg, parts)
        bat = batch_beam_search(em, vocab, fulls, cfg, parts)
        assert [e.yseq for e in seq.entries] == [e.yseq for e in bat.entries]
        for a, b in zip(seq.entries, bat.entries):
            assert a.score == pytest.approx(b.score, abs=1e-9)
            assert a.scores.keys() == b.scores.keys()

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("order", [1, 2])
    def test_table_with_missing_contexts(self, order, seed):
        # contexts without a row take the fallback, one gather in the
        # batched table scorer and one dict lookup per prefix in the other
        rng = np.random.default_rng(9790 + 10 * order + seed)
        vocab = make_vocab(3)
        em = random_emission(rng, 6, vocab.size)
        ts = random_table_scorer(rng, order, vocab.size, n_contexts=3)
        ctc = CTCPrefixScorer(blank_id=vocab.blank_id, eos_id=vocab.eos_id)
        cfg = BeamConfig(weights={"att": 0.6, "ctc": 0.4}, beam_size=4, max_steps=6)
        seq = beam_search(em, vocab, {"att": ts}, cfg, {"ctc": ctc})
        bat = batch_beam_search(em, vocab, {"att": ts}, cfg, {"ctc": ctc})
        assert [e.yseq for e in seq.entries] == [e.yseq for e in bat.entries]
        for a, b in zip(seq.entries, bat.entries):
            assert a.score == pytest.approx(b.score, abs=1e-9)
            assert a.scores["att"] == b.scores["att"]

    def test_b1_matches_sequential_greedy(self, rng):
        vocab = make_vocab(3)
        em = random_emission(rng, 5, vocab.size)
        ts = random_table_scorer(rng, 0, vocab.size)
        cfg = BeamConfig(weights={"att": 1.0}, beam_size=1, max_steps=5)
        bat = batch_beam_search(em, vocab, {"att": ts}, cfg)
        assert bat.best().yseq == greedy_reference(ts, vocab, 5)


class CountingPartial(CTCPrefixScorer):
    """CTC prefix scorer that records the candidate sets it was asked for."""

    def __init__(self, blank_id, eos_id):
        super().__init__(blank_id, eos_id)
        self.requests = []

    def score_partial(self, prefix, candidates, state, emission):
        self.requests.append(tuple(int(c) for c in candidates))
        return super().score_partial(prefix, candidates, state, emission)


class TestPreBeamSoundness:
    @pytest.mark.parametrize("seed", range(4))
    def test_full_pre_beam_scores_every_candidate(self, seed):
        """With P = V the partial scorers see every allowed candidate, and the
        result equals the pruned-pre-beam search whenever the latter's
        pre-beam never cuts a surviving successor; at P = V the equality is
        unconditional."""
        rng = np.random.default_rng(9400 + seed)
        vocab = make_vocab(2)
        em = random_emission(rng, 4, vocab.size)
        ts = random_table_scorer(rng, 1, vocab.size)
        weights = {"att": 0.6, "ctc": 0.4}
        allowed = set(vocab.candidate_ids())

        counting = CountingPartial(vocab.blank_id, vocab.eos_id)
        wide = BeamConfig(weights=weights, beam_size=2, pre_beam_size=vocab.size,
                          max_steps=3)
        full_run = beam_search(em, vocab, {"att": ts}, wide, {"ctc": counting})
        for request in counting.requests:
            assert set(request) == allowed

        # a fresh scorer (the counting one is stateless, but keep runs clean)
        again = beam_search(
            em, vocab, {"att": ts}, wide,
            {"ctc": CTCPrefixScorer(vocab.blank_id, vocab.eos_id)},
        )
        assert [(e.yseq, e.score) for e in full_run.entries] == [
            (e.yseq, e.score) for e in again.entries
        ]


class TestLengthPenalty:
    def test_penalty_matches_oracle_and_biases_length(self, rng):
        vocab = make_vocab(2)
        em = random_emission(rng, 5, vocab.size)
        ts = random_table_scorer(rng, 1, vocab.size)
        weights = {"att": 1.0}
        width = 4 ** 4
        results = {}
        for penalty in (0.0, 2.0):
            cfg = BeamConfig(weights=weights, beam_size=width, pre_beam_size=width,
                             max_steps=4, length_penalty=penalty)
            nbest = beam_search(em, vocab, {"att": ts}, cfg)
            oracle_yseq, oracle_score = oracle_best_sequence(
                vocab, em, {"att": ts}, weights, max_len=3, length_penalty=penalty,
            )
            assert nbest.best().yseq == oracle_yseq
            assert nbest.best().score == pytest.approx(oracle_score, abs=1e-9)
            results[penalty] = nbest.best().yseq
        # a strong per-token bonus never shortens the optimum
        assert len(results[2.0]) >= len(results[0.0])


@dataclass
class RefHypothesis:
    """A hypothesis of the reference search: its yseq runs from sos, and it
    carries every scorer's state."""

    yseq: tuple
    score: float
    scores: dict
    states: dict

    def sort_key(self):
        return -self.score, self.yseq


def build_all_successors_search(em, vocab, fulls, cfg, parts):
    """The selection rule the search must reproduce, kept as a reference:
    score one hypothesis at a time, build every B x P successor, sort them
    all by (score desc, yseq asc) and keep the best B. A finished
    hypothesis takes each scorer's final adjustment."""
    ctx = _SearchContext(vocab, fulls, parts, cfg, em.vocab_size)
    max_steps, min_len = _resolve_lengths(cfg, em.frames)
    names = ctx.all_names()
    scorers = {**ctx.full, **ctx.partial}
    initial = RefHypothesis(
        yseq=(vocab.sos_id,), score=0.0, scores={name: 0.0 for name in names},
        states={name: scorers[name].init_state(em) for name in names})
    live, finished, step_best = [initial], [], []
    for step in range(max_steps):
        allowed = ctx.allowed(eos_ok=step >= min_len)
        n_cand = min(ctx.pre_beam_size, len(allowed))
        successors = []
        for hyp in live:
            weighted = np.zeros(ctx.vocab_size)
            vecs, full_scored = {}, {}
            for name, scorer in ctx.full.items():
                vecs[name], full_scored[name] = scorer.score(hyp.yseq, hyp.states[name], em)
                weighted += ctx.weights[name] * vecs[name]
            cands = allowed[np.lexsort((allowed, -weighted[allowed]))[:n_cand]]
            totals = weighted[cands]
            pvecs, part_scored = {}, {}
            for name, scorer in ctx.partial.items():
                pvecs[name], part_scored[name] = scorer.score_partial(
                    hyp.yseq, cands, hyp.states[name], em
                )
                totals = totals + ctx.weights[name] * pvecs[name]
            if cfg.length_penalty:
                totals = totals + cfg.length_penalty
            totals = totals + hyp.score
            for j, token in enumerate(cands.tolist()):
                scores, states = dict(hyp.scores), dict(hyp.states)
                for name, vec in vecs.items():
                    scores[name] = scores[name] + float(vec[token])
                    states[name] = ctx.full[name].select_state(full_scored[name], token)
                for name, pvec in pvecs.items():
                    scores[name] = scores[name] + float(pvec[j])
                    states[name] = ctx.partial[name].select_state(part_scored[name], token)
                successors.append(
                    RefHypothesis(hyp.yseq + (token,), float(totals[j]), scores, states)
                )
        if not successors:
            break
        successors.sort(key=RefHypothesis.sort_key)
        top = successors[: cfg.beam_size]
        step_best.append(top[0].score)
        for h in top:
            if h.yseq[-1] != vocab.eos_id:
                continue
            score, scores = h.score, dict(h.scores)
            for name in names:
                adj = float(scorers[name].final_score(h.yseq, h.states[name], em))
                scores[name] += adj
                score += ctx.weights[name] * adj
            finished.append(NBestEntry(h.yseq[1:-1], score, scores))
        live = [h for h in top if h.yseq[-1] != vocab.eos_id]
        if end_detect(finished, step_best, cfg.end_detect_window, cfg.end_detect_margin):
            break
        if not live:
            break
    if not finished:  # nothing finished: the best live hypothesis
        best = min(live, key=RefHypothesis.sort_key)
        finished = [NBestEntry(best.yseq[1:], best.score, best.scores)]
    return NBestList.from_entries(finished)


class QuantisedScorer(FullScorer):
    """Order-1 scorer whose entries are multiples of 0.5 or -inf, so totals
    of different parents' successors tie exactly."""

    def __init__(self, rng, vocab_size, neg_inf_share=0.1):
        table = -0.5 * rng.integers(0, 4, size=(vocab_size, vocab_size)).astype(np.float64)
        table[rng.random(table.shape) < neg_inf_share] = -np.inf
        self.table = table

    def init_state(self, emission):
        return None

    def score(self, prefix, state, emission):
        return self.table[prefix[-1]], state


def nbest_rows(nbest):
    return [(e.yseq, e.score, e.scores) for e in nbest.entries]


# each edge the top-B selection could break, on top of random sizes
SELECTION_EDGES = {
    "random": {},
    "neg_inf_columns": {"frames": 5, "dead_labels": 1},
    "t1": {"frames": 1},
    "beam_ge_vocab": {"beam": "V"},
    "no_eos": {"frames": 6, "min_len_ratio": 0.9, "max_steps": 4},
    "long_prefix": {"frames": 4, "min_len_ratio": 0.75, "max_steps": 4},
}


def selection_instance(edge, seed):
    spec = SELECTION_EDGES[edge]
    rng = np.random.default_rng(9500 + 17 * seed + len(edge))
    vocab = make_vocab(int(rng.integers(2, 5)))
    frames = spec.get("frames", int(rng.integers(2, 7)))
    logits = 1.5 * rng.normal(size=(frames, vocab.size))
    dead = rng.choice(vocab.label_ids(), size=spec.get("dead_labels", 0), replace=False)
    logits[:, dead] = -np.inf
    em = EmissionMatrix.from_logits(logits)
    fulls = {"att": QuantisedScorer(rng, vocab.size)}
    parts = {"ctc": CTCPrefixScorer(blank_id=vocab.blank_id, eos_id=vocab.eos_id)}
    weights = {"att": 1.0, "ctc": 0.5 * float(rng.integers(0, 2))}
    if rng.random() < 0.5:
        parts["lm"] = WrappedPartialScorer(QuantisedScorer(rng, vocab.size))
        weights["lm"] = 0.5
    beam = vocab.size + 2 if spec.get("beam") == "V" else int(rng.integers(1, 7))
    cfg = BeamConfig(
        weights=weights,
        beam_size=beam,
        pre_beam_size=beam + int(rng.integers(0, 4)),
        max_steps=spec.get("max_steps", frames + 1),
        min_len_ratio=spec.get("min_len_ratio", float(rng.choice([0.0, 0.25]))),
        end_detect_margin=-4.0,
    )
    return em, vocab, fulls, cfg, parts


def batched_in_batches(monkeypatch, *args):
    """``batch_beam_search``'s n-best rows, checking that the CTC scorer
    runs the recursion at most once per step and never for a finished
    hypothesis: each step's successors reach the next scoring call as the
    step's ``_CTCBatch``, and none is filled in on its own."""
    calls = []  # the scoring call whose successors each recursion fills in
    recursion = scorers_mod._recursion

    def logged(scored, rows, cols):
        calls.append(scored)
        assert (scored.candidates[rows, cols] != scored.eos_id).all()
        return recursion(scored, rows, cols)

    with monkeypatch.context() as m:
        m.setattr(scorers_mod, "_recursion", logged)
        rows = nbest_rows(batch_beam_search(*args))
    assert len({id(scored) for scored in calls}) == len(calls)
    return rows


class TestTopBSelection:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("edge", sorted(SELECTION_EDGES))
    def test_matches_building_every_successor(self, edge, seed, monkeypatch):
        em, vocab, fulls, cfg, parts = selection_instance(edge, seed)
        ref = nbest_rows(build_all_successors_search(em, vocab, fulls, cfg, parts))
        assert nbest_rows(beam_search(em, vocab, fulls, cfg, parts)) == ref
        assert batched_in_batches(monkeypatch, em, vocab, fulls, cfg, parts) == ref
        if edge == "no_eos":
            # live fallback: one unfinished hypothesis of full length
            assert len(ref) == 1 and len(ref[0][0]) == cfg.max_steps
        if edge == "long_prefix":
            assert all(len(yseq) > em.frames / 2 for yseq, _, _ in ref)


def word_fusion_instance(tmp_path, kind, edge, seed):
    """A letter vocabulary, a table scorer, one word-fusion scorer and CTC,
    with a pre-beam that keeps every allowed id: the search takes the ids
    in id order, the reference sorts them."""
    spec = SELECTION_EDGES[edge]
    rng = np.random.default_rng(9700 + 13 * seed + len(edge))
    path = tmp_path / "words.arpa"
    words = random_proper_arpa(rng, path, n_words=5)
    model = load_arpa(str(path))
    vocab = char_vocab()
    frames = spec.get("frames", int(rng.integers(2, 7)))
    em = EmissionMatrix.from_logits(1.5 * rng.normal(size=(frames, vocab.size)))
    if kind == "multilevel":
        lm = MultiLevelLMScorer(random_table_scorer(rng, 1, vocab.size), model, vocab)
    else:
        lm = LookAheadLMScorer(WordTrie(words, model), model, vocab)
    fulls = {"att": random_table_scorer(rng, 1, vocab.size), "lm": lm}
    parts = {"ctc": CTCPrefixScorer(blank_id=vocab.blank_id, eos_id=vocab.eos_id)}
    beam = vocab.size + 2 if spec.get("beam") == "V" else int(rng.integers(1, 5))
    cfg = BeamConfig(
        weights={"att": 0.5, "lm": 0.5, "ctc": 1.0},
        beam_size=beam,
        pre_beam_size=max(beam, vocab.size),
        max_steps=spec.get("max_steps", frames + 1),
        min_len_ratio=spec.get("min_len_ratio", float(rng.choice([0.0, 0.25]))),
        end_detect_margin=-4.0,
    )
    return em, vocab, fulls, cfg, parts


class TestFullPreBeamWordFusion:
    """A pre-beam that keeps every id is not sorted; the n-best must equal
    the reference's, which sorts it, for both word-fusion scorers."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("edge", sorted(set(SELECTION_EDGES) - {"neg_inf_columns"}))
    @pytest.mark.parametrize("kind", ["multilevel", "lookahead"])
    def test_matches_building_every_successor(self, tmp_path, kind, edge, seed, ctc_tier,
                                              monkeypatch):
        em, vocab, fulls, cfg, parts = word_fusion_instance(tmp_path, kind, edge, seed)
        ref = nbest_rows(build_all_successors_search(em, vocab, fulls, cfg, parts))

        def unsorted(*args):
            raise AssertionError("a full pre-beam is not sorted")

        with monkeypatch.context() as m:
            m.setattr(bs_mod, "top_candidate_ids", unsorted)
            assert nbest_rows(beam_search(em, vocab, fulls, cfg, parts)) == ref
            assert batched_in_batches(monkeypatch, em, vocab, fulls, cfg, parts) == ref
        if edge == "no_eos":
            assert len(ref) == 1 and len(ref[0][0]) == cfg.max_steps
        if edge == "long_prefix":
            assert all(len(yseq) > em.frames / 2 for yseq, _, _ in ref)


class TestTopCandidateIds:
    @staticmethod
    def per_row(scores, ids, k):
        order = np.lexsort((ids, -scores))
        return ids[order[:k]]

    @pytest.mark.parametrize("seed", range(4))
    def test_matrix_equals_per_row_lexsort(self, seed):
        rng = np.random.default_rng(9800 + seed)
        for _ in range(200):
            B, N = int(rng.integers(1, 9)), int(rng.integers(2, 25))
            k = int(rng.integers(1, N))
            # coarse values tie; -inf and -0.0 next to 0.0 too
            scores = 0.5 * rng.integers(-3, 3, size=(B, N)).astype(np.float64)
            scores[rng.random(scores.shape) < 0.2] = -np.inf
            scores[rng.random(scores.shape) < 0.1] = -0.0
            ids = rng.choice(100, size=N, replace=False)
            if rng.random() < 0.5:
                ids = np.sort(ids)
            expected = np.stack([self.per_row(row, ids, k) for row in scores])
            got = top_candidate_ids(scores, ids, k)
            assert got.shape == expected.shape and np.array_equal(got, expected)


def pre_beam_needs_ranking(scores, k):
    """Whether a (B, N) pre-beam over the allowed ids, k < N, has a row
    with more than k cells at or above its k-th score: a tie across it, or
    fewer than k finite scores (every -inf cell is at or above a -inf k-th
    score)."""
    kth = np.sort(scores, axis=1)[:, -k]
    return bool(((scores >= kth[:, None]).sum(axis=1) > k).any())


def counting_top_candidate_ids(monkeypatch):
    """Log each call the search makes to ``top_candidate_ids``."""
    calls = []

    def counted(scores, ids, k):
        calls.append(scores.shape)
        return top_candidate_ids(scores, ids, k)

    monkeypatch.setattr(bs_mod, "top_candidate_ids", counted)
    return calls


class TestPreBeamSet:
    """A partial pre-beam takes each row's k best allowed ids as a set, in
    id order, from the search's own matrix: the set of
    ``top_candidate_ids``, whose ranked ids it falls back on when a tie
    crosses a row's k-th score or a row has fewer than k finite scores."""

    @staticmethod
    def check(weighted, allowed, k, monkeypatch):
        banned = np.setdiff1d(np.arange(weighted.shape[1]), allowed)
        ref = top_candidate_ids(weighted.take(allowed, axis=1), allowed, k)
        with monkeypatch.context() as m:
            calls = counting_top_candidate_ids(m)
            ids, scores = bs_mod._pre_beam(weighted.copy(), allowed, banned, k)
        assert ids.shape == scores.shape == ref.shape
        assert np.array_equal(np.sort(ids, axis=1), np.sort(ref, axis=1))
        # the scores bit for bit, -0.0 included
        want = np.take_along_axis(weighted, ids, axis=1)
        assert np.array_equal(scores.view(np.int64), want.view(np.int64))
        ranked = pre_beam_needs_ranking(weighted.take(allowed, axis=1), k)
        assert len(calls) == ranked
        if ranked:
            assert np.array_equal(ids, ref)
        else:
            assert (np.diff(ids, axis=1) > 0).all()
        return ranked

    @pytest.mark.parametrize("seed", range(4))
    def test_set_equals_top_candidate_ids(self, seed, monkeypatch):
        rng = np.random.default_rng(9850 + seed)
        paths = set()
        for _ in range(300):
            B, V = int(rng.integers(1, 6)), int(rng.integers(4, 30))
            allowed = np.sort(rng.choice(V, size=int(rng.integers(2, V)), replace=False))
            k = int(rng.integers(1, len(allowed)))
            coarse = rng.random() < 0.5
            weighted = (0.5 * rng.integers(-4, 3, size=(B, V)).astype(np.float64) if coarse
                        else rng.normal(size=(B, V)))
            weighted[rng.random(weighted.shape) < 0.15] = -np.inf
            weighted[rng.random(weighted.shape) < 0.1] = -0.0
            banned = np.setdiff1d(np.arange(V), allowed)
            if rng.random() < 0.5:  # a banned column holds the row maximum
                weighted[:, rng.choice(banned)] = 5.0
            paths.add(self.check(weighted, allowed, k, monkeypatch))
        assert paths == {False, True}

    @pytest.mark.parametrize("B", [1, 4])
    def test_k_equal_to_the_finite_allowed_scores(self, B, monkeypatch):
        # every row has exactly k finite allowed scores, and the banned
        # columns hold the largest scores: the set takes the k finite ids
        rng = np.random.default_rng(9860 + B)
        V, k = 12, 4
        allowed = np.arange(2, V)
        for _ in range(20):
            weighted = np.full((B, V), -np.inf)
            for row in weighted:
                row[rng.choice(allowed, size=k, replace=False)] = rng.normal(size=k)
            weighted[:, :2] = 3.0
            assert not self.check(weighted, allowed, k, monkeypatch)

    def test_fewer_finite_allowed_scores_than_k(self, monkeypatch):
        allowed = np.arange(1, 7)
        weighted = np.array([[9.0, 0.5, -np.inf, 0.25, -np.inf, -np.inf, -np.inf, 9.0],
                             [9.0, 0.5, 0.75, 0.25, 1.0, -1.0, -np.inf, 9.0]])
        assert self.check(weighted, allowed, 3, monkeypatch)
        ids, _ = bs_mod._pre_beam(weighted.copy(), allowed, np.array([0, 7]), 3)
        assert np.array_equal(ids, [[1, 3, 2], [4, 2, 1]])

    def test_ties_inside_the_set_stay_unranked(self, monkeypatch):
        allowed = np.array([1, 2, 3, 4, 5])
        weighted = np.array([[0.0, -1.0, 2.0, -0.0, 2.0, -3.0]])
        assert not self.check(weighted, allowed, 3, monkeypatch)
        ids, scores = bs_mod._pre_beam(weighted.copy(), allowed, np.array([0]), 3)
        assert np.array_equal(ids, [[2, 3, 4]]) and np.signbit(scores[0, 1])

    def test_search_matrix_takes_the_banned_columns_in_place(self):
        weighted = np.array([[4.0, 1.0, 2.0, 3.0, 0.5], [4.0, 3.0, 2.0, 1.0, 0.5]])
        ids, scores = bs_mod._pre_beam(weighted, np.arange(1, 5), np.array([0]), 2)
        assert np.array_equal(ids, [[2, 3], [1, 2]])
        assert np.array_equal(scores, [[2.0, 3.0], [3.0, 2.0]])
        assert (weighted[:, 0] == -np.inf).all()


# the edges a partial pre-beam could break; "beam_at_labels" keeps every
# label (B = P = the label count, which the live beam reaches), so only the
# steps that allow eos drop an id
PARTIAL_EDGES = {
    **{edge: spec for edge, spec in SELECTION_EDGES.items() if edge != "beam_ge_vocab"},
    "beam_at_labels": {"beam": "labels"},
}


def partial_pre_beam_instance(edge, seed, ties):
    """An attention scorer with coarse, tie-heavy entries and -inf
    (``ties``) or continuous ones, and CTC, with a pre-beam below the
    allowed ids."""
    spec = PARTIAL_EDGES[edge]
    rng = np.random.default_rng(9900 + 19 * seed + len(edge) + 100 * ties)
    vocab = make_vocab(int(rng.integers(3, 7)))
    frames = spec.get("frames", int(rng.integers(2, 7)))
    logits = 1.5 * rng.normal(size=(frames, vocab.size))
    dead = rng.choice(vocab.label_ids(), size=spec.get("dead_labels", 0), replace=False)
    logits[:, dead] = -np.inf
    em = EmissionMatrix.from_logits(logits)
    att = QuantisedScorer(rng, vocab.size) if ties else random_table_scorer(rng, 1, vocab.size)
    parts = {"ctc": CTCPrefixScorer(blank_id=vocab.blank_id, eos_id=vocab.eos_id)}
    labels = len(vocab.label_ids())
    if spec.get("beam") == "labels":
        beam = pre = labels
    else:
        beam = int(rng.integers(1, labels))
        pre = int(rng.integers(beam, labels))
    cfg = BeamConfig(
        weights={"att": 1.0, "ctc": float(rng.choice([0.5, 1.0]))},
        beam_size=beam,
        pre_beam_size=pre,
        max_steps=spec.get("max_steps", frames + 1),
        min_len_ratio=spec.get("min_len_ratio", float(rng.choice([0.0, 0.25]))),
        end_detect_margin=-4.0,
    )
    return em, vocab, {"att": att}, cfg, parts


class TestPartialPreBeam:
    """With a pre-beam below the allowed ids, the search takes each row's
    candidates as a set in id order; its n-best must equal the reference's,
    which ranks them, sequential and batched, dense and tiered."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("ties", [False, True])
    @pytest.mark.parametrize("edge", sorted(PARTIAL_EDGES))
    def test_matches_building_every_successor(self, edge, ties, seed, ctc_tier, monkeypatch):
        em, vocab, fulls, cfg, parts = partial_pre_beam_instance(edge, seed, ties)
        assert cfg.pre_beam_size < len(vocab.candidate_ids())
        ref = nbest_rows(build_all_successors_search(em, vocab, fulls, cfg, parts))
        assert nbest_rows(beam_search(em, vocab, fulls, cfg, parts)) == ref
        assert batched_in_batches(monkeypatch, em, vocab, fulls, cfg, parts) == ref
        if edge == "no_eos":
            assert len(ref) == 1 and len(ref[0][0]) == cfg.max_steps
        if edge == "long_prefix":
            assert all(len(yseq) > em.frames / 2 for yseq, _, _ in ref)

    @pytest.mark.parametrize("search", [beam_search, batch_beam_search])
    @pytest.mark.parametrize("ties", [False, True])
    def test_ranks_only_steps_that_need_it(self, search, ties, monkeypatch):
        # a step calls top_candidate_ids exactly when a row of its allowed
        # scores has a tie across its k-th score or fewer than k finite
        # scores; continuous, finite scores never do
        steps, calls = [], counting_top_candidate_ids(monkeypatch)
        pre_beam = bs_mod._pre_beam

        def logged(weighted, allowed, banned, k):
            needs = k < len(allowed) and pre_beam_needs_ranking(
                weighted.take(allowed, axis=1), k)
            before = len(calls)
            out = pre_beam(weighted, allowed, banned, k)
            steps.append((needs, len(calls) - before))
            return out

        monkeypatch.setattr(bs_mod, "_pre_beam", logged)
        for seed in range(6):
            for edge in ("random", "beam_at_labels"):
                search(*partial_pre_beam_instance(edge, seed, ties))
        assert [n for _, n in steps] == [int(needs) for needs, _ in steps]
        assert any(needs for needs, _ in steps) == ties
        assert len(steps) > 20


class CountingFull(FullScorer):
    """Table scorer that logs each scoring round and each successor state it
    hands out."""

    def __init__(self, inner, log):
        self.inner = inner
        self.log = log

    def init_state(self, emission):
        return self.inner.init_state(emission)

    def score(self, prefix, state, emission):
        self.log.append("score")
        return self.inner.score(prefix, state, emission)

    def batch_score(self, prefixes, states, emission):
        self.log.append("score")
        return self.inner.batch_score(prefixes, states, emission)

    def select_state(self, scored_state, token):
        self.log.append("full")
        return self.inner.select_state(scored_state, token)


class CountingCTC(CTCPrefixScorer):
    def __init__(self, blank_id, eos_id, log):
        super().__init__(blank_id, eos_id)
        self.log = log

    def select_states(self, scored, rows, tokens):
        self.log.extend(["partial"] * len(rows))
        return super().select_states(scored, rows, tokens)


class TestSuccessorWorkBound:
    @pytest.mark.parametrize("search", [beam_search, batch_beam_search])
    def test_select_state_at_most_beam_size_per_step(self, search):
        rng = np.random.default_rng(9600)
        vocab = make_vocab(8)
        em = random_emission(rng, 12, vocab.size)
        log = []
        fulls = {"att": CountingFull(random_table_scorer(rng, 1, vocab.size), log)}
        parts = {"ctc": CountingCTC(vocab.blank_id, vocab.eos_id, log)}
        cfg = BeamConfig(weights={"att": 1.0, "ctc": 0.5}, beam_size=4, pre_beam_size=8,
                         max_steps=6, min_len_ratio=0.5)
        search(em, vocab, fulls, cfg, parts)
        # a step's selections follow its scoring calls and precede the next step's
        steps = "".join("|" if e == "score" else e[0] for e in log).split("|")
        selections = [s for s in steps if s]
        assert len(selections) == cfg.max_steps
        for picks in selections:
            assert 0 < picks.count("f") <= cfg.beam_size
            assert picks.count("p") == picks.count("f")

    @pytest.mark.parametrize("reaches_eos", [True, False])
    def test_batched_successors_build_no_per_successor_objects(self, reaches_eos,
                                                                 monkeypatch):
        # the batched search selects the CTC successors as one batch: no
        # CTC select_state call, no np.stack in the CTC scorer, and an
        # NBestEntry only for each finished hypothesis and the live fallback;
        # the counting kernel takes ``keep``, so the search still prunes by it
        rng = np.random.default_rng(9610)
        vocab = make_vocab(12)
        em = planted_emission(rng, vocab, [int(t) for t in rng.choice(vocab.label_ids(), 4)])
        calls = {"select_state": 0, "stack": 0, "keep": 0}
        select_state = CTCPrefixScorer.select_state
        score = CTCPrefixScorer.batch_score_partial

        def counted_select_state(self, scored_state, token):
            calls["select_state"] += 1
            return select_state(self, scored_state, token)

        inside = []

        def counted_keep(keep, lo, hi):
            calls["keep"] += 1
            return keep(lo, hi)

        def counted_score(self, prefixes, candidates, states, emission, keep=None):
            inside.append(True)
            try:
                counted = None if keep is None else partial(counted_keep, keep)
                return score(self, prefixes, candidates, states, emission, counted)
            finally:
                inside.pop()

        def counted_stack(*args, **kwargs):
            calls["stack"] += bool(inside)
            return np.stack(*args, **kwargs)

        class Numpy:
            def __getattr__(self, name):
                return counted_stack if name == "stack" else getattr(np, name)

        built = []

        def counted_entry(*args, **kwargs):
            built.append(NBestEntry(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(CTCPrefixScorer, "select_state", counted_select_state)
        monkeypatch.setattr(CTCPrefixScorer, "batch_score_partial", counted_score)
        # every call bounds its cells first, so the search's ``keep`` is consulted
        monkeypatch.setattr(scorers_mod, "_TIERED_MIN_TERMS", 0)
        monkeypatch.setattr(scorers_mod, "np", Numpy())
        monkeypatch.setattr(bs_mod, "NBestEntry", counted_entry)
        cfg = BeamConfig(weights={"att": 0.3, "ctc": 0.7}, beam_size=8, pre_beam_size=12,
                         min_len_ratio=0.0 if reaches_eos else 0.99, max_steps=10)
        nbest = batch_beam_search(em, vocab, {"att": random_table_scorer(rng, 1, vocab.size)},
                                  cfg, {"ctc": CTCPrefixScorer(vocab.blank_id, vocab.eos_id)})
        assert calls["select_state"] == calls["stack"] == 0 < calls["keep"]
        assert sorted(map(id, built)) == sorted(map(id, nbest.entries))
        if reaches_eos:
            assert len(nbest.entries) > 1
        else:  # the live fallback: a yseq of max_steps labels, longer than any finished one
            assert len(built) == 1 and len(built[0].yseq) == cfg.max_steps


class CheckedCTC(CTCPrefixScorer):
    """CTC scorer that checks every scoring call of a search against the
    frame-loop reference, on the states the call itself filled in: within
    the block product's stated bound. Given ``keep``, its ``keep`` call
    must meet ``check_keep_calls``: the cells it kept (and those exact
    without a product) equal the unpruned call's, and every skipped cell
    holds its upper bound, with both inside the bounds. ``cells`` counts
    [requested, built] cells of the calls given ``keep``."""

    def __init__(self, blank_id, eos_id, log):
        super().__init__(blank_id, eos_id)
        self.log = log
        self.cells = [0, 0]

    def reference(self, prefixes, candidates, states, emission):
        self.log.append(max(s.prefix_len for s in states))
        scores, _, psi = frame_loop_reference(
            prefixes, np.asarray(candidates), [ctc_state(s) for s in states], emission.data,
            self.blank_id, self.eos_id)
        return scores, psi, emission.frames

    def batch_score_partial(self, prefixes, candidates, states, emission, keep=None):
        if keep is None:
            scores, scored = super().batch_score_partial(prefixes, candidates, states, emission)
            ref_scores, psi, frames = self.reference(prefixes, candidates, states, emission)
            assert psi_near(scores, ref_scores, frames, psi)
            return scores, scored
        calls = []

        def recording_keep(lo, hi):
            calls.append((lo, hi, keep(lo, hi)))
            return calls[-1][2]

        scores, scored = super().batch_score_partial(
            prefixes, candidates, states, emission, recording_keep)
        full = CTCPrefixScorer.batch_score_partial(self, prefixes, candidates, states, emission)[0]
        ref = self.reference(prefixes, candidates, states, emission)
        self.cells[1] += np.count_nonzero(check_keep_calls(calls, scores, full, ref))
        self.cells[0] += scores.size
        return scores, scored


def ctc_search_instance(seed, frames=12):
    rng = np.random.default_rng(9700 + seed)
    vocab = make_vocab(6)
    em = random_emission(rng, frames, vocab.size)
    return em, vocab, random_table_scorer(rng, 1, vocab.size)


class TestCTCSuccessorStates:
    @pytest.mark.parametrize("search", [beam_search, batch_beam_search])
    @pytest.mark.parametrize("seed", range(3))
    def test_no_eos_search_matches_frame_loop(self, search, seed):
        em, vocab, ts = ctc_search_instance(seed, frames=8)
        log = []
        cfg = BeamConfig(weights={"att": 1.0, "ctc": 0.5}, beam_size=4, pre_beam_size=6,
                         max_steps=7, min_len_ratio=0.99)
        nbest = search(em, vocab, {"att": ts}, cfg,
                       {"ctc": CheckedCTC(vocab.blank_id, vocab.eos_id, log)})
        # nothing finished: live fallback at full length, prefixes past T/2
        assert len(nbest.entries) == 1 and len(nbest.best().yseq) == cfg.max_steps
        assert max(log) > em.frames / 2

    @pytest.mark.parametrize("search", [beam_search, batch_beam_search])
    def test_recursion_runs_on_at_most_beam_size_columns_per_step(self, search, monkeypatch):
        em, vocab, ts = ctc_search_instance(0)
        log = []
        recursion = scorers_mod._recursion

        def counting(scored, rows, cols):
            log.append(len(rows))
            return recursion(scored, rows, cols)

        monkeypatch.setattr(scorers_mod, "_recursion", counting)
        cfg = BeamConfig(weights={"att": 1.0, "ctc": 0.5}, beam_size=3, pre_beam_size=6,
                         max_steps=8, min_len_ratio=0.5)
        search(em, vocab, {"att": CountingFull(ts, log)}, cfg,
               {"ctc": CTCPrefixScorer(vocab.blank_id, vocab.eos_id)})
        per_step = [[]]
        for entry in log:
            if entry == "score":
                per_step.append([])
            elif entry != "full":
                per_step[-1].append(entry)
        assert any(per_step)
        assert max(sum(columns) for columns in per_step) <= cfg.beam_size
        if search is batch_beam_search:
            # a step's successors in one recursion, run by the next step
            assert max(len(columns) for columns in per_step) == 1
        else:
            # each kept successor filled in alone, when selected
            assert {n for columns in per_step for n in columns} == {1}

    def test_finished_and_pruned_successors_release_step_tensors(self):
        em, vocab, ts = ctc_search_instance(1, frames=16)
        steps = []
        leaked = []

        class Tracking(CTCPrefixScorer):
            def batch_score_partial(self, prefixes, candidates, states, emission):
                # at step s only step s-1's call may still be referenced
                leaked.append(sum(ref() is not None for ref in steps[:-1]))
                scores, scored = super().batch_score_partial(
                    prefixes, candidates, states, emission)
                steps.append(weakref.ref(scored[0][0]))
                return scores, scored

        cfg = BeamConfig(weights={"att": 1.0, "ctc": 0.5}, beam_size=4, pre_beam_size=6,
                         max_steps=16, end_detect_margin=-1e9)
        gc.disable()
        try:
            nbest = batch_beam_search(em, vocab, {"att": ts}, cfg,
                                      {"ctc": Tracking(vocab.blank_id, vocab.eos_id)})
        finally:
            gc.enable()
        # hypotheses finished well before the search stopped
        assert len(nbest.entries) >= 2
        assert min(len(e.yseq) for e in nbest.entries) + 3 < len(steps)
        assert leaked == [0] * len(steps)


class TestMayReachBeam:
    """The cut itself: keep every cell whose upper-bound total reaches the
    beam_size-th largest lower-bound total, ties included."""

    def cut(self, lo, hi, beam_size, parents=None):
        vocab = make_vocab(3)
        cfg = BeamConfig(weights={"att": 1.0, "ctc": 0.5}, beam_size=beam_size)
        ctx = _SearchContext(vocab, {"att": TableScorer(0, vocab.size, {})},
                             {"ctc": CTCPrefixScorer(vocab.blank_id, vocab.eos_id)}, cfg,
                             vocab.size)
        lo, hi = np.atleast_2d(lo), np.atleast_2d(hi)
        parents = np.zeros(lo.shape[0]) if parents is None else np.asarray(parents)
        return _may_reach_beam(ctx, np.zeros(lo.shape), {}, parents[:, None],
                               "ctc", lo, hi).tolist()

    def test_upper_bound_equal_to_threshold_is_kept(self):
        # theta = 0.5 * -2.0: the second-best lower bound
        assert self.cut([0.0, -2.0, -4.0, -5.0], [1.0, -1.0, -2.0, -2.5], 2) == [
            [True, True, True, False]]

    def test_threshold_counts_across_rows(self):
        lo = [[0.0, -6.0], [-1.0, -6.0]]
        hi = [[0.5, -1.5], [-0.5, -3.0]]
        assert self.cut(lo, hi, 2) == [[True, False], [True, False]]
        assert self.cut(lo, hi, 3) == [[True, True], [True, True]]

    @pytest.mark.parametrize("beam_size", [3, 4, 5])
    def test_too_few_finite_lower_bounds_keep_everything(self, beam_size):
        lo = [-np.inf, 0.0, -1.0, -np.inf]
        hi = [-np.inf, 1.0, -0.5, 2.0]
        assert self.cut(lo, hi, beam_size) == [[True] * 4]

    def test_cells_of_a_dead_parent_are_cut(self):
        lo, hi = [[0.0, -1.0], [0.0, -1.0]], [[1.0, 0.0], [1.0, 0.0]]
        assert self.cut(lo, hi, 1, parents=[0.0, -np.inf]) == [[True, True], [False, False]]
        assert self.cut(lo[:1], hi[:1], 1, parents=[-np.inf]) == [[True, True]]


class UnprunedCTC(PartialScorer):
    """Delegates to a CTC scorer through a batched kernel without ``keep``,
    as a tracing wrapper does, so the search folds every cell."""

    def __init__(self, inner):
        self.inner = inner

    def init_state(self, emission):
        return self.inner.init_state(emission)

    def score_partial(self, prefix, candidates, state, emission):
        return self.inner.score_partial(prefix, candidates, state, emission)

    def select_state(self, scored_state, token):
        return self.inner.select_state(scored_state, token)

    def batch_score_partial(self, prefixes, candidates, states, emission):
        return self.inner.batch_score_partial(prefixes, candidates, states, emission)


def pruning_instance(seed, second):
    """Tie-heavy instance with many candidates per beam slot: 0.5-grid
    logits, labels sharing emission columns (so their CTC scores tie), a
    0.5-grid attention stand-in and optionally a second partial scorer
    named ``second``: "bias" and "lm" (sorting before and after "ctc") are
    0.5-grid too. With "word", it and the attention stand-in are random
    tables instead, so the order in which the totals add the scorers shows
    in their last bits."""
    rng = np.random.default_rng(9900 + 7 * seed + len(second or ""))
    vocab = make_vocab(int(rng.integers(6, 14)))
    frames = int(rng.integers(1, 14))
    labels = np.array(vocab.label_ids())
    logits = 0.5 * rng.integers(-4, 2, size=(frames, vocab.size)).astype(np.float64)
    for j in rng.choice(labels, size=len(labels) // 3, replace=False):
        logits[:, j] = logits[:, rng.choice(labels)]
    logits[:, rng.choice(labels, size=int(rng.integers(0, 2)), replace=False)] = -np.inf
    em = EmissionMatrix.from_logits(logits)
    def table():
        if second == "word":
            return random_table_scorer(rng, 1, vocab.size)
        return QuantisedScorer(rng, vocab.size)

    fulls = {"att": table()}
    parts = {"ctc": CTCPrefixScorer(blank_id=vocab.blank_id, eos_id=vocab.eos_id)}
    weights = {"att": 1.0, "ctc": float(rng.choice([0.5, 1.0]))}
    if second is not None:
        parts[second] = WrappedPartialScorer(table())
        weights[second] = 0.5
    beam = int(rng.integers(1, 5))
    cfg = BeamConfig(
        weights=weights,
        beam_size=beam,
        pre_beam_size=beam + int(rng.integers(2, 9)),
        max_steps=frames + 1,
        min_len_ratio=float(rng.choice([0.0, 0.25, 0.6])),
        end_detect_margin=-4.0,
        length_penalty=float(rng.choice([0.0, 0.5])),
    )
    return em, vocab, fulls, cfg, parts


class TestPrunedSearch:
    """The batched search folds only cells that may reach the beam; its
    n-best must equal the path that folds every cell."""

    @pytest.mark.parametrize("second", [None, "lm", "bias", "word"])
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_unpruned_path(self, second, seed, ctc_tier):
        em, vocab, fulls, cfg, parts = pruning_instance(seed, second)
        log = []
        checked = dict(parts, ctc=CheckedCTC(vocab.blank_id, vocab.eos_id, log))
        unpruned = dict(parts, ctc=UnprunedCTC(parts["ctc"]))
        ref = nbest_rows(batch_beam_search(em, vocab, fulls, cfg, unpruned))
        assert nbest_rows(batch_beam_search(em, vocab, fulls, cfg, parts)) == ref
        assert nbest_rows(batch_beam_search(em, vocab, fulls, cfg, checked)) == ref
        assert nbest_rows(beam_search(em, vocab, fulls, cfg, parts)) == ref

    @pytest.mark.parametrize("second", [None, "lm", "bias", "word"])
    def test_instances_skip_cells(self, second, ctc_tier):
        # the cells built after tier 1: some but not all; every cell when
        # no call is large enough for tier 1
        requested = built = 0
        for seed in range(12):
            em, vocab, fulls, cfg, parts = pruning_instance(seed, second)
            checked = CheckedCTC(vocab.blank_id, vocab.eos_id, [])
            batch_beam_search(em, vocab, fulls, cfg, dict(parts, ctc=checked))
            requested += checked.cells[0]
            built += checked.cells[1]
        if ctc_tier == "tiered":
            assert 0 < built < requested
        else:
            assert built == requested > 0

    def test_wrappers_and_kernel_overrides_take_unpruned_path(self, perfbench):
        em, vocab, fulls, cfg, parts = pruning_instance(0, "lm")
        tracing = importlib.import_module("tracing")

        class OverridesKernelOnly(CTCPrefixScorer):
            def batch_score_partial(self, prefixes, candidates, states, emission):
                return super().batch_score_partial(prefixes, candidates, states, emission)

        class Forwarding(CTCPrefixScorer):
            def batch_score_partial(self, *args, **kwargs):
                return super().batch_score_partial(*args, **kwargs)

        ids = vocab.blank_id, vocab.eos_id
        traced = tracing.TracedPartialScorer(parts["ctc"], tracing.Tracer(), "scorers.ctc")
        ref = nbest_rows(batch_beam_search(em, vocab, fulls, cfg, parts))
        for scorer, pruner in ((parts["ctc"], "ctc"), (CountingCTC(*ids, []), "ctc"),
                               (UnprunedCTC(parts["ctc"]), None),
                               (OverridesKernelOnly(*ids), None),
                               (Forwarding(*ids), None), (traced, None)):
            ctx = _SearchContext(vocab, fulls, dict(parts, ctc=scorer), cfg, em.vocab_size)
            assert ctx.pruner == pruner
            if pruner is None:
                assert nbest_rows(batch_beam_search(
                    em, vocab, fulls, cfg, dict(parts, ctc=scorer))) == ref


def planted_emission(rng, vocab, labels, frames_per_label=3, peak=8.0):
    """Emission peaked on ``labels``: each label holds a run of frames,
    separated by blanks, over a normal background."""
    path = []
    for tok in labels:
        path += [tok] * frames_per_label + [vocab.blank_id]
    logits = rng.normal(size=(len(path), vocab.size))
    logits[np.arange(len(path)), path] += peak
    return EmissionMatrix.from_logits(logits)


def edge_instance(edge, seed):
    """A search instance on one edge of the block product: -inf emission
    entries, T=1, B >= V, no eos reached (prefixes past T/2), finite
    entries of -1e10 standing for masked tokens, and swings of hundreds of
    nats from frame to frame (blocks whose products underflow)."""
    rng = np.random.default_rng(9800 + 13 * seed + len(edge))
    vocab = make_vocab(5)
    frames = {"t1": 1, "no_eos": 9}.get(edge, int(rng.integers(12, 40)))
    logits = 1.5 * rng.normal(size=(frames, vocab.size))
    labels = vocab.label_ids()
    if edge == "neg_inf":
        logits[:, labels] = np.where(rng.random((frames, len(labels))) < 0.3, -np.inf,
                                     logits[:, labels])
    elif edge == "masked":
        logits[:, labels] = np.where(rng.random((frames, len(labels))) < 0.5, -1e10,
                                     logits[:, labels])
    elif edge == "swing":
        logits *= 300.0
    em = EmissionMatrix.from_logits(logits)
    beam = vocab.size + 1 if edge == "b_ge_v" else 3
    cfg = BeamConfig(
        weights={"att": 1.0, "ctc": 0.5}, beam_size=beam, pre_beam_size=max(beam, 5),
        max_steps=frames - 1 if edge == "no_eos" else frames + 1,
        min_len_ratio=0.99 if edge == "no_eos" else 0.0, end_detect_margin=-1e9)
    return em, vocab, random_table_scorer(rng, 1, vocab.size), cfg


class TestBlockProductEdges:
    """The searches on each edge of the block product: every CTC call
    within the stated bound of the frame loop, the pruned search equal to
    the unpruned one and the sequential search to the batched one, bit for
    bit."""

    EDGES = ["neg_inf", "t1", "b_ge_v", "no_eos", "masked", "swing"]

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("edge", EDGES)
    def test_searches_agree_and_stay_within_bound(self, edge, seed, ctc_tier, monkeypatch):
        em, vocab, ts, cfg = edge_instance(edge, seed)
        log = []
        checked = CheckedCTC(vocab.blank_id, vocab.eos_id, log)
        ctc = CTCPrefixScorer(vocab.blank_id, vocab.eos_id)
        # the wrapper selects state by state: pending states, filled in per call
        ref = nbest_rows(batch_beam_search(em, vocab, {"att": ts}, cfg, {"ctc": UnprunedCTC(ctc)}))
        assert batched_in_batches(monkeypatch, em, vocab, {"att": ts}, cfg, {"ctc": ctc}) == ref
        assert nbest_rows(batch_beam_search(em, vocab, {"att": ts}, cfg, {"ctc": checked})) == ref
        assert nbest_rows(beam_search(em, vocab, {"att": ts}, cfg, {"ctc": checked})) == ref
        if edge == "no_eos":
            assert len(ref) == 1 and len(ref[0][0]) == cfg.max_steps
            assert max(log) > em.frames / 2

    @pytest.mark.parametrize("edge", ["masked", "swing"])
    def test_underflowing_edges_take_the_fold(self, edge, monkeypatch):
        folded = 0
        for seed in range(3):
            em, vocab, ts, cfg = edge_instance(edge, seed)
            with monkeypatch.context() as m:
                cells = counting_fold(m)
                # the sequential search: unpruned calls, whose only
                # logaddexp.reduce is the fold
                beam_search(em, vocab, {"att": ts}, cfg,
                            {"ctc": CTCPrefixScorer(vocab.blank_id, vocab.eos_id)})
            folded += sum(cells)
        assert folded > 0


class TestBlockTableScope:
    @pytest.mark.parametrize("search", [beam_search, batch_beam_search])
    def test_table_dies_with_the_decode(self, search):
        # the table lives with the decode's CTC states: none outlives the
        # search, cycles or not, and the emission gains no attribute
        em, vocab, ts = ctc_search_instance(2, frames=40)
        before = set(vars(em))
        tables = []

        class Recording(CTCPrefixScorer):
            def init_state(self, emission):
                state = super().init_state(emission)
                tables.extend(weakref.ref(a) for a in state.table)
                return state

        cfg = BeamConfig(weights={"att": 1.0, "ctc": 0.5}, beam_size=4, pre_beam_size=6)
        ctc = Recording(vocab.blank_id, vocab.eos_id)  # outlives the search, as in a server
        gc.disable()
        try:
            nbest = search(em, vocab, {"att": ts}, cfg, {"ctc": ctc})
            assert nbest.entries and len(tables) == 2  # the blocks and their shifts
            assert all(table() is None for table in tables)
        finally:
            gc.enable()
        assert set(vars(em)) - before <= {"column_peaks", "neg_inf_columns"}


class TestFoldWorkBound:
    def test_peaked_emission_builds_few_cells(self, monkeypatch):
        # tier 1 on every call: it keeps the labels of the transcript, whose
        # column peaks reach the beam wherever the parent is, and few others
        monkeypatch.setattr(scorers_mod, "_TIERED_MIN_TERMS", 0)
        rng = np.random.default_rng(9950)
        vocab = make_vocab(40)
        labels = [int(t) for t in rng.choice(vocab.label_ids(), size=10)]
        em = planted_emission(rng, vocab, labels)
        ctc = CheckedCTC(vocab.blank_id, vocab.eos_id, [])
        # a uniform attention stand-in: CTC alone ranks every label
        uniform = TableScorer(0, vocab.size, {})
        cfg = BeamConfig(weights={"att": 0.5, "ctc": 0.5}, beam_size=4,
                         pre_beam_size=vocab.size)
        nbest = batch_beam_search(em, vocab, {"att": uniform}, cfg, {"ctc": ctc})
        assert nbest.best().yseq == tuple(labels)
        requested, built = ctc.cells
        assert requested >= 4 * 40 * len(labels)
        assert built * 2 < requested

    def test_wide_peaked_beam_builds_few_cells(self, monkeypatch):
        # B x P = 32 x 48 cells over T = 100 frames: calls at or above the
        # size switch compute psi only for the cells the peak bounds keep
        rng = np.random.default_rng(9960)
        vocab = make_vocab(400)
        labels = [int(t) for t in rng.choice(vocab.label_ids(), size=25)]
        em = planted_emission(rng, vocab, labels)
        # an order-1 attention stand-in that favours the next reference label
        nexts = {}
        for ctx, tok in zip([()] + [(t,) for t in labels], labels + [vocab.eos_id]):
            nexts.setdefault(ctx, []).append(tok)
        rows = {}
        for ctx, toks in nexts.items():
            logits = rng.normal(size=vocab.size)
            logits[toks] += 6.0
            rows[ctx] = logits - np.logaddexp.reduce(logits)
        att = TableScorer(1, vocab.size, rows)
        built, calls = [], []
        block_psi = scorers_mod._block_psi

        def counting(x, table, phi, labels, rows, *rest):
            built.append(labels.size)
            return block_psi(x, table, phi, labels, rows, *rest)

        class Counting(CTCPrefixScorer):
            def batch_score_partial(self, prefixes, candidates, states, emission, keep=None):
                t0 = max(1, min(s.prefix_len for s in states))
                mark = len(built)
                out = super().batch_score_partial(prefixes, candidates, states, emission, keep)
                calls.append((candidates.size, (emission.frames - t0) * candidates.size,
                              sum(built[mark:])))
                return out

        monkeypatch.setattr(scorers_mod, "_block_psi", counting)
        cfg = BeamConfig(weights={"att": 0.3, "ctc": 0.7}, beam_size=32, pre_beam_size=48)
        nbest = batch_beam_search(em, vocab, {"att": att}, cfg,
                                  {"ctc": Counting(vocab.blank_id, vocab.eos_id)})
        assert nbest.best().yseq == tuple(labels)
        tiered = [c for c in calls if c[0] >= 1500 and c[1] >= scorers_mod._TIERED_MIN_TERMS]
        assert len(tiered) >= 20
        for requested, _, cells in tiered:
            assert cells < 0.2 * requested


def sorted_ranks(yseqs):
    """Each yseq's rank among ``yseqs`` sorted (equal ones in list order)."""
    rank = np.empty(len(yseqs), dtype=np.int64)
    rank[sorted(range(len(yseqs)), key=lambda i: yseqs[i])] = np.arange(len(yseqs))
    return rank


def full_lexsort_cells(yseqs, cand_mat, cand_scores, k):
    """Every cell of the (B x P) matrix lexsorted (-total, parent rank,
    token), then the first k: the selection before it partitioned."""
    P = cand_mat.shape[1]
    order = np.lexsort((cand_mat.ravel(), np.repeat(sorted_ranks(yseqs), P),
                        -cand_scores.ravel()))
    return np.divmod(order[:k], P)


class TestTopCellsPartition:
    """``_top_cells`` lexsorts only the cells at or above the k-th best
    total; it must pick and order the cells as sorting every cell does."""

    @staticmethod
    def instance(rng, B, P, grid):
        yseqs = [(0,) + tuple(rng.integers(0, 4, size=3).tolist()) for _ in range(B)]
        cand_mat = np.stack([np.sort(rng.choice(50, size=P, replace=False))
                             for _ in range(B)])
        if grid:
            scores = 0.5 * rng.integers(-4, 1, size=(B, P)).astype(np.float64)
        else:
            scores = rng.normal(size=(B, P))
        return yseqs, cand_mat, scores

    def check(self, yseqs, cand_mat, scores, k):
        rows, cols = _top_cells(sorted_ranks(yseqs), cand_mat, scores, k)
        ref_rows, ref_cols = full_lexsort_cells(yseqs, cand_mat, scores, k)
        assert np.array_equal(rows, ref_rows) and np.array_equal(cols, ref_cols)
        assert len(rows) == min(k, scores.size)

    @pytest.mark.parametrize("grid", [False, True])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_sorting_every_cell(self, seed, grid):
        rng = np.random.default_rng(9740 + seed)
        for _ in range(60):
            B, P = int(rng.integers(1, 7)), int(rng.integers(1, 9))
            yseqs, cand_mat, scores = self.instance(rng, B, P, grid)
            scores[rng.random(scores.shape) < 0.2] = -np.inf
            self.check(yseqs, cand_mat, scores, int(rng.integers(1, B * P + 3)))

    def test_ties_at_the_kth_total_are_ordered_by_yseq(self):
        rng = np.random.default_rng(9750)
        yseqs, cand_mat, _ = self.instance(rng, 4, 3, grid=True)
        scores = np.array([[0.0, -1.0, -1.0], [-1.0, -1.0, -2.0],
                           [-1.0, -3.0, -3.0], [-0.5, -1.0, -4.0]])
        for k in range(1, 13):
            self.check(yseqs, cand_mat, scores, k)

    @pytest.mark.parametrize("k", [2, 4, 6])
    def test_fewer_finite_totals_than_k(self, k):
        rng = np.random.default_rng(9760 + k)
        yseqs, cand_mat, scores = self.instance(rng, 3, 4, grid=False)
        scores[:] = -np.inf
        scores[1, 2], scores[2, 0] = -1.0, -2.0
        self.check(yseqs, cand_mat, scores, k)

    @pytest.mark.parametrize("k", [6, 7, 20])
    def test_k_at_least_every_cell(self, k):
        rng = np.random.default_rng(9770 + k)
        yseqs, cand_mat, scores = self.instance(rng, 2, 3, grid=True)
        self.check(yseqs, cand_mat, scores, k)


class TestCarriedRanks:
    """The search carries each live yseq's rank among them sorted from one
    step to the next; at every step it must equal the rank that sorting the
    live yseqs gives."""

    @staticmethod
    def ranks_per_step(monkeypatch, em, vocab, fulls, cfg, parts):
        """(live yseqs, ranks handed to ``_top_cells``) of each step."""
        steps = []
        att, top_cells = fulls["att"], bs_mod._top_cells

        def recording_score(prefixes, states, emission):
            steps.append([list(prefixes)])
            return FullScorer.batch_score(att, prefixes, states, emission)

        def recording_top_cells(rank, *args):
            steps[-1].append(rank.copy())
            return top_cells(rank, *args)

        with monkeypatch.context() as m:
            m.setattr(att, "batch_score", recording_score)
            m.setattr(bs_mod, "_top_cells", recording_top_cells)
            batch_beam_search(em, vocab, fulls, cfg, parts)
        return steps

    def test_equal_to_the_sorted_yseq_ranks_at_every_step(self, monkeypatch):
        reordered = 0
        for edge in sorted(SELECTION_EDGES):
            for seed in range(8):
                args = selection_instance(edge, seed)
                for yseqs, rank in self.ranks_per_step(monkeypatch, *args):
                    assert len(set(yseqs)) == len(yseqs)
                    assert np.array_equal(rank, sorted_ranks(yseqs)), (edge, seed, yseqs)
                    reordered += not np.array_equal(rank, np.arange(len(rank)))
        # the instances' tied totals put yseqs out of order in the beam
        assert reordered >= 50


class PlantedScorer(FullScorer):
    """Delegates to a table scorer, but its rows after a prefix of ``at``
    labels hold ``value`` for the labels ``ids``."""

    def __init__(self, inner, at, ids, value=np.nan):
        self.inner, self.at, self.ids, self.value = inner, at, list(ids), value

    def init_state(self, emission):
        return self.inner.init_state(emission)

    def score(self, prefix, state, emission):
        row, scored = self.inner.score(prefix, state, emission)
        if len(prefix) == self.at + 1:  # the prefix starts with sos
            row = row.copy()
            row[self.ids] = self.value
        return row, scored

    def select_state(self, scored_state, token):
        return self.inner.select_state(scored_state, token)


def nan_instance(seed):
    """V=8 (5 labels), T=12, beam 3, a table scorer and CTC."""
    rng = np.random.default_rng(9950 + seed)
    vocab = make_vocab(5)
    em = random_emission(rng, 12, vocab.size)
    fulls = {"att": random_table_scorer(rng, 1, vocab.size)}
    parts = {"ctc": CTCPrefixScorer(vocab.blank_id, vocab.eos_id)}
    weights = {"att": 1.0, "ctc": 0.5}
    return rng, vocab, em, fulls, parts, weights


class TestNanScores:
    """A nan among a step's totals ends the search in a DecodeError that
    names the scorer whose matrix holds it, in both searches."""

    @pytest.mark.parametrize("search", [beam_search, batch_beam_search])
    @pytest.mark.parametrize("n_nan", [1, 4, 5])
    def test_nan_from_a_full_scorer_names_it(self, search, n_nan):
        rng, vocab, em, fulls, parts, weights = nan_instance(n_nan)
        bad = PlantedScorer(random_table_scorer(rng, 1, vocab.size), 1,
                            vocab.label_ids()[:n_nan])
        cfg = BeamConfig(weights={**weights, "bad": 0.5}, beam_size=3)
        with pytest.raises(DecodeError, match="^search step 2: scorer 'bad' returned nan$"):
            search(em, vocab, {**fulls, "bad": bad}, cfg, parts)

    @pytest.mark.parametrize("search", [beam_search, batch_beam_search])
    @pytest.mark.parametrize("name", ["bias", "lm"])
    def test_nan_from_a_partial_scorer_names_it(self, search, name, ctc_tier):
        # "bias" is scored before the pruning CTC scorer in name order, "lm" after
        rng, vocab, em, fulls, parts, weights = nan_instance(7)
        bad = PlantedScorer(random_table_scorer(rng, 1, vocab.size), 2, vocab.label_ids())
        cfg = BeamConfig(weights={**weights, name: 0.5}, beam_size=3, min_len_ratio=0.5)
        with pytest.raises(DecodeError, match=f"^search step 3: scorer '{name}' returned nan$"):
            search(em, vocab, fulls, cfg, {**parts, name: WrappedPartialScorer(bad)})

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("search", [beam_search, batch_beam_search])
    def test_opposite_infinities_are_a_decode_error(self, search):
        rng, vocab, em, fulls, parts, weights = nan_instance(11)
        label = vocab.label_ids()[:1]
        fulls = {**fulls, "hi": PlantedScorer(fulls["att"], 0, label, np.inf),
                 "lo": PlantedScorer(fulls["att"], 0, label, -np.inf)}
        cfg = BeamConfig(weights={**weights, "hi": 1.0, "lo": 1.0}, beam_size=3)
        with pytest.raises(DecodeError,
                           match=r"^search step 1: \+inf and -inf scores summed to nan$"):
            search(em, vocab, fulls, cfg, parts)

    @pytest.mark.parametrize("search", [beam_search, batch_beam_search])
    def test_nan_in_a_column_the_pre_beam_drops_is_an_error_too(self, search):
        # the check reads the whole weighted matrix, the banned columns too
        rng, vocab, em, fulls, parts, weights = nan_instance(13)
        bad = PlantedScorer(fulls["att"], 0, [vocab.blank_id])
        cfg = BeamConfig(weights={**weights, "bad": 1.0}, beam_size=3)
        with pytest.raises(DecodeError, match="^search step 1: scorer 'bad' returned nan$"):
            search(em, vocab, {**fulls, "bad": bad}, cfg, parts)
