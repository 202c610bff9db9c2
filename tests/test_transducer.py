import collections
import heapq
import itertools
import math
import types

import numpy as np
import pytest

from seqdecode import (
    ConfigError,
    DecodeError,
    FullScorer,
    NBestList,
    TableScorer,
    TableTransducer,
    TransducerBeamConfig,
    TransducerModel,
    oracle_transducer_prob,
    transducer_alsd,
    transducer_beam,
    transducer_decode,
    transducer_greedy,
    transducer_nsc,
    transducer_tsd,
)
from seqdecode import transducer as transducer_mod
from seqdecode.core import NBestEntry
from seqdecode.transducer import TransducerHypothesis

from conftest import dag_transducer, increasing_sequences


def table_from_probs(context_rows, frames):
    """context -> per-frame probability rows (lists), normalised here."""
    rows = {}
    n_labels = None
    for ctx, per_frame in context_rows.items():
        mat = np.log(np.array(per_frame, dtype=np.float64))
        mat -= np.logaddexp.reduce(mat, axis=1, keepdims=True)
        rows[ctx] = mat
        n_labels = mat.shape[1] - 1
    return TableTransducer(
        context_order=max((len(c) for c in rows), default=0),
        frames=frames, num_labels=n_labels, rows=rows,
    )


def random_transducer(rng, n_labels, frames, context_order=1):
    contexts = [()]
    for k in range(1, context_order + 1):
        contexts.extend(itertools.product(range(n_labels), repeat=k))
    rows = {}
    for ctx in contexts:
        probs = rng.dirichlet(np.ones(n_labels + 1), size=frames)
        probs[:, n_labels] += 0.3  # keep blanks plausible so searches stay shallow
        probs /= probs.sum(axis=1, keepdims=True)
        rows[ctx] = np.log(probs)
    return TableTransducer(context_order=context_order, frames=frames,
                           num_labels=n_labels, rows=rows)


# one label (id 0) + blank; greedy and the one-expansion searches provably agree
AGREE_INSTANCE = {
    (): [[0.8, 0.2], [0.8, 0.2]],
    (0,): [[0.1, 0.9], [0.1, 0.9]],
}


class TestGreedy:
    def test_blank_argmax_gives_empty(self):
        model = table_from_probs({(): [[0.3, 0.7]]}, frames=1)
        hyp = transducer_greedy(model, 1)
        assert hyp.yseq == ()
        assert hyp.score == pytest.approx(math.log(0.7), abs=1e-12)

    def test_label_then_blank(self):
        model = table_from_probs(AGREE_INSTANCE, frames=2)
        hyp = transducer_greedy(model, 2)
        assert hyp.yseq == (0,)
        # label at frame 0, frame-advancing blank after it, blank at frame 1
        expected = math.log(0.8) + math.log(0.9) + math.log(0.9)
        assert hyp.score == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_score_bounded_by_beam(self, seed):
        rng = np.random.default_rng(11000 + seed)
        frames = int(rng.integers(1, 5))
        model = random_transducer(rng, 2, frames)
        greedy = transducer_greedy(model, frames)
        beam = transducer_beam(model, frames, TransducerBeamConfig(beam_size=16))
        assert beam.best().score >= greedy.score - 1e-12


class TestBeam:
    def test_b1_dominates_greedy(self, rng):
        model = random_transducer(rng, 2, 3)
        greedy = transducer_greedy(model, 3)
        nbest = transducer_beam(model, 3, TransducerBeamConfig(beam_size=1))
        assert nbest.best().score >= greedy.score - 1e-12

    def test_merged_yseqs_are_unique(self, rng):
        model = random_transducer(rng, 2, 4)
        nbest = transducer_beam(model, 4, TransducerBeamConfig(beam_size=8))
        yseqs = [e.yseq for e in nbest.entries]
        assert len(yseqs) == len(set(yseqs))

    def test_two_path_merge_matches_hand_sum(self, rng):
        model = dag_transducer(rng, 2, 2)
        blank = model.blank_id
        nbest = transducer_beam(model, 2, TransducerBeamConfig(beam_size=16))
        by_yseq = {e.yseq: e.score for e in nbest.entries}
        r0, r0a = model.joint(0, ()), model.joint(0, (0,))
        r1, r1a = model.joint(1, ()), model.joint(1, (0,))
        expected = np.logaddexp(
            float(r0[0] + r0a[blank] + r1a[blank]),  # emit at frame 0
            float(r0[blank] + r1[0] + r1a[blank]),  # emit at frame 1
        )
        assert by_yseq[(0,)] == pytest.approx(float(expected), abs=1e-9)

    @pytest.mark.parametrize("seed", range(10))
    def test_alignment_sums_match_oracle(self, seed):
        rng = np.random.default_rng(12000 + seed)
        frames = int(rng.integers(1, 5))
        model = dag_transducer(rng, 2, frames)
        nbest = transducer_beam(model, frames, TransducerBeamConfig(beam_size=16))
        for entry in nbest.entries:
            expected = oracle_transducer_prob(model, frames, entry.yseq)
            assert math.exp(entry.score) == pytest.approx(math.exp(expected), abs=1e-6)

    def test_full_width_top1_is_bruteforce_argmax(self, rng):
        frames = 3
        model = dag_transducer(rng, 2, frames)
        nbest = transducer_beam(model, frames, TransducerBeamConfig(beam_size=16))
        scored = [
            (seq, oracle_transducer_prob(model, frames, seq))
            for seq in increasing_sequences(2)
        ]
        best = min(scored, key=lambda kv: (-kv[1], kv[0]))
        assert nbest.best().yseq == best[0]
        assert nbest.best().score == pytest.approx(best[1], abs=1e-9)

    @staticmethod
    def repeating(p_repeat):
        """Order-1 table of 2 labels and one frame in which label 0 repeats
        with probability ``p_repeat``: near 1, a frame never gets B
        completions above its active entries."""
        rest = (1.0 - p_repeat) / 2
        return table_from_probs({(): [[1 / 3] * 3], (0,): [[p_repeat, rest, rest]],
                                 (1,): [[1 / 3] * 3]}, 1)

    def test_capped_frame_reports_truncated(self):
        cfg = TransducerBeamConfig(beam_size=4, max_pops_per_frame=300)
        assert transducer_beam(self.repeating(1 - 4e-6), 1, cfg).truncated

    def test_truncated_exactly_when_the_cap_cuts_the_frame(self):
        model = self.repeating(0.9)
        uncapped = transducer_beam(model, 1, TransducerBeamConfig(beam_size=4))
        assert not uncapped.truncated
        flags = []
        for cap in range(1, 80):
            nbest = transducer_beam(model, 1, TransducerBeamConfig(beam_size=4,
                                                                   max_pops_per_frame=cap))
            flags.append(nbest.truncated)
            if not nbest.truncated:  # the frame ended by its own rule
                assert nbest.entries == uncapped.entries
        # capped below the pops the frame needs, and not at or above them
        assert flags[0] and not flags[-1] and flags == sorted(flags, reverse=True)


class TestTsd:
    def test_one_expansion_matches_greedy_on_agree_instance(self):
        model = table_from_probs(AGREE_INSTANCE, frames=2)
        greedy = transducer_greedy(model, 2)
        nbest = transducer_tsd(
            model, 2, TransducerBeamConfig(beam_size=1, algorithm="tsd", max_exp_per_step=1)
        )
        assert nbest.best().yseq == greedy.yseq

    @pytest.mark.parametrize("seed", range(6))
    def test_top1_score_monotone_in_expansions(self, seed):
        rng = np.random.default_rng(13000 + seed)
        model = random_transducer(rng, 2, 3)
        prev = -np.inf
        for max_exp in (1, 2, 3):
            cfg = TransducerBeamConfig(beam_size=8, algorithm="tsd", max_exp_per_step=max_exp)
            best = transducer_tsd(model, 3, cfg).best().score
            assert best >= prev - 1e-12
            prev = best

    @pytest.mark.parametrize("seed", range(6))
    def test_generous_expansion_matches_beam(self, seed):
        rng = np.random.default_rng(14000 + seed)
        frames = int(rng.integers(1, 5))
        model = dag_transducer(rng, 2, frames)
        beam = transducer_beam(model, frames, TransducerBeamConfig(beam_size=16))
        tsd = transducer_tsd(
            model, frames,
            TransducerBeamConfig(beam_size=16, algorithm="tsd", max_exp_per_step=3),
        )
        assert tsd.best().yseq == beam.best().yseq
        assert tsd.best().score == pytest.approx(beam.best().score, abs=1e-9)


class TestAlsd:
    def test_u_max_zero_returns_empty(self, rng):
        model = random_transducer(rng, 2, 3)
        cfg = TransducerBeamConfig(beam_size=4, algorithm="alsd", u_max=0)
        nbest = transducer_alsd(model, 3, cfg)
        assert [e.yseq for e in nbest.entries] == [()]

    def test_ceil_formula_keeps_u_max_positive(self, rng):
        model = random_transducer(rng, 2, 4)
        cfg = TransducerBeamConfig(beam_size=8, algorithm="alsd", u_max_ratio=0.01)
        nbest = transducer_alsd(model, 4, cfg)  # U_max = ceil(0.04) = 1
        assert max(len(e.yseq) for e in nbest.entries) <= 1

    @pytest.mark.parametrize("seed", range(6))
    def test_output_length_bounded(self, seed):
        rng = np.random.default_rng(15000 + seed)
        model = random_transducer(rng, 2, 4)
        u_max = int(rng.integers(0, 3))
        cfg = TransducerBeamConfig(beam_size=8, algorithm="alsd", u_max=u_max)
        nbest = transducer_alsd(model, 4, cfg)
        assert all(len(e.yseq) <= u_max for e in nbest.entries)

    @pytest.mark.parametrize("seed", range(6))
    def test_generous_u_max_matches_beam(self, seed):
        rng = np.random.default_rng(16000 + seed)
        frames = int(rng.integers(1, 5))
        model = dag_transducer(rng, 2, frames)
        beam = transducer_beam(model, frames, TransducerBeamConfig(beam_size=16))
        alsd = transducer_alsd(
            model, frames,
            TransducerBeamConfig(beam_size=16, algorithm="alsd", u_max=max(2, frames)),
        )
        assert alsd.best().yseq == beam.best().yseq
        assert alsd.best().score == pytest.approx(beam.best().score, abs=1e-9)


class TestNsc:
    def test_one_step_matches_greedy_on_agree_instance(self):
        model = table_from_probs(AGREE_INSTANCE, frames=2)
        greedy = transducer_greedy(model, 2)
        nbest = transducer_nsc(
            model, 2, TransducerBeamConfig(beam_size=1, algorithm="nsc", n_steps=1)
        )
        assert nbest.best().yseq == greedy.yseq

    @pytest.mark.parametrize("seed", range(6))
    def test_top1_score_monotone_in_steps(self, seed):
        rng = np.random.default_rng(17000 + seed)
        model = random_transducer(rng, 2, 3)
        prev = -np.inf
        for n_steps in (1, 2, 3):
            cfg = TransducerBeamConfig(beam_size=8, algorithm="nsc", n_steps=n_steps)
            best = transducer_nsc(model, 3, cfg).best().score
            assert best >= prev - 1e-12
            prev = best

    @pytest.mark.parametrize("seed", range(6))
    def test_generous_steps_match_beam(self, seed):
        rng = np.random.default_rng(18000 + seed)
        frames = int(rng.integers(1, 5))
        model = dag_transducer(rng, 2, frames)
        beam = transducer_beam(model, frames, TransducerBeamConfig(beam_size=16))
        nsc = transducer_nsc(
            model, frames,
            TransducerBeamConfig(beam_size=16, algorithm="nsc", n_steps=3),
        )
        assert nsc.best().yseq == beam.best().yseq
        assert nsc.best().score == pytest.approx(beam.best().score, abs=1e-9)


class TestCrossAlgorithmAgreement:
    @pytest.mark.parametrize("seed", range(8))
    def test_top1_agreement_at_generous_limits(self, seed):
        rng = np.random.default_rng(19000 + seed)
        frames = int(rng.integers(1, 5))
        model = dag_transducer(rng, 2, frames)
        results = {
            "beam": transducer_beam(model, frames, TransducerBeamConfig(beam_size=16)),
            "tsd": transducer_tsd(model, frames, TransducerBeamConfig(
                beam_size=16, algorithm="tsd", max_exp_per_step=3)),
            "alsd": transducer_alsd(model, frames, TransducerBeamConfig(
                beam_size=16, algorithm="alsd", u_max=max(2, frames))),
            "nsc": transducer_nsc(model, frames, TransducerBeamConfig(
                beam_size=16, algorithm="nsc", n_steps=3)),
        }
        yseqs = {name: nb.best().yseq for name, nb in results.items()}
        assert len(set(yseqs.values())) == 1, yseqs

    def test_determinism_across_runs(self, rng):
        model = random_transducer(rng, 2, 3)
        cfg = TransducerBeamConfig(beam_size=4)
        a = transducer_beam(model, 3, cfg)
        b = transducer_beam(model, 3, cfg)
        assert [(e.yseq, e.score) for e in a.entries] == [(e.yseq, e.score) for e in b.entries]


class TestLMFusion:
    @pytest.mark.parametrize("alg", ["beam", "tsd", "alsd", "nsc"])
    def test_blank_completion_carries_no_lm_term(self, alg):
        # T=1 with the blank certain: the only hypothesis is the empty one,
        # completed by blank, so a sharply peaked LM must leave it untouched
        model = table_from_probs({(): [[1e-9, 1e-9, 1.0]]}, frames=1)
        lm = TableScorer(0, 2, {(): np.log(np.array([0.01, 0.99]))})
        plain = transducer_decode(model, 1, TransducerBeamConfig(algorithm=alg))
        fused = transducer_decode(
            model, 1, TransducerBeamConfig(algorithm=alg, lm=lm, lm_weight=2.0)
        )
        by_yseq = {e.yseq: e for e in fused.entries}
        assert by_yseq[()].score == plain.best().score == model.joint(0, ())[2]
        assert by_yseq[()].scores == {"transducer": plain.best().score, "lm": 0.0}

    @pytest.mark.parametrize("alg", ["beam", "tsd", "alsd", "nsc"])
    def test_vocab_mismatch_is_config_error(self, rng, alg):
        model = random_transducer(rng, 2, 2)
        lm = TableScorer(0, 3, {(): np.log(np.array([0.2, 0.3, 0.5]))})
        with pytest.raises(ConfigError):
            transducer_decode(
                model, 2, TransducerBeamConfig(algorithm=alg, lm=lm, lm_weight=0.5)
            )

    def test_weight_zero_is_identity(self, rng):
        model = random_transducer(rng, 2, 3)
        lm = TableScorer(0, 2, {(): np.log(np.array([0.2, 0.8]))})
        plain = transducer_beam(model, 3, TransducerBeamConfig(beam_size=4))
        fused = transducer_beam(
            model, 3, TransducerBeamConfig(beam_size=4, lm=lm, lm_weight=0.0)
        )
        assert [e.yseq for e in plain.entries] == [e.yseq for e in fused.entries]
        for a, b in zip(plain.entries, fused.entries):
            assert a.score == pytest.approx(b.score, abs=1e-12)

    def test_weight_without_lm_is_config_error(self):
        # a weight with nothing to weigh would decode plain scores silently
        with pytest.raises(ConfigError, match="no lm"):
            TransducerBeamConfig(algorithm="beam", lm_weight=0.5)

    def test_greedy_with_lm_is_config_error(self):
        # greedy decoding never consults an LM, so fusion would be ignored
        lm = TableScorer(0, 2, {(): np.log(np.array([0.2, 0.8]))})
        with pytest.raises(ConfigError, match="greedy"):
            TransducerBeamConfig(algorithm="greedy", lm=lm, lm_weight=0.5)

    @pytest.mark.parametrize("alg", ["beam", "tsd", "alsd", "nsc"])
    def test_weight_zero_with_impossible_lm_label_drops_it(self, alg):
        # 0 * -inf is nan: the expansion is dropped, not kept with a nan
        # score; on a model that already rules label 1 out, fusion at weight
        # 0 then changes nothing
        with np.errstate(invalid="ignore", divide="ignore"):
            model = table_from_probs({
                ctx: [[0.5, 0.0, 0.5], [0.3, 0.0, 0.7], [0.6, 0.0, 0.4]]
                for ctx in [(), (0,), (1,)]
            }, frames=3)
            lm = TableScorer(0, 2, {(): np.array([0.0, -np.inf])})
            plain = transducer_decode(model, 3, TransducerBeamConfig(algorithm=alg))
            fused = transducer_decode(model, 3, TransducerBeamConfig(
                algorithm=alg, lm=lm, lm_weight=0.0))
        assert [(e.yseq, e.score) for e in fused.entries] == [
            (e.yseq, e.score) for e in plain.entries]

    def test_uniform_lm_shifts_by_length(self, rng):
        # finite-support model: both searches drain fully, so merged sums are
        # exact and the shift per emitted label is a clean constant
        model = dag_transducer(rng, 2, 3)
        lm = TableScorer(0, 2, {(): np.log(np.array([0.5, 0.5]))})
        weight = 0.7
        plain = transducer_beam(model, 3, TransducerBeamConfig(beam_size=16))
        fused = transducer_beam(
            model, 3, TransducerBeamConfig(beam_size=16, lm=lm, lm_weight=weight)
        )
        plain_scores = {e.yseq: e.score for e in plain.entries}
        shift = weight * math.log(0.5)
        for entry in fused.entries:
            if entry.yseq in plain_scores:
                expected = plain_scores[entry.yseq] + shift * len(entry.yseq)
                assert entry.score == pytest.approx(expected, abs=1e-9)

    def test_strong_lm_flips_symmetric_model(self):
        # labels a/b perfectly symmetric, with one emission strongly favoured
        # over silence: without an LM the lexicographic tie-break picks the
        # a-sequence; a b-heavy LM must flip the top-1 to its mirror image
        model = table_from_probs({
            (): [[0.495, 0.495, 0.01], [0.495, 0.495, 0.01]],
            (0,): [[0.005, 0.005, 0.99], [0.005, 0.005, 0.99]],
            (1,): [[0.005, 0.005, 0.99], [0.005, 0.005, 0.99]],
        }, frames=2)
        plain = transducer_beam(model, 2, TransducerBeamConfig(beam_size=8))
        assert plain.best().yseq == (0,)
        lm = TableScorer(0, 2, {(): np.log(np.array([0.05, 0.95]))})
        fused = transducer_beam(
            model, 2, TransducerBeamConfig(beam_size=8, lm=lm, lm_weight=2.0)
        )
        assert fused.best().yseq == (1,)

    def test_lm_breakdown_recorded(self, rng):
        model = random_transducer(rng, 2, 3)
        lm = TableScorer(0, 2, {(): np.log(np.array([0.4, 0.6]))})
        weight = 0.5
        nbest = transducer_beam(
            model, 3, TransducerBeamConfig(beam_size=4, lm=lm, lm_weight=weight)
        )
        for entry in nbest.entries:
            assert set(entry.scores) == {"transducer", "lm"}
            recomposed = entry.scores["transducer"] + weight * entry.scores["lm"]
            assert recomposed == pytest.approx(entry.score, abs=1e-9)


class TestDispatchAndTable:
    def test_dispatch_greedy_wraps_nbest(self, rng):
        model = random_transducer(rng, 2, 2)
        nbest = transducer_decode(model, 2, TransducerBeamConfig(algorithm="greedy"))
        hyp = transducer_greedy(model, 2)
        assert nbest.best().yseq == hyp.yseq
        assert nbest.best().score == pytest.approx(hyp.score)

    def test_json_round_trip(self, tmp_path, rng):
        model = random_transducer(rng, 2, 3)
        path = tmp_path / "model.json"
        model.save(str(path))
        again = TableTransducer.load(str(path))
        for ctx, mat in model.rows.items():
            assert np.array_equal(mat, again.rows[ctx])

    def test_missing_context_is_config_error(self):
        model = table_from_probs({(): [[0.5, 0.5]]}, frames=1)
        model.context_order = 1  # force lookups beyond the stored contexts
        with pytest.raises(ConfigError):
            model.joint(0, (0,))

    def test_missing_context_in_batch_is_config_error(self):
        model = table_from_probs({(): [[0.5, 0.5]]}, frames=1)
        model.context_order = 1
        with pytest.raises(ConfigError, match=r"no row for context \(0,\)"):
            model.joint_batch(0, [(), (0,)])

    @pytest.mark.parametrize("context_order", [0, 1, 2])
    def test_joint_batch_equals_base_loop(self, rng, context_order):
        model = random_transducer(rng, 3, 4, context_order=context_order)
        contexts = list(model.rows)
        for t in range(model.frames):
            for n in (1, 2, 5, 9):
                states = [contexts[i] for i in rng.integers(0, len(contexts), size=n)]
                got = model.joint_batch(t, states)
                ref = TransducerModel.joint_batch(model, t, states)
                assert got.dtype == ref.dtype and np.array_equal(got, ref)

    @pytest.mark.parametrize("alg, fused", [
        (alg, fused) for alg in sorted(transducer_mod.ALGORITHMS) for fused in (False, True)
        if not (fused and alg == "greedy")])
    def test_zero_frames_decode_to_the_empty_sequence(self, rng, alg, fused):
        # no frame to consume: the empty sequence with the empty alignment
        # sum, log 1 = 0, as oracle_transducer_prob says (greedy fuses no LM)
        model = random_transducer(rng, 3, 2)
        lm = TableScorer(0, 3, {(): np.log(rng.dirichlet(np.ones(3)))})
        fusion = dict(lm=lm, lm_weight=0.5) if fused else {}
        nbest = transducer_decode(model, 0, TransducerBeamConfig(algorithm=alg, **fusion))
        assert [(e.yseq, e.score) for e in nbest.entries] == [((), 0.0)]
        assert nbest.best().score == oracle_transducer_prob(model, 0, ()) == 0.0

    @pytest.mark.parametrize("pops", [0, -1])
    def test_max_pops_per_frame_below_one_is_config_error(self, pops):
        with pytest.raises(ConfigError):
            TransducerBeamConfig(max_pops_per_frame=pops)

    def test_pop_cap_truncates_frame(self, rng):
        # one pop per frame completes only the best hypothesis of the frame
        model = random_transducer(rng, 2, 3)
        nbest = transducer_beam(model, 3, TransducerBeamConfig(
            beam_size=4, max_pops_per_frame=1))
        assert len(nbest.entries) == 1
        assert len(transducer_beam(model, 3, TransducerBeamConfig(beam_size=4)).entries) > 1

    def test_unnormalised_rows_rejected(self):
        with pytest.raises(ConfigError):
            TableTransducer(0, 1, 1, {(): np.log(np.array([[0.5, 0.3]]))})

    @pytest.mark.parametrize("order, key", [(0, (0,)), (1, (0, 1))])
    def test_context_longer_than_the_order_is_config_error(self, order, key):
        # a row no prediction state can reach: rejected when the model is
        # built, not at its first joint
        mat = np.log(np.full((1, 3), 1 / 3))
        with pytest.raises(ConfigError, match="longer than context_order"):
            TableTransducer(order, 1, 2, {(): mat, key: mat})


class TestExactnessOnGeneralModels:
    """Alignment-sum exactness does not need finite-support models: it holds
    whenever the beam is wide enough that nothing prunes."""

    @pytest.mark.parametrize("seed", range(8))
    def test_alsd_sums_exact_under_u_cap(self, seed):
        # with u_max=2 the per-step state space has at most 7 sequences, so
        # B=64 never prunes and every merged score is the full alignment sum
        rng = np.random.default_rng(52000 + seed)
        frames = int(rng.integers(1, 5))
        model = random_transducer(rng, 2, frames, context_order=1)
        nbest = transducer_alsd(model, frames, TransducerBeamConfig(
            beam_size=64, algorithm="alsd", u_max=2))
        for entry in nbest.entries:
            exact = oracle_transducer_prob(model, frames, entry.yseq)
            assert math.exp(entry.score) == pytest.approx(math.exp(exact), abs=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_tsd_sums_exact_at_full_width(self, seed):
        # T=2 with <=3 expansions per frame bounds the reachable space at 127
        # sequences; B=256 never prunes, so short sequences are exact sums
        rng = np.random.default_rng(53000 + seed)
        model = random_transducer(rng, 2, 2, context_order=1)
        nbest = transducer_tsd(model, 2, TransducerBeamConfig(
            beam_size=256, algorithm="tsd", max_exp_per_step=3))
        for entry in nbest.entries:
            if len(entry.yseq) <= 3:
                exact = oracle_transducer_prob(model, 2, entry.yseq)
                assert math.exp(entry.score) == pytest.approx(math.exp(exact), abs=1e-12)


# --- build-every-expansion references ---------------------------------------
# The searches as they were before label expansions were ranked on a score
# matrix: every finite child of every expanded hypothesis is built and
# merged, and only then pruned by (-score, yseq). The fast searches must
# return exactly the same n-best lists.

class _RefHyp:
    __slots__ = ("yseq", "score", "pred_state", "lm_state", "lm_score")

    def __init__(self, yseq, score, pred_state, lm_state=None, lm_score=0.0):
        self.yseq, self.score, self.pred_state = yseq, score, pred_state
        self.lm_state, self.lm_score = lm_state, lm_score

    def with_score(self, score):
        return _RefHyp(self.yseq, score, self.pred_state, self.lm_state, self.lm_score)


def _ref_key(item):
    return (-item[1].score, item[0])


def _ref_prune(pool, beam):
    return dict(sorted(pool.items(), key=_ref_key)[:beam])


def _ref_merge(pool, hyp):
    old = pool.get(hyp.yseq)
    pool[hyp.yseq] = hyp if old is None else old.with_score(
        float(np.logaddexp(old.score, hyp.score)))


def _ref_init(model, cfg):
    lm_state = cfg.lm.init_state(None) if cfg.lm else None
    return {(): _RefHyp((), 0.0, model.pred_init(), lm_state)}


def _ref_children(model, cfg, hyp, joint_row):
    if cfg.lm is not None:
        lm_vec, lm_scored = cfg.lm.score((model.num_labels,) + hyp.yseq, hyp.lm_state, None)
    for label in range(model.num_labels):
        score = hyp.score + float(joint_row[label])
        lm_raw, lm_state = hyp.lm_score, hyp.lm_state
        if cfg.lm is not None:
            lm_term = float(lm_vec[label])
            score = score + cfg.lm_weight * lm_term
            lm_raw = lm_raw + lm_term
            lm_state = cfg.lm.select_state(lm_scored, label)
        if score != -np.inf:
            yield _RefHyp(hyp.yseq + (label,), score,
                          model.pred_step(hyp.pred_state, label), lm_state, lm_raw)


def _ref_nbest(pool, cfg):
    entries = []
    for yseq, hyp in pool.items():
        scores = {"transducer": hyp.score}
        if cfg.lm is not None:
            scores = {"transducer": hyp.score - cfg.lm_weight * hyp.lm_score,
                      "lm": hyp.lm_score}
        entries.append(NBestEntry(yseq=yseq, score=hyp.score, scores=scores))
    return NBestList.from_entries(entries)


def ref_beam(model, frames, cfg):
    pool, blank = _ref_init(model, cfg), model.blank_id
    for t in range(frames):
        active, completed, pops = dict(pool), {}, 0
        while active and pops < cfg.max_pops_per_frame:
            top = max(a.score for a in active.values())
            if sum(1 for h in completed.values() if h.score > top) >= cfg.beam_size:
                break
            yseq, hyp = min(active.items(), key=_ref_key)
            del active[yseq]
            pops += 1
            joint_row = model.joint(t, hyp.pred_state)
            _ref_merge(completed, hyp.with_score(hyp.score + float(joint_row[blank])))
            for child in _ref_children(model, cfg, hyp, joint_row):
                _ref_merge(active, child)
        pool = _ref_prune(completed, cfg.beam_size)
        if not pool:
            break
    return _ref_nbest(pool, cfg)


def ref_tsd(model, frames, cfg):
    pool, blank = _ref_init(model, cfg), model.blank_id
    for t in range(frames):
        completed, current = {}, pool
        for round_idx in range(cfg.max_exp_per_step + 1):
            expansions = {}
            for yseq, hyp in sorted(current.items(), key=_ref_key):
                joint_row = model.joint(t, hyp.pred_state)
                _ref_merge(completed, hyp.with_score(hyp.score + float(joint_row[blank])))
                if round_idx < cfg.max_exp_per_step:
                    for child in _ref_children(model, cfg, hyp, joint_row):
                        _ref_merge(expansions, child)
            if round_idx == cfg.max_exp_per_step or not expansions:
                break
            current = _ref_prune(expansions, cfg.beam_size)
        pool = _ref_prune(completed, cfg.beam_size)
        if not pool:
            break
    return _ref_nbest(pool, cfg)


def ref_nsc(model, frames, cfg):
    pool, blank = _ref_init(model, cfg), model.blank_id
    for t in range(frames):
        completed, current = {}, pool
        for step in range(1, cfg.n_steps + 1):
            expansions = {}
            for yseq, hyp in sorted(current.items(), key=_ref_key):
                joint_row = model.joint(t, hyp.pred_state)
                _ref_merge(completed, hyp.with_score(hyp.score + float(joint_row[blank])))
                for child in _ref_children(model, cfg, hyp, joint_row):
                    _ref_merge(expansions, child)
            if not expansions:
                break
            expansions = _ref_prune(expansions, cfg.beam_size)
            if step == cfg.n_steps:
                for yseq, hyp in sorted(expansions.items(), key=_ref_key):
                    joint_row = model.joint(t, hyp.pred_state)
                    _ref_merge(completed, hyp.with_score(hyp.score + float(joint_row[blank])))
            else:
                current = expansions
        pool = _ref_prune(completed, cfg.beam_size)
        if not pool:
            break
    return _ref_nbest(pool, cfg)


def ref_alsd(model, frames, cfg):
    blank = model.blank_id
    u_max = cfg.u_max if cfg.u_max is not None else math.ceil(cfg.u_max_ratio * frames)
    current = _ref_init(model, cfg)
    final = {} if frames else dict(current)  # no frames: the initial hypothesis is final
    for i in range(frames + u_max):
        nxt = {}
        for yseq, hyp in sorted(current.items(), key=_ref_key):
            u = len(yseq)
            t = i - u
            if t >= frames:
                continue
            joint_row = model.joint(t, hyp.pred_state)
            blank_hyp = hyp.with_score(hyp.score + float(joint_row[blank]))
            _ref_merge(final if t == frames - 1 else nxt, blank_hyp)
            if u < u_max:
                for child in _ref_children(model, cfg, hyp, joint_row):
                    _ref_merge(nxt, child)
        current = _ref_prune(nxt, cfg.beam_size)
        if not current:
            break
    return _ref_nbest(_ref_prune(final, cfg.beam_size), cfg)


REFERENCES = {"beam": ref_beam, "tsd": ref_tsd, "alsd": ref_alsd, "nsc": ref_nsc}


class QuantisedTransducer(TransducerModel):
    """Order-1 joint table with unnormalised entries on a 0.5 grid, so equal
    scores are common and ties cross hypotheses of different lengths."""

    def __init__(self, rng, n_labels, frames, neg_inf_share=0.0):
        self._num_labels = n_labels
        self.rows = {}
        for ctx in [()] + [(j,) for j in range(n_labels)]:
            mat = -0.5 * rng.integers(0, 7, size=(frames, n_labels + 1)).astype(np.float64)
            mat[rng.random(mat.shape) < neg_inf_share] = -np.inf
            self.rows[ctx] = mat

    @property
    def num_labels(self):
        return self._num_labels

    def pred_init(self):
        return ()

    def pred_step(self, state, label):
        return (label,)

    def joint(self, t, state):
        return self.rows[state][t]


class QuantisedLM(FullScorer):
    """Order-1 label LM with unnormalised 0.5-grid scores; the state is the
    last label, so select_state results are checkable."""

    def __init__(self, rng, n_labels, neg_inf_share=0.0):
        self.rows = {}
        for ctx in [()] + [(j,) for j in range(n_labels)]:
            vec = -0.5 * rng.integers(0, 5, size=n_labels).astype(np.float64)
            vec[rng.random(n_labels) < neg_inf_share] = -np.inf
            self.rows[ctx] = vec

    def init_state(self, emission):
        return ()

    def score(self, prefix, state, emission):
        return self.rows[state].copy(), state

    def select_state(self, scored_state, token):
        return (token,)


def _nbest_triples(nbest):
    return [(e.yseq, e.score, e.scores) for e in nbest.entries]


class TestTransducerTopBSelection:
    """Ranking label expansions on a score matrix and building only the
    kept ones returns the same n-best, bit for bit, as building every
    expansion first; likewise the heap-driven Graves beam."""

    @staticmethod
    def _instance(seed, *, frames=None, n_labels=None, beam=None, neg_inf_share=None):
        rng = np.random.default_rng(61000 + seed)
        n_labels = n_labels or int(rng.integers(1, 6))
        frames = int(rng.integers(1, 5)) if frames is None else frames
        share = neg_inf_share if neg_inf_share is not None else float(rng.choice([0.0, 0.2]))
        model = QuantisedTransducer(rng, n_labels, frames, share)
        lm = QuantisedLM(rng, n_labels, share)
        beam = beam or int(rng.integers(1, n_labels + 3))
        return model, lm, frames, beam

    @staticmethod
    def _configs(lm, beam):
        for fused in (False, True):
            fusion = dict(lm=lm, lm_weight=0.5) if fused else {}
            yield TransducerBeamConfig(beam_size=beam, algorithm="beam",
                                       max_pops_per_frame=40, **fusion)
            for n in (1, 2, 3):
                yield TransducerBeamConfig(beam_size=beam, algorithm="tsd",
                                           max_exp_per_step=n, **fusion)
                yield TransducerBeamConfig(beam_size=beam, algorithm="nsc",
                                           n_steps=n, **fusion)
            for u_max in (None, 0, 1, 2):
                yield TransducerBeamConfig(beam_size=beam, algorithm="alsd",
                                           u_max=u_max, **fusion)

    def _check(self, model, lm, frames, beam):
        for cfg in self._configs(lm, beam):
            got = transducer_decode(model, frames, cfg)
            want = REFERENCES[cfg.algorithm](model, frames, cfg)
            assert _nbest_triples(got) == _nbest_triples(want), cfg

    @pytest.mark.parametrize("seed", range(24))
    def test_random_quantised_instances(self, seed):
        self._check(*self._instance(seed))

    @pytest.mark.parametrize("seed", range(6))
    def test_neg_inf_joint_entries(self, seed):
        self._check(*self._instance(100 + seed, neg_inf_share=0.35))

    @pytest.mark.parametrize("seed", range(6))
    def test_single_frame(self, seed):
        self._check(*self._instance(200 + seed, frames=1))

    @pytest.mark.parametrize("seed", range(4))
    def test_zero_frames(self, seed):
        self._check(*self._instance(250 + seed, frames=0))

    @pytest.mark.parametrize("seed", range(6))
    def test_beam_wider_than_vocabulary(self, seed):
        n_labels = 1 + seed % 3
        self._check(*self._instance(300 + seed, n_labels=n_labels, beam=n_labels + 1 + seed))

    @pytest.mark.parametrize("seed", range(6))
    def test_normalised_models(self, seed):
        rng = np.random.default_rng(62000 + seed)
        frames = int(rng.integers(1, 6))
        model = random_transducer(rng, 3, frames)
        lm = TableScorer(1, 3, {ctx: np.log(rng.dirichlet(np.ones(3)))
                                for ctx in [(), (0,), (1,), (2,)]})
        self._check(model, lm, frames, int(rng.integers(1, 6)))

    @pytest.mark.parametrize("seed", range(40))
    def test_graves_beam_with_many_pops_per_frame(self, seed):
        # few labels, wide beams: hypotheses are popped, re-created and
        # merged again within one frame, so stale heap entries surface
        rng = np.random.default_rng(63000 + seed)
        n_labels, frames = int(rng.integers(1, 3)), int(rng.integers(2, 6))
        if seed % 2:
            model = QuantisedTransducer(rng, n_labels, frames)
        else:
            model = random_transducer(rng, n_labels, frames)
        lm = QuantisedLM(rng, n_labels)
        beam = int(rng.integers(2, 9))
        for fusion in ({}, dict(lm=lm, lm_weight=0.5)):
            cfg = TransducerBeamConfig(beam_size=beam, max_pops_per_frame=200, **fusion)
            got = transducer_beam(model, frames, cfg)
            assert _nbest_triples(got) == _nbest_triples(ref_beam(model, frames, cfg))

    def test_graves_beam_pops_a_child_tied_with_the_beam_th_completed_score(self):
        # frame 1 completes (0,) at -0.5 and () at -1.0; the child (0,) of ()
        # then scores -1.0, exactly the 2nd best completed score, so it is
        # still popped and its completion merges into (0,)
        model = QuantisedTransducer(np.random.default_rng(0), 1, 2)
        model.rows = {(): np.array([[0.0, -1.0], [0.0, 0.0]]),
                      (0,): np.array([[-np.inf, -0.5], [-np.inf, 0.0]])}
        cfg = TransducerBeamConfig(beam_size=2)
        got = _nbest_triples(transducer_beam(model, 2, cfg))
        assert got == _nbest_triples(ref_beam(model, 2, cfg))
        assert {yseq: score for yseq, score, _ in got} == {
            (0,): float(np.logaddexp(-0.5, -1.0)), (): -1.0}

    @pytest.mark.parametrize("seed", range(12))
    def test_graves_beam_truncated_by_the_pop_cap(self, seed):
        # a frame that hits max_pops_per_frame ends with what it completed,
        # before the B-th best completed score rules out the rest
        rng = np.random.default_rng(64000 + seed)
        frames = 4
        model = random_transducer(rng, 3, frames)
        lm = TableScorer(1, 3, {ctx: np.log(rng.dirichlet(np.ones(3)))
                                for ctx in [(), (0,), (1,), (2,)]})
        beam = 4
        truncated = 0
        for pops in (1, 2, 3, 5):
            for fusion in ({}, dict(lm=lm, lm_weight=0.5)):
                cfg = TransducerBeamConfig(beam_size=beam, max_pops_per_frame=pops, **fusion)
                got = _nbest_triples(transducer_beam(model, frames, cfg))
                assert got == _nbest_triples(ref_beam(model, frames, cfg))
                uncapped = TransducerBeamConfig(beam_size=beam, **fusion)
                truncated += got != _nbest_triples(transducer_beam(model, frames, uncapped))
        assert truncated

    @pytest.mark.parametrize("seed", range(12))
    def test_nsc_is_tsd_with_n_steps_rounds(self, seed):
        model, lm, frames, beam = self._instance(400 + seed)
        for n in (1, 2, 3):
            for fusion in ({}, dict(lm=lm, lm_weight=0.5)):
                want = ref_nsc(model, frames, TransducerBeamConfig(
                    beam_size=beam, algorithm="nsc", n_steps=n, **fusion))
                got = transducer_tsd(model, frames, TransducerBeamConfig(
                    beam_size=beam, algorithm="tsd", max_exp_per_step=n, **fusion))
                assert _nbest_triples(got) == _nbest_triples(want)


class CountingTransducer(TransducerModel):
    """Delegating model that logs each joint/joint_batch and pred_step call."""

    def __init__(self, inner):
        self.inner = inner
        self.events = []

    @property
    def num_labels(self):
        return self.inner.num_labels

    def pred_init(self):
        return self.inner.pred_init()

    def pred_step(self, state, label):
        self.events.append("pred_step")
        return self.inner.pred_step(state, label)

    def joint(self, t, state):
        self.events.append("joint")
        return self.inner.joint(t, state)

    def joint_batch(self, t, states):
        self.events.append("joint")
        return self.inner.joint_batch(t, states)

    def max_pred_steps_between_joints(self):
        runs = "".join("p" if e == "pred_step" else "|" for e in self.events).split("|")
        return max(len(run) for run in runs)


class TestTransducerExpansionWorkBound:
    """Children are built only for kept expansions: the frame- and
    label-synchronous searches make at most beam_size pred_step calls per
    expansion round, the Graves beam at most one per pop."""

    @pytest.mark.parametrize("alg", ["tsd", "alsd", "nsc"])
    @pytest.mark.parametrize("fused", [False, True])
    def test_at_most_beam_pred_steps_per_round(self, rng, alg, fused):
        model = CountingTransducer(random_transducer(rng, 6, 5))
        lm = TableScorer(0, 6, {(): np.log(rng.dirichlet(np.ones(6)))})
        cfg = TransducerBeamConfig(beam_size=2, algorithm=alg, max_exp_per_step=3,
                                   n_steps=3, lm=lm if fused else None,
                                   lm_weight=0.5 if fused else 0.0)
        transducer_decode(model, 5, cfg)
        assert "pred_step" in model.events
        assert model.max_pred_steps_between_joints() <= cfg.beam_size

    @pytest.mark.parametrize("fused", [False, True])
    def test_beam_builds_at_most_one_child_per_pop(self, rng, fused):
        model = CountingTransducer(random_transducer(rng, 6, 5))
        lm = TableScorer(0, 6, {(): np.log(rng.dirichlet(np.ones(6)))})
        cfg = TransducerBeamConfig(beam_size=4, lm=lm if fused else None,
                                   lm_weight=0.5 if fused else 0.0)
        transducer_beam(model, 5, cfg)
        assert "pred_step" in model.events
        assert model.max_pred_steps_between_joints() <= 1
        assert model.events.count("pred_step") <= model.events.count("joint")


class BatchOnlyLM(FullScorer):
    """Forwards ``batch_score`` to an inner LM and logs each call's batch
    size; fusion must not score parents one at a time."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = []

    def init_state(self, emission):
        return self.inner.init_state(emission)

    def score(self, prefix, state, emission):
        raise AssertionError("fusion scored one parent at a time")

    def select_state(self, scored_state, token):
        return self.inner.select_state(scored_state, token)

    def batch_score(self, prefixes, states, emission):
        self.calls.append(len(states))
        return self.inner.batch_score(prefixes, states, emission)


class TestFusionLMBatchCalls:
    @pytest.mark.parametrize("alg", ["beam", "tsd", "alsd", "nsc"])
    def test_one_lm_call_per_round(self, rng, alg):
        model = random_transducer(rng, 4, 5)
        lm = TableScorer(1, 4, {ctx: np.log(rng.dirichlet(np.ones(4)))
                                for ctx in [(), (0,), (1,), (2,), (3,)]})
        counted = BatchOnlyLM(lm)
        cfg = dict(beam_size=3, algorithm=alg, n_steps=2, lm_weight=0.5)
        got = transducer_decode(model, 5, TransducerBeamConfig(lm=counted, **cfg))
        want = REFERENCES[alg](model, 5, TransducerBeamConfig(lm=lm, **cfg))
        assert _nbest_triples(got) == _nbest_triples(want)
        assert counted.calls and (alg == "beam" or max(counted.calls) > 1)

    def test_lm_of_another_width_is_a_config_error(self, rng):
        model = random_transducer(rng, 4, 3)
        lm = TableScorer(0, 3, {(): np.log(np.full(3, 1 / 3))})
        cfg = TransducerBeamConfig(algorithm="tsd", lm=lm, lm_weight=0.5)
        with pytest.raises(ConfigError, match="fusion LM scores 3 tokens but the model has 4"):
            transducer_decode(model, 3, cfg)


class HistoryTransducer(TransducerModel):
    """Delegating order-1 model whose prediction state is the whole label
    history, so each joint call names the hypotheses it scores. Logs
    ("joint", t, yseqs) per joint or joint_batch call and ("pred_step",)."""

    def __init__(self, inner):
        self.inner = inner
        self.events = []

    @property
    def num_labels(self):
        return self.inner.num_labels

    def pred_init(self):
        return ()

    def pred_step(self, state, label):
        self.events.append(("pred_step",))
        return state + (label,)

    def joint(self, t, state):
        self.events.append(("joint", t, [state]))
        return self.inner.joint(t, state[-1:])

    def joint_batch(self, t, states):
        self.events.append(("joint", t, list(states)))
        return self.inner.joint_batch(t, [s[-1:] for s in states])


def log_hypotheses(monkeypatch, events):
    """Log ("hyp", yseq) for each TransducerHypothesis the searches build."""

    class Logged(TransducerHypothesis):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            events.append(("hyp", self.yseq))

    monkeypatch.setattr(transducer_mod, "TransducerHypothesis", Logged)


def _unexpanded(events):
    """Hypotheses built without a pred_step just before (not a child), as
    (index of the last joint event before, yseq)."""
    out, last_joint = [], None
    for i, event in enumerate(events):
        if event[0] == "joint":
            last_joint = i
        elif event[0] == "hyp" and (i == 0 or events[i - 1][0] != "pred_step"):
            out.append((last_joint, event[1]))
    return out


class TestTransducerHypothesesBuiltPerFrame:
    """Blank completions are scores until pruning keeps them: every
    hypothesis a search builds that is not an expansion (built right after
    its pred_step) is one the search keeps. For TSD, NSC and ALSD it is
    scored by the next run of joint calls (the next frame's or step's
    hypotheses) or is in the n-best; the Graves beam builds at most B per
    frame besides the children it pops."""

    @staticmethod
    def _decode(monkeypatch, rng, alg, fused):
        model = HistoryTransducer(random_transducer(rng, 6, 5))
        lm = TableScorer(0, 6, {(): np.log(rng.dirichlet(np.ones(6)))})
        log_hypotheses(monkeypatch, model.events)
        cfg = TransducerBeamConfig(beam_size=2, algorithm=alg, max_exp_per_step=3,
                                   n_steps=3, lm=lm if fused else None,
                                   lm_weight=0.5 if fused else 0.0)
        return model.events, transducer_decode(model, 5, cfg)

    @pytest.mark.parametrize("alg", ["tsd", "nsc", "alsd"])
    @pytest.mark.parametrize("fused", [False, True])
    def test_every_built_completion_is_kept(self, monkeypatch, rng, alg, fused):
        events, nbest = self._decode(monkeypatch, rng, alg, fused)
        built = _unexpanded(events)
        assert len(built) > 5
        for i, yseq in built:
            run = []
            for event in itertools.dropwhile(lambda e: e[0] != "joint", events[(i or 0) + 1:]):
                if event[0] != "joint":
                    break
                run.extend(event[2])
            kept = run if run else [e.yseq for e in nbest.entries]
            assert yseq in kept

    @pytest.mark.parametrize("fused", [False, True])
    def test_graves_beam_builds_at_most_beam_per_frame_besides_children(
            self, monkeypatch, rng, fused):
        events, _ = self._decode(monkeypatch, rng, "beam", fused)
        frames = [events[i][1] for i, _ in _unexpanded(events) if i is not None]
        assert frames and max(collections.Counter(frames).values()) <= 2  # beam_size


FUSE = transducer_mod._fuse


class RowHeapSpy:
    """Observes transducer_beam's heap and its expansion rows. A frame
    starts at each heapify; every heappush, and every row a pop scores
    through _fuse (one per pop), is logged with its frame. A row is logged
    as its parent, the popped score (from the heap entry just popped), its
    cells and its LM row."""

    def __init__(self, monkeypatch):
        self.frame = -1
        self.pushes, self.rows = [], []
        popped = []
        spy = self

        class Heapq:
            @staticmethod
            def heappop(heap):
                popped[:] = [heapq.heappop(heap)]
                return popped[0]

            @staticmethod
            def heapify(heap):
                spy.frame += 1
                heapq.heapify(heap)

            @staticmethod
            def heappush(heap, entry):
                spy.pushes.append((spy.frame, entry))
                heapq.heappush(heap, entry)

        def rows(model, config, parents, total):
            cells, lm_rows, lm_scored = FUSE(model, config, parents, total)
            assert len(parents) == 1 and parents[0].yseq == popped[0][1]
            spy.rows.append((spy.frame, types.SimpleNamespace(
                parents=parents, score=-popped[0][0], scores=cells, lm_rows=lm_rows)))
            return cells, lm_rows, lm_scored

        monkeypatch.setattr(transducer_mod, "heapq", Heapq)
        monkeypatch.setattr(transducer_mod, "_fuse", rows)

    def pops(self):
        """(frame, popped yseq, its score) in pop order."""
        return [(f, row.parents[0].yseq, row.score) for f, row in self.rows]

    def popped_twice(self):
        """(frame, yseq) of each parent popped more than once in a frame."""
        seen = collections.Counter((f, yseq) for f, yseq, _ in self.pops())
        return {key for key, n in seen.items() if n > 1}

    def pool_pushes(self):
        """Pushes that re-rank a pool hypothesis (its cell was absorbed)."""
        return [(f, entry[1]) for f, entry in self.pushes
                if isinstance(entry[3][2], TransducerHypothesis)]

    def unpushed_rows(self):
        """Rows that never had a heap entry: a row node holds the parent of
        the pop that made it, and a parent popped again merges its new row
        into that node."""
        pushed = {id(entry[3][2][0]) for _, entry in self.pushes
                  if isinstance(entry[3][2], tuple)}
        return [row for _, row in self.rows if id(row.parents[0]) not in pushed]


def _quantised(rows):
    """A QuantisedTransducer holding the given order-1 rows (lists of frames)."""
    n_labels = len(rows[()][0]) - 1
    model = QuantisedTransducer(np.random.default_rng(0), n_labels, len(rows[()]))
    model.rows = {ctx: np.array(mat, dtype=np.float64) for ctx, mat in rows.items()}
    return model


NEG = -np.inf


class TestGravesRowHeap:
    """Edges of the Graves beam's row heap (one row of label scores per
    popped parent, one heap entry per row), each exact against ref_beam and
    each shown to take its path through RowHeapSpy."""

    @staticmethod
    def _exact(model, frames, cfg):
        got = _nbest_triples(transducer_beam(model, frames, cfg))
        assert got == _nbest_triples(ref_beam(model, frames, cfg))
        return got

    def test_pool_parent_above_its_child_absorbs_the_cell(self, monkeypatch):
        # frame 0 leaves the pool (0,) at -1.0 above (0, 1) at -1.5; in
        # frame 1 (0,) pops first and its cell for label 1 merges into the
        # waiting pool hypothesis (0, 1)
        model = _quantised({
            (): [[-0.5, NEG, -3.0], [-1.0, -1.0, -1.0]],
            (0,): [[NEG, -0.5, -0.5], [-1.0, -0.5, -1.0]],
            (1,): [[NEG, NEG, -0.5], [-1.0, -1.0, -0.5]],
        })
        spy = RowHeapSpy(monkeypatch)
        got = self._exact(model, 2, TransducerBeamConfig(beam_size=2))
        assert (1, (0, 1)) in spy.pool_pushes()
        assert [p[1] for p in spy.pops() if p[0] == 1][:2] == [(0,), (0, 1)]
        assert dict((y, s) for y, s, _ in got)[(0, 1)] > -1.5

    def test_pool_parent_below_its_child_leaves_the_cell_pending(self, monkeypatch):
        # frame 0 leaves (0, 1) at -0.5 above (0,) at -2.5; in frame 1
        # (0, 1) pops first, so the cell of (0,) for label 1 has no pool
        # hypothesis left to merge into: it waits in its row and is popped
        # from there, (0, 1)'s second pop of the frame
        model = _quantised({
            (): [[-0.5, NEG, -3.0], [-1.0, -1.0, -1.0]],
            (0,): [[NEG, 0.0, -2.0], [NEG, -0.5, -3.0]],
            (1,): [[NEG, NEG, 0.0], [NEG, NEG, -0.5]],
        })
        spy = RowHeapSpy(monkeypatch)
        self._exact(model, 2, TransducerBeamConfig(beam_size=2))
        assert not [p for p in spy.pool_pushes() if p[0] == 1]
        assert [p[1] for p in spy.pops() if p[0] == 1] == [(0, 1), (0,), (0, 1)]
        assert (1, (0, 1)) in spy.popped_twice()

    def test_parent_popped_twice_merges_its_rows(self, monkeypatch):
        # frame 1 pops (0,) from the pool, then its child (0, 0), then ();
        # the cell () -> (0,) pops (0,) again, whose new row merges into the
        # old one: (0, 1) was pending and log-sum-exp merges, (0, 0) was
        # consumed and starts fresh, so it is popped again
        model = _quantised({
            (): [[0.0, NEG, -1.0], [0.0, NEG, -0.5]],
            (0,): [[NEG, NEG, -0.5], [-0.3, -1.5, -0.5]],
            (1,): [[NEG, NEG, 0.0], [NEG, NEG, 0.0]],
        })
        # a flat LM leaves the pops as they are, and the merged row's
        # children take their LM state from the parent's first row
        lm = QuantisedLM(np.random.default_rng(1), 2)
        lm.rows = {ctx: np.zeros(2) for ctx in lm.rows}
        for fusion in ({}, dict(lm=lm, lm_weight=0.5)):
            spy = RowHeapSpy(monkeypatch)
            self._exact(model, 2, TransducerBeamConfig(beam_size=2, **fusion))
            assert [p[1] for p in spy.pops() if p[0] == 1] == [
                (0,), (0, 0), (), (0,), (0, 0, 0), (0, 0)]

    def test_rows_below_the_floor_are_never_pushed(self, monkeypatch):
        # B=1: each frame's first pop completes above all of its label
        # expansions, so its row never enters the heap
        model = _quantised({
            (): [[-1.0, -2.0, 0.0], [-1.0, -0.5, -0.5], [-1.5, -1.0, 0.0]],
            (0,): [[-1.0, -1.0, -0.5], [-2.0, -0.5, 0.0], [-1.0, -1.5, -0.5]],
            (1,): [[-0.5, -1.0, -0.5], [-0.5, -2.0, -0.5], [-2.0, -1.0, 0.0]],
        })
        spy = RowHeapSpy(monkeypatch)
        self._exact(model, 3, TransducerBeamConfig(beam_size=1))
        assert any(np.isfinite(exp.scores).any() for exp in spy.unpushed_rows())

    def test_all_neg_inf_rows_from_the_joint(self, monkeypatch):
        # after label 0 the joint allows only blank: every row of a parent
        # ending in 0 is -inf throughout and never enters the heap
        model = _quantised({
            (): [[-0.5, -1.0, -1.0], [-0.5, -1.5, -0.5]],
            (0,): [[NEG, NEG, -0.5], [NEG, NEG, 0.0]],
            (1,): [[-0.5, -1.0, -0.5], [-1.0, -0.5, -0.5]],
        })
        spy = RowHeapSpy(monkeypatch)
        self._exact(model, 2, TransducerBeamConfig(beam_size=3))
        dead = [exp for exp in spy.unpushed_rows() if exp.parents[0].yseq[-1:] == (0,)]
        assert dead and all(np.isneginf(exp.scores).all() for exp in dead)

    def test_all_neg_inf_rows_from_an_lm_at_weight_zero(self, monkeypatch):
        # the LM rules out every label after label 0; at weight 0 each cell
        # is 0 * -inf = nan, which must become -inf. The reference decodes
        # the same ban written into the joint, with the LM's banned entries
        # made finite, so its arithmetic never meets a nan
        joint = {
            (): [[-0.5, -1.0, -1.0], [-0.5, -1.5, -0.5]],
            (0,): [[-1.0, -0.5, -0.5], [-0.5, -1.0, 0.0]],
            (1,): [[-0.5, -1.0, -0.5], [-1.0, -0.5, -0.5]],
        }
        model = _quantised(joint)
        lm = QuantisedLM(np.random.default_rng(2), 2)
        lm.rows[(0,)] = np.full(2, NEG)
        spy = RowHeapSpy(monkeypatch)
        with np.errstate(invalid="ignore"):
            got = _nbest_triples(transducer_beam(
                model, 2, TransducerBeamConfig(beam_size=3, lm=lm, lm_weight=0.0)))
        dead = [exp for exp in spy.unpushed_rows() if exp.parents[0].yseq[-1:] == (0,)]
        assert dead and all(np.isneginf(exp.scores).all() and np.isneginf(exp.lm_rows).all()
                            for exp in dead)

        banned = _quantised({**joint, (0,): [[NEG, NEG, row[2]] for row in joint[(0,)]]})
        finite_lm = QuantisedLM(np.random.default_rng(2), 2)
        finite_lm.rows[(0,)] = np.zeros(2)
        want = ref_beam(banned, 2, TransducerBeamConfig(beam_size=3, lm=finite_lm,
                                                        lm_weight=0.0))
        assert got == _nbest_triples(want)

    def test_ties_across_rows_on_the_half_grid(self, monkeypatch):
        # equal scores from different parents are popped in child-yseq
        # order, as the reference's min over (-score, yseq) does
        spy = RowHeapSpy(monkeypatch)
        for seed in range(12):
            rng = np.random.default_rng(65000 + seed)
            n_labels, frames = int(rng.integers(2, 4)), int(rng.integers(2, 5))
            model = QuantisedTransducer(rng, n_labels, frames)
            lm = QuantisedLM(rng, n_labels)
            for fusion in ({}, dict(lm=lm, lm_weight=0.5)):
                self._exact(model, frames, TransducerBeamConfig(
                    beam_size=3, max_pops_per_frame=40, **fusion))
        pops = spy.pops()
        ties = [(a, b) for a, b in zip(pops, pops[1:])
                if a[0] == b[0] and a[2] == b[2] and a[1] and b[1] and a[1][:-1] != b[1][:-1]]
        assert ties
        assert all(a[1] < b[1] for a, b in ties)


def _planted_table(rng, n_labels, frames):
    """A normalised order-1 table peaked on a planted transcript, like the
    transducer benchmark's: label ref[u] is due at frame 3u + 1, where every
    context but the one it leads to prefers it; elsewhere blank is preferred."""
    ref = rng.permutation(n_labels)[:frames // 3]
    contexts = [()] + [(j,) for j in range(n_labels)]
    noise = np.exp(rng.normal(size=(len(contexts), frames, n_labels + 1)))
    noise /= noise.sum(axis=-1, keepdims=True)
    peak = rng.uniform(0.5, 0.95, size=(len(contexts), frames, 1))
    probs = (1 - peak) * noise
    for t in range(frames):
        u, r = divmod(t, 3)
        due = int(ref[u]) if r == 1 and u < len(ref) else n_labels
        probs[:, t, due] += peak[:, t, 0]
        if due != n_labels:
            after = contexts.index((due,))
            probs[after, t, due] -= peak[after, t, 0]
            probs[after, t, n_labels] += peak[after, t, 0]
    return TableTransducer(context_order=1, frames=frames, num_labels=n_labels,
                           rows={ctx: np.log(probs[i]) for i, ctx in enumerate(contexts)})


class TestGravesBeamAtWorkloadShape:
    """The searches at the transducer benchmark's shape: 30 labels, B = 4,
    order-1 table and LM, plain and fused at weight 0.3, each equal to its
    reference bit for bit (the class keeps the name it had when it held
    the Graves beam alone)."""

    @staticmethod
    def _instance(seed):
        rng = np.random.default_rng(66000 + seed)
        model = _planted_table(rng, 30, 20)
        lm = TableScorer(1, 30, {ctx: np.log(rng.dirichlet(np.full(30, 0.3)))
                                 for ctx in [()] + [(j,) for j in range(30)]})
        return model, ({}, dict(lm=lm, lm_weight=0.3))

    @pytest.mark.parametrize("seed", range(2))
    def test_matches_reference(self, seed):
        model, fusions = self._instance(seed)
        for fusion in fusions:
            cfg = TransducerBeamConfig(beam_size=4, **fusion)
            got = _nbest_triples(transducer_beam(model, 20, cfg))
            assert len(got) == 4
            assert got == _nbest_triples(ref_beam(model, 20, cfg))

    @pytest.mark.parametrize("alg", ["tsd", "nsc", "alsd"])
    @pytest.mark.parametrize("seed", range(2))
    def test_round_searches_match_reference(self, seed, alg):
        model, fusions = self._instance(seed)
        for fusion in fusions:
            cfg = TransducerBeamConfig(beam_size=4, algorithm=alg, **fusion)
            got = _nbest_triples(transducer_decode(model, 20, cfg))
            assert len(got) == 4
            assert got == _nbest_triples(REFERENCES[alg](model, 20, cfg))


class TestGravesBeamPushBound:
    """A pop pushes its parent's row once, re-pushes the row it came from
    and re-ranks at most B pool hypotheses: at most (2 + B) pushes per pop,
    whatever V is."""

    @pytest.mark.parametrize("fused", [False, True])
    def test_pushes_per_frame_do_not_grow_with_vocabulary(self, fused, monkeypatch):
        rng = np.random.default_rng(67000)
        labels, frames, beam = 200, 4, 4
        model = random_transducer(rng, labels, frames)
        lm = TableScorer(0, labels, {(): np.log(rng.dirichlet(np.ones(labels)))})
        spy = RowHeapSpy(monkeypatch)
        transducer_beam(model, frames, TransducerBeamConfig(
            beam_size=beam, lm=lm if fused else None, lm_weight=0.5 if fused else 0.0))
        pops = collections.Counter(f for f, _ in spy.rows)
        pushes = collections.Counter(f for f, _ in spy.pushes)
        assert max(pops.values()) >= 2
        for frame, n in pops.items():
            assert pushes[frame] <= (2 + beam) * n


class Float32Transducer(TransducerModel):
    """Delegating model whose joint and joint_batch return float32 rows."""

    def __init__(self, inner):
        self.inner = inner

    @property
    def num_labels(self):
        return self.inner.num_labels

    def pred_init(self):
        return self.inner.pred_init()

    def pred_step(self, state, label):
        return self.inner.pred_step(state, label)

    def joint(self, t, state):
        return self.inner.joint(t, state).astype(np.float32)

    def joint_batch(self, t, states):
        return self.inner.joint_batch(t, states).astype(np.float32)


class TestFloat32JointRows:
    """A model's float32 joint rows decode exactly as the same rows cast to
    float64: every search adds them to float64 scores in float64 (under
    NEP 50, a Python float plus a float32 row would stay float32)."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("alg", sorted(transducer_mod.ALGORITHMS))
    def test_same_nbest_as_float64_rows(self, seed, alg):
        rng = np.random.default_rng(66000 + seed)
        frames = int(rng.integers(1, 6))
        model = random_transducer(rng, 3, frames)
        widened = TableTransducer(
            context_order=1, frames=frames, num_labels=3,
            rows={ctx: mat.astype(np.float32).astype(np.float64)
                  for ctx, mat in model.rows.items()})
        narrow = Float32Transducer(model)
        lm = TableScorer(1, 3, {ctx: np.log(rng.dirichlet(np.ones(3)))
                                for ctx in [(), (0,), (1,), (2,)]})
        for fusion in ({}, dict(lm=lm, lm_weight=0.5)):
            if fusion and alg == "greedy":
                continue
            cfg = TransducerBeamConfig(beam_size=3, algorithm=alg, **fusion)
            want = _nbest_triples(transducer_decode(widened, frames, cfg))
            got = _nbest_triples(transducer_decode(narrow, frames, cfg))
            assert got == want
            assert all(type(score) is float for _, score, _ in got)


class TestScalarLogAddExp:
    """transducer._logaddexp, the searches' merge of two Python floats,
    equals np.logaddexp bit for bit. On a platform whose libm rounds exp
    or log1p differently this fails, rather than merged scores moving."""

    @staticmethod
    def _bits(values):
        return [v.hex() for v in values]

    def _check(self, pairs):
        with np.errstate(invalid="ignore"):
            want = [float(np.logaddexp(x, y)) for x, y in pairs]
        got = [transducer_mod._logaddexp(x, y) for x, y in pairs]
        assert all(type(v) is float for v in got)
        assert self._bits(got) == self._bits(want)

    def test_random_pairs(self):
        rng = np.random.default_rng(67000)
        n = 100_000
        x = rng.normal(scale=20.0, size=n)
        # half the gaps within a few nats (log1p matters), half wide
        gap = np.where(rng.random(n) < 0.5, rng.normal(scale=3.0, size=n),
                       rng.normal(scale=300.0, size=n))
        self._check(list(zip(x.tolist(), (x + gap).tolist())))

    def test_edge_cases(self):
        inf, nan = math.inf, math.nan
        pairs = [
            (0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-1.5, -1.5), (7.25, 7.25),
            (-1e308, -1e308), (1e308, 1e308),
            (-inf, -inf), (-inf, -2.0), (-2.0, -inf), (-inf, 0.0), (inf, -inf),
            (-inf, inf), (inf, inf), (inf, 3.0),
            (0.0, -745.0), (0.0, -745.2), (0.0, -746.0), (-800.0, 0.0),
            (-1.0, -1000.0), (-3000.0, 2.0), (1e-300, -1e-300),
            (nan, 0.0), (0.0, nan), (nan, nan), (nan, -inf), (-inf, nan),
        ]
        self._check(pairs)
        assert math.isnan(transducer_mod._logaddexp(nan, -inf))


class NanLM(FullScorer):
    """An LM whose rows hold nan at ``label`` for the states in ``states``
    (every state when None); otherwise the inner LM's rows."""

    def __init__(self, inner, label, states=None):
        self.inner, self.label, self.states = inner, label, states

    def init_state(self, emission):
        return self.inner.init_state(emission)

    def score(self, prefix, state, emission):
        mat, scored = self.batch_score([prefix], [state], emission)
        return mat[0], scored[0]

    def select_state(self, scored_state, token):
        return self.inner.select_state(scored_state, token)

    def batch_score(self, prefixes, states, emission):
        mat, scored = self.inner.batch_score(prefixes, states, emission)
        mat = mat.copy()
        hit = [self.states is None or tuple(s) in self.states for s in states]
        mat[hit, self.label] = np.nan
        return mat, scored


class NanTransducer(TransducerModel):
    """A transducer whose joint row at (frame, prediction state) holds nan at
    ``label``; otherwise the inner model's rows."""

    def __init__(self, inner, frame, state, label):
        self.inner, self.at, self.label = inner, (frame, state), label
        self.frames = inner.frames

    @property
    def num_labels(self):
        return self.inner.num_labels

    def pred_init(self):
        return self.inner.pred_init()

    def pred_step(self, state, label):
        return self.inner.pred_step(state, label)

    def joint(self, t, state):
        row = self.inner.joint(t, state)
        if (t, tuple(state)) == self.at:
            row = row.copy()
            row[self.label] = np.nan
        return row


class TestNanCells:
    """A nan among a round's label cells ends every transducer search in a
    DecodeError naming its frame and whether the fusion LM's row or the
    model's holds it. Unchecked, a nan cell drops out silently: ``np.sort``
    puts it last and ``flat >= kth`` is False for it, and the Graves beam's
    row argmax stops at it."""

    ALGS = ["beam", "tsd", "alsd", "nsc"]

    @staticmethod
    def _decode(model, alg, lm=None, beam=2, weight=0.5):
        cfg = TransducerBeamConfig(algorithm=alg, beam_size=beam, lm=lm,
                                   lm_weight=weight if lm is not None else 0.0)
        return transducer_decode(model, model.frames, cfg)

    @staticmethod
    def _lm():
        return TableScorer(1, 3, {ctx: np.log([0.5, 0.3, 0.2]) for ctx in [(), (0,), (1,), (2,)]})

    @pytest.mark.parametrize("weight", [0.5, 0.0])
    @pytest.mark.parametrize("alg", ALGS)
    def test_a_fusion_lm_nan_names_the_lm(self, alg, weight):
        # 3 labels, 4 frames, order 1, beam 2: the nan-free LM keeps (1,)
        # on top; unchecked, a nan for label 0 left the Graves beam with ()
        # alone and ranked (0,) first in the others. Weight 0 maps 0 * -inf
        # to -inf but keeps a nan.
        model = random_transducer(np.random.default_rng(0), 3, 4)
        assert self._decode(model, alg, self._lm()).best().yseq == (1,)
        with pytest.raises(DecodeError, match="^frame 0: fusion LM returned nan$"):
            self._decode(model, alg, NanLM(self._lm(), 0), weight=weight)

    @pytest.mark.parametrize("beam", [2, 4])
    @pytest.mark.parametrize("alg", ALGS)
    def test_a_nan_below_the_kth_cell(self, alg, beam):
        # label 2 is all but impossible, so its cell would rank below the
        # k-th; only the empty prefix's LM row holds the nan, so at beam 4
        # the first round's 3 cells, which take the no-sort branch, meet it
        contexts = [(), (0,), (1,), (2,)]
        model = table_from_probs({ctx: [[0.5, 0.3, 1e-9, 0.2]] * 3 for ctx in contexts}, frames=3)
        lm = NanLM(TableScorer(1, 3, {ctx: np.log([0.4, 0.4, 0.2]) for ctx in contexts}), 2,
                   states={()})
        with pytest.raises(DecodeError, match="^frame 0: fusion LM returned nan$"):
            self._decode(model, alg, lm, beam)

    @pytest.mark.parametrize("fused", [False, True])
    @pytest.mark.parametrize("alg", ALGS)
    def test_a_model_nan_names_the_model(self, alg, fused):
        # the nan is in the joint row after label 0 at frame 2; fused is an
        # LM at weight 0, whose rule for 0 * -inf must not hide the nan
        model = NanTransducer(random_transducer(np.random.default_rng(0), 3, 4), 2, (0,), 1)
        with pytest.raises(DecodeError, match="^frame 2: transducer model returned nan$"):
            self._decode(model, alg, self._lm() if fused else None, beam=3, weight=0.0)

    def test_alsd_a_nan_in_a_merged_pair(self):
        # at step 3, (1, 0) expands by label 0 at frame 1 into the yseq of
        # (1, 0, 0)'s blank advance: the merge, not _keep, meets the nan cell
        model = NanTransducer(random_transducer(np.random.default_rng(0), 2, 4), 1, (0,), 0)
        with pytest.raises(DecodeError, match="^frame 1: transducer model returned nan$"):
            self._decode(model, "alsd")
