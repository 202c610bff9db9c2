import itertools
import math

import numpy as np
import pytest

from seqdecode import (
    OracleBudget,
    ctc_forward,
    oracle_best_sequence,
    oracle_ctc_prob,
    oracle_transducer_prob,
)

from conftest import dag_transducer, increasing_sequences, make_vocab, random_emission, random_table_scorer


class TestOracleCtc:
    def test_single_frame(self):
        from seqdecode import EmissionMatrix
        em = EmissionMatrix(np.log([[0.5, 0.5]]))
        assert oracle_ctc_prob(em, [1], 0) == pytest.approx(math.log(0.5), abs=1e-12)

    def test_forced_all_blank_empty_labels(self):
        from seqdecode import EmissionMatrix
        em = EmissionMatrix.from_logits(np.log([[1.0, 1e-300], [1.0, 1e-300]]))
        assert oracle_ctc_prob(em, [], 0) == pytest.approx(0.0, abs=1e-6)

    @pytest.mark.parametrize("seed", range(5))
    def test_total_mass_is_one(self, seed):
        """Summed over every label sequence of length <= T, CTC probabilities
        cover all paths exactly once."""
        rng = np.random.default_rng(8000 + seed)
        frames = int(rng.integers(1, 5))
        em = random_emission(rng, frames, 3)
        total = 0.0
        for length in range(frames + 1):
            for labels in itertools.product((1, 2), repeat=length):
                total += math.exp(oracle_ctc_prob(em, labels, 0))
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_budget_guard(self, rng):
        em = random_emission(rng, 5, 3)
        with pytest.raises(ValueError):
            oracle_ctc_prob(em, [1], 0, budget=OracleBudget(max_frames=3))

    @pytest.mark.parametrize("seed", range(5))
    def test_agrees_with_dp_forward(self, seed):
        rng = np.random.default_rng(8100 + seed)
        em = random_emission(rng, 4, 3)
        for labels in [(), (1,), (2, 1), (1, 1)]:
            assert oracle_ctc_prob(em, labels, 0) == pytest.approx(
                ctc_forward(em, labels, 0), abs=1e-9
            ) or (
                oracle_ctc_prob(em, labels, 0) == float("-inf")
                and ctc_forward(em, labels, 0) == float("-inf")
            )


class TestOracleBestSequence:
    def test_single_step_argmax(self, rng):
        vocab = make_vocab(2)  # V=5: blank l0 l1 eos sos
        em = random_emission(rng, 2, vocab.size)
        ts = random_table_scorer(rng, 0, vocab.size)
        yseq, score = oracle_best_sequence(
            vocab, em, {"att": ts}, {"att": 1.0}, max_len=1
        )
        # exhaustive check over the three candidates: (), (l0,), (l1,)
        row = ts.rows[()]
        best = max(
            [((), float(row[vocab.eos_id]))]
            + [((lab,), float(row[lab] + row[vocab.eos_id])) for lab in vocab.label_ids()],
            key=lambda kv: kv[1],
        )
        assert score == pytest.approx(best[1], abs=1e-12)
        assert yseq == best[0]

    def test_zero_weight_scorer_is_neutral(self, rng):
        vocab = make_vocab(2)
        em = random_emission(rng, 3, vocab.size)
        ts = random_table_scorer(rng, 1, vocab.size)
        extra = random_table_scorer(rng, 0, vocab.size)
        base = oracle_best_sequence(vocab, em, {"att": ts}, {"att": 1.0}, max_len=2)
        with_zero = oracle_best_sequence(
            vocab, em, {"att": ts, "extra": extra}, {"att": 1.0, "extra": 0.0}, max_len=2
        )
        assert base == with_zero

    def test_budget_guard(self, rng):
        vocab = make_vocab(2)
        em = random_emission(rng, 2, vocab.size)
        ts = random_table_scorer(rng, 0, vocab.size)
        with pytest.raises(ValueError):
            oracle_best_sequence(vocab, em, {"att": ts}, {"att": 1.0}, max_len=9)

    def test_negative_max_len_is_usage_error(self, rng):
        vocab = make_vocab(2)
        em = random_emission(rng, 2, vocab.size)
        ts = random_table_scorer(rng, 0, vocab.size)
        with pytest.raises(ValueError, match="max_len must be >= 0"):
            oracle_best_sequence(vocab, em, {"att": ts}, {"att": 1.0}, max_len=-1)

    def test_max_len_zero_is_the_empty_sequence(self, rng):
        vocab = make_vocab(2)
        em = random_emission(rng, 2, vocab.size)
        ts = random_table_scorer(rng, 0, vocab.size)
        yseq, score = oracle_best_sequence(vocab, em, {"att": ts}, {"att": 1.0}, max_len=0)
        assert yseq == ()
        assert score == float(ts.score((vocab.sos_id,), (), None)[0][vocab.eos_id])


class TestOracleTransducer:
    def test_single_frame_empty_labels(self, rng):
        model = dag_transducer(rng, 2, 1)
        expected = float(model.joint(0, ())[model.blank_id])
        assert oracle_transducer_prob(model, 1, ()) == pytest.approx(expected, abs=1e-12)

    def test_two_frames_one_label_hand_enumeration(self, rng):
        model = dag_transducer(rng, 2, 2)
        blank = model.blank_id
        # alignments: (0 at f0, blank, blank) and (blank, 0 at f1, blank)
        r0, r0_after = model.joint(0, ()), model.joint(0, (0,))
        r1, r1_after = model.joint(1, ()), model.joint(1, (0,))
        a1 = float(r0[0] + r0_after[blank] + r1_after[blank])
        a2 = float(r0[blank] + r1[0] + r1_after[blank])
        expected = np.logaddexp(a1, a2)
        assert oracle_transducer_prob(model, 2, (0,)) == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_near_completeness_on_finite_support(self, seed):
        """On models whose reachable sequences are finite, total mass over the
        support is exactly one."""
        rng = np.random.default_rng(8200 + seed)
        frames = int(rng.integers(1, 5))
        model = dag_transducer(rng, 2, frames)
        total = sum(
            math.exp(oracle_transducer_prob(model, frames, seq))
            for seq in increasing_sequences(2)
        )
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_budget_guard(self, rng):
        model = dag_transducer(rng, 2, 3)
        with pytest.raises(ValueError):
            oracle_transducer_prob(model, 3, (0,), budget=OracleBudget(max_enumeration=2))
