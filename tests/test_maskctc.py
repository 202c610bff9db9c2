import math

import numpy as np
import pytest

from seqdecode import (
    ConfigError,
    DecodeError,
    EmissionMatrix,
    MaskCtcConfig,
    TableMLM,
    ctc_confidence_collapse,
    mask_ctc_decode,
)

from conftest import make_vocab, random_emission


def peaked_emission(frame_specs, vocab_size):
    """Each spec is (token_id, prob); remaining mass spread uniformly."""
    rows = []
    for tok, p in frame_specs:
        row = np.full(vocab_size, (1.0 - p) / (vocab_size - 1))
        row[tok] = p
        rows.append(row)
    return EmissionMatrix(np.log(np.array(rows)))


class TestConfidenceCollapse:
    def test_blank_split_keeps_repeats(self):
        vocab_size = 3
        em = peaked_emission([(1, 0.9), (0, 0.9), (1, 0.9)], vocab_size)
        tokens, conf = ctc_confidence_collapse(em, 0)
        assert tokens == (1, 1)
        assert conf == pytest.approx((0.9, 0.9))

    def test_all_blank_empty(self):
        em = peaked_emission([(0, 0.9), (0, 0.8)], 3)
        tokens, conf = ctc_confidence_collapse(em, 0)
        assert tokens == ()
        assert conf == ()

    def test_confidence_is_max_over_run(self):
        em = peaked_emission([(1, 0.6), (1, 0.95), (1, 0.7)], 3)
        tokens, conf = ctc_confidence_collapse(em, 0)
        assert tokens == (1,)
        assert conf == pytest.approx((0.95,))


class TestMaskCtcDecode:
    def test_threshold_zero_keeps_collapse_without_calls(self, rng):
        vocab = make_vocab(3, with_mask=True)
        # realistic acoustic output never peaks at mask or sos
        logits = rng.normal(size=(6, vocab.size))
        logits[:, vocab.mask_id] = -30.0
        logits[:, vocab.sos_id] = -30.0
        em = EmissionMatrix.from_logits(logits)
        mlm = TableMLM(vocab.size, vocab.mask_id)
        result = mask_ctc_decode(em, mlm, vocab, MaskCtcConfig(threshold=0.0, iterations=3))
        assert result.tokens == ctc_confidence_collapse(em, vocab.blank_id)[0]
        assert result.mlm_calls == 0
        assert result.masked_counts == ()

    def test_all_masked_single_iteration_fills_argmax(self):
        vocab = make_vocab(2, with_mask=True)
        # weak collapse: every token barely over uniform
        em = peaked_emission([(1, 0.4), (2, 0.4)], vocab.size)
        rows = {
            (None, None): {
                0: self._peak_row(vocab.size, 2),
                1: self._peak_row(vocab.size, 1),
            }
        }
        mlm = TableMLM(vocab.size, vocab.mask_id, rows)
        result = mask_ctc_decode(em, mlm, vocab, MaskCtcConfig(threshold=0.99, iterations=1))
        assert result.tokens == (2, 1)
        assert result.mlm_calls == 1

    @staticmethod
    def _peak_row(vocab_size, tok, p=0.9):
        row = np.full(vocab_size, (1.0 - p) / (vocab_size - 1))
        row[tok] = p
        return np.log(row)

    def test_ground_truth_table_recovers_sequence(self):
        """An oracle masked LM that knows the truth repairs the low-confidence
        positions over two iterations."""
        vocab = make_vocab(3, with_mask=True)
        truth = (1, 2, 3)
        # middle token confident, flanks uncertain (collapse still = truth)
        em = peaked_emission([(1, 0.55), (2, 0.95), (3, 0.52)], vocab.size)
        mask = None
        patterns = {
            (mask, 2, mask): {
                0: self._peak_row(vocab.size, 1, 0.95),
                2: self._peak_row(vocab.size, 3, 0.8),
            },
            (1, 2, mask): {2: self._peak_row(vocab.size, 3, 0.9)},
            (mask, 2, 3): {0: self._peak_row(vocab.size, 1, 0.9)},
        }
        mlm = TableMLM(vocab.size, vocab.mask_id, patterns)
        result = mask_ctc_decode(em, mlm, vocab, MaskCtcConfig(threshold=0.6, iterations=2))
        assert result.tokens == truth
        assert result.mlm_calls == 2
        assert result.masked_counts == (2, 1)

    def test_high_confidence_is_idempotent(self, rng):
        vocab = make_vocab(3, with_mask=True)
        em = peaked_emission([(1, 0.9), (2, 0.92), (4, 0.95)], vocab.size)
        mlm = TableMLM(vocab.size, vocab.mask_id)
        result = mask_ctc_decode(em, mlm, vocab, MaskCtcConfig(threshold=0.8, iterations=4))
        tokens, _ = ctc_confidence_collapse(em, vocab.blank_id)
        assert result.tokens == tokens
        assert result.mlm_calls == 0

    def test_progress_strictly_decreases(self):
        vocab = make_vocab(2, with_mask=True)
        # six alternating uncertain tokens
        specs = [(1 + (i % 2), 0.4) for i in range(6)]
        em = peaked_emission(specs, vocab.size)
        mlm = TableMLM(vocab.size, vocab.mask_id)
        result = mask_ctc_decode(em, mlm, vocab, MaskCtcConfig(threshold=0.9, iterations=3))
        counts = result.masked_counts
        assert counts[0] == 6
        assert all(a > b for a, b in zip(counts, counts[1:]))
        assert result.mlm_calls <= 3
        assert vocab.mask_id not in result.tokens

    @pytest.mark.parametrize("length", [2, 4, 8, 16])
    def test_call_count_independent_of_length(self, length):
        # fully masked input with K <= masked count: the ceil schedule spends
        # exactly K calls whatever the sequence length
        vocab = make_vocab(2, with_mask=True)
        specs = [(1 + (i % 2), 0.4) for i in range(length)]
        em = peaked_emission(specs, vocab.size)
        mlm = TableMLM(vocab.size, vocab.mask_id)
        result = mask_ctc_decode(em, mlm, vocab, MaskCtcConfig(threshold=0.9, iterations=2))
        assert result.mlm_calls == 2

    def test_requires_mask_id(self, rng):
        vocab = make_vocab(2)
        em = random_emission(rng, 3, vocab.size)
        mlm = TableMLM(vocab.size, mask_id=99)
        with pytest.raises(ConfigError):
            mask_ctc_decode(em, mlm, vocab, MaskCtcConfig())

    @pytest.mark.parametrize("width", [4, 7])
    def test_emission_width_must_equal_vocab_size(self, width):
        vocab = make_vocab(1, with_mask=True)  # 5 tokens
        em = peaked_emission([(width - 1, 0.9)], width)
        with pytest.raises(ConfigError, match=f"emission has {width} columns"):
            mask_ctc_decode(em, TableMLM(width, vocab.mask_id), vocab, MaskCtcConfig())

    @pytest.mark.parametrize("width", [3, 7])
    def test_mlm_row_width_must_equal_vocab_size(self, width):
        vocab = make_vocab(1, with_mask=True)  # 5 tokens, mask_id 4
        em = peaked_emission([(1, 0.5), (1, 0.5)], vocab.size)
        probs = np.full(width, 0.1 / (width - 1))
        probs[width - 1] = 0.9  # a fill would pick id width-1
        mlm = TableMLM(width, vocab.mask_id, {(None,): {0: np.log(probs)}})
        with pytest.raises(ConfigError, match=f"has shape \\({width},\\)"):
            mask_ctc_decode(em, mlm, vocab, MaskCtcConfig(threshold=0.99))

    def test_unfilled_masks_raise_decode_error(self):
        # the schedule clears every mask within K >= 1 calls; a budget that
        # got past validation must still fail loudly, also under python -O,
        # and not as a config error
        vocab = make_vocab(2, with_mask=True)
        em = peaked_emission([(1, 0.4), (2, 0.4)], vocab.size)
        config = MaskCtcConfig(threshold=0.9)
        object.__setattr__(config, "iterations", 0)
        with pytest.raises(DecodeError, match="left 2 masks") as err:
            mask_ctc_decode(em, TableMLM(vocab.size, vocab.mask_id), vocab, config)
        assert not isinstance(err.value, ConfigError)


class TestFillIsALabel:
    """A fill reads each masked-LM row at the labels only: never the blank,
    sos, eos or the mask, ties to the smallest label id."""

    vocab = make_vocab(3, with_mask=True)  # blank 0, labels 1-3, eos 4, sos 5, mask 6

    def decode(self, patterns, threshold=0.99, iterations=1):
        em = peaked_emission([(1, 0.4), (2, 0.4)], self.vocab.size)
        mlm = TableMLM(self.vocab.size, self.vocab.mask_id, patterns)
        return mask_ctc_decode(em, mlm, self.vocab,
                               MaskCtcConfig(threshold=threshold, iterations=iterations))

    def row(self, probs):
        """Log of a row with the given (token, p) entries, the rest of the
        mass spread over the other tokens."""
        row = np.full(self.vocab.size, (1.0 - sum(probs.values())) / (self.vocab.size - len(probs)))
        for tok, p in probs.items():
            row[tok] = p
        with np.errstate(divide="ignore"):
            return np.log(row)

    def test_uniform_fallback_fills_the_smallest_label(self):
        result = self.decode({})
        assert result.initial_tokens == (1, 2) and result.tokens == (1, 1)

    def test_row_with_most_mass_on_the_mask(self):
        result = self.decode({(None, None): {0: self.row({6: 0.97}), 1: self.row({6: 0.9, 3: 0.05})}})
        assert result.tokens == (1, 3)

    @pytest.mark.parametrize("special", [0, 4, 5])
    def test_row_favouring_a_special_token(self, special):
        rows = {0: self.row({special: 0.6, 2: 0.2, 3: 0.1}), 1: self.row({special: 0.9, 1: 0.05})}
        assert self.decode({(None, None): rows}).tokens == (2, 1)

    def test_confidence_ranks_the_label_scores(self):
        # position 0's row favours the blank, position 1's a label: with
        # one fill per call, position 1 goes first, then the table's row
        # for (mask, 3) fills position 0
        patterns = {
            (None, None): {0: self.row({0: 0.9, 1: 0.04}), 1: self.row({3: 0.5})},
            (None, 3): {0: self.row({2: 0.8})},
        }
        result = self.decode(patterns, iterations=2)
        assert result.tokens == (2, 3) and result.masked_counts == (2, 1)

    def test_all_mass_on_the_mask_is_a_decode_error(self):
        row = np.full(self.vocab.size, -np.inf)
        row[6] = 0.0
        with pytest.raises(DecodeError, match="row 1 gives no label a finite score") as err:
            self.decode({(None, None): {0: self.row({1: 0.9}), 1: row}})
        assert not isinstance(err.value, ConfigError)


class TestTableMLM:
    def test_predicts_exactly_masked_positions(self):
        mlm = TableMLM(4, mask_id=3)
        preds = mlm.predict((0, 3, 1, 3))
        assert sorted(preds) == [1, 3]
        for row in preds.values():
            assert abs(float(np.logaddexp.reduce(row))) < 1e-9

    def test_unknown_pattern_uniform_fallback(self):
        mlm = TableMLM(4, mask_id=3)
        preds = mlm.predict((3,))
        assert preds[0] == pytest.approx(np.full(4, -math.log(4)))

    def test_json_round_trip(self, tmp_path):
        row = np.log(np.array([0.7, 0.1, 0.1, 0.1]))
        mlm = TableMLM(4, mask_id=3, patterns={(None, 2): {0: row}})
        path = tmp_path / "mlm.json"
        mlm.save(str(path))
        again = TableMLM.load(str(path), mask_id=3)
        assert np.array_equal(again.patterns[(None, 2)][0], row)
