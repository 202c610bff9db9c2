import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqdecode import (
    ConfigError,
    EmissionMatrix,
    FormatError,
    Hypothesis,
    NBestEntry,
    NBestList,
    Vocabulary,
    load_emission,
    logsumexp,
    save_emission,
    validate_hypothesis,
)
from seqdecode.core import ROW_TOL_EXACT, log_rows
from seqdecode.maskctc import TableMLM
from seqdecode.scorers import TableScorer
from seqdecode.transducer import TableTransducer

NEG_INF = float("-inf")


def _log_dirichlet(rng, shape):
    return np.log(rng.dirichlet(np.ones(shape[-1]), size=shape[:-1]))


# kind -> (build a model, load a path, a required payload key, the rows key)
MODEL_FILES = {
    "table_scorer": (
        lambda rng: TableScorer(1, 3, {(): np.array([math.log(0.5), math.log(0.5), NEG_INF]),
                                       (2,): _log_dirichlet(rng, (3,))}),
        TableScorer.load, "vocab_size", "rows",
    ),
    "table_transducer": (
        lambda rng: TableTransducer(1, 2, 2, {ctx: _log_dirichlet(rng, (2, 3))
                                              for ctx in [(), (0,), (1,)]}),
        TableTransducer.load, "T", "rows",
    ),
    "table_mlm": (
        lambda rng: TableMLM(4, 3, {(None, 2): {0: _log_dirichlet(rng, (4,))},
                                    (None, None): {0: _log_dirichlet(rng, (4,)),
                                                   1: _log_dirichlet(rng, (4,))}}),
        lambda path: TableMLM.load(path, mask_id=3), "vocab_size", "patterns",
    ),
}


class TestLogsumexp:
    def test_two_halves_sum_to_one(self):
        assert logsumexp([math.log(0.5), math.log(0.5)]) == pytest.approx(0.0, abs=1e-12)

    def test_all_neg_inf(self):
        assert logsumexp([NEG_INF, NEG_INF]) == NEG_INF

    def test_linear_domain_sum(self):
        # ln(0.1 + 0.2 + 0.3) = ln 0.6, computed directly in the linear domain
        expected = math.log(0.1 + 0.2 + 0.3)
        got = logsumexp([math.log(0.1), math.log(0.2), math.log(0.3)])
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(-0.5108, abs=1e-4)

    def test_empty_is_usage_error(self):
        with pytest.raises(ValueError):
            logsumexp([])

    @given(st.lists(st.floats(min_value=-50, max_value=0), min_size=1, max_size=8))
    @settings(max_examples=200)
    def test_permutation_invariant_and_dominates_max(self, vals):
        base = logsumexp(vals)
        assert base >= max(vals)
        assert logsumexp(list(reversed(vals))) == pytest.approx(base, abs=1e-12)

    @given(st.lists(st.floats(min_value=-30, max_value=0), min_size=1, max_size=6))
    @settings(max_examples=100)
    def test_neg_inf_is_absorbing(self, vals):
        assert logsumexp(vals + [NEG_INF]) == pytest.approx(logsumexp(vals), abs=1e-12)


class TestVocabulary:
    def test_reserved_indices_validated(self):
        with pytest.raises(ConfigError):
            Vocabulary(tokens=("a", "b"), blank_id=0, sos_id=1, eos_id=5)

    def test_reserved_must_be_distinct(self):
        with pytest.raises(ConfigError):
            Vocabulary(tokens=("a", "b", "c"), blank_id=0, sos_id=0, eos_id=1)

    def test_duplicate_tokens_rejected(self):
        with pytest.raises(ConfigError):
            Vocabulary(tokens=("a", "a", "b"), blank_id=0, sos_id=1, eos_id=2)

    def test_candidate_ids_exclude_sos_blank_mask(self):
        v = Vocabulary(
            tokens=("<blank>", "x", "<eos>", "<sos>", "<mask>"),
            blank_id=0, sos_id=3, eos_id=2, mask_id=4,
        )
        assert v.candidate_ids() == (1, 2)
        assert v.label_ids() == (1,)

    def test_round_trip_dict(self):
        v = Vocabulary(tokens=("<blank>", "x", "<eos>", "<sos>"),
                       blank_id=0, sos_id=3, eos_id=2)
        assert Vocabulary.from_dict(v.to_dict()) == v


class TestEmissionMatrix:
    def test_rejects_unnormalised(self):
        with pytest.raises(FormatError):
            EmissionMatrix(np.log(np.array([[0.5, 0.3]])))  # sums to 0.8

    def test_from_logits_normalises(self):
        m = EmissionMatrix.from_logits(np.array([[3.0, 1.0], [0.0, 0.0]]))
        sums = np.exp(m.data).sum(axis=1)
        assert np.allclose(sums, 1.0, atol=1e-12)

    def test_minimum_shape(self):
        with pytest.raises(FormatError):
            EmissionMatrix(np.zeros((0, 2)))
        with pytest.raises(FormatError):
            EmissionMatrix(np.zeros((1, 1)))

    def test_data_is_read_only(self):
        m = EmissionMatrix.from_logits(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            m.data[0, 0] = 1.0


class TestEmissionIO:
    def test_json_single_frame(self, tmp_path):
        path = tmp_path / "e.json"
        path.write_text(json.dumps(
            {"T": 1, "V": 2, "logprobs": [[math.log(0.5), math.log(0.5)]]}
        ))
        m = load_emission(str(path))
        assert m.frames == 1 and m.vocab_size == 2
        assert m.data[0, 0] == pytest.approx(math.log(0.5))

    def test_json_round_trip_is_identity(self, tmp_path, rng):
        m = EmissionMatrix.from_logits(rng.normal(size=(3, 4)))
        path = tmp_path / "e.json"
        save_emission(m, str(path), "json")
        m2 = load_emission(str(path))
        assert np.array_equal(m.data, m2.data)

    def test_row_off_normalisation_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"T": 2, "V": 2, "logprobs": [
                [math.log(0.5), math.log(0.5)],
                [math.log(0.5), math.log(0.3)],
            ]}
        ))
        with pytest.raises(FormatError, match="frame 1"):
            load_emission(str(path))

    def test_small_drift_renormalised(self, tmp_path):
        drift = 2e-4  # between the exact and the reject bounds
        row = [math.log(0.5) + drift, math.log(0.5) + drift]
        path = tmp_path / "drift.json"
        path.write_text(json.dumps({"T": 1, "V": 2, "logprobs": [row]}))
        m = load_emission(str(path))
        assert np.exp(m.data[0]).sum() == pytest.approx(1.0, abs=1e-9)

    def test_dimension_mismatch(self, tmp_path):
        path = tmp_path / "dim.json"
        path.write_text(json.dumps({"T": 2, "V": 2, "logprobs": [[0.0, 0.0]]}))
        with pytest.raises(FormatError):
            load_emission(str(path))

    def test_raw_f32_header_and_shape(self, tmp_path, rng):
        m = EmissionMatrix.from_logits(rng.normal(size=(3, 4)))
        path = tmp_path / "e.emis"
        save_emission(m, str(path), "raw-f32")
        blob = path.read_bytes()
        assert blob[:4] == b"EMIS"
        assert len(blob) == 4 + 8 + 3 * 4 * 4
        m2 = load_emission(str(path))
        assert (m2.frames, m2.vocab_size) == (3, 4)

    def test_raw_f32_round_trip_bit_exact(self, tmp_path, rng):
        m = EmissionMatrix.from_logits(rng.normal(size=(4, 3)))
        p1, p2 = tmp_path / "a.emis", tmp_path / "b.emis"
        save_emission(m, str(p1), "raw-f32")
        m1 = load_emission(str(p1))
        save_emission(m1, str(p2), "raw-f32")
        assert p1.read_bytes() == p2.read_bytes()
        m2 = load_emission(str(p2))
        assert np.array_equal(m1.data, m2.data)

    def test_raw_truncated_payload(self, tmp_path):
        path = tmp_path / "trunc.emis"
        path.write_bytes(b"EMIS" + (3).to_bytes(4, "little") + (4).to_bytes(4, "little") + b"\0" * 8)
        with pytest.raises(FormatError):
            load_emission(str(path))

    def test_format_autodetect(self, tmp_path, rng):
        m = EmissionMatrix.from_logits(rng.normal(size=(2, 3)))
        pj, pr = tmp_path / "x.json", tmp_path / "x.emis"
        save_emission(m, str(pj), "json")
        save_emission(m, str(pr), "raw-f32")
        assert load_emission(str(pj)).frames == 2
        assert load_emission(str(pr)).frames == 2


class TestModelFiles:
    """The three table model files share one reader, one row check and one
    context-key codec."""

    @pytest.mark.parametrize("kind", sorted(MODEL_FILES))
    def test_save_load_contract(self, kind, tmp_path, rng):
        build, load, required, rows_key = MODEL_FILES[kind]
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        build(rng).save(str(first))
        load(str(first)).save(str(second))
        assert first.read_bytes() == second.read_bytes()  # every float bit-identical

        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        with pytest.raises(FormatError, match="parse error"):
            load(str(broken))

        payload = json.loads(first.read_text())
        del payload[required]
        broken.write_text(json.dumps(payload))
        with pytest.raises(FormatError, match="missing key"):
            load(str(broken))

        def bump(node):  # add 0.5 to every number, so no row sums to one
            if isinstance(node, dict):
                return {k: bump(v) for k, v in node.items()}
            if isinstance(node, list):
                return [bump(v) for v in node]
            return node + 0.5

        payload = json.loads(first.read_text())
        payload[rows_key] = bump(payload[rows_key])
        broken.write_text(json.dumps(payload))
        with pytest.raises(ConfigError, match="not normalised"):
            load(str(broken))


class TestLogRows:
    """The one row check: rows within ROW_TOL_EXACT of a log-distribution."""

    @pytest.mark.parametrize("bad", [[-np.inf, -np.inf], [np.nan, 0.0], [np.inf, 0.0]])
    def test_rows_without_a_finite_log_sum_are_rejected(self, bad):
        rows = np.array([[0.0, -np.inf], bad])
        with pytest.raises(ConfigError, match="rows row 1 not normalised"):
            log_rows(rows, (2, 2), lambda: "rows")

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_rows_at_the_tolerance_are_decided_as_by_the_exact_fold(self, sign, rng):
        tol = sign * ROW_TOL_EXACT
        assert log_rows([tol, -np.inf], (2,), lambda: "row")[0] == tol
        with pytest.raises(ConfigError):
            log_rows([np.nextafter(tol, sign * np.inf), -np.inf], (2,), lambda: "row")
        decisions = set()
        for size in (2, 3, 31, 1000):
            for _ in range(10):
                row = rng.normal(size=size) * rng.choice([0.1, 1.0, 5.0])
                row += tol - np.logaddexp.reduce(row)
                for _ in range(6):  # start a few ulps inside, then step across
                    row = np.nextafter(row, -np.inf * sign)
                for _ in range(12):
                    row = np.nextafter(row, np.inf * sign)
                    exact = abs(np.logaddexp.reduce(row)) <= ROW_TOL_EXACT
                    try:
                        log_rows(row, (size,), lambda: "row")
                        accepted = True
                    except ConfigError:
                        accepted = False
                    assert accepted == exact
                    decisions.add(exact)
        assert decisions == {True, False}


class TestValidateHypothesis:
    def test_empty_breakdown(self):
        h = Hypothesis(yseq=(0,), score=0.0, scores={})
        assert validate_hypothesis(h, {})

    def test_weighted_match(self):
        h = Hypothesis(yseq=(0,), score=-0.5, scores={"a": -1.0})
        assert validate_hypothesis(h, {"a": 0.5})

    def test_mismatch(self):
        h = Hypothesis(yseq=(0,), score=-1.0, scores={"a": -1.0})
        assert not validate_hypothesis(h, {"a": 0.5})

    def test_neg_inf_consistent(self):
        h = Hypothesis(yseq=(0,), score=NEG_INF, scores={"a": NEG_INF})
        assert validate_hypothesis(h, {"a": 1.0})


class TestNBestList:
    def test_sorted_descending_with_lex_ties(self):
        entries = [
            NBestEntry(yseq=(2,), score=-1.0),
            NBestEntry(yseq=(1,), score=-1.0),
            NBestEntry(yseq=(1, 1), score=-0.5),
        ]
        nb = NBestList.from_entries(entries)
        assert [e.yseq for e in nb.entries] == [(1, 1), (1,), (2,)]
        scores = [e.score for e in nb.entries]
        assert scores == sorted(scores, reverse=True)


class TestEmissionFormatEdges:
    def test_explicit_raw_format_with_wrong_magic(self, tmp_path):
        path = tmp_path / "fake.emis"
        path.write_bytes(b"NOPE" + b"\0" * 16)
        with pytest.raises(FormatError, match="magic"):
            load_emission(str(path), "raw-f32")

    def test_unknown_format_name(self, tmp_path, rng):
        m = EmissionMatrix.from_logits(rng.normal(size=(2, 2)))
        with pytest.raises(ConfigError):
            save_emission(m, str(tmp_path / "x"), "parquet")
        path = tmp_path / "ok.json"
        save_emission(m, str(path), "json")
        with pytest.raises(ConfigError):
            load_emission(str(path), "parquet")

    def test_non_numeric_rows_are_format_error(self, tmp_path):
        path = tmp_path / "text.json"
        path.write_text(json.dumps({"T": 1, "V": 2, "logprobs": [["a", "b"]]}))
        with pytest.raises(FormatError, match="non-numeric"):
            load_emission(str(path))
