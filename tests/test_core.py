import json
import math
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqdecode import (
    ConfigError,
    EmissionMatrix,
    FormatError,
    NBestList,
    Vocabulary,
    load_emission,
    save_emission,
)
from seqdecode import core as core_mod
from seqdecode.core import (
    _BLOCK_ENTRIES,
    RAW_MAGIC,
    ROW_TOL_EXACT,
    ROW_TOL_REJECT,
    NBestEntry,
    _row_deviations,
    log_rows,
    logsumexp,
)
from seqdecode.maskctc import TableMLM
from seqdecode.scorers import TableScorer
from seqdecode.transducer import TableTransducer

from conftest import validate_hypothesis

NEG_INF = float("-inf")


def _log_dirichlet(rng, shape):
    return np.log(rng.dirichlet(np.ones(shape[-1]), size=shape[:-1]))


def rows_across(rng, tol, sizes=(2, 3, 31, 1000), samples=10):
    """Rows whose log-sum-exp steps ulp by ulp across the signed ``tol``:
    each starts a few ulps inside and ends a few ulps beyond."""
    sign = np.sign(tol)
    for size in sizes:
        for _ in range(samples):
            row = rng.normal(size=size) * rng.choice([0.1, 1.0, 5.0])
            row += tol - np.logaddexp.reduce(row)
            for _ in range(6):  # start a few ulps inside, then step across
                row = np.nextafter(row, -np.inf * sign)
            for _ in range(12):
                row = np.nextafter(row, np.inf * sign)
                yield row


def write_emission_json(path, rows):
    """An emission file with ``rows`` as given: save_emission would check them."""
    rows = np.atleast_2d(rows)
    path.write_text(json.dumps({"T": rows.shape[0], "V": rows.shape[1],
                                "logprobs": rows.tolist()}))
    return str(path)


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


# table model -> (the shape of one caller array, the mapping that hands a
# list of them over, the model built from that mapping, the arrays it holds)
TABLE_MODELS = {
    "table_scorer": (
        (1000,), lambda rows: {(i,): r for i, r in enumerate(rows)},
        lambda table: TableScorer(1, 1000, table), lambda m: list(m.rows.values()),
    ),
    "table_transducer": (
        (1, 1000), lambda rows: {(i,): r for i, r in enumerate(rows)},
        lambda table: TableTransducer(1, 1, 999, table), lambda m: list(m.rows.values()),
    ),
    "table_mlm": (
        (1000,), lambda rows: {(None,) * len(rows): dict(enumerate(rows))},
        lambda table: TableMLM(1000, 3, table),
        lambda m: [row for rows in m.patterns.values() for row in rows.values()],
    ),
}


@pytest.mark.parametrize("kind", sorted(TABLE_MODELS))
class TestTableModelsHoldTheCallersRows:
    """The table models share one convention: a caller's C-contiguous
    float64 rows are held as they are, made read-only; any other rows
    become read-only float64 arrays of the model's own."""

    def test_float64_rows_are_kept_and_frozen(self, kind, rng):
        shape, arrange, build, held = TABLE_MODELS[kind]
        rows = list(_log_dirichlet(rng, (3,) + shape))
        for row, kept in zip(rows, held(build(arrange(rows)))):
            assert np.shares_memory(kept, row)
            assert not row.flags.writeable and not kept.flags.writeable

    @pytest.mark.parametrize("convert", ["float32", "list"])
    def test_other_rows_become_the_tables_own(self, kind, convert, rng):
        shape, arrange, build, held = TABLE_MODELS[kind]
        data = _log_dirichlet(rng, (3,) + shape)
        rows = list(data.astype(np.float32)) if convert == "float32" else data.tolist()
        for row, kept in zip(rows, held(build(arrange(rows)))):
            assert kept.dtype == np.float64 and kept.flags.c_contiguous
            assert not kept.flags.writeable
            assert np.array_equal(kept, np.asarray(row, dtype=np.float64))
            if convert == "float32":
                assert not np.shares_memory(kept, row) and row.flags.writeable

    def test_building_allocates_no_copy_of_the_rows(self, kind, rng):
        shape, arrange, build, _ = TABLE_MODELS[kind]
        data = _log_dirichlet(rng, (200,) + shape)
        table = arrange(list(data))
        tracemalloc.start()
        try:
            build(table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < data.nbytes / 20


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

    @pytest.mark.parametrize("reserved", ["blank_id", "sos_id", "eos_id"])
    def test_mask_id_must_differ_from_reserved(self, reserved):
        """A mask equal to eos would drop eos from candidate_ids(), and a
        search could then only end in the live fallback."""
        ids = {"blank_id": 0, "sos_id": 4, "eos_id": 3}
        with pytest.raises(ConfigError, match=f"mask_id must differ from {reserved}"):
            Vocabulary(tokens=("<b>", "a", "b", "<eos>", "<sos>"), **ids, mask_id=ids[reserved])

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

    @pytest.mark.parametrize("mask_id", [None, 7])
    @pytest.mark.parametrize("unk_id", [None, 5])
    def test_ids_are_computed_once_by_the_definitions(self, mask_id, unk_id):
        v = Vocabulary(tokens=tuple(f"t{i}" for i in range(12)), blank_id=3, sos_id=0,
                       eos_id=10, mask_id=mask_id, unk_id=unk_id)
        candidates = tuple(i for i in range(12) if i not in {0, 3, mask_id})
        assert v.candidate_ids() == candidates
        assert v.label_ids() == tuple(i for i in candidates if i != 10)
        assert v.candidate_ids() is v.candidate_ids() and v.label_ids() is v.label_ids()

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

    def test_compares_and_hashes_by_identity(self):
        z = np.random.default_rng(4).normal(size=(3, 4))
        a, b = EmissionMatrix.from_logits(z), EmissionMatrix.from_logits(z)
        assert np.array_equal(a.data, b.data)
        assert (a == b) is False and a != b
        assert a == a and {a: 1}[a] == 1 and b not in {a: 1}

    def test_neg_inf_columns_computed_once_and_read_only(self, monkeypatch):
        logits = np.random.default_rng(3).normal(size=(5, 4))
        logits[2, 1] = logits[4, 3] = logits[0, 3] = -np.inf
        m = EmissionMatrix.from_logits(logits)
        calls = []
        isneginf = np.isneginf
        monkeypatch.setattr(np, "isneginf", lambda a: calls.append(1) or isneginf(a))
        flags = m.neg_inf_columns
        assert m.neg_inf_columns is flags and len(calls) == 1
        assert np.array_equal(flags, np.isneginf(m.data).any(axis=0))
        assert flags.tolist() == [False, True, False, True]
        with pytest.raises(ValueError):
            flags[0] = True


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
        for row in rows_across(rng, tol):
            exact = abs(np.logaddexp.reduce(row)) <= ROW_TOL_EXACT
            try:
                log_rows(row, (row.size,), lambda: "row")
                accepted = True
            except ConfigError:
                accepted = False
            assert accepted == exact
            decisions.add(exact)
        assert decisions == {True, False}


class TestEmissionRows:
    """Emission frames are decided by log_rows' rule: ROW_TOL_EXACT for a
    matrix, and on load ROW_TOL_EXACT to renormalise, ROW_TOL_REJECT to
    reject, each decision as the exact fold makes it."""

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_matrix_frames_at_the_tolerance_are_decided_as_by_the_exact_fold(self, sign, rng):
        decisions = set()
        for row in rows_across(rng, sign * ROW_TOL_EXACT):
            exact = abs(np.logaddexp.reduce(row)) <= ROW_TOL_EXACT
            try:
                EmissionMatrix(row[None, :])
                accepted = True
            except FormatError as e:
                assert str(e).startswith("emission frame 0 is not a distribution")
                accepted = False
            assert accepted == exact
            decisions.add(exact)
        assert decisions == {True, False}

    @pytest.mark.parametrize("tol", [ROW_TOL_EXACT, ROW_TOL_REJECT])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_loaded_frames_at_a_tolerance_are_decided_as_by_the_exact_fold(
            self, sign, tol, rng, tmp_path):
        decisions = set()
        for row in rows_across(rng, sign * tol, samples=4):
            lse = np.logaddexp.reduce(row)
            path = write_emission_json(tmp_path / "e.json", row)
            if abs(lse) > ROW_TOL_REJECT:
                with pytest.raises(FormatError, match="emission frame 0 is not"):
                    load_emission(path)
                decisions.add("rejected")
            elif abs(lse) > ROW_TOL_EXACT:
                assert np.array_equal(load_emission(path).data[0], row - lse)
                decisions.add("renormalised")
            else:
                assert np.array_equal(load_emission(path).data[0], row)
                decisions.add("kept")
        assert decisions == ({"kept", "renormalised"} if tol == ROW_TOL_EXACT
                             else {"renormalised", "rejected"})

    @pytest.mark.parametrize("build", ["matrix", "load", "load-raw"])
    def test_first_bad_frame_past_the_first_block_is_named(self, build, rng, tmp_path):
        vocab = 1000
        per_block = _BLOCK_ENTRIES // vocab
        data = _log_dirichlet(rng, (4 * per_block, vocab))
        assert data.shape[0] >= 200
        bad = 2 * per_block + 7
        off = 5e-4 if build == "matrix" else 5e-3  # past the tolerance each applies
        data[bad] += off
        data[bad + per_block] += off
        with pytest.raises(FormatError, match=f"emission frame {bad} is not"):
            if build == "matrix":
                EmissionMatrix(data)
            elif build == "load":
                load_emission(write_emission_json(tmp_path / "e.json", data))
            else:
                load_emission(write_emission_raw(tmp_path / "e.emis", data))

    def test_drift_frames_in_several_blocks_are_renormalised_bit_for_bit(self, rng, tmp_path):
        vocab = 1000
        per_block = _BLOCK_ENTRIES // vocab
        data = _log_dirichlet(rng, (3 * per_block + 5, vocab))
        drift = [0, per_block - 1, per_block, 2 * per_block + 3, data.shape[0] - 1]
        data[drift] += rng.uniform(2e-4, 9e-4, size=(len(drift), 1)) * rng.choice([-1, 1], size=(len(drift), 1))
        loaded = load_emission(write_emission_json(tmp_path / "e.json", data)).data
        for t, row in enumerate(data):
            expected = row - np.logaddexp.reduce(row) if t in drift else row
            assert np.array_equal(loaded[t], expected), t

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_matrix_check_needs_no_temporary_the_size_of_the_matrix(self, dtype, rng):
        data = _log_dirichlet(rng, (2000, 1000)).astype(dtype)

        def peak_of(build):
            tracemalloc.start()
            try:
                build()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak_of(lambda: _row_deviations(data, (ROW_TOL_EXACT,))) < data.nbytes / 4
        # wrapping adds the one copy the matrix keeps of the caller's array
        assert peak_of(lambda: EmissionMatrix(data)) < data.nbytes * 5 / 4


def write_emission_raw(path, rows):
    """A raw-f32 emission file with ``rows`` as given, rounded to float32."""
    with open(path, "wb") as f:
        f.write(RAW_MAGIC + struct.pack("<II", *rows.shape) + rows.astype("<f4").tobytes())
    return str(path)


class TestEmissionHandOver:
    """``load_emission`` checks each frame once and hands its own array to
    the matrix; wrapping a caller's array copies it and leaves it writable."""

    @pytest.mark.parametrize("fmt", ["json", "raw-f32"])
    def test_load_checks_each_frame_once(self, fmt, rng, tmp_path, monkeypatch):
        data = _log_dirichlet(rng, (3 * (_BLOCK_ENTRIES // 50), 50))
        drift = [0, 700, data.shape[0] - 1]
        data[drift] += np.array([[5e-4], [-8e-4], [2e-4]])
        calls = []

        def counting(rows, tols):
            calls.append(rows.shape)
            return _row_deviations(rows, tols)

        monkeypatch.setattr(core_mod, "_row_deviations", counting)
        if fmt == "json":
            loaded = load_emission(write_emission_json(tmp_path / "e.json", data))
        else:
            loaded = load_emission(write_emission_raw(tmp_path / "e.emis", data))
            data = data.astype(np.float32).astype(np.float64)
        assert calls == [data.shape]
        assert not loaded.data.flags.writeable
        for t, row in enumerate(data):
            expected = row - np.logaddexp.reduce(row) if t in drift else row
            assert np.array_equal(loaded.data[t], expected), t

    def test_load_hands_over_its_array_without_a_copy(self, rng, tmp_path, monkeypatch):
        parsed = []
        emission_rows = core_mod._emission_rows

        def recording(payload):
            parsed.append(emission_rows(payload))
            return parsed[-1]

        monkeypatch.setattr(core_mod, "_emission_rows", recording)
        loaded = load_emission(write_emission_json(tmp_path / "e.json",
                                                   _log_dirichlet(rng, (5, 4))))
        assert loaded.data is parsed[0]

    def test_from_logits_checks_each_frame_once_and_keeps_its_array(self, rng, monkeypatch):
        logits = rng.normal(size=(16 * (_BLOCK_ENTRIES // 100), 100))
        calls = []

        def counting(rows, tols):
            calls.append(rows.shape)
            return _row_deviations(rows, tols)

        monkeypatch.setattr(core_mod, "_row_deviations", counting)
        tracemalloc.start()
        try:
            m = EmissionMatrix.from_logits(logits)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert calls == [logits.shape]
        # the log-softmax result is the matrix's data: no second T x V array
        assert peak < logits.nbytes * 3 / 2
        assert np.array_equal(m.data, logits - np.logaddexp.reduce(logits, axis=1)[:, None])
        assert not m.data.flags.writeable and logits.flags.writeable

    def test_from_logits_holds_a_c_ordered_array_and_rejects_bad_shapes(self, rng):
        logits = np.asfortranarray(rng.normal(size=(5, 4)))
        m = EmissionMatrix.from_logits(logits)
        assert m.data.flags.c_contiguous
        assert np.array_equal(m.data, EmissionMatrix.from_logits(np.ascontiguousarray(logits)).data)
        with pytest.raises(FormatError, match="must be 2-D"):
            EmissionMatrix.from_logits(np.zeros((2, 3, 1)))
        with pytest.raises(FormatError, match="T >= 1 and V >= 2"):
            EmissionMatrix.from_logits(np.zeros((3, 1)))
        with np.errstate(invalid="ignore"), \
                pytest.raises(FormatError, match="frame 1 is not a distribution"):
            EmissionMatrix.from_logits(np.array([[0.0, 1.0], [np.inf, 0.0]]))

    def test_wrapping_leaves_the_callers_array_writable(self):
        x = np.log(np.full((2, 3), 1 / 3))
        m = EmissionMatrix(x)
        assert x.flags.writeable and not m.data.flags.writeable
        x[0, 0] = 0.0
        assert m.data[0, 0] == math.log(1 / 3)
        # a read-only view, or a subclass view, of a writable array is the
        # caller's memory too
        class Sub(np.ndarray):
            pass

        for view in (np.log(np.full((2, 3), 1 / 3)).view(),
                     np.log(np.full((2, 3), 1 / 3)).view(Sub)):
            view.setflags(write=False)
            m = EmissionMatrix(view)
            view.base[1, 0] = 0.0
            assert m.data[1, 0] == math.log(1 / 3)


class TestEmissionStorage:
    """A matrix holds its values at the precision they arrive in: float32
    from a raw-f32 file or a float32 array, float64 from everything else."""

    def test_raw_f32_load_keeps_float32(self, rng, tmp_path):
        data = _log_dirichlet(rng, (7, 5))
        m = load_emission(write_emission_raw(tmp_path / "e.emis", data))
        assert m.data.dtype == np.float32 and m.data.nbytes == 7 * 5 * 4
        assert np.array_equal(m.data, data.astype(np.float32))
        assert not m.data.flags.writeable
        assert m[2, 3].dtype == np.float64 and m[2, 3] == np.float32(data[2, 3])
        assert m[:, [0, 4]].dtype == np.float64

    def test_renormalised_raw_f32_load_is_float64(self, rng, tmp_path):
        data = _log_dirichlet(rng, (6, 40))
        data[[1, 4]] += np.array([[3e-4], [-6e-4]])
        m = load_emission(write_emission_raw(tmp_path / "e.emis", data))
        widened = data.astype(np.float32).astype(np.float64)
        expected = widened.copy()
        expected[[1, 4]] -= np.logaddexp.reduce(widened[[1, 4]], axis=1)[:, None]
        assert m.data.dtype == np.float64 and np.array_equal(m.data, expected)

    def test_wrapping_a_float32_array_keeps_a_float32_copy(self, rng):
        data = _log_dirichlet(rng, (4, 6)).astype(np.float32)
        m = EmissionMatrix(data)
        assert m.data.dtype == np.float32 and not np.shares_memory(m.data, data)
        assert np.array_equal(m.data, data) and data.flags.writeable

    def test_json_lists_float64_arrays_and_logits_give_float64(self, rng, tmp_path):
        data = _log_dirichlet(rng, (3, 4))
        for m in (load_emission(write_emission_json(tmp_path / "e.json", data)),
                  EmissionMatrix(data.tolist()), EmissionMatrix(data),
                  EmissionMatrix.from_logits(data.astype(np.float32))):
            assert m.data.dtype == np.float64


def not_a_distribution(shape, case):
    """Uniform log-rows whose row 1 (or only row) holds a nan or is shifted
    by +0.25."""
    rows = np.log(np.full(shape, 1.0 / shape[-1]))
    row = rows[1] if rows.ndim == 2 else rows
    if case == "nan":
        row[2] = np.nan
    else:
        row += 0.25
    return rows


class TestDeviationMessages:
    """A row that is not a distribution is reported with a plain float and
    without a numpy warning."""

    CASES = [("nan", "nan"), ("shifted", r"0\.25\d*")]

    @pytest.mark.parametrize("case, shown", CASES)
    def test_emission_frame(self, case, shown):
        frames = not_a_distribution((3, 4), case)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FormatError, match="^emission frame 1 is not a distribution: "
                                                  f"logsumexp deviation {shown}$"):
                EmissionMatrix(frames)

    @pytest.mark.parametrize("case, shown", CASES)
    def test_table_row(self, case, shown):
        row = not_a_distribution((4,), case)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match=f"^row not normalised: logsumexp "
                                                  f"deviation {shown}$"):
                log_rows(row, (4,), lambda: "row")


class TestValidateHypothesis:
    def test_empty_breakdown(self):
        h = NBestEntry(yseq=(0,), score=0.0, scores={})
        assert validate_hypothesis(h, {})

    def test_weighted_match(self):
        h = NBestEntry(yseq=(0,), score=-0.5, scores={"a": -1.0})
        assert validate_hypothesis(h, {"a": 0.5})

    def test_mismatch(self):
        h = NBestEntry(yseq=(0,), score=-1.0, scores={"a": -1.0})
        assert not validate_hypothesis(h, {"a": 0.5})

    def test_neg_inf_consistent(self):
        h = NBestEntry(yseq=(0,), score=NEG_INF, scores={"a": NEG_INF})
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
